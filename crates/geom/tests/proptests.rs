//! Property-based tests for the geometry kernels.

use gmp_geom::fermat::{fermat_point, weiszfeld, FermatKind, FermatPoint, FERMAT_ANGLE};
use gmp_geom::predicates::{angle_at, in_diametral_disk, in_lune, orientation, Orientation};
use gmp_geom::region::{convex_hull, Region};
use gmp_geom::{Point, Segment, EPS};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-500.0..500.0f64, -500.0..500.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fermat_point_is_no_worse_than_weiszfeld(a in pt(), b in pt(), c in pt()) {
        let exact = fermat_point(a, b, c);
        let t = exact.location;
        let exact_total = t.dist(a) + t.dist(b) + t.dist(c);
        let w = weiszfeld(a, b, c, 300);
        let w_total = w.dist(a) + w.dist(b) + w.dist(c);
        // The closed form is optimal; allow tiny numerical slack.
        prop_assert!(exact_total <= w_total + 1e-6,
            "closed form {exact_total} vs weiszfeld {w_total}");
    }

    #[test]
    fn fermat_point_dominates_midpoint_junctions(a in pt(), b in pt(), c in pt()) {
        let t = fermat_point(a, b, c).location;
        let total = t.dist(a) + t.dist(b) + t.dist(c);
        for j in [a.midpoint(b), b.midpoint(c), a.midpoint(c), Point::centroid([a,b,c]).unwrap()] {
            let via = j.dist(a) + j.dist(b) + j.dist(c);
            prop_assert!(total <= via + 1e-6);
        }
    }

    #[test]
    fn orientation_is_antisymmetric_under_swap(a in pt(), b in pt(), c in pt()) {
        let o1 = orientation(a, b, c);
        let o2 = orientation(a, c, b);
        match o1 {
            Orientation::Collinear => prop_assert_eq!(o2, Orientation::Collinear),
            Orientation::Clockwise => prop_assert_eq!(o2, Orientation::CounterClockwise),
            Orientation::CounterClockwise => prop_assert_eq!(o2, Orientation::Clockwise),
        }
    }

    #[test]
    fn segment_intersection_is_symmetric(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
        prop_assert_eq!(s1.properly_crosses(&s2), s2.properly_crosses(&s1));
        // Proper crossing implies intersection.
        if s1.properly_crosses(&s2) {
            prop_assert!(s1.intersects(&s2));
        }
    }

    #[test]
    fn proper_crossing_point_lies_on_both_lines(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        if s1.properly_crosses(&s2) {
            let p = s1.line_intersection(&s2).expect("crossing lines intersect");
            // The crossing point is on both segments (generously bounded).
            prop_assert!(s1.contains(p) || p.dist(a).min(p.dist(b)) < 1e-3);
            prop_assert!(s2.contains(p) || p.dist(c).min(p.dist(d)) < 1e-3);
        }
    }

    #[test]
    fn diametral_disk_is_inside_the_lune(a in pt(), b in pt(), p in pt()) {
        prop_assume!(!a.almost_eq(b));
        if in_diametral_disk(p, a, b) {
            prop_assert!(in_lune(p, a, b), "Gabriel region must be inside the RNG region");
        }
    }

    #[test]
    fn hull_contains_all_points(points in proptest::collection::vec(pt(), 3..40)) {
        let hull = convex_hull(&points);
        prop_assume!(hull.len() >= 3);
        let region = Region::convex_polygon(hull.clone());
        for p in &points {
            prop_assert!(region.contains(*p), "{p} escaped its own hull");
        }
        // Hull vertices are drawn from the input.
        for h in &hull {
            prop_assert!(points.iter().any(|p| p.almost_eq(*h)));
        }
    }

    #[test]
    fn region_anchor_is_inside_its_bounding_box(c in pt(), r in 1.0..200.0f64) {
        let region = Region::Circle { center: c, radius: r };
        let bb = region.bounding_box();
        prop_assert!(bb.contains(region.anchor()));
        // The anchor is in the region itself for circles and rects.
        prop_assert!(region.contains(region.anchor()));
    }

    #[test]
    fn rotation_preserves_fermat_totals(a in pt(), b in pt(), c in pt(), ang in 0.0..std::f64::consts::TAU) {
        let t1 = fermat_point(a, b, c);
        let total1 = t1.total_length(a, b, c);
        let center = Point::new(10.0, -20.0);
        let (ra, rb, rc) = (
            a.rotate_around(center, ang),
            b.rotate_around(center, ang),
            c.rotate_around(center, ang),
        );
        let t2 = fermat_point(ra, rb, rc);
        let total2 = t2.total_length(ra, rb, rc);
        prop_assert!((total1 - total2).abs() < 1e-5,
            "rotation changed the optimum: {total1} vs {total2}");
    }
}

/// A frozen copy of `fermat_point` as it stood before the ≥ 120° vertex
/// tests gained their `acos`-free early-out: all three tests call
/// `angle_at` unconditionally. The live function must match it bit for bit.
fn fermat_point_reference(a: Point, b: Point, c: Point) -> FermatPoint {
    let at = |location, idx| FermatPoint {
        location,
        kind: FermatKind::AtVertex(idx),
    };
    if b.almost_eq(c) {
        return at(b, if a.almost_eq(b) { 0 } else { 1 });
    }
    if a.almost_eq(b) || a.almost_eq(c) {
        return at(a, 0);
    }
    if orientation(a, b, c) == Orientation::Collinear {
        let idx = reference_middle_of_collinear(a, b, c);
        return at([a, b, c][idx as usize], idx);
    }
    if angle_at(a, b, c) >= FERMAT_ANGLE - EPS {
        return at(a, 0);
    }
    if angle_at(b, a, c) >= FERMAT_ANGLE - EPS {
        return at(b, 1);
    }
    if angle_at(c, a, b) >= FERMAT_ANGLE - EPS {
        return at(c, 2);
    }
    let apex_a = reference_outward_apex(b, c, a);
    let apex_b = reference_outward_apex(a, c, b);
    match Segment::new(a, apex_a).line_intersection(&Segment::new(b, apex_b)) {
        Some(location) => FermatPoint {
            location,
            kind: FermatKind::Interior,
        },
        None => {
            let idx = reference_middle_of_collinear(a, b, c);
            at([a, b, c][idx as usize], idx)
        }
    }
}

fn reference_outward_apex(p: Point, q: Point, opposite: Point) -> Point {
    let third = std::f64::consts::FRAC_PI_3;
    let cand1 = q.rotate_around(p, third);
    let cand2 = q.rotate_around(p, -third);
    if (q - p).cross(opposite - p) * (q - p).cross(cand1 - p) < 0.0 {
        cand1
    } else {
        cand2
    }
}

fn reference_middle_of_collinear(a: Point, b: Point, c: Point) -> u8 {
    let (dab, dac, dbc) = (a.dist_sq(b), a.dist_sq(c), b.dist_sq(c));
    if dab >= dac && dab >= dbc {
        2
    } else if dac >= dab && dac >= dbc {
        1
    } else {
        0
    }
}

/// `fermat_point` equals the frozen reference bit for bit: same kind, same
/// location bits.
fn assert_matches_reference(a: Point, b: Point, c: Point) -> Result<(), TestCaseError> {
    let got = fermat_point(a, b, c);
    let want = fermat_point_reference(a, b, c);
    prop_assert_eq!(got.kind, want.kind, "kind for {:?}", (a, b, c));
    prop_assert_eq!(
        (got.location.x.to_bits(), got.location.y.to_bits()),
        (want.location.x.to_bits(), want.location.y.to_bits()),
        "location for {:?}: {} vs {}",
        (a, b, c),
        got.location,
        want.location
    );
    Ok(())
}

/// The three rotations of a triangle, so every adversarial angle is tried
/// at each vertex slot.
fn rotations(a: Point, b: Point, c: Point) -> [(Point, Point, Point); 3] {
    [(a, b, c), (b, c, a), (c, a, b)]
}

/// A point at distance `r` from `apex` in direction `theta`.
fn polar(apex: Point, r: f64, theta: f64) -> Point {
    Point::new(apex.x + r * theta.cos(), apex.y + r * theta.sin())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fermat_point_matches_frozen_reference_on_random_triangles(
        a in pt(), b in pt(), c in pt(),
    ) {
        for (p, q, r) in rotations(a, b, c) {
            assert_matches_reference(p, q, r)?;
        }
    }

    #[test]
    fn fermat_point_matches_frozen_reference_on_right_angles(
        apex in pt(), r1 in 1e-3..300.0f64, r2 in 1e-3..300.0f64, theta in 0.0..std::f64::consts::TAU,
        lx in -40i32..40, ly in -40i32..40, s in 1i32..20,
    ) {
        // Rotated right angle: the arms' dot product is zero up to rounding,
        // so it lands on either side of the early-out.
        let b = polar(apex, r1, theta);
        let c = polar(apex, r2, theta + std::f64::consts::FRAC_PI_2);
        // Lattice right angle: the arms' dot product is exactly zero.
        let o = Point::new(f64::from(lx), f64::from(ly));
        let (lb, lc) = (
            Point::new(o.x + f64::from(s), o.y + f64::from(s)),
            Point::new(o.x - f64::from(s), o.y + f64::from(s)),
        );
        for (p, q, r) in rotations(apex, b, c).into_iter().chain(rotations(o, lb, lc)) {
            assert_matches_reference(p, q, r)?;
        }
    }

    #[test]
    fn fermat_point_matches_frozen_reference_near_120_degrees(
        apex in pt(), r1 in 1e-3..300.0f64, r2 in 1e-3..300.0f64, theta in 0.0..std::f64::consts::TAU,
    ) {
        for delta in [-1e-9, -EPS, 0.0, EPS, 1e-9] {
            let b = polar(apex, r1, theta);
            let c = polar(apex, r2, theta + FERMAT_ANGLE + delta);
            for (p, q, r) in rotations(apex, b, c) {
                assert_matches_reference(p, q, r)?;
            }
        }
    }

    #[test]
    fn fermat_point_matches_frozen_reference_on_degenerate_triangles(
        a in pt(), b in pt(), t in -0.5..1.5f64,
    ) {
        // Collinear (on the line and exactly on the segment's endpoints'
        // midpoint), then every coincident pattern.
        let cases = [
            (a, b, a.lerp(b, t)),
            (a, b, a.midpoint(b)),
            (a, b, b),
            (a, a, b),
            (a, b, a),
            (a, a, a),
        ];
        for (p, q, r) in cases.into_iter().flat_map(|(p, q, r)| rotations(p, q, r)) {
            assert_matches_reference(p, q, r)?;
        }
    }

    #[test]
    fn fermat_point_matches_frozen_reference_on_lattice_points(
        ax in -3i32..4, ay in -3i32..4, bx in -3i32..4, by in -3i32..4, cx in -3i32..4, cy in -3i32..4,
    ) {
        // Small integer coordinates hit exact zero dot products, exact
        // collinearity and exact coincidence far more often than floats do.
        let p = |x: i32, y: i32| Point::new(f64::from(x), f64::from(y));
        for (a, b, c) in rotations(p(ax, ay), p(bx, by), p(cx, cy)) {
            assert_matches_reference(a, b, c)?;
        }
    }
}
