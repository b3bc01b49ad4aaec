//! The exact Euclidean Steiner (Fermat/Torricelli) point of three points.
//!
//! The general Euclidean Steiner tree problem is NP-hard, but for exactly
//! three terminals the optimal junction — the point minimizing the sum of
//! distances to all three — has a classical closed-form construction
//! (Torricelli 1640s, restated by Neuberg \[24\] and Hwang et al. \[11\], the
//! references the paper cites). rrSTR (Section 3) calls this routine for
//! every candidate destination pair, so it must be fast and robust against
//! degenerate inputs.
//!
//! The rules:
//!
//! * If any interior angle of the triangle is ≥ 120°, the Fermat point is
//!   the vertex with that angle.
//! * Otherwise it is the unique interior point from which all three sides
//!   subtend 120°, found by intersecting two *Simpson lines* (each joins a
//!   vertex to the apex of the outward equilateral triangle erected on the
//!   opposite side).
//! * Coincident or collinear inputs degenerate to a vertex (see
//!   [`fermat_point`] for the case analysis).

use crate::point::Point;
use crate::predicates::{orientation, Orientation};
use crate::EPS;

/// Interior angle threshold above which the Fermat point collapses onto a
/// vertex: 120° in radians.
pub const FERMAT_ANGLE: f64 = 2.0 * std::f64::consts::FRAC_PI_3;

/// How the Fermat point relates to the input triangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FermatKind {
    /// The point is strictly interior to the triangle (all angles < 120°).
    Interior,
    /// The point coincides with input vertex 0, 1, or 2 (angle ≥ 120°,
    /// collinearity, or coincident inputs).
    AtVertex(u8),
}

/// Result of [`fermat_point`]: the optimal junction and how it degenerated
/// (if it did).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FermatPoint {
    /// The location of the Fermat point.
    pub location: Point,
    /// Whether the point is interior or collapsed onto a vertex.
    pub kind: FermatKind,
}

impl FermatPoint {
    /// The total length `d(t,a) + d(t,b) + d(t,c)` of the optimal 3-terminal
    /// Steiner tree.
    pub fn total_length(&self, a: Point, b: Point, c: Point) -> f64 {
        let t = self.location;
        t.dist(a) + t.dist(b) + t.dist(c)
    }
}

/// Computes the Fermat/Torricelli point of the triangle `(a, b, c)`.
///
/// The returned point minimizes `d(t,a) + d(t,b) + d(t,c)` over all points
/// `t` in the plane. Degenerate inputs are handled explicitly:
///
/// * two (or three) coincident points → the coincident location (doubling a
///   terminal pulls the optimum onto it);
/// * collinear points → the middle point of the three.
///
/// # Example
///
/// ```
/// use gmp_geom::{Point, fermat::{fermat_point, FermatKind}};
///
/// // Equilateral triangle: the Fermat point is the centroid.
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(1.0, 0.0);
/// let c = Point::new(0.5, 3f64.sqrt() / 2.0);
/// let f = fermat_point(a, b, c);
/// assert_eq!(f.kind, FermatKind::Interior);
/// assert!(f.location.almost_eq(Point::centroid([a, b, c]).unwrap()));
/// ```
pub fn fermat_point(a: Point, b: Point, c: Point) -> FermatPoint {
    // Coincident-point degeneracies. If b == c the objective is
    // d(t,a) + 2 d(t,b), minimized at t = b (and symmetrically).
    if b.almost_eq(c) {
        let kind = if a.almost_eq(b) {
            FermatKind::AtVertex(0)
        } else {
            FermatKind::AtVertex(1)
        };
        return FermatPoint { location: b, kind };
    }
    if a.almost_eq(b) {
        return FermatPoint {
            location: a,
            kind: FermatKind::AtVertex(0),
        };
    }
    if a.almost_eq(c) {
        return FermatPoint {
            location: a,
            kind: FermatKind::AtVertex(0),
        };
    }

    // Collinear: the middle point is optimal (any point on the middle
    // segment achieves the same sum only at the middle vertex once the
    // third distance is included).
    if orientation(a, b, c) == Orientation::Collinear {
        let idx = middle_of_collinear(a, b, c);
        let location = [a, b, c][idx as usize];
        return FermatPoint {
            location,
            kind: FermatKind::AtVertex(idx),
        };
    }

    // Obtuse-beyond-120° rule.
    if reaches_fermat_angle(a, b, c) {
        return FermatPoint {
            location: a,
            kind: FermatKind::AtVertex(0),
        };
    }
    if reaches_fermat_angle(b, a, c) {
        return FermatPoint {
            location: b,
            kind: FermatKind::AtVertex(1),
        };
    }
    if reaches_fermat_angle(c, a, b) {
        return FermatPoint {
            location: c,
            kind: FermatKind::AtVertex(2),
        };
    }

    // Torricelli construction: intersect two Simpson lines.
    let apex_a = outward_equilateral_apex(b, c, a);
    let apex_b = outward_equilateral_apex(a, c, b);
    let l1 = crate::segment::Segment::new(a, apex_a);
    let l2 = crate::segment::Segment::new(b, apex_b);
    match l1.line_intersection(&l2) {
        Some(p) => FermatPoint {
            location: p,
            kind: FermatKind::Interior,
        },
        // Numerically parallel Simpson lines can only happen for inputs that
        // are collinear up to rounding; fall back to the middle vertex.
        None => {
            let idx = middle_of_collinear(a, b, c);
            FermatPoint {
                location: [a, b, c][idx as usize],
                kind: FermatKind::AtVertex(idx),
            }
        }
    }
}

/// `angle_at(apex, p, q) >= FERMAT_ANGLE - EPS`, without the `acos` when
/// the answer cannot be `true`.
///
/// A non-negative dot product of the two arms means the angle is at most
/// 90°: [`Vec2::angle_between`](crate::point::Vec2::angle_between) then
/// returns `0.0` or `acos` of a quotient `≥ ±0`, both far below the
/// threshold. The dot is the same expression `angle_between` computes, so
/// the early `false` reproduces the full test bit for bit (a NaN dot falls
/// through to it). A triangle has at most one angle above 90°, so the
/// three vertex tests normally pay for one `acos` at most.
#[inline]
fn reaches_fermat_angle(apex: Point, p: Point, q: Point) -> bool {
    let (u, v) = (p - apex, q - apex);
    if u.dot(v) >= 0.0 {
        return false;
    }
    u.angle_between(v) >= FERMAT_ANGLE - EPS
}

/// Fermat points of a batch of triangles given in SoA form
/// (`a[i], b[i], c[i]`), written into `out[i]`.
///
/// Unlike the distance and ratio-bound kernels, the Fermat construction
/// is dominated by data-dependent branches (coincidence, collinearity,
/// and the three ≥ 120° vertex collapses), so the lanes cannot share
/// vector instructions; each lane simply runs the scalar
/// [`fermat_point`], which makes batch output bit-identical to the
/// scalar calls by construction. The batch form still pays off in bulk
/// evaluation (benchmarks, precomputation): the triangle data streams
/// through in SoA order instead of bouncing through call-site shuffles.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn fermat_point_batch(a: &[Point], b: &[Point], c: &[Point], out: &mut [FermatPoint]) {
    assert_eq!(a.len(), b.len(), "SoA lanes must agree in length");
    assert_eq!(a.len(), c.len(), "SoA lanes must agree in length");
    assert_eq!(a.len(), out.len(), "output must match the lane count");
    for i in 0..out.len() {
        out[i] = fermat_point(a[i], b[i], c[i]);
    }
}

/// The apex of the equilateral triangle erected on segment `p`–`q`, on the
/// side *away* from `opposite`.
fn outward_equilateral_apex(p: Point, q: Point, opposite: Point) -> Point {
    let third = std::f64::consts::FRAC_PI_3;
    let cand1 = q.rotate_around(p, third);
    let cand2 = q.rotate_around(p, -third);
    // Pick the candidate on the opposite side of line p–q from `opposite`.
    let side_opp = (q - p).cross(opposite - p);
    let side_c1 = (q - p).cross(cand1 - p);
    if side_opp * side_c1 < 0.0 {
        cand1
    } else {
        cand2
    }
}

/// Index (0, 1, or 2) of the point lying between the other two on their
/// common line.
fn middle_of_collinear(a: Point, b: Point, c: Point) -> u8 {
    let dab = a.dist_sq(b);
    let dac = a.dist_sq(c);
    let dbc = b.dist_sq(c);
    // The middle point is the one not incident to the longest span.
    if dab >= dac && dab >= dbc {
        2
    } else if dac >= dab && dac >= dbc {
        1
    } else {
        0
    }
}

/// Iteratively approximates the geometric median of three points with
/// Weiszfeld's algorithm.
///
/// This exists to *validate* [`fermat_point`] in tests and benchmarks; the
/// closed-form construction should always be preferred in protocol code.
pub fn weiszfeld(a: Point, b: Point, c: Point, iterations: usize) -> Point {
    let mut t = Point::centroid([a, b, c]).expect("three points");
    for _ in 0..iterations {
        let mut wsum = 0.0;
        let mut acc = crate::point::Vec2::default();
        let mut stuck = false;
        for p in [a, b, c] {
            let d = t.dist(p);
            if d < EPS {
                stuck = true;
                break;
            }
            let w = 1.0 / d;
            wsum += w;
            acc.x += p.x * w;
            acc.y += p.y * w;
        }
        if stuck || wsum == 0.0 {
            break;
        }
        let next = Point::new(acc.x / wsum, acc.y / wsum);
        if next.almost_eq(t) {
            return next;
        }
        t = next;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::angle_at;

    const SQ3: f64 = 1.732_050_807_568_877_2;

    #[test]
    fn equilateral_fermat_is_centroid() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let c = Point::new(1.0, SQ3);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::Interior);
        assert!(f.location.almost_eq(Point::new(1.0, SQ3 / 3.0)));
    }

    #[test]
    fn interior_point_sees_all_sides_at_120_degrees() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(5.0, 1.0);
        let c = Point::new(2.0, 4.0);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::Interior);
        let t = f.location;
        for (p, q) in [(a, b), (b, c), (a, c)] {
            let ang = angle_at(t, p, q);
            assert!(
                (ang - FERMAT_ANGLE).abs() < 1e-6,
                "angle {ang} should be 120°"
            );
        }
    }

    #[test]
    fn wide_angle_collapses_to_vertex() {
        // Angle at `a` is 180° - small: way beyond 120°.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.5);
        let c = Point::new(-10.0, 0.5);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::AtVertex(0));
        assert_eq!(f.location, a);
    }

    #[test]
    fn exactly_120_degrees_is_vertex() {
        // Construct a vertex with exactly 120°: rays at ±60° from the y axis.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(SQ3, 1.0); // 30° above x-axis
        let c = Point::new(-SQ3, 1.0);
        // Angle at a between b and c is 120°.
        assert!((angle_at(a, b, c) - FERMAT_ANGLE).abs() < 1e-9);
        let f = fermat_point(a, b, c);
        assert_eq!(f.kind, FermatKind::AtVertex(0));
    }

    #[test]
    fn collinear_middle_point_wins() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 1.0);
        let c = Point::new(2.0, 2.0);
        let f = fermat_point(a, b, c);
        assert_eq!(f.location, b);
        assert_eq!(f.kind, FermatKind::AtVertex(1));
    }

    #[test]
    fn coincident_pair_degenerates() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 0.0);
        let f = fermat_point(a, b, b);
        assert_eq!(f.location, b);
        assert_eq!(f.kind, FermatKind::AtVertex(1));
        let f2 = fermat_point(a, a, b);
        assert_eq!(f2.location, a);
        assert_eq!(f2.kind, FermatKind::AtVertex(0));
    }

    #[test]
    fn all_coincident_degenerates() {
        let a = Point::new(1.0, 1.0);
        let f = fermat_point(a, a, a);
        assert_eq!(f.location, a);
        assert_eq!(f.kind, FermatKind::AtVertex(0));
    }

    #[test]
    fn matches_weiszfeld_on_generic_triangles() {
        let cases = [
            (
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(1.0, 3.0),
            ),
            (
                Point::new(-5.0, 2.0),
                Point::new(3.0, 7.0),
                Point::new(2.0, -4.0),
            ),
            (
                Point::new(100.0, 200.0),
                Point::new(300.0, 250.0),
                Point::new(180.0, 400.0),
            ),
        ];
        for (a, b, c) in cases {
            let exact = fermat_point(a, b, c);
            let approx = weiszfeld(a, b, c, 200);
            assert!(
                exact.location.dist(approx) < 1e-3,
                "closed form {} vs weiszfeld {}",
                exact.location,
                approx
            );
        }
    }

    #[test]
    fn fermat_total_never_exceeds_vertex_junctions() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(7.0, 1.0);
        let c = Point::new(3.0, 5.0);
        let f = fermat_point(a, b, c);
        let total = f.total_length(a, b, c);
        for v in [a, b, c] {
            let via_v = v.dist(a) + v.dist(b) + v.dist(c);
            assert!(total <= via_v + 1e-9);
        }
    }

    #[test]
    fn batch_covers_every_degenerate_case() {
        // One lane per special case `fermat_point` distinguishes:
        // coincident pair, all coincident, collinear, ≥ 120° at each
        // vertex, and a generic interior triangle.
        let a = vec![
            Point::new(0.0, 0.0),  // coincident b == c
            Point::new(1.0, 1.0),  // all coincident
            Point::new(0.0, 0.0),  // collinear
            Point::new(0.0, 0.0),  // wide angle at a
            Point::new(10.0, 0.5), // wide angle at b (= a-case swapped)
            Point::new(0.0, 0.0),  // generic interior
        ];
        let b = vec![
            Point::new(3.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(10.0, 0.5),
            Point::new(0.0, 0.0),
            Point::new(5.0, 1.0),
        ];
        let c = vec![
            Point::new(3.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(-10.0, 0.5),
            Point::new(-10.0, 0.5),
            Point::new(2.0, 4.0),
        ];
        let mut out = vec![
            FermatPoint {
                location: Point::ORIGIN,
                kind: FermatKind::Interior,
            };
            a.len()
        ];
        fermat_point_batch(&a, &b, &c, &mut out);
        for i in 0..a.len() {
            assert_eq!(out[i], fermat_point(a[i], b[i], c[i]), "lane {i}");
        }
        assert_eq!(out[0].kind, FermatKind::AtVertex(1));
        assert_eq!(out[1].kind, FermatKind::AtVertex(0));
        assert_eq!(out[2].kind, FermatKind::AtVertex(1));
        assert_eq!(out[3].kind, FermatKind::AtVertex(0));
        assert_eq!(out[4].kind, FermatKind::AtVertex(1));
        assert_eq!(out[5].kind, FermatKind::Interior);
    }

    #[test]
    fn invariant_under_rotation_and_translation() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 1.0);
        let c = Point::new(1.0, 3.0);
        let f = fermat_point(a, b, c).location;
        let center = Point::new(-3.0, 9.0);
        let ang = 1.234;
        let shift = crate::point::Vec2::new(17.0, -5.0);
        let (ra, rb, rc) = (
            a.rotate_around(center, ang) + shift,
            b.rotate_around(center, ang) + shift,
            c.rotate_around(center, ang) + shift,
        );
        let rf = fermat_point(ra, rb, rc).location;
        let expected = f.rotate_around(center, ang) + shift;
        assert!(rf.dist(expected) < 1e-6, "rf={rf} expected={expected}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn point() -> impl Strategy<Value = Point> {
        (-1000.0..1000.0f64, -1000.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
    }

    /// Triangles biased toward the degenerate branches `fermat_point`
    /// special-cases: coincident pairs, collinear triples, and wide
    /// (≥ 120°) vertex angles, alongside generic triangles. A selector
    /// lane picks the shape (the vendored proptest stand-in has no
    /// `prop_oneof`).
    fn triangle() -> impl Strategy<Value = (Point, Point, Point)> {
        (point(), point(), point(), -0.5..1.5f64, 0usize..7).prop_map(|(a, b, c, t, shape)| {
            match shape {
                // Generic triangle.
                0 => (a, b, c),
                // A coincident pair in each slot.
                1 => (a, b, b),
                2 => (a, a, b),
                3 => (a, b, a),
                // All three coincident.
                4 => (a, a, a),
                // Collinear: c on the line through a and b.
                5 => (a, b, a.lerp(b, t)),
                // Wide angle at the first vertex: b and c nearly
                // opposite across a.
                _ => (a, b, a - (b - a) * (1.0 + t * 0.1)),
            }
        })
    }

    proptest! {
        #[test]
        fn fermat_batch_is_bit_identical_to_scalar(
            tris in proptest::collection::vec(triangle(), 0..24),
        ) {
            let a: Vec<Point> = tris.iter().map(|t| t.0).collect();
            let b: Vec<Point> = tris.iter().map(|t| t.1).collect();
            let c: Vec<Point> = tris.iter().map(|t| t.2).collect();
            let mut out = vec![
                FermatPoint { location: Point::ORIGIN, kind: FermatKind::Interior };
                tris.len()
            ];
            fermat_point_batch(&a, &b, &c, &mut out);
            for (i, &(ta, tb, tc)) in tris.iter().enumerate() {
                let scalar = fermat_point(ta, tb, tc);
                prop_assert_eq!(out[i].kind, scalar.kind, "lane {} kind", i);
                prop_assert_eq!(
                    out[i].location.x.to_bits(), scalar.location.x.to_bits(),
                    "lane {} x: batch {} vs scalar {}", i, out[i].location, scalar.location
                );
                prop_assert_eq!(
                    out[i].location.y.to_bits(), scalar.location.y.to_bits(),
                    "lane {} y: batch {} vs scalar {}", i, out[i].location, scalar.location
                );
            }
        }
    }
}
