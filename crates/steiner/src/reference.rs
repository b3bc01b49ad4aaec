//! A deliberately naive reference implementation of rrSTR.
//!
//! [`rrstr_reference`] transcribes Figure 3 of the paper with linear
//! scans and no caching — `O(n³)` per tree but simple enough to audit
//! line-by-line against the pseudocode. The production
//! [`rrstr`](crate::rrstr::rrstr) (lazy bounds, best-partner selection,
//! `O(n²)` on random inputs) is property-tested to produce *identical*
//! trees, so any future
//! optimization of the fast path is pinned to this executable
//! specification.

use gmp_geom::Point;

use crate::ratio::reduction_ratio;
use crate::rrstr::RadioRange;
use crate::tree::{SteinerTree, VertexId, VertexKind};

/// Builds the rrSTR tree by scanning all active pairs at every iteration.
///
/// Produces exactly the same tree as [`rrstr`](crate::rrstr::rrstr); use
/// that in protocol code and this only as a test oracle.
#[allow(clippy::needless_range_loop)] // `active` is a parallel activity vector
pub fn rrstr_reference(source: Point, dests: &[Point], mode: RadioRange) -> SteinerTree {
    let mut tree = SteinerTree::new(source);
    let mut active: Vec<bool> = vec![false];
    for (i, &d) in dests.iter().enumerate() {
        tree.add_vertex(VertexKind::Terminal(i), d);
        active.push(true);
    }
    let mut dead_pairs: Vec<(VertexId, VertexId)> = Vec::new();

    loop {
        // Scan every active, non-dead pair for the largest reduction
        // ratio; ties broken toward smaller vertex ids, matching the fast
        // implementation's deterministic ordering.
        let mut best: Option<(f64, VertexId, VertexId)> = None;
        for u in 1..tree.len() {
            if !active[u] {
                continue;
            }
            for v in (u + 1)..tree.len() {
                if !active[v] || dead_pairs.contains(&(u, v)) {
                    continue;
                }
                let e = reduction_ratio(source, tree.pos(u), tree.pos(v));
                let better = match best {
                    None => true,
                    Some((br, bu, bv)) => e.ratio > br || (e.ratio == br && (u, v) < (bu, bv)),
                };
                if better {
                    best = Some((e.ratio, u, v));
                }
            }
        }
        let Some((_, u, v)) = best else {
            for v in 1..tree.len() {
                if active[v] {
                    tree.add_edge(tree.root(), v);
                    active[v] = false;
                }
            }
            break;
        };

        let (pu, pv) = (tree.pos(u), tree.pos(v));
        let t = reduction_ratio(source, pu, pv).steiner.location;
        if t.almost_eq(source) {
            tree.add_edge(tree.root(), u);
            tree.add_edge(tree.root(), v);
            active[u] = false;
            active[v] = false;
        } else if t.almost_eq(pu) {
            tree.add_edge(u, v);
            active[v] = false;
        } else if t.almost_eq(pv) {
            tree.add_edge(v, u);
            active[u] = false;
        } else if let RadioRange::Aware(rr) = mode {
            let du = source.dist(pu);
            let dv = source.dist(pv);
            let spokes = du + dv;
            let via_t = t.dist(pu) + t.dist(pv);
            if du < rr && dv < rr {
                dead_pairs.push((u, v));
            } else if du < rr {
                if rr + via_t > spokes {
                    dead_pairs.push((u, v));
                } else {
                    tree.add_edge(u, v);
                    active[v] = false;
                }
            } else if dv < rr {
                if rr + via_t > spokes {
                    dead_pairs.push((u, v));
                } else {
                    tree.add_edge(v, u);
                    active[u] = false;
                }
            } else if source.dist(t) < rr && rr + via_t > spokes {
                tree.add_edge(tree.root(), u);
                tree.add_edge(tree.root(), v);
                active[u] = false;
                active[v] = false;
            } else {
                make_virtual(&mut tree, &mut active, t, u, v);
            }
        } else {
            make_virtual(&mut tree, &mut active, t, u, v);
        }
    }
    tree
}

fn make_virtual(
    tree: &mut SteinerTree,
    active: &mut Vec<bool>,
    t: Point,
    u: VertexId,
    v: VertexId,
) {
    let w = tree.add_vertex(VertexKind::Virtual, t);
    tree.add_edge(w, u);
    tree.add_edge(w, v);
    active[u] = false;
    active[v] = false;
    active.push(true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrstr::rrstr;

    #[test]
    fn matches_fast_implementation_on_fixed_cases() {
        let s = Point::new(100.0, 100.0);
        let cases: Vec<Vec<Point>> = vec![
            vec![Point::new(500.0, 120.0)],
            vec![Point::new(500.0, 140.0), Point::new(500.0, 60.0)],
            vec![
                Point::new(420.0, 240.0),
                Point::new(900.0, 380.0),
                Point::new(900.0, 220.0),
                Point::new(720.0, 100.0),
            ],
            vec![
                Point::new(150.0, 110.0), // within radio range
                Point::new(160.0, 80.0),  // within radio range
                Point::new(800.0, 800.0),
            ],
        ];
        for dests in cases {
            for mode in [RadioRange::Aware(150.0), RadioRange::Ignored] {
                assert_eq!(
                    rrstr(s, &dests, mode),
                    rrstr_reference(s, &dests, mode),
                    "mismatch on {dests:?} / {mode:?}"
                );
            }
        }
    }

    #[test]
    fn matches_fast_implementation_on_pseudorandom_inputs() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..60 {
            let n = 1 + case % 10;
            let s = Point::new(next() * 1000.0, next() * 1000.0);
            let dests: Vec<Point> = (0..n)
                .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
                .collect();
            for mode in [RadioRange::Aware(150.0), RadioRange::Ignored] {
                let fast = rrstr(s, &dests, mode);
                let slow = rrstr_reference(s, &dests, mode);
                assert_eq!(fast, slow, "case {case} ({n} dests, {mode:?})");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rrstr::rrstr;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fast_and_reference_trees_are_identical(
            dests in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..10),
            sx in 0.0..1000.0f64,
            sy in 0.0..1000.0f64,
            aware in proptest::bool::ANY,
        ) {
            let s = Point::new(sx, sy);
            let dests: Vec<Point> = dests.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let mode = if aware { RadioRange::Aware(150.0) } else { RadioRange::Ignored };
            prop_assert_eq!(rrstr(s, &dests, mode), rrstr_reference(s, &dests, mode));
        }
    }
}
