//! Local planarization of the unit-disk graph.
//!
//! Right-hand-rule traversal (perimeter mode) is only correct on a planar
//! graph, so GPSR-family protocols first planarize the connectivity graph
//! using the Relative Neighborhood Graph \[29\] or the Gabriel Graph \[9\].
//! Both can be computed by each node with purely local information: an edge
//! `(u, v)` is kept iff no *witness* node lies in a forbidden region, and
//! every possible witness is itself within radio range of `u` (the
//! forbidden regions are contained in the disk of radius `d(u,v)` around
//! `u`), so scanning `u`'s neighbor table suffices.
//!
//! * **Gabriel graph**: the forbidden region is the disk with diameter
//!   `u`–`v`.
//! * **RNG**: the forbidden region is the lune — the intersection of the
//!   two disks of radius `d(u,v)` centered at `u` and `v`. The lune
//!   contains the diametral disk, hence RNG ⊆ Gabriel.
//!
//! Both subgraphs are planar and, crucially, connectivity-preserving: if
//! the unit-disk graph is connected, so are its Gabriel and RNG subgraphs.

use gmp_geom::predicates::{in_diametral_disk, in_lune};

use crate::csr::Csr;
use crate::node::NodeId;
use crate::topology::Topology;

/// Which planar subgraph to use for perimeter routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanarKind {
    /// Gabriel graph — denser, shorter detours; GMP's default (Section 4.1
    /// mentions both, the experiments use Gabriel).
    #[default]
    Gabriel,
    /// Relative Neighborhood Graph — sparser.
    RelativeNeighborhood,
}

/// Computes the planarized neighbor lists for every node as a flat CSR
/// layout; row `i` is the sorted planar neighbor list of node `i`.
/// This is what [`Topology::planar_neighbors`] caches.
pub fn planarize(topo: &Topology, kind: PlanarKind) -> Csr<NodeId> {
    let mut csr = Csr::with_capacity(topo.len(), topo.len() * 4);
    let mut row = Vec::new();
    for i in 0..topo.len() {
        live_planar_neighbors_into(topo, NodeId(i as u32), kind, None, &mut row);
        csr.push_row(row.iter().copied());
    }
    csr
}

/// Computes the planar neighbor list of `u` using only its own neighbor
/// table — the operation an actual sensor node would run. Writes into
/// `out` (cleared first) so per-hop calls allocate nothing after warm-up.
///
/// With `alive = Some(mask)` this planarizes the *live* subgraph: dead
/// neighbors are dropped, and — just as important — dead nodes no longer
/// act as witnesses, so an edge a dead witness used to suppress is
/// revived. Face traversal over a faulted network must use this (the
/// cached full-topology planarization can disconnect the live subgraph).
/// An all-true mask produces exactly the `None` row — same iteration
/// order, same predicates — which the determinism parity suites rely on.
pub fn live_planar_neighbors_into(
    topo: &Topology,
    u: NodeId,
    kind: PlanarKind,
    alive: Option<&[bool]>,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let live = |n: NodeId| alive.is_none_or(|mask| mask[n.index()]);
    let pu = topo.pos(u);
    let neigh = topo.neighbors(u);
    'edges: for &v in neigh {
        if !live(v) {
            continue;
        }
        let pv = topo.pos(v);
        for &w in neigh {
            if w == v || !live(w) {
                continue;
            }
            let pw = topo.pos(w);
            let blocked = match kind {
                PlanarKind::Gabriel => in_diametral_disk(pw, pu, pv),
                PlanarKind::RelativeNeighborhood => in_lune(pw, pu, pv),
            };
            if blocked {
                continue 'edges;
            }
        }
        out.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use gmp_geom::{Aabb, Point, Segment};

    fn random_topo(seed: u64) -> Topology {
        Topology::random(&TopologyConfig::new(500.0, 120, 120.0), seed)
    }

    fn edge_set(adj: &Csr<NodeId>) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (i, list) in adj.iter().enumerate() {
            for &j in list {
                if i < j.index() {
                    edges.push((i, j.index()));
                }
            }
        }
        edges
    }

    #[test]
    fn planar_graphs_are_symmetric_subgraphs_of_udg() {
        let topo = random_topo(21);
        for kind in [PlanarKind::Gabriel, PlanarKind::RelativeNeighborhood] {
            let adj = planarize(&topo, kind);
            for (i, list) in adj.iter().enumerate() {
                let u = NodeId(i as u32);
                for &v in list {
                    assert!(
                        topo.neighbors(u).contains(&v),
                        "planar edge must be UDG edge"
                    );
                    assert!(
                        adj.row(v.index()).contains(&u),
                        "planar adjacency symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn rng_is_subgraph_of_gabriel() {
        let topo = random_topo(22);
        let gg = planarize(&topo, PlanarKind::Gabriel);
        let rng = planarize(&topo, PlanarKind::RelativeNeighborhood);
        for (i, list) in rng.iter().enumerate() {
            for &v in list {
                assert!(
                    gg.row(i).contains(&v),
                    "RNG edge ({i},{v}) missing from Gabriel graph"
                );
            }
        }
    }

    #[test]
    fn gabriel_graph_has_no_proper_crossings() {
        let topo = random_topo(23);
        let gg = planarize(&topo, PlanarKind::Gabriel);
        let edges = edge_set(&gg);
        for (a, e1) in edges.iter().enumerate() {
            let s1 = Segment::new(topo.pos(NodeId(e1.0 as u32)), topo.pos(NodeId(e1.1 as u32)));
            for e2 in edges.iter().skip(a + 1) {
                if e1.0 == e2.0 || e1.0 == e2.1 || e1.1 == e2.0 || e1.1 == e2.1 {
                    continue;
                }
                let s2 = Segment::new(topo.pos(NodeId(e2.0 as u32)), topo.pos(NodeId(e2.1 as u32)));
                assert!(
                    !s1.properly_crosses(&s2),
                    "Gabriel edges {e1:?} and {e2:?} cross"
                );
            }
        }
    }

    #[test]
    fn planarization_preserves_connectivity() {
        for seed in [31, 32, 33] {
            let topo = random_topo(seed);
            if !topo.is_connected() {
                continue;
            }
            for kind in [PlanarKind::Gabriel, PlanarKind::RelativeNeighborhood] {
                let adj = planarize(&topo, kind);
                let mut seen = vec![false; topo.len()];
                let mut q = std::collections::VecDeque::from([0usize]);
                seen[0] = true;
                let mut count = 1;
                while let Some(u) = q.pop_front() {
                    for &v in adj.row(u) {
                        if !seen[v.index()] {
                            seen[v.index()] = true;
                            count += 1;
                            q.push_back(v.index());
                        }
                    }
                }
                assert_eq!(count, topo.len(), "{kind:?} disconnected the graph");
            }
        }
    }

    #[test]
    fn collinear_triple_keeps_short_edges_only() {
        // u --- w --- v all within range: the long edge u–v must be pruned
        // (w sits at the center of its diametral disk).
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(100.0, 0.0),
            ],
            Aabb::square(200.0),
            150.0,
        );
        let gg = planarize(&topo, PlanarKind::Gabriel);
        assert!(!gg.row(0).contains(&NodeId(2)));
        assert!(gg.row(0).contains(&NodeId(1)));
        assert!(gg.row(2).contains(&NodeId(1)));
    }

    fn assert_symmetric_and_contained(topo: &Topology) {
        let gg = planarize(topo, PlanarKind::Gabriel);
        let rng = planarize(topo, PlanarKind::RelativeNeighborhood);
        for (i, list) in gg.iter().enumerate() {
            let u = NodeId(i as u32);
            for &v in list {
                assert!(topo.neighbors(u).contains(&v));
                assert!(gg.row(v.index()).contains(&u), "GG asymmetric at ({i},{v})");
            }
        }
        for (i, list) in rng.iter().enumerate() {
            let u = NodeId(i as u32);
            for &v in list {
                assert!(
                    rng.row(v.index()).contains(&u),
                    "RNG asymmetric at ({i},{v})"
                );
                assert!(gg.row(i).contains(&v), "RNG edge ({i},{v}) not in GG");
            }
        }
    }

    fn assert_connectivity_preserved(topo: &Topology) {
        assert!(topo.is_connected(), "test topology must start connected");
        for kind in [PlanarKind::Gabriel, PlanarKind::RelativeNeighborhood] {
            let adj = planarize(topo, kind);
            let mut seen = vec![false; topo.len()];
            let mut q = std::collections::VecDeque::from([0usize]);
            seen[0] = true;
            let mut count = 1;
            while let Some(u) = q.pop_front() {
                for &v in adj.row(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        count += 1;
                        q.push_back(v.index());
                    }
                }
            }
            assert_eq!(count, topo.len(), "{kind:?} disconnected the graph");
        }
    }

    #[test]
    fn collinear_chain_stays_connected_and_symmetric() {
        // Five exactly collinear nodes, all pairs within range: every long
        // edge has an interior witness, so only consecutive edges survive —
        // but the chain must stay connected, symmetric, and RNG ⊆ GG.
        let topo = Topology::from_positions(
            (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect(),
            Aabb::square(100.0),
            100.0,
        );
        assert_symmetric_and_contained(&topo);
        assert_connectivity_preserved(&topo);
        let gg = planarize(&topo, PlanarKind::Gabriel);
        for i in 0..4usize {
            assert!(gg.row(i).contains(&NodeId(i as u32 + 1)));
        }
        assert!(!gg.row(0).contains(&NodeId(2)));
        assert!(!gg.row(0).contains(&NodeId(4)));
    }

    #[test]
    fn witness_exactly_on_diametral_circle_does_not_block() {
        // w = (5, 5) sits exactly on the circle with diameter u–v: the
        // Gabriel test is strict (open disk), so the edge survives the tie.
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(5.0, 5.0),
            ],
            Aabb::square(50.0),
            20.0,
        );
        let gg = planarize(&topo, PlanarKind::Gabriel);
        assert!(
            gg.row(0).contains(&NodeId(1)),
            "boundary witness must not block"
        );
        assert!(gg.row(1).contains(&NodeId(0)));
        // Nudge the witness strictly inside: now it must block.
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(5.0, 4.9),
            ],
            Aabb::square(50.0),
            20.0,
        );
        let gg = planarize(&topo, PlanarKind::Gabriel);
        assert!(
            !gg.row(0).contains(&NodeId(1)),
            "interior witness must block"
        );
    }

    #[test]
    fn witness_exactly_on_lune_boundary_does_not_block_rng() {
        // w equidistant (= d) from both endpoints sits on the closed lune
        // boundary; the RNG test is strict, so the edge survives.
        let tie = Point::new(5.0, 75.0_f64.sqrt()); // |wu| = |wv| = 10 = |uv|
        let topo = Topology::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), tie],
            Aabb::square(50.0),
            20.0,
        );
        let rng = planarize(&topo, PlanarKind::RelativeNeighborhood);
        assert!(
            rng.row(0).contains(&NodeId(1)),
            "lune-boundary tie must not block"
        );
        // Strictly inside the lune: blocked.
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(5.0, 8.0),
            ],
            Aabb::square(50.0),
            20.0,
        );
        let rng = planarize(&topo, PlanarKind::RelativeNeighborhood);
        assert!(
            !rng.row(0).contains(&NodeId(1)),
            "lune-interior witness must block"
        );
    }

    #[test]
    fn duplicate_position_nodes_neither_block_nor_disconnect() {
        // Node 3 duplicates node 0's position exactly. A zero-distance
        // twin is never a witness (every predicate is strict), both copies
        // keep their edges, and the graphs stay symmetric and connected.
        let topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(0.0, 0.0),
            ],
            Aabb::square(50.0),
            15.0,
        );
        assert_symmetric_and_contained(&topo);
        assert_connectivity_preserved(&topo);
        let gg = planarize(&topo, PlanarKind::Gabriel);
        assert!(gg.row(0).contains(&NodeId(1)), "twin must not block 0-1");
        assert!(gg.row(3).contains(&NodeId(1)), "twin keeps its own edges");
        assert!(gg.row(0).contains(&NodeId(3)), "zero-length edge survives");
    }

    #[test]
    fn live_filter_with_all_alive_matches_unfiltered() {
        let topo = random_topo(26);
        let alive = vec![true; topo.len()];
        let mut buf = Vec::new();
        for kind in [PlanarKind::Gabriel, PlanarKind::RelativeNeighborhood] {
            let global = planarize(&topo, kind);
            for i in 0..topo.len() {
                let u = NodeId(i as u32);
                live_planar_neighbors_into(&topo, u, kind, Some(&alive), &mut buf);
                assert_eq!(buf.as_slice(), global.row(i), "node {i} {kind:?}");
            }
        }
    }

    #[test]
    fn live_filter_preserves_live_subgraph_connectivity() {
        // Kill 20% of nodes; wherever the live unit-disk graph is
        // connected, the live-filtered Gabriel graph must be too.
        let topo = random_topo(27);
        let mut alive = vec![true; topo.len()];
        for i in (0..topo.len()).step_by(5) {
            alive[i] = false;
        }
        // BFS on the live UDG from the first live node.
        let start = alive.iter().position(|&a| a).unwrap();
        let reach = |adj: &mut dyn FnMut(usize) -> Vec<usize>| {
            let mut seen = vec![false; topo.len()];
            let mut q = std::collections::VecDeque::from([start]);
            seen[start] = true;
            while let Some(u) = q.pop_front() {
                for v in adj(u) {
                    if alive[v] && !seen[v] {
                        seen[v] = true;
                        q.push_back(v);
                    }
                }
            }
            seen
        };
        let udg = reach(&mut |u| {
            topo.neighbors(NodeId(u as u32))
                .iter()
                .map(|n| n.index())
                .collect()
        });
        let mut buf = Vec::new();
        let gg = reach(&mut |u| {
            live_planar_neighbors_into(
                &topo,
                NodeId(u as u32),
                PlanarKind::Gabriel,
                Some(&alive),
                &mut buf,
            );
            buf.iter().map(|n| n.index()).collect()
        });
        for i in 0..topo.len() {
            if alive[i] {
                assert_eq!(
                    udg[i], gg[i],
                    "live Gabriel reachability diverges from live UDG at node {i}"
                );
            }
        }
        assert!(
            udg.iter().filter(|&&s| s).count() > 1,
            "test must be non-trivial"
        );
    }

    #[test]
    fn topology_caches_planar_neighbors() {
        let topo = random_topo(25);
        let a = topo
            .planar_neighbors(PlanarKind::Gabriel, NodeId(0))
            .to_vec();
        let b = topo
            .planar_neighbors(PlanarKind::Gabriel, NodeId(0))
            .to_vec();
        assert_eq!(a, b);
    }
}
