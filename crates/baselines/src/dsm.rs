//! DSM: Dynamic Source Multicast \[6\] (related-work baseline).
//!
//! "In source-routing based schemes (such as Dynamic Source Multicast,
//! DSM), the entire multicast tree is created by the source node in
//! advance and included in the packet. In DSM, a minimum spanning tree
//! based heuristic is used to create this routing graph. Each receiving
//! node on this path decodes the multicast tree information and routes
//! the packet to the next nodes as decided by the source." (Section 1.)
//!
//! Unlike the centralized SMT baseline, DSM's source knows only the
//! *member* locations (which geographic multicast assumes anyway), not
//! the whole topology: it builds a Euclidean MST over `{source} ∪
//! destinations`, and each tree edge is realized as a greedy geographic
//! unicast leg. Because the tree is frozen at the source, DSM cannot
//! adapt to what intermediate nodes see — exactly the rigidity LGT/GMP
//! were designed to remove.
//!
//! The paper's DSM carries the tree in the packet. This implementation
//! keeps it in the router instead (built in [`Protocol::on_task_start`],
//! read at every tree vertex), and the packet carries only the current
//! leg's target. So DSM is per-task state — a session engine must give
//! each session its own instance — and under `size_dependent_airtime`
//! the tree's bytes are not charged to the packet.

use std::collections::HashMap;
use std::sync::Arc;

use gmp_net::NodeId;
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};
use gmp_steiner::mst::euclidean_mst;

use gmp_net::face::greedy_next_hop;

/// The DSM router.
#[derive(Debug, Clone, Default)]
pub struct DsmRouter {
    /// The frozen logical tree for the current task: children lists over
    /// {source} ∪ destinations.
    tree: Option<Arc<HashMap<NodeId, Vec<NodeId>>>>,
}

impl DsmRouter {
    /// Creates the router; the tree is computed per task.
    pub fn new() -> Self {
        DsmRouter::default()
    }

    /// Emits one unicast leg per logical child of `node`, carrying the
    /// destinations in that child's logical subtree.
    fn fan_out(
        &self,
        ctx: &NodeContext<'_>,
        packet: &MulticastPacket,
        tree: &Arc<HashMap<NodeId, Vec<NodeId>>>,
        node: NodeId,
    ) -> Vec<Forward> {
        let children = match tree.get(&node) {
            Some(c) => c.clone(),
            None => return Vec::new(),
        };
        children
            .into_iter()
            .filter_map(|child| {
                // Destinations below this child in the logical tree.
                let mut below = Vec::new();
                let mut stack = vec![child];
                while let Some(v) = stack.pop() {
                    if packet.dests.contains(&v) {
                        below.push(v);
                    }
                    if let Some(cs) = tree.get(&v) {
                        stack.extend_from_slice(cs);
                    }
                }
                if below.is_empty() {
                    return None;
                }
                below.sort();
                greedy_next_hop(ctx.topo, ctx.node, ctx.pos_of(child), None).map(|n| Forward {
                    next_hop: n,
                    packet: packet.split(below, RoutingState::UnicastLeg { target: child }),
                })
            })
            .collect()
    }
}

impl Protocol for DsmRouter {
    fn name(&self) -> String {
        "DSM".into()
    }

    fn on_task_start(&mut self, ctx: &NodeContext<'_>, source: NodeId, dests: &[NodeId]) {
        // Euclidean MST over {source} ∪ destinations, frozen for the task.
        let mut ids = vec![source];
        ids.extend_from_slice(dests);
        let points: Vec<gmp_geom::Point> = ids.iter().map(|&d| ctx.pos_of(d)).collect();
        let mst = euclidean_mst(&points);
        let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (i, parent) in mst.parent.iter().enumerate() {
            children.entry(ids[i]).or_default();
            if let Some(p) = parent {
                children.entry(ids[*p]).or_default().push(ids[i]);
            }
        }
        self.tree = Some(Arc::new(children));
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        let tree = match &self.tree {
            Some(t) => Arc::clone(t),
            None => return,
        };
        match packet.state {
            // Mid-leg relay: keep pushing toward the leg target.
            RoutingState::UnicastLeg { target } if target != ctx.node => {
                // Frozen tree, no recovery on voids.
                if let Some(n) = greedy_next_hop(ctx.topo, ctx.node, ctx.pos_of(target), None) {
                    out.push(Forward {
                        next_hop: n,
                        packet: packet.clone(),
                    });
                }
            }
            // At a tree vertex (the source, or a leg target): fan out to
            // the frozen children.
            _ => out.extend(self.fan_out(ctx, &packet, &tree, ctx.node)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::{Aabb, Point};
    use gmp_net::Topology;
    use gmp_sim::{MulticastTask, SimConfig, TaskRunner};

    #[test]
    fn delivers_on_dense_random_networks() {
        let config = SimConfig::paper().with_node_count(500);
        let topo = Topology::random(&config.topology_config(), 42);
        for seed in 0..5u64 {
            let task = MulticastTask::random(&topo, 10, seed);
            let report = TaskRunner::new(&topo, &config).run(&mut DsmRouter::new(), &task);
            assert!(
                report.delivered_all(),
                "seed {seed}: {:?}",
                report.failed_dests
            );
        }
    }

    #[test]
    fn follows_the_frozen_mst_chain() {
        // Destinations in a line: DSM's MST chains them like LGS, but the
        // chain is fixed at the source instead of recomputed.
        let positions = (0..5).map(|i| Point::new(i as f64 * 140.0, 0.0)).collect();
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(5);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let report = TaskRunner::new(&topo, &config).run(&mut DsmRouter::new(), &task);
        assert!(report.delivered_all());
        assert_eq!(report.transmissions, 4);
        for i in 1..=4u32 {
            assert_eq!(report.delivery_hops[&NodeId(i)], i);
        }
    }

    #[test]
    fn splits_at_the_source_for_opposite_clusters() {
        let positions = vec![
            Point::new(500.0, 500.0), // source
            Point::new(400.0, 500.0), // left relay
            Point::new(600.0, 500.0), // right relay
            Point::new(260.0, 500.0), // left dest
            Point::new(740.0, 500.0), // right dest
        ];
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(5);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(3), NodeId(4)]);
        let report = TaskRunner::new(&topo, &config).run(&mut DsmRouter::new(), &task);
        assert!(report.delivered_all());
        assert_eq!(report.transmissions, 4);
        assert_eq!(report.delivery_hops[&NodeId(3)], 2);
        assert_eq!(report.delivery_hops[&NodeId(4)], 2);
    }

    #[test]
    fn fails_on_voids_like_other_frozen_schemes() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(120.0, 0.0),
            Point::new(700.0, 0.0),
        ];
        let topo = Topology::from_positions(positions, Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(3);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(2)]);
        let report = TaskRunner::new(&topo, &config).run(&mut DsmRouter::new(), &task);
        assert_eq!(
            report.failed_dests,
            vec![gmp_sim::FailedDest::new(
                NodeId(2),
                gmp_sim::FailureCause::Disconnected
            )]
        );
    }
}
