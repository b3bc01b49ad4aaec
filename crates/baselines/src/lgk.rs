//! LGK: the location-guided k-ary tree scheme of LGT \[5\].
//!
//! The sibling of LGS in the same paper: instead of an MST, the
//! partitioning node picks the `k` destinations *nearest to itself* as
//! subtree roots and assigns every remaining destination to the nearest
//! root. The GMP paper evaluates only LGS, so LGK is included here as an
//! extension for completeness of the LGT family.

use gmp_net::NodeId;
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};

use gmp_net::face::greedy_next_hop;

/// The LGK router with fan-out `k`.
#[derive(Debug, Clone, Copy)]
pub struct LgkRouter {
    k: usize,
}

impl LgkRouter {
    /// Creates an LGK router with fan-out `k` (the LGT paper uses small
    /// values; 2 is the default elsewhere in this workspace).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "fan-out must be positive");
        LgkRouter { k }
    }

    /// The configured fan-out.
    pub fn k(&self) -> usize {
        self.k
    }

    fn partition(&self, ctx: &NodeContext<'_>, packet: &MulticastPacket) -> Vec<Forward> {
        // Roots: the k destinations nearest to the current node.
        let mut by_dist: Vec<NodeId> = packet.dests.to_vec();
        by_dist.sort_by(|&a, &b| {
            ctx.pos()
                .dist_sq(ctx.pos_of(a))
                .total_cmp(&ctx.pos().dist_sq(ctx.pos_of(b)))
        });
        let roots: Vec<NodeId> = by_dist.iter().copied().take(self.k).collect();
        let mut groups: Vec<Vec<NodeId>> = roots.iter().map(|&r| vec![r]).collect();
        for &d in by_dist.iter().skip(self.k) {
            let gi = roots
                .iter()
                .enumerate()
                .min_by(|(_, &r1), (_, &r2)| {
                    ctx.pos_of(r1)
                        .dist_sq(ctx.pos_of(d))
                        .total_cmp(&ctx.pos_of(r2).dist_sq(ctx.pos_of(d)))
                })
                .map(|(i, _)| i)
                .expect("roots non-empty");
            groups[gi].push(d);
        }
        roots
            .iter()
            .zip(groups)
            .filter_map(|(&root, group)| {
                greedy_next_hop(ctx.topo, ctx.node, ctx.pos_of(root), None).map(|n| Forward {
                    next_hop: n,
                    packet: packet.split(group, RoutingState::UnicastLeg { target: root }),
                })
            })
            .collect()
    }
}

impl Default for LgkRouter {
    fn default() -> Self {
        LgkRouter::new(2)
    }
}

impl Protocol for LgkRouter {
    fn name(&self) -> String {
        format!("LGK(k={})", self.k)
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        match packet.state {
            RoutingState::UnicastLeg { target } if target != ctx.node => {
                if let Some(n) = greedy_next_hop(ctx.topo, ctx.node, ctx.pos_of(target), None) {
                    out.push(Forward {
                        next_hop: n,
                        packet: packet.clone(),
                    });
                }
            }
            _ => out.extend(self.partition(ctx, &packet)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_net::Topology;
    use gmp_sim::{MulticastTask, SimConfig, TaskRunner};

    #[test]
    fn delivers_on_dense_random_networks() {
        let config = SimConfig::paper().with_node_count(500);
        let topo = Topology::random(&config.topology_config(), 42);
        for k in [1usize, 2, 4] {
            for seed in 0..3u64 {
                let task = MulticastTask::random(&topo, 9, seed);
                let report = TaskRunner::new(&topo, &config).run(&mut LgkRouter::new(k), &task);
                assert!(
                    report.delivered_all(),
                    "k {k} seed {seed}: {:?}",
                    report.failed_dests
                );
            }
        }
    }

    #[test]
    fn name_carries_fanout() {
        assert_eq!(LgkRouter::new(3).name(), "LGK(k=3)");
        assert_eq!(LgkRouter::default().k(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fanout_panics() {
        LgkRouter::new(0);
    }

    #[test]
    fn k1_degenerates_to_a_chain() {
        // With k = 1 every partition forwards a single group toward the
        // nearest destination — sequential delivery like the Fig. 13 chain.
        let positions = (0..5)
            .map(|i| gmp_geom::Point::new(i as f64 * 140.0, 0.0))
            .collect();
        let topo = Topology::from_positions(positions, gmp_geom::Aabb::square(1000.0), 150.0);
        let config = SimConfig::paper().with_node_count(5);
        let task = MulticastTask::new(
            gmp_net::NodeId(0),
            vec![
                gmp_net::NodeId(1),
                gmp_net::NodeId(2),
                gmp_net::NodeId(3),
                gmp_net::NodeId(4),
            ],
        );
        let report = TaskRunner::new(&topo, &config).run(&mut LgkRouter::new(1), &task);
        assert!(report.delivered_all());
        assert_eq!(report.transmissions, 4);
        assert_eq!(report.delivery_hops[&gmp_net::NodeId(4)], 4);
    }
}
