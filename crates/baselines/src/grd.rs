//! GRD: independent greedy (GPSR) unicast per destination.
//!
//! "GRD … corresponds to the extreme case, where packets are independently
//! routed for each destination. This algorithm explicitly minimizes the
//! per-destination hop count and serves well as a lower-bound for the
//! average number of hops for each destination" (Section 5). Each copy is
//! a full GPSR unicast: greedy forwarding with perimeter-mode recovery.

use gmp_net::face::gpsr_step;
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};

/// Independent greedy unicast per destination (GPSR).
#[derive(Debug, Clone, Copy, Default)]
pub struct GrdRouter;

impl GrdRouter {
    /// Creates the router.
    pub fn new() -> Self {
        GrdRouter
    }

    fn route_single(&self, ctx: &NodeContext<'_>, packet: MulticastPacket) -> Option<Forward> {
        let dest = packet.dests[0];
        let mut perimeter = match packet.state {
            RoutingState::Perimeter(p) => Some(p),
            _ => None,
        };
        let next_hop = gpsr_step(
            ctx.topo,
            ctx.planar_kind(),
            ctx.node,
            ctx.pos_of(dest),
            None,
            &mut perimeter,
        )
        .ok()?;
        let state = perimeter.map_or(RoutingState::Greedy, RoutingState::Perimeter);
        Some(Forward {
            next_hop,
            packet: packet.split(vec![dest], state),
        })
    }
}

impl Protocol for GrdRouter {
    fn name(&self) -> String {
        "GRD".into()
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        if packet.dests.len() > 1 {
            // Fan out one independent unicast per destination.
            out.extend(packet.dests.iter().filter_map(|&d| {
                self.route_single(ctx, packet.split(vec![d], RoutingState::Greedy))
            }));
            return;
        }
        out.extend(self.route_single(ctx, packet));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_net::topology::{Hole, Topology, TopologyConfig};
    use gmp_net::NodeId;
    use gmp_sim::{MulticastTask, SimConfig, TaskRunner};

    #[test]
    fn delivers_on_dense_random_networks() {
        let config = SimConfig::paper().with_node_count(500);
        let topo = Topology::random(&config.topology_config(), 42);
        for seed in 0..5u64 {
            let task = MulticastTask::random(&topo, 10, seed);
            let report = TaskRunner::new(&topo, &config).run(&mut GrdRouter::new(), &task);
            assert!(
                report.delivered_all(),
                "seed {seed}: {:?}",
                report.failed_dests
            );
        }
    }

    #[test]
    fn transmissions_scale_with_destination_count() {
        // GRD shares nothing: doubling destinations roughly doubles hops.
        let config = SimConfig::paper().with_node_count(600);
        let topo = Topology::random(&config.topology_config(), 7);
        let t5 = MulticastTask::random(&topo, 5, 1);
        let t20 = MulticastTask::random(&topo, 20, 1);
        let r5 = TaskRunner::new(&topo, &config).run(&mut GrdRouter::new(), &t5);
        let r20 = TaskRunner::new(&topo, &config).run(&mut GrdRouter::new(), &t20);
        assert!(r20.transmissions as f64 > 2.0 * r5.transmissions as f64);
    }

    #[test]
    fn recovers_around_voids() {
        let tconfig = TopologyConfig::new(800.0, 450, 150.0).with_hole(Hole::Circle {
            center: gmp_geom::Point::new(400.0, 400.0),
            radius: 200.0,
        });
        let topo = Topology::random(&tconfig, 3);
        assert!(topo.is_connected());
        let config = SimConfig::paper()
            .with_area_side(800.0)
            .with_node_count(450);
        let near = |p: gmp_geom::Point| {
            topo.nodes()
                .min_by(|a, b| a.pos.dist_sq(p).total_cmp(&b.pos.dist_sq(p)))
                .unwrap()
                .id
        };
        let source = near(gmp_geom::Point::new(50.0, 400.0));
        let dest = near(gmp_geom::Point::new(750.0, 400.0));
        assert_ne!(source, dest);
        let task = MulticastTask::new(source, vec![dest]);
        let report = TaskRunner::new(&topo, &config).run(&mut GrdRouter::new(), &task);
        assert!(report.delivered_all());
    }

    #[test]
    fn unreachable_island_fails_without_truncation() {
        let mut positions: Vec<gmp_geom::Point> = (0..20)
            .map(|i| gmp_geom::Point::new((i % 5) as f64 * 100.0, (i / 5) as f64 * 100.0))
            .collect();
        positions.push(gmp_geom::Point::new(3000.0, 3000.0));
        let topo = Topology::from_positions(positions, gmp_geom::Aabb::square(4000.0), 150.0);
        let config = SimConfig::paper().with_node_count(21);
        let task = MulticastTask::new(NodeId(0), vec![NodeId(20)]);
        let report = TaskRunner::new(&topo, &config).run(&mut GrdRouter::new(), &task);
        assert_eq!(
            report.failed_dests,
            vec![gmp_sim::FailedDest::new(
                NodeId(20),
                gmp_sim::FailureCause::Disconnected
            )]
        );
        assert!(!report.truncated);
    }
}
