//! Geocast routing (extension): geographic unicast to the region, then
//! restricted flooding inside it.
//!
//! This is the classic location-based geocast structure \[15\]: outside the
//! target region the packet travels like a GPSR unicast aimed at the
//! region's anchor point (greedy with perimeter recovery — the same
//! machinery GMP's void handling uses); the first copy to enter the
//! region switches to restricted flooding among region members. Under a
//! fault plan with timed events the greedy approach skips neighbors the
//! node's liveness view reports dead, so one crashed relay does not end
//! the approach.
//!
//! Geocast runs through the ordinary simulator: a
//! [`MulticastTask::geocast`](gmp_sim::MulticastTask::geocast) task lists
//! the region's members as destinations so the simulator can score
//! coverage, fault verdicts and the delivery oracle included, but the
//! router never reads that list. It decides from the node's position and
//! the region alone, and every copy carries the incoming destination list
//! unchanged. Two consequences: the source is never a member (it already
//! holds the packet), and under `size_dependent_airtime` (off by default)
//! each copy pays airtime for the member list it carries.
//!
//! Flooding is modeled as one unicast per not-yet-covered member
//! neighbor. The duplicate-suppression table lives in the protocol object
//! and is keyed by node, emulating the per-node "already seen this
//! session" bit a real deployment would keep; it is cleared when a task
//! starts.

use gmp_geom::Region;
use gmp_net::face::gpsr_step;
use gmp_net::NodeId;
use gmp_sim::{Forward, MulticastPacket, NodeContext, Protocol, RoutingState};

/// Geocast router: GPSR-style approach plus region-restricted flooding.
#[derive(Debug, Clone)]
pub struct GmpGeocast {
    region: Region,
    seen: Vec<bool>,
}

impl GmpGeocast {
    /// Creates a router delivering to every node inside `region`.
    pub fn new(region: Region) -> Self {
        GmpGeocast {
            region,
            seen: Vec::new(),
        }
    }
}

impl Protocol for GmpGeocast {
    fn name(&self) -> String {
        "GMP-geocast".into()
    }

    fn on_task_start(&mut self, ctx: &NodeContext<'_>, _source: NodeId, _dests: &[NodeId]) {
        self.seen.clear();
        self.seen.resize(ctx.topo.len(), false);
    }

    fn on_packet(
        &mut self,
        ctx: &NodeContext<'_>,
        packet: MulticastPacket,
        out: &mut Vec<Forward>,
    ) {
        self.seen[ctx.node.index()] = true;
        // Inside the region: flood to uncovered member neighbors, marking
        // them at send time so parallel branches do not double-send to the
        // same member (emulates members overhearing).
        if self.region.contains(ctx.pos()) {
            for &n in ctx.neighbors() {
                if self.region.contains(ctx.pos_of(n)) && !self.seen[n.index()] {
                    self.seen[n.index()] = true;
                    out.push(Forward {
                        next_hop: n,
                        packet: packet.split(packet.dests.clone(), RoutingState::Greedy),
                    });
                }
            }
            return;
        }
        // Outside: one GPSR hop toward the region's anchor.
        let mut perimeter = match packet.state {
            RoutingState::Perimeter(p) => Some(p),
            _ => None,
        };
        let anchor = self.region.anchor();
        if let Ok(next_hop) = gpsr_step(
            ctx.topo,
            ctx.planar_kind(),
            ctx.node,
            anchor,
            ctx.alive,
            &mut perimeter,
        ) {
            let state = perimeter.map_or(RoutingState::Greedy, RoutingState::Perimeter);
            out.push(Forward {
                next_hop,
                packet: MulticastPacket { state, ..packet },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_geom::{Aabb, Point};
    use gmp_net::topology::{Hole, Topology, TopologyConfig};
    use gmp_sim::{FaultEvent, FaultPlan, MulticastTask, SimConfig, TaskReport, TaskRunner};

    fn geocast(topo: &Topology, config: &SimConfig, source: NodeId, region: Region) -> TaskReport {
        let task = MulticastTask::geocast(topo, source, &region);
        TaskRunner::new(topo, config).run(&mut GmpGeocast::new(region), &task)
    }

    fn coverage(report: &TaskReport) -> f64 {
        let members = report.delivered_count() + report.failed_dests.len();
        report.delivered_count() as f64 / members as f64
    }

    /// The source on the west edge and a region on the east edge of a
    /// network with a central hole: the anchor line crosses the hole,
    /// forcing a perimeter-mode approach.
    fn void_scenario() -> (Topology, SimConfig, NodeId, Region) {
        let tconfig = TopologyConfig::new(800.0, 500, 150.0).with_hole(Hole::Circle {
            center: Point::new(400.0, 400.0),
            radius: 200.0,
        });
        let topo = Topology::random(&tconfig, 23);
        let config = SimConfig::paper()
            .with_area_side(800.0)
            .with_node_count(500);
        let p = Point::new(40.0, 400.0);
        let source = topo
            .nodes()
            .min_by(|a, b| a.pos.dist_sq(p).total_cmp(&b.pos.dist_sq(p)))
            .unwrap()
            .id;
        let region = Region::Circle {
            center: Point::new(720.0, 400.0),
            radius: 80.0,
        };
        (topo, config, source, region)
    }

    #[test]
    fn covers_a_compact_region_on_dense_networks() {
        let config = SimConfig::paper().with_node_count(600);
        let topo = Topology::random(&config.topology_config(), 21);
        let region = Region::Circle {
            center: Point::new(800.0, 800.0),
            radius: 160.0,
        };
        let report = geocast(&topo, &config, NodeId(0), region);
        assert!(report.delivered_count() > 0);
        assert!(
            coverage(&report) >= 0.95,
            "coverage {:.2} over {} members",
            coverage(&report),
            report.delivered_count() + report.failed_dests.len()
        );
    }

    #[test]
    fn cheaper_than_global_flooding() {
        // The whole point of geographic geocast: transmissions scale with
        // the path + region size, not the network size.
        let config = SimConfig::paper().with_node_count(600);
        let topo = Topology::random(&config.topology_config(), 22);
        let region = Region::Rect(Aabb::new(
            Point::new(700.0, 700.0),
            Point::new(950.0, 950.0),
        ));
        let members = MulticastTask::geocast(&topo, NodeId(0), &region).k();
        let report = geocast(&topo, &config, NodeId(0), region);
        assert!(coverage(&report) > 0.9);
        // Global flooding would cost ≥ one transmission per node (600);
        // restricted geocast stays near members + approach path.
        assert!(
            report.transmissions < members + 40,
            "{} transmissions for {members} members",
            report.transmissions,
        );
    }

    #[test]
    fn reaches_region_across_a_void() {
        let (topo, config, source, region) = void_scenario();
        let report = geocast(&topo, &config, source, region);
        assert!(
            coverage(&report) > 0.9,
            "coverage {:.2} across the void",
            coverage(&report)
        );
    }

    #[test]
    fn resets_between_tasks() {
        let config = SimConfig::paper()
            .with_node_count(300)
            .with_area_side(600.0);
        let topo = Topology::random(&config.topology_config(), 24);
        let region = Region::Circle {
            center: Point::new(400.0, 400.0),
            radius: 120.0,
        };
        let task = MulticastTask::geocast(&topo, NodeId(0), &region);
        let runner = TaskRunner::new(&topo, &config);
        let mut router = GmpGeocast::new(region);
        let a = runner.run(&mut router, &task);
        let b = runner.run(&mut router, &task);
        assert_eq!(a, b, "runs must be independent after on_task_start");
    }

    /// Asserts a geocast reaches all `delivered` members in `tx`
    /// transmissions, with the energy total's exact bits.
    fn pin(
        (topo, config): (Topology, SimConfig),
        source: NodeId,
        region: Region,
        (delivered, tx, energy_bits): (usize, usize, u64),
    ) {
        let members = MulticastTask::geocast(&topo, source, &region).k();
        let report = geocast(&topo, &config, source, region);
        assert_eq!(members, delivered, "every member is reached");
        assert_eq!(report.delivered_count(), delivered);
        assert_eq!(report.transmissions, tx);
        assert_eq!(report.energy_j.to_bits(), energy_bits);
        assert_eq!(report.dropped_packets, 0);
    }

    /// The outcomes of the standalone geocast event loop this router used
    /// to run on, which scored coverage itself: members delivered,
    /// transmissions, and the bits of the energy total. Routing through
    /// the ordinary simulator must reproduce them exactly.
    #[test]
    fn reproduces_the_standalone_geocast_loop_bit_for_bit() {
        let paper = |n, seed| {
            let config = SimConfig::paper().with_node_count(n);
            (Topology::random(&config.topology_config(), seed), config)
        };
        let disk = |x, y, radius| Region::Circle {
            center: Point::new(x, y),
            radius,
        };
        pin(
            paper(600, 21),
            NodeId(0),
            disk(800.0, 800.0, 160.0),
            (37, 41, 0x3ff741d084e831af),
        );
        pin(
            paper(600, 22),
            NodeId(0),
            Region::Rect(Aabb::new(
                Point::new(700.0, 700.0),
                Point::new(950.0, 950.0),
            )),
            (32, 36, 0x3ff3efa10d2b61ae),
        );
        let (topo, config, source, region) = void_scenario();
        pin((topo, config), source, region, (16, 22, 0x3ff0b0516c035e5a));
        let hull = gmp_geom::convex_hull(&[
            Point::new(700.0, 700.0),
            Point::new(900.0, 720.0),
            Point::new(880.0, 930.0),
            Point::new(720.0, 900.0),
            Point::new(800.0, 800.0),
        ]);
        pin(
            paper(500, 61),
            NodeId(0),
            Region::convex_polygon(hull),
            (21, 22, 0x3fec0a21c1f1a777),
        );
        pin(
            paper(1000, 77),
            NodeId(0),
            disk(820.0, 780.0, 150.0),
            (78, 81, 0x40149f292593377e),
        );
    }

    #[test]
    fn crashed_members_fail_justified_and_every_member_is_scored() {
        let region = Region::Circle {
            center: Point::new(820.0, 780.0),
            radius: 150.0,
        };
        for (fraction, seed, delivered) in [(0.10, 2, 72), (0.25, 77, 62)] {
            let plan = FaultPlan::random_crashes(1000, fraction, 0.0, seed);
            let crashed: Vec<NodeId> = plan
                .events
                .iter()
                .filter_map(|e| match e {
                    FaultEvent::Crash { node, .. } => Some(*node),
                    _ => None,
                })
                .collect();
            let config = SimConfig::paper().with_faults(plan);
            let topo = Topology::random(&config.topology_config(), 77);
            let task = MulticastTask::geocast(&topo, NodeId(0), &region);
            let report = geocast(&topo, &config, NodeId(0), region.clone());
            assert_eq!(
                report.delivered_count() + report.failed_dests.len(),
                task.k(),
                "crash fraction {fraction}"
            );
            let dead_members: Vec<NodeId> = task
                .dests
                .iter()
                .copied()
                .filter(|d| crashed.contains(d))
                .collect();
            assert!(!dead_members.is_empty(), "crash fraction {fraction}");
            for dead in dead_members {
                let failed = report
                    .failed_dests
                    .iter()
                    .find(|f| f.dest == dead)
                    .expect("a crashed member cannot be delivered");
                assert!(failed.is_justified(), "{failed:?}");
            }
            assert_eq!(
                report.delivered_count(),
                delivered,
                "crash fraction {fraction}"
            );
            assert_eq!(report.unjustified_failures().count(), 0, "{report:?}");
        }
    }

    #[test]
    fn an_empty_region_is_delivered_trivially() {
        let config = SimConfig::paper().with_area_side(400.0).with_node_count(50);
        let topo = Topology::random(&config.topology_config(), 4);
        let region = Region::Circle {
            center: Point::new(-500.0, -500.0),
            radius: 10.0,
        };
        let task = MulticastTask::geocast(&topo, NodeId(0), &region);
        assert!(task.dests.is_empty());
        let report = geocast(&topo, &config, NodeId(0), region);
        assert!(report.delivered_all());
        assert_eq!(report.delivered_count(), 0);
    }

    #[test]
    fn the_source_is_never_a_member() {
        let config = SimConfig::paper()
            .with_area_side(400.0)
            .with_node_count(120);
        let topo = Topology::random(&config.topology_config(), 3);
        let everything = Region::Rect(Aabb::square(400.0));
        let task = MulticastTask::geocast(&topo, NodeId(0), &everything);
        assert_eq!(task.k(), topo.len() - 1);
        assert!(!task.dests.contains(&NodeId(0)));
    }
}
