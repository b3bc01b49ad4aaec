//! Integration tests for the extension subsystems: geocast, group
//! management, mobility, and visualization — exercised together through
//! the facade crate the way a downstream user would.

use gmp::geom::{Aabb, Point, Region};
use gmp::gmp::{GmpGeocast, GmpRouter};
use gmp::groups::{GroupId, GroupManager, MembershipTrace};
use gmp::net::mobility::{broken_link_fraction, RandomWaypoint};
use gmp::net::{NodeId, Topology};
use gmp::sim::{MulticastTask, SimConfig, TaskRunner};
use gmp::viz::SvgScene;

#[test]
fn dynamic_group_session_end_to_end() {
    // Membership churn → snapshots → GMP multicast, all costs accounted.
    let config = SimConfig::paper().with_node_count(500);
    let topo = Topology::random(&config.topology_config(), 60);
    assert!(topo.is_connected());
    let prime = NodeId(3);
    let group = GroupId(7);
    let trace = MembershipTrace::random(&topo, group, prime, 10, 30, 17);
    let mut mgr = GroupManager::new(&topo, &config, prime);
    let runner = TaskRunner::new(&topo, &config);
    let mut total_data_tx = 0usize;
    for chunk in trace.updates.chunks(8) {
        for &u in chunk {
            assert!(mgr.apply(u));
        }
        if let Some(task) = mgr.task_for(group) {
            let report = runner.run(&mut GmpRouter::new(), &task);
            assert!(report.delivered_all(), "snapshot multicast must deliver");
            total_data_tx += report.transmissions;
        }
    }
    assert_eq!(mgr.members(group), trace.final_members());
    assert!(total_data_tx > 0);
    assert!(mgr.control_cost().transmissions > 0);
    assert_eq!(mgr.control_cost().undeliverable, 0);
}

#[test]
fn geocast_to_a_hull_of_observed_sensors() {
    // Build a polygon region from a convex hull of points of interest and
    // geocast into it — the Voronoi/hull style of [28].
    let config = SimConfig::paper().with_node_count(500);
    let topo = Topology::random(&config.topology_config(), 61);
    let hull = gmp::geom::convex_hull(&[
        Point::new(700.0, 700.0),
        Point::new(900.0, 720.0),
        Point::new(880.0, 930.0),
        Point::new(720.0, 900.0),
        Point::new(800.0, 800.0), // interior, dropped by the hull
    ]);
    assert_eq!(hull.len(), 4);
    let region = Region::convex_polygon(hull);
    let task = MulticastTask::geocast(&topo, NodeId(0), &region);
    assert!(task.k() > 0);
    let report = TaskRunner::new(&topo, &config).run(&mut GmpGeocast::new(region), &task);
    let coverage = report.delivered_count() as f64 / task.k() as f64;
    assert!(coverage >= 0.9, "coverage {coverage:.2}");
    assert!(report.transmissions >= report.delivered_count());
}

#[test]
fn mobility_snapshots_still_route() {
    // Snapshots of a moving network remain routable topologies.
    let mut model =
        RandomWaypoint::new(Aabb::square(1000.0), 400, 150.0, (1.0, 5.0), (0.0, 2.0), 62);
    let config = SimConfig::paper().with_node_count(400);
    let t0 = model.snapshot();
    model.advance(30.0);
    let t30 = model.snapshot();
    assert!(broken_link_fraction(&t0, &t30) > 0.0);
    for topo in [&t0, &t30] {
        if !topo.is_connected() {
            continue;
        }
        let task = gmp::sim::MulticastTask::random(topo, 8, 5);
        let report = TaskRunner::new(topo, &config).run(&mut GmpRouter::new(), &task);
        assert!(report.delivered_all());
    }
}

#[test]
fn svg_rendering_of_a_real_route() {
    let config = SimConfig::paper()
        .with_node_count(300)
        .with_area_side(600.0);
    let topo = Topology::random(&config.topology_config(), 63);
    let task = gmp::sim::MulticastTask::random(&topo, 6, 2);
    let report = TaskRunner::new(&topo, &config).run(&mut GmpRouter::new(), &task);
    let mut scene = SvgScene::new(topo.area());
    for node in topo.nodes() {
        scene.circle(node.pos, 1.5, "#cccccc");
    }
    for &(a, b) in &report.links {
        scene.line(topo.pos(a), topo.pos(b), "#3366cc", 1.0);
    }
    let svg = scene.finish();
    assert!(svg.starts_with("<svg"));
    // One line element per transmission plus the node circles.
    assert_eq!(svg.matches("<line").count(), report.links.len());
    assert_eq!(svg.matches("<circle").count(), topo.len());
}
