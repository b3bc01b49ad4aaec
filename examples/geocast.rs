//! Geocasting (extension): deliver to every sensor inside a geographic
//! region the source cannot enumerate.
//!
//! The packet approaches the region with GPSR-style geographic routing
//! and floods inside it; compare the cost against naively multicasting to
//! a pre-known member list with GMP, then rerun the geocast under node
//! crashes and let the delivery oracle judge every missed member.
//!
//! ```sh
//! cargo run --release --example geocast
//! ```

use gmp::geom::{Point, Region};
use gmp::gmp::{GmpGeocast, GmpRouter};
use gmp::net::{NodeId, Topology};
use gmp::sim::{FaultPlan, MulticastTask, SimConfig, TaskRunner};

fn main() {
    let config = SimConfig::paper();
    let topo = Topology::random(&config.topology_config(), 77);

    let region = Region::Circle {
        center: Point::new(820.0, 780.0),
        radius: 150.0,
    };
    // The members are resolved only to score coverage; the geocast router
    // sees the region, never the list.
    let task = MulticastTask::geocast(&topo, NodeId(0), &region);

    let runner = TaskRunner::new(&topo, &config);
    let report = runner.run(&mut GmpGeocast::new(region.clone()), &task);
    let coverage = report.delivered_count() as f64 / task.k() as f64;
    println!(
        "geocast to a 150 m disk at (820, 780): {} members, coverage {:.0}%",
        task.k(),
        coverage * 100.0
    );
    println!(
        "  {} transmissions, {:.3} J",
        report.transmissions, report.energy_j
    );

    // For comparison: if the source somehow knew the member list, what
    // would GMP multicast cost?
    let mreport = runner.run(&mut GmpRouter::new(), &task);
    println!(
        "GMP multicast to the same {} nodes (member list known a priori):",
        task.k()
    );
    println!(
        "  {} transmissions, {:.3} J",
        mreport.transmissions, mreport.energy_j
    );
    println!(
        "\ngeocast pays {:.1}× the transmissions to avoid any membership \
         knowledge",
        report.transmissions as f64 / mreport.transmissions as f64
    );

    // The same geocast with a share of the network crashed at t = 0.
    println!("\nunder node crashes (delivered / members, unjustified failures):");
    for fraction in [0.10, 0.25] {
        let crashed =
            config
                .clone()
                .with_faults(FaultPlan::random_crashes(topo.len(), fraction, 0.0, 77));
        let r = TaskRunner::new(&topo, &crashed).run(&mut GmpGeocast::new(region.clone()), &task);
        println!(
            "  {:>3.0}% crashed: {} / {}, {} unjustified",
            fraction * 100.0,
            r.delivered_count(),
            task.k(),
            r.unjustified_failures().count()
        );
    }
    assert!(coverage > 0.9);
}
