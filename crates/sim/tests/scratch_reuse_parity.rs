//! Scratch-reuse parity under fault plans: one [`SimScratch`] carried
//! across GMP tasks that alternate between two topologies and two crash
//! plans must produce every [`TaskReport`] — failure verdicts and causes
//! included — bit for bit as a fresh scratch does. The scratch memoizes
//! the compiled plan and the oracle's reachability labels across tasks,
//! so every switch of topology or plan is a chance to serve stale state.

use gmp_core::GmpRouter;
use gmp_faults::{FailureCause, FaultEvent, FaultPlan};
use gmp_net::{NodeId, Topology, TopologyConfig};
use gmp_sim::{MulticastTask, SimConfig, SimScratch, TaskReport, TaskRunner};

fn assert_identical(fresh: &TaskReport, reused: &TaskReport, what: &str) {
    assert_eq!(fresh.transmissions, reused.transmissions, "{what}");
    assert_eq!(fresh.delivery_hops, reused.delivery_hops, "{what}");
    assert_eq!(fresh.failed_dests, reused.failed_dests, "{what}");
    assert_eq!(fresh.dropped_packets, reused.dropped_packets, "{what}");
    assert_eq!(fresh.bytes_transmitted, reused.bytes_transmitted, "{what}");
    assert_eq!(fresh.truncated, reused.truncated, "{what}");
    assert_eq!(fresh.links, reused.links, "{what}");
    assert_eq!(
        fresh.energy_j.to_bits(),
        reused.energy_j.to_bits(),
        "{what}"
    );
    assert_eq!(
        fresh.completion_time_s.to_bits(),
        reused.completion_time_s.to_bits(),
        "{what}"
    );
    let bits = |r: &TaskReport| -> Vec<(NodeId, u64)> {
        r.delivery_times_s
            .iter()
            .map(|(&n, t)| (n, t.to_bits()))
            .collect()
    };
    assert_eq!(bits(fresh), bits(reused), "{what}");
    let link_bits =
        |r: &TaskReport| -> Vec<u64> { r.link_times_s.iter().map(|t| t.to_bits()).collect() };
    assert_eq!(link_bits(fresh), link_bits(reused), "{what}");
}

/// A task from `seed`; every third one is re-sourced at a crashed node,
/// which the runner exempts from its crash but the oracle excises.
fn task(topo: &Topology, plan: &FaultPlan, seed: u64) -> MulticastTask {
    let task = MulticastTask::random(topo, 25, seed);
    if !seed.is_multiple_of(3) {
        return task;
    }
    let crashed = plan.events.iter().find_map(|ev| match *ev {
        FaultEvent::Crash { node, .. } if !task.dests.contains(&node) => Some(node),
        _ => None,
    });
    let source = crashed.expect("a crash off the destination list");
    MulticastTask::new(source, task.dests)
}

#[test]
fn reused_scratch_matches_fresh_scratch_across_topology_and_plan_switches() {
    let topos: Vec<Topology> = [3u64, 4]
        .iter()
        .map(|&seed| Topology::random(&TopologyConfig::new(900.0, 150, 150.0), seed))
        .collect();
    let configs: Vec<SimConfig> = [(0.10, 11u64), (0.25, 12)]
        .iter()
        .map(|&(fraction, seed)| {
            SimConfig::paper().with_faults(FaultPlan::random_crashes(150, fraction, 0.0, seed))
        })
        .collect();

    // Combination `k` runs plan `k / 2` on topology `k % 2`. The order
    // holds every ordered pair of distinct combinations once — each plan
    // switch on a fixed topology, each topology switch under a fixed
    // plan, and both at once — and ends on a repeat.
    const ORDER: [usize; 14] = [0, 1, 2, 3, 0, 2, 1, 3, 2, 0, 3, 1, 0, 0];
    let mut scratch = SimScratch::new();
    let mut causes = [0usize; 2];
    for round in 0..2u64 {
        for (step, &k) in ORDER.iter().enumerate() {
            let (topo, config) = (&topos[k % 2], &configs[k / 2]);
            let seed = round * ORDER.len() as u64 + step as u64;
            let task = task(topo, &config.faults, seed);
            let runner = TaskRunner::new(topo, config);
            let reused = runner.run_with_scratch(&mut GmpRouter::new(), &task, seed, &mut scratch);
            let fresh = runner.run_seeded(&mut GmpRouter::new(), &task, seed);
            assert_identical(
                &fresh,
                &reused,
                &format!("step {step} (combination {k}), task seed {seed}"),
            );
            for f in &fresh.failed_dests {
                match f.cause {
                    FailureCause::DestDead => causes[0] += 1,
                    FailureCause::Disconnected => causes[1] += 1,
                    _ => {}
                }
            }
        }
    }
    // The workload must exercise both justified verdicts, or the parity
    // above says nothing about the memoized labels.
    assert!(causes.iter().all(|&n| n > 0), "verdict census {causes:?}");
}
