//! The scale curve behind `BENCH_4.json`: per-task cost vs network size.
//!
//! GMP's forwarding cost is a function of the local neighborhood and the
//! group size, not the network size — so a routing task inside a paper-
//! sized window should cost the same whether the deployment holds 10³ or
//! 10⁶ nodes. This module measures exactly that claim over the sharded
//! substrate ([`gmp_net::ShardedTopology`]):
//!
//! * deployments at every scale point keep the paper's density
//!   ([`gmp_net::shard::PAPER_DENSITY`], ~69 expected neighbors), so the
//!   area grows as √n;
//! * the workload is a fixed number of paper-sized (1000 m) task windows,
//!   each materialized with a routing-slack margin via
//!   [`gmp_sim::RegionSim`] and run shard-parallel through the crossbeam
//!   worker pool;
//! * throughput figures are **per worker-core** (total work ÷ summed
//!   per-worker busy seconds), so they compare across machines and thread
//!   counts; the headline flatness gate compares `decisions_per_sec`
//!   between scale points;
//! * the decision-path probe reuses the `BENCH_1` methodology (warmed
//!   [`gmp_core::ConcurrentTreeCache`] + [`gmp_core::DecisionScratch`]) on one
//!   region, with an allocation counter hook so the binary can assert the
//!   zero-alloc steady state at every scale point.

use std::time::Instant;

use gmp_core::{ConcurrentTreeCache, DecisionScratch, GmpRouter};
use gmp_geom::{Aabb, Point};
use gmp_net::{ShardConfig, ShardedTopology};
use gmp_sim::{MulticastTask, RegionSim, SimConfig, SimScratch, TaskRunner};

use crate::experiments::{parallel_map, task_seed};

/// Side of one task window, meters — the paper's whole deployment.
pub const WINDOW_SIDE: f64 = 1000.0;
/// Routing-slack margin materialized around each window, meters (2 × the
/// paper's 150 m radio range).
pub const MARGIN: f64 = 300.0;
/// Radio range at every scale point, meters (paper Table 1).
pub const RADIO_RANGE: f64 = 150.0;

/// Measurements at one network size.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Total nodes in the deployment.
    pub nodes: usize,
    /// Deployment area side at paper density, meters.
    pub area_side: f64,
    /// Coarse tiles in the substrate.
    pub tile_count: usize,
    /// Seconds to construct the lazy substrate (no nodes generated).
    pub substrate_build_s: f64,
    /// Seconds to materialize the *whole* network eagerly, for the small
    /// points where that is feasible; `None` above the eager cutoff.
    pub eager_build_s: Option<f64>,
    /// Summed per-worker seconds spent materializing task regions.
    pub region_build_s: f64,
    /// Tiles actually generated across the whole point.
    pub materialized_tiles: usize,
    /// Nodes actually generated across the whole point.
    pub materialized_nodes: usize,
    /// Substrate heap bytes after the run (budgets + generated tiles).
    pub substrate_heap_bytes: usize,
    /// Task windows run.
    pub windows: usize,
    /// Multicast tasks run across all windows.
    pub tasks: usize,
    /// Tasks that failed to deliver every destination.
    pub failed_tasks: usize,
    /// End-to-end simulated tasks per worker-core second.
    pub tasks_per_sec: f64,
    /// Per-hop forwarding decisions per second through the warmed decision
    /// cache (BENCH_1 methodology, single-threaded probe).
    pub decisions_per_sec: f64,
    /// Heap allocations per decision during the probe; `None` when no
    /// allocation counter hook was supplied.
    pub allocs_per_decision: Option<f64>,
    /// Wall-clock seconds for the whole point.
    pub wall_clock_s: f64,
    /// Process peak RSS after this point, bytes (cumulative across points).
    pub peak_rss_bytes: Option<u64>,
}

/// Deterministic low-discrepancy window origin: the `w`-th window of a
/// deployment, spread over the area by a golden-ratio sequence so windows
/// neither overlap systematically nor cluster at any scale.
pub(crate) fn window_at(area_side: f64, w: usize) -> Aabb {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let side = WINDOW_SIDE.min(area_side);
    let span = area_side - side;
    let fx = ((w as f64 + 0.5) * PHI).fract();
    let fy = ((w as f64 + 0.5) * PHI * PHI).fract();
    let origin = Point::new(span * fx, span * fy);
    Aabb::new(origin, Point::new(origin.x + side, origin.y + side))
}

/// Largest network the curve still materializes eagerly for the
/// build-time comparison column.
pub const EAGER_CUTOFF: usize = 10_000;

/// Runs the scale curve at the given network sizes.
///
/// `alloc_counter` is a hook returning the process-wide allocation count
/// (the `experiments` binary passes its counting global allocator); when
/// supplied, each point reports allocations per decision over the warmed
/// decision probe.
pub fn scale_curve(
    node_counts: &[usize],
    windows: usize,
    tasks_per_window: usize,
    k: usize,
    alloc_counter: Option<&(dyn Fn() -> usize + Sync)>,
) -> Vec<ScalePoint> {
    let config = SimConfig::paper();
    node_counts
        .iter()
        .map(|&n| {
            let point_start = Instant::now();
            let shard_config = ShardConfig::paper_density(n, RADIO_RANGE);
            let area_side = shard_config.area.width();

            let t0 = Instant::now();
            let st = ShardedTopology::new(shard_config.clone(), substrate_seed(n));
            let substrate_build_s = t0.elapsed().as_secs_f64();

            // Eager comparison column: same positions, whole-network
            // adjacency, on a fresh substrate so lazily materialized tiles
            // don't subsidize the timing.
            let eager_build_s = (n <= EAGER_CUTOFF).then(|| {
                let st2 = ShardedTopology::new(shard_config.clone(), substrate_seed(n));
                let t0 = Instant::now();
                let full = st2.materialize_full();
                assert_eq!(full.len(), n);
                t0.elapsed().as_secs_f64()
            });

            // Shard-parallel task execution: one job per window.
            let jobs: Vec<usize> = (0..windows).collect();
            let partials = parallel_map(jobs, |&w| {
                let t0 = Instant::now();
                let sim = RegionSim::new(&st, window_at(area_side, w), MARGIN);
                let region_build_s = t0.elapsed().as_secs_f64();
                let runner = sim.runner(&config);
                let mut router = GmpRouter::new();
                let mut scratch = SimScratch::new();
                let mut failed = 0usize;
                let t0 = Instant::now();
                for t in 0..tasks_per_window {
                    let task = sim.random_task(k, task_seed(w, t));
                    let report = runner.run_with_scratch(&mut router, &task, 0, &mut scratch);
                    failed += usize::from(!report.delivered_all());
                }
                (region_build_s, t0.elapsed().as_secs_f64(), failed)
            });
            let region_build_s: f64 = partials.iter().map(|p| p.0).sum();
            let routing_s: f64 = partials.iter().map(|p| p.1).sum();
            let failed_tasks: usize = partials.iter().map(|p| p.2).sum();
            let tasks = windows * tasks_per_window;
            let tasks_per_sec = tasks as f64 / routing_s;

            let (decisions_per_sec, allocs_per_decision) =
                decision_probe(&st, area_side, tasks_per_window, k, alloc_counter);

            ScalePoint {
                nodes: n,
                area_side,
                tile_count: st.tile_count(),
                substrate_build_s,
                eager_build_s,
                region_build_s,
                materialized_tiles: st.materialized_tiles(),
                materialized_nodes: st.materialized_nodes(),
                substrate_heap_bytes: st.heap_bytes(),
                windows,
                tasks,
                failed_tasks,
                tasks_per_sec,
                decisions_per_sec,
                allocs_per_decision,
                wall_clock_s: point_start.elapsed().as_secs_f64(),
                peak_rss_bytes: crate::rss::peak_rss_bytes(),
            }
        })
        .collect()
}

/// Seed for the scale substrate at size `n` — distinct per point so no two
/// points share node layouts, disjoint from the sweep seed families.
fn substrate_seed(n: usize) -> u64 {
    0x5CA1_E000_0000_0000 ^ n as u64
}

/// Single-threaded decision-path probe on one materialized window: the
/// BENCH_1 workload (warmed cache + scratch, then timed rounds) against a
/// region of the sharded substrate.
fn decision_probe(
    st: &ShardedTopology,
    area_side: f64,
    task_count: usize,
    k: usize,
    alloc_counter: Option<&(dyn Fn() -> usize + Sync)>,
) -> (f64, Option<f64>) {
    let sim = RegionSim::new(st, window_at(area_side, 0), MARGIN);
    let tasks: Vec<MulticastTask> = (0..task_count.max(8))
        .map(|t| sim.random_task(k, task_seed(54_321, t)))
        .collect();
    let mut scratch = DecisionScratch::new();
    let cache = ConcurrentTreeCache::new();
    let run_pass = |scratch: &mut DecisionScratch| {
        let mut covered = 0usize;
        for t in &tasks {
            let g = cache.group_destinations_cached(
                scratch,
                sim.topology(),
                t.source,
                &t.dests,
                true,
                None,
                None,
            );
            covered += g.covered.len();
        }
        covered
    };
    for _ in 0..2 {
        run_pass(&mut scratch);
    }
    let rounds = 200usize;
    let allocs_before = alloc_counter.map(|f| f());
    let t0 = Instant::now();
    let mut covered = 0usize;
    for _ in 0..rounds {
        covered += run_pass(&mut scratch);
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(covered > 0, "decision probe routed nothing");
    let decisions = rounds * tasks.len();
    let allocs_per_decision = alloc_counter
        .zip(allocs_before)
        .map(|(f, before)| (f() - before) as f64 / decisions as f64);
    (decisions as f64 / secs, allocs_per_decision)
}

/// Paper-scale parity check used by the `scale_parity` integration test
/// and callable from debugging sessions: runs `tasks` tasks through both
/// the eager [`gmp_net::Topology`] and the sharded substrate's full
/// materialization and asserts bit-identical [`gmp_sim::TaskReport`]s.
pub fn assert_substrate_parity(n: usize, seed: u64, tasks: usize, k: usize) {
    let st = ShardedTopology::new(ShardConfig::paper_density(n, RADIO_RANGE), seed);
    let full = st.materialize_full();
    let eager = gmp_net::Topology::from_positions(full.positions(), full.area(), RADIO_RANGE);
    let config = SimConfig::paper();
    let runner_a = TaskRunner::new(&full, &config);
    let runner_b = TaskRunner::new(&eager, &config);
    let mut scratch_a = SimScratch::new();
    let mut scratch_b = SimScratch::new();
    let mut router_a = GmpRouter::new();
    let mut router_b = GmpRouter::new();
    for t in 0..tasks {
        let task = MulticastTask::random(&full, k, task_seed(9_999, t));
        let a = runner_a.run_with_scratch(&mut router_a, &task, 7, &mut scratch_a);
        let b = runner_b.run_with_scratch(&mut router_b, &task, 7, &mut scratch_b);
        assert_eq!(a, b, "TaskReport diverged on task {t}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_stay_inside_area() {
        for side in [1000.0, 3162.3, 31_622.8] {
            for w in 0..16 {
                let win = window_at(side, w);
                assert!(win.min.x >= -1e-9 && win.min.y >= -1e-9);
                assert!(win.max.x <= side + 1e-9 && win.max.y <= side + 1e-9);
                assert!((win.width() - WINDOW_SIDE.min(side)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn quick_curve_reports_sane_numbers() {
        let points = scale_curve(&[1000, 4000], 2, 4, 5, None);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.tasks_per_sec > 0.0, "{p:?}");
            assert!(p.decisions_per_sec > 0.0, "{p:?}");
            assert_eq!(p.tasks, 8);
            assert!(p.failed_tasks <= p.tasks);
            assert!(p.substrate_build_s >= 0.0);
            assert!(p.materialized_nodes <= p.nodes);
        }
        // The small point is fully covered by one window; the 4k point
        // must stay lazy (windows cover a fraction of the area).
        assert!(points[0].eager_build_s.is_some());
        assert!((points[0].area_side - 1000.0).abs() < 1e-6);
        assert!((points[1].area_side - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn substrate_parity_holds_at_small_scale() {
        assert_substrate_parity(600, 3, 3, 5);
    }
}
