//! The concurrent-service workload behind `BENCH_5.json`: sustained
//! multicast session throughput under churn, swept over a worker-thread
//! axis.
//!
//! A deployed GMP network does not run one multicast task at a time — it
//! carries thousands of overlapping sessions whose groups churn as nodes
//! join, leave, and fail. This module measures exactly that, through
//! [`gmp_service::SessionEngine`]:
//!
//! * the **sequential baseline** runs the identical session set
//!   back-to-back, each session as its own self-contained simulation
//!   (fresh protocol, fresh scratch — the repo's per-task idiom used by
//!   every figure sweep);
//! * the **concurrent engine** interleaves all sessions over one shared
//!   topology on a single thread, sharing the decision cache and pooled
//!   scratch state; the `reports_match` flag certifies each session's
//!   report is bit-identical to its sequential twin;
//! * the **parallel engine** shards the event wheel across 1/2/4/8
//!   worker threads ([`SessionEngine::run_parallel`]), every worker's
//!   router backed by ONE shared [`ConcurrentTreeCache`] — so misses are
//!   paid once fleet-wide instead of once per worker, and outcomes stay
//!   bit-identical at every thread count (that is the per-point
//!   `reports_match` certificate);
//! * fault wiring follows the cache-sharing determinism rule: crashes are
//!   *timed* events (identical alive vectors for every session, so cache
//!   keys stay shared) surfaced to the membership service as crash-derived
//!   leaves after a detection delay.
//!
//! Session latency is wall-clock admission → completion of the engine's
//! as-fast-as-possible loop, not simulated service time; the parallel
//! percentiles expose the latency cost of sharing a core budget across
//! workers.

use std::sync::Arc;
use std::time::Instant;

use gmp_core::{CacheConfig, CacheStats, ConcurrentTreeCache, GmpRouter};
use gmp_net::{NodeId, ShardConfig, ShardedTopology, Topology};
use gmp_service::{
    EngineProtocol, ParallelProtocol, ServiceWorkload, SessionEngine, SessionOutcome,
    WorkloadParams,
};
use gmp_sim::{FaultPlan, Protocol, RegionSim, SimConfig, TaskReport, TaskRunner};

use crate::scale::{window_at, MARGIN, RADIO_RANGE};

/// Fraction of candidate nodes crashed at session-local t = 0 (one in
/// `CRASH_STRIDE` nodes).
const CRASH_STRIDE: usize = 100;

/// Measurements at one (topology, session count, worker count) point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePoint {
    /// Topology label (`paper-1000` or `sharded-100k`).
    pub topology: String,
    /// Total nodes in the deployment.
    pub nodes: usize,
    /// Sessions that ran (skipped-empty excluded).
    pub sessions: usize,
    /// Multicast groups in the workload.
    pub groups: usize,
    /// Membership updates streamed (joins, churn, crash-derived leaves).
    pub membership_updates: usize,
    /// Crash events in the fault plan.
    pub fault_crashes: usize,
    /// Sessions skipped because their group was empty at snapshot time.
    pub skipped_empty: usize,
    /// Wall seconds for the back-to-back sequential baseline.
    pub sequential_wall_s: f64,
    /// Sequential sessions per second.
    pub sequential_sessions_per_sec: f64,
    /// Wall seconds for the single-threaded concurrent engine.
    pub concurrent_wall_s: f64,
    /// Concurrent sessions per second.
    pub concurrent_sessions_per_sec: f64,
    /// Routing decisions per second through the concurrent engine.
    pub decisions_per_sec: f64,
    /// Median session latency (admission → completion) of the
    /// single-thread concurrent engine, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile concurrent session latency, milliseconds.
    pub p99_latency_ms: f64,
    /// Worker threads driving the sharded parallel engine at this point.
    pub threads: usize,
    /// Wall seconds for the multi-worker parallel engine.
    pub parallel_wall_s: f64,
    /// Parallel sessions per second.
    pub parallel_sessions_per_sec: f64,
    /// Median parallel session latency, milliseconds.
    pub parallel_p50_latency_ms: f64,
    /// 99th-percentile parallel session latency, milliseconds.
    pub parallel_p99_latency_ms: f64,
    /// Concurrent vs sequential throughput ratio (the ≥2x headline gate).
    pub speedup: f64,
    /// Parallel vs single-thread concurrent throughput ratio — the
    /// core-scaling curve's y-axis.
    pub parallel_scaling: f64,
    /// Heap allocations per session over a warmed parallel re-run;
    /// `None` when no allocation counter hook was supplied.
    pub allocs_per_session: Option<f64>,
    /// Allocation-count difference between two identical warmed parallel
    /// re-runs (steady state ⇔ exactly 0); `None` without a counter hook.
    pub steady_alloc_drift: Option<i64>,
    /// Statistics of the [`ConcurrentTreeCache`] shared by this point's
    /// workers, summed across windows on the sharded substrate.
    pub cache: CacheStats,
    /// Whether every concurrent and parallel report was bit-identical to
    /// its sequential twin.
    pub reports_match: bool,
}

/// Latency percentile (nearest-rank on a sorted copy), in milliseconds.
fn percentile_ms(latencies_s: &mut [f64], q: f64) -> f64 {
    if latencies_s.is_empty() {
        return 0.0;
    }
    latencies_s.sort_by(f64::total_cmp);
    let idx = ((latencies_s.len() - 1) as f64 * q).round() as usize;
    latencies_s[idx] * 1e3
}

/// Timed-crash fault plan over every `CRASH_STRIDE`-th candidate, at
/// session-local t = 0. Timed events consume no task RNG and give every
/// session the same alive vector, so the shared decision cache keeps
/// serving across sessions.
fn crash_plan(candidates: &[NodeId]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &node in candidates.iter().step_by(CRASH_STRIDE).skip(1) {
        plan = plan.with_crash(node, 0.0);
    }
    plan
}

fn crash_count(plan: &FaultPlan) -> usize {
    plan.events
        .iter()
        .filter(|e| matches!(e, gmp_sim::FaultEvent::Crash { .. }))
        .count()
}

/// Back-to-back sequential baseline: each session as a self-contained
/// simulation (fresh router, fresh scratch — `ProtocolKind::run_task`'s
/// idiom). Returns `(reports by session id, completed count, wall seconds)`.
fn sequential_baseline(
    topo: &Topology,
    config: &SimConfig,
    workload: &ServiceWorkload,
) -> (Vec<Option<TaskReport>>, usize, f64) {
    let tasks = workload.resolve_tasks();
    let runner = TaskRunner::new(topo, config);
    let t0 = Instant::now();
    let mut completed = 0usize;
    let reports: Vec<Option<TaskReport>> = workload
        .sessions
        .iter()
        .zip(&tasks)
        .map(|(spec, task)| {
            task.as_ref().map(|task| {
                completed += 1;
                let mut router = GmpRouter::new();
                runner.run_seeded(&mut router, task, spec.seed)
            })
        })
        .collect();
    (reports, completed, t0.elapsed().as_secs_f64())
}

/// Verifies every engine outcome against its sequential twin.
fn outcomes_match(outcomes: &[SessionOutcome], sequential: &[Option<TaskReport>]) -> bool {
    outcomes.iter().all(|o| {
        sequential
            .get(o.id as usize)
            .and_then(|r| r.as_ref())
            .is_some_and(|r| *r == o.report)
    })
}

/// A `Sync` router factory whose products all share `cache` — what every
/// parallel worker constructs its protocol from.
fn shared_router_factory(cache: Arc<ConcurrentTreeCache>) -> impl Fn() -> Box<dyn Protocol> + Sync {
    move || Box::new(GmpRouter::with_shared_cache(Arc::clone(&cache))) as Box<dyn Protocol>
}

/// Runs the service benchmark on the paper-scale topology (1000 nodes,
/// topology seed 1), producing one [`ServicePoint`] per entry of
/// `threads_axis`. The sequential and single-thread concurrent legs run
/// once and are replicated into every point; the parallel leg (and its
/// shared cache, latency percentiles, and steady-state allocation
/// certificate) is measured per worker count, from cold.
pub fn paper_scaling_curve(
    sessions: usize,
    seed: u64,
    alloc_counter: Option<&dyn Fn() -> usize>,
    threads_axis: &[usize],
) -> Vec<ServicePoint> {
    let base = SimConfig::paper();
    let topo = Topology::random(&base.topology_config(), 1);
    let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
    let plan = crash_plan(&candidates);
    // The crashes are live in-simulation too: every session runs under the
    // same timed plan (identical alive vectors keep the decision cache
    // shared), while the membership stream drops the same nodes after the
    // detection delay.
    let config = base.with_faults(plan.clone());
    let params = WorkloadParams {
        groups: 16,
        members_per_group: 24,
        churn_updates: (sessions / 5).max(200),
        sessions,
        duration_s: 60.0,
        min_members: 2,
        max_members: 40,
        crash_detect_s: 30.0,
    };
    let workload = ServiceWorkload::random(&candidates, &params, &plan, seed);

    // Sequential baseline.
    let (seq_reports, seq_completed, seq_wall) = sequential_baseline(&topo, &config, &workload);

    // Concurrent engine, single-threaded, from cold.
    let mut router = GmpRouter::new();
    let mut engine = SessionEngine::new(&topo, &config);
    let t0 = Instant::now();
    let run = engine.run(EngineProtocol::Shared(&mut router), &workload);
    let conc_wall = t0.elapsed().as_secs_f64();
    let base_match = outcomes_match(&run.outcomes, &seq_reports);
    let mut conc_latencies: Vec<f64> = run.outcomes.iter().map(|o| o.latency_s).collect();
    let completed = run.outcomes.len();
    assert_eq!(
        completed, seq_completed,
        "engine and baseline disagree on session count"
    );
    let p50_latency_ms = percentile_ms(&mut conc_latencies, 0.50);
    let p99_latency_ms = percentile_ms(&mut conc_latencies, 0.99);

    threads_axis
        .iter()
        .map(|&threads| {
            // Parallel leg, from cold at every point: a fresh shared
            // cache so each point's hit rate is self-contained, a fresh
            // engine so no pool warmth leaks between thread counts.
            let cache = Arc::new(ConcurrentTreeCache::with_config(CacheConfig::default()));
            let factory = shared_router_factory(Arc::clone(&cache));
            let mut engine = SessionEngine::new(&topo, &config);
            let t0 = Instant::now();
            let par =
                engine.run_parallel(ParallelProtocol::PerWorker(&factory), &workload, threads);
            let par_wall = t0.elapsed().as_secs_f64();
            let reports_match = base_match && outcomes_match(&par.outcomes, &seq_reports);
            assert_eq!(par.outcomes.len(), completed, "parallel leg lost sessions");
            let mut par_latencies: Vec<f64> = par.outcomes.iter().map(|o| o.latency_s).collect();

            // Steady-state allocation profile of the *parallel* engine.
            // Warm-up runs until two consecutive passes allocate the same
            // amount: the scratch pool is returned in worker order and
            // re-dealt round-robin, so a scratch can land on a
            // higher-demand session a few runs in and still grow a buffer
            // — capacities only ever grow, so this converges, but at
            // higher worker counts it can take more than one pass. Two
            // measured re-runs then replay the identical strided schedule
            // against the now-frozen shared cache. Any drift between them
            // means the multi-worker path is still allocating; steady
            // state is exactly 0.
            let (allocs_per_session, steady_alloc_drift) = match alloc_counter {
                Some(count) => {
                    let mut rerun = || {
                        let before = count();
                        let _ = engine.run_parallel(
                            ParallelProtocol::PerWorker(&factory),
                            &workload,
                            threads,
                        );
                        count() - before
                    };
                    let mut prev = rerun();
                    for _ in 0..8 {
                        let next = rerun();
                        let settled = next == prev;
                        prev = next;
                        if settled {
                            break;
                        }
                    }
                    let run2 = prev;
                    let run3 = rerun();
                    (
                        Some(run2 as f64 / completed.max(1) as f64),
                        Some(run3 as i64 - run2 as i64),
                    )
                }
                None => (None, None),
            };

            ServicePoint {
                topology: "paper-1000".into(),
                nodes: topo.len(),
                sessions: completed,
                groups: params.groups,
                membership_updates: workload.updates.len(),
                fault_crashes: crash_count(&plan),
                skipped_empty: run.skipped_empty,
                sequential_wall_s: seq_wall,
                sequential_sessions_per_sec: completed as f64 / seq_wall,
                concurrent_wall_s: conc_wall,
                concurrent_sessions_per_sec: completed as f64 / conc_wall,
                decisions_per_sec: run.decisions as f64 / conc_wall,
                p50_latency_ms,
                p99_latency_ms,
                threads,
                parallel_wall_s: par_wall,
                parallel_sessions_per_sec: completed as f64 / par_wall,
                parallel_p50_latency_ms: percentile_ms(&mut par_latencies, 0.50),
                parallel_p99_latency_ms: percentile_ms(&mut par_latencies, 0.99),
                speedup: seq_wall / conc_wall,
                parallel_scaling: conc_wall / par_wall,
                allocs_per_session,
                steady_alloc_drift,
                cache: cache.stats(),
                reports_match,
            }
        })
        .collect()
}

/// Runs the service benchmark over the sharded lazy substrate: sessions
/// spread across paper-sized task windows of a `total_nodes` deployment
/// at paper density. Windows are processed one after another, each
/// window's engine sharded across `threads` workers over one shared
/// per-window cache — so the parallel budget no longer caps at the
/// window count the way the old per-batch fan-out did (the super-batch
/// regime), and misses inside a window are paid once, not once per
/// worker.
pub fn sharded_service_point(
    total_nodes: usize,
    windows: usize,
    sessions_total: usize,
    seed: u64,
    threads: usize,
) -> ServicePoint {
    let shard_config = ShardConfig::paper_density(total_nodes, RADIO_RANGE);
    let area_side = shard_config.area.width();
    let sharded = ShardedTopology::new(shard_config, 7);

    let sessions_per_window = (sessions_total / windows).max(1);
    let regions: Vec<RegionSim> = (0..windows)
        .map(|w| RegionSim::new(&sharded, window_at(area_side, w), MARGIN))
        .collect();
    let setups: Vec<(usize, FaultPlan, ServiceWorkload, SimConfig)> = regions
        .iter()
        .enumerate()
        .map(|(w, region)| {
            let candidates = region.window_nodes().to_vec();
            let plan = crash_plan(&candidates);
            let params = WorkloadParams {
                groups: 8,
                members_per_group: 32,
                churn_updates: (sessions_per_window / 3).max(100),
                sessions: sessions_per_window,
                duration_s: 60.0,
                min_members: 2,
                max_members: 48,
                crash_detect_s: 30.0,
            };
            let workload =
                ServiceWorkload::random(&candidates, &params, &plan, seed ^ (w as u64 + 1));
            // The window's crashes are live in-simulation for every one of
            // its sessions (see `paper_scaling_curve`).
            let config = SimConfig::paper().with_faults(plan.clone());
            (w, plan, workload, config)
        })
        .collect();

    // Sequential baseline across every window.
    let t0 = Instant::now();
    let mut seq_reports: Vec<Vec<Option<TaskReport>>> = Vec::with_capacity(windows);
    let mut seq_completed = 0usize;
    for (w, _, workload, config) in &setups {
        let (reports, completed, _) = sequential_baseline(regions[*w].topology(), config, workload);
        seq_completed += completed;
        seq_reports.push(reports);
    }
    let seq_wall = t0.elapsed().as_secs_f64();

    // Concurrent engine, window after window on one thread (the decision
    // cache is per-window: windows are distinct topologies).
    let t0 = Instant::now();
    let mut completed = 0usize;
    let mut decisions = 0usize;
    let mut skipped_empty = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    let mut reports_match = true;
    for (w, _, workload, config) in &setups {
        let mut router = GmpRouter::new();
        let mut engine = SessionEngine::new(regions[*w].topology(), config);
        let run = engine.run(EngineProtocol::Shared(&mut router), workload);
        reports_match &= outcomes_match(&run.outcomes, &seq_reports[*w]);
        completed += run.outcomes.len();
        decisions += run.decisions;
        skipped_empty += run.skipped_empty;
        latencies.extend(run.outcomes.iter().map(|o| o.latency_s));
    }
    let conc_wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        completed, seq_completed,
        "engine and baseline disagree on session count"
    );

    let membership_updates: usize = setups.iter().map(|(_, _, w, _)| w.updates.len()).sum();
    let fault_crashes: usize = setups.iter().map(|(_, p, _, _)| crash_count(p)).sum();

    // Parallel leg: window after window, each window's wheel sharded
    // across `threads` workers over one shared per-window cache.
    let t0 = Instant::now();
    let mut par_completed = 0usize;
    let mut par_latencies: Vec<f64> = Vec::new();
    let mut cache = CacheStats::default();
    for (w, _, workload, config) in &setups {
        let shared = Arc::new(ConcurrentTreeCache::with_config(CacheConfig::default()));
        let factory = shared_router_factory(Arc::clone(&shared));
        let mut engine = SessionEngine::new(regions[*w].topology(), config);
        let par = engine.run_parallel(ParallelProtocol::PerWorker(&factory), workload, threads);
        reports_match &= outcomes_match(&par.outcomes, &seq_reports[*w]);
        par_completed += par.outcomes.len();
        par_latencies.extend(par.outcomes.iter().map(|o| o.latency_s));
        cache = sum_cache(cache, shared.stats());
    }
    let par_wall = t0.elapsed().as_secs_f64();
    assert_eq!(par_completed, completed, "parallel leg lost sessions");

    ServicePoint {
        topology: format!("sharded-{}k", total_nodes / 1000),
        nodes: total_nodes,
        sessions: completed,
        groups: windows * 8,
        membership_updates,
        fault_crashes,
        skipped_empty,
        sequential_wall_s: seq_wall,
        sequential_sessions_per_sec: completed as f64 / seq_wall,
        concurrent_wall_s: conc_wall,
        concurrent_sessions_per_sec: completed as f64 / conc_wall,
        decisions_per_sec: decisions as f64 / conc_wall,
        p50_latency_ms: percentile_ms(&mut latencies, 0.50),
        p99_latency_ms: percentile_ms(&mut latencies, 0.99),
        threads,
        parallel_wall_s: par_wall,
        parallel_sessions_per_sec: par_completed as f64 / par_wall,
        parallel_p50_latency_ms: percentile_ms(&mut par_latencies, 0.50),
        parallel_p99_latency_ms: percentile_ms(&mut par_latencies, 0.99),
        speedup: seq_wall / conc_wall,
        parallel_scaling: conc_wall / par_wall,
        allocs_per_session: None,
        steady_alloc_drift: None,
        cache,
        reports_match,
    }
}

/// Component-wise sum of two cache-stat snapshots (`entries_live` sums
/// the live entries of every per-window cache).
fn sum_cache(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        fallbacks: a.fallbacks + b.fallbacks,
        entries_live: a.entries_live + b.entries_live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_curve_is_bit_identical_at_every_thread_count() {
        let points = paper_scaling_curve(64, 3, None, &[1, 2]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(
                p.reports_match,
                "{} workers: engine reports diverged from solo runs",
                p.threads
            );
            assert_eq!(p.sessions + p.skipped_empty, 64);
            assert!(p.sessions > 0);
            assert!(p.membership_updates > 0);
            assert!(p.fault_crashes > 0);
            assert!(p.cache.lookups() > 0, "shared cache saw no traffic");
        }
        assert_eq!(points[0].threads, 1);
        assert_eq!(points[1].threads, 2);
        // The sequential/concurrent legs are shared across the curve.
        assert_eq!(points[0].sequential_wall_s, points[1].sequential_wall_s);
        assert_eq!(points[0].concurrent_wall_s, points[1].concurrent_wall_s);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut lat: Vec<f64> = (1..=100).map(|i| i as f64 / 1000.0).collect();
        assert!((percentile_ms(&mut lat.clone(), 0.50) - 50.0).abs() < 1.5);
        assert!((percentile_ms(&mut lat, 0.99) - 99.0).abs() < 1.5);
        assert_eq!(percentile_ms(&mut [], 0.99), 0.0);
    }

    #[test]
    fn zero_lookup_stats_yield_zero_rates() {
        // A skipped/empty point must not poison a JSON gate with NaN.
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        let summed = sum_cache(empty, CacheStats::default());
        assert_eq!(summed.hit_rate(), 0.0);
    }
}
