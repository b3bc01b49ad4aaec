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
//! * the **engine** ([`SessionEngine::run_parallel`]) interleaves the
//!   sessions over one shared topology, pooled scratch state and ONE
//!   shared [`ConcurrentTreeCache`], its event wheel sharded across a
//!   worker axis capped at the host's core count — so misses are paid
//!   once fleet-wide instead of once per worker. The 1-worker leg is the
//!   single-threaded engine (it also pays the thread spawn); the
//!   per-point `reports_match` flag certifies every report bit-identical
//!   to its sequential twin at every thread count;
//! * fault wiring follows the cache-sharing determinism rule: crashes are
//!   *timed* events (identical alive vectors for every session, so cache
//!   keys stay shared) surfaced to the membership service as crash-derived
//!   leaves after a detection delay.
//!
//! Session latency is wall-clock admission → completion of the engine's
//! as-fast-as-possible loop, not simulated service time; the percentiles
//! across the worker axis expose the latency cost of sharing a core
//! budget across workers.
//!
//! Every leg starts from a cold decision cache, and every timed figure is
//! a [`Spread`] over [`crate::record::TRIALS`] trials. One trial times
//! every leg back to back, so `speedup` and `parallel_scaling` are ratios
//! of legs timed in the *same* trial: one worker over sequential, and
//! `threads` workers over one worker.

use std::sync::Arc;

use gmp_core::{CacheConfig, CacheStats, ConcurrentTreeCache, GmpRouter};
use gmp_net::{NodeId, ShardConfig, ShardedTopology, Topology};
use gmp_service::{ParallelProtocol, ServiceRun, ServiceWorkload, SessionEngine, WorkloadParams};
use gmp_sim::{FaultPlan, Protocol, RegionSim, SimConfig, TaskReport, TaskRunner};

use crate::record::{rate, trials, Spread};
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
    /// Sequential sessions per second.
    pub sequential_sessions_per_sec: Spread,
    /// Routing decisions per second through the 1-worker engine.
    pub decisions_per_sec: Spread,
    /// Worker threads driving the engine at this point.
    pub threads: usize,
    /// Engine sessions per second at `threads` workers.
    pub parallel_sessions_per_sec: Spread,
    /// Median session latency (admission → completion) at `threads`
    /// workers, milliseconds.
    pub parallel_p50_latency_ms: Spread,
    /// 99th-percentile session latency at `threads` workers,
    /// milliseconds.
    pub parallel_p99_latency_ms: Spread,
    /// 1-worker engine vs sequential throughput, per trial.
    pub speedup: Spread,
    /// `threads`-worker vs 1-worker parallel throughput, per trial — the
    /// core-scaling curve's y-axis.
    pub parallel_scaling: Spread,
    /// Heap allocations per session over a warmed parallel re-run;
    /// `None` when no allocation counter hook was supplied.
    pub allocs_per_session: Option<f64>,
    /// Allocation-count difference between two identical warmed parallel
    /// re-runs (steady state ⇔ exactly 0); `None` without a counter hook.
    pub steady_alloc_drift: Option<i64>,
    /// Statistics of the [`ConcurrentTreeCache`]s shared by this point's
    /// workers over one cold run, summed across windows.
    pub cache: CacheStats,
    /// Whether every engine report at this point was bit-identical to its
    /// sequential twin.
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

/// One service window: a topology and the faulted config and workload its
/// sessions run under.
struct Window<'t> {
    topo: &'t Topology,
    config: SimConfig,
    workload: ServiceWorkload,
    crashes: usize,
}

impl<'t> Window<'t> {
    /// Draws the workload over `candidates`. The crashes are live
    /// in-simulation too: every session runs under the same timed plan
    /// (identical alive vectors keep the decision cache shared), while the
    /// membership stream drops the same nodes after the detection delay.
    fn new(topo: &'t Topology, candidates: &[NodeId], params: &WorkloadParams, seed: u64) -> Self {
        let plan = crash_plan(candidates);
        let crashes = plan.events.len();
        Window {
            topo,
            workload: ServiceWorkload::random(candidates, params, &plan, seed),
            config: SimConfig::paper().with_faults(plan),
            crashes,
        }
    }
}

/// Back-to-back sequential baseline: each session as a self-contained
/// simulation (fresh router, fresh scratch — `ProtocolKind::run_task`'s
/// idiom). Returns each window's reports by session id.
fn sequential(windows: &[Window]) -> Vec<Vec<Option<TaskReport>>> {
    windows
        .iter()
        .map(|w| {
            let runner = TaskRunner::new(w.topo, &w.config);
            w.workload
                .sessions
                .iter()
                .zip(w.workload.resolve_tasks())
                .map(|(spec, task)| {
                    task.map(|task| runner.run_seeded(&mut GmpRouter::new(), &task, spec.seed))
                })
                .collect()
        })
        .collect()
}

/// A `Sync` router factory whose products all share `cache` — what every
/// parallel worker constructs its protocol from.
fn shared_router_factory(cache: Arc<ConcurrentTreeCache>) -> impl Fn() -> Box<dyn Protocol> + Sync {
    move || Box::new(GmpRouter::with_shared_cache(Arc::clone(&cache))) as Box<dyn Protocol>
}

fn cold_cache() -> Arc<ConcurrentTreeCache> {
    Arc::new(ConcurrentTreeCache::with_config(CacheConfig::default()))
}

/// The engine over each window in turn, its wheel sharded across
/// `threads` workers over one cold per-window cache (windows are distinct
/// topologies). Returns the runs and the caches' summed statistics.
fn parallel(windows: &[Window], threads: usize) -> (Vec<ServiceRun>, CacheStats) {
    let mut stats = CacheStats::default();
    let runs = windows
        .iter()
        .map(|w| {
            let cache = cold_cache();
            let factory = shared_router_factory(Arc::clone(&cache));
            let run = SessionEngine::new(w.topo, &w.config).run_parallel(
                ParallelProtocol::PerWorker(&factory),
                &w.workload,
                threads,
            );
            stats = sum_cache(stats, cache.stats());
            run
        })
        .collect();
    (runs, stats)
}

/// Verifies every engine outcome against its sequential twin.
fn runs_match(runs: &[ServiceRun], sequential: &[Vec<Option<TaskReport>>]) -> bool {
    runs.iter().zip(sequential).all(|(run, seq)| {
        run.outcomes.iter().all(|o| {
            seq.get(o.id as usize)
                .and_then(|r| r.as_ref())
                .is_some_and(|r| *r == o.report)
        })
    })
}

fn completed(runs: &[ServiceRun]) -> usize {
    runs.iter().map(|r| r.outcomes.len()).sum()
}

/// One engine leg's figures in one trial.
#[derive(Debug, Clone, Copy)]
struct Leg {
    per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Times one trial of `pass` (one run over every window): sessions per
/// second, and latency percentiles over every session the trial ran.
fn time_leg(mut pass: impl FnMut() -> Vec<ServiceRun>) -> Leg {
    let mut latencies: Vec<f64> = Vec::new();
    let per_sec = rate(|| {
        let runs = pass();
        let before = latencies.len();
        latencies.extend(
            runs.iter()
                .flat_map(|r| r.outcomes.iter().map(|o| o.latency_s)),
        );
        latencies.len() - before
    });
    Leg {
        per_sec,
        p50_ms: percentile_ms(&mut latencies, 0.50),
        p99_ms: percentile_ms(&mut latencies, 0.99),
    }
}

/// One trial: every leg timed back to back.
#[derive(Debug)]
struct Trial {
    sequential: f64,
    /// One engine leg per entry of the worker list (1 worker first).
    parallel: Vec<Leg>,
}

/// Steady-state allocation profile of the parallel engine. Warm-up runs
/// until two consecutive passes allocate the same amount: the scratch
/// pool is returned in worker order and re-dealt round-robin, so a
/// scratch can land on a higher-demand session a few runs in and still
/// grow a buffer — capacities only ever grow, so this converges, but at
/// higher worker counts it can take more than one pass. Two measured
/// re-runs then replay the identical strided schedule against the
/// now-frozen shared caches. Any drift between them means the
/// multi-worker path is still allocating; steady state is exactly 0.
/// Returns (allocations per session, drift).
fn alloc_profile(
    windows: &[Window],
    threads: usize,
    count: &dyn Fn() -> usize,
    sessions: usize,
) -> (f64, i64) {
    let factories: Vec<_> = windows
        .iter()
        .map(|_| shared_router_factory(cold_cache()))
        .collect();
    let mut engines: Vec<SessionEngine> = windows
        .iter()
        .map(|w| SessionEngine::new(w.topo, &w.config))
        .collect();
    let mut rerun = || {
        let before = count();
        for ((engine, factory), w) in engines.iter_mut().zip(&factories).zip(windows) {
            let _ = engine.run_parallel(ParallelProtocol::PerWorker(factory), &w.workload, threads);
        }
        count() - before
    };
    rerun();
    let mut prev = rerun();
    for _ in 0..8 {
        if std::mem::replace(&mut prev, rerun()) == prev {
            break;
        }
    }
    let last = rerun();
    (
        prev as f64 / sessions.max(1) as f64,
        last as i64 - prev as i64,
    )
}

/// Measures the service over `windows`, one [`ServicePoint`] per entry of
/// `threads_axis`. The sequential and 1-worker engine legs run in every
/// trial whatever the axis; the certificates (report parity, cache
/// statistics, allocation profile) come from separate untimed cold runs.
fn measure_service(
    topology: &str,
    nodes: usize,
    windows: &[Window],
    threads_axis: &[usize],
    alloc_counter: Option<&dyn Fn() -> usize>,
) -> Vec<ServicePoint> {
    let seq = sequential(windows);
    let sessions = seq.iter().flatten().filter(|r| r.is_some()).count();

    let mut workers = vec![1];
    workers.extend_from_slice(threads_axis);
    workers.sort_unstable();
    workers.dedup();
    let runs = trials(|| Trial {
        sequential: rate(|| {
            let seq = sequential(windows);
            seq.iter().flatten().filter(|r| r.is_some()).count()
        }),
        parallel: workers
            .iter()
            .map(|&threads| time_leg(|| parallel(windows, threads).0))
            .collect(),
    });

    threads_axis
        .iter()
        .map(|&threads| {
            let i = workers
                .binary_search(&threads)
                .expect("axis entry in worker list");
            let (par, cache) = parallel(windows, threads);
            assert_eq!(
                completed(&par),
                sessions,
                "engine and baseline disagree on session count"
            );
            // Decisions are a pure function of the sessions, so the count
            // is the same at every worker count.
            let decisions_per_session =
                par.iter().map(|r| r.decisions).sum::<usize>() as f64 / sessions.max(1) as f64;
            let (allocs_per_session, steady_alloc_drift) = alloc_counter
                .map(|count| alloc_profile(windows, threads, count, sessions))
                .unzip();
            ServicePoint {
                topology: topology.to_string(),
                nodes,
                sessions,
                groups: windows.iter().map(|w| w.workload.groups.len()).sum(),
                membership_updates: windows.iter().map(|w| w.workload.updates.len()).sum(),
                fault_crashes: windows.iter().map(|w| w.crashes).sum(),
                skipped_empty: par.iter().map(|r| r.skipped_empty).sum(),
                sequential_sessions_per_sec: Spread::over(&runs, |t| t.sequential),
                decisions_per_sec: Spread::over(&runs, |t| {
                    t.parallel[0].per_sec * decisions_per_session
                }),
                threads,
                parallel_sessions_per_sec: Spread::over(&runs, |t| t.parallel[i].per_sec),
                parallel_p50_latency_ms: Spread::over(&runs, |t| t.parallel[i].p50_ms),
                parallel_p99_latency_ms: Spread::over(&runs, |t| t.parallel[i].p99_ms),
                speedup: Spread::over(&runs, |t| t.parallel[0].per_sec / t.sequential),
                parallel_scaling: Spread::over(&runs, |t| {
                    t.parallel[i].per_sec / t.parallel[0].per_sec
                }),
                allocs_per_session,
                steady_alloc_drift,
                cache,
                reports_match: runs_match(&par, &seq),
            }
        })
        .collect()
}

/// Runs the service benchmark on the paper-scale topology (1000 nodes,
/// topology seed 1), producing one [`ServicePoint`] per entry of
/// `threads_axis`.
pub fn paper_scaling_curve(
    sessions: usize,
    seed: u64,
    alloc_counter: Option<&dyn Fn() -> usize>,
    threads_axis: &[usize],
) -> Vec<ServicePoint> {
    let topo = Topology::random(&SimConfig::paper().topology_config(), 1);
    let candidates: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
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
    let window = Window::new(&topo, &candidates, &params, seed);
    measure_service(
        "paper-1000",
        topo.len(),
        &[window],
        threads_axis,
        alloc_counter,
    )
}

/// Runs the service benchmark over the sharded lazy substrate: sessions
/// spread across paper-sized task windows of a `total_nodes` deployment
/// at paper density. Windows are processed one after another, each
/// window's engine sharded across `threads` workers over one shared
/// per-window cache — so the parallel budget does not cap at the window
/// count, and misses inside a window are paid once, not once per worker.
pub fn sharded_service_point(
    total_nodes: usize,
    windows: usize,
    sessions_total: usize,
    seed: u64,
    alloc_counter: Option<&dyn Fn() -> usize>,
    threads: usize,
) -> ServicePoint {
    let shard_config = ShardConfig::paper_density(total_nodes, RADIO_RANGE);
    let area_side = shard_config.area.width();
    let sharded = ShardedTopology::new(shard_config, 7);

    let sessions_per_window = (sessions_total / windows).max(1);
    let regions: Vec<RegionSim> = (0..windows)
        .map(|w| RegionSim::new(&sharded, window_at(area_side, w), MARGIN))
        .collect();
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
    let windows: Vec<Window> = regions
        .iter()
        .enumerate()
        .map(|(w, region)| {
            let seed = seed ^ (w as u64 + 1);
            Window::new(region.topology(), region.window_nodes(), &params, seed)
        })
        .collect();
    let label = format!("sharded-{}k", total_nodes / 1000);
    measure_service(&label, total_nodes, &windows, &[threads], alloc_counter)
        .pop()
        .expect("one point per axis entry")
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
        // The sequential and 1-worker legs are shared across the curve,
        // and the 1-worker point is its own scaling reference.
        assert_eq!(
            points[0].sequential_sessions_per_sec,
            points[1].sequential_sessions_per_sec
        );
        assert_eq!(points[0].speedup, points[1].speedup);
        assert_eq!(points[0].parallel_scaling.median, 1.0);
        for p in &points {
            for s in [
                p.sequential_sessions_per_sec,
                p.parallel_scaling,
                p.parallel_p99_latency_ms,
            ] {
                assert_eq!(s.trials, crate::record::TRIALS);
                assert!(s.min <= s.median && s.median <= s.max, "{s:?}");
            }
        }
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
