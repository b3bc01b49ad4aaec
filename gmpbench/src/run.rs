//! One benchmark run: set-up, measured passes, output checks, metrics.
//!
//! A pass executes the workload's whole seed-generated list once: every
//! task on the task workloads (through one fresh `GmpRouter`), or every
//! session on `service-2w` (through the warm engines and caches, one
//! `run_parallel` call per chunk of sessions). Passes repeat until
//! `--seconds` have elapsed, and every pass must produce the same report
//! digest, so the simulated metrics are exact for a seed.
//!
//! Every pass repeats identical work, so each timed unit (a task, or a
//! chunk of sessions) is timed once per pass, and throughput and latency
//! quantiles come from one quantile of each unit's times over the passes
//! (see [`timing_quantile`]).
//!
//! A traced run alternates plain passes, which count allocations, with
//! traced passes, which record spans; the difference between the two
//! kinds' throughput is the tracing overhead.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gmp_core::{CacheStats, ConcurrentTreeCache, DecisionScratch, GmpRouter};
use gmp_geom::Point;
use gmp_net::Topology;
use gmp_service::{ParallelProtocol, ServiceWorkload, SessionEngine, SessionOutcome};
use gmp_sim::{
    MulticastTask, NodeContext, Protocol, RoutingState, Session, SimConfig, SimScratch, TaskReport,
    TaskRunner,
};
use gmp_steiner::rrstr::{rrstr_into, RadioRange, RrstrScratch};
use gmp_steiner::tree::SteinerTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::metrics::{median, quantile, Outcome};
use crate::report::{check, ratio, Digest, SimTotals};
use crate::trace::{
    self, alloc_counting, alloc_counts, DecisionSample, Layer, LayerAgg, Recorder, Sink, Traced,
    WorkerProbe,
};
use crate::workloads::{
    crash_plan, derive, fresh_tasks, paper_topology, service_workload, Sizes, Stream, Workload,
    CRASH_FRACTION, SERVICE_CRASH_FRACTION, WORKERS,
};

/// Span records kept per recorder for the span file (first traced pass).
const SPAN_KEEP: usize = 30_000;
/// Every n-th decision of the first traced pass is captured for the
/// replay split.
const SAMPLE_EVERY: u64 = 8;
/// Decision samples kept per recorder.
const SAMPLE_CAP: usize = 4096;
/// Passes a traced run makes at least: two plain, two traced.
const MIN_TRACED_PASSES: usize = 4;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time; whole passes run until it has elapsed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where a traced run writes its span file.
    pub spans: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--spans PATH]`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.parse::<Workload>()?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!(
                            "--seconds must be a non-negative number, got {value}"
                        ));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
            spans,
        })
    }

    /// The span file path: `--spans`, or one under `gmpbench/out/`.
    pub fn spans_path(&self) -> PathBuf {
        self.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "gmpbench/out/spans-{}-seed{}.json",
                self.workload.name(),
                self.seed
            ))
        })
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Report {
    /// The result line's content.
    pub outcome: Outcome,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Digest over every task and report of one pass.
    pub digest: u64,
    /// The paper's quantities over one pass.
    pub sim: SimTotals,
    /// Decision-cache counters over one pass (median pass).
    pub cache: CacheStats,
    /// The span file's content (traced runs).
    pub span_file: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No instrumentation at all.
    Plain,
    /// No spans; the counting allocator is on.
    Counted,
    /// Spans on; the first traced pass also keeps span records and
    /// decision samples.
    Traced { first: bool },
}

impl Mode {
    /// A recorder for one traced thread; `lead` marks the first unit of
    /// work in the pass (the first chunk on `service-2w`).
    fn recorder(self, lead: bool) -> Recorder {
        match self {
            Mode::Traced { first: true } if lead => {
                Recorder::new(SPAN_KEEP, SAMPLE_EVERY, SAMPLE_CAP)
            }
            _ => Recorder::new(0, SAMPLE_EVERY, 0),
        }
    }
}

/// Session-engine timings of one traced pass, summed over its chunks.
#[derive(Debug, Clone, Copy, Default)]
struct EngineTimes {
    /// `run_parallel` call to the first worker's start.
    spawn_s: f64,
    /// Last worker's end to `run_parallel` return.
    merge_s: f64,
    /// The slowest worker's lifetime.
    span_max_s: f64,
    /// The mean worker lifetime.
    span_mean_s: f64,
    /// All workers' lifetimes.
    busy_s: f64,
    /// `run_parallel` wall time.
    wall_s: f64,
    /// Mean worker lifetime outside `on_packet`.
    nondecision_s: f64,
}

impl EngineTimes {
    /// Adds one `run_parallel` call's worker recorders.
    fn add(&mut self, recs: &[Recorder], call_ns: u64, ret_ns: u64) {
        let spans: Vec<(u64, u64)> = recs.iter().filter_map(|r| r.worker).collect();
        if spans.is_empty() {
            return;
        }
        let n = spans.len() as f64;
        let first_start = spans.iter().map(|s| s.0).min().unwrap_or(call_ns);
        let last_end = spans.iter().map(|s| s.1).max().unwrap_or(ret_ns);
        let secs: Vec<f64> = spans.iter().map(|s| (s.1 - s.0) as f64 / 1e9).collect();
        let sum: f64 = secs.iter().sum();
        let outside: u64 = recs
            .iter()
            .filter_map(|r| {
                let (s, e) = r.worker?;
                Some((e - s).saturating_sub(r.layer(Layer::OnPacket).total_ns))
            })
            .sum();
        self.spawn_s += first_start.saturating_sub(call_ns) as f64 / 1e9;
        self.merge_s += ret_ns.saturating_sub(last_end) as f64 / 1e9;
        self.span_max_s += secs.iter().copied().fold(0.0, f64::max);
        self.span_mean_s += sum / n;
        self.busy_s += sum;
        self.wall_s += (ret_ns - call_ns) as f64 / 1e9;
        self.nondecision_s += outside as f64 / 1e9 / n;
    }
}

/// What one pass measured.
#[derive(Debug)]
struct Pass {
    mode: Mode,
    /// Host time of each timed unit: a task, or a chunk of sessions.
    unit_us: Vec<f64>,
    /// Host time of each task, or admission-to-completion time of each
    /// session.
    latency_us: Vec<f64>,
    digest: Digest,
    sim: SimTotals,
    cache: CacheStats,
    failed: u64,
    errors: Vec<String>,
    allocs: (u64, u64),
    recs: Vec<Recorder>,
    engine: Option<EngineTimes>,
    scratch_reuses: u64,
}

impl Pass {
    fn new(mode: Mode, capacity: usize) -> Pass {
        Pass {
            mode,
            unit_us: Vec::with_capacity(capacity),
            latency_us: Vec::with_capacity(capacity),
            digest: Digest::default(),
            sim: SimTotals::default(),
            cache: CacheStats::default(),
            failed: 0,
            errors: Vec::new(),
            allocs: (0, 0),
            recs: Vec::new(),
            engine: None,
            scratch_reuses: 0,
        }
    }

    fn account(&mut self, task: &MulticastTask, report: &TaskReport, require_delivery: bool) {
        if let Err(e) = check(task, report, require_delivery) {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.digest.add(task, report);
        self.sim.add(task, report);
    }

    fn units(&self) -> u64 {
        self.latency_us.len() as u64
    }

    fn traced(&self) -> bool {
        matches!(self.mode, Mode::Traced { .. })
    }
}

/// Runs passes until `seconds` have elapsed (whole passes, at least one;
/// four for a traced run, alternating plain-counted and traced).
fn measure(seconds: f64, trace: bool, mut pass: impl FnMut(Mode) -> Pass) -> Vec<Pass> {
    let min = if trace { MIN_TRACED_PASSES } else { 1 };
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let mode = match (trace, passes.len()) {
            (false, _) => Mode::Plain,
            (true, i) if i % 2 == 0 => Mode::Counted,
            (true, i) => Mode::Traced { first: i == 1 },
        };
        let counted = mode == Mode::Counted;
        let before = alloc_counts();
        alloc_counting(counted);
        let mut p = pass(mode);
        alloc_counting(false);
        if counted {
            let after = alloc_counts();
            p.allocs = (after.0 - before.0, after.1 - before.1);
        }
        passes.push(p);
    }
    passes
}

/// Runs the workload named in `args`, at `sizes`.
pub fn run(args: &Args, sizes: &Sizes) -> Report {
    assert!(sizes.setup_repeats >= 1, "set-up must run at least once");
    match args.workload {
        Workload::Fresh | Workload::Crash10 => run_tasks(args, sizes),
        Workload::Service2w => run_service(args, sizes),
    }
}

/// The task workloads' inputs.
struct TaskBench {
    topo: Topology,
    config: SimConfig,
    warmup: Vec<MulticastTask>,
    tasks: Vec<MulticastTask>,
    require_delivery: bool,
}

impl TaskBench {
    /// Builds the inputs; returns them with the topology build time.
    fn new(workload: Workload, seed: u64, sizes: &Sizes) -> (TaskBench, f64) {
        let base = SimConfig::paper();
        let t0 = Instant::now();
        let topo = paper_topology(&base, seed);
        let topo_s = t0.elapsed().as_secs_f64();
        let crashes = workload == Workload::Crash10;
        let config = if crashes {
            let plan = crash_plan(&topo, CRASH_FRACTION, seed);
            base.with_faults(plan)
        } else {
            base
        };
        let mut tasks = fresh_tasks(&topo, sizes.warmup_tasks + sizes.tasks, seed);
        let warmup = tasks.drain(..sizes.warmup_tasks).collect();
        let bench = TaskBench {
            topo,
            config,
            warmup,
            tasks,
            require_delivery: !crashes,
        };
        (bench, topo_s)
    }

    fn warm_up(&self, scratch: &mut SimScratch) {
        let runner = TaskRunner::new(&self.topo, &self.config);
        let mut router = GmpRouter::new();
        for task in &self.warmup {
            black_box(runner.run_with_scratch(&mut router, task, 0, scratch));
        }
    }

    fn pass(&self, mode: Mode, scratch: &mut SimScratch) -> Pass {
        let runner = TaskRunner::new(&self.topo, &self.config);
        let mut pass = Pass::new(mode, self.tasks.len());
        if let Mode::Traced { .. } = mode {
            let mut router = Traced::new(GmpRouter::new());
            trace::install(mode.recorder(true));
            for (i, task) in self.tasks.iter().enumerate() {
                trace::set_task(i as u32);
                trace::enter(Layer::Task);
                trace::enter(Layer::SimBegin);
                let mut session =
                    Session::begin(runner, &mut router, task, 0, std::mem::take(scratch));
                trace::exit();
                loop {
                    trace::enter(Layer::SimStep);
                    let done = session.step(&mut router);
                    trace::exit();
                    if done {
                        break;
                    }
                }
                trace::enter(Layer::SimFinish);
                let (report, owned) = session.finish();
                trace::exit();
                *scratch = owned;
                let us = trace::exit() as f64 / 1e3;
                pass.unit_us.push(us);
                pass.latency_us.push(us);
                pass.account(task, &report, self.require_delivery);
            }
            pass.cache = router.inner().cache_stats();
            pass.recs
                .push(trace::take().expect("recorder installed above"));
        } else {
            let mut router = GmpRouter::new();
            for task in &self.tasks {
                let t = Instant::now();
                let report = runner.run_with_scratch(&mut router, task, 0, scratch);
                let us = t.elapsed().as_secs_f64() * 1e6;
                pass.unit_us.push(us);
                pass.latency_us.push(us);
                pass.account(task, &report, self.require_delivery);
            }
            pass.cache = router.cache_stats();
        }
        pass
    }
}

fn run_tasks(args: &Args, sizes: &Sizes) -> Report {
    let mut setup_s = Vec::new();
    let mut topo_s = Vec::new();
    let mut built = None;
    for _ in 0..sizes.setup_repeats {
        let t0 = Instant::now();
        let (bench, topo) = TaskBench::new(args.workload, args.seed, sizes);
        let mut scratch = SimScratch::new();
        bench.warm_up(&mut scratch);
        setup_s.push(t0.elapsed().as_secs_f64());
        topo_s.push(topo);
        built = Some((bench, scratch));
    }
    let (bench, mut scratch) = built.expect("set-up ran at least once");
    let passes = measure(args.seconds, args.trace, |mode| {
        bench.pass(mode, &mut scratch)
    });
    let mut replay_router = GmpRouter::new();
    let replay = replay_split(&bench.topo, &bench.config, &passes, &mut replay_router);
    summarize(args, &passes, &setup_s, &topo_s, replay, Vec::new())
}

/// `service-2w`'s inputs.
struct ServiceBench {
    topo: Topology,
    config: SimConfig,
    /// Independent services on the one topology, each with its own warm
    /// decision cache shared by its workers.
    services: Vec<Service>,
}

/// One BENCH_5-shaped service: its workload cut into consecutive chunks
/// of sessions that share its groups and membership stream, each chunk
/// one `run_parallel` call. A session's report depends only on its task
/// and seed, so the cut changes no report.
struct Service {
    chunks: Vec<ServiceWorkload>,
    cache: Arc<ConcurrentTreeCache>,
}

impl ServiceBench {
    fn new(seed: u64, sizes: &Sizes) -> (ServiceBench, f64) {
        let base = SimConfig::paper();
        let t0 = Instant::now();
        let topo = paper_topology(&base, seed);
        let topo_s = t0.elapsed().as_secs_f64();
        let plan = crash_plan(&topo, SERVICE_CRASH_FRACTION, seed);
        let services = (0..sizes.service_workloads)
            .map(|index| {
                let workload = service_workload(&topo, &plan, sizes.sessions, seed, index);
                let chunks = workload
                    .sessions
                    .chunks(sizes.chunk_sessions.max(1))
                    .map(|sessions| ServiceWorkload {
                        groups: workload.groups.clone(),
                        updates: workload.updates.clone(),
                        sessions: sessions.to_vec(),
                    })
                    .collect();
                Service {
                    chunks,
                    cache: Arc::new(ConcurrentTreeCache::new()),
                }
            })
            .collect();
        let config = base.with_faults(plan);
        let bench = ServiceBench {
            topo,
            config,
            services,
        };
        (bench, topo_s)
    }

    fn sessions(&self) -> usize {
        let chunks = self.services.iter().flat_map(|s| &s.chunks);
        chunks.map(|c| c.sessions.len()).sum()
    }

    /// Hits, misses and fallbacks summed over the services' caches.
    fn cache_counts(&self) -> [u64; 3] {
        self.services.iter().fold([0; 3], |acc, s| {
            let c = s.cache.stats();
            [acc[0] + c.hits, acc[1] + c.misses, acc[2] + c.fallbacks]
        })
    }

    /// One pass, with `engines[k]` serving `services[k]`; the outcomes
    /// are appended to `keep_outcomes` if given.
    fn pass(
        &self,
        mode: Mode,
        engines: &mut [SessionEngine<'_>],
        mut keep_outcomes: Option<&mut Vec<SessionOutcome>>,
    ) -> Pass {
        let mut pass = Pass::new(mode, self.sessions());
        let before = self.cache_counts();
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let mut times = EngineTimes::default();
        for (k, (service, engine)) in self.services.iter().zip(engines.iter_mut()).enumerate() {
            for (i, chunk) in service.chunks.iter().enumerate() {
                let plain = {
                    let cache = Arc::clone(&service.cache);
                    move || {
                        Box::new(GmpRouter::with_shared_cache(Arc::clone(&cache)))
                            as Box<dyn Protocol>
                    }
                };
                let traced = {
                    let cache = Arc::clone(&service.cache);
                    let sink = Arc::clone(&sink);
                    let rec = move || mode.recorder(k == 0 && i == 0);
                    move || {
                        let router = GmpRouter::with_shared_cache(Arc::clone(&cache));
                        Box::new(WorkerProbe::new(router, Arc::clone(&sink), rec()))
                            as Box<dyn Protocol>
                    }
                };
                let factory: &(dyn Fn() -> Box<dyn Protocol> + Sync) =
                    if pass.traced() { &traced } else { &plain };
                let call_ns = trace::now_ns();
                let run = engine.run_parallel(ParallelProtocol::PerWorker(factory), chunk, WORKERS);
                let ret_ns = trace::now_ns();
                pass.unit_us.push((ret_ns - call_ns) as f64 / 1e3);
                pass.scratch_reuses += run.scratch_reuses as u64;
                for o in &run.outcomes {
                    pass.latency_us.push(o.latency_s * 1e6);
                    pass.digest.add_ids(o.id, o.seed);
                    pass.account(&o.task, &o.report, false);
                }
                if pass.traced() {
                    let recs = std::mem::take(&mut *sink.lock().expect("a worker panicked"));
                    times.add(&recs, call_ns, ret_ns);
                    pass.recs.extend(recs);
                }
                if let Some(out) = keep_outcomes.as_mut() {
                    out.extend(run.outcomes);
                }
            }
        }
        let after = self.cache_counts();
        pass.cache = CacheStats {
            hits: after[0] - before[0],
            misses: after[1] - before[1],
            fallbacks: after[2] - before[2],
            ..CacheStats::default()
        };
        pass.engine = pass.traced().then_some(times);
        pass
    }
}

fn run_service(args: &Args, sizes: &Sizes) -> Report {
    let mut setup_s = Vec::new();
    let mut topo_s = Vec::new();
    for rep in 0..sizes.setup_repeats {
        let t0 = Instant::now();
        let (bench, topo) = ServiceBench::new(args.seed, sizes);
        let mut engines: Vec<SessionEngine<'_>> = bench
            .services
            .iter()
            .map(|_| SessionEngine::new(&bench.topo, &bench.config))
            .collect();
        black_box(bench.pass(Mode::Plain, &mut engines, None));
        setup_s.push(t0.elapsed().as_secs_f64());
        topo_s.push(topo);
        if rep + 1 < sizes.setup_repeats {
            continue;
        }

        let mut first: Vec<SessionOutcome> = Vec::new();
        let passes = measure(args.seconds, args.trace, |mode| {
            let keep = first.is_empty().then_some(&mut first);
            bench.pass(mode, &mut engines, keep)
        });
        let cache = &bench.services[0].cache;
        let mut replay_router = GmpRouter::with_shared_cache(Arc::clone(cache));
        let replay = replay_split(&bench.topo, &bench.config, &passes, &mut replay_router);
        let mismatches = solo_mismatches(&bench, &first, sizes.solo_replays, args.seed);
        return summarize(args, &passes, &setup_s, &topo_s, replay, mismatches);
    }
    unreachable!("setup_repeats >= 1")
}

/// The `reports_match` certificate: a seeded sample of sessions replayed
/// solo through `TaskRunner::run_seeded` must reproduce the engine's
/// reports bit for bit. Returns one message per mismatch.
fn solo_mismatches(
    bench: &ServiceBench,
    outcomes: &[SessionOutcome],
    count: usize,
    seed: u64,
) -> Vec<String> {
    let runner = TaskRunner::new(&bench.topo, &bench.config);
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::SoloSample));
    let mut picks: Vec<&SessionOutcome> = outcomes.iter().collect();
    picks.shuffle(&mut rng);
    picks
        .into_iter()
        .take(count)
        .filter(|o| runner.run_seeded(&mut GmpRouter::new(), &o.task, o.seed) != o.report)
        .map(|o| format!("session {} differs from its solo run", o.id))
        .collect()
}

/// Decision time split on replayed inputs (labelled replay): rrSTR alone,
/// the uncached grouping plus next-hop selection, and the router's full
/// `on_packet`, each timed per decision.
#[derive(Debug, Default)]
struct ReplaySplit {
    samples: usize,
    rrstr_ns: Vec<f64>,
    grouping_ns: Vec<f64>,
    on_packet_ns: Vec<f64>,
}

fn replay_split(
    topo: &Topology,
    config: &SimConfig,
    passes: &[Pass],
    router: &mut GmpRouter,
) -> ReplaySplit {
    let samples: Vec<&DecisionSample> = passes
        .iter()
        .flat_map(|p| &p.recs)
        .flat_map(|r| &r.samples)
        .take(SAMPLE_CAP)
        .collect();
    let mut split = ReplaySplit {
        samples: samples.len(),
        ..ReplaySplit::default()
    };
    let rr = topo.radio_range();
    let mut decision = DecisionScratch::new();
    for s in &samples {
        let entry = match &s.packet.state {
            RoutingState::Perimeter(p) => Some(p.entry),
            _ => None,
        };
        let t = Instant::now();
        black_box(decision.group_destinations_into(
            topo,
            s.node,
            &s.packet.dests,
            true,
            entry,
            s.alive.as_deref(),
        ));
        split.grouping_ns.push(t.elapsed().as_nanos() as f64);
    }
    let mut tree = SteinerTree::new(Point::ORIGIN);
    let mut scratch = RrstrScratch::new();
    let mut points: Vec<Point> = Vec::new();
    for s in &samples {
        points.clear();
        points.extend(s.packet.dests.iter().map(|&d| topo.pos(d)));
        let t = Instant::now();
        rrstr_into(
            topo.pos(s.node),
            &points,
            RadioRange::Aware(rr),
            &mut tree,
            &mut scratch,
        );
        black_box(&tree);
        split.rrstr_ns.push(t.elapsed().as_nanos() as f64);
    }
    let mut out = Vec::new();
    for s in &samples {
        let ctx = NodeContext {
            topo,
            node: s.node,
            config,
            alive: s.alive.as_deref(),
        };
        let packet = s.packet.clone();
        let t = Instant::now();
        router.on_packet(&ctx, packet, &mut out);
        split.on_packet_ns.push(t.elapsed().as_nanos() as f64);
        out.clear();
    }
    split
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line
                .trim_start_matches("VmHWM:")
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

fn summarize(
    args: &Args,
    passes: &[Pass],
    setup_s: &[f64],
    topo_s: &[f64],
    replay: ReplaySplit,
    mismatches: Vec<String>,
) -> Report {
    let name = args.workload.name();
    let first = &passes[0];
    let mut lines = Vec::new();
    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let attempted: u64 = passes.iter().map(Pass::units).sum();
    let digest_ok = passes
        .iter()
        .all(|p| p.digest == first.digest && p.sim == first.sim);
    if !digest_ok {
        errors.push("passes over the same task list produced different reports".into());
    }
    errors.extend(mismatches.iter().cloned());
    let correct = errors.is_empty() && failed == 0 && attempted > 0;

    lines.push(format!(
        "gmpbench workload={name} seed={} mode={} passes={} units/pass={} threads={}",
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        passes.len(),
        first.units(),
        if args.workload == Workload::Service2w {
            WORKERS
        } else {
            1
        },
    ));
    lines.push(format!(
        "digest=0x{:016x} (identical across passes: {digest_ok})",
        first.digest.value()
    ));
    if args.workload == Workload::Service2w {
        lines.push(format!(
            "reports_match={} (solo replays of sampled sessions)",
            mismatches.is_empty()
        ));
    }
    for e in &errors {
        lines.push(format!("check failed: {e}"));
    }
    let sim = first.sim;
    lines.push(format!(
        "failed_dest_ratio={} unjustified_dest_ratio={} (destinations attempted per pass: {})",
        sim.failed_ratio(),
        sim.unjustified_ratio(),
        sim.attempted
    ));

    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced()).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced()).collect();
    let mut cache_passes: Vec<CacheStats> = plain.iter().map(|p| p.cache).collect();
    cache_passes.sort_by_key(|c| c.hits);
    let cache = cache_passes[cache_passes.len() / 2];

    let metrics = if args.trace {
        per_layer(args, &plain, &traced, topo_s, &replay, &mut lines)
    } else {
        let q = timing_quantile(args.workload);
        let mut latency = per_unit(&plain, |p| &p.latency_us, q);
        let rate = unit_rate(&plain, q);
        lines.push(format!(
            "timing: each unit's {} over {} passes; best-of {:.1}/s, per-unit median {:.1}/s; latency samples={} (p99 has {} beyond it)",
            if q == 0.0 { "best" } else { "median" },
            plain.len(),
            unit_rate(&plain, 0.0),
            unit_rate(&plain, 0.5),
            latency.len(),
            latency.len() / 100
        ));
        vec![
            ("tasks_per_s", rate),
            ("task_p50_us", quantile(&mut latency, 0.50)),
            ("task_p99_us", quantile(&mut latency, 0.99)),
            ("setup_s", median(&mut setup_s.to_vec())),
            ("peak_rss_mib", peak_rss_mib()),
            ("delivered_dest_ratio", ratio(sim.delivered, sim.attempted)),
            ("unblamed_dest_ratio", 1.0 - sim.unjustified_ratio()),
            ("transmissions_per_task", sim.transmissions_per_task()),
            ("energy_mj_per_task", sim.energy_mj_per_task()),
            ("mean_dest_hops", sim.mean_dest_hops()),
        ]
    };
    let span_file = args
        .trace
        .then(|| span_file(args, &traced, &layer_table(&traced)));
    Report {
        outcome: Outcome {
            correct,
            attempted,
            failed,
            metrics,
        },
        lines,
        digest: first.digest.value(),
        sim,
        cache,
        span_file,
    }
}

/// Which per-unit quantile over the passes times a workload. The
/// single-thread task loops take each task's best pass: host interference
/// only adds time, and the best of many repetitions of identical work
/// repeats across runs far better than any per-pass statistic. The
/// 2-worker engine takes each chunk's median pass: its best passes are
/// rare moments when neither worker is disturbed, which come and go
/// between runs, while its median pass repeats.
fn timing_quantile(workload: Workload) -> f64 {
    match workload {
        Workload::Fresh | Workload::Crash10 => 0.0,
        Workload::Service2w => 0.5,
    }
}

/// Elementwise `q`-quantile over the passes of `field` (`q = 0`: each
/// unit's best time).
fn per_unit(passes: &[&Pass], field: impl Fn(&Pass) -> &[f64], q: f64) -> Vec<f64> {
    let n = passes.first().map_or(0, |p| field(p).len());
    let mut times = Vec::with_capacity(passes.len());
    (0..n)
        .map(|i| {
            times.clear();
            times.extend(passes.iter().map(|p| field(p)[i]));
            quantile(&mut times, q)
        })
        .collect()
}

/// Tasks (or sessions) per second of one pass, with each timed unit at
/// its `q`-quantile over `passes`.
fn unit_rate(passes: &[&Pass], q: f64) -> f64 {
    let secs: f64 = per_unit(passes, |p| &p.unit_us, q).iter().sum::<f64>() / 1e6;
    passes.first().map_or(0.0, |p| p.units() as f64 / secs)
}

/// Per-layer aggregates summed over the traced passes.
fn layer_table(traced: &[&Pass]) -> Vec<(Layer, LayerAgg)> {
    Layer::ALL
        .iter()
        .map(|&layer| {
            let mut sum = LayerAgg::default();
            for r in traced.iter().flat_map(|p| &p.recs) {
                let a = r.layer(layer);
                sum.count += a.count;
                sum.total_ns += a.total_ns;
                sum.self_ns += a.self_ns;
            }
            (layer, sum)
        })
        .collect()
}

fn per_layer(
    args: &Args,
    plain: &[&Pass],
    traced: &[&Pass],
    topo_s: &[f64],
    replay: &ReplaySplit,
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let table = layer_table(traced);
    let agg = |l: Layer| {
        table
            .iter()
            .find(|(x, _)| *x == l)
            .map_or(LayerAgg::default(), |t| t.1)
    };
    let service = args.workload == Workload::Service2w;
    let busy_ns = agg(if service { Layer::Worker } else { Layer::Task }).total_ns;
    let decisions = agg(Layer::OnPacket);
    let traced_units: u64 = traced.iter().map(|p| p.units()).sum();
    let recs = || traced.iter().flat_map(|p| &p.recs);
    let forwards: u64 = recs().map(|r| r.forwards).sum();
    let perimeter: u64 = recs().map(|r| r.perimeter_forwards).sum();
    let mut decision_ns: Vec<f64> = recs()
        .flat_map(|r| r.decision_ns.iter().map(|&n| n as f64))
        .collect();

    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        let mut v: Vec<f64> = traced.iter().map(|p| f(p)).collect();
        median(&mut v)
    };
    let pass_self_s =
        |p: &Pass, l: Layer| p.recs.iter().map(|r| r.layer(l).self_ns).sum::<u64>() as f64 / 1e9;
    let engine =
        |f: fn(&EngineTimes) -> f64| per_pass(&|p: &Pass| p.engine.as_ref().map_or(0.0, f));
    let (allocs, bytes, counted_units) = plain.iter().fold((0, 0, 0), |acc, p| {
        (acc.0 + p.allocs.0, acc.1 + p.allocs.1, acc.2 + p.units())
    });
    let hits: u64 = plain.iter().map(|p| p.cache.hits).sum();
    let lookups: u64 = plain.iter().map(|p| p.cache.lookups()).sum();
    let pass_cache = |f: fn(&CacheStats) -> u64| {
        let mut v: Vec<f64> = plain.iter().map(|p| f(&p.cache) as f64).collect();
        median(&mut v)
    };
    let q = timing_quantile(args.workload);
    let (plain_rate, traced_rate) = (unit_rate(plain, q), unit_rate(traced, q));
    let overhead = 1.0 - traced_rate / plain_rate;
    let (mut rrstr, mut grouping) = (replay.rrstr_ns.clone(), replay.grouping_ns.clone());
    let rrstr_sum: f64 = replay.rrstr_ns.iter().sum();
    let grouping_sum: f64 = replay.grouping_ns.iter().sum();

    lines.push(format!(
        "tracing overhead: untraced {plain_rate:.1}/s, traced {traced_rate:.1}/s, share {overhead:.4}"
    ));
    lines.push(format!(
        "replay split over {} sampled decisions (replay, not live): rrSTR {:.0} ns, grouping+next-hop {:.0} ns, on_packet {:.0} ns mean",
        replay.samples,
        mean(&replay.rrstr_ns),
        mean(&replay.grouping_ns) - mean(&replay.rrstr_ns),
        mean(&replay.on_packet_ns)
    ));
    lines.push("layer self-time table (traced passes):".into());
    for (layer, a) in &table {
        lines.push(format!(
            "  {:<16} count={:<9} total_s={:<10.4} self_s={:<10.4} self_share={:.4}",
            layer.name(),
            a.count,
            a.total_ns as f64 / 1e9,
            a.self_ns as f64 / 1e9,
            ratio(a.self_ns, busy_ns)
        ));
    }

    vec![
        ("net.topology_build_s", median(&mut topo_s.to_vec())),
        ("steiner.rrstr_ns_p50", quantile(&mut rrstr, 0.5)),
        ("steiner.rrstr_share", ratio_f(rrstr_sum, grouping_sum)),
        ("core.decision_share", ratio(decisions.total_ns, busy_ns)),
        ("core.decision_ns_p50", quantile(&mut decision_ns, 0.50)),
        ("core.decision_ns_p99", quantile(&mut decision_ns, 0.99)),
        (
            "core.decisions_per_task",
            ratio(decisions.count, traced_units),
        ),
        (
            "core.forwards_per_decision",
            ratio(forwards, decisions.count),
        ),
        (
            "core.grouping_uncached_ns_p50",
            quantile(&mut grouping, 0.5),
        ),
        (
            "core.cache_overhead_ns",
            mean(&replay.on_packet_ns) - mean(&replay.grouping_ns),
        ),
        ("core.cache.hit_rate", ratio(hits, lookups)),
        ("core.cache.hits", pass_cache(|c| c.hits)),
        ("core.cache.misses", pass_cache(|c| c.misses)),
        ("core.cache.fallbacks", pass_cache(|c| c.fallbacks)),
        ("core.perimeter_forward_share", ratio(perimeter, forwards)),
        // The sim.* and service.* layers record nothing on workloads
        // they take no part in, so those metrics read 0 there.
        (
            "sim.begin_self_s",
            per_pass(&|p| pass_self_s(p, Layer::SimBegin)),
        ),
        (
            "sim.step_self_s",
            per_pass(&|p| pass_self_s(p, Layer::SimStep)),
        ),
        (
            "sim.steps_per_task",
            ratio(agg(Layer::SimStep).count, traced_units),
        ),
        (
            "sim.finish_s",
            per_pass(&|p| pass_self_s(p, Layer::SimFinish)),
        ),
        ("sim.allocs_per_task", ratio(allocs, counted_units)),
        ("sim.alloc_bytes_per_task", ratio(bytes, counted_units)),
        ("service.spawn_s", engine(|e| e.spawn_s)),
        ("service.merge_s", engine(|e| e.merge_s)),
        ("service.worker_span_s_max", engine(|e| e.span_max_s)),
        (
            "service.worker_imbalance",
            engine(|e| ratio_f(e.span_max_s, e.span_mean_s)),
        ),
        (
            "service.parallel_efficiency",
            engine(|e| ratio_f(e.busy_s, WORKERS as f64 * e.wall_s)),
        ),
        ("service.worker_nondecision_s", engine(|e| e.nondecision_s)),
        (
            "service.scratch_reuses",
            per_pass(&|p| p.scratch_reuses as f64),
        ),
        ("trace.overhead_share", overhead),
    ]
}

/// The span file: the self-time table, the tracing overhead, and the
/// kept span records of the first traced pass. Span ids are global
/// across recorders; `parent` is an id or `null`.
fn span_file(args: &Args, traced: &[&Pass], table: &[(Layer, LayerAgg)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {}, \"layers\": [",
        args.workload.name(),
        args.seed
    );
    for (i, (layer, a)) in table.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
            if i > 0 { ", " } else { "" },
            layer.name(),
            a.count,
            a.total_ns as f64 / 1e9,
            a.self_ns as f64 / 1e9
        );
    }
    s.push_str("], \"spans\": [\n");
    let mut base = 0u64;
    let mut sep = "";
    for rec in traced.iter().take(1).flat_map(|p| &p.recs) {
        for (i, sp) in rec.spans.iter().enumerate() {
            let parent = if sp.parent == trace::NO_PARENT {
                "null".to_string()
            } else {
                (base + sp.parent as u64).to_string()
            };
            let task = if sp.task == trace::NO_TASK {
                "null".to_string()
            } else {
                sp.task.to_string()
            };
            let _ = write!(
                s,
                "{sep}{{\"id\": {}, \"name\": \"{}\", \"task\": {task}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                base + i as u64,
                sp.layer.name(),
                sp.start_ns,
                sp.end_ns
            );
            sep = ",\n";
        }
        base += rec.spans.len() as u64;
    }
    s.push_str("\n]}\n");
    s
}
