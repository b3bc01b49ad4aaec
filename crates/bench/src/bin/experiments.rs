//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! experiments <COMMAND> [--quick|--standard|--paper] [--out DIR]
//! ```
//!
//! Paper figures:
//!
//! * `fig11` — total number of hops vs destination count;
//! * `fig12` — per-destination hop count vs destination count;
//! * `fig14` — total energy cost vs destination count;
//! * `fig15` — failed tasks vs network density;
//!
//! extensions and ablations:
//!
//! * `figlatency` — mean task completion time vs destination count;
//! * `overhead` — header bytes vs the fixed 128 B abstraction;
//! * `treelen` — rrSTR vs MST one-shot tree length;
//! * `planar` — GMP on Gabriel vs RNG planarization;
//! * `pbm` — PBM bounded-search sensitivity;
//! * `mobility` — stale positions under random-waypoint movement;
//! * `power` — distance-scaled transmit power;
//! * `range` — radio-range sweep;
//! * `loss` — Figure 15 over a uniformly lossy channel;
//! * `fig15mac` — Figure 15 with collisions, jitter, and ARQ;
//! * `mactax` — per-protocol MAC retransmission overhead;
//! * `campaign` — fault-injection robustness sweep, oracle-judged
//!   (`BENCH_3.json`);
//! * `guarantees` — the same campaign with the guaranteed-delivery
//!   protocols (MCFR/GVG) on the panel and path stretch/transmission
//!   columns: the guarantees-vs-overhead frontier (`BENCH_6.json`);
//!
//! or `all` for everything. Results are printed as tables and written as
//! CSV (plus SVG charts for the figures) under `--out` (default
//! `results/`). `--threads N` caps the worker pool (default: all cores).
//! `--protocols GMP,MCFR,…` filters the campaign panels (unknown tokens
//! warn and are skipped; an empty selection falls back to the default).
//!
//! The timed perf records are separate commands, each writing JSON under
//! `--out` through [`gmp_bench::record`] (every timed figure is a spread
//! over five trials of at least one second; run them from a `--release`
//! build): `bench` writes `BENCH_1.json` (decision throughput) and
//! `BENCH_2.json` (task throughput), `scale` writes `BENCH_4.json` (the
//! 1k → 1M-node scale curve; `--quick` stops at 10k), and `service`
//! writes `BENCH_5.json` (the concurrent session engine; `--quick` runs
//! the paper topology at 1k sessions). EXPERIMENTS.md indexes them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gmp_bench::campaign::CampaignRow;
use gmp_bench::chart::LineChart;
use gmp_bench::experiments::{
    density_sweep, destination_sweep, loss_sweep, mac_tax, mobility_ablation, overhead_ablation,
    pbm_sensitivity, planar_ablation, power_ablation, range_sweep, set_worker_threads,
    tree_length_ablation, DensityRow, Scale, SweepRow,
};
use gmp_bench::obj;
use gmp_bench::protocols::ProtocolKind;
use gmp_bench::record::{measure, report_write, write_record, Json, Spread, MIN_TRIAL};
use gmp_bench::scale::{decision_probe, scale_curve, ScalePoint};
use gmp_bench::service::{paper_scaling_curve, sharded_service_point, ServicePoint};
use gmp_bench::table::{render_table, write_csv};
use gmp_core::CacheStats;
use gmp_sim::SimConfig;

/// Counts heap allocations so the `bench` command can report
/// allocs/decision from a real run (the same metric the
/// `alloc_free` integration test asserts to be zero). A relaxed
/// fetch-add per allocation is noise for every other command.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sweep_protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::PbmBest,
        ProtocolKind::Lgs,
        ProtocolKind::Gmp,
        ProtocolKind::GmpNr,
        ProtocolKind::Smt,
        ProtocolKind::Grd,
    ]
}

/// Pivot sweep rows into a k × protocol table for one metric.
fn pivot(
    rows: &[SweepRow],
    protocols: &[ProtocolKind],
    metric: impl Fn(&SweepRow) -> f64,
) -> Vec<Vec<String>> {
    let mut ks: Vec<usize> = rows.iter().map(|r| r.k).collect();
    ks.sort_unstable();
    ks.dedup();
    let mut table = Vec::new();
    let mut header = vec!["k".to_string()];
    header.extend(protocols.iter().map(|p| p.label()));
    table.push(header);
    for k in ks {
        let mut line = vec![k.to_string()];
        for p in protocols {
            let label = p.label();
            let cell = rows
                .iter()
                .find(|r| r.k == k && r.protocol == label)
                .map(|r| format!("{:.2}", metric(r)))
                .unwrap_or_else(|| "-".into());
            line.push(cell);
        }
        table.push(line);
    }
    table
}

/// Prints `table` under `title` and writes it as the CSV `name` under
/// `--out`.
fn emit_table(args: &Args, title: &str, name: &str, table: &[Vec<String>]) {
    println!("\n{title}\n{}", render_table(table));
    let path = args.out.join(name);
    report_write(&path, write_csv(&path, table));
}

/// [`emit_table`] for `rows` under `header`, one table line per row.
fn emit_rows<R>(
    args: &Args,
    title: &str,
    name: &str,
    header: &[&str],
    rows: &[R],
    cells: impl Fn(&R) -> Vec<String>,
) {
    let mut table = vec![header.iter().map(|h| h.to_string()).collect()];
    table.extend(rows.iter().map(cells));
    emit_table(args, title, name, &table);
}

/// Writes `chart` as the SVG `name` under `--out`.
fn write_svg(args: &Args, name: &str, chart: &LineChart) {
    let path = args.out.join(name);
    report_write(&path, std::fs::write(&path, chart.render_svg()));
}

struct Args {
    command: String,
    scale: Scale,
    out: PathBuf,
    threads: usize,
    /// `--protocols` filter for the campaign commands; `None` = the
    /// command's default panel.
    protocols: Option<Vec<ProtocolKind>>,
}

/// Parses the `--protocols` comma-separated token list with the same
/// warn-and-default discipline as the environment knobs: unknown tokens
/// are reported on stderr and skipped, and a list that selects nothing
/// falls back to the command's default panel.
fn parse_protocol_filter(list: &str) -> Option<Vec<ProtocolKind>> {
    let mut kinds: Vec<ProtocolKind> = Vec::new();
    for token in list.split(',').filter(|t| !t.trim().is_empty()) {
        match ProtocolKind::from_token(token) {
            Some(kind) => {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
            None => eprintln!(
                "warning: unknown protocol {token:?} in --protocols; ignoring it (known: \
                 GMP, GMPnr, PBM, LGS, LGK, GRD, DSM, SMT, MCFR, GVG)"
            ),
        }
    }
    if kinds.is_empty() {
        eprintln!("warning: --protocols {list:?} selects nothing; using the default panel");
        None
    } else {
        Some(kinds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut command = None;
    let mut scale = Scale::standard();
    let mut out = PathBuf::from("results");
    let mut threads = 0usize;
    let mut protocols = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--standard" => scale = Scale::standard(),
            "--paper" => scale = Scale::paper(),
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                threads = n
                    .parse()
                    .map_err(|_| format!("invalid thread count: {n}"))?;
            }
            "--protocols" => {
                let list = it
                    .next()
                    .ok_or("--protocols needs a comma-separated list")?;
                protocols = parse_protocol_filter(&list);
            }
            c if !c.starts_with('-') && command.is_none() => command = Some(c.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        command: command.unwrap_or_else(|| "all".into()),
        scale,
        out,
        threads,
        protocols,
    })
}

fn run_sweep_figures(args: &Args, which: &[&str]) {
    let config = SimConfig::paper();
    let protocols = sweep_protocols();
    eprintln!(
        "running destination sweep: k ∈ {:?}, {} networks × {} tasks, {} protocols…",
        args.scale.k_values,
        args.scale.networks,
        args.scale.tasks_per_network,
        protocols.len()
    );
    let start = Instant::now();
    let rows = destination_sweep(&config, &args.scale, &protocols);
    eprintln!("sweep finished in {:.1}s", start.elapsed().as_secs_f64());

    type Metric = fn(&SweepRow) -> f64;
    let figures: [(&str, &str, Metric); 4] = [
        (
            "fig11",
            "Figure 11 — total number of hops per task",
            |r| r.total_hops,
        ),
        ("fig12", "Figure 12 — per-destination hop count", |r| {
            r.dest_hops
        }),
        (
            "fig14",
            "Figure 14 — total energy cost per task (J)",
            |r| r.energy_j,
        ),
        (
            "figlatency",
            "Extension — mean task completion time (ms)",
            |r| r.latency_ms,
        ),
    ];
    for (name, title, metric) in figures {
        if !which.contains(&name) {
            continue;
        }
        let table = pivot(&rows, &protocols, metric);
        emit_table(args, title, &format!("{name}.csv"), &table);
        // Regenerate the figure itself.
        let mut chart = LineChart::new(
            title,
            "number of destinations (k)",
            title.split("— ").nth(1).unwrap_or("value"),
        );
        for p in &protocols {
            let label = p.label();
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.protocol == label)
                .map(|r| (r.k as f64, metric(r)))
                .collect();
            chart.series(label, pts);
        }
        write_svg(args, &format!("{name}.svg"), &chart);
    }
}

/// The Figure 15 table columns: failed tasks per density point and
/// protocol.
const DENSITY_HEADER: [&str; 5] = ["nodes", "protocol", "failed", "tasks", "failed/1000"];

fn density_cells(r: &DensityRow) -> Vec<String> {
    vec![
        r.nodes.to_string(),
        r.protocol.clone(),
        r.failed_tasks.to_string(),
        r.total_tasks.to_string(),
        format!("{:.1}", r.failed_per_1000),
    ]
}

fn run_fig15(args: &Args) {
    let config = SimConfig::paper();
    let protocols = [ProtocolKind::PbmBest, ProtocolKind::Lgs, ProtocolKind::Gmp];
    // The paper sweeps 400–1000 nodes; under this repo's idealized MAC the
    // void-driven failure regime only starts below ~300 nodes (ns-2's
    // 802.11 losses pushed it higher), so sparser extension points are
    // included to expose the protocols' failure ordering. See
    // EXPERIMENTS.md.
    let node_counts = [120usize, 160, 200, 250, 300, 400, 600, 800, 1000];
    eprintln!(
        "running density sweep: nodes ∈ {node_counts:?}, k = 12, {} networks × {} tasks…",
        args.scale.networks, args.scale.tasks_per_network
    );
    let start = Instant::now();
    let rows = density_sweep(&config, &args.scale, &protocols, &node_counts);
    eprintln!(
        "density sweep finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    emit_rows(
        args,
        "Figure 15 — failed tasks for different network densities",
        "fig15.csv",
        &DENSITY_HEADER,
        &rows,
        density_cells,
    );
    let mut chart = LineChart::new(
        "Figure 15 — failed tasks per 1000 vs density",
        "number of nodes",
        "failed tasks per 1000",
    );
    for proto in &protocols {
        let label = proto.label();
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.protocol == label)
            .map(|r| (r.nodes as f64, r.failed_per_1000))
            .collect();
        chart.series(label, pts);
    }
    write_svg(args, "fig15.svg", &chart);
}

fn run_overhead(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running header-overhead ablation…");
    let rows = overhead_ablation(&config, &args.scale);
    emit_rows(
        args,
        "Ablation — destination-list header overhead (GMP)",
        "overhead.csv",
        &[
            "k",
            "fixed B/task",
            "encoded B/task",
            "fixed J/task",
            "encoded J/task",
            "byte overhead",
        ],
        &rows,
        |r| {
            vec![
                r.k.to_string(),
                format!("{:.0}", r.fixed_bytes),
                format!("{:.0}", r.encoded_bytes),
                format!("{:.4}", r.fixed_energy_j),
                format!("{:.4}", r.encoded_energy_j),
                format!("{:.2}×", r.encoded_bytes / r.fixed_bytes),
            ]
        },
    );
}

fn run_treelen(args: &Args) {
    eprintln!("running rrSTR vs MST tree-length ablation…");
    let rows = tree_length_ablation(&[3, 5, 10, 15, 20, 25], 200);
    emit_rows(
        args,
        "Ablation — rrSTR vs MST tree length (range-oblivious)",
        "treelen.csv",
        &["n", "rrSTR len", "MST len", "ratio", "virtual junctions"],
        &rows,
        |r| {
            vec![
                r.n.to_string(),
                format!("{:.0}", r.rrstr_len),
                format!("{:.0}", r.mst_len),
                format!("{:.4}", r.ratio),
                format!("{:.2}", r.virtuals),
            ]
        },
    );
}

fn run_planar(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running planar-subgraph ablation (GMP, k = 12)…");
    let rows = planar_ablation(&config, &args.scale, &[150, 200, 300, 500]);
    emit_rows(
        args,
        "Ablation — perimeter routing on Gabriel vs RNG (GMP)",
        "planar.csv",
        &["nodes", "planar", "failed", "tasks", "total hops"],
        &rows,
        |r| {
            vec![
                r.nodes.to_string(),
                r.planar.clone(),
                r.failed_tasks.to_string(),
                r.total_tasks.to_string(),
                format!("{:.2}", r.total_hops),
            ]
        },
    );
}

fn run_pbm_sensitivity(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running PBM search-bound sensitivity (λ = 0.3, k = 15)…");
    let rows = pbm_sensitivity(&config, &args.scale, 15);
    emit_rows(
        args,
        "Ablation — PBM bounded-search sensitivity",
        "pbm_sensitivity.csv",
        &[
            "|W| cap",
            "cands/dest",
            "total hops",
            "per-dest hops",
            "routing secs",
        ],
        &rows,
        |r| {
            vec![
                r.max_subset_size.to_string(),
                r.candidates_per_dest.to_string(),
                format!("{:.2}", r.total_hops),
                format!("{:.2}", r.dest_hops),
                format!("{:.2}", r.routing_seconds),
            ]
        },
    );
}

fn run_mobility(args: &Args) {
    eprintln!("running position-staleness (mobility) ablation…");
    let rows = mobility_ablation(
        500,
        (1.0, 5.0),
        &[0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0],
        30,
        9,
    );
    emit_rows(
        args,
        "Ablation — random-waypoint mobility vs stale positions (500 nodes, 1–5 m/s)",
        "mobility.csv",
        &["staleness (s)", "broken links", "stale GMP transmissions"],
        &rows,
        |r| {
            vec![
                format!("{:.0}", r.staleness_s),
                format!("{:.1}%", r.broken_links * 100.0),
                format!("{:.1}%", r.stale_tx_fraction * 100.0),
            ]
        },
    );
}

fn run_power(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running power-control ablation…");
    let mut scale = args.scale.clone();
    scale.k_values = vec![3, 12, 25];
    let protocols = [
        ProtocolKind::Gmp,
        ProtocolKind::Lgs,
        ProtocolKind::Smt,
        ProtocolKind::Grd,
    ];
    let rows = power_ablation(&config, &scale, &protocols);
    emit_rows(
        args,
        "Ablation — fixed vs distance-scaled transmit power",
        "power.csv",
        &["k", "protocol", "fixed J/task", "α=2 J/task", "saving"],
        &rows,
        |r| {
            vec![
                r.k.to_string(),
                r.protocol.clone(),
                format!("{:.3}", r.fixed_energy_j),
                format!("{:.3}", r.controlled_energy_j),
                format!(
                    "{:.0}%",
                    (1.0 - r.controlled_energy_j / r.fixed_energy_j) * 100.0
                ),
            ]
        },
    );
}

fn run_range(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running radio-range sweep (k = 12)…");
    let protocols = [ProtocolKind::Gmp, ProtocolKind::Lgs, ProtocolKind::PbmBest];
    let ranges = [100.0, 125.0, 150.0, 175.0, 200.0];
    let rows = range_sweep(&config, &args.scale, &protocols, &ranges);
    emit_rows(
        args,
        "Extension — radio-range sweep (1000 nodes, k = 12)",
        "range.csv",
        &[
            "range (m)",
            "protocol",
            "total hops",
            "energy (J)",
            "failed",
        ],
        &rows,
        |r| {
            vec![
                format!("{:.0}", r.radio_range),
                r.protocol.clone(),
                format!("{:.2}", r.total_hops),
                format!("{:.3}", r.energy_j),
                r.failed_tasks.to_string(),
            ]
        },
    );
}

fn run_fig15mac(args: &Args) {
    let config = SimConfig::paper()
        .with_collisions(true)
        .with_tx_jitter(0.005)
        .with_retransmissions(7);
    eprintln!(
        "running Figure 15 with collisions, 5 ms carrier-sense jitter, 7 retransmissions (k = 12)…"
    );
    let protocols = [ProtocolKind::Pbm(0.3), ProtocolKind::Lgs, ProtocolKind::Gmp];
    let node_counts = [400usize, 600, 800, 1000];
    let rows = density_sweep(&config, &args.scale, &protocols, &node_counts);
    emit_rows(
        args,
        "Fidelity ablation — Figure 15 with half-duplex/co-channel collisions",
        "fig15_mac.csv",
        &DENSITY_HEADER,
        &rows,
        density_cells,
    );
}

fn run_mactax(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running MAC retransmission-tax ablation (k = 15)…");
    let protocols = [
        ProtocolKind::Gmp,
        ProtocolKind::Lgs,
        ProtocolKind::Pbm(0.3),
        ProtocolKind::Smt,
        ProtocolKind::Grd,
    ];
    let rows = mac_tax(&config, &args.scale, &protocols, 15);
    emit_rows(
        args,
        "Fidelity ablation — MAC retransmission tax (collisions + ARQ)",
        "mac_tax.csv",
        &["protocol", "ideal tx", "MAC tx", "tax", "failed"],
        &rows,
        |r| {
            vec![
                r.protocol.clone(),
                format!("{:.1}", r.ideal_tx),
                format!("{:.1}", r.mac_tx),
                format!("{:+.1}%", r.tax * 100.0),
                r.failed_tasks.to_string(),
            ]
        },
    );
}

fn run_loss(args: &Args) {
    let config = SimConfig::paper();
    eprintln!("running lossy-channel Figure 15 variant (k = 12)…");
    let protocols = [ProtocolKind::Pbm(0.3), ProtocolKind::Lgs, ProtocolKind::Gmp];
    let rows = loss_sweep(
        &config,
        &args.scale,
        &protocols,
        &[400, 600, 800, 1000],
        &[0.01, 0.03],
    );
    emit_rows(
        args,
        "Fidelity ablation — Figure 15 over a lossy channel",
        "fig15_loss.csv",
        &["nodes", "loss", "protocol", "failed/1000"],
        &rows,
        |r| {
            vec![
                r.nodes.to_string(),
                format!("{:.0}%", r.loss * 100.0),
                r.protocol.clone(),
                format!("{:.0}", r.failed_per_1000),
            ]
        },
    );
}

/// `k` per task of the `BENCH_1` decision probe, cycled over its tasks.
const BENCH1_KS: [usize; 3] = [5, 15, 25];

/// Workload fields every timed record shares: its traffic (`replay`,
/// `fresh` or `repeat-groups`), its cache state (`warm`, `cold` or
/// `off`), and the minimum length of each trial behind a [`Spread`].
fn timed_workload(traffic: impl Into<Json>, cache: impl Into<Json>) -> Json {
    obj! {
        "traffic": traffic,
        "cache": cache,
        "min_trial_s": MIN_TRIAL.as_secs_f64(),
    }
}

/// The decision-throughput workload behind `BENCH_1.json`: the source
/// decisions of 30 paper-topology tasks replayed through one warmed
/// [`gmp_core::DecisionScratch`] and decision cache, with the allocation
/// counter read around the timed trials (see [`decision_probe`]), and the
/// same decisions behind a capacity-0 cache, which rebuilds every one.
fn run_bench(args: &Args) {
    use gmp_core::{CacheConfig, ConcurrentTreeCache};
    use gmp_net::Topology;
    use gmp_sim::MulticastTask;

    let config = SimConfig::paper();
    let topo = Topology::random(&config.topology_config(), 1);
    let tasks: Vec<MulticastTask> = (0..30)
        .map(|i| MulticastTask::random(&topo, BENCH1_KS[i % BENCH1_KS.len()], 100 + i as u64))
        .collect();
    eprintln!(
        "bench: decision throughput over {} tasks, k ∈ {BENCH1_KS:?}…",
        tasks.len()
    );
    let alloc_counter = || ALLOCS.load(Ordering::SeqCst);
    let (decisions_per_sec, allocs_per_decision, cache) = decision_probe(
        &topo,
        &tasks,
        &ConcurrentTreeCache::new(),
        Some(&alloc_counter),
    );
    let no_cache = ConcurrentTreeCache::with_config(CacheConfig {
        capacity: 0,
        ..CacheConfig::default()
    });
    let (uncached_per_sec, _, _) = decision_probe(&topo, &tasks, &no_cache, None);
    let record = bench1_record(
        config.node_count,
        tasks.len(),
        decisions_per_sec,
        allocs_per_decision,
        cache,
        uncached_per_sec,
    );
    write_record(&args.out, "BENCH_1.json", record);
    run_bench2(args);
}

fn bench1_record(
    nodes: usize,
    tasks: usize,
    decisions_per_sec: Spread,
    allocs_per_decision: Option<f64>,
    cache: CacheStats,
    uncached_per_sec: Spread,
) -> Json {
    let mut workload = timed_workload("replay", "warm");
    workload.push("nodes", nodes);
    workload.push("topology_seed", 1usize);
    workload.push("k_values", BENCH1_KS.into_iter().collect::<Json>());
    workload.push("tasks", tasks);
    obj! {
        "schema": "gmp-bench/1.2",
        "workload": workload,
        "decisions_per_sec": decisions_per_sec,
        "allocs_per_decision": allocs_per_decision,
        "decision_cache": cache,
        "uncached": obj! {
            "workload": timed_workload("fresh", "off"),
            "decisions_per_sec": uncached_per_sec,
        },
    }
}

/// The event-loop workload behind `BENCH_2.json`: whole-task simulation
/// throughput at the paper scale (1000 nodes, k = 25) through one warmed
/// [`gmp_sim::SimScratch`] and router, replaying 64 tasks, with the
/// collision model off and on (jittered carrier sense, 7 retransmissions).
/// The criterion bench `sim_throughput` tracks the same workload
/// interactively.
fn run_bench2(args: &Args) {
    use gmp_core::GmpRouter;
    use gmp_net::Topology;
    use gmp_sim::{MulticastTask, SimScratch, TaskRunner};

    let base = SimConfig::paper();
    let topo = Topology::random(&base.topology_config(), 1);
    let tasks: Vec<MulticastTask> = (0..64)
        .map(|i| MulticastTask::random(&topo, 25, 100 + i as u64))
        .collect();
    let collisions = base
        .clone()
        .with_collisions(true)
        .with_tx_jitter(0.005)
        .with_retransmissions(7);
    let [off, on] = [
        ("collisions_off", base.clone()),
        ("collisions_on", collisions),
    ]
    .map(|(label, config)| {
        eprintln!("bench: task throughput, {label} (n=1000, k=25)…");
        let runner = TaskRunner::new(&topo, &config);
        let mut router = GmpRouter::new();
        let mut scratch = SimScratch::new();
        let mut pass = || {
            for t in &tasks {
                let r = runner.run_with_scratch(&mut router, t, 0, &mut scratch);
                assert!(!r.truncated, "bench workload truncated");
            }
            tasks.len()
        };
        pass();
        let per_sec = measure(pass);
        (per_sec, router.cache_stats())
    });
    write_record(
        &args.out,
        "BENCH_2.json",
        bench2_record(base.node_count, tasks.len(), off, on),
    );
}

fn bench2_record(
    nodes: usize,
    tasks: usize,
    off: (Spread, CacheStats),
    on: (Spread, CacheStats),
) -> Json {
    let mut workload = timed_workload("replay", "warm");
    workload.push("nodes", nodes);
    workload.push("topology_seed", 1usize);
    workload.push("k", 25usize);
    workload.push("tasks", tasks);
    workload.push(
        "collision_config",
        obj! { "tx_jitter_s": 0.005, "max_retransmissions": 7usize },
    );
    obj! {
        "schema": "gmp-bench/2.1",
        "workload": workload,
        "collisions_off_tasks_per_sec": off.0,
        "collisions_on_tasks_per_sec": on.0,
        "decision_cache": obj! { "collisions_off": off.1, "collisions_on": on.1 },
    }
}

/// The scale curve behind `BENCH_4.json`: per-task routing cost at
/// 1k/10k/100k/1M nodes over the sharded lazy substrate, at constant paper
/// density. `--quick` runs the 1k/10k prefix (the CI smoke gate). See
/// EXPERIMENTS.md for the trajectory table and DESIGN.md for the substrate.
fn run_scale(args: &Args) {
    let quick = args.scale == Scale::quick();
    let node_counts: Vec<usize> = if quick {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000]
    };
    let (windows, tasks_per_window) = if quick { (4, 25) } else { (8, 50) };
    let k = 10usize;
    eprintln!(
        "running scale curve: nodes ∈ {node_counts:?}, {windows} windows × {tasks_per_window} tasks, k = {k}…"
    );
    let start = Instant::now();
    let alloc_counter = || ALLOCS.load(Ordering::Relaxed);
    let points = scale_curve(
        &node_counts,
        windows,
        tasks_per_window,
        k,
        Some(&alloc_counter),
    );
    eprintln!(
        "scale curve finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    write_record(
        &args.out,
        "BENCH_4.json",
        scale_record(&points, windows, tasks_per_window, k),
    );
}

fn scale_record(points: &[ScalePoint], windows: usize, tasks_per_window: usize, k: usize) -> Json {
    use gmp_bench::scale::{EAGER_CUTOFF, MARGIN, RADIO_RANGE, WINDOW_SIDE};

    let mut workload = timed_workload(
        obj! { "tasks_per_sec": "fresh", "decisions_per_sec": "replay" },
        obj! { "tasks_per_sec": "cold", "decisions_per_sec": "warm" },
    );
    workload.push("window_side_m", WINDOW_SIDE);
    workload.push("margin_m", MARGIN);
    workload.push("radio_range_m", RADIO_RANGE);
    workload.push("density_per_m2", 0.001);
    workload.push("windows", windows);
    workload.push("tasks_per_window", tasks_per_window);
    workload.push("k", k);
    workload.push("eager_cutoff_nodes", EAGER_CUTOFF);
    obj! {
        "schema": "gmp-bench/4.1",
        "workload": workload,
        "note": "every figure is timed on one core; peak_rss_bytes is the process high-water mark, cumulative across points",
        "points": points.iter().collect::<Json>(),
    }
}

/// The concurrent-service benchmark behind `BENCH_5.json`: sustained
/// multicast session throughput under churn through the `gmp-service`
/// engine, against back-to-back sequential runs of the identical session
/// set (the ≥2x headline gate), plus the multi-worker core-scaling curve
/// (1/2/4/8 workers, capped at the host's core count, over one shared
/// [`gmp_core::ConcurrentTreeCache`]). `--quick` runs the paper topology
/// at 1k sessions (the CI smoke gate); the full run adds 10k sessions and
/// the sharded 100k-node substrate. `--threads`/`GMP_BENCH_THREADS`
/// collapses the worker axis to one count. Run it from a `--release`
/// build.
fn run_service(args: &Args) {
    let quick = args.scale == Scale::quick();
    let alloc_counter = || ALLOCS.load(Ordering::Relaxed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let axis: Vec<usize> = if args.threads > 0 {
        vec![args.threads]
    } else {
        [1, 2, 4, 8].into_iter().filter(|&t| t <= cores).collect()
    };
    let start = Instant::now();
    let mut points: Vec<ServicePoint> = Vec::new();
    eprintln!("service: paper topology, 1000 sessions, workers ∈ {axis:?}…");
    points.extend(paper_scaling_curve(1_000, 42, Some(&alloc_counter), &axis));
    if !quick {
        eprintln!("service: paper topology, 10000 sessions, workers ∈ {axis:?}…");
        points.extend(paper_scaling_curve(10_000, 43, Some(&alloc_counter), &axis));
        for (windows, sessions, seed, workers) in [(4, 1_000, 44, 4), (8, 10_000, 45, 8)] {
            let workers = workers.min(cores);
            eprintln!(
                "service: sharded 100k substrate, {sessions} sessions over {windows} windows, {workers} workers…"
            );
            points.push(sharded_service_point(
                100_000,
                windows,
                sessions,
                seed,
                Some(&alloc_counter),
                workers,
            ));
        }
    }
    eprintln!(
        "service bench finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    write_record(&args.out, "BENCH_5.json", service_record(&points, cores));
}

fn service_record(points: &[ServicePoint], cores: usize) -> Json {
    let mut workload = timed_workload("repeat-groups", "cold");
    workload.push("available_parallelism", cores);
    obj! {
        "schema": "gmp-bench/5.2",
        "workload": workload,
        "note": "sequential baseline = self-contained runs of the same sessions (fresh protocol + \
                 scratch each); every engine run starts from a cold decision cache; latency is \
                 admission to completion; speedup and parallel_scaling are ratios of legs timed in the \
                 same trial (1 worker / sequential, threads / 1 worker); reports_match certifies \
                 every engine report bit-identical to its sequential twin",
        "points": points.iter().collect::<Json>(),
    }
}

/// Identity of one campaign flavor: its table heading and output names.
struct CampaignSpec {
    title: &'static str,
    schema: &'static str,
    csv_name: &'static str,
    json_name: &'static str,
}

/// Crash intensities (fraction of nodes crashed at t = 0) of both
/// campaigns.
const CAMPAIGN_INTENSITIES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
/// Destinations per campaign task.
const CAMPAIGN_K: usize = 10;

/// Runs a fault-injection campaign over `protocols` ×
/// [`CAMPAIGN_INTENSITIES`] and emits the table, the CSV, and the
/// schema'd JSON under `--out`. Shared by `campaign` (`BENCH_3.json`) and
/// `guarantees` (`BENCH_6.json`).
fn emit_campaign(args: &Args, config: &SimConfig, protocols: &[ProtocolKind], spec: &CampaignSpec) {
    use gmp_bench::campaign::robustness_campaign;

    let (intensities, k) = (&CAMPAIGN_INTENSITIES, CAMPAIGN_K);

    eprintln!(
        "running {}: intensity ∈ {intensities:?}, k = {k}, {} networks × {} tasks, {} protocols…",
        args.command,
        args.scale.networks,
        args.scale.tasks_per_network,
        protocols.len()
    );
    let start = Instant::now();
    let rows = robustness_campaign(config, &args.scale, protocols, intensities, k);
    eprintln!(
        "{} finished in {:.1}s",
        args.command,
        start.elapsed().as_secs_f64()
    );

    emit_rows(
        args,
        spec.title,
        spec.csv_name,
        &[
            "intensity",
            "protocol",
            "delivery",
            "justified",
            "unjustified",
            "unjust rate",
            "dest hops",
            "stretch",
            "txs",
            "hop overhead",
        ],
        &rows,
        |r| {
            vec![
                format!("{:.2}", r.intensity),
                r.protocol.clone(),
                format!("{:.4}", r.delivery_ratio),
                r.justified_failures.to_string(),
                r.unjustified_failures.to_string(),
                format!("{:.4}", r.unjustified_rate),
                format!("{:.2}", r.mean_dest_hops),
                if r.mean_path_stretch.is_finite() {
                    format!("{:.3}", r.mean_path_stretch)
                } else {
                    "-".into()
                },
                format!("{:.1}", r.total_hops),
                if r.hop_overhead.is_finite() {
                    format!("{:+.1}%", r.hop_overhead * 100.0)
                } else {
                    "-".into()
                },
            ]
        },
    );
    let record = campaign_record(spec.schema, config, &args.scale, protocols, &rows);
    write_record(&args.out, spec.json_name, record);
}

fn campaign_record(
    schema: &str,
    config: &SimConfig,
    scale: &Scale,
    protocols: &[ProtocolKind],
    rows: &[CampaignRow],
) -> Json {
    obj! {
        "schema": schema,
        "workload": obj! {
            "nodes": config.node_count,
            "k": CAMPAIGN_K,
            "networks": scale.networks,
            "tasks_per_network": scale.tasks_per_network,
            "max_path_hops": config.max_path_hops as usize,
            "intensities": CAMPAIGN_INTENSITIES.into_iter().collect::<Json>(),
            "protocols": protocols.iter().map(|p| p.label()).collect::<Json>(),
        },
        "rows": rows.iter().collect::<Json>(),
    }
}

/// The robustness campaign behind `BENCH_3.json`: crash an increasing
/// fraction of nodes at t = 0 and let the delivery-guarantee oracle split
/// every failed destination into justified (graph-disconnected) and
/// unjustified (protocol-attributable) losses. See EXPERIMENTS.md.
fn run_campaign(args: &Args) {
    let config = SimConfig::paper();
    let protocols = args.protocols.clone().unwrap_or_else(|| {
        vec![
            ProtocolKind::Gmp,
            ProtocolKind::Lgs,
            ProtocolKind::Grd,
            ProtocolKind::Smt,
        ]
    });
    emit_campaign(
        args,
        &config,
        &protocols,
        &CampaignSpec {
            title: "Robustness campaign — delivery under node crashes, oracle-judged",
            schema: "gmp-bench/3",
            csv_name: "campaign.csv",
            json_name: "BENCH_3.json",
        },
    );
}

/// The guarantees-vs-overhead frontier behind `BENCH_6.json`: the same
/// oracle-judged crash campaign, with the guaranteed-delivery protocols
/// (MCFR/GVG) alongside the best-effort panel so delivery ratio,
/// unjustified failures, transmissions, and path stretch can be traded
/// off in one table. The hop budget is raised well above the campaign
/// default because FACE-1 void detours are long but finite — a truncated
/// walk would void the certificate. See EXPERIMENTS.md.
fn run_guarantees(args: &Args) {
    let config = SimConfig::paper().with_max_path_hops(4000);
    let protocols = args.protocols.clone().unwrap_or_else(|| {
        vec![
            ProtocolKind::Gmp,
            ProtocolKind::Lgs,
            ProtocolKind::Grd,
            ProtocolKind::Smt,
            ProtocolKind::Mcfr,
            ProtocolKind::Gvg,
        ]
    });
    emit_campaign(
        args,
        &config,
        &protocols,
        &CampaignSpec {
            title: "Guarantees frontier — guaranteed delivery vs overhead, oracle-judged",
            schema: "gmp-bench/6",
            csv_name: "guarantees.csv",
            json_name: "BENCH_6.json",
        },
    );
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: experiments <all|bench|scale|service|fig11|fig12|fig14|figlatency|fig15|overhead|treelen|planar|pbm|mobility|power|range|loss|fig15mac|mactax|campaign|guarantees> \
                 [--quick|--standard|--paper] [--threads N] [--out DIR] [--protocols LIST]"
            );
            return ExitCode::FAILURE;
        }
    };
    // Precedence: an explicit --threads wins; otherwise the
    // GMP_BENCH_THREADS environment knob (malformed values warn and fall
    // back to the default); otherwise all available cores.
    if args.threads == 0 {
        args.threads = gmp_bench::experiments::threads_from_env();
    }
    set_worker_threads(args.threads);
    match args.command.as_str() {
        "all" => {
            run_sweep_figures(&args, &["fig11", "fig12", "fig14", "figlatency"]);
            run_fig15(&args);
            run_overhead(&args);
            run_treelen(&args);
            run_planar(&args);
            run_pbm_sensitivity(&args);
            run_mobility(&args);
            run_power(&args);
            run_range(&args);
            run_loss(&args);
            run_fig15mac(&args);
            run_mactax(&args);
            run_campaign(&args);
            run_guarantees(&args);
        }
        "fig11" => run_sweep_figures(&args, &["fig11"]),
        "fig12" => run_sweep_figures(&args, &["fig12"]),
        "fig14" => run_sweep_figures(&args, &["fig14"]),
        "figlatency" => run_sweep_figures(&args, &["figlatency"]),
        "planar" => run_planar(&args),
        "pbm" => run_pbm_sensitivity(&args),
        "mobility" => run_mobility(&args),
        "power" => run_power(&args),
        "range" => run_range(&args),
        "loss" => run_loss(&args),
        "fig15mac" => run_fig15mac(&args),
        "mactax" => run_mactax(&args),
        "campaign" => run_campaign(&args),
        "guarantees" => run_guarantees(&args),
        "fig15" => run_fig15(&args),
        "overhead" => run_overhead(&args),
        "treelen" => run_treelen(&args),
        "bench" => run_bench(&args),
        "scale" => run_scale(&args),
        "service" => run_service(&args),
        other => {
            eprintln!("unknown command: {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_bench::record::TRIALS;
    use gmp_sim::FailureCause;

    fn spread() -> Spread {
        Spread::of(&mut [3.0, 1.0, 2.0, 5.0, 4.0])
    }

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        }
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        match v {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
        .unwrap_or_else(|| panic!("missing {key:?} in {v}"))
    }

    /// Every timed field is a `Spread` of at least `TRIALS` trials whose
    /// median lies between its min and max.
    fn assert_spreads(v: &Json, timed: &[&str]) {
        for &key in timed {
            let s = field(v, key);
            assert_eq!(keys(s), ["trials", "median", "min", "max"], "{key}: {s}");
            let num = |k| match field(s, k) {
                Json::Num(x) => *x,
                other => panic!("{key}.{k} is not a number: {other}"),
            };
            assert!(matches!(field(s, "trials"), Json::Int(n) if *n >= TRIALS as i128));
            assert!(
                num("min") <= num("median") && num("median") <= num("max"),
                "{s}"
            );
        }
    }

    /// The workload names its traffic and cache state, either once or per
    /// timed figure.
    fn assert_labelled(record: &Json) {
        let workload = field(record, "workload");
        for (key, allowed) in [
            ("traffic", &["replay", "fresh", "repeat-groups"][..]),
            ("cache", &["warm", "cold", "off"][..]),
        ] {
            let labels = match field(workload, key) {
                Json::Obj(per_figure) => per_figure.iter().map(|(_, v)| v).collect(),
                label => vec![label],
            };
            for label in labels {
                assert!(
                    matches!(label, Json::Str(s) if allowed.contains(&s.as_str())),
                    "{key} label {label} not in {allowed:?}"
                );
            }
        }
        assert!(matches!(field(workload, "min_trial_s"), Json::Num(s) if *s >= 1.0));
    }

    fn cache_keys(v: &Json) {
        assert_eq!(
            keys(v),
            ["hits", "misses", "fallbacks", "entries_live", "hit_rate"]
        );
    }

    #[test]
    fn bench1_record_schema() {
        let r = bench1_record(
            1000,
            30,
            spread(),
            Some(0.0),
            CacheStats::default(),
            spread(),
        );
        assert_eq!(
            keys(&r),
            [
                "schema",
                "workload",
                "decisions_per_sec",
                "allocs_per_decision",
                "decision_cache",
                "uncached"
            ]
        );
        assert_eq!(field(&r, "schema"), &Json::from("gmp-bench/1.2"));
        assert_labelled(&r);
        assert_eq!(
            field(field(&r, "workload"), "traffic"),
            &Json::from("replay")
        );
        assert_spreads(&r, &["decisions_per_sec"]);
        assert_eq!(field(&r, "allocs_per_decision"), &Json::Num(0.0));
        cache_keys(field(&r, "decision_cache"));
        let uncached = field(&r, "uncached");
        assert_eq!(keys(uncached), ["workload", "decisions_per_sec"]);
        assert_labelled(uncached);
        let w = field(uncached, "workload");
        assert_eq!(field(w, "traffic"), &Json::from("fresh"));
        assert_eq!(field(w, "cache"), &Json::from("off"));
        assert_spreads(uncached, &["decisions_per_sec"]);
    }

    #[test]
    fn bench2_record_schema() {
        let stats = CacheStats::default();
        let r = bench2_record(1000, 64, (spread(), stats), (spread(), stats));
        assert_eq!(
            keys(&r),
            [
                "schema",
                "workload",
                "collisions_off_tasks_per_sec",
                "collisions_on_tasks_per_sec",
                "decision_cache"
            ]
        );
        assert_eq!(field(&r, "schema"), &Json::from("gmp-bench/2.1"));
        assert_labelled(&r);
        assert_spreads(
            &r,
            &[
                "collisions_off_tasks_per_sec",
                "collisions_on_tasks_per_sec",
            ],
        );
        let caches = field(&r, "decision_cache");
        assert_eq!(keys(caches), ["collisions_off", "collisions_on"]);
        cache_keys(field(caches, "collisions_off"));
    }

    #[test]
    fn bench4_record_schema() {
        let point = ScalePoint {
            nodes: 1000,
            area_side: 1000.0,
            tile_count: 1,
            substrate_build_s: spread(),
            eager_build_s: Some(spread()),
            region_build_s: spread(),
            materialized_tiles: 1,
            materialized_nodes: 1000,
            substrate_heap_bytes: 20_008,
            windows: 4,
            tasks: 100,
            failed_tasks: 0,
            tasks_per_sec: spread(),
            decisions_per_sec: spread(),
            allocs_per_decision: Some(0.0),
            peak_rss_bytes: Some(1 << 20),
        };
        let lazy = ScalePoint {
            eager_build_s: None,
            ..point.clone()
        };
        let r = scale_record(&[point, lazy], 4, 25, 10);
        assert_eq!(keys(&r), ["schema", "workload", "note", "points"]);
        assert_eq!(field(&r, "schema"), &Json::from("gmp-bench/4.1"));
        assert_labelled(&r);
        let Json::Arr(points) = field(&r, "points") else {
            panic!("points is not an array");
        };
        assert_eq!(points.len(), 2);
        let timed = [
            "substrate_build_s",
            "region_build_s",
            "tasks_per_sec",
            "decisions_per_sec",
        ];
        for p in points {
            assert_eq!(
                keys(p),
                [
                    "nodes",
                    "area_side_m",
                    "tile_count",
                    "substrate_build_s",
                    "eager_build_s",
                    "region_build_s",
                    "materialized_tiles",
                    "materialized_nodes",
                    "substrate_heap_bytes",
                    "windows",
                    "tasks",
                    "failed_tasks",
                    "tasks_per_sec",
                    "decisions_per_sec",
                    "allocs_per_decision",
                    "peak_rss_bytes"
                ]
            );
            assert_spreads(p, &timed);
        }
        assert_spreads(&points[0], &["eager_build_s"]);
        assert_eq!(field(&points[1], "eager_build_s"), &Json::Null);
    }

    #[test]
    fn bench5_record_schema() {
        let point = ServicePoint {
            topology: "paper-1000".into(),
            nodes: 1000,
            sessions: 1000,
            groups: 16,
            membership_updates: 586,
            fault_crashes: 9,
            skipped_empty: 0,
            sequential_sessions_per_sec: spread(),
            decisions_per_sec: spread(),
            threads: 2,
            parallel_sessions_per_sec: spread(),
            parallel_p50_latency_ms: spread(),
            parallel_p99_latency_ms: spread(),
            speedup: spread(),
            parallel_scaling: spread(),
            allocs_per_session: Some(69.5),
            steady_alloc_drift: Some(0),
            cache: CacheStats::default(),
            reports_match: true,
        };
        let r = service_record(&[point], 2);
        assert_eq!(keys(&r), ["schema", "workload", "note", "points"]);
        assert_eq!(field(&r, "schema"), &Json::from("gmp-bench/5.2"));
        assert_labelled(&r);
        let Json::Arr(points) = field(&r, "points") else {
            panic!("points is not an array");
        };
        let p = &points[0];
        assert_spreads(
            p,
            &[
                "sequential_sessions_per_sec",
                "decisions_per_sec",
                "parallel_sessions_per_sec",
                "parallel_p50_latency_ms",
                "parallel_p99_latency_ms",
                "speedup",
                "parallel_scaling",
            ],
        );
        // Certificates stay exact single values.
        assert_eq!(field(p, "reports_match"), &Json::Bool(true));
        assert_eq!(field(p, "steady_alloc_drift"), &Json::Int(0));
        assert_eq!(field(p, "allocs_per_session"), &Json::Num(69.5));
        assert_eq!(field(p, "threads"), &Json::Int(2));
        cache_keys(field(p, "decision_cache"));
    }

    #[test]
    fn campaign_record_schemas() {
        let row = CampaignRow {
            intensity: 0.05,
            protocol: "GMP".into(),
            delivered: 9,
            total_dests: 10,
            delivery_ratio: 0.9,
            justified_failures: 1,
            unjustified_failures: 0,
            unjustified_rate: 0.0,
            mean_dest_hops: 4.5,
            mean_path_stretch: f64::NAN,
            total_hops: 20.0,
            hop_overhead: f64::NAN,
            cause_counts: [0; gmp_bench::campaign::CAUSE_COUNT],
            tasks: 1,
        };
        for schema in ["gmp-bench/3", "gmp-bench/6"] {
            let r = campaign_record(
                schema,
                &SimConfig::paper(),
                &Scale::quick(),
                &[ProtocolKind::Gmp, ProtocolKind::Mcfr],
                std::slice::from_ref(&row),
            );
            assert_eq!(keys(&r), ["schema", "workload", "rows"]);
            assert_eq!(field(&r, "schema"), &Json::from(schema));
            assert_eq!(
                keys(field(&r, "workload")),
                [
                    "nodes",
                    "k",
                    "networks",
                    "tasks_per_network",
                    "max_path_hops",
                    "intensities",
                    "protocols"
                ]
            );
            let Json::Arr(rows) = field(&r, "rows") else {
                panic!("rows is not an array");
            };
            let row = &rows[0];
            assert_eq!(
                keys(row),
                [
                    "intensity",
                    "protocol",
                    "delivered",
                    "total_dests",
                    "delivery_ratio",
                    "justified_failures",
                    "unjustified_failures",
                    "unjustified_rate",
                    "mean_dest_hops",
                    "mean_path_stretch",
                    "total_hops",
                    "hop_overhead",
                    "causes"
                ]
            );
            let causes: Vec<&str> = FailureCause::ALL.iter().map(|c| c.as_str()).collect();
            assert_eq!(keys(field(row, "causes")), causes);
            // No baseline and nothing delivered render as null, not NaN.
            assert_eq!(field(row, "mean_path_stretch").to_string(), "null");
            assert!(!r.to_string().contains("NaN"));
        }
    }
}
