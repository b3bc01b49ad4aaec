//! The benchmark's own tests: determinism per seed, metric names against
//! `BENCHMARK.json`, the result line's shape, and workload shape guards
//! that keep each workload stressing the layer it was chosen for.
//!
//! Run with `cargo test --release --manifest-path gmpbench/Cargo.toml`
//! (the shape guards run full-size passes).

use std::collections::{BTreeMap, HashSet};

use gmp_sim::SimConfig;
use gmpbench::metrics::{valid_name, MetricSpec, END_TO_END, PER_LAYER};
use gmpbench::run::{run, Args, Report};
use gmpbench::workloads::{fresh_tasks, paper_topology, Sizes, Workload};

/// Small sizes so a whole run takes well under a second.
const SMALL: Sizes = Sizes {
    tasks: 40,
    warmup_tasks: 10,
    service_workloads: 2,
    sessions: 120,
    chunk_sessions: 40,
    setup_repeats: 1,
    solo_replays: 8,
};

fn args(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
        spans: None,
    }
}

fn simulated(report: &Report) -> Vec<(&'static str, f64)> {
    let keep = [
        "delivered_dest_ratio",
        "unblamed_dest_ratio",
        "transmissions_per_task",
        "energy_mj_per_task",
        "mean_dest_hops",
    ];
    report
        .outcome
        .metrics
        .iter()
        .filter(|(n, _)| keep.contains(n))
        .copied()
        .collect()
}

#[test]
fn same_seed_repeats_tasks_digest_and_simulated_metrics() {
    let config = SimConfig::paper();
    let topo = paper_topology(&config, 7);
    assert_eq!(
        topo.positions_ref(),
        paper_topology(&config, 7).positions_ref()
    );
    assert_eq!(fresh_tasks(&topo, 50, 7), fresh_tasks(&topo, 50, 7));
    assert_ne!(fresh_tasks(&topo, 50, 7), fresh_tasks(&topo, 50, 8));

    for workload in Workload::ALL {
        let a = run(&args(workload, 7, false), &SMALL);
        let b = run(&args(workload, 7, false), &SMALL);
        let c = run(&args(workload, 8, false), &SMALL);
        assert!(a.outcome.correct, "{}: {:?}", workload.name(), a.lines);
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_eq!(a.sim, b.sim, "{}", workload.name());
        assert_eq!(simulated(&a), simulated(&b), "{}", workload.name());
        assert_eq!(simulated(&a).len(), 5);
        assert_ne!(
            a.digest,
            c.digest,
            "{}: seed must change the inputs",
            workload.name()
        );
    }
}

#[test]
fn untraced_and_traced_runs_print_exactly_their_metrics() {
    for workload in Workload::ALL {
        for (trace, specs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(&args(workload, 3, trace), &SMALL);
            assert!(
                report.outcome.correct,
                "{}: {:?}",
                workload.name(),
                report.lines
            );
            let line = report.outcome.to_json(specs);
            let parsed = Json::parse(&line);
            let top = parsed.object();
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(top["correct"], Json::Bool(true));
            assert!(top["attempted"].number() >= 1.0);
            assert_eq!(top["failed"].number(), 0.0);
            let metrics = top["metrics"].object();
            let printed: HashSet<&str> = metrics.keys().map(String::as_str).collect();
            let expected: HashSet<&str> = specs.iter().map(|s| s.name).collect();
            assert_eq!(printed, expected, "{} trace={trace}", workload.name());
            for spec in specs {
                let m = metrics[spec.name].object();
                assert_eq!(m["unit"], Json::Str(spec.unit.into()));
                assert!(m["value"].number().is_finite());
            }
            if !trace {
                for name in ["tasks_per_s", "task_p50_us", "setup_s", "peak_rss_mib"] {
                    assert!(metrics[name].object()["value"].number() > 0.0, "{name}");
                }
            }
            assert_eq!(report.span_file.is_some(), trace);
            if let Some(spans) = &report.span_file {
                let file = Json::parse(spans);
                let file = file.object();
                assert!(!file["spans"].array().is_empty());
                assert_eq!(file["layers"].array().len(), 6);
            }
        }
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let json = Json::parse(&text);
    let bench = json.object();
    let check = |key: &str, specs: &[MetricSpec]| {
        let listed = bench[key].array();
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (entry, spec) in listed.iter().zip(specs) {
            let e = entry.object();
            assert_eq!(e["name"], Json::Str(spec.name.into()), "{key}");
            assert_eq!(e["unit"], Json::Str(spec.unit.into()), "{}", spec.name);
            assert_eq!(e["better"], Json::Str(spec.better.into()), "{}", spec.name);
            assert!(valid_name(spec.name), "{}", spec.name);
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);
    let workloads: Vec<Json> = bench["workloads"]
        .array()
        .iter()
        .map(|w| w.object()["name"].clone())
        .collect();
    let ours: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| Json::Str(w.name().into()))
        .collect();
    assert_eq!(workloads, ours);
    assert!(!valid_name("bad name"));
    assert!(!valid_name(""));
}

#[test]
fn fresh_workload_never_repeats_a_task_and_bypasses_the_cache() {
    let sizes = Sizes::BENCH;
    let config = SimConfig::paper();
    let topo = paper_topology(&config, 11);
    let tasks = fresh_tasks(&topo, sizes.warmup_tasks + sizes.tasks, 11);
    let mut seen = HashSet::new();
    for t in &tasks {
        let mut dests = t.dests.clone();
        dests.sort();
        assert!(
            seen.insert((t.source, dests)),
            "repeated task from {}",
            t.source
        );
    }
    let report = run(&args(Workload::Fresh, 11, false), &sizes);
    assert!(report.outcome.correct, "{:?}", report.lines);
    let rate = report.cache.hit_rate();
    assert!(rate < 0.05, "fresh-k25 cache hit rate {rate} >= 5%");
}

#[test]
fn service_workload_reads_a_warm_cache() {
    let report = run(&args(Workload::Service2w, 11, false), &Sizes::BENCH);
    assert!(report.outcome.correct, "{:?}", report.lines);
    let rate = report.cache.hit_rate();
    assert!(rate > 0.90, "service-2w cache hit rate {rate} <= 90%");
}

/// Just enough JSON to read `BENCHMARK.json` and the benchmark's output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing input after JSON value");
        v
    }

    fn object(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("expected object, got {other:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("expected number, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.b[self.i] != b'"' {
                    assert_ne!(self.b[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s:?}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.b[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}
