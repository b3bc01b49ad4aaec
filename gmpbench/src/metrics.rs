//! Metric names, units and directions, statistics helpers, and the result
//! line the benchmark prints last.

/// A metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// Printed by an untraced run, on every workload.
pub const END_TO_END: &[MetricSpec] = &[
    m("tasks_per_s", "1/s", "higher"),
    m("task_p50_us", "us", "lower"),
    m("task_p99_us", "us", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("delivered_dest_ratio", "ratio", "higher"),
    m("unblamed_dest_ratio", "ratio", "higher"),
    m("transmissions_per_task", "count", "lower"),
    m("energy_mj_per_task", "mJ", "lower"),
    m("mean_dest_hops", "hops", "lower"),
];

/// Printed by a traced run, on every workload (0 where a layer does not
/// take part in the workload).
pub const PER_LAYER: &[MetricSpec] = &[
    m("net.topology_build_s", "s", "lower"),
    m("steiner.rrstr_ns_p50", "ns", "lower"),
    m("steiner.rrstr_share", "ratio", "lower"),
    m("core.decision_share", "ratio", "lower"),
    m("core.decision_ns_p50", "ns", "lower"),
    m("core.decision_ns_p99", "ns", "lower"),
    m("core.decisions_per_task", "count", "lower"),
    m("core.forwards_per_decision", "count", "lower"),
    m("core.grouping_uncached_ns_p50", "ns", "lower"),
    m("core.cache_overhead_ns", "ns", "lower"),
    m("core.cache.hit_rate", "ratio", "higher"),
    m("core.cache.hits", "count", "higher"),
    m("core.cache.misses", "count", "lower"),
    m("core.cache.fallbacks", "count", "lower"),
    m("core.perimeter_forward_share", "ratio", "lower"),
    m("sim.begin_self_s", "s", "lower"),
    m("sim.step_self_s", "s", "lower"),
    m("sim.steps_per_task", "count", "lower"),
    m("sim.finish_s", "s", "lower"),
    m("sim.allocs_per_task", "count", "lower"),
    m("sim.alloc_bytes_per_task", "B", "lower"),
    m("service.spawn_s", "s", "lower"),
    m("service.merge_s", "s", "lower"),
    m("service.worker_span_s_max", "s", "lower"),
    m("service.worker_imbalance", "ratio", "lower"),
    m("service.parallel_efficiency", "ratio", "higher"),
    m("service.worker_nondecision_s", "s", "lower"),
    m("service.scratch_reuses", "count", "higher"),
    m("trace.overhead_share", "ratio", "lower"),
];

/// `true` when `name` matches `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Median of `v` (sorts it), or 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank `q`-quantile of `v` (sorts it), or 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The final result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// All output checks passed.
    pub correct: bool,
    /// Tasks (or sessions) run in measured passes.
    pub attempted: u64,
    /// Of those, how many failed an output check.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's mode.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The one-line JSON result. Metrics are written in `specs` order with
    /// their units; a missing or unknown metric, or a non-finite value, is
    /// a bug in this program.
    pub fn to_json(&self, specs: &[MetricSpec]) -> String {
        assert_eq!(
            self.metrics.len(),
            specs.len(),
            "metric set differs from its spec list"
        );
        let body: Vec<String> = specs
            .iter()
            .map(|s| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == s.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", s.name))
                    .1;
                assert!(value.is_finite(), "metric {} is {value}", s.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name, value, s.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
