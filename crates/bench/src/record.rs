//! The one writer behind every `results/BENCH_*.json` file.
//!
//! * [`Json`] — an ordered JSON value with one [`Display`](fmt::Display)
//!   that escapes strings and writes non-finite floats as `null`;
//! * [`Spread`] and [`measure`] — every timed figure is [`TRIALS`] trials
//!   of at least [`MIN_TRIAL`] each, reported as median, min and max;
//! * [`write_record`] — appends the process peak RSS, prints the record
//!   and writes it under the output directory. The peak is the `VmHWM`
//!   high-water mark of `/proc/self/status`, cumulative over the process
//!   lifetime, so a command that runs several workloads reports the
//!   largest of them;
//! * one [`From`] conversion each for [`CacheStats`], [`ScalePoint`],
//!   [`ServicePoint`] and [`CampaignRow`].
//!
//! Records are pretty-printed two levels deep (one top-level field, one
//! workload field, one row per line) and written inline below that.

use std::fmt::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use gmp_core::CacheStats;
use gmp_sim::FailureCause;

use crate::campaign::CampaignRow;
use crate::scale::ScalePoint;
use crate::service::ServicePoint;

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer.
    Int(i128),
    /// A float, written with six decimals (in exponent form below 1e-4);
    /// non-finite values are `null`.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in field order.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] from `"key": value` pairs, converting each value
/// with [`Into<Json>`].
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::record::Json::Obj(vec![
            $(($key.to_string(), ::core::convert::Into::<$crate::record::Json>::into($value))),*
        ])
    };
}

impl Json {
    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("push({key:?}) on a non-object: {other}"),
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // Six decimals, the format of every committed record; values
            // too small for that (sub-microsecond timings) keep their
            // significant digits in exponent form.
            Json::Num(x) if *x != 0.0 && x.abs() < 1e-4 => write!(f, "{x:.6e}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x:.6}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write_container(f, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_container(
                f,
                depth,
                ('{', '}'),
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// Containers at depth 0 and 1 put one entry per line; deeper ones are
/// written inline (`{ "a": 1 }`, `[1, 2]`).
fn write_container<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    (open, close): (char, char),
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    if entries.len() == 0 {
        return write!(f, "{open}{close}");
    }
    let pretty = depth < 2;
    let pad = if open == '{' { " " } else { "" };
    f.write_char(open)?;
    for (i, (key, value)) in entries.enumerate() {
        let sep = if i == 0 { "" } else { "," };
        if pretty {
            write!(f, "{sep}\n{:w$}", "", w = 2 * (depth + 1))?;
        } else {
            write!(f, "{sep}{}", if i == 0 { pad } else { " " })?;
        }
        if let Some(key) = key {
            write_escaped(f, key)?;
            f.write_str(": ")?;
        }
        value.write(f, depth + 1)?;
    }
    if pretty {
        write!(f, "\n{:w$}{close}", "", w = 2 * depth)
    } else {
        write!(f, "{pad}{close}")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Scalars convert into the variant that writes them; integers widen
/// losslessly into `i128`.
macro_rules! from_scalar {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        })*
    };
}

from_scalar! {
    bool => |b| Json::Bool(b),
    i64 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i.into()),
    usize => |i| Json::Int(i as i128),
    f64 => |x| Json::Num(x),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Trials behind every timed figure.
pub const TRIALS: usize = 5;

/// Minimum wall time of one trial. Unit tests shorten it so the curves
/// they exercise stay fast; the `experiments` binary always runs full
/// one-second trials.
pub const MIN_TRIAL: Duration = if cfg!(test) {
    Duration::from_millis(1)
} else {
    Duration::from_secs(1)
};

/// The spread of one timed figure over its trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of trials.
    pub trials: usize,
    /// Middle sample (the upper middle for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples` (reordered in place).
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: &mut [f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        samples.sort_by(f64::total_cmp);
        Spread {
            trials: samples.len(),
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }

    /// The spread of one figure read out of every trial of [`trials`].
    pub fn over<T>(runs: &[T; TRIALS], sample: impl Fn(&T) -> f64) -> Spread {
        Spread::of(&mut runs.each_ref().map(sample))
    }
}

impl From<Spread> for Json {
    fn from(s: Spread) -> Json {
        obj! { "trials": s.trials, "median": s.median, "min": s.min, "max": s.max }
    }
}

/// Runs `trial` [`TRIALS`] times, in order. Allocation-free, so an
/// allocation counter read around it sees only what `trial` allocates.
pub fn trials<T>(mut trial: impl FnMut() -> T) -> [T; TRIALS] {
    std::array::from_fn(|_| trial())
}

/// Calls `op` back to back until at least [`MIN_TRIAL`] has passed and
/// returns the units it reported per second.
pub fn rate(mut op: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut units = 0usize;
    loop {
        units += op();
        let elapsed = start.elapsed();
        if elapsed >= MIN_TRIAL {
            return units as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Units per second of `op` (which returns the units one call did) over
/// [`TRIALS`] trials of [`rate`].
pub fn measure(mut op: impl FnMut() -> usize) -> Spread {
    Spread::over(&trials(|| rate(&mut op)), |&r| r)
}

/// Seconds per call of `op` over [`TRIALS`] trials of [`rate`].
pub fn seconds_per(mut op: impl FnMut()) -> Spread {
    let runs = trials(|| {
        1.0 / rate(|| {
            op();
            1
        })
    });
    Spread::over(&runs, |&s| s)
}

/// Peak resident set size of the current process in bytes, or `None` where
/// the kernel does not expose it (non-Linux, or a locked-down `/proc`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parses the `VmHWM` line (reported in kB) out of `/proc/self/status`
/// contents.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Appends `peak_rss_bytes` and, when it is unavailable, a
/// `peak_rss_note` naming why: `VmHWM` is Linux-only, so off-Linux runs
/// record an explicit `null` with the platform spelled out rather than a
/// silently absent metric.
fn push_peak_rss(record: &mut Json, peak: Option<u64>, is_linux: bool, os: &str) {
    record.push("peak_rss_bytes", peak);
    match peak {
        Some(_) => {}
        None if is_linux => record.push("peak_rss_note", "VmHWM missing from /proc/self/status"),
        None => record.push(
            "peak_rss_note",
            format!("unavailable on {os}: VmHWM requires linux /proc"),
        ),
    }
}

/// Appends the process peak RSS to `record`, prints it, and writes it to
/// `out_dir/file` (creating the directory). Write failures warn on stderr.
pub fn write_record(out_dir: &Path, file: &str, mut record: Json) {
    push_peak_rss(
        &mut record,
        peak_rss_bytes(),
        cfg!(target_os = "linux"),
        std::env::consts::OS,
    );
    let text = format!("{record}\n");
    print!("{text}");
    let path = out_dir.join(file);
    report_write(
        &path,
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text)),
    );
}

/// Reports the outcome of writing `path` on stderr: where it went, or a
/// warning naming the error.
pub fn report_write(path: &Path, result: std::io::Result<()>) {
    match result {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

impl From<CacheStats> for Json {
    fn from(s: CacheStats) -> Json {
        obj! {
            "hits": s.hits,
            "misses": s.misses,
            "fallbacks": s.fallbacks,
            "entries_live": s.entries_live,
            "hit_rate": s.hit_rate(),
        }
    }
}

impl From<&ScalePoint> for Json {
    fn from(p: &ScalePoint) -> Json {
        obj! {
            "nodes": p.nodes,
            "area_side_m": p.area_side,
            "tile_count": p.tile_count,
            "substrate_build_s": p.substrate_build_s,
            "eager_build_s": p.eager_build_s,
            "region_build_s": p.region_build_s,
            "materialized_tiles": p.materialized_tiles,
            "materialized_nodes": p.materialized_nodes,
            "substrate_heap_bytes": p.substrate_heap_bytes,
            "windows": p.windows,
            "tasks": p.tasks,
            "failed_tasks": p.failed_tasks,
            "tasks_per_sec": p.tasks_per_sec,
            "decisions_per_sec": p.decisions_per_sec,
            "allocs_per_decision": p.allocs_per_decision,
            "peak_rss_bytes": p.peak_rss_bytes,
        }
    }
}

impl From<&ServicePoint> for Json {
    fn from(p: &ServicePoint) -> Json {
        obj! {
            "topology": p.topology.as_str(),
            "nodes": p.nodes,
            "sessions": p.sessions,
            "groups": p.groups,
            "membership_updates": p.membership_updates,
            "fault_crashes": p.fault_crashes,
            "skipped_empty": p.skipped_empty,
            "sequential_sessions_per_sec": p.sequential_sessions_per_sec,
            "decisions_per_sec": p.decisions_per_sec,
            "threads": p.threads,
            "parallel_sessions_per_sec": p.parallel_sessions_per_sec,
            "parallel_p50_latency_ms": p.parallel_p50_latency_ms,
            "parallel_p99_latency_ms": p.parallel_p99_latency_ms,
            "speedup": p.speedup,
            "parallel_scaling": p.parallel_scaling,
            "allocs_per_session": p.allocs_per_session,
            "steady_alloc_drift": p.steady_alloc_drift,
            "reports_match": p.reports_match,
            "decision_cache": p.cache,
        }
    }
}

impl From<&CampaignRow> for Json {
    fn from(r: &CampaignRow) -> Json {
        let causes = FailureCause::ALL
            .iter()
            .map(|c| (c.as_str().to_string(), r.cause_counts[c.index()].into()))
            .collect();
        obj! {
            "intensity": r.intensity,
            "protocol": r.protocol.as_str(),
            "delivered": r.delivered,
            "total_dests": r.total_dests,
            "delivery_ratio": r.delivery_ratio,
            "justified_failures": r.justified_failures,
            "unjustified_failures": r.unjustified_failures,
            "unjustified_rate": r.unjustified_rate,
            "mean_dest_hops": r.mean_dest_hops,
            "mean_path_stretch": r.mean_path_stretch,
            "total_hops": r.total_hops,
            "hop_overhead": r.hop_overhead,
            "causes": Json::Obj(causes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(v: &Json) -> String {
        v.to_string()
    }

    fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
        match v {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let v = Json::from("a\"b\\c\nd\re\tf\u{1}g\u{1f}");
        assert_eq!(text(&v), r#""a\"b\\c\nd\re\tf\u0001g\u001f""#);
    }

    #[test]
    fn non_ascii_passes_through() {
        assert_eq!(text(&Json::from("λ = 0.3 — π")), "\"λ = 0.3 — π\"");
    }

    #[test]
    fn keys_are_escaped_too() {
        let v = Json::Obj(vec![("a\"b".into(), Json::Null)]);
        assert_eq!(text(&v), "{\n  \"a\\\"b\": null\n}");
    }

    #[test]
    fn non_finite_floats_are_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(text(&Json::from(x)), "null");
        }
        assert_eq!(text(&Json::from(1.5)), "1.500000");
        assert_eq!(text(&Json::from(-0.25)), "-0.250000");
        assert_eq!(text(&Json::from(0.0)), "0.000000");
        assert_eq!(text(&Json::from(4.25e-7)), "4.250000e-7");
        assert_eq!(text(&Json::from(-1e-5)), "-1.000000e-5");
    }

    #[test]
    fn scalars_render_as_json_literals() {
        assert_eq!(text(&Json::from(true)), "true");
        assert_eq!(text(&Json::from(-3i64)), "-3");
        assert_eq!(text(&Json::from(42usize)), "42");
        assert_eq!(text(&Json::from(None::<u64>)), "null");
        assert_eq!(text(&Json::from(Some(7u64))), "7");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(text(&Json::Arr(vec![])), "[]");
        assert_eq!(text(&Json::Obj(vec![])), "{}");
        assert_eq!(
            text(&obj! { "a": Json::Arr(vec![]), "b": obj! {} }),
            "{\n  \"a\": [],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn nesting_is_pretty_two_levels_deep_then_inline() {
        let v = obj! {
            "schema": "x",
            "rows": Json::Arr(vec![obj! { "k": [1usize, 2].into_iter().collect::<Json>(), "c": obj! { "z": 0usize } }]),
        };
        assert_eq!(
            text(&v),
            "{\n  \"schema\": \"x\",\n  \"rows\": [\n    { \"k\": [1, 2], \"c\": { \"z\": 0 } }\n  ]\n}"
        );
    }

    #[test]
    fn key_order_is_insertion_order() {
        let mut v = obj! { "zeta": 1usize, "alpha": 2usize };
        v.push("mid", 3usize);
        let t = text(&v);
        let (z, a, m) = (t.find("zeta"), t.find("alpha"), t.find("mid"));
        assert!(z < a && a < m, "{t}");
        assert_eq!(get(&v, "alpha"), Some(&Json::Int(2)));
        assert_eq!(get(&v, "nope"), None);
    }

    #[test]
    fn spread_orders_its_samples() {
        let s = Spread::of(&mut [3.0, 1.0, 5.0, 2.0, 4.0]);
        assert_eq!(
            s,
            Spread {
                trials: 5,
                median: 3.0,
                min: 1.0,
                max: 5.0
            }
        );
        let json = text(&Json::from(s));
        assert!(json.contains("\"trials\": 5") && json.contains("\"median\": 3.000000"));
    }

    #[test]
    fn measure_runs_every_trial_for_the_minimum_time() {
        let mut calls = 0usize;
        let start = Instant::now();
        let s = measure(|| {
            calls += 1;
            2
        });
        assert!(start.elapsed() >= MIN_TRIAL * TRIALS as u32);
        assert_eq!(s.trials, TRIALS);
        assert!(s.min > 0.0 && s.min <= s.median && s.median <= s.max);
        assert!(calls >= TRIALS);
        let secs = seconds_per(|| std::thread::sleep(Duration::from_micros(50)));
        assert!(secs.min >= 50e-6 && secs.min <= secs.median && secs.median <= secs.max);
    }

    #[test]
    fn trials_run_in_order() {
        let mut n = 0;
        let runs = trials(|| {
            n += 1;
            n
        });
        assert_eq!(runs, [1, 2, 3, 4, 5]);
        assert_eq!(Spread::over(&runs, |&r| f64::from(r)).median, 3.0);
    }

    #[test]
    fn peak_rss_is_a_plain_field_with_a_note_only_when_missing() {
        let mut present = obj! { "schema": "x" };
        push_peak_rss(&mut present, Some(2048), true, "linux");
        assert_eq!(get(&present, "peak_rss_bytes"), Some(&Json::Int(2048)));
        assert_eq!(get(&present, "peak_rss_note"), None);

        let mut off_linux = obj! {};
        push_peak_rss(&mut off_linux, None, false, "macos");
        assert_eq!(get(&off_linux, "peak_rss_bytes"), Some(&Json::Null));
        assert_eq!(
            get(&off_linux, "peak_rss_note"),
            Some(&Json::from(
                "unavailable on macos: VmHWM requires linux /proc"
            ))
        );

        let mut no_proc = obj! {};
        push_peak_rss(&mut no_proc, None, true, "linux");
        assert_eq!(
            get(&no_proc, "peak_rss_note"),
            Some(&Json::from("VmHWM missing from /proc/self/status"))
        );
        assert_eq!(
            text(&no_proc),
            "{\n  \"peak_rss_bytes\": null,\n  \"peak_rss_note\": \"VmHWM missing from /proc/self/status\"\n}"
        );
    }

    #[test]
    fn cache_stats_convert_with_their_hit_rate() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            fallbacks: 0,
            entries_live: 2,
        };
        let v = Json::from(stats);
        assert_eq!(get(&v, "hits"), Some(&Json::Int(3)));
        assert_eq!(get(&v, "hit_rate"), Some(&Json::Num(0.75)));
    }

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\ttest\nVmPeak:\t  123 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
    }

    #[test]
    fn missing_line_is_none() {
        assert_eq!(parse_vm_hwm("Name:\ttest\n"), None);
    }

    #[test]
    fn malformed_value_is_none() {
        assert_eq!(parse_vm_hwm("VmHWM:\tpotato kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_a_positive_peak() {
        let rss = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(rss > 1024 * 1024, "a test process uses at least a MiB");
    }
}
