//! What the benchmark checks and sums over the `TaskReport`s it gets back.

use gmp_sim::{MulticastTask, TaskReport};

/// A running 64-bit digest over tasks and their reports. Two runs with
/// the same digest produced the same simulated output, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// Folds one task and every field of its report into the digest.
    pub fn add(&mut self, task: &MulticastTask, r: &TaskReport) {
        self.word(task.source.0 as u64);
        for d in &task.dests {
            self.word(d.0 as u64);
        }
        self.word(r.transmissions as u64);
        self.word(r.energy_j.to_bits());
        for (d, h) in &r.delivery_hops {
            self.word(((d.0 as u64) << 32) | *h as u64);
        }
        for (d, t) in &r.delivery_times_s {
            self.word(d.0 as u64);
            self.word(t.to_bits());
        }
        for f in &r.failed_dests {
            self.word(((f.dest.0 as u64) << 8) | f.cause.index() as u64);
        }
        self.word(r.dropped_packets as u64);
        self.word(r.completion_time_s.to_bits());
        self.word(r.bytes_transmitted as u64);
        self.word(r.truncated as u64);
        for ((a, b), t) in r.links.iter().zip(&r.link_times_s) {
            self.word(((a.0 as u64) << 32) | b.0 as u64);
            self.word(t.to_bits());
        }
    }

    /// Folds a session's id and failure-injection seed into the digest.
    pub fn add_ids(&mut self, id: u64, seed: u64) {
        self.word(id);
        self.word(seed);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The paper's per-task quantities, summed over a list of reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Tasks (or sessions) run.
    pub tasks: u64,
    /// Destinations attempted.
    pub attempted: u64,
    /// Destinations reached.
    pub delivered: u64,
    /// Destinations not reached.
    pub failed: u64,
    /// Failures the oracle blames on the protocol.
    pub unjustified: u64,
    /// Transmissions (Fig. 11's total hops).
    pub transmissions: u64,
    /// Energy, joules (Fig. 14).
    pub energy_j: f64,
    /// Sum of delivered destinations' hop counts (Fig. 12).
    pub dest_hops: u64,
}

impl SimTotals {
    /// Adds one report.
    pub fn add(&mut self, task: &MulticastTask, r: &TaskReport) {
        self.tasks += 1;
        self.attempted += task.dests.len() as u64;
        self.delivered += r.delivered_count() as u64;
        self.failed += r.failed_dests.len() as u64;
        self.unjustified += r.unjustified_failures().count() as u64;
        self.transmissions += r.transmissions as u64;
        self.energy_j += r.energy_j;
        self.dest_hops += r.delivery_hops.values().map(|&h| h as u64).sum::<u64>();
    }

    /// Undelivered destinations / attempted destinations.
    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Destinations the oracle blames on the protocol / attempted.
    pub fn unjustified_ratio(&self) -> f64 {
        ratio(self.unjustified, self.attempted)
    }

    /// Transmissions per task.
    pub fn transmissions_per_task(&self) -> f64 {
        ratio(self.transmissions, self.tasks)
    }

    /// Energy per task, millijoules.
    pub fn energy_mj_per_task(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.energy_j * 1e3 / self.tasks as f64
        }
    }

    /// Mean hop count over delivered destinations.
    pub fn mean_dest_hops(&self) -> f64 {
        ratio(self.dest_hops, self.delivered)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks one report against its task. Every report must account for
/// each destination exactly once and must not have hit the event cap;
/// with `require_delivery` every destination must also be reached.
pub fn check(task: &MulticastTask, r: &TaskReport, require_delivery: bool) -> Result<(), String> {
    let accounted = r.delivered_count() + r.failed_dests.len();
    if accounted != task.dests.len() {
        return Err(format!(
            "task from {}: delivered {} + failed {} != attempted {}",
            task.source,
            r.delivered_count(),
            r.failed_dests.len(),
            task.dests.len()
        ));
    }
    if r.truncated {
        return Err(format!("task from {}: report truncated", task.source));
    }
    if require_delivery && !r.failed_dests.is_empty() {
        return Err(format!(
            "task from {}: {} destinations failed on a fault-free network",
            task.source,
            r.failed_dests.len()
        ));
    }
    Ok(())
}
