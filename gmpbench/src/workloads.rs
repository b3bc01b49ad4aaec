//! The three workloads, generated from the run's seed.
//!
//! The library only ever sees the generated inputs: a topology, a task
//! list or a `ServiceWorkload`, and a fault plan.

use std::collections::HashSet;
use std::str::FromStr;

use gmp_net::{NodeId, Topology};
use gmp_service::{ServiceWorkload, WorkloadParams};
use gmp_sim::{FaultPlan, MulticastTask, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Destinations per task on the task workloads.
pub const K: usize = 25;
/// Share of nodes `crash10-k25` crashes at t = 0.
pub const CRASH_FRACTION: f64 = 0.10;
/// Share of nodes `service-2w` crashes at t = 0 (BENCH_5's rate).
pub const SERVICE_CRASH_FRACTION: f64 = 0.01;
/// Session-engine worker threads on `service-2w`.
pub const WORKERS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh random tasks, no faults: the uncached decision path.
    Fresh,
    /// Fresh random tasks with 10% of nodes crashed: the failure oracle
    /// and the void paths.
    Crash10,
    /// Repeat-group sessions through the 2-worker session engine over one
    /// shared decision cache.
    Service2w,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fresh, Workload::Crash10, Workload::Service2w];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fresh => "fresh-k25",
            Workload::Crash10 => "crash10-k25",
            Workload::Service2w => "service-2w",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// How much work one pass does, and how set-up and replay are sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Tasks per pass on the task workloads.
    pub tasks: usize,
    /// Warm-up tasks run during set-up (distinct from the measured ones).
    pub warmup_tasks: usize,
    /// Independent BENCH_5-shaped services per pass on `service-2w`, each
    /// with its own 16 groups and its own decision cache, so a run
    /// averages over 64 groups' geometry.
    pub service_workloads: usize,
    /// Sessions per service workload.
    pub sessions: usize,
    /// Sessions per `run_parallel` call on `service-2w`: the timed unit.
    pub chunk_sessions: usize,
    /// Times set-up is repeated; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Sessions replayed solo for the `reports_match` certificate.
    pub solo_replays: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub const BENCH: Sizes = Sizes {
        tasks: 2000,
        warmup_tasks: 300,
        service_workloads: 4,
        sessions: 1500,
        chunk_sessions: 250,
        setup_repeats: 5,
        solo_replays: 48,
    };
}

/// Independent seed streams derived from the run's seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Topology placement.
    Topology = 1,
    /// Task list.
    Tasks = 2,
    /// Crash plan.
    Crashes = 3,
    /// Service workload (groups, churn, arrivals).
    Service = 4,
    /// Which sessions are replayed solo.
    SoloSample = 5,
}

/// A 64-bit seed for `stream`, mixed from the run's seed (splitmix64).
pub fn derive(seed: u64, stream: Stream) -> u64 {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper's deployment (1000 nodes, 1000 m × 1000 m, 150 m): the first
/// connected draw of the seed's topology stream, since the paper evaluates
/// connected networks.
pub fn paper_topology(config: &SimConfig, seed: u64) -> Topology {
    let tc = config.topology_config();
    let base = derive(seed, Stream::Topology);
    (0..64u64)
        .map(|i| Topology::random(&tc, base.wrapping_add(i)))
        .find(Topology::is_connected)
        .expect("64 consecutive disconnected draws at paper density")
}

/// `count` random `(source, K destinations)` tasks in which no
/// `(source, destination set)` pair repeats.
pub fn fresh_tasks(topo: &Topology, count: usize, seed: u64) -> Vec<MulticastTask> {
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::Tasks));
    let mut seen: HashSet<(NodeId, Vec<NodeId>)> = HashSet::with_capacity(count);
    let mut tasks = Vec::with_capacity(count);
    while tasks.len() < count {
        let task = MulticastTask::random(topo, K, rng.gen());
        let mut key = task.dests.clone();
        key.sort_unstable();
        if seen.insert((task.source, key)) {
            tasks.push(task);
        }
    }
    tasks
}

/// `fraction` of the topology's nodes crashed at t = 0.
pub fn crash_plan(topo: &Topology, fraction: f64, seed: u64) -> FaultPlan {
    FaultPlan::random_crashes(topo.len(), fraction, 0.0, derive(seed, Stream::Crashes))
}

/// The `index`-th service workload of a seed, in the BENCH_5 repeat-group
/// shape: 16 groups of 24 initial members, membership churn, and the crash
/// plan's nodes leaving their groups after a 30 s detection delay.
pub fn service_workload(
    topo: &Topology,
    plan: &FaultPlan,
    sessions: usize,
    seed: u64,
    index: usize,
) -> ServiceWorkload {
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
    let seed = derive(seed, Stream::Service).wrapping_add(index as u64);
    ServiceWorkload::random(&candidates, &params, plan, seed)
}
