//! Oracle-consistency certificate, protocol-independent.
//!
//! The delivery-guarantee oracle (`FaultScratch::classify_failures`) is
//! the judge behind every robustness campaign and behind the MCFR/GVG
//! guarantee certificates, so its verdicts must themselves be checked
//! against an independent model. These proptests rebuild the
//! pessimistically-faulted reachability graph from the raw fault plan —
//! without touching the oracle's compiled state — and assert that a
//! failure is *justified* exactly when the destination is genuinely dead
//! or unreachable, for any topology, crash/blackout plan, Bernoulli
//! sample, and recorded proximate cause.

use gmp_faults::{FailedDest, FailureCause, FaultEvent, FaultPlan, FaultRegion, FaultScratch};
use gmp_geom::Point;
use gmp_net::mobility::RandomWaypoint;
use gmp_net::topology::TopologyConfig;
use gmp_net::{NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The reference "ever down" set: Bernoulli deaths plus every node named
/// by a crash (any time — the oracle is pessimistic) or covered by a
/// blackout region. Mirrors the documented excision rule, not the
/// oracle's code.
fn reference_down(topo: &Topology, plan: &FaultPlan, bern_dead: &[bool]) -> Vec<bool> {
    let mut down = bern_dead.to_vec();
    for ev in &plan.events {
        match *ev {
            FaultEvent::Crash { node, .. } => {
                if node.index() < topo.len() {
                    down[node.index()] = true;
                }
            }
            FaultEvent::Blackout { region, .. } => {
                for (i, dead) in down.iter_mut().enumerate() {
                    if region.contains(topo.pos(NodeId(i as u32))) {
                        *dead = true;
                    }
                }
            }
            FaultEvent::DutyCycle { .. } | FaultEvent::LinkChurn { .. } => {}
        }
    }
    down
}

/// Reference reachability from `source` over the unit-disk graph minus
/// the down nodes (the source itself always counts as reached).
fn reference_reach(topo: &Topology, down: &[bool], source: NodeId) -> Vec<bool> {
    let mut reach = vec![false; topo.len()];
    reach[source.index()] = true;
    let mut stack = vec![source];
    while let Some(u) = stack.pop() {
        for &v in topo.neighbors(u) {
            if !reach[v.index()] && !down[v.index()] {
                reach[v.index()] = true;
                stack.push(v);
            }
        }
    }
    reach
}

/// Runs one plan through `begin_task` → `advance_to(end)` →
/// `classify_failures` with every non-source node pending, exactly as the
/// task runner would at the end of a run.
#[allow(clippy::too_many_arguments)]
fn classify(
    topo: &Topology,
    plan: &FaultPlan,
    source: NodeId,
    bern_dead: &[bool],
    drop_cause: &[FailureCause],
    truncated: bool,
) -> Vec<FailedDest> {
    let mut scratch = FaultScratch::new();
    let mut alive: Vec<bool> = bern_dead.iter().map(|&d| !d).collect();
    if plan.has_events() {
        scratch.begin_task(plan, topo, source, &mut alive);
        scratch.advance_to(1e9, source, &mut alive);
    }
    let pending: Vec<bool> = (0..topo.len())
        .map(|i| NodeId(i as u32) != source)
        .collect();
    let mut out = Vec::new();
    scratch.classify_failures(
        topo,
        source,
        plan.has_events(),
        &alive,
        &pending,
        drop_cause,
        truncated,
        &mut out,
    );
    out
}

/// The proximate causes the event loop can record for a drop.
const PROXIMATE: [FailureCause; 5] = [
    FailureCause::NoRoute,
    FailureCause::DeadNode,
    FailureCause::LinkLoss,
    FailureCause::Collision,
    FailureCause::HopCap,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Justified ⟺ genuinely dead or unreachable, for crash/blackout
    /// plans (no link churn, so the reference graph is exact).
    #[test]
    fn justified_iff_unreachable_under_crashes_and_blackouts(
        topo_seed in 0u64..1000,
        n in 12usize..50,
        crash_frac in 0.0f64..0.4,
        crash_seed in 0u64..1000,
        late_crash in proptest::bool::ANY,
        with_blackout in proptest::bool::ANY,
        blackout in (0.0f64..600.0, 0.0f64..600.0, 50.0f64..250.0),
        bern_seed in 0u64..1000,
        cause_seed in 0usize..1000,
        truncated in proptest::bool::ANY,
    ) {
        let topo = Topology::random(&TopologyConfig::new(600.0, n, 150.0), topo_seed);
        let source = NodeId((topo_seed % n as u64) as u32);

        // Crashes at t = 0 or mid-run — the oracle is equally pessimistic
        // about both.
        let crash_at = if late_crash { 1.5 } else { 0.0 };
        let mut plan = FaultPlan::random_crashes(n, crash_frac, crash_at, crash_seed);
        if with_blackout {
            let (x, y, r) = blackout;
            plan = plan.with_blackout(
                FaultRegion::Rect {
                    min: Point::new(x - r, y - r),
                    max: Point::new(x + r, y + r),
                },
                0.5,
                2.0,
            );
        }

        // A deterministic pseudo-Bernoulli sample, source exempt.
        let bern_dead: Vec<bool> = (0..n)
            .map(|i| {
                NodeId(i as u32) != source
                    && (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(bern_seed) % 7 == 0
            })
            .collect();
        let drop_cause: Vec<FailureCause> = (0..n)
            .map(|i| PROXIMATE[(i + cause_seed) % PROXIMATE.len()])
            .collect();

        let out = classify(&topo, &plan, source, &bern_dead, &drop_cause, truncated);

        let down = reference_down(&topo, &plan, &bern_dead);
        let reach = reference_reach(&topo, &down, source);

        // One verdict per pending destination, in ascending order.
        prop_assert_eq!(out.len(), n - 1);
        for w in out.windows(2) {
            prop_assert!(w[0].dest < w[1].dest);
        }

        for f in &out {
            let i = f.dest.index();
            if down[i] {
                prop_assert_eq!(f.cause, FailureCause::DestDead, "dest {i} is down");
            } else if !reach[i] {
                prop_assert_eq!(f.cause, FailureCause::Disconnected, "dest {i} is cut off");
            } else if truncated && drop_cause[i] == FailureCause::NoRoute {
                prop_assert_eq!(f.cause, FailureCause::Truncated, "dest {i} unresolved at cap");
            } else {
                // Reachable: the oracle must pass the proximate cause
                // through untouched — a protocol failure.
                prop_assert_eq!(f.cause, drop_cause[i], "dest {i} is reachable");
            }
            // The headline equivalence: justified ⟺ genuinely impossible.
            prop_assert_eq!(
                f.is_justified(),
                down[i] || !reach[i],
                "dest {i}: verdict {:?} vs down={} reach={}",
                f.cause,
                down[i],
                reach[i]
            );
        }
    }

    /// With link churn the exact severed set lives inside the oracle, but
    /// two directions stay independently checkable: severing links never
    /// revives a node (DestDead is exact), and a destination unreachable
    /// even on the node-excised graph must be justified — removing links
    /// only shrinks reachability, so an unjustified verdict would be a
    /// soundness bug.
    #[test]
    fn churn_only_ever_shrinks_reachability(
        topo_seed in 0u64..500,
        n in 20usize..60,
        crash_frac in 0.0f64..0.3,
        churn_seed in 0u64..1000,
        truncated in proptest::bool::ANY,
    ) {
        let topo = Topology::random(&TopologyConfig::new(500.0, n, 150.0), topo_seed);
        let source = NodeId((topo_seed % n as u64) as u32);
        let plan = FaultPlan::random_crashes(n, crash_frac, 0.0, topo_seed)
            .with_link_churn(1.0, 30.0, (20.0, 40.0), (0.0, 0.5), churn_seed);

        let bern_dead = vec![false; n];
        let drop_cause = vec![FailureCause::NoRoute; n];
        let out = classify(&topo, &plan, source, &bern_dead, &drop_cause, truncated);

        let down = reference_down(&topo, &plan, &bern_dead);
        let reach = reference_reach(&topo, &down, source);

        prop_assert_eq!(out.len(), n - 1);
        for f in &out {
            let i = f.dest.index();
            prop_assert_eq!(f.cause == FailureCause::DestDead, down[i], "dest {i}");
            if !down[i] && !reach[i] {
                prop_assert!(
                    f.is_justified(),
                    "dest {i} unreachable without churn but verdict {:?}",
                    f.cause
                );
            }
        }
    }
}

/// The per-task BFS oracle the memoized component labels replaced, kept
/// verbatim as the reference for scratch reuse: the excised graph is
/// rebuilt from the plan for every task (`ever_down` and `ever_severed`
/// exactly as plan compilation derives them), and reachability is a
/// fresh directed BFS from the source.
struct BfsOracle {
    ever_down: Vec<bool>,
    ever_severed: Vec<u64>,
    bern_dead: Vec<bool>,
    reach: Vec<bool>,
    stack: Vec<u32>,
}

fn link_key(from: NodeId, to: NodeId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

impl BfsOracle {
    /// `bern_dead` is the Bernoulli sample as `begin_task` snapshots it.
    fn new(topo: &Topology, plan: &FaultPlan, bern_dead: &[bool]) -> Self {
        let n = topo.len();
        let mut ever_down = vec![false; n];
        let mut ever_severed = Vec::new();
        for ev in &plan.events {
            match *ev {
                FaultEvent::Crash { node, .. } => {
                    if node.index() < n {
                        ever_down[node.index()] = true;
                    }
                }
                FaultEvent::Blackout { region, .. } => {
                    for (i, down) in ever_down.iter_mut().enumerate() {
                        if region.contains(topo.pos(NodeId(i as u32))) {
                            *down = true;
                        }
                    }
                }
                FaultEvent::DutyCycle { .. } => {}
                FaultEvent::LinkChurn {
                    start_s,
                    end_s,
                    speed_mps,
                    pause_s,
                    seed,
                } => {
                    let mut walk = RandomWaypoint::new(
                        topo.area(),
                        topo.len(),
                        topo.radio_range(),
                        speed_mps,
                        pause_s,
                        seed,
                    );
                    let before = walk.snapshot();
                    walk.advance(end_s - start_s);
                    let after = walk.snapshot();
                    for u in 0..topo.len() {
                        let u_id = NodeId(u as u32);
                        for &v in before.neighbors(u_id) {
                            if after.neighbors(u_id).binary_search(&v).is_err()
                                && topo.neighbors(u_id).binary_search(&v).is_ok()
                            {
                                ever_severed.push(link_key(u_id, v));
                            }
                        }
                    }
                }
            }
        }
        ever_severed.sort_unstable();
        ever_severed.dedup();
        BfsOracle {
            ever_down,
            ever_severed,
            bern_dead: bern_dead.to_vec(),
            reach: Vec::new(),
            stack: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn classify_failures(
        &mut self,
        topo: &Topology,
        source: NodeId,
        has_events: bool,
        alive: &[bool],
        pending: &[bool],
        drop_cause: &[FailureCause],
        truncated: bool,
        out: &mut Vec<FailedDest>,
    ) {
        let n = topo.len();
        let node_down = |i: usize| {
            if has_events {
                self.bern_dead[i] || self.ever_down[i]
            } else {
                !alive[i]
            }
        };
        let check_links = has_events && !self.ever_severed.is_empty();

        self.reach.clear();
        self.reach.resize(n, false);
        self.stack.clear();
        self.reach[source.index()] = true;
        self.stack.push(source.0);
        while let Some(u) = self.stack.pop() {
            let u_id = NodeId(u);
            for &v in topo.neighbors(u_id) {
                if self.reach[v.index()] || node_down(v.index()) {
                    continue;
                }
                if check_links && self.ever_severed.binary_search(&link_key(u_id, v)).is_ok() {
                    continue;
                }
                self.reach[v.index()] = true;
                self.stack.push(v.0);
            }
        }

        for (i, &p) in pending.iter().enumerate() {
            if !p {
                continue;
            }
            let cause = if node_down(i) {
                FailureCause::DestDead
            } else if !self.reach[i] {
                FailureCause::Disconnected
            } else if truncated && drop_cause[i] == FailureCause::NoRoute {
                FailureCause::Truncated
            } else {
                drop_cause[i]
            };
            out.push(FailedDest::new(NodeId(i as u32), cause));
        }
    }
}

/// Crash, crash + blackout, two churn episodes over the same crashes,
/// Bernoulli-only, Bernoulli + crash, and the empty plan, written for
/// `n` nodes. The plans built on `crashes(0.1, 0.0)` share one down mask
/// and differ only in their severed links. A plan may run on the other
/// topology; crashes aimed past its last node are inert.
fn plan_pool(n: usize, seed: u64) -> Vec<FaultPlan> {
    let crashes = |frac, at| FaultPlan::random_crashes(n, frac, at, seed);
    let churn = |walk_seed| {
        crashes(0.1, 0.0).with_link_churn(1.0, 30.0, (20.0, 40.0), (0.0, 0.5), walk_seed)
    };
    vec![
        crashes(0.1, 0.0),
        crashes(0.3, 1.5),
        crashes(0.1, 0.0).with_blackout(
            FaultRegion::Disk {
                center: Point::new(250.0, 250.0),
                radius: 120.0,
            },
            0.5,
            2.0,
        ),
        churn(seed),
        churn(seed + 1),
        FaultPlan::none().with_node_failure_prob(0.2),
        crashes(0.1, 0.0).with_node_failure_prob(0.15),
        FaultPlan::none(),
    ]
}

const PLANS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One scratch, many tasks: every verdict list equals the per-task
    /// BFS reference, however the sequence switches topology, plan, and
    /// Bernoulli sample, and whether the source itself crashed. Stale
    /// memoized labels (or a stale compiled plan) after any switch would
    /// show up as a diverging verdict. Each task flips the topology and
    /// switches the plan independently, so topology-only and plan-only
    /// switches are both common.
    #[test]
    fn reused_scratch_matches_the_per_task_bfs(
        topo_seed in 0u64..1000,
        nodes in 30usize..60,
        same_size in proptest::bool::ANY,
        fewer in 1usize..20,
        plan_seed in 0u64..1000,
        tasks in proptest::collection::vec(
            (
                (proptest::bool::ANY, proptest::bool::ANY, 0..PLANS, 0u32..1000),
                (proptest::bool::ANY, 0u64..1000, 0u64..1000, proptest::bool::ANY),
            ),
            1..16,
        ),
    ) {
        let topos = [
            Topology::random(&TopologyConfig::new(700.0, nodes, 150.0), topo_seed),
            Topology::random(
                &TopologyConfig::new(700.0, nodes - if same_size { 0 } else { fewer }, 150.0),
                topo_seed + 1,
            ),
        ];
        let plans = plan_pool(nodes, plan_seed);
        let mut scratch = FaultScratch::new();
        let (mut topo_at, mut plan_at) = (0, 0);
        for (t, task) in tasks.iter().enumerate() {
            let (
                (flip_topo, switch_plan, plan_pick, source_pick),
                (crashed_source, pending_seed, sample_seed, truncated),
            ) = *task;
            topo_at ^= usize::from(flip_topo);
            if switch_plan {
                plan_at = plan_pick;
            }
            let topo = &topos[topo_at];
            let plan = &plans[plan_at];
            let n = topo.len();
            let crashed = plan.events.iter().find_map(|ev| match *ev {
                FaultEvent::Crash { node, .. } if node.index() < n => Some(node),
                _ => None,
            });
            let source = match crashed {
                Some(node) if crashed_source => node,
                _ => NodeId(source_pick % n as u32),
            };

            // The runner's order: Bernoulli sample, then the timeline.
            let mut rng = StdRng::seed_from_u64(sample_seed);
            let mut alive = vec![true; n];
            plan.sample_node_failures(&mut rng, source, &mut alive);
            let bern_dead: Vec<bool> = alive.iter().map(|&a| !a).collect();
            if plan.has_events() {
                scratch.begin_task(plan, topo, source, &mut alive);
                scratch.advance_to(1e9, source, &mut alive);
            }
            // Pending: a pseudo-random subset, now and then the source.
            let pending: Vec<bool> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(pending_seed) % 3 != 0)
                .collect();
            let drop_cause: Vec<FailureCause> = (0..n)
                .map(|i| PROXIMATE[(i + pending_seed as usize) % PROXIMATE.len()])
                .collect();

            let mut got = Vec::new();
            scratch.classify_failures(
                topo, source, plan.has_events(), &alive, &pending, &drop_cause,
                truncated, &mut got,
            );
            let mut want = Vec::new();
            BfsOracle::new(topo, plan, &bern_dead).classify_failures(
                topo, source, plan.has_events(), &alive, &pending, &drop_cause,
                truncated, &mut want,
            );
            prop_assert_eq!(got, want, "task {} of {:?}", t, tasks);
        }
    }
}
