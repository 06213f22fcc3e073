//! Chaos engine substrate: declarative fault plans, a seeded plan
//! generator, and a deterministic shrinker.
//!
//! The paper's guarantees are probabilistic completeness and accuracy
//! under i.i.d. message loss and fail-stop crashes; this module
//! systematically explores fault *schedules* well beyond that model —
//! correlated burst loss, partitions, delay jitter past `Thop`,
//! stale-message replay, and crash cascades.
//!
//! A [`FaultPlan`] is a declarative, seed-reproducible schedule of
//! [`FaultPrimitive`]s. Point faults (crashes, cascades) compile
//! directly onto the simulator's event queue via
//! [`Simulator::schedule_crash`]; windowed faults (storms, partitions,
//! lag, replay) compile to a sorted action list that [`run_plan`]
//! interleaves with [`Simulator::run_until_observed`] segments, so an
//! online monitor observes every effective event while the plan
//! executes. Everything is deterministic: the same `(plan, seed)` pair
//! produces a byte-identical event stream for any worker count.
//!
//! [`shrink`] reduces a failing plan to a minimal reproducing schedule
//! by greedy chunk removal (delta debugging) followed by primitive
//! weakening, re-testing the candidate after every step with a
//! caller-supplied oracle.

use crate::actor::Actor;
use crate::id::NodeId;
use crate::loss::GilbertElliott;
use crate::radio::RadioConfig;
use crate::sim::{SimEvent, Simulator};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// One scheduled fault.
///
/// Windowed primitives act over `[from, until)`; when a window closes,
/// the channel is restored to the plan's baseline (overlapping channel
/// windows therefore resolve to "latest action wins, first close
/// restores the baseline" — the compiled schedule stays deterministic
/// either way).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPrimitive {
    /// Fail-stop crash of `node` at `at`.
    Crash {
        /// Crash instant.
        at: SimTime,
        /// Crashing node.
        node: NodeId,
    },
    /// A cascade: `nodes[i]` crashes at `start + i·interval`.
    Cascade {
        /// First crash instant.
        start: SimTime,
        /// Spacing between consecutive crashes.
        interval: SimDuration,
        /// Victims, in crash order.
        nodes: Vec<NodeId>,
    },
    /// Transient i.i.d. loss storm: the channel's loss probability is
    /// raised to `p` for the window.
    LossStorm {
        /// Window start.
        from: SimTime,
        /// Window end (baseline restored).
        until: SimTime,
        /// Storm loss probability.
        p: f64,
    },
    /// Correlated Gilbert–Elliott burst storm for the window; the good
    /// state keeps the plan's baseline loss probability.
    BurstStorm {
        /// Window start.
        from: SimTime,
        /// Window end (baseline restored).
        until: SimTime,
        /// Loss probability in the bad state.
        p_bad: f64,
        /// Good→bad transition probability per offered copy.
        p_gb: f64,
        /// Bad→good transition probability per offered copy.
        p_bg: f64,
    },
    /// Network partition: nodes in different groups cannot hear each
    /// other for the window.
    Partition {
        /// Window start.
        from: SimTime,
        /// Window end (partition heals).
        until: SimTime,
        /// Group id per node (length = network size).
        groups: Vec<u32>,
    },
    /// Uniform delivery-delay jitter added to every copy during the
    /// window (stressing the paper's `Thop` bounded-delay assumption).
    DelayJitter {
        /// Window start.
        from: SimTime,
        /// Window end (baseline restored).
        until: SimTime,
        /// Maximum extra jitter.
        jitter: SimDuration,
    },
    /// Extra delivery lag on the directed link `a → b` for the window.
    LinkLag {
        /// Window start.
        from: SimTime,
        /// Window end (lag removed).
        until: SimTime,
        /// Transmitting endpoint.
        a: NodeId,
        /// Receiving endpoint.
        b: NodeId,
        /// Extra per-copy delay.
        lag: SimDuration,
    },
    /// Duplicate/stale replay: each surviving copy is duplicated with
    /// probability `prob`, the duplicate arriving `lag` later.
    Replay {
        /// Window start.
        from: SimTime,
        /// Window end (duplication disabled).
        until: SimTime,
        /// Per-copy duplication probability.
        prob: f64,
        /// Staleness of the replayed copy.
        lag: SimDuration,
    },
    /// Late arrival: the dormant node `node` powers up and runs its
    /// start hook at `at` (v2 churn primitive; the campaign driver
    /// marks join targets dormant before the run).
    Join {
        /// Activation instant.
        at: SimTime,
        /// Joining node.
        node: NodeId,
    },
    /// Graceful departure of `node` at `at`: the node announces its
    /// leave and withdraws, which must *not* trip the failure rule.
    Leave {
        /// Departure instant.
        at: SimTime,
        /// Leaving node.
        node: NodeId,
    },
    /// Return of a crashed or departed node at `at`, with whatever
    /// stale state it held when it went down.
    Rejoin {
        /// Comeback instant.
        at: SimTime,
        /// Returning node.
        node: NodeId,
    },
}

impl FaultPrimitive {
    /// The artifact-format tag naming this primitive kind.
    pub fn to_text_tag(&self) -> &'static str {
        match self {
            FaultPrimitive::Crash { .. } => "crash",
            FaultPrimitive::Cascade { .. } => "cascade",
            FaultPrimitive::LossStorm { .. } => "loss_storm",
            FaultPrimitive::BurstStorm { .. } => "burst_storm",
            FaultPrimitive::Partition { .. } => "partition",
            FaultPrimitive::DelayJitter { .. } => "delay_jitter",
            FaultPrimitive::LinkLag { .. } => "link_lag",
            FaultPrimitive::Replay { .. } => "replay",
            FaultPrimitive::Join { .. } => "join",
            FaultPrimitive::Leave { .. } => "leave",
            FaultPrimitive::Rejoin { .. } => "rejoin",
        }
    }

    /// Whether this is one of the v2 churn primitives (their presence
    /// bumps the artifact header to `cbfd-fault-plan v2`).
    pub fn is_churn(&self) -> bool {
        matches!(
            self,
            FaultPrimitive::Join { .. }
                | FaultPrimitive::Leave { .. }
                | FaultPrimitive::Rejoin { .. }
        )
    }
}

/// A deterministic, replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Baseline i.i.d. loss probability of the channel between storm
    /// windows (and of the good state inside burst storms).
    pub baseline_p: f64,
    /// Nominal duration the plan was generated for (the campaign's run
    /// deadline; primitives beyond it never fire).
    pub horizon: SimTime,
    /// The scheduled faults.
    pub primitives: Vec<FaultPrimitive>,
}

/// Bounds for the randomized plan generator.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanConfig {
    /// Network size (node ids are sampled below this).
    pub nodes: usize,
    /// Plan horizon; windows and crashes are sampled inside it.
    pub horizon: SimTime,
    /// Baseline channel loss probability.
    pub baseline_p: f64,
    /// Upper bound on sampled primitives per plan (≥ 1).
    pub max_primitives: usize,
    /// Upper bound on victims per cascade.
    pub max_cascade: usize,
    /// Whether the generator also samples the v2 churn primitives
    /// (joins, graceful leaves, rejoins). Off by default so pinned-seed
    /// v1 plans stay byte-identical.
    pub churn: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            nodes: 100,
            horizon: SimTime::from_millis(800),
            baseline_p: 0.1,
            max_primitives: 6,
            max_cascade: 8,
            churn: false,
        }
    }
}

/// A windowed action compiled from a plan, applied between observed
/// run segments.
#[derive(Debug, Clone)]
enum Action {
    Bernoulli { p: f64, jitter: SimDuration },
    Burst { p_bad: f64, p_gb: f64, p_bg: f64 },
    RestoreRadio,
    PartitionOn(Vec<u32>),
    PartitionOff,
    LinkLagOn(NodeId, NodeId, SimDuration),
    LinkLagOff(NodeId, NodeId),
    ReplayOn(f64, SimDuration),
    ReplayOff,
}

impl FaultPlan {
    /// An empty plan over a lossless-by-`p` baseline.
    pub fn empty(baseline_p: f64, horizon: SimTime) -> Self {
        FaultPlan {
            baseline_p,
            horizon,
            primitives: Vec::new(),
        }
    }

    /// Samples a randomized plan from `seed`; the same `(seed, config)`
    /// pair always yields the same plan.
    pub fn generate(seed: u64, config: &PlanConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = config.horizon.as_micros().max(8);
        let node = |rng: &mut StdRng| NodeId(rng.random_range(0..config.nodes.max(1) as u32));
        let window = |rng: &mut StdRng| {
            let from = rng.random_range(0..h * 3 / 4);
            let len = rng.random_range(h / 16..=h / 4);
            (
                SimTime::from_micros(from),
                SimTime::from_micros((from + len).min(h)),
            )
        };
        let count = rng.random_range(1..=config.max_primitives.max(1));
        let kinds: u32 = if config.churn { 11 } else { 8 };
        let mut primitives = Vec::with_capacity(count);
        for _ in 0..count {
            let primitive = match rng.random_range(0..kinds) {
                0 => FaultPrimitive::Crash {
                    at: SimTime::from_micros(rng.random_range(0..h)),
                    node: node(&mut rng),
                },
                1 => {
                    let k = rng.random_range(2..=config.max_cascade.max(2));
                    FaultPrimitive::Cascade {
                        start: SimTime::from_micros(rng.random_range(0..h / 2)),
                        interval: SimDuration::from_micros(rng.random_range(5_000..=h / 8 + 5_000)),
                        nodes: (0..k).map(|_| node(&mut rng)).collect(),
                    }
                }
                2 => {
                    let (from, until) = window(&mut rng);
                    FaultPrimitive::LossStorm {
                        from,
                        until,
                        p: rng.random_range(0.2..0.8),
                    }
                }
                3 => {
                    let (from, until) = window(&mut rng);
                    FaultPrimitive::BurstStorm {
                        from,
                        until,
                        p_bad: rng.random_range(0.6..1.0),
                        p_gb: rng.random_range(0.05..0.4),
                        p_bg: rng.random_range(0.1..0.6),
                    }
                }
                4 => {
                    let (from, until) = window(&mut rng);
                    let groups = (0..config.nodes)
                        .map(|_| u32::from(rng.random_bool(0.5)))
                        .collect();
                    FaultPrimitive::Partition {
                        from,
                        until,
                        groups,
                    }
                }
                5 => {
                    let (from, until) = window(&mut rng);
                    FaultPrimitive::DelayJitter {
                        from,
                        until,
                        jitter: SimDuration::from_micros(rng.random_range(500..20_000)),
                    }
                }
                6 => {
                    let (from, until) = window(&mut rng);
                    FaultPrimitive::LinkLag {
                        from,
                        until,
                        a: node(&mut rng),
                        b: node(&mut rng),
                        lag: SimDuration::from_micros(rng.random_range(1_000..50_000)),
                    }
                }
                7 => {
                    let (from, until) = window(&mut rng);
                    FaultPrimitive::Replay {
                        from,
                        until,
                        prob: rng.random_range(0.1..0.5),
                        lag: SimDuration::from_micros(rng.random_range(2_000..=h / 8 + 2_000)),
                    }
                }
                8 => FaultPrimitive::Join {
                    at: SimTime::from_micros(rng.random_range(0..h)),
                    node: node(&mut rng),
                },
                9 => FaultPrimitive::Leave {
                    at: SimTime::from_micros(rng.random_range(0..h)),
                    node: node(&mut rng),
                },
                _ => FaultPrimitive::Rejoin {
                    at: SimTime::from_micros(rng.random_range(0..h)),
                    node: node(&mut rng),
                },
            };
            primitives.push(primitive);
        }
        FaultPlan {
            baseline_p: config.baseline_p,
            horizon: config.horizon,
            primitives,
        }
    }

    /// Every `(instant, victim)` pair the plan's point faults produce,
    /// sorted by time (stable on ties).
    pub fn crash_schedule(&self) -> Vec<(SimTime, NodeId)> {
        let mut crashes = Vec::new();
        for p in &self.primitives {
            match p {
                FaultPrimitive::Crash { at, node } => crashes.push((*at, *node)),
                FaultPrimitive::Cascade {
                    start,
                    interval,
                    nodes,
                } => {
                    for (i, n) in nodes.iter().enumerate() {
                        crashes.push((*start + *interval * i as u64, *n));
                    }
                }
                _ => {}
            }
        }
        crashes.sort_by_key(|&(at, _)| at);
        crashes
    }

    /// Whether the plan contains any v2 churn primitive.
    pub fn has_churn(&self) -> bool {
        self.primitives.iter().any(FaultPrimitive::is_churn)
    }

    /// The distinct targets of the plan's [`FaultPrimitive::Join`]
    /// primitives, in first-mention order — the nodes a driver must
    /// mark dormant before the run so their activation is a real late
    /// arrival.
    pub fn join_targets(&self) -> Vec<NodeId> {
        let mut targets = Vec::new();
        for p in &self.primitives {
            if let FaultPrimitive::Join { node, .. } = p {
                if !targets.contains(node) {
                    targets.push(*node);
                }
            }
        }
        targets
    }

    /// Every `(instant, node, primitive-tag)` lifecycle transition the
    /// plan's churn primitives produce, sorted by time (stable on
    /// ties).
    pub fn churn_schedule(&self) -> Vec<(SimTime, NodeId, &'static str)> {
        let mut churn = Vec::new();
        for p in &self.primitives {
            match p {
                FaultPrimitive::Join { at, node } => churn.push((*at, *node, "join")),
                FaultPrimitive::Leave { at, node } => churn.push((*at, *node, "leave")),
                FaultPrimitive::Rejoin { at, node } => churn.push((*at, *node, "rejoin")),
                _ => {}
            }
        }
        churn.sort_by_key(|&(at, _, _)| at);
        churn
    }

    /// Compiles the windowed primitives to a time-sorted action list.
    fn window_actions(&self) -> Vec<(SimTime, Action)> {
        let mut actions: Vec<(SimTime, Action)> = Vec::new();
        for p in &self.primitives {
            match p {
                FaultPrimitive::Crash { .. }
                | FaultPrimitive::Cascade { .. }
                | FaultPrimitive::Join { .. }
                | FaultPrimitive::Leave { .. }
                | FaultPrimitive::Rejoin { .. } => {}
                FaultPrimitive::LossStorm { from, until, p } => {
                    actions.push((
                        *from,
                        Action::Bernoulli {
                            p: *p,
                            jitter: SimDuration::ZERO,
                        },
                    ));
                    actions.push((*until, Action::RestoreRadio));
                }
                FaultPrimitive::BurstStorm {
                    from,
                    until,
                    p_bad,
                    p_gb,
                    p_bg,
                } => {
                    actions.push((
                        *from,
                        Action::Burst {
                            p_bad: *p_bad,
                            p_gb: *p_gb,
                            p_bg: *p_bg,
                        },
                    ));
                    actions.push((*until, Action::RestoreRadio));
                }
                FaultPrimitive::Partition {
                    from,
                    until,
                    groups,
                } => {
                    actions.push((*from, Action::PartitionOn(groups.clone())));
                    actions.push((*until, Action::PartitionOff));
                }
                FaultPrimitive::DelayJitter {
                    from,
                    until,
                    jitter,
                } => {
                    actions.push((
                        *from,
                        Action::Bernoulli {
                            p: self.baseline_p,
                            jitter: *jitter,
                        },
                    ));
                    actions.push((*until, Action::RestoreRadio));
                }
                FaultPrimitive::LinkLag {
                    from,
                    until,
                    a,
                    b,
                    lag,
                } => {
                    actions.push((*from, Action::LinkLagOn(*a, *b, *lag)));
                    actions.push((*until, Action::LinkLagOff(*a, *b)));
                }
                FaultPrimitive::Replay {
                    from,
                    until,
                    prob,
                    lag,
                } => {
                    actions.push((*from, Action::ReplayOn(*prob, *lag)));
                    actions.push((*until, Action::ReplayOff));
                }
            }
        }
        actions.sort_by_key(|&(at, _)| at);
        actions
    }
}

/// Executes `plan` on `sim` up to `deadline`, invoking `observe` after
/// every effective event (see [`SimEvent`]).
///
/// Crashes are compiled onto the event queue up front; windowed faults
/// are applied between observed run segments at their exact instants.
/// Primitives that name nodes outside the topology (e.g. a plan
/// replayed against a smaller network) are skipped rather than
/// panicking, so machine-generated schedules can never abort a
/// campaign.
pub fn run_plan<A: Actor>(
    sim: &mut Simulator<A>,
    plan: &FaultPlan,
    deadline: SimTime,
    observe: &mut dyn FnMut(&Simulator<A>, SimEvent),
) {
    drive_plan(sim, plan, deadline, |sim, to| {
        sim.run_until_observed(to, observe)
    });
}

/// The engine surface a [`FaultPlan`] needs to drive a run: scheduling
/// churn, swapping channel state between windows, and advancing time.
///
/// Implemented by the legacy [`Simulator`], the single-queue
/// [`CanonicalSim`](crate::tiled::CanonicalSim), and the spatially
/// tiled [`TiledSim`](crate::tiled::TiledSim), so the same plan can be
/// replayed on any engine — the tiling differential suite leans on
/// this to compare engines under identical fault schedules (identical
/// `run_until` split points included, which matters for energy-harvest
/// float rounding).
pub trait PlanHost {
    /// Number of nodes in the topology.
    fn node_count(&self) -> usize;
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Advances the run to `deadline`.
    fn run_until(&mut self, deadline: SimTime);
    /// Schedules a fail-stop crash (saturating, non-panicking).
    fn schedule_crash(&mut self, node: NodeId, at: SimTime);
    /// Schedules the activation of a dormant node.
    fn schedule_join(&mut self, node: NodeId, at: SimTime);
    /// Schedules a graceful withdrawal.
    fn schedule_leave(&mut self, node: NodeId, at: SimTime);
    /// Schedules the return of a crashed or departed node.
    fn schedule_rejoin(&mut self, node: NodeId, at: SimTime);
    /// Marks a node as a late arrival (pre-start only).
    fn set_dormant(&mut self, node: NodeId);
    /// Swaps the channel configuration.
    fn set_radio(&mut self, radio: RadioConfig);
    /// Imposes a partition (`group_of` has one entry per node).
    fn set_partition(&mut self, group_of: Vec<u32>);
    /// Heals any partition.
    fn clear_partition(&mut self);
    /// Adds delivery lag to the directed link `from → to`.
    fn set_link_lag(&mut self, from: NodeId, to: NodeId, extra: SimDuration);
    /// Removes the lag on `from → to`.
    fn remove_link_lag(&mut self, from: NodeId, to: NodeId);
    /// Sets message duplication.
    fn set_duplication(&mut self, probability: f64, lag: SimDuration);
}

macro_rules! impl_plan_host_body {
    () => {
        fn node_count(&self) -> usize {
            self.topology().len()
        }
        fn now(&self) -> SimTime {
            self.now()
        }
        fn run_until(&mut self, deadline: SimTime) {
            self.run_until(deadline);
        }
        fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
            self.schedule_crash(node, at);
        }
        fn schedule_join(&mut self, node: NodeId, at: SimTime) {
            self.schedule_join(node, at);
        }
        fn schedule_leave(&mut self, node: NodeId, at: SimTime) {
            self.schedule_leave(node, at);
        }
        fn schedule_rejoin(&mut self, node: NodeId, at: SimTime) {
            self.schedule_rejoin(node, at);
        }
        fn set_dormant(&mut self, node: NodeId) {
            self.set_dormant(node);
        }
        fn set_radio(&mut self, radio: RadioConfig) {
            self.set_radio(radio);
        }
        fn set_partition(&mut self, group_of: Vec<u32>) {
            self.set_partition(group_of);
        }
        fn clear_partition(&mut self) {
            self.clear_partition();
        }
        fn set_link_lag(&mut self, from: NodeId, to: NodeId, extra: SimDuration) {
            self.set_link_lag(from, to, extra);
        }
        fn remove_link_lag(&mut self, from: NodeId, to: NodeId) {
            self.remove_link_lag(from, to);
        }
        fn set_duplication(&mut self, probability: f64, lag: SimDuration) {
            self.set_duplication(probability, lag);
        }
    };
}

impl<A: Actor> PlanHost for Simulator<A> {
    impl_plan_host_body!();
}

impl<A: Actor> PlanHost for crate::tiled::CanonicalSim<A> {
    impl_plan_host_body!();
}

impl<A: Actor + Send> PlanHost for crate::tiled::TiledSim<A>
where
    A::Msg: Send,
{
    impl_plan_host_body!();
}

/// [`run_plan`] for any [`PlanHost`], without an observer. Both are
/// thin callers of one driver, so two hosts fed the same plan see
/// byte-identical schedules and identical `run_until` split points.
pub fn run_plan_quiet<H: PlanHost>(host: &mut H, plan: &FaultPlan, deadline: SimTime) {
    drive_plan(host, plan, deadline, |host, to| host.run_until(to));
}

/// The one body that decides how a [`FaultPlan`] is executed: crashes
/// and churn are compiled onto the event queue up front (skipping
/// out-of-range nodes and instants past `deadline`), windowed faults
/// are applied between run segments at their exact instants, and a
/// final segment runs to `deadline`. `advance` is the only thing the
/// entry points differ in — how the host is moved to an instant.
fn drive_plan<H: PlanHost>(
    host: &mut H,
    plan: &FaultPlan,
    deadline: SimTime,
    mut advance: impl FnMut(&mut H, SimTime),
) {
    let n = host.node_count();
    for (at, node) in plan.crash_schedule() {
        if node.index() < n && at <= deadline {
            host.schedule_crash(node, at);
        }
    }
    for (at, node, kind) in plan.churn_schedule() {
        if node.index() >= n || at > deadline {
            continue;
        }
        // The schedule_* APIs are saturating and no-op on nonsensical
        // transitions, so any generated churn schedule is safe.
        match kind {
            "join" => host.schedule_join(node, at),
            "leave" => host.schedule_leave(node, at),
            _ => host.schedule_rejoin(node, at),
        }
    }
    for (at, action) in plan.window_actions() {
        if at > deadline {
            break;
        }
        // Windows are inclusive of `from`: run strictly *before* the
        // action instant so transmissions at `at` itself already see
        // the new channel state.
        if at > host.now() && at > SimTime::ZERO {
            advance(host, at - SimDuration::from_micros(1));
        }
        apply_action_on(host, &action, plan.baseline_p, n);
    }
    advance(host, deadline);
}

fn apply_action_on<H: PlanHost>(host: &mut H, action: &Action, baseline_p: f64, n: usize) {
    match action {
        Action::Bernoulli { p, jitter } => {
            host.set_radio(RadioConfig::bernoulli(*p).with_jitter(*jitter));
        }
        Action::Burst { p_bad, p_gb, p_bg } => {
            host.set_radio(RadioConfig::new(Box::new(GilbertElliott::new(
                baseline_p, *p_bad, *p_gb, *p_bg,
            ))));
        }
        Action::RestoreRadio => host.set_radio(RadioConfig::bernoulli(baseline_p)),
        Action::PartitionOn(groups) => {
            if groups.len() == n {
                host.set_partition(groups.clone());
            }
        }
        Action::PartitionOff => host.clear_partition(),
        Action::LinkLagOn(a, b, lag) => {
            if a.index() < n && b.index() < n {
                host.set_link_lag(*a, *b, *lag);
            }
        }
        Action::LinkLagOff(a, b) => host.remove_link_lag(*a, *b),
        Action::ReplayOn(prob, lag) => host.set_duplication(*prob, *lag),
        Action::ReplayOff => host.set_duplication(0.0, SimDuration::ZERO),
    }
}

// ------------------------------------------------------------ codec

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn ids(nodes: &[NodeId]) -> String {
    nodes
        .iter()
        .map(|n| n.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn groups_text(groups: &[u32]) -> String {
    groups
        .iter()
        .map(|g| g.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

impl FaultPlan {
    /// Renders the plan as the replayable line-based artifact format.
    /// Plans without churn primitives emit the `cbfd-fault-plan v1`
    /// header unchanged; the presence of any join/leave/rejoin bumps
    /// it to `v2`. [`FaultPlan::from_text`] inverts both exactly.
    pub fn to_text(&self) -> String {
        let mut out = if self.has_churn() {
            String::from("cbfd-fault-plan v2\n")
        } else {
            String::from("cbfd-fault-plan v1\n")
        };
        out.push_str(&format!("baseline_p {}\n", self.baseline_p));
        out.push_str(&format!("horizon_us {}\n", self.horizon.as_micros()));
        for p in &self.primitives {
            let line = match p {
                FaultPrimitive::Crash { at, node } => {
                    format!("crash at_us={} node={}", at.as_micros(), node.0)
                }
                FaultPrimitive::Cascade {
                    start,
                    interval,
                    nodes,
                } => format!(
                    "cascade start_us={} interval_us={} nodes={}",
                    start.as_micros(),
                    interval.as_micros(),
                    ids(nodes)
                ),
                FaultPrimitive::LossStorm { from, until, p } => format!(
                    "loss_storm from_us={} until_us={} p={}",
                    from.as_micros(),
                    until.as_micros(),
                    p
                ),
                FaultPrimitive::BurstStorm {
                    from,
                    until,
                    p_bad,
                    p_gb,
                    p_bg,
                } => format!(
                    "burst_storm from_us={} until_us={} p_bad={} p_gb={} p_bg={}",
                    from.as_micros(),
                    until.as_micros(),
                    p_bad,
                    p_gb,
                    p_bg
                ),
                FaultPrimitive::Partition {
                    from,
                    until,
                    groups,
                } => format!(
                    "partition from_us={} until_us={} groups={}",
                    from.as_micros(),
                    until.as_micros(),
                    groups_text(groups)
                ),
                FaultPrimitive::DelayJitter {
                    from,
                    until,
                    jitter,
                } => format!(
                    "delay_jitter from_us={} until_us={} jitter_us={}",
                    from.as_micros(),
                    until.as_micros(),
                    jitter.as_micros()
                ),
                FaultPrimitive::LinkLag {
                    from,
                    until,
                    a,
                    b,
                    lag,
                } => format!(
                    "link_lag from_us={} until_us={} a={} b={} lag_us={}",
                    from.as_micros(),
                    until.as_micros(),
                    a.0,
                    b.0,
                    lag.as_micros()
                ),
                FaultPrimitive::Replay {
                    from,
                    until,
                    prob,
                    lag,
                } => format!(
                    "replay from_us={} until_us={} prob={} lag_us={}",
                    from.as_micros(),
                    until.as_micros(),
                    prob,
                    lag.as_micros()
                ),
                FaultPrimitive::Join { at, node } => {
                    format!("join at_us={} node={}", at.as_micros(), node.0)
                }
                FaultPrimitive::Leave { at, node } => {
                    format!("leave at_us={} node={}", at.as_micros(), node.0)
                }
                FaultPrimitive::Rejoin { at, node } => {
                    format!("rejoin at_us={} node={}", at.as_micros(), node.0)
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses the artifact format produced by [`FaultPlan::to_text`].
    pub fn from_text(text: &str) -> Result<FaultPlan, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty plan")?;
        let version = match header.trim() {
            "cbfd-fault-plan v1" => 1,
            "cbfd-fault-plan v2" => 2,
            other => return Err(format!("unknown plan header: {other:?}")),
        };
        let mut plan = FaultPlan::empty(0.0, SimTime::ZERO);
        for line in lines {
            let mut parts = line.split_whitespace();
            let tag = parts.next().ok_or("blank primitive line")?;
            let mut fields = std::collections::BTreeMap::new();
            let mut positional = Vec::new();
            for part in parts {
                match part.split_once('=') {
                    Some((k, v)) => {
                        fields.insert(k.to_string(), v.to_string());
                    }
                    None => positional.push(part.to_string()),
                }
            }
            let f64_field = |k: &str| -> Result<f64, String> {
                fields
                    .get(k)
                    .ok_or_else(|| format!("{tag}: missing {k}"))?
                    .parse()
                    .map_err(|e| format!("{tag}: bad {k}: {e}"))
            };
            let u64_field = |k: &str| -> Result<u64, String> {
                fields
                    .get(k)
                    .ok_or_else(|| format!("{tag}: missing {k}"))?
                    .parse()
                    .map_err(|e| format!("{tag}: bad {k}: {e}"))
            };
            let list_field = |k: &str| -> Result<Vec<u32>, String> {
                fields
                    .get(k)
                    .ok_or_else(|| format!("{tag}: missing {k}"))?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("{tag}: bad {k}: {e}")))
                    .collect()
            };
            match tag {
                "baseline_p" => {
                    plan.baseline_p = positional
                        .first()
                        .ok_or("baseline_p: missing value")?
                        .parse()
                        .map_err(|e| format!("baseline_p: {e}"))?;
                }
                "horizon_us" => {
                    plan.horizon = SimTime::from_micros(
                        positional
                            .first()
                            .ok_or("horizon_us: missing value")?
                            .parse()
                            .map_err(|e| format!("horizon_us: {e}"))?,
                    );
                }
                "crash" => plan.primitives.push(FaultPrimitive::Crash {
                    at: SimTime::from_micros(u64_field("at_us")?),
                    node: NodeId(u64_field("node")? as u32),
                }),
                "cascade" => plan.primitives.push(FaultPrimitive::Cascade {
                    start: SimTime::from_micros(u64_field("start_us")?),
                    interval: SimDuration::from_micros(u64_field("interval_us")?),
                    nodes: list_field("nodes")?.into_iter().map(NodeId).collect(),
                }),
                "loss_storm" => plan.primitives.push(FaultPrimitive::LossStorm {
                    from: SimTime::from_micros(u64_field("from_us")?),
                    until: SimTime::from_micros(u64_field("until_us")?),
                    p: f64_field("p")?,
                }),
                "burst_storm" => plan.primitives.push(FaultPrimitive::BurstStorm {
                    from: SimTime::from_micros(u64_field("from_us")?),
                    until: SimTime::from_micros(u64_field("until_us")?),
                    p_bad: f64_field("p_bad")?,
                    p_gb: f64_field("p_gb")?,
                    p_bg: f64_field("p_bg")?,
                }),
                "partition" => plan.primitives.push(FaultPrimitive::Partition {
                    from: SimTime::from_micros(u64_field("from_us")?),
                    until: SimTime::from_micros(u64_field("until_us")?),
                    groups: list_field("groups")?,
                }),
                "delay_jitter" => plan.primitives.push(FaultPrimitive::DelayJitter {
                    from: SimTime::from_micros(u64_field("from_us")?),
                    until: SimTime::from_micros(u64_field("until_us")?),
                    jitter: SimDuration::from_micros(u64_field("jitter_us")?),
                }),
                "link_lag" => plan.primitives.push(FaultPrimitive::LinkLag {
                    from: SimTime::from_micros(u64_field("from_us")?),
                    until: SimTime::from_micros(u64_field("until_us")?),
                    a: NodeId(u64_field("a")? as u32),
                    b: NodeId(u64_field("b")? as u32),
                    lag: SimDuration::from_micros(u64_field("lag_us")?),
                }),
                "replay" => plan.primitives.push(FaultPrimitive::Replay {
                    from: SimTime::from_micros(u64_field("from_us")?),
                    until: SimTime::from_micros(u64_field("until_us")?),
                    prob: f64_field("prob")?,
                    lag: SimDuration::from_micros(u64_field("lag_us")?),
                }),
                "join" | "leave" | "rejoin" if version >= 2 => {
                    let at = SimTime::from_micros(u64_field("at_us")?);
                    let node = NodeId(u64_field("node")? as u32);
                    plan.primitives.push(match tag {
                        "join" => FaultPrimitive::Join { at, node },
                        "leave" => FaultPrimitive::Leave { at, node },
                        _ => FaultPrimitive::Rejoin { at, node },
                    });
                }
                other => return Err(format!("unknown primitive: {other}")),
            }
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------- shrinker

/// Outcome of [`shrink`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkResult {
    /// The minimal plan found.
    pub plan: FaultPlan,
    /// Candidate plans tested against the oracle.
    pub tests_run: u32,
}

/// Reduces `plan` to a (locally) minimal schedule that still satisfies
/// `still_fails`, by greedy chunk removal to a fixpoint followed by
/// per-primitive weakening (shorter windows, milder probabilities,
/// shorter cascades). Fully deterministic: the same plan and oracle
/// always shrink to the same result. `still_fails(plan)` is assumed
/// true on entry; at most `max_tests` oracle invocations are spent.
pub fn shrink(
    plan: &FaultPlan,
    mut still_fails: impl FnMut(&FaultPlan) -> bool,
    max_tests: u32,
) -> ShrinkResult {
    let mut current = plan.clone();
    let mut tests_run = 0u32;
    let mut test = |candidate: &FaultPlan, tests_run: &mut u32| -> bool {
        if *tests_run >= max_tests {
            return false;
        }
        *tests_run += 1;
        still_fails(candidate)
    };

    // Pass 1: chunk removal (ddmin-style), halving the chunk size.
    let mut chunk = current.primitives.len().max(1).div_ceil(2);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.primitives.len() {
            let end = (i + chunk).min(current.primitives.len());
            let mut candidate = current.clone();
            candidate.primitives.drain(i..end);
            if test(&candidate, &mut tests_run) {
                current = candidate;
                removed_any = true;
                // Re-test the same index: the next chunk slid into it.
            } else {
                i = end;
            }
        }
        if !removed_any {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }

    // Pass 2: weaken each surviving primitive to a fixpoint.
    loop {
        let mut weakened_any = false;
        for i in 0..current.primitives.len() {
            loop {
                let variants = weaken(&current.primitives[i], current.baseline_p, current.horizon);
                let mut accepted = false;
                for v in variants {
                    let mut candidate = current.clone();
                    candidate.primitives[i] = v;
                    if test(&candidate, &mut tests_run) {
                        current = candidate;
                        accepted = true;
                        weakened_any = true;
                        break;
                    }
                }
                if !accepted {
                    break;
                }
            }
        }
        if !weakened_any || tests_run >= max_tests {
            break;
        }
    }

    ShrinkResult {
        plan: current,
        tests_run,
    }
}

/// Halves a window, returning `None` when it cannot get shorter.
fn halve_window(from: SimTime, until: SimTime) -> Option<SimTime> {
    let len = until.since(from).as_micros();
    (len >= 2).then(|| from + SimDuration::from_micros(len / 2))
}

/// Strictly-weaker variants of `p`, strongest reduction first.
fn weaken(p: &FaultPrimitive, baseline_p: f64, horizon: SimTime) -> Vec<FaultPrimitive> {
    let mut out = Vec::new();
    match p {
        FaultPrimitive::Crash { .. } => {}
        // Churn point faults weaken by shrinking the window in which
        // the membership is perturbed: joins and leaves move toward the
        // horizon (less time present/absent), rejoins move toward zero
        // (shorter dead window). Each step halves the remaining
        // distance, so weakening terminates.
        FaultPrimitive::Join { at, node } | FaultPrimitive::Leave { at, node } => {
            let gap = horizon.as_micros().saturating_sub(at.as_micros());
            // Half-gap jump first, quarter-gap as the gentler fallback
            // when the big jump overshoots whatever the oracle needs.
            for step in [gap / 2, gap / 4] {
                if step >= 1 {
                    let shifted = *at + SimDuration::from_micros(step);
                    out.push(match p {
                        FaultPrimitive::Join { .. } => FaultPrimitive::Join {
                            at: shifted,
                            node: *node,
                        },
                        _ => FaultPrimitive::Leave {
                            at: shifted,
                            node: *node,
                        },
                    });
                }
            }
        }
        FaultPrimitive::Rejoin { at, node } => {
            let offset = at.as_micros();
            for step in [offset / 2, offset / 4] {
                if step >= 1 {
                    out.push(FaultPrimitive::Rejoin {
                        at: SimTime::from_micros(offset - step),
                        node: *node,
                    });
                }
            }
        }
        FaultPrimitive::Cascade {
            start,
            interval,
            nodes,
        } => {
            if nodes.len() > 1 {
                out.push(FaultPrimitive::Cascade {
                    start: *start,
                    interval: *interval,
                    nodes: nodes[..nodes.len() / 2].to_vec(),
                });
                out.push(FaultPrimitive::Cascade {
                    start: *start,
                    interval: *interval,
                    nodes: nodes[..nodes.len() - 1].to_vec(),
                });
            }
        }
        FaultPrimitive::LossStorm { from, until, p } => {
            if let Some(mid) = halve_window(*from, *until) {
                out.push(FaultPrimitive::LossStorm {
                    from: *from,
                    until: mid,
                    p: *p,
                });
            }
            let milder = (p + baseline_p) / 2.0;
            if *p - milder > 0.01 {
                out.push(FaultPrimitive::LossStorm {
                    from: *from,
                    until: *until,
                    p: milder,
                });
            }
        }
        FaultPrimitive::BurstStorm {
            from,
            until,
            p_bad,
            p_gb,
            p_bg,
        } => {
            if let Some(mid) = halve_window(*from, *until) {
                out.push(FaultPrimitive::BurstStorm {
                    from: *from,
                    until: mid,
                    p_bad: *p_bad,
                    p_gb: *p_gb,
                    p_bg: *p_bg,
                });
            }
            if *p_gb > 0.02 {
                out.push(FaultPrimitive::BurstStorm {
                    from: *from,
                    until: *until,
                    p_bad: *p_bad,
                    p_gb: p_gb / 2.0,
                    p_bg: *p_bg,
                });
            }
        }
        FaultPrimitive::Partition {
            from,
            until,
            groups,
        } => {
            if let Some(mid) = halve_window(*from, *until) {
                out.push(FaultPrimitive::Partition {
                    from: *from,
                    until: mid,
                    groups: groups.clone(),
                });
            }
        }
        FaultPrimitive::DelayJitter {
            from,
            until,
            jitter,
        } => {
            if let Some(mid) = halve_window(*from, *until) {
                out.push(FaultPrimitive::DelayJitter {
                    from: *from,
                    until: mid,
                    jitter: *jitter,
                });
            }
            if jitter.as_micros() >= 2 {
                out.push(FaultPrimitive::DelayJitter {
                    from: *from,
                    until: *until,
                    jitter: SimDuration::from_micros(jitter.as_micros() / 2),
                });
            }
        }
        FaultPrimitive::LinkLag {
            from,
            until,
            a,
            b,
            lag,
        } => {
            if let Some(mid) = halve_window(*from, *until) {
                out.push(FaultPrimitive::LinkLag {
                    from: *from,
                    until: mid,
                    a: *a,
                    b: *b,
                    lag: *lag,
                });
            }
            if lag.as_micros() >= 2 {
                out.push(FaultPrimitive::LinkLag {
                    from: *from,
                    until: *until,
                    a: *a,
                    b: *b,
                    lag: SimDuration::from_micros(lag.as_micros() / 2),
                });
            }
        }
        FaultPrimitive::Replay {
            from,
            until,
            prob,
            lag,
        } => {
            if let Some(mid) = halve_window(*from, *until) {
                out.push(FaultPrimitive::Replay {
                    from: *from,
                    until: mid,
                    prob: *prob,
                    lag: *lag,
                });
            }
            if *prob > 0.02 {
                out.push(FaultPrimitive::Replay {
                    from: *from,
                    until: *until,
                    prob: prob / 2.0,
                    lag: *lag,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::topology::Topology;

    fn cfg(nodes: usize) -> PlanConfig {
        PlanConfig {
            nodes,
            ..PlanConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultPlan::generate(42, &cfg(50));
        let b = FaultPlan::generate(42, &cfg(50));
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, &cfg(50));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn text_round_trips_every_primitive_kind() {
        // Force all 8 kinds by sampling until each appeared.
        let mut seen = std::collections::BTreeSet::new();
        let mut plans = Vec::new();
        for seed in 0..200u64 {
            let plan = FaultPlan::generate(seed, &cfg(16));
            for p in &plan.primitives {
                seen.insert(p.to_text_tag());
            }
            plans.push(plan);
            if seen.len() == 8 {
                break;
            }
        }
        assert_eq!(seen.len(), 8, "generator must emit every kind");
        for plan in &plans {
            let text = plan.to_text();
            let parsed = FaultPlan::from_text(&text).expect("parse");
            assert_eq!(*plan, parsed, "round trip:\n{text}");
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(FaultPlan::from_text("").is_err());
        assert!(FaultPlan::from_text("nonsense v9").is_err());
        assert!(FaultPlan::from_text("cbfd-fault-plan v1\nwobble x=1").is_err());
        assert!(FaultPlan::from_text("cbfd-fault-plan v1\ncrash at_us=5").is_err());
        // Churn tags belong to the v2 format only.
        assert!(FaultPlan::from_text("cbfd-fault-plan v1\nleave at_us=5 node=1").is_err());
        assert!(FaultPlan::from_text("cbfd-fault-plan v2\nleave at_us=5 node=1").is_ok());
    }

    #[test]
    fn churn_generation_covers_all_kinds_and_round_trips() {
        let config = PlanConfig {
            churn: true,
            ..cfg(16)
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut plans = Vec::new();
        for seed in 0..400u64 {
            let plan = FaultPlan::generate(seed, &config);
            for p in &plan.primitives {
                seen.insert(p.to_text_tag());
            }
            plans.push(plan);
            if seen.len() == 11 {
                break;
            }
        }
        assert_eq!(seen.len(), 11, "churn generator must emit every kind");
        for plan in &plans {
            let text = plan.to_text();
            if plan.has_churn() {
                assert!(text.starts_with("cbfd-fault-plan v2\n"), "{text}");
            } else {
                assert!(text.starts_with("cbfd-fault-plan v1\n"), "{text}");
            }
            let parsed = FaultPlan::from_text(&text).expect("parse");
            assert_eq!(*plan, parsed, "round trip:\n{text}");
        }
    }

    #[test]
    fn churn_off_generation_is_unchanged() {
        // The churn flag must not perturb the v1 sampling stream:
        // pinned-seed artifacts stay byte-identical.
        for seed in 0..50u64 {
            let v1 = FaultPlan::generate(seed, &cfg(30));
            assert!(!v1.has_churn());
            assert!(v1.to_text().starts_with("cbfd-fault-plan v1\n"));
        }
    }

    #[test]
    fn churn_schedule_and_join_targets() {
        let plan = FaultPlan {
            baseline_p: 0.0,
            horizon: SimTime::from_millis(100),
            primitives: vec![
                FaultPrimitive::Rejoin {
                    at: SimTime::from_millis(50),
                    node: NodeId(1),
                },
                FaultPrimitive::Join {
                    at: SimTime::from_millis(20),
                    node: NodeId(7),
                },
                FaultPrimitive::Leave {
                    at: SimTime::from_millis(10),
                    node: NodeId(1),
                },
                FaultPrimitive::Join {
                    at: SimTime::from_millis(30),
                    node: NodeId(7),
                },
            ],
        };
        assert_eq!(
            plan.churn_schedule(),
            vec![
                (SimTime::from_millis(10), NodeId(1), "leave"),
                (SimTime::from_millis(20), NodeId(7), "join"),
                (SimTime::from_millis(30), NodeId(7), "join"),
                (SimTime::from_millis(50), NodeId(1), "rejoin"),
            ]
        );
        assert_eq!(plan.join_targets(), vec![NodeId(7)]);
    }

    #[test]
    fn run_plan_applies_churn_without_panicking() {
        // Leave then rejoin one chatter; join a dormant one. Garbage
        // targets are skipped.
        let plan = FaultPlan {
            baseline_p: 0.0,
            horizon: SimTime::from_millis(50),
            primitives: vec![
                FaultPrimitive::Leave {
                    at: SimTime::from_millis(5),
                    node: NodeId(1),
                },
                FaultPrimitive::Rejoin {
                    at: SimTime::from_millis(20),
                    node: NodeId(1),
                },
                FaultPrimitive::Join {
                    at: SimTime::from_millis(1),
                    node: NodeId(999),
                },
                FaultPrimitive::Rejoin {
                    at: SimTime::from_millis(2),
                    node: NodeId(0),
                },
            ],
        };
        let mut sim = Simulator::new(pair(), RadioConfig::bernoulli(0.0), 1, |_| Chatter {
            pings: 2,
            ..Chatter::default()
        });
        let mut seen = Vec::new();
        run_plan(
            &mut sim,
            &plan,
            SimTime::from_millis(50),
            &mut |_, ev| match ev {
                SimEvent::Leave { node, .. } => seen.push(("leave", node)),
                SimEvent::Rejoin { node, .. } => seen.push(("rejoin", node)),
                SimEvent::Join { node, .. } => seen.push(("join", node)),
                _ => {}
            },
        );
        assert_eq!(
            seen,
            vec![("leave", NodeId(1)), ("rejoin", NodeId(1))],
            "only the sensible transitions fire"
        );
        assert!(sim.is_alive(NodeId(1)));
    }

    #[test]
    fn shrink_weakens_churn_primitives() {
        // Oracle: fails iff node 1 is absent (left, not yet rejoined)
        // at t = 40ms.
        let absent_at_40 = |p: &FaultPlan| {
            let t = SimTime::from_millis(40);
            let mut absent = false;
            for (at, node, kind) in p.churn_schedule() {
                if at <= t && node == NodeId(1) {
                    match kind {
                        "leave" => absent = true,
                        "rejoin" => absent = false,
                        _ => {}
                    }
                }
            }
            absent
        };
        let plan = FaultPlan {
            baseline_p: 0.0,
            horizon: SimTime::from_millis(100),
            primitives: vec![
                FaultPrimitive::Leave {
                    at: SimTime::from_millis(1),
                    node: NodeId(1),
                },
                FaultPrimitive::Join {
                    at: SimTime::from_millis(2),
                    node: NodeId(3),
                },
            ],
        };
        assert!(absent_at_40(&plan));
        let result = shrink(&plan, absent_at_40, 10_000);
        assert!(absent_at_40(&result.plan));
        assert_eq!(result.plan.primitives.len(), 1, "join was irrelevant");
        match &result.plan.primitives[0] {
            FaultPrimitive::Leave { at, node } => {
                assert_eq!(*node, NodeId(1));
                assert!(
                    *at > SimTime::from_millis(1),
                    "leave should weaken toward the horizon: {}",
                    result.plan.to_text()
                );
                assert!(*at <= SimTime::from_millis(40));
            }
            other => panic!("unexpected primitive {other:?}"),
        }
        assert_eq!(shrink(&plan, absent_at_40, 10_000), result);
    }

    #[test]
    fn crash_schedule_expands_cascades_in_order() {
        let plan = FaultPlan {
            baseline_p: 0.0,
            horizon: SimTime::from_millis(100),
            primitives: vec![
                FaultPrimitive::Crash {
                    at: SimTime::from_millis(50),
                    node: NodeId(9),
                },
                FaultPrimitive::Cascade {
                    start: SimTime::from_millis(10),
                    interval: SimDuration::from_millis(30),
                    nodes: vec![NodeId(1), NodeId(2)],
                },
            ],
        };
        assert_eq!(
            plan.crash_schedule(),
            vec![
                (SimTime::from_millis(10), NodeId(1)),
                (SimTime::from_millis(40), NodeId(2)),
                (SimTime::from_millis(50), NodeId(9)),
            ]
        );
    }

    /// Counting actor used by the driver tests.
    #[derive(Default)]
    struct Chatter {
        heard: usize,
        pings: u32,
    }
    impl Actor for Chatter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut crate::actor::Ctx<'_, u32>) {
            for i in 0..self.pings {
                ctx.broadcast(i);
            }
        }
        fn on_message(&mut self, _: &mut crate::actor::Ctx<'_, u32>, _: NodeId, _: &u32) {
            self.heard += 1;
        }
    }

    crate::impl_persist!(Chatter { heard, pings });

    fn pair() -> Topology {
        Topology::from_positions(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 100.0)
    }

    #[test]
    fn run_plan_applies_crashes_and_storms() {
        // Total-loss storm over the whole run: nothing arrives, and the
        // scheduled crash fires.
        let plan = FaultPlan {
            baseline_p: 0.0,
            horizon: SimTime::from_millis(50),
            primitives: vec![
                FaultPrimitive::LossStorm {
                    from: SimTime::ZERO,
                    until: SimTime::from_millis(50),
                    p: 1.0,
                },
                FaultPrimitive::Crash {
                    at: SimTime::from_millis(5),
                    node: NodeId(1),
                },
            ],
        };
        let mut sim = Simulator::new(pair(), RadioConfig::bernoulli(0.0), 1, |_| Chatter {
            pings: 3,
            ..Chatter::default()
        });
        let mut crashes = 0;
        run_plan(&mut sim, &plan, SimTime::from_millis(50), &mut |_, ev| {
            if matches!(ev, SimEvent::Crash { .. }) {
                crashes += 1;
            }
        });
        assert_eq!(crashes, 1);
        assert!(!sim.is_alive(NodeId(1)));
        // The storm started at t=0, i.e. before the on-start pings.
        assert_eq!(sim.metrics().deliveries, 0);
        assert_eq!(sim.metrics().losses, 6);
    }

    #[test]
    fn run_plan_skips_out_of_range_nodes() {
        let plan = FaultPlan {
            baseline_p: 0.0,
            horizon: SimTime::from_millis(10),
            primitives: vec![
                FaultPrimitive::Crash {
                    at: SimTime::from_millis(1),
                    node: NodeId(999),
                },
                FaultPrimitive::LinkLag {
                    from: SimTime::ZERO,
                    until: SimTime::from_millis(10),
                    a: NodeId(998),
                    b: NodeId(999),
                    lag: SimDuration::from_millis(1),
                },
            ],
        };
        let mut sim = Simulator::new(pair(), RadioConfig::bernoulli(0.0), 1, |_| Chatter {
            pings: 1,
            ..Chatter::default()
        });
        run_plan(&mut sim, &plan, SimTime::from_millis(10), &mut |_, _| {});
        assert_eq!(sim.metrics().deliveries, 2, "run must complete unharmed");
    }

    #[test]
    fn run_plan_is_deterministic() {
        let config = PlanConfig {
            churn: true,
            ..cfg(2)
        };
        let build = || {
            let mut sim =
                Simulator::new(pair(), RadioConfig::bernoulli(config.baseline_p), 7, |_| {
                    Chatter {
                        pings: 20,
                        ..Chatter::default()
                    }
                });
            sim.enable_trace();
            sim
        };
        let run = |seed: u64| {
            let plan = FaultPlan::generate(seed, &config);
            let mut sim = build();
            let mut events = Vec::new();
            run_plan(&mut sim, &plan, config.horizon, &mut |s, ev| {
                events.push((s.now(), ev));
            });
            (
                plan.to_text(),
                events,
                sim.metrics().clone(),
                sim.trace().records().to_vec(),
            )
        };
        let (mut churn, mut windows) = (false, false);
        for seed in 0..6 {
            assert_eq!(run(seed), run(seed), "seed {seed}");

            // One driver, two entry points: a no-op observer and no
            // observer at all leave byte-identical worlds behind.
            let plan = FaultPlan::generate(seed, &config);
            churn |= plan.has_churn();
            windows |= !plan.window_actions().is_empty();
            let mut observed = build();
            run_plan(&mut observed, &plan, config.horizon, &mut |_, _| {});
            let mut quiet = build();
            run_plan_quiet(&mut quiet, &plan, config.horizon);
            assert_eq!(
                observed.checkpoint().expect("snapshot-capable channel"),
                quiet.checkpoint().expect("snapshot-capable channel"),
                "seed {seed}: run_plan and run_plan_quiet diverge"
            );
        }
        assert!(churn && windows, "seeds must cover churn and windows");
    }

    #[test]
    fn shrink_removes_irrelevant_primitives() {
        // Oracle: "fails" iff the plan crashes node 3 at any point.
        let config = PlanConfig {
            nodes: 8,
            max_primitives: 10,
            ..PlanConfig::default()
        };
        let fails = |p: &FaultPlan| p.crash_schedule().iter().any(|&(_, n)| n == NodeId(3));
        // Find a seed whose plan fails with more than one primitive.
        let plan = (0..500u64)
            .map(|s| FaultPlan::generate(s, &config))
            .find(|p| fails(p) && p.primitives.len() > 1)
            .expect("some generated plan crashes node 3");
        let result = shrink(&plan, fails, 10_000);
        assert!(fails(&result.plan), "shrunk plan must still fail");
        assert_eq!(
            result.plan.primitives.len(),
            1,
            "only the crashing primitive survives: {}",
            result.plan.to_text()
        );
        // Deterministic: shrinking again yields the identical plan.
        assert_eq!(shrink(&plan, fails, 10_000), result);
    }

    #[test]
    fn shrink_weakens_surviving_primitives() {
        // Oracle: fails iff a loss storm with p >= 0.3 covers t=10ms.
        let covers = |p: &FaultPlan| {
            p.primitives.iter().any(|pr| {
                matches!(pr, FaultPrimitive::LossStorm { from, until, p }
                    if *from <= SimTime::from_millis(10)
                        && *until > SimTime::from_millis(10)
                        && *p >= 0.3)
            })
        };
        let plan = FaultPlan {
            baseline_p: 0.05,
            horizon: SimTime::from_millis(100),
            primitives: vec![FaultPrimitive::LossStorm {
                from: SimTime::ZERO,
                until: SimTime::from_millis(100),
                p: 0.9,
            }],
        };
        let result = shrink(&plan, covers, 10_000);
        match &result.plan.primitives[0] {
            FaultPrimitive::LossStorm { until, p, .. } => {
                assert!(
                    *until < SimTime::from_millis(100),
                    "window should have shrunk: {}",
                    result.plan.to_text()
                );
                assert!(*p < 0.9, "p should have weakened");
                assert!(*p >= 0.3);
            }
            other => panic!("unexpected primitive {other:?}"),
        }
    }
}
