//! The system-level FDS harness: sets up a network, runs the service
//! for a number of heartbeat intervals, injects fail-stop crashes, and
//! evaluates the paper's two properties on the outcome:
//!
//! * **accuracy** — no operational node suspected (violations are
//!   reported as [`FalseDetection`] events);
//! * **completeness** — every crash known to every operational
//!   affiliated node by the end of the run (violations are reported as
//!   observer/failure pairs).

use crate::config::FdsConfig;
use crate::node::FdsNode;
use crate::profile::{build_profiles, NodeProfile};
use cbfd_cluster::{oracle, ClusterView, FormationConfig};
use cbfd_net::chaos::{self, FaultPlan, FaultPrimitive, PlanHost};
use cbfd_net::energy::EnergyModel;
use cbfd_net::id::NodeId;
use cbfd_net::metrics::SimMetrics;
use cbfd_net::radio::RadioConfig;
use cbfd_net::sim::{SimEvent, Simulator};
use cbfd_net::tiled::{CanonicalSim, TiledSim};
use cbfd_net::time::{SimDuration, SimTime};
use cbfd_net::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One accuracy violation: an authority declared an operational node
/// failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FalseDetection {
    /// The judging authority (clusterhead or deputy).
    pub accuser: NodeId,
    /// The operational node wrongly suspected.
    pub suspect: NodeId,
    /// The FDS epoch of the wrong decision.
    pub epoch: u64,
    /// Whether this was a deputy's (mistaken) clusterhead judgement.
    pub takeover: bool,
}

/// One completeness violation: an operational node that never learned
/// about a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissedFailure {
    /// The operational node lacking the knowledge.
    pub observer: NodeId,
    /// The crashed node it never heard about.
    pub failed: NodeId,
}

/// Aggregated result of one FDS run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FdsOutcome {
    /// Heartbeat intervals executed.
    pub epochs: u64,
    /// Ground-truth crashed nodes (in crash order).
    pub crashed: Vec<NodeId>,
    /// Accuracy violations.
    pub false_detections: Vec<FalseDetection>,
    /// Completeness violations at the end of the run.
    pub missed: Vec<MissedFailure>,
    /// Fraction of (operational observer, crash) pairs that were
    /// informed; `1.0` when nothing crashed.
    pub completeness: f64,
    /// Detection latency in epochs (crash epoch → first authority
    /// detection), per crashed node that was detected at all.
    pub detection_latency: BTreeMap<NodeId, u64>,
    /// Total update-miss events (a member ending an epoch without the
    /// health update even after peer forwarding) — the protocol-level
    /// incompleteness counter of Figure 7.
    pub update_misses: u64,
    /// Total member-epochs that could have missed an update (the
    /// denominator for `update_misses`).
    pub member_epochs: u64,
    /// Channel-level traffic counters.
    pub metrics: SimMetrics,
    /// Sum of per-node peer forwards performed.
    pub peer_forwards: u64,
    /// Sum of inter-cluster reports forwarded.
    pub reports: u64,
    /// Sum of head retransmissions.
    pub retransmissions: u64,
    /// Membership subscriptions honoured (unmarked nodes admitted to
    /// clusters during the run, feature F5).
    pub joins: u64,
    /// Total wire bytes transmitted, priced by the message codec's one
    /// wire layout (DESIGN.md §12) — the only byte ledger a run keeps.
    pub bytes: u64,
    /// Standard deviation of remaining energy (energy balance).
    pub energy_imbalance: f64,
    /// Adaptive mode: suspicion episodes raised across all observers
    /// (always `0` under `DetectionMode::Fixed`).
    pub suspicions_raised: u64,
    /// Adaptive mode: suspicion episodes later retracted on late
    /// evidence — the transient soft errors the ◇P self-correction
    /// absorbed instead of condemning.
    pub suspicions_retracted: u64,
    /// Immediate gateway report broadcasts the per-epoch forwarding
    /// ledger suppressed (the epoch-1 report avalanche, deduplicated).
    pub reports_suppressed: u64,
    /// Wire bytes those suppressed reports would have cost under the
    /// pre-dedup protocol, priced by the live message codec.
    pub bytes_suppressed: u64,
    /// Sum of per-node membership-ledger mutations on the protocol
    /// path ([`NodeStats::ledger_ops`](crate::node::NodeStats)) — the
    /// deterministic hot-path cost proxy behind the bench
    /// `protocol_profile` rows.
    pub ledger_ops: u64,
}

impl FdsOutcome {
    /// Empirical per-member-epoch probability of missing the health
    /// update (the protocol-level counterpart of Figure 7's
    /// `P̂(Incompleteness)`).
    pub fn incompleteness_rate(&self) -> f64 {
        if self.member_epochs == 0 {
            0.0
        } else {
            self.update_misses as f64 / self.member_epochs as f64
        }
    }

    /// Whether accuracy held (no operational node was suspected).
    pub fn accurate(&self) -> bool {
        self.false_detections.is_empty()
    }
}

impl std::fmt::Display for FdsOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} epochs: {} crash(es), {} detected, completeness {:.3}, \
             {} false detection(s), {} tx ({} bytes), {} update miss(es)",
            self.epochs,
            self.crashed.len(),
            self.detection_latency.len(),
            self.completeness,
            self.false_detections.len(),
            self.metrics.transmissions,
            self.bytes,
            self.update_misses
        )
    }
}

/// A planned fail-stop crash: node `node` crashes midway through epoch
/// `epoch` (honouring the paper's assumption that nodes do not fail
/// *during* an FDS execution, which occupies only the first few
/// `Thop` of the interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedCrash {
    /// The epoch during which the crash happens.
    pub epoch: u64,
    /// The crashing node.
    pub node: NodeId,
}

/// A planned sleep window: `node` powers its radio down for the
/// half-open epoch interval `[from_epoch, until_epoch)` (the paper's
/// concluding-remarks power-management extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedSleep {
    /// The sleeping node.
    pub node: NodeId,
    /// First sleeping epoch.
    pub from_epoch: u64,
    /// First epoch awake again.
    pub until_epoch: u64,
}

/// A ready-to-run FDS experiment over one network.
///
/// # Examples
///
/// ```
/// use cbfd_core::service::{Experiment, PlannedCrash};
/// use cbfd_core::config::FdsConfig;
/// use cbfd_cluster::FormationConfig;
/// use cbfd_net::geometry::Point;
/// use cbfd_net::id::NodeId;
/// use cbfd_net::topology::Topology;
///
/// let positions = (0..8).map(|i| Point::new(i as f64 * 50.0, 0.0)).collect();
/// let topology = Topology::from_positions(positions, 100.0);
/// let exp = Experiment::new(topology, FdsConfig::default(), FormationConfig::default());
/// let outcome = exp.run(0.0, 6, &[PlannedCrash { epoch: 1, node: NodeId(5) }], 42);
/// assert!(outcome.accurate());
/// assert_eq!(outcome.completeness, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    topology: Topology,
    view: ClusterView,
    profiles: Vec<NodeProfile>,
    fds: FdsConfig,
    energy: EnergyModel,
}

impl Experiment {
    /// Forms clusters over `topology` with the oracle and prepares the
    /// experiment.
    ///
    /// # Panics
    ///
    /// Panics if `fds` fails [`FdsConfig::validate`].
    pub fn new(topology: Topology, fds: FdsConfig, formation: FormationConfig) -> Self {
        let view = oracle::form(&topology, &formation);
        Self::with_view(topology, view, fds)
    }

    /// Prepares an experiment over a pre-computed clustering (e.g. one
    /// produced by the distributed formation protocol).
    ///
    /// # Panics
    ///
    /// Panics if `fds` fails [`FdsConfig::validate`].
    pub fn with_view(topology: Topology, view: ClusterView, fds: FdsConfig) -> Self {
        fds.validate().expect("invalid FDS configuration");
        let profiles = build_profiles(&view);
        Experiment {
            topology,
            view,
            profiles,
            fds,
            energy: EnergyModel::default(),
        }
    }

    /// Replaces the energy model used by the run.
    pub fn with_energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// The clustering in force.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs the service for `epochs` heartbeat intervals on a channel
    /// with i.i.d. loss probability `p`, injecting `crashes`.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero, or a planned crash names an
    /// out-of-range node or an epoch beyond the run.
    pub fn run(&self, p: f64, epochs: u64, crashes: &[PlannedCrash], seed: u64) -> FdsOutcome {
        let radio = RadioConfig::bernoulli(p);
        self.run_full(radio, epochs, crashes, &[], seed)
    }

    /// Like [`Experiment::run`], additionally applying a sleep
    /// schedule (nodes with radios off per [`PlannedSleep`] windows).
    pub fn run_with_sleep(
        &self,
        p: f64,
        epochs: u64,
        crashes: &[PlannedCrash],
        sleep: &[PlannedSleep],
        seed: u64,
    ) -> FdsOutcome {
        self.run_full(RadioConfig::bernoulli(p), epochs, crashes, sleep, seed)
    }

    /// Runs the same experiment across many seeds in parallel via the
    /// [`cbfd_net::par`] sweep runner and returns the outcomes in seed
    /// order. Each run is seeded independently, so the result is
    /// byte-identical for any worker count (including 1); the worker
    /// count defaults to [`cbfd_net::par::default_workers`]
    /// (`CBFD_WORKERS` or the available parallelism).
    pub fn run_many(
        &self,
        p: f64,
        epochs: u64,
        crashes: &[PlannedCrash],
        seeds: &[u64],
    ) -> Vec<FdsOutcome> {
        self.run_many_with_workers(p, epochs, crashes, seeds, cbfd_net::par::default_workers())
    }

    /// [`Experiment::run_many`] with an explicit worker count.
    pub fn run_many_with_workers(
        &self,
        p: f64,
        epochs: u64,
        crashes: &[PlannedCrash],
        seeds: &[u64],
        workers: usize,
    ) -> Vec<FdsOutcome> {
        cbfd_net::par::par_map(workers, seeds, |_, &seed| {
            self.run(p, epochs, crashes, seed)
        })
    }

    /// Translates classic [`PlannedCrash`] scenarios into an
    /// equivalent [`FaultPlan`]: the crashes land at exactly the same
    /// instants [`Experiment::run`] uses (mid-interval of their epoch)
    /// over the same i.i.d. channel, so [`Experiment::run_plan`] on
    /// the result reproduces the [`Experiment::run`] event stream
    /// byte for byte.
    pub fn plan_from_crashes(&self, p: f64, epochs: u64, crashes: &[PlannedCrash]) -> FaultPlan {
        let phi = self.fds.heartbeat_interval;
        let mut plan = FaultPlan::empty(p, SimTime::ZERO + phi * epochs);
        for c in crashes {
            plan.primitives.push(FaultPrimitive::Crash {
                at: SimTime::ZERO + phi * c.epoch + SimDuration::from_micros(phi.as_micros() / 2),
                node: c.node,
            });
        }
        plan
    }

    /// Runs the service for `epochs` heartbeat intervals under a
    /// chaos [`FaultPlan`], reporting every effective event to
    /// `observe` (e.g. an online invariant monitor) as it happens.
    ///
    /// Unlike [`Experiment::run`], malformed plans never panic:
    /// primitives naming out-of-range nodes or instants beyond the
    /// run are skipped, and past instants saturate to the current
    /// time — machine-generated schedules cannot abort a campaign.
    /// Ground-truth crash epochs for the outcome evaluation are
    /// derived from each victim's first crash instant.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn run_plan(
        &self,
        plan: &FaultPlan,
        epochs: u64,
        seed: u64,
        observe: &mut dyn FnMut(&Simulator<FdsNode>, SimEvent),
    ) -> FdsOutcome {
        let mut sim = self.build_sim(RadioConfig::bernoulli(plan.baseline_p), seed);
        self.mark_join_targets(&mut sim, plan);
        self.run_plan_on(&mut sim, plan, epochs, observe)
    }

    /// The one node factory behind every engine constructor and
    /// [`Experiment::run_full`].
    fn make_node(&self, id: NodeId) -> FdsNode {
        FdsNode::new(
            self.profiles[id.index()].clone(),
            self.fds,
            self.energy.initial,
        )
    }

    /// Builds the simulator this experiment's run entry points use,
    /// without running it. The result can be driven manually, snapshot
    /// via [`Simulator::checkpoint`], or handed to
    /// [`Experiment::run_plan_on`].
    pub fn build_sim(&self, radio: RadioConfig, seed: u64) -> Simulator<FdsNode> {
        let mut sim = Simulator::new(self.topology.clone(), radio, seed, |id| self.make_node(id));
        sim.set_energy_model(self.energy);
        sim
    }

    /// [`Experiment::build_sim`] for the single-queue canonical engine
    /// (per-node RNG streams — deterministic under tiling, unlike the
    /// legacy simulator's global stream).
    pub fn build_canonical_sim(&self, radio: RadioConfig, seed: u64) -> CanonicalSim<FdsNode> {
        let mut sim =
            CanonicalSim::new(self.topology.clone(), radio, seed, |id| self.make_node(id));
        sim.set_energy_model(self.energy);
        sim
    }

    /// [`Experiment::build_sim`] for the spatially tiled engine over a
    /// `gx × gy` grid. Byte-identical to [`CanonicalSim`] output for
    /// any grid and worker count.
    pub fn build_tiled_sim(
        &self,
        radio: RadioConfig,
        seed: u64,
        gx: u32,
        gy: u32,
    ) -> TiledSim<FdsNode> {
        let mut sim = TiledSim::new(self.topology.clone(), radio, seed, gx, gy, |id| {
            self.make_node(id)
        });
        sim.set_energy_model(self.energy);
        sim
    }

    /// Marks the plan's join targets dormant on `host` — the pre-run
    /// step [`Experiment::run_plan`] performs on the engine it builds.
    pub fn mark_join_targets<H: PlanHost>(&self, host: &mut H, plan: &FaultPlan) {
        for node in plan.join_targets() {
            if node.index() < self.topology.len() {
                host.set_dormant(node);
            }
        }
    }

    /// The last instant of a run of `epochs` heartbeat intervals: just
    /// before epoch `epochs` would begin.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero — such a run would end before it
    /// starts, and the subtraction would wrap to the end of time.
    fn deadline(&self, epochs: u64) -> SimTime {
        assert!(epochs > 0, "an FDS run needs at least one epoch, got 0");
        SimTime::ZERO + self.fds.heartbeat_interval * epochs - SimDuration::from_micros(1)
    }

    /// The run deadline plus the ground-truth crash epoch of every
    /// victim `plan` names (first crash instant wins; instants before
    /// `start` saturate to it, out-of-range victims and instants past
    /// the deadline are skipped) — shared by both plan entry points so
    /// they score against the same truth.
    fn plan_ground_truth(
        &self,
        plan: &FaultPlan,
        epochs: u64,
        start: SimTime,
    ) -> (SimTime, BTreeMap<NodeId, u64>) {
        let phi = self.fds.heartbeat_interval;
        let deadline = self.deadline(epochs);
        let mut crash_epochs: BTreeMap<NodeId, u64> = BTreeMap::new();
        for (at, node) in plan.crash_schedule() {
            if node.index() < self.topology.len() && at <= deadline {
                let at = at.max(start);
                let epoch = (at.since(SimTime::ZERO).as_micros() / phi.as_micros()).min(epochs - 1);
                crash_epochs.entry(node).or_insert(epoch);
            }
        }
        (deadline, crash_epochs)
    }

    /// [`Experiment::run_plan_on`] for any engine implementing both
    /// [`PlanHost`] and [`FdsHost`]: identical crash-epoch ground
    /// truth, identical plan segmentation (via
    /// [`chaos::run_plan_quiet`]), identical scoring — but no
    /// observer, so no invariant monitor can attach. Used by the
    /// tiling differential suite and the large-N benchmarks.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn run_plan_on_host<H: PlanHost + FdsHost>(
        &self,
        host: &mut H,
        plan: &FaultPlan,
        epochs: u64,
    ) -> FdsOutcome {
        let (deadline, crash_epochs) = self.plan_ground_truth(plan, epochs, host.now());
        chaos::run_plan_quiet(host, plan, deadline);
        self.evaluate_host(host, epochs, &crash_epochs)
    }

    /// Like [`Experiment::run_plan`], but drives an existing simulator
    /// — typically one restored from a [`Simulator::checkpoint`], so a
    /// chaos campaign can fork many plans off one warmed-up snapshot.
    /// Plan instants that predate `sim.now()` saturate to now (both
    /// for scheduling and for the ground-truth crash epochs).
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn run_plan_on(
        &self,
        sim: &mut Simulator<FdsNode>,
        plan: &FaultPlan,
        epochs: u64,
        observe: &mut dyn FnMut(&Simulator<FdsNode>, SimEvent),
    ) -> FdsOutcome {
        let (deadline, crash_epochs) = self.plan_ground_truth(plan, epochs, sim.now());
        chaos::run_plan(sim, plan, deadline, observe);
        self.evaluate(sim, epochs, &crash_epochs)
    }

    /// The most general run entry point.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero, a planned crash names an
    /// out-of-range node or an epoch beyond the run, or a sleep plan is
    /// malformed.
    pub fn run_full(
        &self,
        radio: RadioConfig,
        epochs: u64,
        crashes: &[PlannedCrash],
        sleep: &[PlannedSleep],
        seed: u64,
    ) -> FdsOutcome {
        let phi = self.fds.heartbeat_interval;
        let deadline = self.deadline(epochs);
        let mut sleep_plans: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.topology.len()];
        for s in sleep {
            assert!(
                s.node.index() < self.topology.len(),
                "sleep plan names unknown node {}",
                s.node
            );
            sleep_plans[s.node.index()].push((s.from_epoch, s.until_epoch));
        }
        for plan in &mut sleep_plans {
            plan.sort_unstable();
        }
        let mut sim = Simulator::new(self.topology.clone(), radio, seed, |id| {
            let mut node = self.make_node(id);
            if !sleep_plans[id.index()].is_empty() {
                node.set_sleep_plan(sleep_plans[id.index()].clone());
            }
            node
        });
        sim.set_energy_model(self.energy);

        let mut crash_epochs: BTreeMap<NodeId, u64> = BTreeMap::new();
        for c in crashes {
            assert!(
                c.node.index() < self.topology.len(),
                "crash plan names unknown node {}",
                c.node
            );
            assert!(c.epoch < epochs, "crash epoch {} beyond run", c.epoch);
            // Mid-interval: after the FDS execution of this epoch.
            let at = SimTime::ZERO + phi * c.epoch + SimDuration::from_micros(phi.as_micros() / 2);
            sim.schedule_crash(c.node, at);
            crash_epochs.entry(c.node).or_insert(c.epoch);
        }

        sim.run_until(deadline);

        self.evaluate(&sim, epochs, &crash_epochs)
    }

    /// Judges a finished run against the paper's two properties, given
    /// the ground-truth crash schedule. Public so harnesses that drive
    /// a simulator manually (soaks, checkpoint forks) can score it.
    ///
    /// Churn-aware: a gracefully departed node that an authority later
    /// condemned (its leave notice was lost, so the silence is
    /// indistinguishable from a crash) is neither a false detection
    /// nor a latency sample, and crash victims that rejoined before
    /// the end are excluded from the completeness obligation — peers
    /// legitimately retract the verdict on rejoin.
    pub fn evaluate(
        &self,
        sim: &Simulator<FdsNode>,
        epochs: u64,
        crash_epochs: &BTreeMap<NodeId, u64>,
    ) -> FdsOutcome {
        self.evaluate_host(sim, epochs, crash_epochs)
    }

    /// [`Experiment::evaluate`] over any [`FdsHost`] engine — the
    /// legacy [`Simulator`], the single-queue
    /// [`CanonicalSim`], or the spatially tiled [`TiledSim`].
    pub fn evaluate_host<H: FdsHost>(
        &self,
        sim: &H,
        epochs: u64,
        crash_epochs: &BTreeMap<NodeId, u64>,
    ) -> FdsOutcome {
        let crashed: Vec<NodeId> = crash_epochs.keys().copied().collect();
        let mut false_detections = Vec::new();
        let mut detection_latency: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut update_misses = 0;
        let mut peer_forwards = 0;
        let mut reports = 0;
        let mut retransmissions = 0;
        let mut member_epochs = 0;
        let mut joins = 0;
        let mut bytes = 0;
        let mut suspicions_raised = 0;
        let mut suspicions_retracted = 0;
        let mut reports_suppressed = 0;
        let mut bytes_suppressed = 0;
        let mut ledger_ops = 0;

        for (id, node) in sim.actors() {
            let s = node.stats();
            suspicions_raised += node.suspicion_events().len() as u64;
            suspicions_retracted += node
                .suspicion_events()
                .iter()
                .filter(|ev| ev.retracted.is_some())
                .count() as u64;
            update_misses += s.updates_missed;
            peer_forwards += s.peer_forwards_sent;
            reports += s.reports_sent;
            retransmissions += s.retransmissions;
            joins += s.joins_admitted;
            bytes += s.bytes_sent;
            reports_suppressed += s.reports_suppressed;
            bytes_suppressed += s.bytes_suppressed;
            ledger_ops += s.ledger_ops;
            if node.profile().cluster.is_some() && node.profile().head != Some(id) {
                // A member can miss an update in any epoch it survives.
                let survived = crash_epochs.get(&id).copied().unwrap_or(epochs);
                member_epochs += survived;
            }
            for d in node.detections() {
                for suspect in &d.suspects {
                    let truly_failed = crash_epochs
                        .get(suspect)
                        .is_some_and(|crashed_at| *crashed_at < d.epoch);
                    if truly_failed {
                        let latency = d.epoch - crash_epochs[suspect];
                        detection_latency
                            .entry(*suspect)
                            .and_modify(|l| *l = (*l).min(latency))
                            .or_insert(latency);
                    } else if !sim.has_departed(*suspect) {
                        false_detections.push(FalseDetection {
                            accuser: id,
                            suspect: *suspect,
                            epoch: d.epoch,
                            takeover: d.takeover,
                        });
                    }
                }
            }
        }

        // Completeness: every operational affiliated node must know
        // every crash by the end of the run. Victims that rejoined are
        // no longer failed, so peers owe no knowledge of them.
        let still_crashed: Vec<NodeId> = crashed
            .iter()
            .copied()
            .filter(|f| !sim.is_alive(*f) && !sim.has_departed(*f))
            .collect();
        let mut missed = Vec::new();
        let mut informed_pairs = 0u64;
        let mut total_pairs = 0u64;
        for (id, node) in sim.actors() {
            if !sim.is_alive(id) || node.profile().cluster.is_none() {
                continue;
            }
            for f in &still_crashed {
                if *f == id {
                    continue;
                }
                total_pairs += 1;
                if node.known_failed().contains(*f) {
                    informed_pairs += 1;
                } else {
                    missed.push(MissedFailure {
                        observer: id,
                        failed: *f,
                    });
                }
            }
        }
        let completeness = if total_pairs == 0 {
            1.0
        } else {
            informed_pairs as f64 / total_pairs as f64
        };

        FdsOutcome {
            epochs,
            crashed,
            false_detections,
            missed,
            completeness,
            detection_latency,
            update_misses,
            member_epochs,
            metrics: sim.metrics_snapshot(),
            peer_forwards,
            reports,
            retransmissions,
            joins,
            bytes,
            energy_imbalance: sim.energy_imbalance(),
            suspicions_raised,
            suspicions_retracted,
            reports_suppressed,
            bytes_suppressed,
            ledger_ops,
        }
    }
}

/// The read-only surface [`Experiment::evaluate_host`] needs from a
/// finished engine, implemented by the legacy [`Simulator`], the
/// single-queue [`CanonicalSim`], and the spatially tiled
/// [`TiledSim`]. Together with
/// [`cbfd_net::chaos::PlanHost`] this lets the same
/// experiment run unchanged on any engine — the tiling differential
/// suite compares verdicts across all three.
pub trait FdsHost {
    /// `(id, node)` pairs in global node order.
    fn actors(&self) -> Box<dyn Iterator<Item = (NodeId, &FdsNode)> + '_>;
    /// Whether `node` is operational.
    fn is_alive(&self, node: NodeId) -> bool;
    /// Whether `node` withdrew gracefully.
    fn has_departed(&self, node: NodeId) -> bool;
    /// Traffic counters for the whole run.
    fn metrics_snapshot(&self) -> SimMetrics;
    /// Standard deviation of remaining per-node energy.
    fn energy_imbalance(&self) -> f64;
}

impl FdsHost for Simulator<FdsNode> {
    fn actors(&self) -> Box<dyn Iterator<Item = (NodeId, &FdsNode)> + '_> {
        Box::new(self.actors())
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.is_alive(node)
    }
    fn has_departed(&self, node: NodeId) -> bool {
        self.has_departed(node)
    }
    fn metrics_snapshot(&self) -> SimMetrics {
        self.metrics().clone()
    }
    fn energy_imbalance(&self) -> f64 {
        self.energy().imbalance()
    }
}

impl FdsHost for CanonicalSim<FdsNode> {
    fn actors(&self) -> Box<dyn Iterator<Item = (NodeId, &FdsNode)> + '_> {
        Box::new(self.actors())
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.is_alive(node)
    }
    fn has_departed(&self, node: NodeId) -> bool {
        self.has_departed(node)
    }
    fn metrics_snapshot(&self) -> SimMetrics {
        self.metrics().clone()
    }
    fn energy_imbalance(&self) -> f64 {
        self.energy_imbalance()
    }
}

impl FdsHost for TiledSim<FdsNode> {
    fn actors(&self) -> Box<dyn Iterator<Item = (NodeId, &FdsNode)> + '_> {
        Box::new(self.actors())
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.is_alive(node)
    }
    fn has_departed(&self, node: NodeId) -> bool {
        self.has_departed(node)
    }
    fn metrics_snapshot(&self) -> SimMetrics {
        self.metrics()
    }
    fn energy_imbalance(&self) -> f64 {
        self.energy_imbalance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbfd_net::geometry::{Point, Rect};
    use cbfd_net::placement::Placement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_experiment(n: usize, spacing: f64) -> Experiment {
        let positions = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        let topology = Topology::from_positions(positions, 100.0);
        Experiment::new(topology, FdsConfig::default(), FormationConfig::default())
    }

    fn dense_experiment(seed: u64, n: usize, side: f64) -> Experiment {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = Placement::UniformRect(Rect::square(side)).generate(n, &mut rng);
        let topology = Topology::from_positions(pts, 100.0);
        Experiment::new(topology, FdsConfig::default(), FormationConfig::default())
    }

    #[test]
    fn quiet_lossless_run_is_clean() {
        let exp = line_experiment(6, 50.0);
        let outcome = exp.run(0.0, 4, &[], 1);
        assert!(outcome.accurate());
        assert_eq!(outcome.completeness, 1.0);
        assert_eq!(outcome.update_misses, 0);
        assert!(outcome.crashed.is_empty());
    }

    #[test]
    fn member_crash_is_detected_and_propagated() {
        // Chain of clusters; crash an ordinary member.
        let exp = line_experiment(8, 45.0);
        let victim = exp
            .view()
            .clusters()
            .flat_map(|c| c.non_head_members().collect::<Vec<_>>())
            .next()
            .unwrap();
        let outcome = exp.run(
            0.0,
            6,
            &[PlannedCrash {
                epoch: 1,
                node: victim,
            }],
            2,
        );
        assert!(outcome.accurate(), "{:?}", outcome.false_detections);
        assert_eq!(outcome.completeness, 1.0, "missed: {:?}", outcome.missed);
        assert_eq!(outcome.detection_latency.get(&victim), Some(&1));
    }

    #[test]
    fn head_crash_triggers_deputy_takeover() {
        let exp = dense_experiment(3, 60, 300.0);
        let cluster = exp
            .view()
            .clusters()
            .find(|c| c.first_deputy().is_some() && c.len() >= 4)
            .expect("dense cluster with deputies");
        let head = cluster.head();
        let outcome = exp.run(
            0.0,
            6,
            &[PlannedCrash {
                epoch: 1,
                node: head,
            }],
            3,
        );
        assert!(outcome.accurate(), "{:?}", outcome.false_detections);
        assert!(
            outcome.detection_latency.contains_key(&head),
            "head failure must be detected"
        );
        assert_eq!(outcome.completeness, 1.0, "missed: {:?}", outcome.missed);
    }

    #[test]
    fn lossless_run_has_no_false_detections_by_construction() {
        let exp = dense_experiment(5, 80, 400.0);
        let outcome = exp.run(0.0, 5, &[], 5);
        assert!(outcome.accurate());
        assert_eq!(outcome.update_misses, 0);
    }

    #[test]
    fn lossy_run_keeps_good_accuracy_with_redundancy() {
        // p = 0.2 with N≈tens per cluster: the analysis predicts a
        // false-detection probability of order 1e-4 per member-epoch
        // for the *smallest* clusters of this field, so across 3
        // seeds × ~900 member-epochs at most a stray event or two may
        // appear; more would indicate broken redundancy.
        let mut events = 0;
        for seed in 0..3 {
            let exp = dense_experiment(7, 100, 400.0);
            events += exp.run(0.2, 10, &[], seed).false_detections.len();
        }
        assert!(
            events <= 3,
            "redundancy should mask p=0.2 losses: {events} false detections"
        );
    }

    #[test]
    fn crash_propagates_across_many_clusters() {
        // Long chain: failure detected at one end must reach the other
        // end's cluster members via inter-cluster forwarding.
        let exp = line_experiment(14, 45.0);
        assert!(
            exp.view().cluster_count() >= 3,
            "need a multi-cluster chain"
        );
        let victim = NodeId(13);
        let outcome = exp.run(
            0.0,
            8,
            &[PlannedCrash {
                epoch: 1,
                node: victim,
            }],
            11,
        );
        assert_eq!(outcome.completeness, 1.0, "missed: {:?}", outcome.missed);
    }

    #[test]
    fn multiple_crashes_all_detected() {
        let exp = dense_experiment(13, 90, 400.0);
        let members: Vec<NodeId> = exp
            .view()
            .clusters()
            .flat_map(|c| c.non_head_members().collect::<Vec<_>>())
            .take(3)
            .collect();
        let crashes: Vec<PlannedCrash> = members
            .iter()
            .enumerate()
            .map(|(i, m)| PlannedCrash {
                epoch: 1 + i as u64,
                node: *m,
            })
            .collect();
        let outcome = exp.run(0.0, 9, &crashes, 13);
        for m in &members {
            assert!(
                outcome.detection_latency.contains_key(m),
                "{m} not detected"
            );
        }
        assert_eq!(outcome.completeness, 1.0, "missed: {:?}", outcome.missed);
    }

    #[test]
    fn lossy_crash_detection_still_completes() {
        // Seed chosen so the field is dense enough to disseminate
        // through 15% loss under the vendored generator.
        let exp = dense_experiment(16, 80, 400.0);
        let victim = exp
            .view()
            .clusters()
            .flat_map(|c| c.non_head_members().collect::<Vec<_>>())
            .next()
            .unwrap();
        let outcome = exp.run(
            0.15,
            10,
            &[PlannedCrash {
                epoch: 2,
                node: victim,
            }],
            16,
        );
        assert!(
            outcome.detection_latency.contains_key(&victim),
            "crash must be detected under loss"
        );
        assert!(
            outcome.completeness > 0.95,
            "completeness {} too low; missed {:?}",
            outcome.completeness,
            outcome.missed
        );
    }

    #[test]
    fn run_plan_reproduces_classic_run() {
        // A crash-only FaultPlan over the same i.i.d. channel must
        // replay the classic entry point's event stream byte for byte.
        let exp = dense_experiment(3, 60, 300.0);
        let victim = exp
            .view()
            .clusters()
            .flat_map(|c| c.non_head_members().collect::<Vec<_>>())
            .next()
            .unwrap();
        let crashes = [PlannedCrash {
            epoch: 1,
            node: victim,
        }];
        let classic = exp.run(0.15, 6, &crashes, 9);
        let plan = exp.plan_from_crashes(0.15, 6, &crashes);
        let mut crash_events = 0u64;
        let chaotic = exp.run_plan(&plan, 6, 9, &mut |_, ev| {
            if matches!(ev, SimEvent::Crash { .. }) {
                crash_events += 1;
            }
        });
        assert_eq!(crash_events, 1);
        assert_eq!(classic.metrics, chaotic.metrics);
        assert_eq!(classic.false_detections, chaotic.false_detections);
        assert_eq!(classic.missed, chaotic.missed);
        assert_eq!(classic.completeness, chaotic.completeness);
        assert_eq!(classic.detection_latency, chaotic.detection_latency);
        assert_eq!(classic.crashed, chaotic.crashed);
        assert_eq!(classic.bytes, chaotic.bytes);
    }

    #[test]
    fn run_plan_tolerates_malformed_plans() {
        // Out-of-range victims, past instants and beyond-run crashes
        // must not panic — the campaign has to survive any generated
        // schedule.
        let exp = line_experiment(6, 50.0);
        let phi = FdsConfig::default().heartbeat_interval;
        let mut plan = FaultPlan::empty(0.1, SimTime::ZERO + phi * 3);
        plan.primitives.push(FaultPrimitive::Crash {
            at: SimTime::ZERO,
            node: NodeId(999),
        });
        plan.primitives.push(FaultPrimitive::Crash {
            at: SimTime::ZERO + phi * 50,
            node: NodeId(1),
        });
        let outcome = exp.run_plan(&plan, 3, 1, &mut |_, _| {});
        assert!(outcome.crashed.is_empty(), "both crashes were skipped");
        assert!(outcome.metrics.transmissions > 0);
    }

    #[test]
    #[should_panic(expected = "crash epoch")]
    fn crash_beyond_run_is_rejected() {
        let exp = line_experiment(4, 50.0);
        let _ = exp.run(
            0.0,
            2,
            &[PlannedCrash {
                epoch: 5,
                node: NodeId(1),
            }],
            1,
        );
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epoch_run_is_rejected() {
        // Unchecked, the deadline `0·Φ − 1 µs` wraps to the end of time
        // in release builds and the run never returns.
        let exp = line_experiment(4, 50.0);
        let _ = exp.run(0.0, 0, &[], 1);
    }

    #[test]
    fn outcome_display_summarizes() {
        let exp = line_experiment(6, 50.0);
        let outcome = exp.run(
            0.0,
            3,
            &[PlannedCrash {
                epoch: 1,
                node: NodeId(5),
            }],
            1,
        );
        let s = outcome.to_string();
        assert!(s.contains("3 epochs") && s.contains("1 crash"), "{s}");
    }

    #[test]
    fn outcome_rates_are_consistent() {
        let exp = line_experiment(6, 50.0);
        let outcome = exp.run(0.3, 6, &[], 23);
        let rate = outcome.incompleteness_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!(outcome.member_epochs > 0);
    }
}

#[cfg(test)]
mod run_many_tests {
    use super::*;
    use cbfd_net::geometry::Point;

    #[test]
    fn parallel_runs_equal_sequential_runs() {
        let positions = (0..30).map(|i| Point::new(i as f64 * 40.0, 0.0)).collect();
        let topology = Topology::from_positions(positions, 100.0);
        let exp = Experiment::new(topology, FdsConfig::default(), FormationConfig::default());
        let crashes = [PlannedCrash {
            epoch: 1,
            node: NodeId(7),
        }];
        let seeds: Vec<u64> = (0..8).collect();
        let parallel = exp.run_many(0.2, 5, &crashes, &seeds);
        for (seed, outcome) in seeds.iter().zip(&parallel) {
            let sequential = exp.run(0.2, 5, &crashes, *seed);
            assert_eq!(
                outcome.metrics.transmissions,
                sequential.metrics.transmissions
            );
            assert_eq!(outcome.false_detections, sequential.false_detections);
            assert_eq!(outcome.completeness, sequential.completeness);
        }
    }

    #[test]
    fn run_many_handles_empty_and_single() {
        let positions = (0..4).map(|i| Point::new(i as f64 * 40.0, 0.0)).collect();
        let topology = Topology::from_positions(positions, 100.0);
        let exp = Experiment::new(topology, FdsConfig::default(), FormationConfig::default());
        assert!(exp.run_many(0.0, 2, &[], &[]).is_empty());
        assert_eq!(exp.run_many(0.0, 2, &[], &[5]).len(), 1);
    }
}
