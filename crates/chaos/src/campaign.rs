//! Pinned-seed chaos campaigns: generate a batch of randomized
//! [`FaultPlan`]s, run the full FDS under each with the online
//! [`Monitor`] attached, shrink any plan that produced a hard
//! violation to a minimal reproducer, and render a byte-deterministic
//! JSON report.
//!
//! Determinism contract (mirrors the PR 1 sweep runner): the plans are
//! derived from the master seed per index, each run is independent,
//! results are merged in plan order via [`cbfd_net::par::par_map`],
//! and shrinking is a sequential post-pass in plan order — so the
//! report bytes are identical for any worker count. The report
//! deliberately contains no wall-clock timings; throughput is printed
//! separately by the `chaos` bin's `--overhead` mode.

use crate::monitor::Monitor;
use cbfd_cluster::FormationConfig;
use cbfd_core::config::FdsConfig;
use cbfd_core::service::Experiment;
use cbfd_net::chaos::{shrink, FaultPlan, PlanConfig};
use cbfd_net::geometry::Rect;
use cbfd_net::par;
use cbfd_net::placement::Placement;
use cbfd_net::rng::derive_seed;
use cbfd_net::time::SimTime;
use cbfd_net::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of fault plans to generate and run.
    pub plans: usize,
    /// Network size.
    pub nodes: usize,
    /// Side of the square deployment area (range is fixed at 100).
    pub side: f64,
    /// Heartbeat intervals per run.
    pub epochs: u64,
    /// Master seed; plan seeds are derived per index.
    pub master_seed: u64,
    /// Monitor sweep stride in events (`1` = every event, `0` = cheap
    /// checks only).
    pub stride: u64,
    /// Baseline channel loss probability between fault windows.
    pub baseline_p: f64,
    /// Upper bound on primitives per generated plan.
    pub max_primitives: usize,
    /// Oracle-invocation budget when shrinking a failing plan.
    pub max_shrink_tests: u32,
    /// Worker threads (the report is identical for any value).
    pub workers: usize,
    /// Whether generated plans include the v2 churn primitives
    /// (joins, graceful leaves, rejoins).
    pub churn: bool,
    /// When non-zero, every plan forks off one shared warmed-up
    /// checkpoint taken after this many quiet epochs (seeded from the
    /// master seed) instead of cold-starting — the fault schedules
    /// then diverge from identical mid-run state. The run deadline is
    /// `epochs` total, so it must exceed the warmup.
    pub fork_warm_epochs: u64,
    /// Protocol configuration every run uses. Defaults to
    /// [`FdsConfig::default`]; the detector-comparison harness swaps
    /// in `DetectionMode::Adaptive` here to judge both detectors on
    /// identical topologies, plans and seeds.
    pub fds: FdsConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            plans: 20,
            nodes: 100,
            side: 500.0,
            epochs: 6,
            master_seed: 0xC4A05,
            stride: 64,
            baseline_p: 0.1,
            max_primitives: 6,
            max_shrink_tests: 200,
            workers: par::default_workers(),
            churn: false,
            fork_warm_epochs: 0,
            fds: FdsConfig::default(),
        }
    }
}

/// A shrunk reproducer for a failing plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkReproducer {
    /// The minimal plan, in the replayable artifact format.
    pub plan_text: String,
    /// Primitives surviving the shrink.
    pub primitives: usize,
    /// Oracle invocations the shrink spent.
    pub tests_run: u32,
    /// Rendered hard violations the shrunk plan reproduces.
    pub violations: Vec<String>,
}

/// Outcome of one plan in a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// Plan index within the campaign.
    pub index: usize,
    /// The derived plan seed (also the run seed).
    pub seed: u64,
    /// The generated plan, in the replayable artifact format.
    pub plan_text: String,
    /// Primitives in the plan.
    pub primitives: usize,
    /// Ground-truth crashes the plan injected.
    pub crashes: usize,
    /// End-of-run completeness over surviving affiliated observers.
    pub completeness: f64,
    /// End-of-run accuracy violations (paper residual, not gated).
    pub false_detections: usize,
    /// End-of-run missed (observer, crash) pairs (residual).
    pub missed: usize,
    /// Channel transmissions during the run.
    pub transmissions: u64,
    /// Events the monitor observed.
    pub events_observed: u64,
    /// Expensive monitor sweeps executed.
    pub sweeps_run: u64,
    /// Rendered hard violations (empty = pass).
    pub hard_violations: Vec<String>,
    /// Time of the first hard violation, in microseconds.
    pub first_violation_us: Option<u64>,
    /// Present when the plan failed and was shrunk.
    pub shrunk: Option<ShrunkReproducer>,
}

/// A full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The configuration that produced the report.
    pub config: CampaignConfig,
    /// Clusters formed over the generated field.
    pub clusters: usize,
    /// Per-plan outcomes, in plan order.
    pub outcomes: Vec<PlanOutcome>,
}

impl CampaignReport {
    /// Plans that produced at least one hard violation.
    pub fn failing(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.hard_violations.is_empty())
            .count()
    }

    /// Renders the report as deterministic JSON (no wall-clock data:
    /// the same campaign always produces the same bytes).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut out = String::from("{\n");
        out.push_str("  \"report\": \"chaos_campaign\",\n");
        out.push_str(&format!("  \"plans\": {},\n", c.plans));
        out.push_str(&format!("  \"nodes\": {},\n", c.nodes));
        out.push_str(&format!("  \"side\": {},\n", c.side));
        out.push_str(&format!("  \"epochs\": {},\n", c.epochs));
        out.push_str(&format!("  \"master_seed\": {},\n", c.master_seed));
        out.push_str(&format!("  \"stride\": {},\n", c.stride));
        out.push_str(&format!("  \"baseline_p\": {},\n", c.baseline_p));
        out.push_str(&format!("  \"churn\": {},\n", c.churn));
        out.push_str(&format!(
            "  \"fork_warm_epochs\": {},\n",
            c.fork_warm_epochs
        ));
        out.push_str(&format!("  \"clusters\": {},\n", self.clusters));
        out.push_str(&format!("  \"failing_plans\": {},\n", self.failing()));
        out.push_str("  \"results\": [\n");
        let rows: Vec<String> = self.outcomes.iter().map(render_outcome).collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            ch if (ch as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", ch as u32)),
            ch => out.push(ch),
        }
    }
    out
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn render_outcome(o: &PlanOutcome) -> String {
    let mut row = String::from("    {\n");
    row.push_str(&format!("      \"index\": {},\n", o.index));
    row.push_str(&format!("      \"seed\": {},\n", o.seed));
    row.push_str(&format!(
        "      \"plan\": \"{}\",\n",
        json_escape(&o.plan_text)
    ));
    row.push_str(&format!("      \"primitives\": {},\n", o.primitives));
    row.push_str(&format!("      \"crashes\": {},\n", o.crashes));
    row.push_str(&format!("      \"completeness\": {},\n", o.completeness));
    row.push_str(&format!(
        "      \"false_detections\": {},\n",
        o.false_detections
    ));
    row.push_str(&format!("      \"missed\": {},\n", o.missed));
    row.push_str(&format!("      \"transmissions\": {},\n", o.transmissions));
    row.push_str(&format!(
        "      \"events_observed\": {},\n",
        o.events_observed
    ));
    row.push_str(&format!("      \"sweeps_run\": {},\n", o.sweeps_run));
    row.push_str(&format!(
        "      \"hard_violations\": {},\n",
        json_str_list(&o.hard_violations)
    ));
    match o.first_violation_us {
        Some(us) => row.push_str(&format!("      \"first_violation_us\": {us}")),
        None => row.push_str("      \"first_violation_us\": null"),
    }
    if let Some(s) = &o.shrunk {
        row.push_str(",\n      \"shrunk\": {\n");
        row.push_str(&format!(
            "        \"plan\": \"{}\",\n",
            json_escape(&s.plan_text)
        ));
        row.push_str(&format!("        \"primitives\": {},\n", s.primitives));
        row.push_str(&format!("        \"tests_run\": {},\n", s.tests_run));
        row.push_str(&format!(
            "        \"violations\": {}\n",
            json_str_list(&s.violations)
        ));
        row.push_str("      }\n    }");
    } else {
        row.push_str("\n    }");
    }
    row
}

/// Builds the campaign's shared experiment: a seeded uniform field of
/// `nodes` hosts with transmission range 100, clustered by the oracle.
pub fn build_experiment(config: &CampaignConfig) -> Experiment {
    let mut rng = StdRng::seed_from_u64(derive_seed(config.master_seed, 0xF1E1D));
    let pts = Placement::UniformRect(Rect::square(config.side)).generate(config.nodes, &mut rng);
    let topology = Topology::from_positions(pts, 100.0);
    Experiment::new(topology, config.fds, FormationConfig::default())
}

/// The [`PlanConfig`] a campaign samples plans from.
pub fn plan_config(config: &CampaignConfig) -> PlanConfig {
    let phi = config.fds.heartbeat_interval;
    PlanConfig {
        nodes: config.nodes,
        horizon: SimTime::ZERO + phi * config.epochs,
        baseline_p: config.baseline_p,
        max_primitives: config.max_primitives,
        max_cascade: 8,
        churn: config.churn,
    }
}

/// Takes the shared warm snapshot a forked campaign branches from: a
/// quiet run (no faults) of `fork_warm_epochs` heartbeat intervals
/// seeded from the master seed, checkpointed mid-flight.
pub fn warm_checkpoint(exp: &Experiment, config: &CampaignConfig) -> Vec<u8> {
    let phi = config.fds.heartbeat_interval;
    let mut sim = exp.build_sim(
        cbfd_net::radio::RadioConfig::bernoulli(config.baseline_p),
        config.master_seed,
    );
    sim.run_until(SimTime::ZERO + phi * config.fork_warm_epochs);
    sim.checkpoint().expect("warm checkpoint serializes")
}

/// Runs one plan under the monitor, returning its outcome (without
/// the shrink pass). When `warm` is provided, the run forks off that
/// checkpoint instead of cold-starting.
fn run_one(
    exp: &Experiment,
    config: &CampaignConfig,
    warm: Option<&[u8]>,
    index: usize,
    seed: u64,
) -> PlanOutcome {
    let plan = FaultPlan::generate(seed, &plan_config(config));
    let (outcome, monitor) = match warm {
        Some(bytes) => run_monitored_forked(exp, bytes, &plan, config.epochs, config.stride),
        None => run_monitored(exp, &plan, config.epochs, seed, config.stride),
    };
    PlanOutcome {
        index,
        seed,
        plan_text: plan.to_text(),
        primitives: plan.primitives.len(),
        crashes: outcome.crashed.len(),
        completeness: outcome.completeness,
        false_detections: outcome.false_detections.len(),
        missed: outcome.missed.len(),
        transmissions: outcome.metrics.transmissions,
        events_observed: monitor.events_seen(),
        sweeps_run: monitor.sweeps_run(),
        hard_violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
        first_violation_us: monitor
            .first_violation()
            .map(|v| v.at().since(SimTime::ZERO).as_micros()),
        shrunk: None,
    }
}

/// Runs `plan` on `exp` with a fresh [`Monitor`] attached, returning
/// both the FDS outcome and the monitor.
pub fn run_monitored(
    exp: &Experiment,
    plan: &FaultPlan,
    epochs: u64,
    seed: u64,
    stride: u64,
) -> (cbfd_core::service::FdsOutcome, Monitor) {
    let mut monitor = Monitor::new(exp.topology().clone(), exp.view().clone(), stride);
    let outcome = exp.run_plan(plan, epochs, seed, &mut |sim, ev| monitor.observe(sim, ev));
    (outcome, monitor)
}

/// Like [`run_monitored`], but restores the simulator from a
/// checkpoint (see [`warm_checkpoint`]) and lets `plan` diverge from
/// there. The monitor starts clean, which is sound because the warm
/// prefix is quiet: no crashes or churn happen before the fork point.
pub fn run_monitored_forked(
    exp: &Experiment,
    checkpoint: &[u8],
    plan: &FaultPlan,
    epochs: u64,
    stride: u64,
) -> (cbfd_core::service::FdsOutcome, Monitor) {
    let mut sim = cbfd_net::sim::Simulator::restore(checkpoint).expect("warm checkpoint restores");
    let mut monitor = Monitor::new(exp.topology().clone(), exp.view().clone(), stride);
    let outcome = exp.run_plan_on(&mut sim, plan, epochs, &mut |sim, ev| {
        monitor.observe(sim, ev)
    });
    (outcome, monitor)
}

/// Runs the whole campaign: parallel plan execution (worker-count
/// invariant), then a sequential shrink pass over any failing plans.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let exp = build_experiment(config);
    let warm: Option<Vec<u8>> =
        (config.fork_warm_epochs > 0).then(|| warm_checkpoint(&exp, config));
    let indices: Vec<usize> = (0..config.plans).collect();
    let mut outcomes = par::par_map(config.workers, &indices, |_, &i| {
        let seed = derive_seed(config.master_seed, i as u64 + 1);
        run_one(&exp, config, warm.as_deref(), i, seed)
    });

    // Shrink failing plans sequentially, in plan order, so the report
    // stays deterministic for any worker count.
    for outcome in &mut outcomes {
        if outcome.hard_violations.is_empty() {
            continue;
        }
        let rerun = |plan: &FaultPlan| match warm.as_deref() {
            Some(bytes) => run_monitored_forked(&exp, bytes, plan, config.epochs, config.stride),
            None => run_monitored(&exp, plan, config.epochs, outcome.seed, config.stride),
        };
        let plan = FaultPlan::from_text(&outcome.plan_text).expect("own artifact parses");
        let fails = |candidate: &FaultPlan| !rerun(candidate).1.violations().is_empty();
        let result = shrink(&plan, fails, config.max_shrink_tests);
        let (_, monitor) = rerun(&result.plan);
        outcome.shrunk = Some(ShrunkReproducer {
            plan_text: result.plan.to_text(),
            primitives: result.plan.primitives.len(),
            tests_run: result.tests_run,
            violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
        });
    }

    CampaignReport {
        config: config.clone(),
        clusters: exp.view().cluster_count(),
        outcomes,
    }
}

/// Replays a plan artifact against the campaign topology at stride 1,
/// returning the outcome, the monitor and the parsed plan — the
/// programmatic face of `chaos --replay`.
pub fn replay(
    config: &CampaignConfig,
    plan_text: &str,
    seed: u64,
) -> Result<(cbfd_core::service::FdsOutcome, Monitor, FaultPlan), String> {
    let plan = FaultPlan::from_text(plan_text)?;
    let exp = build_experiment(config);
    let (outcome, monitor) = run_monitored(&exp, &plan, config.epochs, seed, 1);
    Ok((outcome, monitor, plan))
}
