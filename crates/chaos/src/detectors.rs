//! Head-to-head detector comparison: the paper's fixed three-round
//! rule vs the adaptive accrual detector
//! ([`DetectionMode::Adaptive`]), judged on **identical** topologies,
//! fault plans and seeds across scripted fault regimes.
//!
//! The campaign runner samples randomized plans; this module instead
//! scripts three regimes chosen to separate the detectors:
//!
//! * `iid_loss` — independent loss storm plus crashes inside and
//!   outside the storm window. The fixed rule's structural 1-epoch
//!   latency shines here; the accrual detector pays its deadline.
//! * `burst_then_crash` — a Gilbert–Elliott channel blackout early in
//!   the run, then a *real* crash well after the channel heals. The
//!   fixed rule mass-condemns during the blackout (permanent false
//!   detections) and, because the eventual victim is already
//!   condemned, never detects the genuine crash at all. The adaptive
//!   detector suspects during the blackout, retracts on the first
//!   late evidence (◇P self-correction), and detects the late crash
//!   with finite latency.
//! * `partition_heal` — a short parity partition splits every
//!   cluster, then heals; a crash follows in calm conditions.
//!
//! Every run is deterministic, and the report renderer emits the same
//! hand-rolled, byte-stable JSON idiom as the campaign report, so
//! `BENCH_detectors.json` can be committed and `--check`ed in CI.

use crate::campaign::{build_experiment, run_monitored, CampaignConfig};
use cbfd_cluster::Role;
use cbfd_core::adaptive;
use cbfd_core::config::{DetectionMode, FdsConfig};
use cbfd_core::service::Experiment;
use cbfd_net::chaos::{FaultPlan, FaultPrimitive};
use cbfd_net::id::NodeId;
use cbfd_net::rng::derive_seed;
use cbfd_net::time::{SimDuration, SimTime};

/// Configuration of one detector-comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonConfig {
    /// Network size.
    pub nodes: usize,
    /// Side of the square deployment area (range is fixed at 100).
    pub side: f64,
    /// Heartbeat intervals per run — long enough for the adaptive
    /// detector to condemn the late crashes of the scripted regimes.
    pub epochs: u64,
    /// Master seed; per-regime run seeds are derived per index.
    pub master_seed: u64,
    /// Monitor sweep stride (the monitor rides along for its
    /// retraction-aware residuals; hard violations are reported, not
    /// gated).
    pub stride: u64,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        ComparisonConfig {
            nodes: 60,
            side: 400.0,
            epochs: 24,
            master_seed: 0xDE7EC7,
            stride: 64,
        }
    }
}

/// One detector's scorecard for one regime.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorRun {
    /// `"fixed"` or `"adaptive"`.
    pub mode: &'static str,
    /// Ground-truth crashes the plan injected.
    pub crashes: usize,
    /// Crashes that earned a detection-latency sample (an authority
    /// detection at or after the crash).
    pub detected: usize,
    /// Crashes never (re-)detected — for the fixed rule this includes
    /// victims it had already falsely condemned before they crashed.
    pub undetected: usize,
    /// Mean crash→detection latency in epochs over detected crashes.
    pub mean_latency_epochs: Option<f64>,
    /// Worst crash→detection latency in epochs.
    pub max_latency_epochs: Option<u64>,
    /// Permanent condemnations of nodes that were alive at the time
    /// (the accuracy violations a fixed rule cannot take back).
    pub false_detections: usize,
    /// Accrual suspicion episodes raised (always `0` for fixed).
    pub suspicions_raised: u64,
    /// Episodes later retracted on late evidence (◇P self-correction;
    /// always `0` for fixed).
    pub suspicions_retracted: u64,
    /// Hard invariant violations the monitor observed (informational).
    pub hard_violations: usize,
    /// Total wire bytes transmitted.
    pub bytes: u64,
}

/// Both detectors' scorecards on one scripted regime.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeOutcome {
    /// Regime label.
    pub regime: &'static str,
    /// The derived run seed both detectors share.
    pub seed: u64,
    /// The scripted plan, in the replayable artifact format.
    pub plan_text: String,
    /// Fixed three-round rule scorecard.
    pub fixed: DetectorRun,
    /// Adaptive accrual detector scorecard.
    pub adaptive: DetectorRun,
}

/// A full comparison: both detectors across all scripted regimes.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// The configuration that produced the report.
    pub config: ComparisonConfig,
    /// Clusters formed over the shared field.
    pub clusters: usize,
    /// Per-regime outcomes, in regime order.
    pub regimes: Vec<RegimeOutcome>,
}

impl ComparisonReport {
    /// Renders the report as deterministic JSON (no wall-clock data:
    /// the same comparison always produces the same bytes).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut out = String::from("{\n");
        out.push_str("  \"report\": \"detector_comparison\",\n");
        out.push_str(&format!("  \"nodes\": {},\n", c.nodes));
        out.push_str(&format!("  \"side\": {},\n", c.side));
        out.push_str(&format!("  \"epochs\": {},\n", c.epochs));
        out.push_str(&format!("  \"master_seed\": {},\n", c.master_seed));
        out.push_str(&format!("  \"stride\": {},\n", c.stride));
        out.push_str(&format!("  \"adaptive_window\": {},\n", adaptive::WINDOW));
        out.push_str(&format!("  \"adaptive_slack\": {},\n", adaptive::SLACK));
        out.push_str(&format!(
            "  \"adaptive_suspect_millis\": {},\n",
            adaptive::SUSPECT_MILLIS
        ));
        out.push_str(&format!(
            "  \"adaptive_condemn_millis\": {},\n",
            adaptive::CONDEMN_MILLIS
        ));
        out.push_str(&format!("  \"clusters\": {},\n", self.clusters));
        out.push_str("  \"regimes\": [\n");
        let rows: Vec<String> = self.regimes.iter().map(render_regime).collect();
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

fn render_detector(r: &DetectorRun) -> String {
    let mut row = String::from("        {\n");
    row.push_str(&format!("          \"mode\": \"{}\",\n", r.mode));
    row.push_str(&format!("          \"crashes\": {},\n", r.crashes));
    row.push_str(&format!("          \"detected\": {},\n", r.detected));
    row.push_str(&format!("          \"undetected\": {},\n", r.undetected));
    match r.mean_latency_epochs {
        Some(m) => row.push_str(&format!("          \"mean_latency_epochs\": {m},\n")),
        None => row.push_str("          \"mean_latency_epochs\": null,\n"),
    }
    match r.max_latency_epochs {
        Some(m) => row.push_str(&format!("          \"max_latency_epochs\": {m},\n")),
        None => row.push_str("          \"max_latency_epochs\": null,\n"),
    }
    row.push_str(&format!(
        "          \"false_detections\": {},\n",
        r.false_detections
    ));
    row.push_str(&format!(
        "          \"suspicions_raised\": {},\n",
        r.suspicions_raised
    ));
    row.push_str(&format!(
        "          \"suspicions_retracted\": {},\n",
        r.suspicions_retracted
    ));
    row.push_str(&format!(
        "          \"hard_violations\": {},\n",
        r.hard_violations
    ));
    row.push_str(&format!("          \"bytes\": {}\n", r.bytes));
    row.push_str("        }");
    row
}

fn render_regime(o: &RegimeOutcome) -> String {
    let mut row = String::from("    {\n");
    row.push_str(&format!("      \"regime\": \"{}\",\n", o.regime));
    row.push_str(&format!("      \"seed\": {},\n", o.seed));
    row.push_str(&format!(
        "      \"plan\": \"{}\",\n",
        json_escape(&o.plan_text)
    ));
    row.push_str("      \"detectors\": [\n");
    row.push_str(&render_detector(&o.fixed));
    row.push_str(",\n");
    row.push_str(&render_detector(&o.adaptive));
    row.push_str("\n      ]\n    }");
    row
}

/// The campaign-config skeleton both experiments are built from; only
/// `fds` differs between the two detectors, so the seeded placement —
/// and therefore the topology and clustering — is shared.
fn base_campaign(config: &ComparisonConfig) -> CampaignConfig {
    CampaignConfig {
        nodes: config.nodes,
        side: config.side,
        epochs: config.epochs,
        master_seed: config.master_seed,
        stride: config.stride,
        ..CampaignConfig::default()
    }
}

/// Ordinary members of the shared clustering, in node-id order — the
/// crash victims the regimes draw from. Plain members are chosen so
/// that a blackout-era false condemnation by the victim's clusterhead
/// is possible (the `burst_then_crash` trap for the fixed rule).
fn ordinary_members(exp: &Experiment, nodes: usize) -> Vec<NodeId> {
    (0..nodes as u32)
        .map(NodeId)
        .filter(|&n| exp.view().role_of(n) == Role::Ordinary)
        .collect()
}

fn at_epoch(phi: SimDuration, epoch: u64) -> SimTime {
    SimTime::ZERO + phi * epoch
}

fn mid_epoch(phi: SimDuration, epoch: u64) -> SimTime {
    at_epoch(phi, epoch) + SimDuration::from_micros(phi.as_micros() / 2)
}

/// Builds the three scripted regimes over the shared field. Victims
/// are drawn from `members` round-robin so each regime crashes
/// distinct nodes.
fn build_regimes(
    config: &ComparisonConfig,
    phi: SimDuration,
    members: &[NodeId],
) -> Vec<(&'static str, FaultPlan)> {
    assert!(
        members.len() >= 4,
        "comparison field too small: {} ordinary members",
        members.len()
    );
    let horizon = at_epoch(phi, config.epochs);

    // Regime 1: i.i.d. loss storm, crashes inside and after the storm.
    let mut iid = FaultPlan::empty(0.05, horizon);
    iid.primitives.push(FaultPrimitive::LossStorm {
        from: at_epoch(phi, 3),
        until: at_epoch(phi, 9),
        p: 0.2,
    });
    iid.primitives.push(FaultPrimitive::Crash {
        at: mid_epoch(phi, 5),
        node: members[0],
    });
    iid.primitives.push(FaultPrimitive::Crash {
        at: mid_epoch(phi, 12),
        node: members[1],
    });

    // Regime 2: an early Gilbert–Elliott blackout (p_bad = 1, sticky
    // bad state), then a genuine crash nine epochs after the heal.
    // Two epochs of blackout are enough for the fixed one-epoch rule
    // to mass-condemn, but keep the accrual score of every silent
    // link below the condemnation threshold — the adaptive detector
    // only suspects, then retracts at the heal.
    let mut burst = FaultPlan::empty(0.02, horizon);
    burst.primitives.push(FaultPrimitive::BurstStorm {
        from: at_epoch(phi, 3),
        until: at_epoch(phi, 5),
        p_bad: 1.0,
        p_gb: 0.9,
        p_bg: 0.002,
    });
    burst.primitives.push(FaultPrimitive::Crash {
        at: mid_epoch(phi, 14),
        node: members[2],
    });

    // Regime 3: a short parity partition splits every cluster, heals,
    // then a crash in calm conditions. Two epochs, for the same
    // reason as the burst regime: corroborating suspicion digests
    // still flow *within* each partition group, so a longer split
    // would push corroborated accrual scores over the condemnation
    // threshold.
    let groups: Vec<u32> = (0..config.nodes as u32).map(|i| i % 2).collect();
    let mut part = FaultPlan::empty(0.05, horizon);
    part.primitives.push(FaultPrimitive::Partition {
        from: at_epoch(phi, 4),
        until: at_epoch(phi, 6),
        groups,
    });
    part.primitives.push(FaultPrimitive::Crash {
        at: mid_epoch(phi, 12),
        node: members[3],
    });

    vec![
        ("iid_loss", iid),
        ("burst_then_crash", burst),
        ("partition_heal", part),
    ]
}

/// Runs one plan under one detector and folds the outcome plus the
/// riding monitor into a scorecard.
fn score(
    exp: &Experiment,
    plan: &FaultPlan,
    config: &ComparisonConfig,
    seed: u64,
    mode: &'static str,
) -> DetectorRun {
    let (outcome, monitor) = run_monitored(exp, plan, config.epochs, seed, config.stride);
    let detected = outcome.detection_latency.len();
    let latencies: Vec<u64> = outcome.detection_latency.values().copied().collect();
    DetectorRun {
        mode,
        crashes: outcome.crashed.len(),
        detected,
        undetected: outcome.crashed.len() - detected,
        mean_latency_epochs: (detected > 0)
            .then(|| latencies.iter().sum::<u64>() as f64 / detected as f64),
        max_latency_epochs: latencies.iter().copied().max(),
        false_detections: outcome.false_detections.len(),
        suspicions_raised: outcome.suspicions_raised,
        suspicions_retracted: outcome.suspicions_retracted,
        hard_violations: monitor.violations().len(),
        bytes: outcome.bytes,
    }
}

/// Runs the full comparison: both detectors across all scripted
/// regimes on identical plans and seeds.
pub fn run_comparison(config: &ComparisonConfig) -> ComparisonReport {
    let base = base_campaign(config);
    let fixed_exp = build_experiment(&base);
    let adaptive_exp = build_experiment(&CampaignConfig {
        fds: FdsConfig {
            detection_mode: DetectionMode::Adaptive,
            ..FdsConfig::default()
        },
        ..base.clone()
    });
    assert_eq!(
        fixed_exp.view().cluster_count(),
        adaptive_exp.view().cluster_count(),
        "detection mode must not perturb clustering"
    );
    let phi = FdsConfig::default().heartbeat_interval;
    let members = ordinary_members(&fixed_exp, config.nodes);
    let regimes = build_regimes(config, phi, &members);
    let outcomes = regimes
        .into_iter()
        .enumerate()
        .map(|(i, (name, plan))| {
            let seed = derive_seed(config.master_seed, i as u64 + 1);
            RegimeOutcome {
                regime: name,
                seed,
                plan_text: plan.to_text(),
                fixed: score(&fixed_exp, &plan, config, seed, "fixed"),
                adaptive: score(&adaptive_exp, &plan, config, seed, "adaptive"),
            }
        })
        .collect();
    ComparisonReport {
        config: config.clone(),
        clusters: fixed_exp.view().cluster_count(),
        regimes: outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ComparisonConfig {
        ComparisonConfig {
            nodes: 40,
            side: 300.0,
            ..ComparisonConfig::default()
        }
    }

    #[test]
    fn comparison_is_deterministic() {
        let config = small();
        let a = run_comparison(&config);
        let b = run_comparison(&config);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn both_detectors_run_identical_plans() {
        let report = run_comparison(&small());
        assert_eq!(report.regimes.len(), 3);
        for regime in &report.regimes {
            assert_eq!(regime.fixed.crashes, regime.adaptive.crashes);
            assert!(regime.fixed.suspicions_raised == 0);
            assert!(regime.fixed.suspicions_retracted == 0);
        }
    }

    #[test]
    fn adaptive_strictly_dominates_burst_then_crash() {
        let report = run_comparison(&ComparisonConfig::default());
        let burst = report
            .regimes
            .iter()
            .find(|r| r.regime == "burst_then_crash")
            .expect("regime present");
        // The fixed rule mass-condemns during the blackout and, having
        // already condemned the eventual victim, never detects the
        // genuine crash at all…
        assert!(burst.fixed.false_detections > 0);
        assert!(burst.fixed.detected < burst.fixed.crashes);
        // …while the adaptive detector only suspects, retracts every
        // blackout-era suspicion at the heal, and condemns the real
        // crash with finite latency: strictly better on both axes.
        assert_eq!(burst.adaptive.false_detections, 0);
        assert!(burst.adaptive.suspicions_retracted > 0);
        assert_eq!(burst.adaptive.detected, burst.adaptive.crashes);
        assert!(burst.adaptive.max_latency_epochs.is_some());
    }

    #[test]
    fn fixed_keeps_its_latency_edge_in_calm_iid_loss() {
        let report = run_comparison(&ComparisonConfig::default());
        let iid = report
            .regimes
            .iter()
            .find(|r| r.regime == "iid_loss")
            .expect("regime present");
        // Both detectors are complete and accurate under mild i.i.d.
        // loss; the fixed rule's structural one-epoch latency beats
        // the accrual deadline — the honest half of the tradeoff.
        assert_eq!(iid.fixed.detected, iid.fixed.crashes);
        assert_eq!(iid.fixed.false_detections, 0);
        assert_eq!(iid.adaptive.detected, iid.adaptive.crashes);
        assert_eq!(iid.adaptive.false_detections, 0);
        assert!(iid.fixed.max_latency_epochs <= iid.adaptive.max_latency_epochs);
    }
}
