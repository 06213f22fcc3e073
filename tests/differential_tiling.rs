//! Tile-count-invariance differential suite: the spatially tiled
//! engine against the single-queue canonical engine, over randomized
//! full-FDS workloads with churn and chaos plans.
//!
//! Every case draws a random geometry and a random [`FaultPlan`]
//! (crashes, cascades, loss/burst storms, partitions, delay jitter,
//! link lag, replay, and — on even cases — join/leave/rejoin churn),
//! then runs the identical plan through [`CanonicalSim`] and through
//! [`TiledSim`] at tile grids 1×1, 2×2, and ~1-node-per-tile ("max"),
//! with worker counts 1, 2, and 8. Everything observable must be
//! byte-identical across every engine × grid × worker combination:
//! the event trace, the traffic metrics, per-node remaining energy
//! (exact f64 bits), the FDS verdict (false detections, missed
//! failures, completeness, detection latencies), and the wire-byte
//! ledger.
//!
//! This is the determinism-contract extension of DESIGN.md §14: the
//! spatial partition and the thread schedule are pure execution
//! details, invisible in the output.

use cbfd::cluster::FormationConfig;
use cbfd::core::config::{DetectionMode, FdsConfig};
use cbfd::core::node::FdsNode;
use cbfd::core::service::Experiment;
use cbfd::net::chaos::{FaultPlan, PlanConfig};
use cbfd::net::tiled::{suggested_grid, CanonicalSim, TiledSim};
use cbfd::net::trace::TraceRecord;
use cbfd::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Everything a run exposes, in comparable form. Outcome and node
/// state are compared via their `Debug` rendering (injective for the
/// finite floats involved); energy as exact bit patterns.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    trace: Vec<TraceRecord>,
    energy_bits: Vec<u64>,
    outcome: String,
    nodes: Vec<String>,
}

fn node_summary(id: NodeId, node: &FdsNode) -> String {
    format!(
        "{id} epoch={} head={:?} failed={:?} detections={:?} suspicions={:?} stats={:?}",
        node.epoch(),
        node.acting_head(),
        node.known_failed(),
        node.detections(),
        node.suspicion_events(),
        node.stats(),
    )
}

/// One randomized workload: an experiment plus the fault plan driven
/// through it.
struct Workload {
    exp: Experiment,
    plan: FaultPlan,
    epochs: u64,
    seed: u64,
    n: usize,
}

fn make_workload(case: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(0x71D3_C0DE ^ (case.wrapping_mul(0x9E37_79B9)));
    let n = rng.random_range(8usize..40);
    let side = rng.random_range(250.0..500.0);
    let positions = (0..n)
        .map(|_| Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect();
    let topology = Topology::from_positions(positions, 100.0);
    // `case % 4 >= 2` puts the adaptive detector on both even (churn)
    // and odd (churn-free) cases, so ◇P suspicion state meets every
    // fault primitive the plan pool generates.
    let fds = FdsConfig {
        aggregation: case % 3 == 1,
        detection_mode: if case % 4 >= 2 {
            DetectionMode::Adaptive
        } else {
            DetectionMode::Fixed
        },
        ..Default::default()
    };
    let epochs = rng.random_range(4u64..8);
    let horizon = SimTime::ZERO + fds.heartbeat_interval * epochs;
    let plan = FaultPlan::generate(
        0xFA17_0000 + case,
        &PlanConfig {
            nodes: n,
            horizon,
            baseline_p: rng.random_range(0.0..0.25),
            max_primitives: 5,
            max_cascade: 4,
            churn: case.is_multiple_of(2),
        },
    );
    let exp = Experiment::new(topology, fds, FormationConfig::default());
    Workload {
        exp,
        plan,
        epochs,
        seed: 0x5EED_0000 + case,
        n,
    }
}

fn run_canonical(w: &Workload) -> Fingerprint {
    let mut sim: CanonicalSim<FdsNode> = w
        .exp
        .build_canonical_sim(RadioConfig::bernoulli(w.plan.baseline_p), w.seed);
    sim.enable_trace();
    w.exp.mark_join_targets(&mut sim, &w.plan);
    let outcome = w.exp.run_plan_on_host(&mut sim, &w.plan, w.epochs);
    Fingerprint {
        trace: sim.trace().records().to_vec(),
        energy_bits: sim
            .energy_remaining_vec()
            .iter()
            .map(|e| e.to_bits())
            .collect(),
        outcome: format!("{outcome:?}"),
        nodes: sim.actors().map(|(id, n)| node_summary(id, n)).collect(),
    }
}

fn run_tiled(w: &Workload, gx: u32, gy: u32, workers: usize) -> Fingerprint {
    let mut sim: TiledSim<FdsNode> =
        w.exp
            .build_tiled_sim(RadioConfig::bernoulli(w.plan.baseline_p), w.seed, gx, gy);
    sim.set_workers(workers);
    sim.enable_trace();
    w.exp.mark_join_targets(&mut sim, &w.plan);
    let outcome = w.exp.run_plan_on_host(&mut sim, &w.plan, w.epochs);
    Fingerprint {
        trace: sim.trace().records().to_vec(),
        energy_bits: sim
            .energy_remaining_vec()
            .iter()
            .map(|e| e.to_bits())
            .collect(),
        outcome: format!("{outcome:?}"),
        nodes: sim.actors().map(|(id, n)| node_summary(id, n)).collect(),
    }
}

fn assert_fingerprints_equal(case: u64, label: &str, a: &Fingerprint, b: &Fingerprint) {
    assert_eq!(
        a.trace.len(),
        b.trace.len(),
        "case {case} [{label}]: trace lengths diverge"
    );
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(x, y, "case {case} [{label}]: trace record {i} diverges");
    }
    assert_eq!(
        a.energy_bits, b.energy_bits,
        "case {case} [{label}]: energy bits diverge"
    );
    assert_eq!(
        a.outcome, b.outcome,
        "case {case} [{label}]: FDS outcome diverges"
    );
    for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
        assert_eq!(x, y, "case {case} [{label}]: node {i} final state diverges");
    }
}

#[test]
fn tiled_engine_is_invariant_in_grid_and_workers_on_randomized_workloads() {
    const CASES: u64 = 102;
    let mut churn_cases = 0u64;
    let mut adaptive_suspicions = 0u64;
    for case in 0..CASES {
        let w = make_workload(case);
        if w.plan.has_churn() {
            churn_cases += 1;
        }
        let canonical = run_canonical(&w);
        adaptive_suspicions += canonical
            .nodes
            .iter()
            .map(|s| s.matches("SuspicionEvent").count() as u64)
            .sum::<u64>();
        // Grids 1×1 / 2×2 / max (~1 node per tile), workers 1 / 2 / 8,
        // rotated so every grid meets every worker count across cases.
        let (mx, my) = suggested_grid(w.n, 1);
        let combos: [(u32, u32, usize); 3] = match case % 3 {
            0 => [(1, 1, 1), (2, 2, 2), (mx, my, 8)],
            1 => [(1, 1, 2), (2, 2, 8), (mx, my, 1)],
            _ => [(1, 1, 8), (2, 2, 1), (mx, my, 2)],
        };
        for (gx, gy, workers) in combos {
            let tiled = run_tiled(&w, gx, gy, workers);
            assert_fingerprints_equal(case, &format!("{gx}x{gy} w{workers}"), &canonical, &tiled);
        }
    }
    assert!(
        churn_cases >= 10,
        "workload mix lost its churn coverage ({churn_cases} cases)"
    );
    assert!(
        adaptive_suspicions > 0,
        "no adaptive case ever raised a suspicion — the ◇P path went untested"
    );
}

#[test]
fn aggregate_byte_ledgers_agree_across_engines() {
    // Beyond per-node equality (covered above), pin the aggregates the
    // paper's byte-cost tables are computed from.
    let w = make_workload(7);
    let canonical = run_canonical(&w);
    let tiled = run_tiled(&w, 3, 2, 2);
    let sum = |fp: &Fingerprint, key: &str| -> u64 {
        // NodeStats Debug renders `bytes_sent: N`.
        fp.nodes
            .iter()
            .map(|s| {
                let at = s.find(key).expect("stat key present") + key.len();
                s[at..]
                    .trim_start()
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<u64>()
                    .expect("numeric stat")
            })
            .sum()
    };
    let bytes = sum(&canonical, "bytes_sent:");
    assert!(bytes > 0, "workload transmitted nothing");
    assert_eq!(bytes, sum(&tiled, "bytes_sent:"));
}
