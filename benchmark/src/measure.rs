//! The measured run (`--trace 0`): whole passes of one workload —
//! set-up, every epoch, evaluation — repeated for as long as
//! `--seconds` allows, timed from outside with tracing off, and
//! checked.
//!
//! Host-time metrics describe the typical pass: every timed part (the
//! set-up, each step, the evaluation) at its median across the passes.
//! Simulated statistics come from the first pass; every later pass
//! must reproduce its `outcome_digest`.

use crate::digest::{fold_digests, outcome_digest};
use crate::report::Values;
use crate::stats::median;
use crate::workload::{
    build_field, build_tiled, build_world, end_of_epoch, tiled_seeds, world_seed, Engine, Field,
    Size, Workload,
};
use cbfd_cluster::invariants;
use cbfd_core::node::FdsNode;
use cbfd_core::service::{FdsOutcome, PlannedCrash};
use cbfd_net::tiled::TiledSim;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Stand-alone set-ups timed after the last pass, so that `setup_s`
/// is a median of at least three samples even when one pass fills the
/// run.
const EXTRA_SETUPS: usize = 2;

/// What the simulated system did in one pass — exact for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Simulated {
    /// `FdsOutcome::member_epochs`, summed over worlds.
    pub member_epochs: u64,
    /// Member-epochs of the measured steps (warm-up epoch excluded).
    pub measured_member_epochs: u64,
    /// Deliveries + copies dropped at dead nodes + timers fired.
    pub events: u64,
    /// Wire bytes per the message codec.
    pub bytes: u64,
    /// Completeness, averaged over worlds.
    pub completeness: f64,
    /// Accuracy violations.
    pub false_detections: u64,
    /// Update-miss events.
    pub update_misses: u64,
    /// Slowest first detection of a crash, epochs (0: nothing crashed).
    pub detect_latency_max: u64,
    /// Fingerprint of every outcome of the pass.
    pub digest: u64,
}

impl Simulated {
    /// Adds one world's outcome; `warmup_members` is the member-epochs
    /// of its unmeasured warm-up step.
    fn absorb(&mut self, o: &FdsOutcome, warmup_members: u64) {
        self.member_epochs += o.member_epochs;
        self.measured_member_epochs += o.member_epochs - warmup_members;
        self.events += o.metrics.deliveries + o.metrics.dropped_dead + o.metrics.timers_fired;
        self.bytes += o.bytes;
        self.completeness += o.completeness;
        self.false_detections += o.false_detections.len() as u64;
        self.update_misses += o.update_misses;
        self.detect_latency_max = self
            .detect_latency_max
            .max(o.detection_latency.values().copied().max().unwrap_or(0));
    }
}

/// One pass: host times, the simulated statistics, and the operations
/// it attempted and failed.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Everything before the first simulated event.
    pub setup_s: f64,
    /// Host ms per measured step.
    pub steps_ms: Vec<f64>,
    /// Host seconds of the unmeasured warm-up steps (tiled only).
    pub warmup_s: f64,
    /// `evaluate_host` (tiled only; inside `run` otherwise).
    pub evaluate_s: f64,
    /// Simulated statistics.
    pub sim: Simulated,
    /// Operations attempted: one per world.
    pub attempted: u64,
    /// Why operations failed (one entry each).
    pub failures: Vec<String>,
}

/// Checks one outcome against what its workload promises. An empty
/// list means the operation succeeded.
pub fn check_outcome(w: &Workload, size: &Size, field: &Field, o: &FdsOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    let violations = invariants::check(field.exp.topology(), field.exp.view());
    if !violations.is_empty() {
        failures.push(format!(
            "{} formation invariant violations, first: {}",
            violations.len(),
            violations[0]
        ));
    }
    if o.member_epochs == 0 {
        failures.push("no member-epochs: nothing was simulated".into());
    }
    for v in &field.victims {
        if !o.detection_latency.contains_key(v) {
            failures.push(format!("crash of {v} was never detected"));
        }
    }
    if w.engine == Engine::Tiled {
        // A connected dense field: every survivor must learn every
        // crash. (The small worlds may be partitioned, so there only
        // detection is owed.)
        if o.completeness < 0.999 {
            failures.push(format!("completeness {} < 0.999", o.completeness));
        }
        // At p = 0.01 a two-member cluster can still lose a heartbeat
        // and its only digest in one epoch (seed 2 does, once): allow
        // the channel's own rate, fail on a protocol-sized one.
        let rate = o.false_detections.len() as f64 / o.member_epochs.max(1) as f64;
        if size.crashes == 0 && w.loss_p <= 0.01 && rate > 1e-4 {
            failures.push(format!("false-detection rate {rate:e} on a calm field"));
        }
    }
    failures
}

/// Runs `op`, turning a panic into a failure message.
fn guarded<T>(what: &str, op: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(op)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("{what} panicked: {msg}")
    })
}

/// What one world contributed to a pass.
struct WorldRun {
    setup_s: f64,
    warmup_s: f64,
    steps_ms: Vec<f64>,
    evaluate_s: f64,
    /// Member-epochs of the unmeasured warm-up step.
    warmup_members: u64,
    outcome: FdsOutcome,
    failures: Vec<String>,
}

/// Set-up of tiled world `k`, timed as `setup_s` defines it:
/// placement, topology, formation, profiles, engine construction,
/// crash schedule.
pub fn set_up_tiled(
    w: &Workload,
    size: &Size,
    seed: u64,
    k: u64,
    workers: usize,
) -> (Field, TiledSim<FdsNode>, f64) {
    let (placement_seed, sim_seed) = tiled_seeds(seed, k);
    let t = Instant::now();
    let field = build_field(w, placement_seed, size.crashes);
    let sim = build_tiled(&field, w, sim_seed, workers);
    (field, sim, t.elapsed().as_secs_f64())
}

/// One large world on the tiled engine, one step per epoch; epoch 0
/// is the warm-up step.
fn tiled_world(w: &Workload, size: &Size, seed: u64, k: u64) -> WorldRun {
    let (field, mut sim, setup_s) = set_up_tiled(w, size, seed, k, w.effective_workers());
    let mut steps_ms = Vec::with_capacity(size.epochs as usize);
    for epoch in 0..size.epochs {
        let t = Instant::now();
        sim.run_until(end_of_epoch(epoch));
        steps_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let outcome = field
        .exp
        .evaluate_host(&sim, size.epochs, &field.crash_epochs(w));
    let evaluate_s = t.elapsed().as_secs_f64();
    let warmup_s = steps_ms.remove(0) * 1e-3;
    WorldRun {
        setup_s,
        warmup_s,
        steps_ms,
        evaluate_s,
        warmup_members: field.members(),
        failures: check_outcome(w, size, &field, &outcome),
        outcome,
    }
}

/// One small world run through the public experiment path.
#[derive(Debug)]
pub struct World {
    /// The formed world (for the checks and the stage spans).
    pub field: Field,
    /// What `Experiment::run` returned.
    pub outcome: FdsOutcome,
    /// Placement → topology → `Experiment::new` → crash plan, seconds.
    pub setup_s: f64,
    /// When `Experiment::run` was entered and left.
    pub run: (Instant, Instant),
}

impl World {
    /// Host seconds inside `Experiment::run`.
    pub fn run_s(&self) -> f64 {
        (self.run.1 - self.run.0).as_secs_f64()
    }
}

/// Builds and runs small world `seed` of `w`.
pub fn run_world(w: &Workload, size: &Size, seed: u64) -> World {
    let t = Instant::now();
    let field = build_world(w, seed, size.crashes);
    let crashes: Vec<PlannedCrash> = field
        .victims
        .iter()
        .map(|v| PlannedCrash {
            epoch: w.crash_epoch,
            node: *v,
        })
        .collect();
    let setup_s = t.elapsed().as_secs_f64();
    let start = Instant::now();
    let outcome = field.exp.run(w.loss_p, size.epochs, &crashes, seed);
    World {
        field,
        outcome,
        setup_s,
        run: (start, Instant::now()),
    }
}

/// One small world: the whole `Experiment::run` is its one step.
fn small_world(w: &Workload, size: &Size, seed: u64, i: u64) -> WorldRun {
    let world = run_world(w, size, world_seed(seed, i));
    WorldRun {
        setup_s: world.setup_s,
        warmup_s: 0.0,
        steps_ms: vec![world.run_s() * 1e3],
        evaluate_s: 0.0,
        warmup_members: 0,
        failures: check_outcome(w, size, &world.field, &world.outcome),
        outcome: world.outcome,
    }
}

/// One whole pass of `w` at `size`: every world set up, run and
/// evaluated. A world that panics or fails a check is a failed
/// operation.
pub fn run_pass(w: &Workload, size: &Size, seed: u64) -> Pass {
    let mut pass = Pass {
        attempted: size.worlds,
        ..Pass::default()
    };
    let mut digests = Vec::with_capacity(size.worlds as usize);
    for i in 0..size.worlds {
        let world = guarded("world", || match w.engine {
            Engine::Tiled => tiled_world(w, size, seed, i),
            Engine::ManyWorlds => small_world(w, size, seed, i),
        });
        match world {
            Ok(world) => {
                pass.setup_s += world.setup_s;
                pass.warmup_s += world.warmup_s;
                pass.steps_ms.extend(world.steps_ms);
                pass.evaluate_s += world.evaluate_s;
                pass.sim.absorb(&world.outcome, world.warmup_members);
                digests.push(outcome_digest(&world.outcome));
                if !world.failures.is_empty() {
                    pass.failures
                        .push(format!("world {i}: {}", world.failures.join("; ")));
                }
            }
            Err(panic) => pass.failures.push(format!("world {i}: {panic}")),
        }
    }
    pass.sim.completeness /= digests.len().max(1) as f64;
    pass.sim.digest = fold_digests(digests);
    pass
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result of the measured run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// End-to-end metric values by name; empty when no pass completed.
    pub values: Values,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Why operations failed; empty when the run is correct.
    pub failures: Vec<String>,
    /// Whole passes run.
    pub passes: usize,
    /// Step-time samples behind `step_ms_p50`.
    pub step_samples: usize,
    /// `outcome_digest` of the workload at this seed.
    pub digest: u64,
}

/// The typical pass: each timed part at its median across `passes`.
/// A burst of host noise that lands on one step of one pass does not
/// move it, where it would move that pass's total. Returns the seconds
/// in the measured steps and in the whole pass.
fn typical_pass(passes: &[&Pass]) -> (f64, f64) {
    let part = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let steps = passes[0].steps_ms.len();
    let measured_s = (0..steps).map(|i| part(&|p| p.steps_ms[i])).sum::<f64>() * 1e-3;
    let wall_s =
        part(&|p| p.setup_s) + part(&|p| p.warmup_s) + measured_s + part(&|p| p.evaluate_s);
    (measured_s, wall_s)
}

/// Measures `w` at `seed` for about `seconds`: as many whole passes as
/// fit (at least one), then the extra set-ups.
pub fn measure(w: &Workload, seed: u64, seconds: f64) -> Measured {
    let started = Instant::now();
    let size = &w.measured;
    let mut passes: Vec<Pass> = Vec::new();
    // Peak memory is that of ONE pass in a fresh process; later passes
    // only add what the allocator chose not to give back.
    let mut peak_rss = 0.0;
    loop {
        let t = Instant::now();
        passes.push(run_pass(w, size, seed));
        let last = t.elapsed().as_secs_f64();
        if passes.len() == 1 {
            peak_rss = peak_rss_mb().unwrap_or(0.0);
        }
        let extra_setups = EXTRA_SETUPS as f64 * passes[0].setup_s;
        if started.elapsed().as_secs_f64() + last + extra_setups > seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    if w.engine == Engine::Tiled {
        for _ in 0..EXTRA_SETUPS {
            let all_worlds: f64 = (0..size.worlds)
                .map(|k| set_up_tiled(w, size, seed, k, w.effective_workers()).2)
                .sum();
            setups.push(all_worlds);
        }
    }

    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let attempted = passes.iter().map(|p| p.attempted).sum();
    // Host times come from the passes in which every world ran.
    let whole: Vec<&Pass> = passes
        .iter()
        .filter(|p| p.steps_ms.len() == passes[0].steps_ms.len() && !p.steps_ms.is_empty())
        .collect();
    let first = &passes[0].sim;
    let mut values = Values::new();
    if !whole.is_empty() && first.member_epochs > 0 {
        for (i, p) in passes.iter().enumerate().skip(1) {
            if p.sim.digest != first.digest {
                failures.push(format!(
                    "pass {i} digest {:016x} differs from pass 0 digest {:016x}",
                    p.sim.digest, first.digest
                ));
            }
        }
        let steps: Vec<f64> = whole
            .iter()
            .flat_map(|p| p.steps_ms.iter().copied())
            .collect();
        let (measured_s, wall_s) = typical_pass(&whole);
        let member_epochs = first.member_epochs as f64;
        let mut set = |name: &str, v: f64| {
            values.insert(name.to_string(), v);
        };
        set("wall_s", wall_s);
        set("setup_s", median(&setups));
        set(
            "member_epochs_per_s",
            first.measured_member_epochs as f64 / measured_s,
        );
        set("step_ms_p50", median(&steps));
        set("peak_rss_mb", peak_rss);
        set(
            "events_per_member_epoch",
            first.events as f64 / member_epochs,
        );
        set(
            "wire_bytes_per_member_epoch",
            first.bytes as f64 / member_epochs,
        );
        set("completeness", first.completeness);
        set(
            "accuracy",
            1.0 - first.false_detections as f64 / member_epochs,
        );
        set(
            "update_delivery",
            1.0 - first.update_misses as f64 / member_epochs,
        );
    }

    Measured {
        values,
        attempted,
        failures,
        passes: passes.len(),
        step_samples: whole.iter().map(|p| p.steps_ms.len()).sum(),
        digest: first.digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{RunResult, END_TO_END};
    use crate::workload::by_name;

    /// A 400-node cut of the crash wave: two worlds, two crashes each.
    fn tiny_tiled() -> Workload {
        Workload {
            n: 400,
            crash_epoch: 1,
            measured: Size {
                epochs: 5,
                crashes: 2,
                worlds: 2,
            },
            ..*by_name("crash_wave").expect("crash_wave exists")
        }
    }

    fn tiny_many() -> Workload {
        Workload {
            measured: Size {
                epochs: 8,
                crashes: 1,
                worlds: 5,
            },
            ..*by_name("small_many").expect("small_many exists")
        }
    }

    #[test]
    fn every_end_to_end_metric_is_measured_and_never_zero() {
        for w in [tiny_tiled(), tiny_many()] {
            let m = measure(&w, 3, 0.0);
            assert_eq!(m.failures, Vec::<String>::new(), "{}", w.name);
            assert_eq!(m.passes, 1, "a zero budget still runs one whole pass");
            assert_eq!(m.attempted, w.measured.worlds);
            let r = RunResult::end_to_end(true, m.attempted, 0, &m.values);
            assert_eq!(r.metrics.len(), END_TO_END.len());
            for (name, value, _) in &r.metrics {
                assert!(*value > 0.0, "{}: {name} = {value}", w.name);
            }
        }
    }

    #[test]
    fn simulated_statistics_repeat_exactly_and_follow_the_seed() {
        let w = tiny_tiled();
        let (a, b, other) = (
            measure(&w, 3, 0.0),
            measure(&w, 3, 0.0),
            measure(&w, 4, 0.0),
        );
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, other.digest);
        for d in END_TO_END.iter().filter(|d| d.simulated) {
            assert_eq!(a.values[d.name], b.values[d.name], "{}", d.name);
        }
    }

    #[test]
    fn passes_repeat_while_the_budget_lasts_and_agree_on_the_digest() {
        let w = tiny_many();
        let t = Instant::now();
        let one = measure(&w, 3, 0.0);
        let one_pass_s = t.elapsed().as_secs_f64();
        assert_eq!(one.passes, 1);
        let m = measure(&w, 3, 6.0 * one_pass_s);
        assert!(
            m.passes >= 2,
            "only {} passes in six passes' time",
            m.passes
        );
        assert_eq!(m.failures, Vec::<String>::new());
        assert_eq!(m.step_samples, m.passes * 5);
        assert_eq!(m.digest, one.digest);
    }

    #[test]
    fn an_undetected_crash_is_a_failed_operation() {
        let w = tiny_tiled();
        let size = Size {
            epochs: 2,
            ..w.measured
        };
        // Crashes land mid-epoch 1 and the run ends with it: nobody
        // can have detected them yet.
        let pass = run_pass(&w, &size, 3);
        assert_eq!(pass.attempted, 2);
        assert_eq!(pass.failures.len(), 2);
        assert!(
            pass.failures[0].contains("never detected"),
            "{}",
            pass.failures[0]
        );
    }

    #[test]
    fn the_typical_pass_ignores_a_burst_on_one_step() {
        let pass = |steps: [f64; 3]| Pass {
            setup_s: 1.0,
            steps_ms: steps.to_vec(),
            ..Pass::default()
        };
        let (quiet, hit, other) = (
            pass([100.0, 100.0, 100.0]),
            pass([100.0, 900.0, 100.0]),
            pass([900.0, 100.0, 100.0]),
        );
        let (measured_s, wall_s) = typical_pass(&[&quiet, &hit, &other]);
        assert!((measured_s - 0.3).abs() < 1e-12);
        assert!((wall_s - 1.3).abs() < 1e-12);
    }
}
