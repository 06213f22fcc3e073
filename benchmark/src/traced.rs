//! The traced run (`--trace 1`): the per-layer numbers, taken from
//! the benchmark's own side of each layer boundary.
//!
//! Tiled workloads run three passes over one formed field —
//! **B** plain with two workers (`speedup_w2`; skipped on one core, and
//! first so that it pays the process's cold start), **A** plain with
//! one worker (the reference: allocation counts, barrier breakdown,
//! checkpoint), **C** one worker with every `FdsNode` wrapped in
//! [`Timed`] (handler time by message kind) — and must agree on the
//! `outcome_digest` across all three. The many-worlds workload has no
//! engine to open up from outside; it reports its stages, service
//! calls, counters and allocations.

use crate::alloc;
use crate::digest::{fold_digests, outcome_digest};
use crate::measure::{check_outcome, run_world};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use crate::timed::{
    collect_corpus, kind_totals, Beacon, KindTotals, Timed, TimedHost, KINDS, SAMPLE_STRIDE,
};
use crate::workload::{
    arm, available_parallelism, build_field, build_tiled, end_of_epoch, grid_of, tiled_seeds,
    world_seed, Engine, Field, Size, Workload,
};
use cbfd_cluster::invariants;
use cbfd_core::bytes::Bytes;
use cbfd_core::config::FdsConfig;
use cbfd_core::message::FdsMsg;
use cbfd_core::node::FdsNode;
use cbfd_core::profile::build_profiles;
use cbfd_core::service::FdsOutcome;
use cbfd_net::actor::Actor;
use cbfd_net::energy::EnergyModel;
use cbfd_net::geometry::Point;
use cbfd_net::id::NodeId;
use cbfd_net::loss::{Bernoulli, LossModel};
use cbfd_net::radio::RadioConfig;
use cbfd_net::tiled::TiledSim;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Messages kept for the codec kernels.
const CORPUS_CAP: usize = 4096;
/// `LossModel::is_lost` calls timed by the loss kernel.
const LOSS_DRAWS: u64 = 10_000_000;
/// Epochs of beacon traffic behind `bare_ns_per_event`.
const BEACON_EPOCHS: u64 = 2;

/// The result of the traced run.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metric values by name.
    pub values: Values,
    /// Operations attempted (passes; worlds on `small_many`).
    pub attempted: u64,
    /// Why operations or cross-pass checks failed.
    pub failures: Vec<String>,
    /// `outcome_digest` of pass A.
    pub digest: u64,
    /// The spans, ready to be written out.
    pub recorder: Recorder,
}

/// Everything the traced run produces, threaded through its stages.
struct Out {
    rec: Recorder,
    values: Values,
    failures: Vec<String>,
}

impl Out {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }
}

/// What the three passes of a tiled workload share.
struct Shared<'a> {
    w: &'a Workload,
    size: &'a Size,
    field: Field,
    sim_seed: u64,
    crash_epochs: BTreeMap<NodeId, u64>,
}

fn events_of(o: &FdsOutcome) -> u64 {
    o.metrics.deliveries + o.metrics.dropped_dead + o.metrics.timers_fired
}

/// Steps the engine one epoch per span; returns the seconds per epoch.
fn run_epochs<A>(
    sim: &mut TiledSim<A>,
    epochs: std::ops::Range<u64>,
    rec: &mut Recorder,
    parent: usize,
    mut after_epoch: impl FnMut(u64, &TiledSim<A>, &mut Recorder),
) -> Vec<f64>
where
    A: Actor + Send,
    A::Msg: Send,
{
    let mut secs = Vec::new();
    for epoch in epochs {
        let ((), s) = rec.time("net.tiled.epoch", Some(parent), || {
            sim.run_until(end_of_epoch(epoch))
        });
        secs.push(s);
        after_epoch(epoch, sim, rec);
    }
    secs
}

/// Seconds in the measured epochs: all but the warm-up epoch 0, so
/// that passes compare like with like.
fn measured(epoch_secs: &[f64]) -> f64 {
    epoch_secs[1..].iter().sum()
}

/// Report-path and traffic counters, as summed over nodes or outcomes.
#[derive(Default)]
struct NodeCounters {
    ledger_ops: u64,
    reports_sent: u64,
    reports_suppressed: u64,
    peer_forwards: u64,
    retransmissions: u64,
    bytes: u64,
}

impl NodeCounters {
    fn report(&self, out: &mut Out) {
        out.set("core.node.ledger_ops", self.ledger_ops as f64);
        out.set("core.node.reports_sent", self.reports_sent as f64);
        out.set(
            "core.node.reports_suppressed",
            self.reports_suppressed as f64,
        );
        // Useful outcomes over attempts: the share of report triggers
        // that had to go on air.
        let attempts = self.reports_sent + self.reports_suppressed;
        let useful = if attempts == 0 {
            1.0
        } else {
            self.reports_sent as f64 / attempts as f64
        };
        out.set("core.node.report_useful_ratio", useful);
        out.set("core.node.peer_forwards_sent", self.peer_forwards as f64);
        out.set("core.node.retransmissions", self.retransmissions as f64);
        out.set("core.node.bytes_sent", self.bytes as f64);
    }
}

fn sim_counters(out: &mut Out, outcomes: &[FdsOutcome]) {
    let sum = |f: &dyn Fn(&FdsOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let tx = sum(&|o| o.metrics.transmissions);
    let offered = sum(&|o| o.metrics.deliveries + o.metrics.losses + o.metrics.dropped_dead);
    out.set("net.sim.events", sum(&events_of));
    out.set("net.sim.transmissions", tx);
    out.set("net.sim.deliveries", sum(&|o| o.metrics.deliveries));
    out.set("net.sim.losses", sum(&|o| o.metrics.losses));
    out.set("net.sim.timers_fired", sum(&|o| o.metrics.timers_fired));
    out.set("net.sim.fanout", if tx == 0.0 { 0.0 } else { offered / tx });
    out.set(
        "core.service.false_detections",
        sum(&|o| o.false_detections.len() as u64),
    );
    out.set("core.service.update_misses", sum(&|o| o.update_misses));
    let latency = outcomes
        .iter()
        .filter_map(|o| o.detection_latency.values().copied().max())
        .max()
        .unwrap_or(0);
    out.set("core.service.detect_latency_epochs_max", latency as f64);
}

fn step_stats(out: &mut Out, steps_ms: &[f64]) {
    out.set("step.samples", steps_ms.len() as f64);
    if !steps_ms.is_empty() {
        out.set("step.ms_p50", median(steps_ms));
        out.set("step.ms_tail", tail(steps_ms).0);
    }
}

fn alloc_stats(out: &mut Out, allocs: u64, events: u64) {
    out.set("alloc.count", allocs as f64);
    out.set("alloc.per_event", allocs as f64 / events.max(1) as f64);
    out.set(
        "alloc.peak_live_mb",
        alloc::peak_live_bytes() as f64 / (1024.0 * 1024.0),
    );
}

/// `net.loss.draw_ns`: `LossModel::is_lost` on `Bernoulli(p)` through
/// the trait object, as the engine calls it; the median of ten chunks,
/// so that one noisy second does not price the layer.
fn loss_draw_ns(p: f64) -> f64 {
    let mut model: Box<dyn LossModel> = Box::new(Bernoulli::new(p));
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let (a, b) = (Point::new(0.0, 0.0), Point::new(30.0, 40.0));
    let chunk = LOSS_DRAWS / 10;
    let mut lost = 0u64;
    let chunks: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            for i in 0..chunk {
                let to = NodeId((i & 1023) as u32);
                lost += u64::from(black_box(&mut model).is_lost(NodeId(0), to, a, b, &mut rng));
            }
            t.elapsed().as_nanos() as f64 / chunk as f64
        })
        .collect();
    black_box(lost);
    median(&chunks)
}

/// Codec kernels over the sampled corpus, timed after the run. Every
/// message must survive encode → decode unchanged.
fn codec_kernels(corpus: &[FdsMsg], out: &mut Out) {
    if corpus.is_empty() {
        return;
    }
    // Enough rounds for ≈ 10⁶ calls per kernel.
    let rounds = (1_000_000 / corpus.len()).max(1);
    let calls = (rounds * corpus.len()) as f64;
    let per_call = |t: Instant| t.elapsed().as_nanos() as f64 / calls;

    let t = Instant::now();
    let mut total = 0usize;
    for _ in 0..rounds {
        for m in corpus {
            total += black_box(m).encoded_len();
        }
    }
    out.set("core.message.encoded_len_ns", per_call(t));
    out.set("core.message.corpus_bytes_mean", total as f64 / calls);

    let t = Instant::now();
    for _ in 0..rounds {
        for m in corpus {
            black_box(black_box(m).encode());
        }
    }
    out.set("core.message.encode_ns", per_call(t));

    let encoded: Vec<Bytes> = corpus.iter().map(FdsMsg::encode).collect();
    let t = Instant::now();
    for _ in 0..rounds {
        for b in &encoded {
            black_box(FdsMsg::decode(black_box(b.clone())).is_ok());
        }
    }
    out.set("core.message.decode_ns", per_call(t));

    let broken = corpus
        .iter()
        .zip(&encoded)
        .filter(|(m, b)| FdsMsg::decode((*b).clone()).ok().as_ref() != Some(*m))
        .count();
    if broken > 0 {
        out.fail(format!(
            "{broken} of {} corpus messages do not round-trip the codec",
            corpus.len()
        ));
    }
}

/// The set-up stages, once; the three passes share the field.
fn set_up<'a>(w: &'a Workload, seed: u64, root: usize, out: &mut Out) -> Shared<'a> {
    let size = &w.traced;
    let (placement_seed, sim_seed) = tiled_seeds(seed, 0);
    let span = out.rec.open("setup", Some(root));
    let field = build_field(w, placement_seed, size.crashes);
    for (name, start, end) in &field.stages {
        out.rec.record(name, *start, *end, Some(span));
    }
    out.rec.close(span);
    out.set("net.placement.generate_s", field.stage_s("net.placement"));
    out.set("net.topology.build_s", field.stage_s("net.topology"));
    out.set("cluster.oracle.form_s", field.stage_s("cluster.oracle"));
    out.set("core.profile.build_s", field.stage_s("core.profile"));
    out.set("net.topology.edges", edges_of(&field) as f64);
    out.set(
        "cluster.oracle.clusters",
        field.exp.view().cluster_count() as f64,
    );
    let (violations, check_s) = out.rec.time("cluster.invariants", Some(root), || {
        invariants::check(field.exp.topology(), field.exp.view())
    });
    out.set("cluster.invariants.check_s", check_s);
    if !violations.is_empty() {
        out.fail(format!(
            "{} formation invariant violations",
            violations.len()
        ));
    }
    Shared {
        w,
        size,
        crash_epochs: field.crash_epochs(w),
        field,
        sim_seed,
    }
}

fn edges_of(field: &Field) -> usize {
    let topology = field.exp.topology();
    topology
        .node_ids()
        .map(|n| topology.degree(n))
        .sum::<usize>()
        / 2
}

/// Pass B: plain, two workers. Returns its measured seconds and digest.
fn pass_b(sh: &Shared<'_>, root: usize, out: &mut Out) -> (f64, u64) {
    let span = out.rec.open("pass_b", Some(root));
    let mut sim = build_tiled(&sh.field, sh.w, sh.sim_seed, 2);
    let secs = run_epochs(
        &mut sim,
        0..sh.size.epochs,
        &mut out.rec,
        span,
        |_, _, _| {},
    );
    let outcome = sh
        .field
        .exp
        .evaluate_host(&sim, sh.size.epochs, &sh.crash_epochs);
    out.rec.close(span);
    (measured(&secs), outcome_digest(&outcome))
}

/// What pass A hands to the passes compared against it.
struct Reference {
    epoch_secs: Vec<f64>,
    events: u64,
    digest: u64,
}

/// Pass A: plain, one worker — the reference every per-layer number
/// is taken against.
fn pass_a(sh: &Shared<'_>, root: usize, out: &mut Out) -> Reference {
    let (w, size, field) = (sh.w, sh.size, &sh.field);
    let span = out.rec.open("pass_a", Some(root));
    let (mut sim, construct_s) = out.rec.time("net.tiled.construct", Some(span), || {
        build_tiled(field, w, sh.sim_seed, 1)
    });
    out.set("net.tiled.construct_s", construct_s);
    let allocs_before = alloc::count();
    alloc::reset_peak();
    let epoch_secs = run_epochs(&mut sim, 0..size.epochs, &mut out.rec, span, |_, _, _| {});
    let allocs = alloc::count() - allocs_before;
    let run_s: f64 = epoch_secs.iter().sum();
    let (outcome, evaluate_s) = out.rec.time("core.service.evaluate", Some(span), || {
        field.exp.evaluate_host(&sim, size.epochs, &sh.crash_epochs)
    });
    let events = events_of(&outcome);
    alloc_stats(out, allocs, events);
    for f in check_outcome(w, size, field, &outcome) {
        out.fail(format!("pass A: {f}"));
    }
    let b = sim.barrier_breakdown();
    let phases = b.window_exec_s + b.exchange_s + b.trace_merge_s + b.scheduling_s;
    out.set("net.tiled.run_s", run_s);
    out.set("net.tiled.windows", b.windows as f64);
    out.set("net.tiled.window_exec_s", b.window_exec_s);
    out.set("net.tiled.exchange_s", b.exchange_s);
    out.set("net.tiled.trace_merge_s", b.trace_merge_s);
    out.set("net.tiled.scheduling_s", b.scheduling_s);
    out.set("net.tiled.other_s", (run_s - phases).max(0.0));
    out.set("core.service.evaluate_s", evaluate_s);
    let mut counters = NodeCounters::default();
    let mut clones = 0;
    for (_, node) in sim.actors() {
        let s = node.stats();
        counters.ledger_ops += s.ledger_ops;
        counters.reports_sent += s.reports_sent;
        counters.reports_suppressed += s.reports_suppressed;
        counters.peer_forwards += s.peer_forwards_sent;
        counters.retransmissions += s.retransmissions;
        counters.bytes += s.bytes_sent;
        clones += node.clone_ops();
    }
    counters.report(out);
    out.set("core.node.clone_ops", clones as f64);
    let steps_ms: Vec<f64> = epoch_secs[1..].iter().map(|s| s * 1e3).collect();
    step_stats(out, &steps_ms);
    let digest = outcome_digest(&outcome);
    sim_counters(out, &[outcome]);
    // Probed on the crash-free workloads only: the crash wave's three
    // passes leave no room for it, and its world is calm's.
    if size.crashes == 0 {
        checkpoint_probe(sim, sh, span, out);
    } else {
        drop(sim);
    }
    out.rec.close(span);
    Reference {
        epoch_secs,
        events,
        digest,
    }
}

/// `net.checkpoint.*`: snapshot the finished pass-A world, restore it,
/// run one more epoch on both and compare what they did.
fn checkpoint_probe(mut sim: TiledSim<FdsNode>, sh: &Shared<'_>, parent: usize, out: &mut Out) {
    let span = out.rec.open("net.checkpoint", Some(parent));
    let (image, write_s) = out
        .rec
        .time("net.checkpoint.write", Some(span), || sim.checkpoint());
    let restored = image.and_then(|image| {
        let (restored, restore_s) = out.rec.time("net.checkpoint.restore", Some(span), || {
            TiledSim::<FdsNode>::restore(&image)
        });
        out.set("net.checkpoint.write_s", write_s);
        out.set("net.checkpoint.restore_s", restore_s);
        out.set("net.checkpoint.bytes", image.len() as f64);
        restored
    });
    match restored {
        Ok(mut restored) => {
            restored.set_workers(1);
            let epochs = sh.size.epochs + 1;
            sim.run_until(end_of_epoch(sh.size.epochs));
            restored.run_until(end_of_epoch(sh.size.epochs));
            let exp = &sh.field.exp;
            let mut original = exp.evaluate_host(&sim, epochs, &sh.crash_epochs);
            let mut resumed = exp.evaluate_host(&restored, epochs, &sh.crash_epochs);
            // `ledger_ops` is profiling state the checkpoint leaves
            // out on purpose; everything else must match.
            (original.ledger_ops, resumed.ledger_ops) = (0, 0);
            if outcome_digest(&original) != outcome_digest(&resumed) {
                out.fail("the restored world diverged from the original within one epoch");
            }
        }
        Err(e) => out.fail(format!("checkpoint round trip failed: {e}")),
    }
    out.rec.close(span);
}

/// Pass C: one worker, every node wrapped. Prices the handlers by
/// kind, splits pass A's run between handlers and engine, and returns
/// the sampled message corpus.
fn pass_c(sh: &Shared<'_>, a: &Reference, root: usize, out: &mut Out) -> Vec<FdsMsg> {
    let (w, size, field) = (sh.w, sh.size, &sh.field);
    let span = out.rec.open("pass_c", Some(root));
    let profiles = build_profiles(field.exp.view());
    let fds = FdsConfig::default();
    let energy = EnergyModel::default();
    let (gx, gy) = grid_of(w);
    // `Experiment::build_tiled_sim`, with each node wrapped.
    let mut sim = TiledSim::new(
        field.exp.topology().clone(),
        RadioConfig::bernoulli(w.loss_p),
        sh.sim_seed,
        gx,
        gy,
        |id: NodeId| {
            let node = FdsNode::new(profiles[id.index()].clone(), fds, energy.initial);
            Timed::new(id, node, SAMPLE_STRIDE)
        },
    );
    drop(profiles);
    sim.set_energy_model(energy);
    let mut sim = arm(sim, field, w, 1);
    let mut seen = KindTotals::default();
    let epoch_secs = run_epochs(
        &mut sim,
        0..size.epochs,
        &mut out.rec,
        span,
        |epoch, sim, rec| {
            let now = kind_totals(sim);
            rec.push_epoch(epoch, now.since(&seen));
            seen = now;
        },
    );
    let outcome = field
        .exp
        .evaluate_host(&TimedHost(&sim), size.epochs, &sh.crash_epochs);
    out.rec.close(span);
    if outcome_digest(&outcome) != a.digest {
        out.fail(
            "pass C (wrapped nodes) digest differs from pass A: the wrapper is not transparent",
        );
    }
    let totals = kind_totals(&sim);
    let expected = outcome.metrics.deliveries + outcome.metrics.timers_fired + w.n as u64;
    if totals.total_calls() != expected || totals.other_calls != 0 {
        out.fail(format!(
            "wrapped callbacks {} (lifecycle notices {}) != deliveries + timers + starts {expected}",
            totals.total_calls(),
            totals.other_calls
        ));
    }
    for (k, kind) in KINDS.iter().enumerate() {
        out.set(&format!("core.node.{kind}_calls"), totals.calls[k] as f64);
        out.set(&format!("core.node.{kind}_s"), totals.estimated_s(k));
    }
    // Handler time is sampled inside the wrapper, around the inner
    // call only, so it prices pass A's handlers too; what is left of
    // pass A's run is the engine.
    let run_a: f64 = a.epoch_secs.iter().sum();
    let handler_s = totals.handler_s();
    let engine_s = (run_a - handler_s).max(0.0);
    out.set("core.node.handler_s", handler_s);
    out.set("core.node.handler_share", handler_s / run_a.max(1e-9));
    out.set("net.tiled.engine_self_s", engine_s);
    out.set(
        "net.tiled.ns_per_event",
        engine_s * 1e9 / a.events.max(1) as f64,
    );
    out.set(
        "trace.overhead_pct",
        (measured(&epoch_secs) / measured(&a.epoch_secs).max(1e-9) - 1.0) * 100.0,
    );
    collect_corpus(&sim, CORPUS_CAP)
}

/// `net.tiled.bare_ns_per_event`: the same field and channel with
/// beacons for nodes — the engine with empty handlers.
fn bare_probe(sh: &Shared<'_>, root: usize, out: &mut Out) {
    let span = out.rec.open("net.tiled.bare", Some(root));
    let view = sh.field.exp.view();
    let roster = (sh.w.n / view.cluster_count().max(1)).max(1);
    let (gx, gy) = grid_of(sh.w);
    let bare = TiledSim::new(
        sh.field.exp.topology().clone(),
        RadioConfig::bernoulli(sh.w.loss_p),
        sh.sim_seed,
        gx,
        gy,
        |id: NodeId| Beacon::new(id, roster),
    );
    let mut bare = arm(bare, &sh.field, sh.w, 1);
    // One warm-up epoch, like the workload's.
    bare.run_until(end_of_epoch(0));
    let warm = bare.metrics();
    let run_s: f64 = run_epochs(
        &mut bare,
        1..1 + BEACON_EPOCHS,
        &mut out.rec,
        span,
        |_, _, _| {},
    )
    .iter()
    .sum();
    let m = bare.metrics();
    let events = (m.deliveries + m.timers_fired) - (warm.deliveries + warm.timers_fired);
    out.set(
        "net.tiled.bare_ns_per_event",
        run_s * 1e9 / events.max(1) as f64,
    );
    out.rec.close(span);
}

fn traced_tiled(w: &Workload, seed: u64, out: &mut Out) -> (u64, u64) {
    let root = out.rec.open("trace", None);
    let sh = set_up(w, seed, root, out);
    // Two workers are measured on more than one core or not at all.
    // The pass goes first so that it, not the reference pass, pays the
    // process's cold start (first-touch page faults).
    let b = (available_parallelism() >= 2).then(|| pass_b(&sh, root, out));
    let a = pass_a(&sh, root, out);
    if let Some((measured_b, digest_b)) = b {
        out.set(
            "net.tiled.speedup_w2",
            measured(&a.epoch_secs) / measured_b.max(1e-9),
        );
        if digest_b != a.digest {
            out.fail("pass B (2 workers) digest differs from pass A (1 worker)");
        }
    }
    let corpus = pass_c(&sh, &a, root, out);

    // Kernels priced outside the run.
    let span = out.rec.open("core.message.kernels", Some(root));
    codec_kernels(&corpus, out);
    out.rec.close(span);
    let (draw_ns, _) = out
        .rec
        .time("net.loss.kernel", Some(root), || loss_draw_ns(w.loss_p));
    out.set("net.loss.draw_ns", draw_ns);
    if w.name == "calm" {
        bare_probe(&sh, root, out);
    }
    out.rec.close(root);
    (2 + u64::from(b.is_some()), a.digest)
}

fn traced_many_worlds(w: &Workload, seed: u64, out: &mut Out) -> (u64, u64) {
    let size = &w.traced;
    let root = out.rec.open("trace", None);
    let (mut new_s, mut run_s, mut placement_s, mut topology_s, mut check_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut edges, mut clusters) = (0usize, 0usize);
    let mut steps_ms = Vec::with_capacity(size.worlds as usize);
    let mut outcomes = Vec::with_capacity(size.worlds as usize);
    let allocs_before = alloc::count();
    alloc::reset_peak();
    for i in 0..size.worlds {
        let span = out.rec.open("world", Some(root));
        let world = run_world(w, size, world_seed(seed, i));
        for (name, start, end) in &world.field.stages {
            out.rec.record(name, *start, *end, Some(span));
        }
        out.rec
            .record("core.service.run", world.run.0, world.run.1, Some(span));
        out.rec.close(span);
        placement_s += world.field.stage_s("net.placement");
        topology_s += world.field.stage_s("net.topology");
        new_s += world.field.stage_s("core.service.new");
        run_s += world.run_s();
        steps_ms.push(world.run_s() * 1e3);
        edges += edges_of(&world.field);
        clusters += world.field.exp.view().cluster_count();
        let t = Instant::now();
        let failures = check_outcome(w, size, &world.field, &world.outcome);
        check_s += t.elapsed().as_secs_f64();
        if !failures.is_empty() {
            out.fail(format!("world {i}: {}", failures.join("; ")));
        }
        outcomes.push(world.outcome);
    }
    let allocs = alloc::count() - allocs_before;
    out.rec.close(root);

    let sum = |f: &dyn Fn(&FdsOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    alloc_stats(out, allocs, sum(&events_of));
    NodeCounters {
        ledger_ops: sum(&|o| o.ledger_ops),
        reports_sent: sum(&|o| o.reports),
        reports_suppressed: sum(&|o| o.reports_suppressed),
        peer_forwards: sum(&|o| o.peer_forwards),
        retransmissions: sum(&|o| o.retransmissions),
        bytes: sum(&|o| o.bytes),
    }
    .report(out);
    out.set("net.placement.generate_s", placement_s);
    out.set("net.topology.build_s", topology_s);
    out.set("net.topology.edges", edges as f64);
    out.set("cluster.oracle.clusters", clusters as f64);
    out.set("cluster.invariants.check_s", check_s);
    out.set("core.service.new_s", new_s);
    out.set("core.service.run_s", run_s);
    step_stats(out, &steps_ms);
    out.set("net.loss.draw_ns", loss_draw_ns(w.loss_p));
    let digest = fold_digests(outcomes.iter().map(outcome_digest));
    sim_counters(out, &outcomes);
    (size.worlds, digest)
}

/// Runs the traced passes of `w` at `seed`.
pub fn trace(w: &Workload, seed: u64) -> Traced {
    let mut out = Out {
        rec: Recorder::new(w.name, seed),
        values: Values::new(),
        failures: Vec::new(),
    };
    let (attempted, digest) = match w.engine {
        Engine::Tiled => traced_tiled(w, seed, &mut out),
        Engine::ManyWorlds => traced_many_worlds(w, seed, &mut out),
    };
    out.set("trace.spans", out.rec.spans().len() as f64);
    out.set("run.workers", w.effective_workers() as f64);
    out.set("run.available_parallelism", available_parallelism() as f64);
    Traced {
        values: out.values,
        attempted,
        failures: out.failures,
        digest,
        recorder: out.rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunResult;
    use crate::workload::by_name;

    #[test]
    fn the_three_passes_agree_and_the_layers_add_up() {
        let w = Workload {
            n: 400,
            crash_epoch: 1,
            traced: Size {
                epochs: 5,
                crashes: 2,
                worlds: 1,
            },
            ..*by_name("lossy").expect("lossy exists")
        };
        let t = trace(&w, 3);
        assert_eq!(t.failures, Vec::<String>::new());
        let v = &t.values;
        let run_s = v["net.tiled.run_s"];
        assert!(run_s > 0.0);
        let parts = v["core.node.handler_s"] + v["net.tiled.engine_self_s"];
        assert!((parts - run_s).abs() <= 0.02 * run_s, "{parts} vs {run_s}");
        let kind_s: f64 = KINDS.iter().map(|k| v[&format!("core.node.{k}_s")]).sum();
        assert!((kind_s - v["core.node.handler_s"]).abs() < 1e-9);
        let calls: f64 = KINDS
            .iter()
            .map(|k| v[&format!("core.node.{k}_calls")])
            .sum();
        assert_eq!(
            calls,
            v["net.sim.deliveries"] + v["net.sim.timers_fired"] + 400.0
        );
        assert!(
            v["core.node.report_calls"] > 0.0,
            "two crashes must be reported"
        );
        assert!(v["core.service.detect_latency_epochs_max"] >= 1.0);
        assert!(
            !v.contains_key("net.checkpoint.bytes"),
            "no probe on a crash run"
        );
        assert!(t.recorder.spans().len() >= 10);
        // Every name is one the registry (and so BENCHMARK.json) knows.
        let r = RunResult::per_layer(true, t.attempted, 0, v);
        assert_eq!(r.value("net.tiled.run_s"), Some(run_s));
    }

    #[test]
    fn the_checkpoint_probe_runs_on_crash_free_workloads() {
        let w = Workload {
            n: 400,
            traced: Size {
                epochs: 3,
                crashes: 0,
                worlds: 1,
            },
            ..*by_name("lossy").expect("lossy exists")
        };
        let t = trace(&w, 5);
        assert_eq!(t.failures, Vec::<String>::new());
        assert!(t.values["net.checkpoint.bytes"] > 0.0);
        assert!(t.values["net.checkpoint.restore_s"] > 0.0);
    }

    #[test]
    fn many_worlds_report_their_stages_and_service_calls() {
        let w = Workload {
            traced: Size {
                epochs: 8,
                crashes: 1,
                worlds: 4,
            },
            ..*by_name("small_many").expect("small_many exists")
        };
        let t = trace(&w, 3);
        assert_eq!(t.failures, Vec::<String>::new());
        assert_eq!(t.attempted, 4);
        assert!(t.values["core.service.new_s"] > 0.0);
        assert!(t.values["core.service.run_s"] > 0.0);
        assert_eq!(t.values["step.samples"], 4.0);
        // One span per world, its three stages and its run, plus the root.
        assert_eq!(t.recorder.spans().len(), 1 + 4 * 5);
        let _ = RunResult::per_layer(true, 4, 0, &t.values);
    }
}
