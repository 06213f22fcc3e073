//! Benchmark-local actors that see the engine/handler boundary from
//! outside: [`Timed`] wraps every `FdsNode` and counts (and samples
//! the duration of) each callback by message kind; [`Beacon`] emits
//! heartbeat- and digest-sized traffic and ignores what it hears, so
//! a run of beacons prices the bare engine.

use cbfd_core::bitmap::RosterBitmap;
use cbfd_core::config::FdsConfig;
use cbfd_core::message::{Digest, FdsMsg};
use cbfd_core::node::FdsNode;
use cbfd_core::service::FdsHost;
use cbfd_net::actor::{Actor, Ctx, TimerToken};
use cbfd_net::id::{ClusterId, NodeId};
use cbfd_net::metrics::SimMetrics;
use cbfd_net::tiled::TiledSim;
use std::time::Instant;

/// Handler kinds, in reporting order: the seven `FdsMsg` variants the
/// workloads exchange, then timer expirations and `on_start`.
pub const KINDS: [&str; 9] = [
    "heartbeat",
    "digest",
    "update",
    "forward_request",
    "peer_forward",
    "peer_ack",
    "report",
    "timer",
    "start",
];
const TIMER: usize = 7;
const START: usize = 8;
/// Lifecycle notices (sleep / leave / rejoin): no workload sends them,
/// and the traced run checks that this bucket stays empty.
const OTHER: usize = 9;
const SLOTS: usize = 10;

/// Every `SAMPLE_STRIDE`-th callback of a node is timed (all of them
/// timed cost ≈ +45 % on the sizing run).
pub const SAMPLE_STRIDE: u8 = 16;
/// Every `CORPUS_STRIDE`-th delivery of a node is cloned for the codec
/// kernels.
const CORPUS_STRIDE: u32 = 1024;

fn kind_of(msg: &FdsMsg) -> usize {
    match msg {
        FdsMsg::Heartbeat { .. } => 0,
        FdsMsg::Digest(_) => 1,
        FdsMsg::HealthUpdate(_) => 2,
        FdsMsg::ForwardRequest { .. } => 3,
        FdsMsg::PeerForward { .. } => 4,
        FdsMsg::PeerAck { .. } => 5,
        FdsMsg::Report(_) => 6,
        FdsMsg::SleepNotice { .. } | FdsMsg::LeaveNotice { .. } | FdsMsg::Rejoin { .. } => OTHER,
    }
}

/// Per-kind totals over a set of [`Timed`] nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindTotals {
    /// Callbacks of each kind ([`KINDS`] order).
    pub calls: [u64; 9],
    /// Callbacks of each kind that were timed.
    pub sampled: [u64; 9],
    /// Nanoseconds inside the timed callbacks.
    pub sampled_ns: [u64; 9],
    /// Lifecycle-notice deliveries (expected 0).
    pub other_calls: u64,
}

impl KindTotals {
    /// All callbacks, every kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum::<u64>() + self.other_calls
    }

    /// Estimated seconds inside handlers of kind `k`: the sampled mean
    /// scaled to every call of the kind.
    pub fn estimated_s(&self, k: usize) -> f64 {
        if self.sampled[k] == 0 {
            0.0
        } else {
            self.sampled_ns[k] as f64 / self.sampled[k] as f64 * self.calls[k] as f64 * 1e-9
        }
    }

    /// Estimated seconds inside all handlers.
    pub fn handler_s(&self) -> f64 {
        (0..KINDS.len()).map(|k| self.estimated_s(k)).sum()
    }

    /// Counter-wise difference to an earlier snapshot.
    pub fn since(&self, earlier: &KindTotals) -> KindTotals {
        let mut d = *self;
        for k in 0..KINDS.len() {
            d.calls[k] -= earlier.calls[k];
            d.sampled[k] -= earlier.sampled[k];
            d.sampled_ns[k] -= earlier.sampled_ns[k];
        }
        d.other_calls -= earlier.other_calls;
        d
    }
}

/// An `FdsNode` seen from the engine side of the `Actor` boundary.
/// Forwards every callback unchanged — the traced run proves that by
/// digest — and keeps per-kind counters beside the node.
#[derive(Debug)]
pub struct Timed {
    inner: FdsNode,
    stride: u8,
    tick: u8,
    deliveries: u32,
    calls: [u32; SLOTS],
    sampled: [u32; SLOTS],
    sampled_ns: [u64; SLOTS],
    corpus: Vec<FdsMsg>,
}

impl Timed {
    /// Wraps `inner`, timing every `stride`-th callback (1 = all). The
    /// sampling phase starts at the node id so that nodes do not all
    /// time the same position of their (periodic) callback sequence.
    pub fn new(id: NodeId, inner: FdsNode, stride: u8) -> Self {
        let stride = stride.max(1);
        Timed {
            inner,
            stride,
            tick: (id.0 % u32::from(stride)) as u8,
            deliveries: id.0 % CORPUS_STRIDE,
            calls: [0; SLOTS],
            sampled: [0; SLOTS],
            sampled_ns: [0; SLOTS],
            corpus: Vec::new(),
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &FdsNode {
        &self.inner
    }

    /// Messages this node cloned for the codec kernels.
    pub fn corpus(&self) -> &[FdsMsg] {
        &self.corpus
    }

    #[inline]
    fn observe(&mut self, kind: usize, call: impl FnOnce(&mut FdsNode)) {
        self.calls[kind] += 1;
        self.tick += 1;
        if self.tick >= self.stride {
            self.tick = 0;
            let t = Instant::now();
            call(&mut self.inner);
            self.sampled_ns[kind] += t.elapsed().as_nanos() as u64;
            self.sampled[kind] += 1;
        } else {
            call(&mut self.inner);
        }
    }
}

impl Actor for Timed {
    type Msg = FdsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.observe(START, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FdsMsg>, from: NodeId, msg: &FdsMsg) {
        self.deliveries += 1;
        if self.deliveries.is_multiple_of(CORPUS_STRIDE) {
            self.corpus.push(msg.clone());
        }
        self.observe(kind_of(msg), |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FdsMsg>, token: TimerToken) {
        self.observe(TIMER, |n| n.on_timer(ctx, token));
    }

    fn on_leave(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.inner.on_leave(ctx);
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.inner.on_rejoin(ctx);
    }
}

/// Sums the per-kind counters of every node of `sim`.
pub fn kind_totals(sim: &TiledSim<Timed>) -> KindTotals {
    let mut t = KindTotals::default();
    for (_, node) in sim.actors() {
        for k in 0..KINDS.len() {
            t.calls[k] += u64::from(node.calls[k]);
            t.sampled[k] += u64::from(node.sampled[k]);
            t.sampled_ns[k] += node.sampled_ns[k];
        }
        t.other_calls += u64::from(node.calls[OTHER]);
    }
    t
}

/// The sampled messages of every node, in node order, at most `cap`.
pub fn collect_corpus(sim: &TiledSim<Timed>, cap: usize) -> Vec<FdsMsg> {
    sim.actors()
        .flat_map(|(_, node)| node.corpus().iter().cloned())
        .take(cap)
        .collect()
}

/// Lets `Experiment::evaluate_host` judge a run of wrapped nodes.
#[derive(Debug)]
pub struct TimedHost<'a>(pub &'a TiledSim<Timed>);

impl FdsHost for TimedHost<'_> {
    fn actors(&self) -> Box<dyn Iterator<Item = (NodeId, &FdsNode)> + '_> {
        Box::new(self.0.actors().map(|(id, t)| (id, t.inner())))
    }
    fn is_alive(&self, node: NodeId) -> bool {
        self.0.is_alive(node)
    }
    fn has_departed(&self, node: NodeId) -> bool {
        self.0.has_departed(node)
    }
    fn metrics_snapshot(&self) -> SimMetrics {
        self.0.metrics()
    }
    fn energy_imbalance(&self) -> f64 {
        self.0.energy_imbalance()
    }
}

/// Sends one heartbeat and one digest of `roster_len` positions per
/// epoch and ignores every receipt: the calm workload's traffic shape
/// with empty handlers.
#[derive(Debug)]
pub struct Beacon {
    id: NodeId,
    roster_len: usize,
    config: FdsConfig,
}

const BEACON_EPOCH: TimerToken = TimerToken(0);
const BEACON_DIGEST: TimerToken = TimerToken(1);

impl Beacon {
    /// A beacon whose digests cover `roster_len` roster positions.
    pub fn new(id: NodeId, roster_len: usize) -> Self {
        Beacon {
            id,
            roster_len,
            config: FdsConfig::default(),
        }
    }

    fn begin_epoch(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        ctx.broadcast(FdsMsg::Heartbeat {
            from: self.id,
            marked: true,
            reading: None,
        });
        ctx.set_timer(self.config.t_hop, BEACON_DIGEST);
        ctx.set_timer(self.config.heartbeat_interval, BEACON_EPOCH);
    }
}

impl Actor for Beacon {
    type Msg = FdsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.begin_epoch(ctx);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, FdsMsg>, _from: NodeId, msg: &FdsMsg) {
        std::hint::black_box(msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FdsMsg>, token: TimerToken) {
        if token == BEACON_EPOCH {
            self.begin_epoch(ctx);
        } else {
            let mut heard = RosterBitmap::new(0, self.roster_len);
            heard.set_all();
            ctx.broadcast(FdsMsg::Digest(Digest::new(
                self.id,
                ClusterId::of(self.id),
                heard,
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::outcome_digest;
    use crate::workload::{arm, build_field, build_tiled, by_name, end_of_epoch, Workload};
    use cbfd_core::profile::build_profiles;
    use cbfd_net::energy::EnergyModel;
    use cbfd_net::radio::RadioConfig;

    /// A 500-node cut of the lossy workload with one crash, so every
    /// handler kind but the lifecycle notices fires.
    fn small() -> Workload {
        Workload {
            n: 500,
            crash_epoch: 1,
            ..*by_name("lossy").expect("lossy exists")
        }
    }

    const EPOCHS: u64 = 6;

    fn timed_run(stride: u8) -> (u64, KindTotals, SimMetrics, f64) {
        let w = small();
        let field = build_field(&w, 9, 1);
        let profiles = build_profiles(field.exp.view());
        let fds = FdsConfig::default();
        let energy = EnergyModel::default();
        let mut sim = TiledSim::new(
            field.exp.topology().clone(),
            RadioConfig::bernoulli(w.loss_p),
            5,
            1,
            1,
            |id: NodeId| {
                let node = FdsNode::new(profiles[id.index()].clone(), fds, energy.initial);
                Timed::new(id, node, stride)
            },
        );
        sim.set_energy_model(energy);
        let mut sim = arm(sim, &field, &w, 1);
        let t = Instant::now();
        sim.run_until(end_of_epoch(EPOCHS - 1));
        let run_s = t.elapsed().as_secs_f64();
        let outcome = field
            .exp
            .evaluate_host(&TimedHost(&sim), EPOCHS, &field.crash_epochs(&w));
        (
            outcome_digest(&outcome),
            kind_totals(&sim),
            sim.metrics(),
            run_s,
        )
    }

    #[test]
    fn wrapper_is_transparent_and_counts_every_callback() {
        let w = small();
        let field = build_field(&w, 9, 1);
        let mut bare = build_tiled(&field, &w, 5, 1);
        // Same grid as the wrapped run (500 nodes suggest 1x1 anyway).
        assert_eq!(bare.grid_dims(), (1, 1));
        bare.run_until(end_of_epoch(EPOCHS - 1));
        let outcome = field
            .exp
            .evaluate_host(&bare, EPOCHS, &field.crash_epochs(&w));

        let (digest, totals, metrics, _) = timed_run(SAMPLE_STRIDE);
        assert_eq!(
            digest,
            outcome_digest(&outcome),
            "the wrapper changed the run"
        );
        assert_eq!(metrics, bare.metrics());
        assert_eq!(
            totals.total_calls(),
            metrics.deliveries + metrics.timers_fired + w.n as u64,
            "calls must sum to deliveries + timers + one start per node"
        );
        assert_eq!(totals.other_calls, 0);
        assert_eq!(totals.calls[START], w.n as u64);
        assert_eq!(totals.calls[TIMER], metrics.timers_fired);
        for kind in ["heartbeat", "digest", "update", "forward_request", "report"] {
            let k = KINDS.iter().position(|n| *n == kind).expect("known kind");
            assert!(
                totals.calls[k] > 0,
                "no {kind} callbacks on a lossy crash run"
            );
        }
    }

    #[test]
    fn one_in_sixteen_sampling_estimates_all_calls_timing() {
        // Host noise moves either run by a few percent; the best of a
        // few attempts must land within the 20 % the issue asks for.
        let mut best = f64::INFINITY;
        for _ in 0..4 {
            let (_, all, _, _) = timed_run(1);
            let (_, sampled, _, _) = timed_run(SAMPLE_STRIDE);
            assert_eq!(all.calls, sampled.calls);
            assert_eq!(all.sampled, all.calls, "stride 1 times every call");
            let ratio = sampled.handler_s() / all.handler_s();
            best = best.min((ratio - 1.0).abs());
            if best < 0.2 {
                break;
            }
        }
        assert!(best < 0.2, "sampled estimate off by {:.0} %", best * 100.0);
    }

    #[test]
    fn beacons_emit_two_broadcasts_per_node_epoch() {
        let w = small();
        let field = build_field(&w, 9, 0);
        let mut sim = TiledSim::new(
            field.exp.topology().clone(),
            RadioConfig::bernoulli(0.0),
            5,
            1,
            1,
            |id: NodeId| Beacon::new(id, 18),
        );
        sim.run_until(end_of_epoch(2));
        assert_eq!(sim.metrics().transmissions, 2 * 3 * w.n as u64);
    }
}
