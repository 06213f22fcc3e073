//! The discrete-event wireless simulator.
//!
//! [`Simulator`] drives a population of [`Actor`]s over a static
//! [`Topology`] and a [`RadioConfig`]: every broadcast is offered to
//! each in-range neighbour, each copy is independently subjected to
//! the channel's loss model and delivered after a bounded delay.
//! Crashes follow the paper's **fail-stop** model — a crashed node
//! never transmits, receives, or fires timers again. Runs are fully
//! deterministic for a given seed.

use crate::actor::{Actor, Command, Ctx, TimerToken};
use crate::checkpoint::{self, CheckpointError, Persist, Reader, Writer};
use crate::energy::{EnergyBook, EnergyModel};
use crate::event::{EventKind, EventQueue};
use crate::id::NodeId;
use crate::loss::LossSnapshot;
use crate::metrics::SimMetrics;
use crate::radio::RadioConfig;
use crate::rng::derive_seed;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceKind, TraceRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A summary of one *effective* simulation event, handed to the
/// observer of [`Simulator::run_until_observed`] after the event has
/// been applied.
///
/// "Effective" means the event actually changed the simulation:
/// deliveries to crashed nodes, stale (cancelled) timer firings, and
/// crashes of already-dead nodes are dispatched silently and never
/// reach the observer. This makes observer-level invariants sharp: an
/// observed `Deliver`/`Timer` for a node that previously appeared in a
/// `Crash` record is an engine bug, not an expected no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A message from `from` was delivered to the live node `to` (its
    /// `on_message` ran).
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
    },
    /// A pending timer fired on the live node `node` (its `on_timer`
    /// ran).
    Timer {
        /// Owning node.
        node: NodeId,
        /// The actor-chosen token.
        token: TimerToken,
    },
    /// `node` transitioned from operational to crashed (fail-stop).
    Crash {
        /// Crashing node.
        node: NodeId,
    },
    /// A dormant node became operational for the first time (late
    /// arrival; its `on_start` ran).
    Join {
        /// Joining node.
        node: NodeId,
    },
    /// `node` withdrew gracefully: its `on_leave` ran (a last chance
    /// to announce the departure) and it then went silent.
    Leave {
        /// Departing node.
        node: NodeId,
    },
    /// A crashed or departed node came back: its `on_rejoin` ran after
    /// every stale pre-downtime timer was invalidated.
    Rejoin {
        /// Returning node.
        node: NodeId,
    },
}

/// Handle to a broadcast payload stored once in the [`PayloadArena`];
/// `Deliver` events carry this instead of a cloned `A::Msg`, so a
/// transmission fans out to any number of neighbours without deep
/// copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PayloadId(pub(crate) u32);

impl Persist for PayloadId {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(PayloadId(r.get_u32()?))
    }
}

/// Ref-counted slab holding each broadcast payload exactly once.
///
/// Lifetime rule: `transmit` inserts the payload and sets the
/// reference count to the number of `Deliver` events scheduled; every
/// delivery (including copies addressed to crashed nodes) releases one
/// reference, and the slot is recycled when the count reaches zero.
/// A transmission whose every copy is lost frees the slot immediately.
#[derive(Debug)]
pub(crate) struct PayloadArena<M> {
    slots: Vec<(u32, Option<M>)>,
    free: Vec<u32>,
}

impl<M> PayloadArena<M> {
    pub(crate) fn new() -> Self {
        PayloadArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `msg` with a reference count of zero (set after fan-out).
    pub(crate) fn insert(&mut self, msg: M) -> PayloadId {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = (0, Some(msg));
            PayloadId(idx)
        } else {
            self.slots.push((0, Some(msg)));
            PayloadId((self.slots.len() - 1) as u32)
        }
    }

    /// Stores `msg` with its final reference count in one operation —
    /// the fused `insert` + `set_refs` pair the tiled exchange pays
    /// per routed payload. `refs == 0` behaves exactly like
    /// `insert` followed by `set_refs(_, 0)`: the slot is claimed and
    /// immediately recycled, preserving free-list order (the free list
    /// is persisted, so its order is observable).
    pub(crate) fn insert_with_refs(&mut self, msg: M, refs: u32) -> PayloadId {
        if refs == 0 {
            let id = self.insert(msg);
            self.slots[id.0 as usize].1 = None;
            self.free.push(id.0);
            return id;
        }
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = (refs, Some(msg));
            PayloadId(idx)
        } else {
            self.slots.push((refs, Some(msg)));
            PayloadId((self.slots.len() - 1) as u32)
        }
    }

    pub(crate) fn set_refs(&mut self, id: PayloadId, refs: u32) {
        if refs == 0 {
            self.slots[id.0 as usize].1 = None;
            self.free.push(id.0);
        } else {
            self.slots[id.0 as usize].0 = refs;
        }
    }

    pub(crate) fn get(&self, id: PayloadId) -> &M {
        self.slots[id.0 as usize]
            .1
            .as_ref()
            .expect("payload alive while references remain")
    }

    /// Drops one reference; recycles the slot on the last one.
    pub(crate) fn release(&mut self, id: PayloadId) {
        let slot = &mut self.slots[id.0 as usize];
        slot.0 -= 1;
        if slot.0 == 0 {
            slot.1 = None;
            self.free.push(id.0);
        }
    }
}

impl<M: Persist> Persist for PayloadArena<M> {
    // The slot vector and free list are stored exactly — not rebuilt —
    // because future slot assignments (and thus the payload IDs inside
    // queued `Deliver` events) depend on the free list's order.
    fn persist(&self, w: &mut Writer) {
        self.slots.persist(w);
        self.free.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(PayloadArena {
            slots: Vec::restore(r)?,
            free: Vec::restore(r)?,
        })
    }
}

/// Generation-stamped timer slab: each pending timer owns a slot, the
/// queued event carries `(slot, generation)` packed into the event's
/// `id`, cancellation bumps the generation in O(1), and a stale firing
/// is rejected by a single compare — no tombstone set to grow without
/// bound on cancel-heavy runs.
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
    generations: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Claims a slot, returning the packed `(slot, generation)` stamp.
    pub(crate) fn alloc(&mut self) -> u64 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.generations.push(0);
            (self.generations.len() - 1) as u32
        });
        pack_timer(slot, self.generations[slot as usize])
    }

    /// Invalidates `slot` (cancellation) and recycles it. The stale
    /// event still in the queue is rejected by its generation on pop;
    /// generations wrap at 2^32 reuses of one slot, far beyond any
    /// run's cancel count.
    pub(crate) fn invalidate(&mut self, slot: u32) {
        self.generations[slot as usize] = self.generations[slot as usize].wrapping_add(1);
        self.free.push(slot);
    }

    /// Consumes a firing: true iff `stamp` is current for its slot, in
    /// which case the slot is invalidated (the event is spent) and
    /// recycled.
    pub(crate) fn try_fire(&mut self, stamp: u64) -> bool {
        let (slot, generation) = unpack_timer(stamp);
        if self.generations[slot as usize] != generation {
            return false;
        }
        self.invalidate(slot);
        true
    }
}

crate::impl_persist!(TimerSlab { generations, free });

pub(crate) fn pack_timer(slot: u32, generation: u32) -> u64 {
    (u64::from(slot) << 32) | u64::from(generation)
}

pub(crate) fn unpack_timer(stamp: u64) -> (u32, u32) {
    ((stamp >> 32) as u32, stamp as u32)
}

/// A complete simulation of one wireless network.
///
/// # Examples
///
/// Two nodes in range; node 0 pings, node 1 hears it:
///
/// ```
/// use cbfd_net::prelude::*;
///
/// #[derive(Default)]
/// struct Pinger { heard: usize }
/// impl Actor for Pinger {
///     type Msg = u8;
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
///         if ctx.me() == NodeId(0) {
///             ctx.broadcast(7);
///         }
///     }
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, u8>, _from: NodeId, _msg: &u8) {
///         self.heard += 1;
///     }
/// }
///
/// let topo = Topology::from_positions(
///     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
///     100.0,
/// );
/// let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| Pinger::default());
/// sim.run_until(SimTime::from_millis(5));
/// assert_eq!(sim.actor(NodeId(1)).heard, 1);
/// ```
pub struct Simulator<A: Actor> {
    topology: Topology,
    radio: RadioConfig,
    actors: Vec<A>,
    alive: Vec<bool>,
    /// Nodes that withdrew gracefully (distinct from crashes so that
    /// observers — the chaos monitor in particular — can tell a
    /// voluntary leaver from a failure).
    departed: Vec<bool>,
    /// Nodes configured as late arrivals: not yet part of the run,
    /// activated by a `Join` event (never started, never crashed).
    dormant: Vec<bool>,
    queue: EventQueue<PayloadId>,
    /// Broadcast payloads, stored once per transmission.
    payloads: PayloadArena<A::Msg>,
    now: SimTime,
    rng: StdRng,
    metrics: SimMetrics,
    energy: EnergyBook,
    trace: Trace,
    /// Generation stamps validating timer firings.
    timers: TimerSlab,
    /// Per node: `(token, slot)` of every pending timer, so that
    /// cancel-by-token finds its slots (lists stay tiny — a handful of
    /// pending timers per node).
    node_timers: Vec<Vec<(u64, u32)>>,
    started: bool,
    /// Last instant solar harvesting was credited.
    last_harvest: SimTime,
    /// Optional network partition: group id per node. Copies between
    /// different groups are dropped at transmit time.
    partition: Option<Vec<u32>>,
    /// Extra per-directed-link delivery delay (chaos interposer),
    /// sorted by `(from, to)`. A sorted vec instead of a tree map so
    /// [`Simulator::transmit`] can prefetch the source's contiguous
    /// run once per transmission and probe only that (usually empty)
    /// slice per surviving copy.
    link_lag: Vec<(NodeId, NodeId, SimDuration)>,
    /// Probability that a surviving copy is duplicated (chaos
    /// interposer); `0.0` keeps the transmit path draw-for-draw
    /// identical to a simulator without the feature.
    dup_probability: f64,
    /// Extra delay of the duplicated (stale) copy.
    dup_lag: SimDuration,
    /// Recycled neighbour-list buffer for [`Simulator::transmit`]
    /// (avoids an allocation per transmission on the hot path).
    scratch_neighbors: Vec<NodeId>,
    /// Recycled command buffer threaded through [`Ctx`] so actor
    /// callbacks append into the same allocation every event.
    scratch_commands: Vec<Command<A::Msg>>,
}

impl<A: Actor> Simulator<A> {
    /// Creates a simulator over `topology` with the given radio and
    /// master `seed`; `make_actor` builds the protocol actor for each
    /// node.
    pub fn new(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        mut make_actor: impl FnMut(NodeId) -> A,
    ) -> Self {
        let n = topology.len();
        let actors = topology.node_ids().map(&mut make_actor).collect();
        Simulator {
            actors,
            alive: vec![true; n],
            departed: vec![false; n],
            dormant: vec![false; n],
            queue: EventQueue::new(),
            payloads: PayloadArena::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(derive_seed(seed, 0)),
            metrics: SimMetrics::new(n),
            energy: EnergyBook::new(n, EnergyModel::default()),
            trace: Trace::disabled(),
            timers: TimerSlab::default(),
            node_timers: vec![Vec::new(); n],
            started: false,
            last_harvest: SimTime::ZERO,
            partition: None,
            link_lag: Vec::new(),
            dup_probability: 0.0,
            dup_lag: SimDuration::ZERO,
            scratch_neighbors: Vec::new(),
            scratch_commands: Vec::new(),
            topology,
            radio,
        }
    }

    /// Replaces the energy model (all nodes reset to full charge).
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.energy = EnergyBook::new(self.topology.len(), model);
    }

    /// Swaps the radio configuration mid-run (e.g. an interference
    /// storm raising the loss probability). Affects transmissions from
    /// the next event onward; copies already in flight keep their old
    /// delivery outcome.
    pub fn set_radio(&mut self, radio: RadioConfig) {
        self.radio = radio;
    }

    /// Enables event tracing.
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlying topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Traffic counters accumulated so far.
    #[inline]
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The per-node energy ledger.
    #[inline]
    pub fn energy(&self) -> &EnergyBook {
        &self.energy
    }

    /// The event trace (empty unless [`Simulator::enable_trace`] was
    /// called).
    #[inline]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Shared access to the actor on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node.index()]
    }

    /// Exclusive access to the actor on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        &mut self.actors[node.index()]
    }

    /// Iterates over `(id, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeId(i as u32), a))
    }

    /// Whether `node` is still operational.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Iterates over the node IDs that are still operational, without
    /// allocating.
    pub fn alive_nodes_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topology.node_ids().filter(|n| self.alive[n.index()])
    }

    /// Node IDs that are still operational, collected into a fresh
    /// `Vec`; prefer [`Simulator::alive_nodes_iter`] on hot paths.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive_nodes_iter().collect()
    }

    /// Schedules a fail-stop crash of `node` at time `at`.
    ///
    /// A timestamp in the simulated past **saturates to `now()`**
    /// instead of panicking, so machine-generated fault schedules (the
    /// chaos fuzzer's randomized plans) can never abort the process;
    /// the effective crash instant is returned.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.queue.schedule(at, EventKind::Crash { node });
        }
        at
    }

    /// Crashes `node` immediately.
    pub fn crash_now(&mut self, node: NodeId) {
        self.apply_crash(node);
    }

    // --------------------------------------------- lifecycle (churn)

    /// Marks `node` as a late arrival: it takes no part in the run (no
    /// `on_start`, no deliveries, no timers) until a scheduled `Join`
    /// activates it. Must be called before the first event is
    /// processed; afterwards — and for unknown nodes, or nodes that
    /// already crashed — it is a no-op, never a panic, so
    /// machine-generated churn plans cannot abort the process.
    pub fn set_dormant(&mut self, node: NodeId) {
        if self.started || node.index() >= self.topology.len() || !self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = false;
        self.dormant[node.index()] = true;
    }

    /// Schedules the activation of the dormant node `node` at `at`
    /// (its `on_start` runs then). Past timestamps saturate to `now()`
    /// and unknown nodes are ignored — same non-panicking contract as
    /// [`Simulator::schedule_crash`]; joins of nodes that are not
    /// dormant (already present, crashed, or departed) dissolve into
    /// silent no-ops at dispatch time. Returns the effective instant.
    pub fn schedule_join(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.queue.schedule(at, EventKind::Join { node });
        }
        at
    }

    /// Schedules a graceful withdrawal of `node` at `at`: its
    /// `on_leave` callback runs (commands issued there — typically a
    /// departure announcement — are applied while the node is still
    /// operational), then the node goes silent and every pending timer
    /// it owns is invalidated. Leaves of unknown, dead, or dormant
    /// nodes are no-ops; past timestamps saturate to `now()`. Returns
    /// the effective instant.
    pub fn schedule_leave(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.queue.schedule(at, EventKind::Leave { node });
        }
        at
    }

    /// Schedules the return of a crashed or departed node at `at`: all
    /// of its stale pre-downtime timers are invalidated, then its
    /// `on_rejoin` callback runs. The actor keeps whatever state it
    /// held when it went down — deciding what is stale is the
    /// protocol's job, which is exactly the scenario the FDS's
    /// incarnation numbers exist for. Rejoins of unknown, operational,
    /// or dormant nodes are no-ops; past timestamps saturate to
    /// `now()`. Returns the effective instant.
    pub fn schedule_rejoin(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.queue.schedule(at, EventKind::Rejoin { node });
        }
        at
    }

    /// Whether `node` withdrew gracefully (as opposed to crashing).
    #[inline]
    pub fn has_departed(&self, node: NodeId) -> bool {
        self.departed[node.index()]
    }

    /// Whether `node` is a late arrival that has not joined yet.
    #[inline]
    pub fn is_dormant(&self, node: NodeId) -> bool {
        self.dormant[node.index()]
    }

    /// Nodes that withdrew gracefully and have not rejoined.
    pub fn departed_nodes(&self) -> Vec<NodeId> {
        self.topology
            .node_ids()
            .filter(|n| self.departed[n.index()])
            .collect()
    }

    /// Nodes that are down involuntarily: not alive, not a voluntary
    /// leaver, not an unactivated late arrival.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.topology
            .node_ids()
            .filter(|n| {
                !self.alive[n.index()] && !self.departed[n.index()] && !self.dormant[n.index()]
            })
            .collect()
    }

    // ------------------------------------------- chaos interposer API

    /// Imposes a network partition: `group_of[i]` is the partition
    /// group of node `i`, and every copy offered across group
    /// boundaries is dropped (counted and traced as a channel loss).
    /// Takes effect from the next transmission; copies already in
    /// flight are delivered.
    ///
    /// # Panics
    ///
    /// Panics unless `group_of` has one entry per node.
    pub fn set_partition(&mut self, group_of: Vec<u32>) {
        assert_eq!(
            group_of.len(),
            self.topology.len(),
            "partition must assign a group to every node"
        );
        self.partition = Some(group_of);
    }

    /// Heals any partition imposed by [`Simulator::set_partition`].
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Adds `extra` delivery delay to every copy travelling over the
    /// directed link `from → to` (per-link lag injection). Replaces
    /// any previous lag on that link.
    pub fn set_link_lag(&mut self, from: NodeId, to: NodeId, extra: SimDuration) {
        match self
            .link_lag
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
        {
            Ok(i) => self.link_lag[i].2 = extra,
            Err(i) => self.link_lag.insert(i, (from, to, extra)),
        }
    }

    /// Removes the lag on the directed link `from → to`, if any.
    pub fn remove_link_lag(&mut self, from: NodeId, to: NodeId) {
        if let Ok(i) = self
            .link_lag
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
        {
            self.link_lag.remove(i);
        }
    }

    /// Duplicates each surviving copy with probability `probability`,
    /// delivering the duplicate `lag` later than the original — a
    /// stale-replay fault the paper's channel model excludes. A
    /// probability of `0.0` disables the feature and leaves the
    /// transmit path's random stream untouched.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn set_duplication(&mut self, probability: f64, lag: SimDuration) {
        assert!(
            (0.0..=1.0).contains(&probability),
            "duplication probability must be in [0, 1]"
        );
        self.dup_probability = probability;
        self.dup_lag = lag;
    }

    /// Runs until the event queue is exhausted or until the next
    /// pending event lies beyond `deadline` (events at exactly
    /// `deadline` are still processed). Afterwards `now()` equals
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        // One queue scan per event: the deadline-aware pop replaces
        // the peek-then-pop pattern on this hot loop.
        while let Some((at, kind)) = self.queue.pop_at_or_before(deadline) {
            self.dispatch(at, kind);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Like [`Simulator::run_until`], invoking `observe` with a shared
    /// borrow of the simulator after every *effective* event (see
    /// [`SimEvent`] for what is filtered out). This is the hook the
    /// chaos subsystem's online invariant monitor attaches to; the
    /// observer cannot mutate the simulation, so a run's event stream
    /// is byte-identical with and without observation.
    pub fn run_until_observed(
        &mut self,
        deadline: SimTime,
        observe: &mut dyn FnMut(&Self, SimEvent),
    ) {
        self.ensure_started();
        while let Some((at, kind)) = self.queue.pop_at_or_before(deadline) {
            if let Some(event) = self.dispatch(at, kind) {
                observe(self, event);
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until no events remain, up to `max_events` (a safety stop
    /// for protocols that never quiesce). Returns the number of events
    /// processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.ensure_started();
        let mut processed = 0;
        while processed < max_events && !self.queue.is_empty() {
            self.step();
            processed += 1;
        }
        processed
    }

    /// Processes exactly one pending event (after delivering start
    /// callbacks on first use). Returns false if the queue was empty.
    pub fn step_one(&mut self) -> bool {
        self.ensure_started();
        if self.queue.is_empty() {
            return false;
        }
        self.step();
        true
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let node = NodeId(i as u32);
            if !self.alive[i] {
                continue;
            }
            let mut ctx =
                Ctx::new(self.now, node, &mut self.rng).with_energy(self.energy.remaining(node));
            ctx.commands = std::mem::take(&mut self.scratch_commands);
            self.actors[i].on_start(&mut ctx);
            let commands = ctx.commands;
            self.apply_commands(node, commands);
        }
    }

    fn step(&mut self) {
        let Some((at, kind)) = self.queue.pop() else {
            return;
        };
        self.dispatch(at, kind);
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind<PayloadId>) -> Option<SimEvent> {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        // Solar harvesting (Section 2.1: hosts are "equipped with
        // solar cells for energy harvest"): credit elapsed time.
        if self.energy.model().harvest_per_sec > 0.0 && self.now > self.last_harvest {
            let elapsed = self.now.since(self.last_harvest).as_micros() as f64 / 1e6;
            self.energy.harvest(elapsed);
            self.last_harvest = self.now;
        }
        match kind {
            EventKind::Deliver { to, from, msg } => self
                .apply_delivery(to, from, msg)
                .then_some(SimEvent::Deliver { to, from }),
            EventKind::Timer { node, token, id } => {
                self.apply_timer(node, token, id)
                    .then_some(SimEvent::Timer {
                        node,
                        token: TimerToken(token),
                    })
            }
            EventKind::Crash { node } => self.apply_crash(node).then_some(SimEvent::Crash { node }),
            EventKind::Join { node } => self.apply_join(node).then_some(SimEvent::Join { node }),
            EventKind::Leave { node } => self.apply_leave(node).then_some(SimEvent::Leave { node }),
            EventKind::Rejoin { node } => {
                self.apply_rejoin(node).then_some(SimEvent::Rejoin { node })
            }
        }
    }

    /// Returns true iff the copy reached a live actor.
    fn apply_delivery(&mut self, to: NodeId, from: NodeId, payload: PayloadId) -> bool {
        if !self.alive[to.index()] {
            self.metrics.record_dropped_dead();
            self.payloads.release(payload);
            return false;
        }
        self.metrics.record_delivery();
        self.energy.charge_rx(to);
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node: to,
                peer: from,
                kind: TraceKind::Receive,
            });
        }
        let mut ctx = Ctx::new(self.now, to, &mut self.rng).with_energy(self.energy.remaining(to));
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[to.index()].on_message(&mut ctx, from, self.payloads.get(payload));
        let commands = ctx.commands;
        self.payloads.release(payload);
        self.apply_commands(to, commands);
        true
    }

    /// Returns true iff a current-generation timer fired on a live
    /// node.
    fn apply_timer(&mut self, node: NodeId, token: u64, stamp: u64) -> bool {
        if !self.timers.try_fire(stamp) {
            return false; // cancelled: a newer generation owns the slot
        }
        // Retire the pending entry (the event is spent either way).
        let (slot, _) = unpack_timer(stamp);
        let pending = &mut self.node_timers[node.index()];
        if let Some(at) = pending.iter().position(|&(_, s)| s == slot) {
            pending.swap_remove(at);
        }
        if !self.alive[node.index()] {
            return false;
        }
        self.metrics.record_timer();
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node,
                peer: node,
                kind: TraceKind::Timer,
            });
        }
        let mut ctx =
            Ctx::new(self.now, node, &mut self.rng).with_energy(self.energy.remaining(node));
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[node.index()].on_timer(&mut ctx, TimerToken(token));
        let commands = ctx.commands;
        self.apply_commands(node, commands);
        true
    }

    /// Returns true iff `node` transitioned from operational to dead.
    fn apply_crash(&mut self, node: NodeId) -> bool {
        if !self.alive[node.index()] {
            return false;
        }
        self.alive[node.index()] = false;
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node,
                peer: node,
                kind: TraceKind::Crash,
            });
        }
        true
    }

    /// Returns true iff the dormant node `node` was activated.
    fn apply_join(&mut self, node: NodeId) -> bool {
        if !self.dormant[node.index()] {
            return false;
        }
        self.dormant[node.index()] = false;
        self.alive[node.index()] = true;
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node,
                peer: node,
                kind: TraceKind::Join,
            });
        }
        let mut ctx =
            Ctx::new(self.now, node, &mut self.rng).with_energy(self.energy.remaining(node));
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[node.index()].on_start(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands);
        true
    }

    /// Returns true iff `node` withdrew (it was operational).
    fn apply_leave(&mut self, node: NodeId) -> bool {
        if !self.alive[node.index()] {
            return false;
        }
        // The departure announcement (whatever `on_leave` broadcasts)
        // is transmitted while the node is still operational.
        let mut ctx =
            Ctx::new(self.now, node, &mut self.rng).with_energy(self.energy.remaining(node));
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[node.index()].on_leave(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands);
        self.alive[node.index()] = false;
        self.departed[node.index()] = true;
        self.invalidate_node_timers(node);
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node,
                peer: node,
                kind: TraceKind::Leave,
            });
        }
        true
    }

    /// Returns true iff the crashed or departed node `node` came back.
    fn apply_rejoin(&mut self, node: NodeId) -> bool {
        if self.alive[node.index()] || self.dormant[node.index()] {
            return false;
        }
        // Crashes leave timers pending (the dead node simply never
        // fires them); a returning node must not inherit them.
        self.invalidate_node_timers(node);
        self.alive[node.index()] = true;
        self.departed[node.index()] = false;
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node,
                peer: node,
                kind: TraceKind::Rejoin,
            });
        }
        let mut ctx =
            Ctx::new(self.now, node, &mut self.rng).with_energy(self.energy.remaining(node));
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[node.index()].on_rejoin(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands);
        true
    }

    /// Invalidates and forgets every pending timer of `node`. The
    /// queued events stay in the calendar queue but their generation
    /// stamps are stale, so they dissolve on pop.
    fn invalidate_node_timers(&mut self, node: NodeId) {
        for &(_, slot) in &self.node_timers[node.index()] {
            self.timers.invalidate(slot);
        }
        self.node_timers[node.index()].clear();
    }

    fn apply_commands(&mut self, node: NodeId, mut commands: Vec<Command<A::Msg>>) {
        for command in commands.drain(..) {
            match command {
                Command::Broadcast(msg) => self.transmit(node, msg),
                Command::SetTimer { fire_at, token } => {
                    let stamp = self.timers.alloc();
                    let (slot, _) = unpack_timer(stamp);
                    self.node_timers[node.index()].push((token.0, slot));
                    self.queue.schedule(
                        fire_at,
                        EventKind::Timer {
                            node,
                            token: token.0,
                            id: stamp,
                        },
                    );
                }
                Command::CancelTimer { token } => {
                    let timers = &mut self.timers;
                    self.node_timers[node.index()].retain(|&(t, slot)| {
                        if t == token.0 {
                            timers.invalidate(slot);
                            false
                        } else {
                            true
                        }
                    });
                }
            }
        }
        // Hand the (now empty) allocation back for the next event.
        self.scratch_commands = commands;
    }

    fn transmit(&mut self, from: NodeId, msg: A::Msg) {
        // The borrow checker won't let us iterate `topology.neighbors`
        // while mutating the queue/rng, so the list is copied — into a
        // recycled buffer rather than a fresh allocation per transmit.
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        neighbors.extend_from_slice(self.topology.neighbors(from));
        self.metrics.record_transmission(from, neighbors.len());
        self.energy.charge_tx(from);
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node: from,
                peer: from,
                kind: TraceKind::Transmit,
            });
        }
        let from_pos = self.topology.position(from);
        // Lag entries for this source, found once per transmission;
        // the per-copy probe below then touches only this slice, which
        // is empty for every source without an injected lag.
        let src_lags: &[(NodeId, NodeId, SimDuration)] = if self.link_lag.is_empty() {
            &[]
        } else {
            let lo = self.link_lag.partition_point(|&(f, _, _)| f < from);
            let hi = lo + self.link_lag[lo..].partition_point(|&(f, _, _)| f == from);
            &self.link_lag[lo..hi]
        };
        // The payload is stored once; every scheduled copy carries a
        // handle, so fan-out degree never clones the message.
        let payload = self.payloads.insert(msg);
        let mut refs = 0u32;
        for &to in neighbors.iter() {
            // Partition drops are deterministic and consume no random
            // draws, so healing a partition restores the exact
            // unpartitioned random stream.
            let partitioned = self
                .partition
                .as_ref()
                .is_some_and(|g| g[from.index()] != g[to.index()]);
            let to_pos = self.topology.position(to);
            let lost = partitioned
                || self
                    .radio
                    .loss_mut()
                    .is_lost(from, to, from_pos, to_pos, &mut self.rng);
            if lost {
                self.metrics.record_loss();
                if self.trace.is_enabled() {
                    self.trace.push(TraceRecord {
                        at: self.now,
                        node: to,
                        peer: from,
                        kind: TraceKind::Loss,
                    });
                }
                continue;
            }
            let mut delay = self.radio.draw_delay(&mut self.rng);
            if !src_lags.is_empty() {
                if let Ok(i) = src_lags.binary_search_by_key(&to, |&(_, t, _)| t) {
                    delay = delay + src_lags[i].2;
                }
            }
            refs += 1;
            self.queue.schedule(
                self.now + delay,
                EventKind::Deliver {
                    to,
                    from,
                    msg: payload,
                },
            );
            // Stale-replay injection: a duplicate of the surviving
            // copy, delivered `dup_lag` later.
            if self.dup_probability > 0.0 && self.rng.random_bool(self.dup_probability) {
                refs += 1;
                self.queue.schedule(
                    self.now + delay + self.dup_lag,
                    EventKind::Deliver {
                        to,
                        from,
                        msg: payload,
                    },
                );
            }
        }
        // Zero surviving copies drop the payload immediately.
        self.payloads.set_refs(payload, refs);
        self.scratch_neighbors = neighbors;
    }
}

impl<A: Actor + Persist> Simulator<A>
where
    A::Msg: Persist,
{
    /// Serializes the complete simulation state — actors, pending
    /// events (with their tie-breaking insertion sequence numbers),
    /// in-flight payloads, RNG, timers, channel state, metrics, trace,
    /// energy, chaos interposers — into a version-tagged byte
    /// snapshot. [`Simulator::restore`] rebuilds a simulator whose
    /// future is **byte-identical** to this one's.
    ///
    /// # Errors
    ///
    /// Fails with [`CheckpointError::Corrupt`] if the radio's loss
    /// model is a custom one that does not implement
    /// [`LossModel::snapshot`](crate::loss::LossModel::snapshot) —
    /// better than silently dropping channel state.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        let Some(loss) = self.radio.loss().snapshot() else {
            return Err(CheckpointError::Corrupt(
                "loss model does not support checkpointing",
            ));
        };
        let mut w = Writer::new();
        checkpoint::write_header(&mut w);
        self.topology.persist(&mut w);
        loss.persist(&mut w);
        self.radio.delay().persist(&mut w);
        self.radio.jitter().persist(&mut w);
        self.actors.persist(&mut w);
        self.alive.persist(&mut w);
        self.departed.persist(&mut w);
        self.dormant.persist(&mut w);
        self.queue.persist(&mut w);
        self.payloads.persist(&mut w);
        self.now.persist(&mut w);
        self.rng.persist(&mut w);
        self.metrics.persist(&mut w);
        self.energy.persist(&mut w);
        self.trace.persist(&mut w);
        self.timers.persist(&mut w);
        self.node_timers.persist(&mut w);
        self.started.persist(&mut w);
        self.last_harvest.persist(&mut w);
        self.partition.persist(&mut w);
        self.link_lag.persist(&mut w);
        self.dup_probability.persist(&mut w);
        self.dup_lag.persist(&mut w);
        Ok(w.into_bytes())
    }

    /// Rebuilds a simulator from a [`Simulator::checkpoint`] snapshot.
    ///
    /// # Errors
    ///
    /// Fails on truncated, foreign, version-mismatched, or
    /// structurally inconsistent bytes; never panics on untrusted
    /// input.
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        checkpoint::read_header(&mut r)?;
        let topology = Topology::restore(&mut r)?;
        let loss = LossSnapshot::restore(&mut r)?;
        let delay = SimDuration::restore(&mut r)?;
        let jitter = SimDuration::restore(&mut r)?;
        let radio = RadioConfig::new(loss.rebuild())
            .with_delay(delay)
            .with_jitter(jitter);
        let actors: Vec<A> = Vec::restore(&mut r)?;
        let alive: Vec<bool> = Vec::restore(&mut r)?;
        let departed: Vec<bool> = Vec::restore(&mut r)?;
        let dormant: Vec<bool> = Vec::restore(&mut r)?;
        let queue = EventQueue::restore(&mut r)?;
        let payloads = PayloadArena::restore(&mut r)?;
        let now = SimTime::restore(&mut r)?;
        let rng = StdRng::restore(&mut r)?;
        let metrics = SimMetrics::restore(&mut r)?;
        let energy = EnergyBook::restore(&mut r)?;
        let trace = Trace::restore(&mut r)?;
        let timers = TimerSlab::restore(&mut r)?;
        let node_timers: Vec<Vec<(u64, u32)>> = Vec::restore(&mut r)?;
        let started = bool::restore(&mut r)?;
        let last_harvest = SimTime::restore(&mut r)?;
        let partition: Option<Vec<u32>> = Option::restore(&mut r)?;
        let link_lag = Vec::restore(&mut r)?;
        let dup_probability = f64::restore(&mut r)?;
        let dup_lag = SimDuration::restore(&mut r)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt("trailing bytes"));
        }
        let n = topology.len();
        if actors.len() != n
            || alive.len() != n
            || departed.len() != n
            || dormant.len() != n
            || node_timers.len() != n
            || partition.as_ref().is_some_and(|g| g.len() != n)
        {
            return Err(CheckpointError::Corrupt("population size mismatch"));
        }
        if !(0.0..=1.0).contains(&dup_probability) {
            return Err(CheckpointError::Corrupt(
                "duplication probability out of range",
            ));
        }
        Ok(Simulator {
            topology,
            radio,
            actors,
            alive,
            departed,
            dormant,
            queue,
            payloads,
            now,
            rng,
            metrics,
            energy,
            trace,
            timers,
            node_timers,
            started,
            last_harvest,
            partition,
            link_lag,
            dup_probability,
            dup_lag,
            scratch_neighbors: Vec::new(),
            scratch_commands: Vec::new(),
        })
    }
}

impl<A: Actor> std::fmt::Debug for Simulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.topology.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("radio", &self.radio)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::time::SimDuration;

    /// Broadcasts `count` pings at start and records everything heard.
    #[derive(Default)]
    struct Chatter {
        heard: Vec<(NodeId, u32)>,
        pings: u32,
        timer_fires: Vec<TimerToken>,
    }

    impl Actor for Chatter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..self.pings {
                ctx.broadcast(i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, from: NodeId, msg: &u32) {
            self.heard.push((from, *msg));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, token: TimerToken) {
            self.timer_fires.push(token);
        }
    }

    fn pair_topology() -> Topology {
        Topology::from_positions(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 100.0)
    }

    fn triangle_topology() -> Topology {
        Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(25.0, 40.0),
            ],
            100.0,
        )
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |id| {
            Chatter {
                pings: if id == NodeId(0) { 1 } else { 0 },
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor(NodeId(1)).heard, vec![(NodeId(0), 0)]);
        assert_eq!(sim.actor(NodeId(2)).heard, vec![(NodeId(0), 0)]);
        assert!(sim.actor(NodeId(0)).heard.is_empty(), "no self delivery");
        assert_eq!(sim.metrics().transmissions, 1);
        assert_eq!(sim.metrics().deliveries, 2);
    }

    #[test]
    fn total_loss_channel_delivers_nothing() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::bernoulli(1.0), 1, |_| {
            Chatter {
                pings: 3,
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().deliveries, 0);
        assert_eq!(sim.metrics().losses, 6);
    }

    #[test]
    fn crashed_node_is_silent_and_deaf() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        sim.crash_now(NodeId(1));
        sim.actor_mut(NodeId(0)).pings = 1;
        // Restart semantics: node 0 broadcasts at start; node 1 is
        // already dead so the copy is dropped.
        sim.run_until(SimTime::from_millis(10));
        assert!(sim.actor(NodeId(1)).heard.is_empty());
        assert_eq!(sim.metrics().dropped_dead, 1);
        assert!(!sim.is_alive(NodeId(1)));
        assert_eq!(sim.alive_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn scheduled_crash_takes_effect_at_time() {
        struct TimedPing;
        impl Actor for TimedPing {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.me() == NodeId(0) {
                    // Fire one ping before the crash and one after.
                    ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
                    ctx.set_timer(SimDuration::from_millis(20), TimerToken(2));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _t: TimerToken) {
                ctx.broadcast(0);
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| TimedPing);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(10));
        sim.run_until(SimTime::from_secs(1));
        // First ping delivered, second dropped on the dead node.
        assert_eq!(sim.metrics().deliveries, 1);
        assert_eq!(sim.metrics().dropped_dead, 1);
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        struct TimerTest;
        impl Actor for TimerTest {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(2), TimerToken(2));
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: TimerToken) {
                assert_eq!(token.0, ctx.now().as_millis(), "token must match schedule");
            }
        }
        let topo = Topology::from_positions(vec![Point::ORIGIN], 100.0);
        let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| TimerTest);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().timers_fired, 2);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct CancelTest;
        impl Actor for CancelTest {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(5), TimerToken(1));
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(2));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: TimerToken) {
                if token == TimerToken(2) {
                    ctx.cancel_timer(TimerToken(1));
                } else {
                    panic!("cancelled timer fired");
                }
            }
        }
        let topo = Topology::from_positions(vec![Point::ORIGIN], 100.0);
        let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| CancelTest);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.metrics().timers_fired, 1);
    }

    #[test]
    fn cancel_does_not_eat_newer_timer_with_same_token() {
        // set A (late), cancel token, set B (early): only A must die.
        struct Regress {
            fired: u32,
        }
        impl Actor for Regress {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(10), TimerToken(7));
                ctx.cancel_timer(TimerToken(7));
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(7));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, token: TimerToken) {
                assert_eq!(token, TimerToken(7));
                self.fired += 1;
            }
        }
        let topo = Topology::from_positions(vec![Point::ORIGIN], 100.0);
        let mut sim = Simulator::new(topo, RadioConfig::lossless(), 1, |_| Regress { fired: 0 });
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.actor(NodeId(0)).fired, 1);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                triangle_topology(),
                RadioConfig::bernoulli(0.5),
                seed,
                |_| Chatter {
                    pings: 10,
                    ..Chatter::default()
                },
            );
            sim.run_until(SimTime::from_millis(100));
            (sim.metrics().deliveries, sim.actor(NodeId(0)).heard.clone())
        };
        assert_eq!(run(7), run(7));
        // Different seeds should (with overwhelming probability)
        // produce different loss patterns over 60 offered copies.
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn energy_is_charged_for_traffic() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 5,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(10));
        let model = *sim.energy().model();
        let expected = model.initial - 5.0 * model.tx_cost - 5.0 * model.rx_cost;
        assert!((sim.energy().remaining(NodeId(0)) - expected).abs() < 1e-9);
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 1,
            ..Chatter::default()
        });
        sim.enable_trace();
        sim.run_until(SimTime::from_millis(10));
        let kinds: Vec<TraceKind> = sim.trace().records().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&TraceKind::Transmit));
        assert!(kinds.contains(&TraceKind::Receive));
    }

    #[test]
    fn run_to_quiescence_counts_events() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 2,
            ..Chatter::default()
        });
        // 2 pings per node = 4 deliveries total (one per neighbour copy).
        let processed = sim.run_to_quiescence(1_000);
        assert_eq!(processed, 4);
        assert!(!sim.step_one());
    }

    #[test]
    fn solar_harvest_replenishes_energy() {
        use crate::energy::EnergyModel;
        // One ping per 100 ms; harvesting outpaces the transmit cost.
        struct Beacon;
        impl Actor for Beacon {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(100), TimerToken(0));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.broadcast(());
                ctx.set_timer(SimDuration::from_millis(100), TimerToken(0));
            }
        }
        let run = |harvest: f64| {
            let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Beacon);
            sim.set_energy_model(EnergyModel {
                initial: 100.0,
                tx_cost: 1.0,
                rx_cost: 0.1,
                harvest_per_sec: harvest,
            });
            sim.run_until(SimTime::from_secs(5));
            sim.energy().remaining(NodeId(0))
        };
        let drained = run(0.0);
        let harvested = run(20.0); // 2 units per 100 ms vs 1.1 spent
        assert!(
            drained < 50.0,
            "beaconing must drain without harvest: {drained}"
        );
        assert!(
            (harvested - 100.0).abs() < 2.0,
            "harvesting should keep the battery topped up: {harvested}"
        );
    }

    #[test]
    fn radio_can_change_mid_run() {
        // Clean until t=10ms, then total loss: later pings vanish.
        struct Ping;
        impl Actor for Ping {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.set_timer(SimDuration::from_millis(5), TimerToken(0));
                    ctx.set_timer(SimDuration::from_millis(15), TimerToken(1));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.broadcast(());
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Ping);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().deliveries, 1);
        sim.set_radio(RadioConfig::bernoulli(1.0));
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(
            sim.metrics().deliveries,
            1,
            "storm must drop the second ping"
        );
        assert_eq!(sim.metrics().losses, 1);
    }

    #[test]
    fn timer_slab_stamps_are_spent_on_fire() {
        let mut slab = TimerSlab::default();
        let stamp = slab.alloc();
        assert!(slab.try_fire(stamp), "fresh stamp fires");
        assert!(!slab.try_fire(stamp), "a stamp can only be spent once");
    }

    #[test]
    fn timer_slab_invalidate_rejects_the_stale_stamp() {
        let mut slab = TimerSlab::default();
        let stamp = slab.alloc();
        let (slot, generation) = unpack_timer(stamp);
        slab.invalidate(slot);
        assert!(!slab.try_fire(stamp), "cancelled stamp must not fire");
        // The slot is recycled with a bumped generation: the new stamp
        // fires, the old one stays dead.
        let reused = slab.alloc();
        let (slot2, generation2) = unpack_timer(reused);
        assert_eq!(slot, slot2, "freelist reuses the slot");
        assert_ne!(generation, generation2, "reuse bumps the generation");
        assert!(!slab.try_fire(stamp));
        assert!(slab.try_fire(reused));
    }

    #[test]
    fn timer_slab_stays_bounded_under_cancel_churn() {
        // The old engine grew its `cancelled` tombstone set by one
        // entry per cancel, forever. The slab must recycle instead.
        let mut slab = TimerSlab::default();
        for _ in 0..10_000 {
            let stamp = slab.alloc();
            let (slot, _) = unpack_timer(stamp);
            slab.invalidate(slot);
        }
        assert_eq!(slab.generations.len(), 1, "one slot, recycled 10k times");
        let survivor = slab.alloc();
        assert!(
            slab.try_fire(survivor),
            "generation wrap-around is harmless"
        );
    }

    #[test]
    fn payload_arena_recycles_every_slot() {
        // Lossless fan-out: each payload is stored once, released per
        // delivery, and the slot is free once the last copy lands.
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |_| {
            Chatter {
                pings: 4,
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().deliveries, 24, "4 pings × 3 nodes × 2 peers");
        assert!(
            sim.payloads
                .slots
                .iter()
                .all(|(refs, m)| *refs == 0 && m.is_none()),
            "all payload slots released after quiescence"
        );
        assert_eq!(sim.payloads.free.len(), sim.payloads.slots.len());
    }

    #[test]
    fn payload_arena_frees_fully_lost_transmissions_immediately() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::bernoulli(1.0), 1, |_| {
            Chatter {
                pings: 1,
                ..Chatter::default()
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().losses, 2);
        assert!(
            sim.payloads.slots.iter().all(|(_, m)| m.is_none()),
            "zero-survivor payloads are dropped at transmit time"
        );
    }

    #[test]
    fn insert_with_refs_counts_down_to_recycling() {
        let mut arena: PayloadArena<u64> = PayloadArena::new();
        let id = arena.insert_with_refs(7, 2);
        assert_eq!(*arena.get(id), 7);
        arena.release(id);
        assert_eq!(*arena.get(id), 7, "one reference still outstanding");
        arena.release(id);
        assert_eq!(arena.free, vec![id.0], "last release recycles the slot");

        // The recycled slot is reused before the vector grows.
        let id2 = arena.insert_with_refs(9, 1);
        assert_eq!(id2.0, id.0);
        assert_eq!(arena.slots.len(), 1);
    }

    #[test]
    fn insert_with_refs_zero_matches_insert_then_set_refs() {
        // The free list is persisted in checkpoints, so its order is
        // observable: the fused call must leave the arena in exactly
        // the state the unfused insert + set_refs(0) pair would.
        let mut fused: PayloadArena<u64> = PayloadArena::new();
        let mut unfused: PayloadArena<u64> = PayloadArena::new();
        for arena in [&mut fused, &mut unfused] {
            let a = arena.insert_with_refs(1, 1);
            let b = arena.insert_with_refs(2, 1);
            arena.release(a);
            arena.release(b);
        }
        let f = fused.insert_with_refs(3, 0);
        let u = unfused.insert(3);
        unfused.set_refs(u, 0);
        assert_eq!(f.0, u.0);
        assert_eq!(fused.free, unfused.free, "free-list order preserved");
        assert!(fused.slots[f.0 as usize].1.is_none());

        // And the next allocation lands on the same slot in both.
        assert_eq!(fused.insert(4).0, unfused.insert(4).0);
    }

    #[test]
    fn schedule_crash_in_the_past_saturates_to_now() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(10));
        // A fuzzer-generated plan may ask for t=1 ms when now=10 ms;
        // the crash must land at now instead of aborting the process.
        let effective = sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        assert_eq!(effective, SimTime::from_millis(10));
        sim.run_until(SimTime::from_millis(11));
        assert!(!sim.is_alive(NodeId(1)));
    }

    #[test]
    fn observer_sees_only_effective_events() {
        // Node 0 pings; node 1 is crashed mid-run, so the second ping
        // is dropped dead and must NOT reach the observer.
        struct Ping;
        impl Actor for Ping {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == NodeId(0) {
                    ctx.set_timer(SimDuration::from_millis(2), TimerToken(0));
                    ctx.set_timer(SimDuration::from_millis(20), TimerToken(1));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerToken) {
                ctx.broadcast(());
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Ping);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(10));
        let mut seen = Vec::new();
        sim.run_until_observed(SimTime::from_secs(1), &mut |s, ev| {
            assert!(s.now() <= SimTime::from_secs(1));
            seen.push(ev);
        });
        assert!(seen.contains(&SimEvent::Crash { node: NodeId(1) }));
        let deliveries = seen
            .iter()
            .filter(|e| matches!(e, SimEvent::Deliver { .. }))
            .count();
        assert_eq!(deliveries, 1, "post-crash delivery must be filtered");
        // No Deliver/Timer record for node 1 after its crash record.
        let crash_at = seen
            .iter()
            .position(|e| matches!(e, SimEvent::Crash { .. }))
            .unwrap();
        assert!(seen[crash_at + 1..].iter().all(|e| !matches!(
            e,
            SimEvent::Deliver { to: NodeId(1), .. }
                | SimEvent::Timer {
                    node: NodeId(1),
                    ..
                }
        )));
    }

    #[test]
    fn observed_runs_match_unobserved_runs() {
        let run = |observed: bool| {
            let mut sim =
                Simulator::new(triangle_topology(), RadioConfig::bernoulli(0.4), 9, |_| {
                    Chatter {
                        pings: 8,
                        ..Chatter::default()
                    }
                });
            if observed {
                sim.run_until_observed(SimTime::from_millis(50), &mut |_, _| {});
            } else {
                sim.run_until(SimTime::from_millis(50));
            }
            (sim.metrics().clone(), sim.actor(NodeId(2)).heard.clone())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn partition_blocks_cross_group_traffic_and_heals() {
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |_| {
            Chatter::default()
        });
        sim.set_partition(vec![0, 1, 0]);
        sim.actor_mut(NodeId(0)).pings = 1;
        sim.run_until(SimTime::from_millis(5));
        // Node 1 is across the partition: its copy is dropped as loss.
        assert!(sim.actor(NodeId(1)).heard.is_empty());
        assert_eq!(sim.actor(NodeId(2)).heard.len(), 1);
        assert_eq!(sim.metrics().losses, 1);
        sim.clear_partition();
        // After healing, need fresh traffic: drive via a timer-free
        // re-broadcast by crashing nothing and re-running on_start is
        // not possible, so check the healed loss count stays flat.
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.metrics().losses, 1);
    }

    #[test]
    fn link_lag_delays_only_the_lagged_link() {
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |_| {
            Chatter::default()
        });
        sim.set_link_lag(NodeId(0), NodeId(1), SimDuration::from_millis(7));
        sim.actor_mut(NodeId(0)).pings = 1;
        let mut arrivals = Vec::new();
        sim.run_until_observed(SimTime::from_millis(20), &mut |s, ev| {
            if let SimEvent::Deliver { to, .. } = ev {
                arrivals.push((to, s.now()));
            }
        });
        let at = |n: u32| arrivals.iter().find(|(to, _)| *to == NodeId(n)).unwrap().1;
        assert_eq!(at(1), at(2) + SimDuration::from_millis(7));
    }

    #[test]
    fn duplication_replays_copies_late() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 10,
            ..Chatter::default()
        });
        sim.set_duplication(1.0, SimDuration::from_millis(3));
        sim.run_until(SimTime::from_millis(20));
        // Every surviving copy arrives twice: 10 pings per node → 20
        // originals + 20 duplicates.
        assert_eq!(sim.metrics().deliveries, 40);
        assert_eq!(sim.actor(NodeId(1)).heard.len(), 20);
    }

    #[test]
    fn debug_output_is_informative() {
        let sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        let s = format!("{sim:?}");
        assert!(s.contains("Simulator"));
        assert!(s.contains("nodes"));
    }

    crate::impl_persist!(Chatter {
        heard,
        pings,
        timer_fires,
    });

    #[test]
    fn dormant_node_misses_traffic_until_it_joins() {
        // Node 1 is a late arrival: it must miss node 0's start-time
        // ping, then run its own on_start when the join fires.
        let mut sim = Simulator::new(triangle_topology(), RadioConfig::lossless(), 1, |id| {
            Chatter {
                pings: if id == NodeId(1) { 3 } else { 1 },
                ..Chatter::default()
            }
        });
        sim.set_dormant(NodeId(1));
        assert!(sim.is_dormant(NodeId(1)));
        assert!(!sim.is_alive(NodeId(1)));
        sim.schedule_join(NodeId(1), SimTime::from_millis(10));
        let mut events = Vec::new();
        sim.run_until_observed(SimTime::from_millis(30), &mut |_, ev| events.push(ev));
        assert!(events.contains(&SimEvent::Join { node: NodeId(1) }));
        // The dormant node heard nothing from the start-time pings...
        let early = sim
            .actor(NodeId(1))
            .heard
            .iter()
            .filter(|&&(from, _)| from == NodeId(0))
            .count();
        assert_eq!(early, 0, "start-time ping must be dropped, not heard");
        // ...but its own on_start ran at join time: 3 pings, heard by
        // both neighbours.
        assert_eq!(
            sim.actors()
                .filter(|&(id, _)| id != NodeId(1))
                .map(|(_, a)| a.heard.iter().filter(|&&(f, _)| f == NodeId(1)).count())
                .sum::<usize>(),
            6
        );
        assert!(!sim.is_dormant(NodeId(1)));
        assert!(sim.is_alive(NodeId(1)));
    }

    #[test]
    fn leave_announces_then_silences_and_is_not_a_crash() {
        struct Leaver {
            farewell_heard: bool,
        }
        impl Actor for Leaver {
            type Msg = u8;
            fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: NodeId, msg: &u8) {
                if *msg == 99 {
                    self.farewell_heard = true;
                }
            }
            fn on_leave(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.broadcast(99);
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Leaver {
            farewell_heard: false,
        });
        sim.schedule_leave(NodeId(0), SimTime::from_millis(5));
        let mut events = Vec::new();
        sim.run_until_observed(SimTime::from_millis(20), &mut |_, ev| events.push(ev));
        assert!(events.contains(&SimEvent::Leave { node: NodeId(0) }));
        assert!(
            sim.actor(NodeId(1)).farewell_heard,
            "on_leave broadcast must go out before the node goes silent"
        );
        assert!(!sim.is_alive(NodeId(0)));
        assert!(sim.has_departed(NodeId(0)));
        assert_eq!(sim.departed_nodes(), vec![NodeId(0)]);
        assert_eq!(sim.crashed_nodes(), Vec::new(), "a leave is not a crash");
    }

    #[test]
    fn rejoin_revives_without_stale_timers() {
        struct Phoenix {
            fired: u32,
            rejoined: bool,
        }
        impl Actor for Phoenix {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(50), TimerToken(1));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerToken) {
                self.fired += 1;
            }
            fn on_rejoin(&mut self, _: &mut Ctx<'_, ()>) {
                self.rejoined = true;
            }
        }
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Phoenix {
            fired: 0,
            rejoined: false,
        });
        sim.schedule_crash(NodeId(0), SimTime::from_millis(10));
        sim.schedule_rejoin(NodeId(0), SimTime::from_millis(20));
        let mut events = Vec::new();
        sim.run_until_observed(SimTime::from_millis(100), &mut |_, ev| events.push(ev));
        assert!(events.contains(&SimEvent::Rejoin { node: NodeId(0) }));
        let phoenix = sim.actor(NodeId(0));
        assert!(phoenix.rejoined);
        assert_eq!(
            phoenix.fired, 0,
            "the pre-crash timer is stale and must not fire after rejoin"
        );
        assert!(sim.is_alive(NodeId(0)));
        assert!(!sim.has_departed(NodeId(0)));
        // Node 1 never crashed: its timer fires normally.
        assert_eq!(sim.actor(NodeId(1)).fired, 1);
    }

    #[test]
    fn churn_apis_never_panic_on_garbage_input() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 1,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(10));
        // Unknown node ids are ignored; past timestamps saturate.
        assert_eq!(
            sim.schedule_join(NodeId(99), SimTime::from_millis(1)),
            SimTime::from_millis(10)
        );
        sim.schedule_leave(NodeId(99), SimTime::ZERO);
        sim.schedule_rejoin(NodeId(99), SimTime::ZERO);
        sim.schedule_crash(NodeId(99), SimTime::ZERO);
        sim.set_dormant(NodeId(99));
        // Joining a present node and rejoining an alive node dissolve
        // into no-ops at dispatch time.
        sim.schedule_join(NodeId(0), SimTime::from_millis(11));
        sim.schedule_rejoin(NodeId(1), SimTime::from_millis(11));
        let mut effective = Vec::new();
        sim.run_until_observed(SimTime::from_millis(15), &mut |_, ev| effective.push(ev));
        assert!(
            effective.is_empty(),
            "none of the garbage events may be effective: {effective:?}"
        );
        // Leaving a node that is already dead is a no-op too.
        sim.crash_now(NodeId(1));
        sim.schedule_leave(NodeId(1), SimTime::from_millis(16));
        let mut late = Vec::new();
        sim.run_until_observed(SimTime::from_millis(20), &mut |_, ev| late.push(ev));
        assert!(late.is_empty(), "leave of a dead node fired: {late:?}");
        assert!(sim.is_alive(NodeId(0)));
        assert!(!sim.is_alive(NodeId(1)));
    }

    #[test]
    fn set_dormant_after_start_is_ignored() {
        let mut sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 0,
            ..Chatter::default()
        });
        sim.run_until(SimTime::from_millis(1));
        sim.set_dormant(NodeId(1));
        assert!(!sim.is_dormant(NodeId(1)));
        assert!(sim.is_alive(NodeId(1)));
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let build = || {
            let mut sim = Simulator::new(
                triangle_topology(),
                RadioConfig::bernoulli(0.3)
                    .with_delay(SimDuration::from_millis(1))
                    .with_jitter(SimDuration::from_micros(500)),
                7,
                |_| Chatter {
                    pings: 6,
                    ..Chatter::default()
                },
            );
            sim.enable_trace();
            sim.set_duplication(0.2, SimDuration::from_millis(2));
            sim
        };
        // Uninterrupted reference run.
        let mut reference = build();
        reference.schedule_crash(NodeId(2), SimTime::from_millis(3));
        reference.schedule_rejoin(NodeId(2), SimTime::from_millis(6));
        reference.run_until(SimTime::from_millis(40));

        // Interrupted run: snapshot mid-flight, restore, continue.
        let mut first_half = build();
        first_half.schedule_crash(NodeId(2), SimTime::from_millis(3));
        first_half.schedule_rejoin(NodeId(2), SimTime::from_millis(6));
        first_half.run_until(SimTime::from_millis(4));
        let snapshot = first_half.checkpoint().expect("checkpoint");
        drop(first_half);
        let mut resumed: Simulator<Chatter> = Simulator::restore(&snapshot).expect("restore");
        resumed.run_until(SimTime::from_millis(40));

        assert_eq!(resumed.metrics(), reference.metrics());
        assert_eq!(resumed.trace().records(), reference.trace().records());
        for n in reference.topology().node_ids() {
            assert_eq!(resumed.actor(n).heard, reference.actor(n).heard);
            assert_eq!(resumed.actor(n).timer_fires, reference.actor(n).timer_fires);
            assert_eq!(resumed.is_alive(n), reference.is_alive(n));
        }
        // The strongest form of the contract: the final snapshots are
        // byte-identical.
        assert_eq!(
            resumed.checkpoint().unwrap(),
            reference.checkpoint().unwrap()
        );
    }

    #[test]
    fn restore_rejects_corrupt_input_without_panicking() {
        let sim = Simulator::new(pair_topology(), RadioConfig::lossless(), 1, |_| Chatter {
            pings: 2,
            ..Chatter::default()
        });
        let bytes = sim.checkpoint().unwrap();
        assert!(Simulator::<Chatter>::restore(b"garbage").is_err());
        assert!(Simulator::<Chatter>::restore(&[]).is_err());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Simulator::<Chatter>::restore(&bytes[..cut]).is_err(),
                "truncation at {cut} must be detected"
            );
        }
        assert!(Simulator::<Chatter>::restore(&bytes).is_ok());
    }

    thread_local! {
        /// Deep copies of [`Digest`] payloads, counted by `Clone`
        /// itself: only the engine could copy one.
        static PAYLOAD_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A payload shaped like the FDS digest: 32 inline words.
    #[derive(Debug)]
    struct Digest([u64; 32]);

    impl Clone for Digest {
        fn clone(&self) -> Self {
            PAYLOAD_CLONES.with(|c| c.set(c.get() + 1));
            Digest(self.0)
        }
    }

    /// Broadcasts a digest every 10 ms, phase-staggered by node id.
    struct Beacon(NodeId);

    impl Actor for Beacon {
        type Msg = Digest;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Digest>) {
            let phase = u64::from(self.0 .0 % 10);
            ctx.set_timer(SimDuration::from_millis(10 + phase), TimerToken(1));
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Digest>, _from: NodeId, _msg: &Digest) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Digest>, token: TimerToken) {
            ctx.broadcast(Digest([u64::from(self.0 .0); 32]));
            ctx.set_timer(SimDuration::from_millis(10), token);
        }
    }

    /// Runs `run` with the clone counter zeroed and returns the clones
    /// it made.
    fn count_clones(run: impl FnOnce()) -> u64 {
        PAYLOAD_CLONES.with(|c| c.set(0));
        run();
        PAYLOAD_CLONES.with(|c| c.get())
    }

    #[test]
    fn broadcast_fan_out_does_not_clone_payloads_per_receiver() {
        use crate::geometry::Rect;
        use crate::placement::Placement;
        use crate::tiled::TiledSim;

        // 200 nodes at mean degree ≈ 20, lossy and jittered, with one
        // lagged link and one crash so every delivery path runs.
        let mut rng = StdRng::seed_from_u64(0xB37C);
        let positions = Placement::UniformRect(Rect::square(560.0)).generate(200, &mut rng);
        let topology = Topology::from_positions(positions, 100.0);
        let radio = || RadioConfig::bernoulli(0.1).with_jitter(SimDuration::from_micros(500));
        let lagged = (NodeId(0), topology.neighbors(NodeId(0))[0]);
        let (crashed, crash_at) = (NodeId(97), SimTime::from_millis(100));
        let end = SimTime::from_millis(200);

        // The legacy engine hands every receiver a shared payload.
        let mut sim = Simulator::new(topology.clone(), radio(), 7, Beacon);
        sim.set_link_lag(lagged.0, lagged.1, SimDuration::from_millis(3));
        sim.schedule_crash(crashed, crash_at);
        let clones = count_clones(|| sim.run_until(end));
        assert!(sim.metrics().deliveries > 0);
        assert_eq!(clones, 0, "Simulator copied a broadcast payload");

        // The tiled engine copies a payload only to carry it into a
        // foreign tile: at most once per (transmission, other tile).
        let (gx, gy) = (2, 2);
        let mut tiled = TiledSim::new(topology, radio(), 7, gx, gy, Beacon);
        tiled.set_link_lag(lagged.0, lagged.1, SimDuration::from_millis(3));
        tiled.schedule_crash(crashed, crash_at);
        let clones = count_clones(|| tiled.run_until(end));
        let m = tiled.metrics();
        assert!(m.deliveries > 0);
        assert!(
            clones <= m.transmissions * u64::from(gx * gy - 1),
            "TiledSim made {clones} payload clones for {} transmissions",
            m.transmissions
        );
    }
}
