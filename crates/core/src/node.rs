//! The per-host FDS protocol actor.
//!
//! [`FdsNode`] implements the full service of Section 4 on one host:
//!
//! * the three rounds — heartbeat exchange (`fds.R-1`), digest
//!   exchange (`fds.R-2`), and the health-status-update broadcast
//!   (`fds.R-3`) — executed at the epoch of every heartbeat interval;
//! * the member and clusterhead failure-detection rules;
//! * deputy takeover after a detected clusterhead failure;
//! * peer forwarding with energy-balanced waiting periods for members
//!   that missed the update;
//! * inter-cluster report forwarding with implicit acknowledgments and
//!   rank-`k` backup-gateway timeouts (Section 4.3).
//!
//! The actor consumes only node-local knowledge (its
//! [`NodeProfile`]) plus what it hears on the air.

use crate::adaptive::{self, LinkEstimator, SuspicionEvent, CORROBORATION_BONUS_MILLIS};
use crate::aggregation::{synthetic_reading, Aggregate, ReadingTable};
use crate::bitmap::RosterBitmap;
use crate::config::{DetectionMode, FdsConfig, MAX_RETRANSMITS, PEER_FORWARD_SLOTS};
use crate::ledger::{ClusterLedger, SortedMap, SortedSet, TimerRing};
use crate::message::{report_wire_len, Digest, FailureReport, FdsMsg, HealthUpdate};
use crate::peer_forward::waiting_period;
use crate::profile::NodeProfile;
use crate::rules::{ch_failed, detect_failures_into, RoundEvidence};
use crate::view::FailureView;
use cbfd_net::actor::{Actor, Ctx, TimerToken};
use cbfd_net::id::{ClusterId, NodeId};
use serde::{Deserialize, Serialize};

/// Energy quantization levels for the peer-forwarding waiting period.
const ENERGY_LEVELS: u32 = 4;

/// Gracefully-departed members still occupying roster positions before
/// the acting head spends a version bump on compacting them away.
const COMPACT_THRESHOLD: usize = 4;

/// Marks the newest unretracted suspicion of `subject` as retracted at
/// epoch `at` (◇P self-correction; a no-op if none is open).
fn retract_suspicion(log: &mut [SuspicionEvent], subject: NodeId, at: u64) {
    if let Some(ev) = log
        .iter_mut()
        .rev()
        .find(|ev| ev.subject == subject && ev.retracted.is_none())
    {
        ev.retracted = Some(at);
    }
}

/// One detection decision made by this node while acting as an
/// authority (clusterhead or judging deputy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionEvent {
    /// The FDS epoch of the decision.
    pub epoch: u64,
    /// The nodes newly declared failed.
    pub suspects: Vec<NodeId>,
    /// Whether this was a deputy's clusterhead-failure judgement (and
    /// takeover).
    pub takeover: bool,
}

/// Traffic/behaviour counters of one node, for experiment read-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Health updates received (from the authority, any epoch).
    pub updates_received: u64,
    /// Peer-forwarding requests this node broadcast.
    pub requests_sent: u64,
    /// Peer forwards this node performed for others.
    pub peer_forwards_sent: u64,
    /// Inter-cluster reports this node forwarded.
    pub reports_sent: u64,
    /// Update retransmissions this node performed while acting head.
    pub retransmissions: u64,
    /// Epochs in which this node missed the update entirely (even
    /// after peer forwarding) — the incompleteness events.
    pub updates_missed: u64,
    /// Unmarked nodes this node admitted while acting head (membership
    /// subscriptions honoured, feature F5).
    pub joins_admitted: u64,
    /// Total wire bytes this node transmitted (per the message codec).
    pub bytes_sent: u64,
    /// Immediate report broadcasts the per-epoch forwarding ledger
    /// suppressed: the pre-dedup protocol would have re-sent the full
    /// pending set on every overheard trigger.
    pub reports_suppressed: u64,
    /// Wire bytes those suppressed reports would have cost, priced by
    /// the same codec as live traffic (including the `known_by`
    /// piggyback the real report would have carried).
    pub bytes_suppressed: u64,
    /// Deterministic count of ledger mutation operations (set/map
    /// inserts offered, extend items, timer schedule/fire) on the
    /// protocol hot path. Counted at identical sites by `FdsNode` and
    /// the frozen reference implementation, so layout rewrites are
    /// visible in bench `protocol_profile` rows without wall-clock —
    /// and a divergence fails the differential suite. Not persisted in
    /// checkpoints (it is profiling state, not protocol state).
    pub ledger_ops: u64,
}

#[derive(Debug, Clone)]
enum TimerPayload {
    EpochStart,
    R2,
    R3,
    Post,
    /// Close of the peer-forwarding recovery window: count a miss if
    /// the update still has not arrived.
    RecoveryDeadline {
        epoch: u64,
    },
    PeerSlot {
        requester: NodeId,
        epoch: u64,
    },
    /// A gateway/backup re-checks whether `failed` still needs
    /// forwarding toward `target`.
    GwForward {
        target: ClusterId,
        failed: Vec<NodeId>,
        attempt: u32,
    },
    /// The acting head re-checks whether its news was forwarded on the
    /// link toward `peer` (implicit-ack timeout `2·Thop`).
    ChRetx {
        peer: ClusterId,
        failed: Vec<NodeId>,
        attempt: u32,
    },
}

/// The FDS actor for one host.
#[derive(Debug)]
pub struct FdsNode {
    profile: NodeProfile,
    config: FdsConfig,
    /// Full-charge reference for the energy fraction used by the
    /// waiting-period policy.
    energy_capacity: f64,

    epoch: u64,
    acting_head: Option<NodeId>,
    /// The cluster roster in **announcement order**: the formation
    /// roster (sorted) with every later admission batch appended at
    /// the end. Rosters only grow and only by appending, so version
    /// `v` is a strict prefix of version `v + 1` — the contract that
    /// keeps [`RosterBitmap`] positions stable. `profile.roster`
    /// remains the sorted public view of the same set.
    roster_order: Vec<NodeId>,
    /// Bumped on every admission batch; tags all bitmaps this node
    /// builds.
    roster_version: u32,
    /// Node → position in `roster_order`. A sorted vec: cluster
    /// rosters hold tens of entries, so one binary search over a
    /// contiguous array beats hashing the id (and the map persists in
    /// key order for free).
    pos_index: SortedMap<NodeId, u32>,
    evidence: RoundEvidence,
    /// Scratch for the R-3 expected-members mask, reused every epoch.
    expected_scratch: RosterBitmap,
    /// Scratch for detection output, reused every epoch.
    suspects_scratch: Vec<NodeId>,
    update_this_epoch: Option<HealthUpdate>,
    request_outstanding: bool,
    known_failed: FailureView,
    /// What each cluster's head has evidently learned (from overheard
    /// health updates of that cluster) — the implicit-ack ledger.
    known_by_cluster: ClusterLedger,
    /// Failures seen in overheard reports per target cluster (the
    /// head's layer-one implicit ack: "my gateway did forward").
    forward_seen: ClusterLedger,
    /// Peer-forward requests already satisfied (quit on overheard ack).
    quit: SortedSet<(NodeId, u64)>,
    /// Unmarked nodes heard this epoch (candidate subscriptions, only
    /// tracked by the acting head).
    join_pending: SortedSet<NodeId>,
    /// This node's own sleep windows, as `(first_epoch, until_epoch)`
    /// half-open intervals (sorted, non-overlapping).
    sleep_plan: Vec<(u64, u64)>,
    /// Whether the radio is currently off.
    asleep: bool,
    /// Peers known to be sleeping, with their wake epochs.
    known_sleepers: SortedMap<NodeId, u64>,
    /// This node's own incarnation number: bumped on every rejoin, so
    /// peers can tell post-rejoin lifecycle messages from replays of
    /// stale pre-crash state.
    incarnation: u64,
    /// Highest incarnation heard per peer (absent means `0`).
    incarnations: SortedMap<NodeId, u64>,
    /// Peers that announced a graceful leave and have not rejoined:
    /// removed from the expected set without being condemned.
    departed: SortedSet<NodeId>,
    /// Sleep notices already relayed (one relay per notice).
    relayed_notices: SortedSet<(NodeId, u64)>,
    /// Sensor readings collected this epoch (aggregation embedding),
    /// deduplicated by reporting node, roster-position indexed.
    readings: ReadingTable,
    /// The head's published cluster aggregates, by epoch.
    aggregates: Vec<(u64, Aggregate)>,

    detections: Vec<DetectionEvent>,
    stats: NodeStats,

    /// Adaptive mode: one ADD-channel estimator per monitored roster
    /// member, keyed by id so positions may move underneath (pruned
    /// once a subject is condemned or departs — see
    /// [`FdsNode::gc_retired_state`]). Keyed by id, not roster
    /// position: a compaction bump moves positions mid-epoch, and
    /// position-indexed estimator state would silently alias to the
    /// wrong member (DESIGN.md §16).
    adaptive: SortedMap<NodeId, LinkEstimator>,
    /// Adaptive mode: members whose suspicion at least one peer's
    /// digest corroborated this epoch (cleared at every epoch
    /// boundary; feeds the accrual corroboration bonus). Id-keyed for
    /// the same compaction-aliasing reason as `adaptive`.
    peer_suspects: SortedSet<NodeId>,
    /// Adaptive mode: the suspect→(trust|condemn) episode log, GC'd by
    /// the retention window like the detection log.
    suspicions: Vec<SuspicionEvent>,
    /// Adaptive mode: the epoch whose evidence was already folded into
    /// the estimators (`u64::MAX` = none yet); the fold runs at most
    /// once per epoch whether R-3 or the post-round reaches it first.
    adaptive_observed_epoch: u64,
    /// Gateway dedup ledger: subjects already forwarded (or scheduled
    /// for a ranked backup slot) toward each target cluster **this
    /// epoch**. Every overheard update/report used to re-trigger a
    /// full forward of the same pending set, which is what made the
    /// epoch-1 report avalanche O(clusters²); the ledger caps the
    /// event-triggered path at one report per (epoch, target, subject)
    /// while the `GwForward` retry timers — which do not consult it —
    /// keep reliability. Cleared at every epoch boundary — an O(1)
    /// generation bump on the ledger, not a tree walk.
    forwarded_this_epoch: ClusterLedger,

    next_token: u64,
    timers: TimerRing<TimerPayload>,

    /// Per-report Vec clones and retained-update clones avoided or
    /// still paid on the hot path; a deterministic profiling counter
    /// like `NodeStats::ledger_ops`, but `FdsNode`-only (the frozen
    /// reference keeps its historical clones, so this cannot live in
    /// the differentially-compared stats). Not persisted.
    clone_ops: u64,
    /// Reusable scratch for the gateway pre-dedup pending set.
    gw_scratch: Vec<NodeId>,
}

impl FdsNode {
    /// Creates the actor from its node-local knowledge.
    ///
    /// `energy_capacity` is the full-charge reference used to turn the
    /// simulator's remaining-energy figure into the fraction consumed
    /// by the waiting-period policy.
    pub fn new(profile: NodeProfile, config: FdsConfig, energy_capacity: f64) -> Self {
        let acting_head = profile.head;
        // The formation roster is sorted; it is announcement-order
        // version 0.
        let roster_order = profile.roster.clone();
        let mut pos_index = SortedMap::new();
        for (p, n) in roster_order.iter().enumerate() {
            pos_index.insert(*n, p as u32);
        }
        FdsNode {
            profile,
            config,
            energy_capacity,
            epoch: 0,
            acting_head,
            roster_order,
            roster_version: 0,
            pos_index,
            evidence: RoundEvidence::new(),
            expected_scratch: RosterBitmap::new(0, 0),
            suspects_scratch: Vec::new(),
            update_this_epoch: None,
            request_outstanding: false,
            known_failed: FailureView::new(),
            known_by_cluster: ClusterLedger::new(),
            forward_seen: ClusterLedger::new(),
            quit: SortedSet::new(),
            join_pending: SortedSet::new(),
            sleep_plan: Vec::new(),
            asleep: false,
            known_sleepers: SortedMap::new(),
            incarnation: 0,
            incarnations: SortedMap::new(),
            departed: SortedSet::new(),
            relayed_notices: SortedSet::new(),
            readings: ReadingTable::new(),
            aggregates: Vec::new(),
            detections: Vec::new(),
            stats: NodeStats::default(),
            adaptive: SortedMap::new(),
            peer_suspects: SortedSet::new(),
            suspicions: Vec::new(),
            adaptive_observed_epoch: u64::MAX,
            forwarded_this_epoch: ClusterLedger::new(),
            next_token: 0,
            timers: TimerRing::new(),
            clone_ops: 0,
            gw_scratch: Vec::new(),
        }
    }

    /// Hot-path clones this node performed (or would historically have
    /// performed) per [`FdsNode::clone_ops`] — a deterministic
    /// profiling counter for bench read-out, zero after a checkpoint
    /// restore.
    pub fn clone_ops(&self) -> u64 {
        self.clone_ops
    }

    /// The node's failure view (what it believes has failed).
    pub fn known_failed(&self) -> &FailureView {
        &self.known_failed
    }

    /// Detection decisions this node made as an authority.
    pub fn detections(&self) -> &[DetectionEvent] {
        &self.detections
    }

    /// Suspicion raise/retract episodes recorded by the adaptive
    /// detector (always empty under `DetectionMode::Fixed`).
    pub fn suspicion_events(&self) -> &[SuspicionEvent] {
        &self.suspicions
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The head this node currently obeys (changes on takeover).
    pub fn acting_head(&self) -> Option<NodeId> {
        self.acting_head
    }

    /// The current FDS epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The node's static profile.
    pub fn profile(&self) -> &NodeProfile {
        &self.profile
    }

    /// Installs this node's sleep schedule: half-open epoch intervals
    /// `[first, until)` during which the radio is off. Intervals must
    /// be sorted and non-overlapping.
    ///
    /// # Panics
    ///
    /// Panics if an interval is empty or the list is unsorted.
    pub fn set_sleep_plan(&mut self, plan: Vec<(u64, u64)>) {
        let mut last_end = 0;
        for &(from, until) in &plan {
            assert!(from < until, "empty sleep window [{from}, {until})");
            assert!(
                from >= last_end,
                "sleep windows must be sorted and disjoint"
            );
            last_end = until;
        }
        self.sleep_plan = plan;
    }

    /// Whether the radio is currently off.
    pub fn is_asleep(&self) -> bool {
        self.asleep
    }

    /// Cluster aggregates this node published while acting head (one
    /// per epoch; requires `FdsConfig::aggregation`).
    pub fn aggregates(&self) -> &[(u64, Aggregate)] {
        &self.aggregates
    }

    /// This node's current incarnation number (bumped on every rejoin).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Whether this node believes `peer` has gracefully withdrawn.
    pub fn knows_departed(&self, peer: NodeId) -> bool {
        self.departed.contains(&peer)
    }

    /// Deterministic memory-footprint proxy: total entries across
    /// every growable ledger this node holds. Unlike allocator
    /// introspection this is identical on every platform and worker
    /// count, so soak harnesses can gate on its high-water mark
    /// byte-for-byte. With `FdsConfig::retention_epochs` set, the
    /// value plateaus as a function of roster size and the retention
    /// window; without it, long churny runs grow it without bound.
    pub fn retained_ledger_entries(&self) -> u64 {
        // Live entries only: the cluster ledgers and scratch vectors
        // retain capacity (and generation-stale entries) by design, and
        // capacity is not retained state.
        let nested: usize = self.known_by_cluster.live_item_count()
            + self.forward_seen.live_item_count()
            + self.forwarded_this_epoch.live_item_count();
        (self.known_failed.len()
            + nested
            + self.known_by_cluster.live_len()
            + self.forward_seen.live_len()
            + self.forwarded_this_epoch.live_len()
            + self.quit.len()
            + self.join_pending.len()
            + self.known_sleepers.len()
            + self.incarnations.len()
            + self.departed.len()
            + self.relayed_notices.len()
            + self.aggregates.len()
            + self.detections.len()
            + self.adaptive.len()
            + self.peer_suspects.len()
            + self.suspicions.len()
            + self.timers.len()) as u64
    }

    /// The sleep window covering `epoch`, if any.
    fn sleep_window(&self, epoch: u64) -> Option<(u64, u64)> {
        self.sleep_plan
            .iter()
            .copied()
            .find(|&(from, until)| (from..until).contains(&epoch))
    }

    fn is_acting_head(&self) -> bool {
        self.acting_head == Some(self.profile.id)
    }

    fn my_cluster(&self) -> Option<ClusterId> {
        self.profile.cluster
    }

    /// The roster position of `node`, if it is a member.
    fn pos_of(&self, node: NodeId) -> Option<usize> {
        self.pos_index.get(&node).map(|p| *p as usize)
    }

    /// Adopts an announced roster wholesale (joining a cluster, or a
    /// re-announcement after admissions or a compaction elsewhere in
    /// the cluster). Stale announcements — an older version, or a
    /// same-version order that shrank — are ignored. When the old
    /// order is a prefix of the new one, mid-epoch evidence survives;
    /// a compaction bump moves positions, so the evidence is reset
    /// (only the already-latched `update_received` flag carries over).
    fn adopt_roster_order(&mut self, order: Vec<NodeId>, version: u32) {
        if version < self.roster_version
            || (version == self.roster_version && order.len() < self.roster_order.len())
        {
            return;
        }
        let prefix_stable = order.len() >= self.roster_order.len()
            && order[..self.roster_order.len()] == self.roster_order[..];
        if prefix_stable {
            for (p, n) in order.iter().enumerate().skip(self.roster_order.len()) {
                self.pos_index.insert(*n, p as u32);
            }
        } else {
            self.pos_index.clear();
            for (p, n) in order.iter().enumerate() {
                self.pos_index.insert(*n, p as u32);
            }
        }
        self.roster_order = order;
        self.roster_version = version;
        self.profile.roster = self.roster_order.clone();
        self.profile.roster.sort_unstable();
        self.resize_epoch_books(prefix_stable);
    }

    /// Head-side admission: drops departed members (a compaction), then
    /// appends this epoch's joiners (sorted) to the announcement order
    /// and bumps the roster version. With no compaction, existing
    /// positions never move and mid-epoch evidence survives.
    fn append_joined(&mut self, joined: &[NodeId]) {
        let compacted = self.compact_roster();
        for n in joined {
            if self.pos_of(*n).is_none() {
                self.pos_index.insert(*n, self.roster_order.len() as u32);
                self.roster_order.push(*n);
            }
        }
        self.roster_version += 1;
        self.profile.roster = self.roster_order.clone();
        self.profile.roster.sort_unstable();
        self.resize_epoch_books(!compacted);
    }

    /// Drops gracefully-departed members from the announcement order,
    /// re-indexing positions. Returns whether anything was removed.
    /// Callers must bump the roster version and re-announce the full
    /// order: compaction deliberately breaks the append-only prefix
    /// contract, so every consumer re-indexes from the announcement.
    fn compact_roster(&mut self) -> bool {
        if self.departed_on_roster() == 0 {
            return false;
        }
        let departed = std::mem::take(&mut self.departed);
        self.roster_order.retain(|n| !departed.contains(n));
        self.departed = departed;
        self.pos_index.clear();
        for (p, n) in self.roster_order.iter().enumerate() {
            self.pos_index.insert(*n, p as u32);
        }
        true
    }

    /// Roster positions still held by gracefully-departed members —
    /// the memory a compaction bump would reclaim.
    fn departed_on_roster(&self) -> usize {
        self.roster_order
            .iter()
            .filter(|n| self.departed.contains(n))
            .count()
    }

    /// Resizes the per-epoch books to the current roster. A
    /// prefix-stable change grows them in place; anything else (a
    /// compaction moved positions) resets them, preserving only the
    /// `update_received` latch, which is positionless.
    fn resize_epoch_books(&mut self, prefix_stable: bool) {
        if prefix_stable {
            self.evidence
                .grow(self.roster_version, self.roster_order.len());
            self.readings.grow(self.roster_order.len());
        } else {
            let update_received = self.evidence.update_received;
            self.evidence
                .reset(self.roster_version, self.roster_order.len());
            self.evidence.update_received = update_received;
            self.readings.reset(self.roster_order.len());
        }
    }

    /// Broadcasts `msg`, accounting its wire size in the byte ledger.
    fn transmit(&mut self, ctx: &mut Ctx<'_, FdsMsg>, msg: FdsMsg) {
        self.stats.bytes_sent += msg.encoded_len() as u64;
        ctx.broadcast(msg);
    }

    fn schedule(
        &mut self,
        ctx: &mut Ctx<'_, FdsMsg>,
        delay: cbfd_net::time::SimDuration,
        payload: TimerPayload,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.stats.ledger_ops += 1;
        self.timers.insert(token, payload);
        ctx.set_timer(delay, TimerToken(token));
    }

    /// Bounded-memory ledger GC: drops per-epoch bookkeeping more than
    /// `retention_epochs` epochs old. `0` disables retention. Run at
    /// every epoch boundary, this keeps a node's footprint a function
    /// of the roster size and the retention window — not of run
    /// length, which is what lets week-long soaks hold a memory
    /// plateau (see `bench_soak`).
    fn gc_retired_state(&mut self) {
        if self.config.detection_mode == DetectionMode::Adaptive {
            // Estimators of condemned or departed members are dead
            // links: pruning them bounds the map by the live roster.
            let known_failed = &self.known_failed;
            let departed = &self.departed;
            self.adaptive
                .retain(|n, _| !known_failed.contains(*n) && !departed.contains(n));
        }
        let retention = self.config.retention_epochs;
        if retention == 0 || self.epoch < retention {
            return;
        }
        let cutoff = self.epoch - retention;
        self.quit.retain(|&(_, epoch)| epoch >= cutoff);
        self.relayed_notices.retain(|&(_, until)| until >= cutoff);
        self.known_sleepers.retain(|_, until| *until >= cutoff);
        self.aggregates.retain(|&(epoch, _)| epoch >= cutoff);
        self.detections.retain(|d| d.epoch >= cutoff);
        self.suspicions.retain(|ev| ev.epoch >= cutoff);
    }

    fn begin_epoch(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.gc_retired_state();
        self.evidence
            .reset(self.roster_version, self.roster_order.len());
        self.update_this_epoch = None;
        self.request_outstanding = false;
        self.join_pending.clear();
        self.peer_suspects.clear();
        self.forwarded_this_epoch.clear_all();
        self.readings.reset(self.roster_order.len());

        // Sleep/wakeup power management (concluding-remarks
        // extension): during a sleep window the radio is off — no
        // heartbeat, no rounds; only the epoch clock keeps running.
        if let Some((from, until)) = self.sleep_window(self.epoch) {
            if !self.asleep {
                self.asleep = true;
                if self.config.sleep_announcements {
                    self.transmit(
                        ctx,
                        FdsMsg::SleepNotice {
                            from: self.profile.id,
                            until_epoch: until,
                        },
                    );
                }
            }
            let _ = from;
            self.schedule(
                ctx,
                self.config.heartbeat_interval,
                TimerPayload::EpochStart,
            );
            return;
        }
        self.asleep = false;

        // fds.R-1: everyone (marked or not — feature F5) heartbeats;
        // with aggregation embedded, the heartbeat carries the sensor
        // reading (message sharing: zero extra transmissions).
        let reading = if self.config.aggregation {
            let r = synthetic_reading(self.profile.id, self.epoch);
            self.readings
                .set(self.pos_of(self.profile.id), self.profile.id, r);
            Some(r)
        } else {
            None
        };
        self.transmit(
            ctx,
            FdsMsg::Heartbeat {
                from: self.profile.id,
                marked: self.profile.cluster.is_some(),
                reading,
            },
        );
        if self.profile.cluster.is_some() {
            self.schedule(ctx, self.config.r2_offset(), TimerPayload::R2);
            self.schedule(ctx, self.config.r3_offset(), TimerPayload::R3);
            self.schedule(ctx, self.config.post_offset(), TimerPayload::Post);
        }
        self.schedule(
            ctx,
            self.config.heartbeat_interval,
            TimerPayload::EpochStart,
        );
    }

    /// Expected-alive members, excluding this node itself, known
    /// failures, gracefully-departed peers, and announced sleepers
    /// that have not woken yet. (The protocol path builds the
    /// equivalent bitmap mask in [`FdsNode::expected_mask`]; this
    /// id-list view serves tests.)
    #[cfg(test)]
    fn expected_members(&self) -> Vec<NodeId> {
        self.profile
            .roster
            .iter()
            .copied()
            .filter(|m| {
                *m != self.profile.id
                    && !self.known_failed.contains(*m)
                    && !self.departed.contains(m)
            })
            .filter(|m| {
                self.known_sleepers
                    .get(m)
                    .is_none_or(|until| *until <= self.epoch)
            })
            .collect()
    }

    /// Builds the expected-members mask into the reusable scratch
    /// bitmap: every roster position minus self, known failures,
    /// departed peers, and announced sleepers that have not woken yet.
    fn expected_mask(&mut self) {
        self.expected_scratch
            .reset(self.roster_version, self.roster_order.len());
        self.expected_scratch.set_all();
        if let Some(me) = self.pos_of(self.profile.id) {
            self.expected_scratch.clear(me);
        }
        for f in self.known_failed.nodes() {
            if let Some(p) = self.pos_of(f) {
                self.expected_scratch.clear(p);
            }
        }
        for d in self.departed.iter() {
            if let Some(p) = self.pos_index.get(d) {
                self.expected_scratch.clear(*p as usize);
            }
        }
        for (sleeper, until) in self.known_sleepers.iter() {
            if *until > self.epoch {
                if let Some(p) = self.pos_index.get(sleeper) {
                    self.expected_scratch.clear(*p as usize);
                }
            }
        }
    }

    /// The deputy currently entitled to judge the acting head: the
    /// highest-ranked deputy that is neither failed, departed,
    /// promoted, nor (announcedly) asleep — a sleeping deputy's duty
    /// falls to the next rank for the duration of its window.
    fn judging_deputy(&self) -> Option<NodeId> {
        self.profile.deputies.iter().copied().find(|d| {
            Some(*d) != self.acting_head
                && !self.known_failed.contains(*d)
                && !self.departed.contains(d)
                && self
                    .known_sleepers
                    .get(d)
                    .is_none_or(|until| *until <= self.epoch)
        })
    }

    /// Adaptive mode: folds this epoch's delivered evidence into the
    /// per-link estimators and returns — sorted — the members whose
    /// accrual score crossed the condemnation threshold.
    ///
    /// Runs at most once per epoch, whichever of `fds.R-3` (acting
    /// head) or the post-round (members) reaches it first, and
    /// consumes only delivered events plus node-local state — the
    /// determinism contract every engine relies on. Heard-from
    /// evidence is exactly what the fixed rule consumes: a direct
    /// heartbeat/digest from the subject, or a reflection of its
    /// heartbeat in a peer's digest.
    fn adaptive_observe(&mut self) -> Vec<NodeId> {
        let mut condemned = Vec::new();
        if self.config.detection_mode != DetectionMode::Adaptive
            || self.my_cluster().is_none()
            || self.adaptive_observed_epoch == self.epoch
        {
            return condemned;
        }
        self.adaptive_observed_epoch = self.epoch;
        self.expected_mask();
        let epoch = self.epoch;
        for p in 0..self.roster_order.len() {
            if !self.expected_scratch.contains(p) {
                continue;
            }
            let subject = self.roster_order[p];
            let heard = self.evidence.direct_evidence(p) || self.evidence.reflected_in_digests(p);
            let (est, inserted) = self
                .adaptive
                .or_insert_with(subject, || LinkEstimator::new(epoch.saturating_sub(1)));
            if inserted {
                self.stats.ledger_ops += 1;
            }
            if heard {
                if est.record_evidence(epoch, adaptive::WINDOW) {
                    // ◇P self-correction: late evidence retracts the
                    // standing suspicion, and the gap just recorded
                    // lengthens the deadline so the same outage depth
                    // cannot re-trip this link.
                    retract_suspicion(&mut self.suspicions, subject, epoch);
                }
                continue;
            }
            let mut score = est.score_millis(epoch, adaptive::SLACK);
            if self.peer_suspects.contains(&subject) {
                score = score.saturating_add(CORROBORATION_BONUS_MILLIS);
            }
            if score >= adaptive::SUSPECT_MILLIS && !est.is_suspected() {
                est.mark_suspected();
                self.suspicions.push(SuspicionEvent {
                    epoch,
                    subject,
                    score,
                    retracted: None,
                });
            }
            if score >= adaptive::CONDEMN_MILLIS {
                condemned.push(subject);
            }
        }
        // Positions-order out, sorted ids is the protocol contract.
        condemned.sort_unstable();
        condemned
    }

    /// Broadcasts a health update as the (possibly just promoted)
    /// acting head, and arms the implicit-ack watchdogs for links that
    /// must carry the news.
    fn announce_update(
        &mut self,
        ctx: &mut Ctx<'_, FdsMsg>,
        new_failed: Vec<NodeId>,
        takeover: bool,
    ) {
        let Some(cluster) = self.my_cluster() else {
            return;
        };
        let all_failed: Vec<NodeId> = if self.config.cumulative_reports {
            self.known_failed.nodes().collect()
        } else {
            new_failed.clone()
        };
        // Honour this epoch's membership subscriptions (F5).
        let joined: Vec<NodeId> = if self.config.admit_unmarked && !takeover {
            self.join_pending.iter().copied().collect()
        } else {
            Vec::new()
        };
        let mut roster = Vec::new();
        if !joined.is_empty() {
            self.stats.joins_admitted += joined.len() as u64;
            // Admission batch: append in sorted order (join_pending is
            // a BTreeSet) and bump the roster version. Departed
            // members are compacted away in the same bump.
            self.append_joined(&joined);
            roster = self.roster_order.clone();
            self.join_pending.clear();
        } else if !takeover && self.departed_on_roster() >= COMPACT_THRESHOLD {
            // Enough positions are held by gracefully-departed
            // members to be worth a pure compaction bump: the roster
            // shrinks, and the full order rides in this update so
            // every member re-indexes.
            self.append_joined(&[]);
            roster = self.roster_order.clone();
        }
        let aggregate = if self.config.aggregation && !takeover {
            let agg = self.readings.aggregate();
            self.aggregates.push((self.epoch, agg));
            Some(agg)
        } else {
            None
        };
        let update = HealthUpdate {
            from: self.profile.id,
            cluster,
            epoch: self.epoch,
            new_failed: new_failed.clone(),
            all_failed,
            takeover,
            roster_version: self.roster_version,
            joined,
            roster,
            aggregate,
        };
        // The head's own broadcast is evidence of what this cluster
        // knows (gateways overhear it the same way).
        self.stats.ledger_ops += update.all_failed.len() as u64;
        self.known_by_cluster
            .extend(cluster, update.all_failed.iter().copied());
        self.clone_ops += 1;
        self.update_this_epoch = Some(update.clone());
        self.evidence.update_received = true;
        self.transmit(ctx, FdsMsg::HealthUpdate(update));

        if !new_failed.is_empty() {
            for i in 0..self.profile.cluster_links.len() {
                let peer = self.profile.cluster_links[i].peer_cluster;
                self.clone_ops += 1;
                self.schedule(
                    ctx,
                    self.config.t_hop * 2,
                    TimerPayload::ChRetx {
                        peer,
                        failed: new_failed.clone(),
                        attempt: 0,
                    },
                );
            }
        }
    }

    /// Adopts failure knowledge (never about self) and returns what
    /// was new.
    fn adopt_failures(&mut self, failed: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        let me = self.profile.id;
        let epoch = self.epoch;
        let news = self
            .known_failed
            .extend(failed.into_iter().filter(|f| *f != me), epoch);
        self.stats.ledger_ops += news.len() as u64;
        news
    }

    /// Gateway logic: schedule forwarding of everything `target`'s
    /// head has evidently not yet announced.
    fn gw_consider_forward(
        &mut self,
        ctx: &mut Ctx<'_, FdsMsg>,
        rank: u8,
        backups: u8,
        target: ClusterId,
    ) {
        // `pre` lives in a reusable scratch vec: this path runs on
        // every overheard update/report, and its common outcome (all
        // caught up, or already forwarded) must not allocate.
        let mut pre = std::mem::take(&mut self.gw_scratch);
        pre.clear();
        pre.extend(
            self.known_failed
                .nodes()
                .filter(|f| !self.known_by_cluster.contains(target, *f))
                .filter(|f| *f != target.head()),
        );
        // Per-epoch dedup: every overheard update/report naming the
        // same failures re-triggers this path, and without the ledger
        // each trigger re-sent (or re-scheduled) the full pending set
        // — the epoch-1 avalanche. One report per (epoch, target,
        // subject) through here; the GwForward retry timers ignore
        // the ledger, so reliability is unchanged.
        let pending: Vec<NodeId> = pre
            .iter()
            .copied()
            .filter(|f| !self.forwarded_this_epoch.contains(target, *f))
            .collect();
        if pending.is_empty() {
            if !pre.is_empty() && rank == 0 {
                // The ledger alone stopped a broadcast the primary
                // gateway would otherwise perform right now; price it
                // exactly as `send_report` would have — arithmetically,
                // without building the throwaway report.
                self.stats.reports_suppressed += 1;
                let known_by = self
                    .known_by_cluster
                    .live_entries()
                    .filter(|(_, known)| pre.iter().all(|f| known.binary_search(f).is_ok()))
                    .count();
                self.stats.bytes_suppressed += report_wire_len(pre.len(), known_by) as u64;
            }
            self.gw_scratch = pre;
            return;
        }
        self.gw_scratch = pre;
        if rank == 0 {
            // The primary forwards immediately, then re-checks after
            // (n+1)·2Thop.
            self.stats.ledger_ops += pending.len() as u64;
            self.forwarded_this_epoch
                .extend(target, pending.iter().copied());
            self.send_report(ctx, target, &pending);
            self.schedule(
                ctx,
                self.config.t_hop * 2 * (u64::from(backups) + 1),
                TimerPayload::GwForward {
                    target,
                    failed: pending,
                    attempt: 1,
                },
            );
        } else if self.config.bgw_assist {
            // Backup of rank k stands by for k·2Thop.
            self.stats.ledger_ops += pending.len() as u64;
            self.forwarded_this_epoch
                .extend(target, pending.iter().copied());
            self.schedule(
                ctx,
                self.config.t_hop * 2 * u64::from(rank),
                TimerPayload::GwForward {
                    target,
                    failed: pending,
                    attempt: 0,
                },
            );
        }
    }

    /// Broadcasts a failure report toward `target`. Takes the pending
    /// set as a borrowed slice — callers keep ownership (retry timers
    /// reuse theirs), and the only copy made is the one the wire
    /// message itself must own.
    fn send_report(&mut self, ctx: &mut Ctx<'_, FdsMsg>, target: ClusterId, failed: &[NodeId]) {
        self.stats.reports_sent += 1;
        // Piggyback which clusters evidently already announced all of
        // `failed`, so receivers extend their implicit-ack ledgers.
        let known_by: Vec<ClusterId> = self
            .known_by_cluster
            .live_entries()
            .filter(|(_, known)| failed.iter().all(|f| known.binary_search(f).is_ok()))
            .map(|(c, _)| c)
            .collect();
        self.transmit(
            ctx,
            FdsMsg::Report(FailureReport {
                via: self.profile.id,
                to_cluster: target,
                failed: failed.to_vec(),
                known_by,
            }),
        );
    }

    /// Runs gateway forwarding for every duty, in both directions:
    /// toward the duty's peer cluster and (for news learned *from*
    /// that peer) toward this node's own cluster.
    fn gw_run_duties(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        let own = self.my_cluster();
        // Index loop copying the three scalar duty fields: this runs on
        // every overheard update/report, and cloning the duty Vec here
        // was a per-delivery allocation.
        for i in 0..self.profile.duties.len() {
            let (rank, backups, peer) = {
                let d = &self.profile.duties[i];
                (d.rank, d.backups, d.peer_cluster)
            };
            self.gw_consider_forward(ctx, rank, backups, peer);
            if let Some(own) = own {
                self.gw_consider_forward(ctx, rank, backups, own);
            }
        }
    }

    fn handle_update(&mut self, ctx: &mut Ctx<'_, FdsMsg>, u: &HealthUpdate, via_peer: bool) {
        self.stats.updates_received += 1;
        // Any overheard update is evidence of what its cluster knows.
        self.stats.ledger_ops += (u.all_failed.len() + u.new_failed.len()) as u64;
        self.known_by_cluster.extend(
            u.cluster,
            u.all_failed
                .iter()
                .copied()
                .chain(u.new_failed.iter().copied()),
        );

        // An unaffiliated node that finds itself admitted adopts the
        // announcing cluster (its earlier heartbeat was its
        // subscription).
        if self.my_cluster().is_none() && u.joined.contains(&self.profile.id) {
            self.profile.cluster = Some(u.cluster);
            self.profile.head = Some(u.from);
            let order = if u.roster.is_empty() {
                vec![u.from, self.profile.id]
            } else {
                u.roster.clone()
            };
            self.adopt_roster_order(order, u.roster_version);
            self.acting_head = Some(u.from);
        }

        let mine = self.my_cluster() == Some(u.cluster);
        let news = self.adopt_failures(
            u.all_failed
                .iter()
                .copied()
                .chain(u.new_failed.iter().copied()),
        );

        // Roster re-announcements keep every member's view current.
        if mine && !u.roster.is_empty() && self.profile.roster.contains(&u.from) {
            self.adopt_roster_order(u.roster.clone(), u.roster_version);
        }

        if mine && self.profile.roster.contains(&u.from) {
            if self.acting_head.is_none() {
                // A rejoined node re-learns the cluster authority from
                // the first roster member it hears announcing (the
                // head, or whichever deputy took over while it was
                // down).
                self.acting_head = Some(u.from);
            }
            if u.epoch == self.epoch && Some(u.from) == self.acting_head && !via_peer {
                self.evidence.update_received = true;
            }
            if u.takeover && u.from != self.profile.id {
                self.acting_head = Some(u.from);
                if u.epoch == self.epoch {
                    self.evidence.update_received = true;
                }
                // Proactive relay (Figure 2(a)): the promoted deputy
                // may be unable to reach some members directly. Its
                // digest — overheard in fds.R-2 — reveals whom it
                // heard; any member *we* heard but the deputy did not
                // may be out of its range, so we relay the takeover
                // update to them unprompted (quitting on their ack via
                // the usual slot machinery).
                if self.config.peer_forwarding && u.epoch == self.epoch && !via_peer {
                    let dch_heard = self
                        .pos_of(u.from)
                        .and_then(|p| self.evidence.digest_heard(p));
                    if let Some(dch_heard) = dch_heard {
                        // Iterate the *sorted* roster: all slot delays
                        // of one relayer are equal, so insertion order
                        // decides trace order and must match the
                        // historical sorted iteration.
                        let unreachable: Vec<NodeId> = self
                            .profile
                            .roster
                            .iter()
                            .copied()
                            .filter(|v| {
                                *v != self.profile.id
                                    && *v != u.from
                                    && !self.known_failed.contains(*v)
                                    && self.pos_of(*v).is_some_and(|p| {
                                        !dch_heard.contains(p)
                                            && self.evidence.heartbeats().contains(p)
                                    })
                            })
                            .collect();
                        for v in unreachable {
                            let fraction = if self.energy_capacity > 0.0 {
                                (ctx.remaining_energy() / self.energy_capacity).clamp(0.0, 1.0)
                            } else {
                                1.0
                            };
                            let delay = waiting_period(
                                self.profile.id,
                                fraction,
                                self.config.t_hop,
                                ENERGY_LEVELS,
                                PEER_FORWARD_SLOTS,
                            );
                            self.schedule(
                                ctx,
                                delay,
                                TimerPayload::PeerSlot {
                                    requester: v,
                                    epoch: u.epoch,
                                },
                            );
                        }
                    }
                }
            }
            if self.update_this_epoch.is_none() && u.epoch == self.epoch {
                self.clone_ops += 1;
                self.update_this_epoch = Some(u.clone());
                if self.request_outstanding {
                    self.request_outstanding = false;
                    self.transmit(
                        ctx,
                        FdsMsg::PeerAck {
                            from: self.profile.id,
                            epoch: u.epoch,
                        },
                    );
                }
            }
        }

        if !news.is_empty() || u.has_news() {
            self.gw_run_duties(ctx);
        }
    }

    fn handle_report(&mut self, ctx: &mut Ctx<'_, FdsMsg>, r: &FailureReport) {
        // Layer-one implicit ack for the acting head: some forwarder
        // carried these failures toward that cluster.
        self.stats.ledger_ops += r.failed.len() as u64;
        self.forward_seen
            .extend(r.to_cluster, r.failed.iter().copied());
        // Piggybacked ledger: the forwarder vouches that these
        // clusters' heads already announced every listed failure.
        for c in &r.known_by {
            self.stats.ledger_ops += r.failed.len() as u64;
            self.known_by_cluster.extend(*c, r.failed.iter().copied());
        }

        if self.my_cluster() == Some(r.to_cluster) && self.is_acting_head() {
            let news = self.adopt_failures(r.failed.iter().copied());
            // Re-broadcast as the implicit acknowledgment (and the
            // intra-cluster dissemination of the news, if any).
            self.announce_update(ctx, news, false);
        }
    }

    fn handle_post(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        // Members fold this epoch's evidence into their adaptive
        // estimators (the acting head already did so at fds.R-3; the
        // fold is once-per-epoch either way). Only authorities
        // condemn, so the returned set is dropped — the member-side
        // value of the fold is the suspicion state the next digest
        // gossips.
        let _ = self.adaptive_observe();
        if self.is_acting_head() {
            return;
        }
        let Some(head) = self.acting_head else {
            return;
        };
        // Deputy judgement of the clusterhead. The head always has a
        // roster position; a headless evidence check degenerates to
        // "no R-3 update heard". A gracefully-departed head is
        // succeeded without evidence: its LeaveNotice already said it
        // will not be back this epoch.
        let head_departed = self.departed.contains(&head);
        let head_gone = head_departed
            || match self.pos_of(head) {
                Some(p) => match self.config.detection_mode {
                    DetectionMode::Fixed => ch_failed(p, &self.evidence),
                    // Adaptive CH rule: same accrual machinery as the
                    // member rule, gated on the missing R-3 update
                    // (the paper's CH-failure signal), so a deputy
                    // tolerates a bursty head exactly as long as the
                    // head's link deadline says it should.
                    DetectionMode::Adaptive => {
                        !self.evidence.update_received && {
                            let bonus = if self.peer_suspects.contains(&head) {
                                CORROBORATION_BONUS_MILLIS
                            } else {
                                0
                            };
                            self.adaptive.get(&head).is_none_or(|est| {
                                est.score_millis(self.epoch, adaptive::SLACK)
                                    .saturating_add(bonus)
                                    >= adaptive::CONDEMN_MILLIS
                            })
                        }
                    }
                },
                None => !self.evidence.update_received,
            };
        if self.judging_deputy() == Some(self.profile.id) && head_gone {
            if head_departed {
                // Succession, not detection: the head withdrew
                // voluntarily, so the takeover update names no
                // suspects and the head is never condemned.
                self.detections.push(DetectionEvent {
                    epoch: self.epoch,
                    suspects: Vec::new(),
                    takeover: true,
                });
                self.acting_head = Some(self.profile.id);
                self.announce_update(ctx, Vec::new(), true);
            } else {
                self.adopt_failures([head]);
                self.detections.push(DetectionEvent {
                    epoch: self.epoch,
                    suspects: vec![head],
                    takeover: true,
                });
                self.acting_head = Some(self.profile.id);
                self.announce_update(ctx, vec![head], true);
            }
            return;
        }
        // Members that missed the update ask their peers.
        if self.update_this_epoch.is_none() {
            if self.config.peer_forwarding && self.profile.roster.len() > 1 {
                self.request_outstanding = true;
                self.stats.requests_sent += 1;
                self.transmit(
                    ctx,
                    FdsMsg::ForwardRequest {
                        from: self.profile.id,
                        epoch: self.epoch,
                    },
                );
                let window = self.config.t_hop * u64::from(PEER_FORWARD_SLOTS + 2);
                self.schedule(
                    ctx,
                    window,
                    TimerPayload::RecoveryDeadline { epoch: self.epoch },
                );
            } else {
                self.stats.updates_missed += 1;
            }
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, FdsMsg>, payload: TimerPayload) {
        match payload {
            TimerPayload::EpochStart => {
                self.epoch += 1;
                self.begin_epoch(ctx);
            }
            TimerPayload::R2 => {
                if self.config.digest_round {
                    // R2 only runs clustered (scheduled in
                    // begin_epoch), and recorded heartbeats are
                    // roster-positions already: the digest is a plain
                    // copy of the heartbeat bitmap.
                    let Some(cluster) = self.my_cluster() else {
                        return;
                    };
                    let mut digest =
                        Digest::new(self.profile.id, cluster, self.evidence.heartbeats().clone());
                    if self.config.aggregation {
                        digest = digest.with_readings(self.readings.pairs(&self.roster_order));
                    }
                    if self.config.detection_mode == DetectionMode::Adaptive {
                        // Gossip the links this node currently
                        // suspects (state as of last epoch's fold) so
                        // authorities can corroborate their own
                        // accrual scores. Attached only when
                        // non-empty: quiet-channel adaptive digests
                        // cost zero extra bytes.
                        let mut suspected =
                            RosterBitmap::new(self.roster_version, self.roster_order.len());
                        let mut any = false;
                        for (subject, est) in self.adaptive.iter() {
                            if est.is_suspected() {
                                if let Some(p) = self.pos_index.get(subject) {
                                    suspected.set(*p as usize);
                                    any = true;
                                }
                            }
                        }
                        if any {
                            digest = digest.with_suspected(suspected);
                        }
                    }
                    self.transmit(ctx, FdsMsg::Digest(digest));
                }
            }
            TimerPayload::R3 => {
                if self.is_acting_head() {
                    let new_failed: Vec<NodeId> = match self.config.detection_mode {
                        DetectionMode::Fixed => {
                            self.expected_mask();
                            let mut suspects = std::mem::take(&mut self.suspects_scratch);
                            detect_failures_into(
                                &self.expected_scratch,
                                &self.evidence,
                                &self.roster_order,
                                &mut suspects,
                            );
                            // Suspects come out in roster-position
                            // order; the protocol's historical
                            // contract is sorted ids.
                            suspects.sort_unstable();
                            let new_failed = if suspects.is_empty() {
                                Vec::new() // alloc-free common case
                            } else {
                                suspects.clone()
                            };
                            self.suspects_scratch = suspects;
                            new_failed
                        }
                        DetectionMode::Adaptive => self.adaptive_observe(),
                    };
                    if !new_failed.is_empty() {
                        self.detections.push(DetectionEvent {
                            epoch: self.epoch,
                            suspects: new_failed.clone(),
                            takeover: false,
                        });
                    }
                    self.adopt_failures(new_failed.iter().copied());
                    self.announce_update(ctx, new_failed, false);
                }
            }
            TimerPayload::Post => self.handle_post(ctx),
            TimerPayload::RecoveryDeadline { epoch } => {
                if epoch == self.epoch && self.update_this_epoch.is_none() {
                    self.stats.updates_missed += 1;
                    self.request_outstanding = false;
                }
            }
            TimerPayload::PeerSlot { requester, epoch } => {
                if self.quit.contains(&(requester, epoch)) {
                    return;
                }
                self.clone_ops += 1;
                if let Some(update) = self.update_this_epoch.clone() {
                    if update.epoch == epoch {
                        self.stats.peer_forwards_sent += 1;
                        self.transmit(
                            ctx,
                            FdsMsg::PeerForward {
                                to: requester,
                                update,
                            },
                        );
                    }
                }
            }
            TimerPayload::GwForward {
                target,
                failed,
                attempt,
            } => {
                let still_pending: Vec<NodeId> = failed
                    .iter()
                    .copied()
                    .filter(|f| !self.known_by_cluster.contains(target, *f))
                    .collect();
                if still_pending.is_empty() || attempt > MAX_RETRANSMITS {
                    return;
                }
                self.send_report(ctx, target, &still_pending);
                // Stand by again for one full cycle of the link.
                let backups = self
                    .profile
                    .duties
                    .iter()
                    .map(|d| d.backups)
                    .max()
                    .unwrap_or(0);
                self.schedule(
                    ctx,
                    self.config.t_hop * 2 * (u64::from(backups) + 1),
                    TimerPayload::GwForward {
                        target,
                        failed: still_pending,
                        attempt: attempt + 1,
                    },
                );
            }
            TimerPayload::ChRetx {
                peer,
                failed,
                attempt,
            } => {
                if !self.is_acting_head() {
                    return;
                }
                let missing: Vec<NodeId> = failed
                    .iter()
                    .copied()
                    .filter(|f| {
                        !self.forward_seen.contains(peer, *f)
                            && !self.known_by_cluster.contains(peer, *f)
                    })
                    .collect();
                if missing.is_empty() || attempt >= MAX_RETRANSMITS {
                    return;
                }
                // Retransmit the update so the link's forwarders get a
                // second chance to hear it.
                self.stats.retransmissions += 1;
                let Some(cluster) = self.my_cluster() else {
                    return;
                };
                // Two unavoidable copies: the retransmitted update owns
                // its id lists (`all_failed` snapshot + `missing`).
                self.clone_ops += 2;
                let all_failed: Vec<NodeId> = self.known_failed.nodes().collect();
                self.transmit(
                    ctx,
                    FdsMsg::HealthUpdate(HealthUpdate {
                        from: self.profile.id,
                        cluster,
                        epoch: self.epoch,
                        new_failed: missing.clone(),
                        all_failed,
                        takeover: false,
                        roster_version: self.roster_version,
                        joined: Vec::new(),
                        roster: Vec::new(),
                        aggregate: None,
                    }),
                );
                self.schedule(
                    ctx,
                    self.config.t_hop * 2,
                    TimerPayload::ChRetx {
                        peer,
                        failed: missing,
                        attempt: attempt + 1,
                    },
                );
            }
        }
    }
}

impl Actor for FdsNode {
    type Msg = FdsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        self.begin_epoch(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FdsMsg>, _from: NodeId, msg: &FdsMsg) {
        if self.asleep {
            return; // radio off
        }
        match msg {
            FdsMsg::Heartbeat {
                from,
                marked,
                reading,
            } => {
                let from = *from;
                // Only roster members have a position; non-member
                // heartbeats never feed the detection rule anyway
                // (every consumer of the evidence is roster-restricted)
                // but do still feed admission and readings below.
                if let Some(pos) = self.pos_of(from) {
                    self.evidence.record_heartbeat(pos);
                }
                if let Some(r) = *reading {
                    self.readings.set(self.pos_of(from), from, r);
                }
                if !marked
                    && self.config.admit_unmarked
                    && self.is_acting_head()
                    && !self.profile.roster.contains(&from)
                {
                    self.stats.ledger_ops += 1;
                    self.join_pending.insert(from);
                }
            }
            FdsMsg::Digest(d) => {
                if self.config.aggregation {
                    for (node, reading) in &d.readings {
                        self.readings
                            .set_if_absent(self.pos_of(*node), *node, *reading);
                    }
                }
                if let Some(author_pos) = self.pos_of(d.from) {
                    // The author-liveness bit counts whenever the
                    // author is on our roster; the heard-bits are
                    // positions in the *author's* cluster roster, so
                    // they are only interpretable when that is our
                    // cluster too (cross-cluster aliasing guard, see
                    // DESIGN.md §12).
                    let heard = (self.my_cluster() == Some(d.cluster)).then_some(&d.heard);
                    self.evidence.record_digest(author_pos, heard);
                }
                if self.config.detection_mode == DetectionMode::Adaptive
                    && self.my_cluster() == Some(d.cluster)
                    && d.from != self.profile.id
                {
                    // Peer corroboration: same prefix-stable position
                    // tolerance as the heard-bits (a position beyond
                    // our roster is simply not interpretable yet).
                    if let Some(s) = &d.suspected {
                        for p in s.iter() {
                            if let Some(subject) = self.roster_order.get(p).copied() {
                                if subject != self.profile.id {
                                    self.stats.ledger_ops += 1;
                                    self.peer_suspects.insert(subject);
                                }
                            }
                        }
                    }
                }
            }
            FdsMsg::HealthUpdate(u) => self.handle_update(ctx, u, false),
            FdsMsg::ForwardRequest { from, epoch } => {
                let (from, epoch) = (*from, *epoch);
                // Peers answer, not the acting head: the paper prefers
                // peer forwarding over CH/DCH retransmission for
                // energy balance (Section 4.2).
                if self.config.peer_forwarding
                    && epoch == self.epoch
                    && from != self.profile.id
                    && !self.is_acting_head()
                    && self.profile.roster.contains(&from)
                    && self.update_this_epoch.is_some()
                {
                    let fraction = if !self.config.energy_balanced_forwarding {
                        // Ablation: energy-blind back-off (NID only).
                        1.0
                    } else if self.energy_capacity > 0.0 {
                        (ctx.remaining_energy() / self.energy_capacity).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let delay = waiting_period(
                        self.profile.id,
                        fraction,
                        self.config.t_hop,
                        ENERGY_LEVELS,
                        PEER_FORWARD_SLOTS,
                    );
                    self.schedule(
                        ctx,
                        delay,
                        TimerPayload::PeerSlot {
                            requester: from,
                            epoch,
                        },
                    );
                }
            }
            FdsMsg::PeerForward { to, update } => {
                // Promiscuous receiving: by default the update is
                // adopted even when addressed to someone else (free
                // redundancy); strict mode limits recovery to the
                // addressee, matching the Figure 7 model exactly.
                let addressed_to_me = *to == self.profile.id;
                if self.my_cluster() == Some(update.cluster)
                    && (addressed_to_me || self.config.promiscuous_recovery)
                {
                    let epoch = update.epoch;
                    let had_update = self.update_this_epoch.is_some();
                    let had_request = self.request_outstanding;
                    self.handle_update(ctx, update, true);
                    // Acknowledge proactive relays too (the Figure 2
                    // case: we never requested, a peer relayed on the
                    // deputy's behalf) so other standby relayers quit.
                    // handle_update already acked if a request was
                    // outstanding.
                    if addressed_to_me
                        && !had_update
                        && !had_request
                        && self.update_this_epoch.is_some()
                        && epoch == self.epoch
                    {
                        self.transmit(
                            ctx,
                            FdsMsg::PeerAck {
                                from: self.profile.id,
                                epoch,
                            },
                        );
                    }
                }
            }
            FdsMsg::PeerAck { from, epoch } => {
                self.stats.ledger_ops += 1;
                self.quit.insert((*from, *epoch));
            }
            // By reference: the delivered message is shared, and the
            // handler only reads the report's id lists.
            FdsMsg::Report(r) => self.handle_report(ctx, r),
            FdsMsg::SleepNotice { from, until_epoch } => {
                let (from, until_epoch) = (*from, *until_epoch);
                self.stats.ledger_ops += 1;
                self.known_sleepers.insert(from, until_epoch);
                // Relay each notice once: the inherent message
                // redundancy gives the head a second chance to hear
                // it, reducing sleep-caused false detections.
                if self.config.sleep_announcements {
                    self.stats.ledger_ops += 1;
                    if self.relayed_notices.insert((from, until_epoch)) && from != self.profile.id {
                        self.transmit(ctx, FdsMsg::SleepNotice { from, until_epoch });
                    }
                }
            }
            FdsMsg::LeaveNotice { from, incarnation } => {
                let (from, incarnation) = (*from, *incarnation);
                if from == self.profile.id {
                    return;
                }
                let known = self.incarnations.get(&from).copied().unwrap_or(0);
                // Accept only fresh news: an equal incarnation we
                // already marked departed is a duplicate copy, a lower
                // one is a stale replay from before a rejoin.
                let fresh =
                    incarnation > known || (incarnation == known && !self.departed.contains(&from));
                if fresh {
                    self.stats.ledger_ops += 2;
                    self.incarnations.insert(from, incarnation);
                    self.departed.insert(from);
                    self.known_sleepers.remove(&from);
                    self.join_pending.remove(&from);
                    // A departed link stops being monitored: the
                    // estimator goes, and any open suspicion resolves
                    // as a retraction (the peer left, it did not
                    // fail).
                    self.adaptive.remove(&from);
                    self.peer_suspects.remove(&from);
                    retract_suspicion(&mut self.suspicions, from, self.epoch);
                    // Relay exactly once — precisely when the notice
                    // changed our state — so the head gets a second
                    // chance to hear it without a relay ledger.
                    self.transmit(ctx, FdsMsg::LeaveNotice { from, incarnation });
                }
            }
            FdsMsg::Rejoin { from, incarnation } => {
                let (from, incarnation) = (*from, *incarnation);
                if from == self.profile.id {
                    return;
                }
                let known = self.incarnations.get(&from).copied().unwrap_or(0);
                // A rejoin is only credible with a strictly higher
                // incarnation: replays of pre-crash traffic can never
                // resurrect a peer.
                if incarnation > known {
                    self.stats.ledger_ops += 2;
                    self.incarnations.insert(from, incarnation);
                    self.departed.remove(&from);
                    self.known_sleepers.remove(&from);
                    // A fresh incarnation is a fresh link: drop the
                    // old estimator (its gap history belongs to the
                    // previous life) and retract any open suspicion.
                    self.adaptive.remove(&from);
                    self.peer_suspects.remove(&from);
                    retract_suspicion(&mut self.suspicions, from, self.epoch);
                    // Any failed/forwarded verdicts recorded against
                    // the lower incarnation are stale.
                    self.known_failed.remove(from);
                    self.known_by_cluster.remove_everywhere(from);
                    self.forward_seen.remove_everywhere(from);
                    // A rejoiner whose position was compacted away
                    // re-enters through the ordinary admission path.
                    if self.config.admit_unmarked
                        && self.is_acting_head()
                        && !self.profile.roster.contains(&from)
                    {
                        self.join_pending.insert(from);
                    }
                    self.transmit(ctx, FdsMsg::Rejoin { from, incarnation });
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FdsMsg>, token: TimerToken) {
        if let Some(payload) = self.timers.remove(token.0) {
            self.stats.ledger_ops += 1;
            self.handle_timer(ctx, payload);
        }
    }

    fn on_leave(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        // Announce the withdrawal while the radio is still on: peers
        // that hear it drop this node from their expected sets instead
        // of running the failure rule against it.
        self.transmit(
            ctx,
            FdsMsg::LeaveNotice {
                from: self.profile.id,
                incarnation: self.incarnation,
            },
        );
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, FdsMsg>) {
        // Fresh incarnation: everything peers held against the old one
        // (a failure verdict, a leave notice) is stale from here on.
        self.incarnation += 1;
        // The simulator invalidated this node's pending timers; their
        // payloads must not linger, and per-epoch transients from the
        // previous life are meaningless.
        self.timers.clear();
        self.update_this_epoch = None;
        self.request_outstanding = false;
        self.join_pending.clear();
        self.asleep = false;
        self.evidence
            .reset(self.roster_version, self.roster_order.len());
        // The restarted observer's estimators measured a channel that
        // no longer exists (it was down, not its peers): start fresh
        // and resolve open suspicions as retractions.
        self.adaptive.clear();
        self.peer_suspects.clear();
        self.forwarded_this_epoch.clear_all();
        self.adaptive_observed_epoch = u64::MAX;
        let at = self.epoch;
        for ev in &mut self.suspicions {
            if ev.retracted.is_none() {
                ev.retracted = Some(at);
            }
        }
        // Authority is re-learned from the first announcement heard: a
        // deputy may have taken over while this node was down, and a
        // once-head that rejoins must not assume it still presides.
        self.acting_head = None;
        self.transmit(
            ctx,
            FdsMsg::Rejoin {
                from: self.profile.id,
                incarnation: self.incarnation,
            },
        );
        // Re-sync the epoch clock to the network-wide boundary grid
        // and idle until the next boundary; begin_epoch then runs the
        // normal rounds.
        let phi = self.config.heartbeat_interval.as_micros().max(1);
        let now = ctx.now().as_micros();
        let next_boundary = now / phi + 1;
        self.epoch = next_boundary - 1;
        self.schedule(
            ctx,
            cbfd_net::time::SimDuration::from_micros(next_boundary * phi - now),
            TimerPayload::EpochStart,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbfd_net::id::ClusterId;

    fn profile_for(id: u32, head: u32, roster: &[u32], deputies: &[u32]) -> NodeProfile {
        NodeProfile {
            id: NodeId(id),
            cluster: Some(ClusterId::of(NodeId(head))),
            head: Some(NodeId(head)),
            roster: roster.iter().map(|r| NodeId(*r)).collect(),
            deputies: deputies.iter().map(|d| NodeId(*d)).collect(),
            duties: Vec::new(),
            cluster_links: Vec::new(),
        }
    }

    #[test]
    fn expected_members_excludes_self_and_failed() {
        let mut node = FdsNode::new(
            profile_for(0, 0, &[0, 1, 2, 3], &[]),
            FdsConfig::default(),
            1_000.0,
        );
        node.known_failed.insert(NodeId(2), 0);
        assert_eq!(node.expected_members(), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn judging_deputy_skips_failed_and_promoted() {
        let mut node = FdsNode::new(
            profile_for(3, 0, &[0, 1, 2, 3], &[1, 2, 3]),
            FdsConfig::default(),
            1_000.0,
        );
        assert_eq!(node.judging_deputy(), Some(NodeId(1)));
        node.known_failed.insert(NodeId(1), 0);
        assert_eq!(node.judging_deputy(), Some(NodeId(2)));
        // After 2 takes over, the judge becomes 3.
        node.acting_head = Some(NodeId(2));
        assert_eq!(node.judging_deputy(), Some(NodeId(3)));
    }

    #[test]
    fn adopt_failures_never_marks_self() {
        let mut node = FdsNode::new(
            profile_for(5, 0, &[0, 5], &[]),
            FdsConfig::default(),
            1_000.0,
        );
        let news = node.adopt_failures([NodeId(5), NodeId(7)]);
        assert_eq!(news, vec![NodeId(7)]);
        assert!(!node.known_failed().contains(NodeId(5)));
    }

    #[test]
    fn sleep_plan_validation() {
        let mut node = FdsNode::new(
            profile_for(0, 0, &[0, 1], &[]),
            FdsConfig::default(),
            1_000.0,
        );
        node.set_sleep_plan(vec![(1, 3), (5, 8)]);
        assert!(!node.is_asleep());
        assert_eq!(node.sleep_window(2), Some((1, 3)));
        assert_eq!(node.sleep_window(3), None);
        assert_eq!(node.sleep_window(6), Some((5, 8)));
    }

    #[test]
    #[should_panic(expected = "empty sleep window")]
    fn empty_sleep_window_rejected() {
        let mut node = FdsNode::new(
            profile_for(0, 0, &[0, 1], &[]),
            FdsConfig::default(),
            1_000.0,
        );
        node.set_sleep_plan(vec![(3, 3)]);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn overlapping_sleep_windows_rejected() {
        let mut node = FdsNode::new(
            profile_for(0, 0, &[0, 1], &[]),
            FdsConfig::default(),
            1_000.0,
        );
        node.set_sleep_plan(vec![(1, 5), (4, 8)]);
    }

    #[test]
    fn initial_state_mirrors_profile() {
        let node = FdsNode::new(
            profile_for(1, 0, &[0, 1], &[1]),
            FdsConfig::default(),
            1_000.0,
        );
        assert_eq!(node.acting_head(), Some(NodeId(0)));
        assert_eq!(node.epoch(), 0);
        assert!(node.known_failed().is_empty());
        assert!(node.detections().is_empty());
        assert_eq!(*node.stats(), NodeStats::default());
    }
}

cbfd_net::impl_persist!(DetectionEvent {
    epoch,
    suspects,
    takeover,
});
// Hand-written: `ledger_ops` is profiling state, not protocol state —
// it stays out of the checkpoint and restores to zero.
impl cbfd_net::checkpoint::Persist for NodeStats {
    fn persist(&self, w: &mut cbfd_net::checkpoint::Writer) {
        self.updates_received.persist(w);
        self.requests_sent.persist(w);
        self.peer_forwards_sent.persist(w);
        self.reports_sent.persist(w);
        self.retransmissions.persist(w);
        self.updates_missed.persist(w);
        self.joins_admitted.persist(w);
        self.bytes_sent.persist(w);
        self.reports_suppressed.persist(w);
        self.bytes_suppressed.persist(w);
    }
    fn restore(
        r: &mut cbfd_net::checkpoint::Reader<'_>,
    ) -> Result<Self, cbfd_net::checkpoint::CheckpointError> {
        Ok(NodeStats {
            updates_received: u64::restore(r)?,
            requests_sent: u64::restore(r)?,
            peer_forwards_sent: u64::restore(r)?,
            reports_sent: u64::restore(r)?,
            retransmissions: u64::restore(r)?,
            updates_missed: u64::restore(r)?,
            joins_admitted: u64::restore(r)?,
            bytes_sent: u64::restore(r)?,
            reports_suppressed: u64::restore(r)?,
            bytes_suppressed: u64::restore(r)?,
            ledger_ops: 0,
        })
    }
}

impl cbfd_net::checkpoint::Persist for TimerPayload {
    fn persist(&self, w: &mut cbfd_net::checkpoint::Writer) {
        match self {
            TimerPayload::EpochStart => w.put_u8(0),
            TimerPayload::R2 => w.put_u8(1),
            TimerPayload::R3 => w.put_u8(2),
            TimerPayload::Post => w.put_u8(3),
            TimerPayload::RecoveryDeadline { epoch } => {
                w.put_u8(4);
                epoch.persist(w);
            }
            TimerPayload::PeerSlot { requester, epoch } => {
                w.put_u8(5);
                requester.persist(w);
                epoch.persist(w);
            }
            TimerPayload::GwForward {
                target,
                failed,
                attempt,
            } => {
                w.put_u8(6);
                target.persist(w);
                failed.persist(w);
                attempt.persist(w);
            }
            TimerPayload::ChRetx {
                peer,
                failed,
                attempt,
            } => {
                w.put_u8(7);
                peer.persist(w);
                failed.persist(w);
                attempt.persist(w);
            }
        }
    }

    fn restore(
        r: &mut cbfd_net::checkpoint::Reader<'_>,
    ) -> Result<Self, cbfd_net::checkpoint::CheckpointError> {
        Ok(match r.get_u8()? {
            0 => TimerPayload::EpochStart,
            1 => TimerPayload::R2,
            2 => TimerPayload::R3,
            3 => TimerPayload::Post,
            4 => TimerPayload::RecoveryDeadline {
                epoch: u64::restore(r)?,
            },
            5 => TimerPayload::PeerSlot {
                requester: cbfd_net::id::NodeId::restore(r)?,
                epoch: u64::restore(r)?,
            },
            6 => TimerPayload::GwForward {
                target: cbfd_net::id::ClusterId::restore(r)?,
                failed: Vec::restore(r)?,
                attempt: u32::restore(r)?,
            },
            7 => TimerPayload::ChRetx {
                peer: cbfd_net::id::ClusterId::restore(r)?,
                failed: Vec::restore(r)?,
                attempt: u32::restore(r)?,
            },
            _ => {
                return Err(cbfd_net::checkpoint::CheckpointError::Corrupt(
                    "timer payload tag",
                ))
            }
        })
    }
}

// Hand-written (same field order the historical macro emitted): the
// profiling counters (`clone_ops`) and the gateway scratch vec are
// transient, stay out of the encoding, and restore to defaults — the
// flat ledger types themselves encode byte-identically to the
// collections they replaced.
impl cbfd_net::checkpoint::Persist for FdsNode {
    fn persist(&self, w: &mut cbfd_net::checkpoint::Writer) {
        self.profile.persist(w);
        self.config.persist(w);
        self.energy_capacity.persist(w);
        self.epoch.persist(w);
        self.acting_head.persist(w);
        self.roster_order.persist(w);
        self.roster_version.persist(w);
        self.pos_index.persist(w);
        self.evidence.persist(w);
        self.expected_scratch.persist(w);
        self.suspects_scratch.persist(w);
        self.update_this_epoch.persist(w);
        self.request_outstanding.persist(w);
        self.known_failed.persist(w);
        self.known_by_cluster.persist(w);
        self.forward_seen.persist(w);
        self.quit.persist(w);
        self.join_pending.persist(w);
        self.sleep_plan.persist(w);
        self.asleep.persist(w);
        self.known_sleepers.persist(w);
        self.incarnation.persist(w);
        self.incarnations.persist(w);
        self.departed.persist(w);
        self.relayed_notices.persist(w);
        self.readings.persist(w);
        self.aggregates.persist(w);
        self.detections.persist(w);
        self.stats.persist(w);
        self.adaptive.persist(w);
        self.peer_suspects.persist(w);
        self.suspicions.persist(w);
        self.adaptive_observed_epoch.persist(w);
        self.forwarded_this_epoch.persist(w);
        self.next_token.persist(w);
        self.timers.persist(w);
    }
    fn restore(
        r: &mut cbfd_net::checkpoint::Reader<'_>,
    ) -> Result<Self, cbfd_net::checkpoint::CheckpointError> {
        use cbfd_net::checkpoint::Persist;
        Ok(FdsNode {
            profile: Persist::restore(r)?,
            config: Persist::restore(r)?,
            energy_capacity: Persist::restore(r)?,
            epoch: Persist::restore(r)?,
            acting_head: Persist::restore(r)?,
            roster_order: Persist::restore(r)?,
            roster_version: Persist::restore(r)?,
            pos_index: Persist::restore(r)?,
            evidence: Persist::restore(r)?,
            expected_scratch: Persist::restore(r)?,
            suspects_scratch: Persist::restore(r)?,
            update_this_epoch: Persist::restore(r)?,
            request_outstanding: Persist::restore(r)?,
            known_failed: Persist::restore(r)?,
            known_by_cluster: Persist::restore(r)?,
            forward_seen: Persist::restore(r)?,
            quit: Persist::restore(r)?,
            join_pending: Persist::restore(r)?,
            sleep_plan: Persist::restore(r)?,
            asleep: Persist::restore(r)?,
            known_sleepers: Persist::restore(r)?,
            incarnation: Persist::restore(r)?,
            incarnations: Persist::restore(r)?,
            departed: Persist::restore(r)?,
            relayed_notices: Persist::restore(r)?,
            readings: Persist::restore(r)?,
            aggregates: Persist::restore(r)?,
            detections: Persist::restore(r)?,
            stats: Persist::restore(r)?,
            adaptive: Persist::restore(r)?,
            peer_suspects: Persist::restore(r)?,
            suspicions: Persist::restore(r)?,
            adaptive_observed_epoch: Persist::restore(r)?,
            forwarded_this_epoch: Persist::restore(r)?,
            next_token: Persist::restore(r)?,
            timers: Persist::restore(r)?,
            clone_ops: 0,
            gw_scratch: Vec::new(),
        })
    }
}
