//! The frozen pre-bitmap FDS implementation, kept as a differential
//! oracle.
//!
//! [`RefFdsNode`] is the protocol actor exactly as it existed before
//! the roster-indexed [`crate::bitmap::RosterBitmap`] data-layout
//! pass: digests carry `BTreeSet<NodeId>` heard-sets, round evidence
//! is a pair of id-keyed collections, per-epoch state is rebuilt from
//! scratch, and wire sizes are accounted with the historical id-list
//! digest layout — the only place that layout is still known. It is
//! **not** part of the service: its sole consumer is the differential
//! test suite (`tests/differential_protocol.rs`), which runs the same
//! seeded workload through both implementations and asserts identical
//! verdicts, traces, and metrics.
//!
//! Nothing here should be "improved": fidelity to the old semantics is
//! the whole point. Bug-for-bug equivalence with the optimized
//! [`crate::node::FdsNode`] is what the differential suite certifies.

use crate::aggregation::{aggregate_readings, synthetic_reading, Aggregate};
use crate::config::{FdsConfig, MAX_RETRANSMITS, PEER_FORWARD_SLOTS};
use crate::message::FailureReport;
use crate::node::{DetectionEvent, NodeStats};
use crate::peer_forward::waiting_period;
use crate::profile::NodeProfile;
use crate::view::FailureView;
use cbfd_net::actor::{Actor, Ctx, TimerToken};
use cbfd_net::id::{ClusterId, NodeId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Energy quantization levels for the peer-forwarding waiting period
/// (mirrors the constant in [`crate::node`]).
const ENERGY_LEVELS: u32 = 4;

/// The set-based `fds.R-2` digest of the pre-bitmap implementation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefDigest {
    /// The digest's author.
    pub from: NodeId,
    /// Members whose heartbeats the author heard this epoch.
    pub heard: BTreeSet<NodeId>,
    /// The `(node, reading)` pairs the author overheard, when data
    /// aggregation is embedded.
    pub readings: Vec<(NodeId, i32)>,
}

impl RefDigest {
    /// Creates a digest authored by `from` over the heard set.
    pub fn new(from: NodeId, heard: impl IntoIterator<Item = NodeId>) -> Self {
        RefDigest {
            from,
            heard: heard.into_iter().collect(),
            readings: Vec::new(),
        }
    }

    /// Attaches overheard sensor readings.
    pub fn with_readings(mut self, readings: Vec<(NodeId, i32)>) -> Self {
        self.readings = readings;
        self
    }

    /// Whether the digest reflects awareness of `node`'s heartbeat.
    pub fn reflects(&self, node: NodeId) -> bool {
        self.heard.contains(&node)
    }
}

/// The `fds.R-3` health update of the pre-bitmap implementation (no
/// roster-version field; rosters were plain sorted id lists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefUpdate {
    /// The broadcasting authority (CH, or DCH on takeover).
    pub from: NodeId,
    /// The cluster this update concerns.
    pub cluster: ClusterId,
    /// The FDS epoch the update belongs to.
    pub epoch: u64,
    /// Failures detected **this** epoch in this cluster.
    pub new_failed: Vec<NodeId>,
    /// Every failure known to the authority.
    pub all_failed: Vec<NodeId>,
    /// Set when a deputy announces a clusterhead failure and takes
    /// over.
    pub takeover: bool,
    /// Unmarked nodes admitted this epoch (feature F5).
    pub joined: Vec<NodeId>,
    /// The full roster after admissions; empty unless `joined` is
    /// non-empty.
    pub roster: Vec<NodeId>,
    /// The cluster aggregate, when data aggregation is embedded.
    pub aggregate: Option<Aggregate>,
}

impl RefUpdate {
    /// Whether the update indicates newly detected failures.
    pub fn has_news(&self) -> bool {
        !self.new_failed.is_empty()
    }
}

/// The message set of the pre-bitmap implementation. Structurally
/// identical to [`crate::message::FdsMsg`] except that digests carry
/// id sets and updates carry no roster version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefMsg {
    /// `fds.R-1` heartbeat.
    Heartbeat {
        /// The heartbeating node.
        from: NodeId,
        /// The one-bit mark indicator.
        marked: bool,
        /// The sender's sensor reading, when aggregation is embedded.
        reading: Option<i32>,
    },
    /// `fds.R-2` digest of heard heartbeats.
    Digest(RefDigest),
    /// `fds.R-3` cluster health-status update.
    HealthUpdate(RefUpdate),
    /// A member that missed the update requests peer forwarding.
    ForwardRequest {
        /// The requesting node.
        from: NodeId,
        /// The epoch whose update is missing.
        epoch: u64,
    },
    /// A peer forwards the health update to a requester.
    PeerForward {
        /// The intended recipient.
        to: NodeId,
        /// The forwarded update.
        update: RefUpdate,
    },
    /// The requester acknowledges a successful peer forward.
    PeerAck {
        /// The satisfied requester.
        from: NodeId,
        /// The epoch that was recovered.
        epoch: u64,
    },
    /// Inter-cluster failure report.
    Report(FailureReport),
    /// A member announces a sleep window.
    SleepNotice {
        /// The node going to sleep.
        from: NodeId,
        /// First epoch at which it will be awake again.
        until_epoch: u64,
    },
}

/// `u16` count prefix plus one `u32` per id — the historical id-list
/// encoding.
fn ids_len(n: usize) -> usize {
    2 + 4 * n
}

fn update_len(u: &RefUpdate) -> usize {
    4 + 4
        + 8
        + 1
        + ids_len(u.new_failed.len())
        + ids_len(u.all_failed.len())
        + ids_len(u.joined.len())
        + ids_len(u.roster.len())
        + 1
        + if u.aggregate.is_some() { 20 } else { 0 }
}

impl RefMsg {
    /// Wire size in bytes under the historical id-list codec.
    pub fn encoded_len(&self) -> usize {
        match self {
            RefMsg::Heartbeat { reading, .. } => 1 + 4 + 1 + 1 + reading.map_or(0, |_| 4),
            RefMsg::Digest(d) => 1 + 4 + ids_len(d.heard.len()) + 2 + 8 * d.readings.len(),
            RefMsg::HealthUpdate(u) => 1 + update_len(u),
            RefMsg::ForwardRequest { .. } | RefMsg::PeerAck { .. } | RefMsg::SleepNotice { .. } => {
                1 + 4 + 8
            }
            RefMsg::PeerForward { update, .. } => 1 + 4 + update_len(update),
            RefMsg::Report(r) => 1 + 4 + 4 + ids_len(r.failed.len()) + ids_len(r.known_by.len()),
        }
    }
}

/// The id-keyed round evidence of the pre-bitmap implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefEvidence {
    /// Heartbeats heard directly during `fds.R-1`.
    pub heartbeats: BTreeSet<NodeId>,
    /// Digests received during `fds.R-2`, by author (replace
    /// semantics).
    pub digests: BTreeMap<NodeId, RefDigest>,
    /// Whether a health update was received during `fds.R-3`.
    pub update_received: bool,
}

impl RefEvidence {
    /// Creates empty evidence.
    pub fn new() -> Self {
        RefEvidence::default()
    }

    /// Records a heartbeat from `from`.
    pub fn record_heartbeat(&mut self, from: NodeId) {
        self.heartbeats.insert(from);
    }

    /// Records a digest, replacing any earlier digest by the same
    /// author.
    pub fn record_digest(&mut self, digest: RefDigest) {
        self.digests.insert(digest.from, digest);
    }

    /// Whether any direct evidence of `node` exists.
    pub fn direct_evidence(&self, node: NodeId) -> bool {
        self.heartbeats.contains(&node) || self.digests.contains_key(&node)
    }

    /// Whether any received digest reflects `node`'s heartbeat.
    pub fn reflected_in_digests(&self, node: NodeId) -> bool {
        self.digests.values().any(|d| d.reflects(node))
    }
}

/// The member failure rule over id sets (pre-bitmap semantics):
/// every expected node with neither direct evidence nor a reflection
/// is condemned. Returns the suspects in roster order (sorted — the
/// roster is sorted).
pub fn ref_detect_failures(expected: &[NodeId], evidence: &RefEvidence) -> Vec<NodeId> {
    expected
        .iter()
        .copied()
        .filter(|v| !evidence.direct_evidence(*v) && !evidence.reflected_in_digests(*v))
        .collect()
}

/// The CH failure rule over id sets (pre-bitmap semantics).
pub fn ref_ch_failed(head: NodeId, evidence: &RefEvidence) -> bool {
    !evidence.direct_evidence(head)
        && !evidence.reflected_in_digests(head)
        && !evidence.update_received
}

#[derive(Debug, Clone)]
enum TimerPayload {
    EpochStart,
    R2,
    R3,
    Post,
    RecoveryDeadline {
        epoch: u64,
    },
    PeerSlot {
        requester: NodeId,
        epoch: u64,
    },
    GwForward {
        target: ClusterId,
        failed: Vec<NodeId>,
        attempt: u32,
    },
    ChRetx {
        peer: ClusterId,
        failed: Vec<NodeId>,
        attempt: u32,
    },
}

/// The pre-bitmap FDS actor: one host of the old implementation,
/// byte-for-byte faithful to its decision logic. See the module docs
/// for why it exists.
#[derive(Debug)]
pub struct RefFdsNode {
    profile: NodeProfile,
    config: FdsConfig,
    energy_capacity: f64,

    epoch: u64,
    acting_head: Option<NodeId>,
    evidence: RefEvidence,
    update_this_epoch: Option<RefUpdate>,
    request_outstanding: bool,
    known_failed: FailureView,
    known_by_cluster: BTreeMap<ClusterId, BTreeSet<NodeId>>,
    forward_seen: BTreeMap<ClusterId, BTreeSet<NodeId>>,
    /// Per-epoch gateway dedup ledger (mirrors
    /// [`crate::node::FdsNode`]'s: one event-triggered report per
    /// (epoch, target, subject); retry timers bypass it).
    forwarded_this_epoch: BTreeMap<ClusterId, BTreeSet<NodeId>>,
    quit: BTreeSet<(NodeId, u64)>,
    join_pending: BTreeSet<NodeId>,
    sleep_plan: Vec<(u64, u64)>,
    asleep: bool,
    known_sleepers: BTreeMap<NodeId, u64>,
    relayed_notices: BTreeSet<(NodeId, u64)>,
    readings: BTreeMap<NodeId, i32>,
    aggregates: Vec<(u64, Aggregate)>,

    detections: Vec<DetectionEvent>,
    stats: NodeStats,

    next_token: u64,
    timers: HashMap<u64, TimerPayload>,
}

impl RefFdsNode {
    /// Creates the actor from its node-local knowledge.
    pub fn new(profile: NodeProfile, config: FdsConfig, energy_capacity: f64) -> Self {
        let acting_head = profile.head;
        RefFdsNode {
            profile,
            config,
            energy_capacity,
            epoch: 0,
            acting_head,
            evidence: RefEvidence::new(),
            update_this_epoch: None,
            request_outstanding: false,
            known_failed: FailureView::new(),
            known_by_cluster: BTreeMap::new(),
            forward_seen: BTreeMap::new(),
            forwarded_this_epoch: BTreeMap::new(),
            quit: BTreeSet::new(),
            join_pending: BTreeSet::new(),
            sleep_plan: Vec::new(),
            asleep: false,
            known_sleepers: BTreeMap::new(),
            relayed_notices: BTreeSet::new(),
            readings: BTreeMap::new(),
            aggregates: Vec::new(),
            detections: Vec::new(),
            stats: NodeStats::default(),
            next_token: 0,
            timers: HashMap::new(),
        }
    }

    /// The node's failure view.
    pub fn known_failed(&self) -> &FailureView {
        &self.known_failed
    }

    /// Detection decisions this node made as an authority.
    pub fn detections(&self) -> &[DetectionEvent] {
        &self.detections
    }

    /// Behaviour counters. Both byte fields hold the id-list figure
    /// (the only layout this implementation knows).
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The head this node currently obeys.
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

    /// Cluster aggregates published while acting head.
    pub fn aggregates(&self) -> &[(u64, Aggregate)] {
        &self.aggregates
    }

    /// Installs this node's sleep schedule (same contract as
    /// [`crate::node::FdsNode::set_sleep_plan`]).
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

    /// Broadcasts `msg`, accounting its historical (id-list) wire size
    /// in the byte ledger.
    fn transmit(&mut self, ctx: &mut Ctx<'_, RefMsg>, msg: RefMsg) {
        self.stats.bytes_sent += msg.encoded_len() as u64;
        ctx.broadcast(msg);
    }

    fn schedule(
        &mut self,
        ctx: &mut Ctx<'_, RefMsg>,
        delay: cbfd_net::time::SimDuration,
        payload: TimerPayload,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        // `ledger_ops` counting mirrors `FdsNode` site-for-site: the
        // counter itself is part of the differentially-compared stats,
        // so a layout rewrite that changes how often ledgers are
        // touched fails the suite like any other divergence.
        self.stats.ledger_ops += 1;
        self.timers.insert(token, payload);
        ctx.set_timer(delay, TimerToken(token));
    }

    fn begin_epoch(&mut self, ctx: &mut Ctx<'_, RefMsg>) {
        self.evidence = RefEvidence::new();
        self.update_this_epoch = None;
        self.request_outstanding = false;
        self.join_pending.clear();
        self.forwarded_this_epoch.clear();
        self.readings.clear();

        if let Some((from, until)) = self.sleep_window(self.epoch) {
            if !self.asleep {
                self.asleep = true;
                if self.config.sleep_announcements {
                    self.transmit(
                        ctx,
                        RefMsg::SleepNotice {
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

        let reading = if self.config.aggregation {
            let r = synthetic_reading(self.profile.id, self.epoch);
            self.readings.insert(self.profile.id, r);
            Some(r)
        } else {
            None
        };
        self.transmit(
            ctx,
            RefMsg::Heartbeat {
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

    fn expected_members(&self) -> Vec<NodeId> {
        self.profile
            .roster
            .iter()
            .copied()
            .filter(|m| *m != self.profile.id && !self.known_failed.contains(*m))
            .filter(|m| {
                self.known_sleepers
                    .get(m)
                    .is_none_or(|until| *until <= self.epoch)
            })
            .collect()
    }

    fn judging_deputy(&self) -> Option<NodeId> {
        self.profile.deputies.iter().copied().find(|d| {
            Some(*d) != self.acting_head
                && !self.known_failed.contains(*d)
                && self
                    .known_sleepers
                    .get(d)
                    .is_none_or(|until| *until <= self.epoch)
        })
    }

    fn announce_update(
        &mut self,
        ctx: &mut Ctx<'_, RefMsg>,
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
        let joined: Vec<NodeId> = if self.config.admit_unmarked && !takeover {
            self.join_pending.iter().copied().collect()
        } else {
            Vec::new()
        };
        let mut roster = Vec::new();
        if !joined.is_empty() {
            self.stats.joins_admitted += joined.len() as u64;
            self.profile.roster.extend(joined.iter().copied());
            self.profile.roster.sort_unstable();
            self.profile.roster.dedup();
            roster = self.profile.roster.clone();
            self.join_pending.clear();
        }
        let aggregate = if self.config.aggregation && !takeover {
            let agg = aggregate_readings(&self.readings);
            self.aggregates.push((self.epoch, agg));
            Some(agg)
        } else {
            None
        };
        let update = RefUpdate {
            from: self.profile.id,
            cluster,
            epoch: self.epoch,
            new_failed: new_failed.clone(),
            all_failed,
            takeover,
            joined,
            roster,
            aggregate,
        };
        self.stats.ledger_ops += update.all_failed.len() as u64;
        self.known_by_cluster
            .entry(cluster)
            .or_default()
            .extend(update.all_failed.iter().copied());
        self.update_this_epoch = Some(update.clone());
        self.evidence.update_received = true;
        self.transmit(ctx, RefMsg::HealthUpdate(update));

        if !new_failed.is_empty() {
            for link in self.profile.cluster_links.clone() {
                self.schedule(
                    ctx,
                    self.config.t_hop * 2,
                    TimerPayload::ChRetx {
                        peer: link.peer_cluster,
                        failed: new_failed.clone(),
                        attempt: 0,
                    },
                );
            }
        }
    }

    fn adopt_failures(&mut self, failed: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        let me = self.profile.id;
        let epoch = self.epoch;
        let news = self
            .known_failed
            .extend(failed.into_iter().filter(|f| *f != me), epoch);
        self.stats.ledger_ops += news.len() as u64;
        news
    }

    fn gw_consider_forward(
        &mut self,
        ctx: &mut Ctx<'_, RefMsg>,
        rank: u8,
        backups: u8,
        target: ClusterId,
    ) {
        let pre: Vec<NodeId> = self
            .known_failed
            .nodes()
            .filter(|f| {
                !self
                    .known_by_cluster
                    .get(&target)
                    .is_some_and(|known| known.contains(f))
            })
            .filter(|f| *f != target.head())
            .collect();
        let pending: Vec<NodeId> = pre
            .iter()
            .copied()
            .filter(|f| {
                !self
                    .forwarded_this_epoch
                    .get(&target)
                    .is_some_and(|sent| sent.contains(f))
            })
            .collect();
        if pending.is_empty() {
            if !pre.is_empty() && rank == 0 {
                self.stats.reports_suppressed += 1;
                let known_by: Vec<ClusterId> = self
                    .known_by_cluster
                    .iter()
                    .filter(|(_, known)| pre.iter().all(|f| known.contains(f)))
                    .map(|(c, _)| *c)
                    .collect();
                self.stats.bytes_suppressed += RefMsg::Report(FailureReport {
                    via: self.profile.id,
                    to_cluster: target,
                    failed: pre,
                    known_by,
                })
                .encoded_len() as u64;
            }
            return;
        }
        if rank == 0 {
            self.stats.ledger_ops += pending.len() as u64;
            self.forwarded_this_epoch
                .entry(target)
                .or_default()
                .extend(pending.iter().copied());
            self.send_report(ctx, target, pending.clone());
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
            self.stats.ledger_ops += pending.len() as u64;
            self.forwarded_this_epoch
                .entry(target)
                .or_default()
                .extend(pending.iter().copied());
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

    fn send_report(&mut self, ctx: &mut Ctx<'_, RefMsg>, target: ClusterId, failed: Vec<NodeId>) {
        self.stats.reports_sent += 1;
        let known_by: Vec<ClusterId> = self
            .known_by_cluster
            .iter()
            .filter(|(_, known)| failed.iter().all(|f| known.contains(f)))
            .map(|(c, _)| *c)
            .collect();
        self.transmit(
            ctx,
            RefMsg::Report(FailureReport {
                via: self.profile.id,
                to_cluster: target,
                failed,
                known_by,
            }),
        );
    }

    fn gw_run_duties(&mut self, ctx: &mut Ctx<'_, RefMsg>) {
        let duties = self.profile.duties.clone();
        let own = self.my_cluster();
        for duty in duties {
            self.gw_consider_forward(ctx, duty.rank, duty.backups, duty.peer_cluster);
            if let Some(own) = own {
                self.gw_consider_forward(ctx, duty.rank, duty.backups, own);
            }
        }
    }

    fn handle_update(&mut self, ctx: &mut Ctx<'_, RefMsg>, u: RefUpdate, via_peer: bool) {
        self.stats.updates_received += 1;
        self.stats.ledger_ops += (u.all_failed.len() + u.new_failed.len()) as u64;
        self.known_by_cluster.entry(u.cluster).or_default().extend(
            u.all_failed
                .iter()
                .copied()
                .chain(u.new_failed.iter().copied()),
        );

        if self.my_cluster().is_none() && u.joined.contains(&self.profile.id) {
            self.profile.cluster = Some(u.cluster);
            self.profile.head = Some(u.from);
            self.profile.roster = if u.roster.is_empty() {
                vec![u.from, self.profile.id]
            } else {
                u.roster.clone()
            };
            self.acting_head = Some(u.from);
        }

        let mine = self.my_cluster() == Some(u.cluster);
        let news = self.adopt_failures(
            u.all_failed
                .iter()
                .copied()
                .chain(u.new_failed.iter().copied()),
        );

        if mine && !u.roster.is_empty() && self.profile.roster.contains(&u.from) {
            self.profile.roster = u.roster.clone();
        }

        if mine && self.profile.roster.contains(&u.from) {
            if u.epoch == self.epoch && Some(u.from) == self.acting_head && !via_peer {
                self.evidence.update_received = true;
            }
            if u.takeover && u.from != self.profile.id {
                self.acting_head = Some(u.from);
                if u.epoch == self.epoch {
                    self.evidence.update_received = true;
                }
                if self.config.peer_forwarding && u.epoch == self.epoch && !via_peer {
                    if let Some(dch_digest) = self.evidence.digests.get(&u.from).cloned() {
                        let unreachable: Vec<NodeId> = self
                            .profile
                            .roster
                            .iter()
                            .copied()
                            .filter(|v| {
                                *v != self.profile.id
                                    && *v != u.from
                                    && !self.known_failed.contains(*v)
                                    && !dch_digest.reflects(*v)
                                    && self.evidence.heartbeats.contains(v)
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
                self.update_this_epoch = Some(u.clone());
                if self.request_outstanding {
                    self.request_outstanding = false;
                    self.transmit(
                        ctx,
                        RefMsg::PeerAck {
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

    fn handle_report(&mut self, ctx: &mut Ctx<'_, RefMsg>, r: FailureReport) {
        self.stats.ledger_ops += r.failed.len() as u64;
        self.forward_seen
            .entry(r.to_cluster)
            .or_default()
            .extend(r.failed.iter().copied());
        for c in &r.known_by {
            self.stats.ledger_ops += r.failed.len() as u64;
            self.known_by_cluster
                .entry(*c)
                .or_default()
                .extend(r.failed.iter().copied());
        }

        if self.my_cluster() == Some(r.to_cluster) && self.is_acting_head() {
            let news = self.adopt_failures(r.failed.iter().copied());
            self.announce_update(ctx, news, false);
        }
    }

    fn handle_post(&mut self, ctx: &mut Ctx<'_, RefMsg>) {
        if self.is_acting_head() {
            return;
        }
        let Some(head) = self.acting_head else {
            return;
        };
        if self.judging_deputy() == Some(self.profile.id) && ref_ch_failed(head, &self.evidence) {
            self.adopt_failures([head]);
            self.detections.push(DetectionEvent {
                epoch: self.epoch,
                suspects: vec![head],
                takeover: true,
            });
            self.acting_head = Some(self.profile.id);
            self.announce_update(ctx, vec![head], true);
            return;
        }
        if self.update_this_epoch.is_none() {
            if self.config.peer_forwarding && self.profile.roster.len() > 1 {
                self.request_outstanding = true;
                self.stats.requests_sent += 1;
                self.transmit(
                    ctx,
                    RefMsg::ForwardRequest {
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

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, RefMsg>, payload: TimerPayload) {
        match payload {
            TimerPayload::EpochStart => {
                self.epoch += 1;
                self.begin_epoch(ctx);
            }
            TimerPayload::R2 => {
                if self.config.digest_round {
                    let roster: BTreeSet<NodeId> = self.profile.roster.iter().copied().collect();
                    let heard: Vec<NodeId> = self
                        .evidence
                        .heartbeats
                        .iter()
                        .copied()
                        .filter(|h| roster.contains(h))
                        .collect();
                    let mut digest = RefDigest::new(self.profile.id, heard);
                    if self.config.aggregation {
                        digest = digest
                            .with_readings(self.readings.iter().map(|(n, r)| (*n, *r)).collect());
                    }
                    self.transmit(ctx, RefMsg::Digest(digest));
                }
            }
            TimerPayload::R3 => {
                if self.is_acting_head() {
                    let expected = self.expected_members();
                    let new_failed = ref_detect_failures(&expected, &self.evidence);
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
                if let Some(update) = self.update_this_epoch.clone() {
                    if update.epoch == epoch {
                        self.stats.peer_forwards_sent += 1;
                        self.transmit(
                            ctx,
                            RefMsg::PeerForward {
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
                    .filter(|f| {
                        !self
                            .known_by_cluster
                            .get(&target)
                            .is_some_and(|known| known.contains(f))
                    })
                    .collect();
                if still_pending.is_empty() || attempt > MAX_RETRANSMITS {
                    return;
                }
                self.send_report(ctx, target, still_pending.clone());
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
                        let forwarded = self
                            .forward_seen
                            .get(&peer)
                            .is_some_and(|seen| seen.contains(f));
                        let acked = self
                            .known_by_cluster
                            .get(&peer)
                            .is_some_and(|known| known.contains(f));
                        !forwarded && !acked
                    })
                    .collect();
                if missing.is_empty() || attempt >= MAX_RETRANSMITS {
                    return;
                }
                self.stats.retransmissions += 1;
                let Some(cluster) = self.my_cluster() else {
                    return;
                };
                let all_failed: Vec<NodeId> = self.known_failed.nodes().collect();
                self.transmit(
                    ctx,
                    RefMsg::HealthUpdate(RefUpdate {
                        from: self.profile.id,
                        cluster,
                        epoch: self.epoch,
                        new_failed: missing.clone(),
                        all_failed,
                        takeover: false,
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

impl Actor for RefFdsNode {
    type Msg = RefMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, RefMsg>) {
        self.begin_epoch(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RefMsg>, _from: NodeId, msg: &RefMsg) {
        if self.asleep {
            return; // radio off
        }
        match msg {
            RefMsg::Heartbeat {
                from,
                marked,
                reading,
            } => {
                let from = *from;
                self.evidence.record_heartbeat(from);
                if let Some(r) = *reading {
                    self.readings.insert(from, r);
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
            RefMsg::Digest(d) => {
                if self.config.aggregation {
                    for (node, reading) in &d.readings {
                        self.readings.entry(*node).or_insert(*reading);
                    }
                }
                self.evidence.record_digest(d.clone());
            }
            RefMsg::HealthUpdate(u) => self.handle_update(ctx, u.clone(), false),
            RefMsg::ForwardRequest { from, epoch } => {
                let (from, epoch) = (*from, *epoch);
                if self.config.peer_forwarding
                    && epoch == self.epoch
                    && from != self.profile.id
                    && !self.is_acting_head()
                    && self.profile.roster.contains(&from)
                    && self.update_this_epoch.is_some()
                {
                    let fraction = if !self.config.energy_balanced_forwarding {
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
            RefMsg::PeerForward { to, update } => {
                let addressed_to_me = *to == self.profile.id;
                if self.my_cluster() == Some(update.cluster)
                    && (addressed_to_me || self.config.promiscuous_recovery)
                {
                    let epoch = update.epoch;
                    let had_update = self.update_this_epoch.is_some();
                    let had_request = self.request_outstanding;
                    self.handle_update(ctx, update.clone(), true);
                    if addressed_to_me
                        && !had_update
                        && !had_request
                        && self.update_this_epoch.is_some()
                        && epoch == self.epoch
                    {
                        self.transmit(
                            ctx,
                            RefMsg::PeerAck {
                                from: self.profile.id,
                                epoch,
                            },
                        );
                    }
                }
            }
            RefMsg::PeerAck { from, epoch } => {
                self.stats.ledger_ops += 1;
                self.quit.insert((*from, *epoch));
            }
            RefMsg::Report(r) => self.handle_report(ctx, r.clone()),
            RefMsg::SleepNotice { from, until_epoch } => {
                let (from, until_epoch) = (*from, *until_epoch);
                self.stats.ledger_ops += 1;
                self.known_sleepers.insert(from, until_epoch);
                if self.config.sleep_announcements {
                    self.stats.ledger_ops += 1;
                    if self.relayed_notices.insert((from, until_epoch)) && from != self.profile.id {
                        self.transmit(ctx, RefMsg::SleepNotice { from, until_epoch });
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RefMsg>, token: TimerToken) {
        if let Some(payload) = self.timers.remove(&token.0) {
            self.stats.ledger_ops += 1;
            self.handle_timer(ctx, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32) -> NodeId {
        NodeId(id)
    }

    #[test]
    fn ref_rules_keep_old_semantics() {
        let mut ev = RefEvidence::new();
        ev.record_heartbeat(n(3));
        ev.record_digest(RefDigest::new(n(3), [n(5)]));
        let failed = ref_detect_failures(&[n(1), n(3), n(5), n(7)], &ev);
        assert_eq!(failed, vec![n(1), n(7)]);
        assert!(ref_ch_failed(n(0), &RefEvidence::new()));
        assert!(!ref_ch_failed(n(3), &ev));
    }

    #[test]
    fn ref_wire_sizes_match_the_id_list_codec() {
        // A digest of k heard ids must cost 1+4+2+4k+2 bytes.
        let digest = RefMsg::Digest(RefDigest::new(n(2), [n(1), n(3), n(4)]));
        assert_eq!(digest.encoded_len(), 1 + 4 + 2 + 12 + 2);
        let hb = RefMsg::Heartbeat {
            from: n(1),
            marked: true,
            reading: None,
        };
        assert_eq!(hb.encoded_len(), 7);
        let ack = RefMsg::PeerAck {
            from: n(1),
            epoch: 9,
        };
        assert_eq!(ack.encoded_len(), 13);
    }
}
