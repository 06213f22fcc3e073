//! Protocol messages of the failure detection service.
//!
//! Because hosts receive promiscuously, every message is physically a
//! local broadcast; "sending to the CH" just names the intended
//! recipient in the payload. A compact wire codec (via [`bytes`]) is
//! provided so experiments can account traffic in bytes as well as in
//! message counts.

use crate::aggregation::Aggregate;
use crate::bitmap::RosterBitmap;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cbfd_net::id::{ClusterId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The digest a node sends in `fds.R-2`: the set of cluster members it
/// heard (or overheard) heartbeats from during `fds.R-1`, as a bitmap
/// over the author's announcement-ordered cluster roster (see
/// [`crate::bitmap`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Digest {
    /// The digest's author.
    pub from: NodeId,
    /// The author's cluster. Heard-bits are positions in *that*
    /// cluster's roster, so receivers affiliated elsewhere must not
    /// interpret them (the cross-cluster aliasing guard).
    pub cluster: ClusterId,
    /// Roster positions whose heartbeats the author heard this epoch,
    /// tagged with the author's roster version.
    pub heard: RosterBitmap,
    /// The `(node, reading)` pairs the author overheard, when data
    /// aggregation is embedded in the FDS (message sharing); the head
    /// deduplicates by node ID.
    pub readings: Vec<(NodeId, i32)>,
    /// Roster positions the author's adaptive detector currently
    /// suspects (`DetectionMode::Adaptive` only; see
    /// [`crate::adaptive`]). Encoded as a **trailing optional** field:
    /// fixed-mode digests omit it entirely, so their wire bytes are
    /// identical to the pre-adaptive codec.
    pub suspected: Option<RosterBitmap>,
}

impl Digest {
    /// Creates a digest authored by `from`, a member of `cluster`,
    /// over the heard-positions bitmap.
    pub fn new(from: NodeId, cluster: ClusterId, heard: RosterBitmap) -> Self {
        Digest {
            from,
            cluster,
            heard,
            readings: Vec::new(),
            suspected: None,
        }
    }

    /// Attaches overheard sensor readings (aggregation embedding).
    pub fn with_readings(mut self, readings: Vec<(NodeId, i32)>) -> Self {
        self.readings = readings;
        self
    }

    /// Attaches the author's adaptive suspicion bitmap (gossiped so
    /// authorities can corroborate their own accrual scores).
    pub fn with_suspected(mut self, suspected: RosterBitmap) -> Self {
        self.suspected = Some(suspected);
        self
    }

    /// Whether the digest reflects awareness of a heartbeat from the
    /// member at roster position `pos` (positions beyond the digest's
    /// roster are simply not reflected).
    pub fn reflects(&self, pos: usize) -> bool {
        self.heard.contains(pos)
    }
}

/// The health-status update a clusterhead (or a deputy taking over)
/// broadcasts in `fds.R-3`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthUpdate {
    /// The broadcasting authority (CH, or DCH on takeover).
    pub from: NodeId,
    /// The cluster this update concerns.
    pub cluster: ClusterId,
    /// The FDS epoch the update belongs to.
    pub epoch: u64,
    /// Failures detected **this** epoch in this cluster.
    pub new_failed: Vec<NodeId>,
    /// Every failure known to the authority (cumulative; enables
    /// catch-up by clusters that missed earlier reports).
    pub all_failed: Vec<NodeId>,
    /// Set when a deputy clusterhead announces a clusterhead failure
    /// and takes over.
    pub takeover: bool,
    /// The authority's roster version (bumped on every admission
    /// batch). Members adopt it together with `roster`, so subsequent
    /// digest bitmaps carry the version they were built against.
    pub roster_version: u32,
    /// Unmarked nodes admitted to the cluster this epoch (their
    /// heartbeats served as membership subscriptions — feature F5).
    pub joined: Vec<NodeId>,
    /// The full roster after admissions, in **announcement order**
    /// (formation roster sorted, each admission batch appended — the
    /// order digest bitmap positions index); empty unless `joined` is
    /// non-empty (it then serves as a cluster organization
    /// re-announcement).
    pub roster: Vec<NodeId>,
    /// The duplicate-eliminated cluster aggregate of this epoch's
    /// sensor readings, when data aggregation is embedded.
    pub aggregate: Option<Aggregate>,
}

impl HealthUpdate {
    /// Whether the update indicates newly detected failures (only such
    /// updates trigger inter-cluster forwarding; otherwise "no news is
    /// good news").
    pub fn has_news(&self) -> bool {
        !self.new_failed.is_empty()
    }
}

/// An inter-cluster failure report forwarded over the backbone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureReport {
    /// The gateway (or backup gateway) forwarding the report.
    pub via: NodeId,
    /// The cluster whose head should consume the report.
    pub to_cluster: ClusterId,
    /// Failed nodes being announced (newly detected plus, when
    /// cumulative reports are on, previously detected ones).
    pub failed: Vec<NodeId>,
    /// Clusters whose heads — as far as the forwarder overheard —
    /// already announced every failure in `failed`. Receivers merge
    /// this into their implicit-ack ledgers, so a head never
    /// retransmits news back toward the cluster it came from.
    pub known_by: Vec<ClusterId>,
}

/// All messages of the FDS protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FdsMsg {
    /// `fds.R-1`: heartbeat carrying the sender and its one-bit mark
    /// indicator (marked = admitted to a cluster).
    Heartbeat {
        /// The heartbeating node.
        from: NodeId,
        /// The paper's one-bit mark indicator.
        marked: bool,
        /// The sender's sensor reading, when data aggregation is
        /// embedded in the FDS.
        reading: Option<i32>,
    },
    /// `fds.R-2`: digest of heard heartbeats.
    Digest(Digest),
    /// `fds.R-3`: cluster health-status update.
    HealthUpdate(HealthUpdate),
    /// A member that missed the health update requests peer
    /// forwarding.
    ForwardRequest {
        /// The requesting node.
        from: NodeId,
        /// The epoch whose update is missing.
        epoch: u64,
    },
    /// A peer forwards the health update to a requester.
    PeerForward {
        /// The intended recipient (the requester).
        to: NodeId,
        /// The forwarded update.
        update: HealthUpdate,
    },
    /// The requester acknowledges a successful peer forward; other
    /// waiting peers quit on overhearing it.
    PeerAck {
        /// The satisfied requester.
        from: NodeId,
        /// The epoch that was recovered.
        epoch: u64,
    },
    /// Inter-cluster failure report (gateway → neighbouring CH).
    Report(FailureReport),
    /// A member announces it is entering sleep mode until the given
    /// epoch (the sleep/wakeup extension from the paper's concluding
    /// remarks; announced sleepers are excluded from the detection
    /// rule instead of being falsely condemned).
    SleepNotice {
        /// The node going to sleep.
        from: NodeId,
        /// First epoch at which it will be awake again.
        until_epoch: u64,
    },
    /// A member announces a graceful withdrawal from the network: it
    /// must be removed from the detection rule's expected set without
    /// being condemned as failed (leave-vs-crash taxonomy). The
    /// incarnation number lets peers discard stale replayed notices
    /// from before the node's most recent rejoin.
    LeaveNotice {
        /// The departing node.
        from: NodeId,
        /// The departing node's current incarnation.
        incarnation: u64,
    },
    /// A previously crashed or departed member announces it is back
    /// with a **higher** incarnation number. Peers clear any
    /// failed/departed verdict recorded against a lower incarnation;
    /// digests and notices stamped with the old incarnation are stale.
    Rejoin {
        /// The returning node.
        from: NodeId,
        /// The node's new (bumped) incarnation.
        incarnation: u64,
    },
}

impl fmt::Display for FdsMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdsMsg::Heartbeat { from, marked, .. } => {
                write!(f, "heartbeat({from}, marked={marked})")
            }
            FdsMsg::Digest(d) => write!(f, "digest({}, |heard|={})", d.from, d.heard.count()),
            FdsMsg::HealthUpdate(u) => write!(
                f,
                "update({}, epoch={}, new={}, takeover={})",
                u.from,
                u.epoch,
                u.new_failed.len(),
                u.takeover
            ),
            FdsMsg::ForwardRequest { from, epoch } => {
                write!(f, "forward-request({from}, epoch={epoch})")
            }
            FdsMsg::PeerForward { to, .. } => write!(f, "peer-forward(to {to})"),
            FdsMsg::PeerAck { from, epoch } => write!(f, "peer-ack({from}, epoch={epoch})"),
            FdsMsg::Report(r) => {
                write!(
                    f,
                    "report(via {}, to {}, |failed|={})",
                    r.via,
                    r.to_cluster,
                    r.failed.len()
                )
            }
            FdsMsg::SleepNotice { from, until_epoch } => {
                write!(f, "sleep-notice({from}, until epoch {until_epoch})")
            }
            FdsMsg::LeaveNotice { from, incarnation } => {
                write!(f, "leave-notice({from}, inc={incarnation})")
            }
            FdsMsg::Rejoin { from, incarnation } => {
                write!(f, "rejoin({from}, inc={incarnation})")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// Errors from [`FdsMsg::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// The message tag byte is unknown.
    UnknownTag(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_HEARTBEAT: u8 = 1;
const TAG_DIGEST: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_REQUEST: u8 = 4;
const TAG_PEER_FORWARD: u8 = 5;
const TAG_PEER_ACK: u8 = 6;
const TAG_REPORT: u8 = 7;
const TAG_SLEEP: u8 = 8;
const TAG_LEAVE: u8 = 9;
const TAG_REJOIN: u8 = 10;

fn put_ids(buf: &mut BytesMut, ids: &[NodeId]) {
    buf.put_u16(ids.len() as u16);
    for id in ids {
        buf.put_u32(id.0);
    }
}

/// Decodes a length-prefixed id list into `out` (cleared first) — the
/// caller owns the scratch, so repeated decodes reuse one allocation.
fn get_ids_into(buf: &mut Bytes, out: &mut Vec<NodeId>) -> Result<(), DecodeError> {
    out.clear();
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u16() as usize;
    if buf.remaining() < n * 4 {
        return Err(DecodeError::Truncated);
    }
    out.reserve(n);
    for _ in 0..n {
        out.push(NodeId(buf.get_u32()));
    }
    Ok(())
}

fn get_ids(buf: &mut Bytes) -> Result<Vec<NodeId>, DecodeError> {
    let mut ids = Vec::new();
    get_ids_into(buf, &mut ids)?;
    Ok(ids)
}

fn put_update(buf: &mut BytesMut, u: &HealthUpdate) {
    buf.put_u32(u.from.0);
    buf.put_u32(u.cluster.head().0);
    buf.put_u64(u.epoch);
    buf.put_u8(u.takeover as u8);
    buf.put_u32(u.roster_version);
    put_ids(buf, &u.new_failed);
    put_ids(buf, &u.all_failed);
    put_ids(buf, &u.joined);
    put_ids(buf, &u.roster);
    match &u.aggregate {
        Some(a) => {
            buf.put_u8(1);
            buf.put_u32(a.count);
            buf.put_i64(a.sum);
            buf.put_i32(a.min);
            buf.put_i32(a.max);
        }
        None => buf.put_u8(0),
    }
}

fn get_update(buf: &mut Bytes) -> Result<HealthUpdate, DecodeError> {
    if buf.remaining() < 4 + 4 + 8 + 1 + 4 {
        return Err(DecodeError::Truncated);
    }
    let from = NodeId(buf.get_u32());
    let cluster = ClusterId::of(NodeId(buf.get_u32()));
    let epoch = buf.get_u64();
    let takeover = buf.get_u8() != 0;
    let roster_version = buf.get_u32();
    let new_failed = get_ids(buf)?;
    let all_failed = get_ids(buf)?;
    let joined = get_ids(buf)?;
    let roster = get_ids(buf)?;
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let aggregate = match buf.get_u8() {
        0 => None,
        _ => {
            if buf.remaining() < 4 + 8 + 4 + 4 {
                return Err(DecodeError::Truncated);
            }
            Some(Aggregate {
                count: buf.get_u32(),
                sum: buf.get_i64(),
                min: buf.get_i32(),
                max: buf.get_i32(),
            })
        }
    };
    Ok(HealthUpdate {
        from,
        cluster,
        epoch,
        new_failed,
        all_failed,
        takeover,
        roster_version,
        joined,
        roster,
        aggregate,
    })
}

fn ids_len(n: usize) -> usize {
    2 + 4 * n
}

/// Wire size of a [`FdsMsg::Report`] carrying `failed` subject ids and
/// `known_by` cluster ids, without constructing the message. The
/// gateway dedup path prices reports it decides *not* to send
/// (`bytes_suppressed` accounting); this keeps that path free of the
/// throwaway id-list allocations building a real report would cost.
pub fn report_wire_len(failed: usize, known_by: usize) -> usize {
    1 + 4 + 4 + ids_len(failed) + ids_len(known_by)
}

fn update_len(u: &HealthUpdate) -> usize {
    4 + 4
        + 8
        + 1
        + 4
        + ids_len(u.new_failed.len())
        + ids_len(u.all_failed.len())
        + ids_len(u.joined.len())
        + ids_len(u.roster.len())
        + 1
        + if u.aggregate.is_some() { 20 } else { 0 }
}

impl FdsMsg {
    /// Encodes the message to its wire representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            FdsMsg::Heartbeat {
                from,
                marked,
                reading,
            } => {
                buf.put_u8(TAG_HEARTBEAT);
                buf.put_u32(from.0);
                buf.put_u8(*marked as u8);
                match reading {
                    Some(r) => {
                        buf.put_u8(1);
                        buf.put_i32(*r);
                    }
                    None => buf.put_u8(0),
                }
            }
            FdsMsg::Digest(d) => {
                buf.put_u8(TAG_DIGEST);
                buf.put_u32(d.from.0);
                buf.put_u32(d.cluster.head().0);
                buf.put_u32(d.heard.version());
                buf.put_u16(d.heard.len() as u16);
                for word in d.heard.words() {
                    buf.put_u64(*word);
                }
                buf.put_u16(d.readings.len() as u16);
                for (node, reading) in &d.readings {
                    buf.put_u32(node.0);
                    buf.put_i32(*reading);
                }
                // Trailing optional suspicion bitmap: absent = no extra
                // bytes, so fixed-mode digests match the legacy layout
                // exactly (the golden-byte tests pin this).
                if let Some(s) = &d.suspected {
                    buf.put_u32(s.version());
                    buf.put_u16(s.len() as u16);
                    for word in s.words() {
                        buf.put_u64(*word);
                    }
                }
            }
            FdsMsg::HealthUpdate(u) => {
                buf.put_u8(TAG_UPDATE);
                put_update(&mut buf, u);
            }
            FdsMsg::ForwardRequest { from, epoch } => {
                buf.put_u8(TAG_REQUEST);
                buf.put_u32(from.0);
                buf.put_u64(*epoch);
            }
            FdsMsg::PeerForward { to, update } => {
                buf.put_u8(TAG_PEER_FORWARD);
                buf.put_u32(to.0);
                put_update(&mut buf, update);
            }
            FdsMsg::PeerAck { from, epoch } => {
                buf.put_u8(TAG_PEER_ACK);
                buf.put_u32(from.0);
                buf.put_u64(*epoch);
            }
            FdsMsg::Report(r) => {
                buf.put_u8(TAG_REPORT);
                buf.put_u32(r.via.0);
                buf.put_u32(r.to_cluster.head().0);
                put_ids(&mut buf, &r.failed);
                buf.put_u16(r.known_by.len() as u16);
                for c in &r.known_by {
                    buf.put_u32(c.head().0);
                }
            }
            FdsMsg::SleepNotice { from, until_epoch } => {
                buf.put_u8(TAG_SLEEP);
                buf.put_u32(from.0);
                buf.put_u64(*until_epoch);
            }
            FdsMsg::LeaveNotice { from, incarnation } => {
                buf.put_u8(TAG_LEAVE);
                buf.put_u32(from.0);
                buf.put_u64(*incarnation);
            }
            FdsMsg::Rejoin { from, incarnation } => {
                buf.put_u8(TAG_REJOIN);
                buf.put_u32(from.0);
                buf.put_u64(*incarnation);
            }
        }
        buf.freeze()
    }

    /// Decodes a message from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the buffer is truncated or carries
    /// an unknown tag.
    pub fn decode(mut buf: Bytes) -> Result<Self, DecodeError> {
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let tag = buf.get_u8();
        match tag {
            TAG_HEARTBEAT => {
                if buf.remaining() < 6 {
                    return Err(DecodeError::Truncated);
                }
                let from = NodeId(buf.get_u32());
                let marked = buf.get_u8() != 0;
                let reading = match buf.get_u8() {
                    0 => None,
                    _ => {
                        if buf.remaining() < 4 {
                            return Err(DecodeError::Truncated);
                        }
                        Some(buf.get_i32())
                    }
                };
                Ok(FdsMsg::Heartbeat {
                    from,
                    marked,
                    reading,
                })
            }
            TAG_DIGEST => {
                if buf.remaining() < 4 + 4 + 4 + 2 {
                    return Err(DecodeError::Truncated);
                }
                let from = NodeId(buf.get_u32());
                let cluster = ClusterId::of(NodeId(buf.get_u32()));
                let version = buf.get_u32();
                let bits = buf.get_u16() as usize;
                let words = bits.div_ceil(64);
                // Length check before building the bitmap: a lying
                // bit-length can't force an allocation.
                if buf.remaining() < words * 8 {
                    return Err(DecodeError::Truncated);
                }
                let heard =
                    RosterBitmap::from_words(version, bits, (0..words).map(|_| buf.get_u64()));
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let n = buf.get_u16() as usize;
                if buf.remaining() < n * 8 {
                    return Err(DecodeError::Truncated);
                }
                let readings = (0..n)
                    .map(|_| (NodeId(buf.get_u32()), buf.get_i32()))
                    .collect();
                let mut digest = Digest::new(from, cluster, heard).with_readings(readings);
                // Trailing optional suspicion bitmap: an exhausted
                // buffer means "absent"; a partial field is truncation.
                if buf.remaining() > 0 {
                    if buf.remaining() < 4 + 2 {
                        return Err(DecodeError::Truncated);
                    }
                    let version = buf.get_u32();
                    let bits = buf.get_u16() as usize;
                    let words = bits.div_ceil(64);
                    if buf.remaining() < words * 8 {
                        return Err(DecodeError::Truncated);
                    }
                    digest = digest.with_suspected(RosterBitmap::from_words(
                        version,
                        bits,
                        (0..words).map(|_| buf.get_u64()),
                    ));
                }
                Ok(FdsMsg::Digest(digest))
            }
            TAG_UPDATE => Ok(FdsMsg::HealthUpdate(get_update(&mut buf)?)),
            TAG_REQUEST => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                Ok(FdsMsg::ForwardRequest {
                    from: NodeId(buf.get_u32()),
                    epoch: buf.get_u64(),
                })
            }
            TAG_PEER_FORWARD => {
                if buf.remaining() < 4 {
                    return Err(DecodeError::Truncated);
                }
                let to = NodeId(buf.get_u32());
                let update = get_update(&mut buf)?;
                Ok(FdsMsg::PeerForward { to, update })
            }
            TAG_PEER_ACK => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                Ok(FdsMsg::PeerAck {
                    from: NodeId(buf.get_u32()),
                    epoch: buf.get_u64(),
                })
            }
            TAG_REPORT => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::Truncated);
                }
                let via = NodeId(buf.get_u32());
                let to_cluster = ClusterId::of(NodeId(buf.get_u32()));
                let failed = get_ids(&mut buf)?;
                let known_by = get_ids(&mut buf)?.into_iter().map(ClusterId::of).collect();
                Ok(FdsMsg::Report(FailureReport {
                    via,
                    to_cluster,
                    failed,
                    known_by,
                }))
            }
            TAG_SLEEP => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                Ok(FdsMsg::SleepNotice {
                    from: NodeId(buf.get_u32()),
                    until_epoch: buf.get_u64(),
                })
            }
            TAG_LEAVE => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                Ok(FdsMsg::LeaveNotice {
                    from: NodeId(buf.get_u32()),
                    incarnation: buf.get_u64(),
                })
            }
            TAG_REJOIN => {
                if buf.remaining() < 12 {
                    return Err(DecodeError::Truncated);
                }
                Ok(FdsMsg::Rejoin {
                    from: NodeId(buf.get_u32()),
                    incarnation: buf.get_u64(),
                })
            }
            other => Err(DecodeError::UnknownTag(other)),
        }
    }

    /// Wire size in bytes, computed arithmetically — no encode, no
    /// allocation — so per-transmit byte accounting is free.
    pub fn encoded_len(&self) -> usize {
        match self {
            FdsMsg::Heartbeat { reading, .. } => 7 + if reading.is_some() { 4 } else { 0 },
            FdsMsg::Digest(d) => {
                1 + 4
                    + 4
                    + 4
                    + 2
                    + 8 * d.heard.words().len()
                    + 2
                    + 8 * d.readings.len()
                    + d.suspected
                        .as_ref()
                        .map_or(0, |s| 4 + 2 + 8 * s.words().len())
            }
            FdsMsg::HealthUpdate(u) => 1 + update_len(u),
            FdsMsg::ForwardRequest { .. } => 13,
            FdsMsg::PeerForward { update, .. } => 1 + 4 + update_len(update),
            FdsMsg::PeerAck { .. } => 13,
            FdsMsg::Report(r) => report_wire_len(r.failed.len(), r.known_by.len()),
            FdsMsg::SleepNotice { .. } => 13,
            FdsMsg::LeaveNotice { .. } => 13,
            FdsMsg::Rejoin { .. } => 13,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update() -> HealthUpdate {
        HealthUpdate {
            from: NodeId(9),
            cluster: ClusterId::of(NodeId(3)),
            epoch: 17,
            new_failed: vec![NodeId(5)],
            all_failed: vec![NodeId(5), NodeId(7)],
            takeover: true,
            roster_version: 6,
            joined: vec![NodeId(11)],
            roster: vec![NodeId(3), NodeId(9), NodeId(11)],
            aggregate: Some(Aggregate::of(37)),
        }
    }

    fn all_messages() -> Vec<FdsMsg> {
        let mut heard = RosterBitmap::new(1, 4);
        heard.set(0);
        heard.set(2);
        vec![
            FdsMsg::Heartbeat {
                from: NodeId(1),
                marked: true,
                reading: Some(-7),
            },
            FdsMsg::Digest(
                Digest::new(NodeId(2), ClusterId::of(NodeId(3)), heard)
                    .with_readings(vec![(NodeId(1), 55)]),
            ),
            FdsMsg::HealthUpdate(update()),
            FdsMsg::ForwardRequest {
                from: NodeId(4),
                epoch: 3,
            },
            FdsMsg::PeerForward {
                to: NodeId(6),
                update: update(),
            },
            FdsMsg::PeerAck {
                from: NodeId(6),
                epoch: 3,
            },
            FdsMsg::Report(FailureReport {
                via: NodeId(8),
                to_cluster: ClusterId::of(NodeId(10)),
                failed: vec![NodeId(5)],
                known_by: vec![ClusterId::of(NodeId(3))],
            }),
            FdsMsg::SleepNotice {
                from: NodeId(12),
                until_epoch: 9,
            },
            FdsMsg::LeaveNotice {
                from: NodeId(13),
                incarnation: 2,
            },
            FdsMsg::Rejoin {
                from: NodeId(13),
                incarnation: 3,
            },
        ]
    }

    #[test]
    fn codec_round_trips_every_variant() {
        for msg in all_messages() {
            let decoded = FdsMsg::decode(msg.encode()).expect("decode");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn decode_rejects_empty_and_unknown() {
        assert_eq!(FdsMsg::decode(Bytes::new()), Err(DecodeError::Truncated));
        assert_eq!(
            FdsMsg::decode(Bytes::from_static(&[0xFF])),
            Err(DecodeError::UnknownTag(0xFF))
        );
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        for msg in all_messages() {
            let full = msg.encode();
            for cut in 0..full.len() {
                let r = FdsMsg::decode(full.slice(0..cut));
                assert!(
                    r.is_err(),
                    "decoding {cut}/{} bytes of {msg} should fail",
                    full.len()
                );
            }
        }
    }

    #[test]
    fn heartbeat_is_small() {
        let hb = FdsMsg::Heartbeat {
            from: NodeId(1),
            marked: false,
            reading: None,
        };
        assert!(hb.encoded_len() <= 8, "heartbeats must stay tiny");
    }

    #[test]
    fn digest_reflects_heard_positions() {
        let mut heard = RosterBitmap::new(0, 6);
        heard.set(4);
        let d = Digest::new(NodeId(0), ClusterId::of(NodeId(0)), heard);
        assert!(d.reflects(4));
        assert!(!d.reflects(5));
        assert!(!d.reflects(99), "beyond the roster is not reflected");
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for msg in all_messages() {
            assert_eq!(msg.encoded_len(), msg.encode().len(), "{msg}");
        }
        // And for shapes the fixture list doesn't cover: empty bitmap,
        // no aggregate, no reading.
        let extra = [
            FdsMsg::Heartbeat {
                from: NodeId(1),
                marked: false,
                reading: None,
            },
            FdsMsg::Digest(Digest::new(
                NodeId(2),
                ClusterId::of(NodeId(3)),
                RosterBitmap::new(0, 0),
            )),
            FdsMsg::Digest(Digest::new(
                NodeId(2),
                ClusterId::of(NodeId(3)),
                RosterBitmap::new(9, 65),
            )),
            FdsMsg::HealthUpdate(HealthUpdate {
                aggregate: None,
                ..update()
            }),
        ];
        for msg in extra {
            assert_eq!(msg.encoded_len(), msg.encode().len(), "{msg}");
        }
    }

    #[test]
    fn report_wire_len_prices_without_building() {
        for (failed, known_by) in [(0, 0), (1, 0), (0, 3), (5, 2), (40, 7)] {
            let msg = FdsMsg::Report(FailureReport {
                via: NodeId(9),
                to_cluster: ClusterId::of(NodeId(3)),
                failed: (0..failed as u32).map(NodeId).collect(),
                known_by: (0..known_by as u32)
                    .map(NodeId)
                    .map(ClusterId::of)
                    .collect(),
            });
            assert_eq!(report_wire_len(failed, known_by), msg.encode().len());
        }
    }

    #[test]
    fn digest_len_counts_words_not_ids() {
        let mut heard = RosterBitmap::new(0, 100);
        for pos in 0..40 {
            heard.set(pos);
        }
        let d = FdsMsg::Digest(Digest::new(NodeId(2), ClusterId::of(NodeId(3)), heard));
        // Header 15 + 2 words of bits, however many of them are set.
        assert_eq!(d.encoded_len(), 1 + 4 + 4 + 4 + 2 + 16 + 2);
    }

    fn suspicious_digest() -> FdsMsg {
        let mut heard = RosterBitmap::new(1, 5);
        heard.set(0);
        let mut suspected = RosterBitmap::new(1, 5);
        suspected.set(3);
        suspected.set(4);
        FdsMsg::Digest(
            Digest::new(NodeId(2), ClusterId::of(NodeId(3)), heard)
                .with_readings(vec![(NodeId(1), 55)])
                .with_suspected(suspected),
        )
    }

    #[test]
    fn suspicion_field_round_trips() {
        let msg = suspicious_digest();
        assert_eq!(FdsMsg::decode(msg.encode()).expect("decode"), msg);
        assert_eq!(msg.encoded_len(), msg.encode().len());
    }

    #[test]
    fn suspicion_field_rejects_partial_truncation() {
        // `all_messages` digests omit the optional suspicion field, so
        // the truncation-everywhere sweep can demand hard errors. Here
        // the field is present: cutting at its exact start is a valid
        // "absent" decode, while any cut strictly inside it must fail.
        let msg = suspicious_digest();
        let full = msg.encode();
        let base = full.len() - (4 + 2 + 8);
        let at_boundary = FdsMsg::decode(full.slice(0..base)).expect("absent field decodes");
        match at_boundary {
            FdsMsg::Digest(d) => assert_eq!(d.suspected, None),
            other => panic!("unexpected {other}"),
        }
        for cut in base + 1..full.len() {
            assert_eq!(
                FdsMsg::decode(full.slice(0..cut)),
                Err(DecodeError::Truncated),
                "cut {cut}/{}",
                full.len()
            );
        }
    }

    #[test]
    fn update_news_detection() {
        let mut u = update();
        assert!(u.has_news());
        u.new_failed.clear();
        assert!(!u.has_news());
    }

    #[test]
    fn display_is_informative() {
        for msg in all_messages() {
            assert!(!msg.to_string().is_empty());
        }
    }
}

#[cfg(test)]
mod wire_compat {
    //! Golden wire vectors: changing the on-air format is a breaking
    //! change for deployed networks, so these tests pin the exact
    //! bytes of representative messages.

    use super::*;

    #[test]
    fn heartbeat_golden_bytes() {
        let msg = FdsMsg::Heartbeat {
            from: NodeId(0x0102_0304),
            marked: true,
            reading: None,
        };
        assert_eq!(msg.encode().as_ref(), &[1, 1, 2, 3, 4, 1, 0]);
    }

    #[test]
    fn heartbeat_with_reading_golden_bytes() {
        let msg = FdsMsg::Heartbeat {
            from: NodeId(5),
            marked: false,
            reading: Some(-2),
        };
        assert_eq!(
            msg.encode().as_ref(),
            &[1, 0, 0, 0, 5, 0, 1, 0xFF, 0xFF, 0xFF, 0xFE]
        );
    }

    #[test]
    fn digest_golden_bytes() {
        // Author 7 in cluster headed by 3, roster version 1, 5-member
        // roster, positions {1, 2} heard: one big-endian bitmap word
        // 0b110 = 6.
        let mut heard = RosterBitmap::new(1, 5);
        heard.set(1);
        heard.set(2);
        let msg = FdsMsg::Digest(Digest::new(NodeId(7), ClusterId::of(NodeId(3)), heard));
        assert_eq!(
            msg.encode().as_ref(),
            &[
                2, // tag
                0, 0, 0, 7, // from
                0, 0, 0, 3, // cluster head
                0, 0, 0, 1, // roster version
                0, 5, // roster bit-length
                0, 0, 0, 0, 0, 0, 0, 6, // bitmap word
                0, 0, // no readings
            ]
        );
    }

    #[test]
    fn digest_with_suspicion_golden_bytes() {
        // Same digest as above plus the trailing suspicion field:
        // position 4 suspected, one big-endian word 0b10000 = 16. The
        // prefix is byte-identical to the suspicion-free encoding.
        let mut heard = RosterBitmap::new(1, 5);
        heard.set(1);
        heard.set(2);
        let mut suspected = RosterBitmap::new(1, 5);
        suspected.set(4);
        let msg = FdsMsg::Digest(
            Digest::new(NodeId(7), ClusterId::of(NodeId(3)), heard).with_suspected(suspected),
        );
        assert_eq!(
            msg.encode().as_ref(),
            &[
                2, // tag
                0, 0, 0, 7, // from
                0, 0, 0, 3, // cluster head
                0, 0, 0, 1, // roster version
                0, 5, // roster bit-length
                0, 0, 0, 0, 0, 0, 0, 6, // bitmap word
                0, 0, // no readings
                0, 0, 0, 1, // suspicion roster version
                0, 5, // suspicion bit-length
                0, 0, 0, 0, 0, 0, 0, 16, // suspicion word
            ]
        );
    }

    #[test]
    fn peer_ack_golden_bytes() {
        let msg = FdsMsg::PeerAck {
            from: NodeId(9),
            epoch: 0x0A,
        };
        assert_eq!(
            msg.encode().as_ref(),
            &[6, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0x0A]
        );
    }

    #[test]
    fn sleep_notice_golden_bytes() {
        let msg = FdsMsg::SleepNotice {
            from: NodeId(3),
            until_epoch: 7,
        };
        assert_eq!(
            msg.encode().as_ref(),
            &[8, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7]
        );
    }

    #[test]
    fn leave_notice_golden_bytes() {
        let msg = FdsMsg::LeaveNotice {
            from: NodeId(4),
            incarnation: 2,
        };
        assert_eq!(
            msg.encode().as_ref(),
            &[9, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 2]
        );
    }

    #[test]
    fn rejoin_golden_bytes() {
        let msg = FdsMsg::Rejoin {
            from: NodeId(4),
            incarnation: 3,
        };
        assert_eq!(
            msg.encode().as_ref(),
            &[10, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 3]
        );
    }

    #[test]
    fn report_golden_bytes() {
        let msg = FdsMsg::Report(FailureReport {
            via: NodeId(1),
            to_cluster: ClusterId::of(NodeId(2)),
            failed: vec![NodeId(3)],
            known_by: vec![],
        });
        assert_eq!(
            msg.encode().as_ref(),
            &[7, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 3, 0, 0]
        );
    }
}

cbfd_net::impl_persist!(Digest {
    from,
    cluster,
    heard,
    readings,
    suspected,
});
cbfd_net::impl_persist!(HealthUpdate {
    from,
    cluster,
    epoch,
    new_failed,
    all_failed,
    takeover,
    roster_version,
    joined,
    roster,
    aggregate,
});
cbfd_net::impl_persist!(FailureReport {
    via,
    to_cluster,
    failed,
    known_by,
});

// Checkpoints reuse the wire codec: one length-prefixed encoded
// message per value. Anything the radio can carry, a snapshot can
// carry — and the codec's golden-byte tests pin both at once.
impl cbfd_net::checkpoint::Persist for FdsMsg {
    fn persist(&self, w: &mut cbfd_net::checkpoint::Writer) {
        let bytes = self.encode();
        w.put_u64(bytes.len() as u64);
        w.put_bytes(&bytes);
    }

    fn restore(
        r: &mut cbfd_net::checkpoint::Reader<'_>,
    ) -> Result<Self, cbfd_net::checkpoint::CheckpointError> {
        let len = usize::try_from(r.get_u64()?)
            .map_err(|_| cbfd_net::checkpoint::CheckpointError::Corrupt("message length"))?;
        let raw = r.get_bytes(len)?;
        FdsMsg::decode(Bytes::from(raw))
            .map_err(|_| cbfd_net::checkpoint::CheckpointError::Corrupt("fds message codec"))
    }
}
