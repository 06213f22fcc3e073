//! Configuration of the failure detection service.

use cbfd_net::checkpoint::{CheckpointError, Persist, Reader, Writer};
use cbfd_net::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Which failure rule the service runs (DESIGN.md §15).
///
/// Both modes consume the identical per-epoch roster-bitmap evidence
/// (`rules::RoundEvidence`) and share the dissemination substrate —
/// only the condemnation policy differs, echoing the pluggable
/// detection layer of Dobre et al.'s robust FD architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DetectionMode {
    /// The paper's fixed three-round rule: silence across one epoch's
    /// heartbeat + digest + reflection evidence condemns. The default;
    /// byte-identical to the pre-adaptive service.
    #[default]
    Fixed,
    /// Eventually-perfect (◇P) detection: per-link ADD-channel
    /// deadlines plus an accrual suspicion score with retractable
    /// suspicions (see [`crate::adaptive`]).
    Adaptive,
}

impl Persist for DetectionMode {
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            DetectionMode::Fixed => 0,
            DetectionMode::Adaptive => 1,
        });
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(DetectionMode::Fixed),
            1 => Ok(DetectionMode::Adaptive),
            _ => Err(CheckpointError::Corrupt("detection mode tag")),
        }
    }
}

/// Maximum peer-forwarding back-off slots per request (each slot lasts
/// `t_hop`).
pub const PEER_FORWARD_SLOTS: u32 = 8;

/// Maximum clusterhead retransmissions of an un-acknowledged update
/// toward a gateway (implicit-ack timeouts of `2·Thop`).
pub const MAX_RETRANSMITS: u32 = 2;

/// Tunables of the FDS protocol (Section 4 of the paper).
///
/// The boolean switches exist for the ablation experiments called out
/// in `DESIGN.md`: each disables one of the paper's redundancy
/// mechanisms so its contribution can be measured.
///
/// # Examples
///
/// ```
/// use cbfd_core::config::FdsConfig;
///
/// let config = FdsConfig::default();
/// assert!(config.digest_round && config.peer_forwarding && config.bgw_assist);
/// assert!(config.t_hop < config.heartbeat_interval);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdsConfig {
    /// Per-round timeout `Thop`: the bound on one-hop delivery delay,
    /// and the length of each FDS round.
    pub t_hop: SimDuration,
    /// The heartbeat interval `φ` between consecutive FDS executions.
    pub heartbeat_interval: SimDuration,
    /// Whether the digest exchange round `fds.R-2` runs (time/spatial
    /// redundancy; disabling reverts to a plain heartbeat detector).
    pub digest_round: bool,
    /// Whether members recover missed health updates via peer
    /// forwarding (intra-cluster completeness enhancement).
    pub peer_forwarding: bool,
    /// Whether members adopt *overheard* peer forwards addressed to
    /// someone else (the promiscuous-receiving redundancy). Disabling
    /// restricts recovery to each member's own request/response
    /// exchange, which is the exact setting of the Figure 7 model.
    pub promiscuous_recovery: bool,
    /// Whether backup gateways assist inter-cluster forwarding
    /// (Section 4.3's ranked-timeout scheme).
    pub bgw_assist: bool,
    /// Whether failure reports also carry previously detected failures
    /// (lets clusters that missed an earlier report catch up).
    pub cumulative_reports: bool,
    /// Whether the acting head admits unmarked nodes whose heartbeats
    /// it hears, treating them as membership subscriptions (the group
    /// membership side of feature F5).
    pub admit_unmarked: bool,
    /// Whether nodes announce sleep periods before powering down their
    /// radios, and peers relay the notice once (the sleep/wakeup
    /// extension from the paper's concluding remarks). When false,
    /// sleepers go silent unannounced and are falsely condemned.
    pub sleep_announcements: bool,
    /// Whether sensor-data aggregation is embedded in the FDS rounds
    /// (readings piggybacked on heartbeats and digests, aggregates in
    /// health updates — the "message sharing" extension). Costs zero
    /// extra messages.
    pub aggregation: bool,
    /// Whether peer-forwarding waiting periods factor in remaining
    /// energy (the paper's energy-balancing policy). Disabling makes
    /// the back-off a pure function of the NID, so the same
    /// low-numbered neighbours answer every request — the ablation
    /// that shows why the paper prefers the energy-aware policy.
    pub energy_balanced_forwarding: bool,
    /// How many epochs of per-epoch bookkeeping (answered
    /// peer-forward requests, relayed notices, woken sleepers,
    /// published aggregates, detection decisions) each node retains
    /// before garbage-collecting them at the epoch boundary. Bounds
    /// per-node memory in long churny runs; `0` disables retention
    /// (keep everything forever).
    pub retention_epochs: u64,
    /// Which failure rule condemns: the paper's fixed three-round
    /// silence rule, or the adaptive ◇P accrual detector (whose
    /// thresholds are the constants of [`crate::adaptive`]).
    pub detection_mode: DetectionMode,
}

impl Default for FdsConfig {
    /// `Thop` = 10 ms, `φ` = 1 s, every redundancy mechanism enabled.
    fn default() -> Self {
        FdsConfig {
            t_hop: SimDuration::from_millis(10),
            heartbeat_interval: SimDuration::from_secs(1),
            digest_round: true,
            peer_forwarding: true,
            promiscuous_recovery: true,
            bgw_assist: true,
            cumulative_reports: true,
            admit_unmarked: true,
            sleep_announcements: true,
            aggregation: false,
            energy_balanced_forwarding: true,
            retention_epochs: 64,
            detection_mode: DetectionMode::Fixed,
        }
    }
}

impl FdsConfig {
    /// Validates the timing relations the protocol depends on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint:
    /// the heartbeat interval must leave room for the three rounds,
    /// the post-round work, and the peer-forwarding slots.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_hop.is_zero() {
            return Err("t_hop must be positive".into());
        }
        let occupied = self.t_hop * (4 + u64::from(PEER_FORWARD_SLOTS));
        if self.heartbeat_interval < occupied {
            return Err(format!(
                "heartbeat interval {} too short for protocol phases {}",
                self.heartbeat_interval, occupied
            ));
        }
        Ok(())
    }

    /// Offset of the digest round `fds.R-2` from the epoch start.
    pub fn r2_offset(&self) -> SimDuration {
        self.t_hop
    }

    /// Offset of the health-status-update round `fds.R-3`.
    pub fn r3_offset(&self) -> SimDuration {
        self.t_hop * 2
    }

    /// Offset of the post-round phase: DCH judgement, peer-forwarding
    /// requests, gateway forwarding checks.
    pub fn post_offset(&self) -> SimDuration {
        self.t_hop * 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(FdsConfig::default().validate(), Ok(()));
    }

    #[test]
    fn rejects_zero_t_hop() {
        let config = FdsConfig {
            t_hop: SimDuration::ZERO,
            ..FdsConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn rejects_overfull_interval() {
        let config = FdsConfig {
            heartbeat_interval: SimDuration::from_millis(50),
            ..FdsConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("too short"), "{err}");
    }

    #[test]
    fn round_offsets_are_multiples_of_t_hop() {
        let c = FdsConfig::default();
        assert_eq!(c.r2_offset(), c.t_hop);
        assert_eq!(c.r3_offset(), c.t_hop * 2);
        assert_eq!(c.post_offset(), c.t_hop * 3);
    }
}

cbfd_net::impl_persist!(FdsConfig {
    t_hop,
    heartbeat_interval,
    digest_round,
    peer_forwarding,
    promiscuous_recovery,
    bgw_assist,
    cumulative_reports,
    admit_unmarked,
    sleep_announcements,
    aggregation,
    energy_balanced_forwarding,
    retention_epochs,
    detection_mode,
});
