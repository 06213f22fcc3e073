//! Adaptive ◇P detection: per-link deadline estimation in the
//! ADD-channel style plus an accrual suspicion score.
//!
//! The paper's detector condemns a member after a fixed three-round
//! silence, which is optimal on the i.i.d. channel it was analyzed
//! under but either false-suspects or detects late on the bursty,
//! partitioned, and delay-jittered channels the chaos subsystem
//! generates. `DetectionMode::Adaptive` replaces the fixed rule with
//! the machinery in this module:
//!
//! * a [`LinkEstimator`] per monitored member keeps a **bounded ring**
//!   of inter-arrival gaps of heard-from evidence (direct heartbeat or
//!   digest reflection, exactly the evidence `rules::RoundEvidence`
//!   already collects). The link deadline is `max(observed gaps) +
//!   slack` epochs — the ADD-channel construction of Kumar & Welch,
//!   where a channel that delivered within `d` before is trusted for
//!   `d` again;
//! * an **accrual score** in integer milli-units: `elapsed × 1000 /
//!   deadline`, so 1000 means "one full deadline of silence". All
//!   arithmetic is integral over epoch counters — no floats, so the
//!   score is byte-deterministic across platforms and worker counts;
//! * two thresholds, the constants of this module:
//!   [`SUSPECT_MILLIS`] marks the link *suspected* (retractable,
//!   gossiped via the optional digest suspicion field), and
//!   [`CONDEMN_MILLIS`] lets an authority condemn. Evidence
//!   arriving while suspected retracts the suspicion (◇P
//!   self-correction) and — crucially — records the longer gap, so the
//!   link is trusted for longer next time and the same burst cannot
//!   re-trip it.
//!
//! Bounded state: one estimator per live roster member, each holding at
//! most [`WINDOW`] gap samples; estimators of condemned or
//! departed members are pruned by the node's ledger GC. The node keeps
//! them **id-keyed** (a flat `ledger::SortedMap<NodeId, LinkEstimator>`,
//! never roster-position-keyed): positions renumber when roster
//! compaction retires members, and a position-keyed estimator would
//! silently start scoring a different node mid-epoch (the aliasing
//! hazard of DESIGN.md §16). Bounded messages: the only wire delta is
//! the optional suspicion bitmap on the existing digest (one bit per
//! roster position).

use cbfd_net::id::NodeId;

/// Gap samples kept per monitored link (the bounded ring of the
/// ADD-channel estimator).
pub const WINDOW: u32 = 8;

/// Epochs of slack added to the largest observed gap when computing a
/// link's deadline.
pub const SLACK: u64 = 1;

/// Accrual score (milli-deadlines of silence) at which a link becomes
/// *suspected*: retractable, gossiped via the digest suspicion field.
/// 1000 = one full deadline.
pub const SUSPECT_MILLIS: u64 = 1000;

/// Accrual score at which an authority condemns: two deadlines, or 1.5
/// with one epoch of corroboration.
pub const CONDEMN_MILLIS: u64 = 2000;

const _: () = assert!(WINDOW > 0 && SUSPECT_MILLIS > 0 && CONDEMN_MILLIS >= SUSPECT_MILLIS);

/// One milli-unit accrual bonus granted when at least one peer's digest
/// corroborates the suspicion this epoch: half a deadline. Corroborated
/// real crashes condemn about one epoch sooner; an isolated receive
/// fade at a single observer does not accelerate.
pub const CORROBORATION_BONUS_MILLIS: u64 = 500;

/// Per-link ADD-channel deadline estimator with accrual scoring.
///
/// Epochs are the time unit: evidence is evaluated once per epoch from
/// delivered events only, so the estimator (and everything derived
/// from it) is deterministic for any worker count or tile grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEstimator {
    /// Epoch of the most recent heard-from evidence (or the watch
    /// start, which counts as evidence so a fresh link is not
    /// instantly suspect).
    last_evidence: u64,
    /// Bounded ring of observed inter-evidence gaps, in epochs.
    gaps: Vec<u64>,
    /// Next ring slot to overwrite once the ring is full.
    next_slot: u32,
    /// Whether the link is currently suspected.
    suspected: bool,
}

impl LinkEstimator {
    /// Starts watching a link, treating `epoch` as the first evidence.
    pub fn new(epoch: u64) -> Self {
        LinkEstimator {
            last_evidence: epoch,
            gaps: Vec::new(),
            next_slot: 0,
            suspected: false,
        }
    }

    /// Records heard-from evidence at `epoch`, keeping at most
    /// `window` gap samples. Returns `true` when the link was
    /// suspected — the caller retracts the suspicion (◇P
    /// self-correction on late evidence).
    ///
    /// Evidence at or before `last_evidence` is stale (a reordered or
    /// replayed observation of an epoch already credited) and is
    /// ignored entirely: gaps only ever measure forward progress, so
    /// reordered-but-causal delivery cannot shrink a deadline.
    pub fn record_evidence(&mut self, epoch: u64, window: u32) -> bool {
        if epoch <= self.last_evidence {
            return false;
        }
        let gap = epoch - self.last_evidence;
        let window = window.max(1) as usize;
        if self.gaps.len() < window {
            self.gaps.push(gap);
        } else {
            if self.gaps.len() > window {
                // A reconfigured (smaller) window after restore:
                // shrink deterministically, keeping the newest samples'
                // slots intact by truncating the tail.
                self.gaps.truncate(window);
            }
            let slot = (self.next_slot as usize) % window;
            self.gaps[slot] = gap;
            self.next_slot = ((slot + 1) % window) as u32;
        }
        self.last_evidence = epoch;
        std::mem::take(&mut self.suspected)
    }

    /// The current per-link deadline in epochs: the largest gap ever
    /// observed within the ring, plus `slack`, and never below one
    /// epoch.
    pub fn deadline(&self, slack: u64) -> u64 {
        self.gaps.iter().copied().max().unwrap_or(1).max(1) + slack
    }

    /// The accrual suspicion score at `now`, in milli-units of the
    /// current deadline: 0 while evidence is fresh, 1000 after one
    /// full deadline of silence, growing without bound. Integer
    /// arithmetic only.
    pub fn score_millis(&self, now: u64, slack: u64) -> u64 {
        let elapsed = now.saturating_sub(self.last_evidence);
        elapsed.saturating_mul(1000) / self.deadline(slack)
    }

    /// Whether the link is currently suspected.
    pub fn is_suspected(&self) -> bool {
        self.suspected
    }

    /// Marks the link suspected (the suspect→trust transition back is
    /// taken by [`LinkEstimator::record_evidence`]).
    pub fn mark_suspected(&mut self) {
        self.suspected = true;
    }

    /// Epoch of the most recent credited evidence.
    pub fn last_evidence(&self) -> u64 {
        self.last_evidence
    }

    /// Gap samples currently held (at most the configured window).
    pub fn samples(&self) -> usize {
        self.gaps.len()
    }
}

cbfd_net::impl_persist!(LinkEstimator {
    last_evidence,
    gaps,
    next_slot,
    suspected
});

/// One suspect→(trust|condemn) episode in a node's suspicion log.
///
/// `retracted` is `Some(epoch)` once late evidence (or the subject's
/// announced rejoin/leave, or the observer's own restart) cleared the
/// suspicion; an entry that never retracts either aged out of the
/// retention window or ended in condemnation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspicionEvent {
    /// Epoch the suspicion was raised.
    pub epoch: u64,
    /// The suspected member.
    pub subject: NodeId,
    /// Accrual score (milli-units) at the moment of suspicion.
    pub score: u64,
    /// Epoch the suspicion was retracted, if it ever was.
    pub retracted: Option<u64>,
}

cbfd_net::impl_persist!(SuspicionEvent {
    epoch,
    subject,
    score,
    retracted
});

#[cfg(test)]
mod tests {
    use super::*;
    use cbfd_net::checkpoint::{Persist, Reader, Writer};

    #[test]
    fn fresh_link_scores_zero() {
        let est = LinkEstimator::new(5);
        assert_eq!(est.score_millis(5, 1), 0);
        assert_eq!(est.deadline(1), 2, "no samples: max gap defaults to 1");
        assert!(!est.is_suspected());
    }

    #[test]
    fn score_grows_with_silence_and_resets_on_evidence() {
        let mut est = LinkEstimator::new(0);
        assert_eq!(est.score_millis(2, 1), 1000, "2 epochs / deadline 2");
        assert_eq!(est.score_millis(4, 1), 2000);
        est.record_evidence(4, 8);
        assert_eq!(est.score_millis(4, 1), 0);
        // The 4-epoch gap is now the max: deadline 5, so the same
        // 2-epoch silence scores lower than before.
        assert_eq!(est.deadline(1), 5);
        assert_eq!(est.score_millis(6, 1), 400);
    }

    #[test]
    fn stale_evidence_is_ignored() {
        let mut est = LinkEstimator::new(10);
        est.record_evidence(12, 8);
        let before = est.clone();
        assert!(!est.record_evidence(12, 8), "same epoch: no-op");
        assert!(!est.record_evidence(7, 8), "older epoch: no-op");
        assert_eq!(est, before);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let mut est = LinkEstimator::new(0);
        // One big gap, then many 1-epoch gaps: the big sample must be
        // evicted after `window` further arrivals.
        est.record_evidence(6, 4); // gap 6
        assert_eq!(est.deadline(0), 6);
        for e in 7..=10 {
            est.record_evidence(e, 4); // gaps 1,1,1,1 fill + evict
        }
        assert_eq!(est.samples(), 4);
        assert_eq!(est.deadline(0), 1, "the gap-6 sample aged out");
    }

    #[test]
    fn retraction_is_reported_exactly_once() {
        let mut est = LinkEstimator::new(0);
        est.mark_suspected();
        assert!(est.record_evidence(3, 8), "first evidence retracts");
        assert!(!est.record_evidence(4, 8), "already trusted");
        assert!(!est.is_suspected());
    }

    #[test]
    fn window_one_still_works() {
        let mut est = LinkEstimator::new(0);
        est.record_evidence(2, 1);
        est.record_evidence(5, 1);
        assert_eq!(est.samples(), 1);
        assert_eq!(est.deadline(0), 3, "only the newest gap is kept");
    }

    #[test]
    fn persist_round_trips() {
        let mut est = LinkEstimator::new(3);
        est.record_evidence(5, 4);
        est.record_evidence(9, 4);
        est.mark_suspected();
        let mut w = Writer::new();
        est.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = LinkEstimator::restore(&mut r).expect("restores");
        assert_eq!(back, est);

        let ev = SuspicionEvent {
            epoch: 7,
            subject: NodeId(42),
            score: 1500,
            retracted: Some(9),
        };
        let mut w = Writer::new();
        ev.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(SuspicionEvent::restore(&mut r).expect("restores"), ev);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The gap ring never outgrows its window and the deadline
        /// never degenerates, whatever evidence pattern arrives.
        #[test]
        fn ring_memory_is_bounded(
            window in 1u32..12,
            gaps in proptest::collection::vec(1u64..20, 0..64),
        ) {
            let mut est = LinkEstimator::new(0);
            let mut epoch = 0u64;
            for g in gaps {
                epoch += g;
                est.record_evidence(epoch, window);
                prop_assert!(est.samples() <= window as usize);
                prop_assert!(est.deadline(0) >= 1);
            }
        }

        /// Reordered-but-causal delivery: observations arriving in any
        /// order leave exactly the state of the strictly-forward
        /// (running-max) subsequence, and with an unbounded window the
        /// deadline is monotone — stale replays can never shrink it.
        #[test]
        fn reordered_delivery_matches_causal_subsequence(
            obs in proptest::collection::vec(0u64..200, 1..48),
        ) {
            let mut est = LinkEstimator::new(0);
            let mut last_deadline = est.deadline(1);
            for &e in &obs {
                est.record_evidence(e, 64);
                prop_assert!(est.deadline(1) >= last_deadline);
                last_deadline = est.deadline(1);
            }
            let mut clean = LinkEstimator::new(0);
            let mut hi = 0u64;
            for &e in &obs {
                if e > hi {
                    hi = e;
                    clean.record_evidence(e, 64);
                }
            }
            prop_assert_eq!(est, clean);
        }

        /// ◇P on a quiet (eventually well-behaved) channel: late
        /// evidence always retracts a suspicion and zeroes the score; a
        /// channel that keeps delivering every epoch never accrues; and
        /// permanent silence crosses any condemnation threshold within
        /// a bounded number of epochs.
        #[test]
        fn quiet_channel_converges_and_silence_condemns(
            gaps in proptest::collection::vec(1u64..10, 1..16),
            slack in 0u64..4,
            condemn in 1000u64..4000,
        ) {
            let mut est = LinkEstimator::new(0);
            let mut epoch = 0u64;
            for g in &gaps {
                epoch += g;
                est.record_evidence(epoch, 8);
            }
            est.mark_suspected();
            prop_assert!(est.record_evidence(epoch + 1, 8), "late evidence retracts");
            prop_assert!(!est.is_suspected());
            epoch += 1;
            prop_assert_eq!(est.score_millis(epoch, slack), 0);

            let d = est.deadline(slack);
            let bound = d * condemn.div_ceil(1000) + d;
            prop_assert!(
                est.score_millis(epoch + bound, slack) >= condemn,
                "permanent silence must condemn within {bound} epochs"
            );

            for e in epoch + 1..epoch + 20 {
                est.record_evidence(e, 8);
                prop_assert_eq!(est.score_millis(e, slack), 0, "live channel never accrues");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The full adaptive service is a pure function of its seed:
        /// two runs over a random field with a crash injected produce
        /// byte-identical outcomes, suspicion counts included.
        #[test]
        fn adaptive_service_is_seed_deterministic(
            seed in 0u64..1_000_000,
            n in 10usize..24,
        ) {
            use crate::config::{DetectionMode, FdsConfig};
            use crate::service::{Experiment, PlannedCrash};
            use cbfd_cluster::FormationConfig;
            use cbfd_net::geometry::{Point, Rect};
            use cbfd_net::topology::Topology;
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};

            let mut rng = StdRng::seed_from_u64(seed);
            let side = 300.0;
            let positions: Vec<Point> = (0..n)
                .map(|_| {
                    let r = Rect::square(side);
                    Point::new(
                        rng.random_range(0.0..r.width()),
                        rng.random_range(0.0..r.height()),
                    )
                })
                .collect();
            let topology = Topology::from_positions(positions, 100.0);
            let fds = FdsConfig {
                detection_mode: DetectionMode::Adaptive,
                ..FdsConfig::default()
            };
            let exp = Experiment::new(topology, fds, FormationConfig::default());
            let crashes = [PlannedCrash {
                epoch: 1,
                node: cbfd_net::id::NodeId((seed % n as u64) as u32),
            }];
            let a = exp.run(0.10, 5, &crashes, seed);
            let b = exp.run(0.10, 5, &crashes, seed);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
