//! Message-traffic accounting.
//!
//! The paper's design choices (implicit acknowledgments, "no news is
//! good news" suppression, peer forwarding instead of clusterhead
//! retransmission) are all motivated by transmission cost; these
//! counters let experiments compare protocols by the traffic they
//! generate.

use crate::id::NodeId;
use serde::{Deserialize, Serialize};

/// Counters accumulated by the simulator over one run.
///
/// # Examples
///
/// ```
/// use cbfd_net::metrics::SimMetrics;
/// use cbfd_net::id::NodeId;
///
/// let mut m = SimMetrics::new(2);
/// m.record_transmission(NodeId(0), 1);
/// m.record_delivery();
/// assert_eq!(m.transmissions, 1);
/// assert_eq!(m.delivery_ratio(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Number of transmissions (each heard by many receivers).
    pub transmissions: u64,
    /// Copies that reached a receiver.
    pub deliveries: u64,
    /// Copies lost on the channel.
    pub losses: u64,
    /// Copies addressed to nodes that had crashed.
    pub dropped_dead: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Per-node transmission counts, indexed by `NodeId::index()`.
    pub tx_per_node: Vec<u64>,
}

impl SimMetrics {
    /// Creates zeroed counters for `n` nodes.
    pub fn new(n: usize) -> Self {
        SimMetrics {
            transmissions: 0,
            deliveries: 0,
            losses: 0,
            dropped_dead: 0,
            timers_fired: 0,
            tx_per_node: vec![0; n],
        }
    }

    /// Records one transmission by `from` that will be offered to
    /// `receivers` in-range neighbours.
    pub fn record_transmission(&mut self, from: NodeId, receivers: usize) {
        let _ = receivers;
        self.transmissions += 1;
        if let Some(slot) = self.tx_per_node.get_mut(from.index()) {
            *slot += 1;
        }
    }

    /// Records one successfully delivered copy.
    pub fn record_delivery(&mut self) {
        self.deliveries += 1;
    }

    /// Records one copy lost on the channel.
    pub fn record_loss(&mut self) {
        self.losses += 1;
    }

    /// Records one copy suppressed because the receiver had crashed.
    pub fn record_dropped_dead(&mut self) {
        self.dropped_dead += 1;
    }

    /// Records a fired timer.
    pub fn record_timer(&mut self) {
        self.timers_fired += 1;
    }

    /// Fraction of offered copies that were delivered; `1.0` when no
    /// copy was ever offered.
    pub fn delivery_ratio(&self) -> f64 {
        let offered = self.deliveries + self.losses;
        if offered == 0 {
            1.0
        } else {
            self.deliveries as f64 / offered as f64
        }
    }
}

crate::impl_persist!(SimMetrics {
    transmissions,
    deliveries,
    losses,
    dropped_dead,
    timers_fired,
    tx_per_node,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = SimMetrics::new(3);
        m.record_transmission(NodeId(1), 2);
        m.record_transmission(NodeId(1), 2);
        m.record_delivery();
        m.record_loss();
        m.record_dropped_dead();
        m.record_timer();
        assert_eq!(m.transmissions, 2);
        assert_eq!(m.tx_per_node, vec![0, 2, 0]);
        assert_eq!(m.deliveries, 1);
        assert_eq!(m.losses, 1);
        assert_eq!(m.dropped_dead, 1);
        assert_eq!(m.timers_fired, 1);
    }

    #[test]
    fn delivery_ratio_handles_zero() {
        assert_eq!(SimMetrics::new(0).delivery_ratio(), 1.0);
        let mut m = SimMetrics::new(1);
        m.record_delivery();
        m.record_delivery();
        m.record_loss();
        assert!((m.delivery_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_transmitter_is_tolerated() {
        let mut m = SimMetrics::new(1);
        m.record_transmission(NodeId(9), 0);
        assert_eq!(m.transmissions, 1);
        assert_eq!(m.tx_per_node, vec![0]);
    }
}
