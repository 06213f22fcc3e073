//! Per-node energy accounting.
//!
//! Hosts in the paper harvest energy with solar cells, but transmission
//! cost still dominates their budget; the FDS's peer-forwarding scheme
//! deliberately spreads forwarding load by making the waiting period
//! "inversely proportional to the node's remaining energy"
//! (Section 4.2). [`EnergyBook`] tracks the remaining-energy figures
//! that this policy consumes.

use crate::id::NodeId;
use serde::{Deserialize, Serialize};

/// Energy cost parameters (joule-like abstract units).
///
/// # Examples
///
/// ```
/// use cbfd_net::energy::EnergyModel;
///
/// let model = EnergyModel::default();
/// assert!(model.tx_cost > model.rx_cost, "transmitting costs more than receiving");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Initial charge of every node.
    pub initial: f64,
    /// Cost of one transmission.
    pub tx_cost: f64,
    /// Cost of receiving one message copy.
    pub rx_cost: f64,
    /// Energy harvested per simulated second (solar recharge).
    pub harvest_per_sec: f64,
}

impl Default for EnergyModel {
    /// Default model: 1000 units of charge, transmissions ten times as
    /// expensive as receptions, no harvesting.
    fn default() -> Self {
        EnergyModel {
            initial: 1_000.0,
            tx_cost: 1.0,
            rx_cost: 0.1,
            harvest_per_sec: 0.0,
        }
    }
}

/// Remaining-energy ledger for all nodes of a simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBook {
    model: EnergyModel,
    remaining: Vec<f64>,
}

impl EnergyBook {
    /// Creates a ledger for `n` nodes, each at the model's initial
    /// charge.
    pub fn new(n: usize, model: EnergyModel) -> Self {
        EnergyBook {
            model,
            remaining: vec![model.initial; n],
        }
    }

    /// The cost model in force.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Remaining charge of `node` (clamped at zero).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn remaining(&self, node: NodeId) -> f64 {
        self.remaining[node.index()]
    }

    /// Charges `node` for one transmission.
    pub fn charge_tx(&mut self, node: NodeId) {
        self.debit(node, self.model.tx_cost);
    }

    /// Charges `node` for one received copy.
    pub fn charge_rx(&mut self, node: NodeId) {
        self.debit(node, self.model.rx_cost);
    }

    /// Credits every node with `secs` seconds of harvested energy,
    /// capped at the initial charge.
    pub fn harvest(&mut self, secs: f64) {
        let gain = self.model.harvest_per_sec * secs;
        if gain <= 0.0 {
            return;
        }
        for r in &mut self.remaining {
            *r = (*r + gain).min(self.model.initial);
        }
    }

    /// Standard deviation of remaining charge across nodes — the
    /// energy-balance figure of merit for forwarding policies.
    pub fn imbalance(&self) -> f64 {
        let n = self.remaining.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.remaining.iter().sum::<f64>() / n as f64;
        let var = self
            .remaining
            .iter()
            .map(|r| (r - mean) * (r - mean))
            .sum::<f64>()
            / n as f64;
        var.sqrt()
    }

    fn debit(&mut self, node: NodeId, amount: f64) {
        let r = &mut self.remaining[node.index()];
        *r = (*r - amount).max(0.0);
    }
}

crate::impl_persist!(EnergyModel {
    initial,
    tx_cost,
    rx_cost,
    harvest_per_sec,
});
crate::impl_persist!(EnergyBook { model, remaining });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_reduce_remaining() {
        let mut book = EnergyBook::new(2, EnergyModel::default());
        book.charge_tx(NodeId(0));
        book.charge_rx(NodeId(0));
        assert!((book.remaining(NodeId(0)) - 998.9).abs() < 1e-9);
        assert_eq!(book.remaining(NodeId(1)), 1_000.0);
    }

    #[test]
    fn remaining_clamps_at_zero() {
        let model = EnergyModel {
            initial: 1.5,
            tx_cost: 1.0,
            rx_cost: 0.1,
            harvest_per_sec: 0.0,
        };
        let mut book = EnergyBook::new(1, model);
        book.charge_tx(NodeId(0));
        book.charge_tx(NodeId(0));
        assert_eq!(book.remaining(NodeId(0)), 0.0);
    }

    #[test]
    fn harvest_caps_at_initial() {
        let model = EnergyModel {
            initial: 10.0,
            tx_cost: 4.0,
            rx_cost: 0.0,
            harvest_per_sec: 3.0,
        };
        let mut book = EnergyBook::new(1, model);
        book.charge_tx(NodeId(0));
        book.harvest(1.0);
        assert_eq!(book.remaining(NodeId(0)), 9.0);
        book.harvest(10.0);
        assert_eq!(book.remaining(NodeId(0)), 10.0, "capped at initial");
    }

    #[test]
    fn imbalance_zero_when_uniform() {
        let mut book = EnergyBook::new(3, EnergyModel::default());
        assert_eq!(book.imbalance(), 0.0);
        book.charge_tx(NodeId(0));
        assert!(book.imbalance() > 0.0);
    }

    #[test]
    fn empty_book_is_well_behaved() {
        let book = EnergyBook::new(0, EnergyModel::default());
        assert_eq!(book.imbalance(), 0.0);
    }
}
