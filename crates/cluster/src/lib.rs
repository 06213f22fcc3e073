//! Cluster formation for ad hoc wireless networks.
//!
//! This crate implements the cluster-based communication architecture
//! of the DSN 2004 paper (Section 3): a variant of the classic
//! lowest-ID clustering algorithms of Baker–Ephremides and Gerla–Tsai
//! extended with the paper's features **F1–F5**:
//!
//! * **F1** — clusters partially overlap, so gateways (GWs) connect
//!   directly to two or more clusterheads (CHs), and with high
//!   probability multiple gateway candidates exist per cluster pair;
//! * **F2** — high population density is exploited to elect **deputy
//!   clusterheads** (DCHs) and **backup gateways** (BGWs);
//! * **F3** — every gateway is affiliated with exactly one cluster;
//! * **F4** — formation is open-ended: new (unmarked) hosts are
//!   admitted by simply running further iterations;
//! * **F5** — the first formation round can merge with the failure
//!   detection service's heartbeat round (implemented by the FDS crate:
//!   an acting head admits unmarked nodes whose heartbeats it hears).
//!
//! Two interchangeable implementations are provided:
//!
//! * [`oracle`] — a deterministic, geometric formation computed from
//!   global topology knowledge; this is what analyses and most
//!   experiments use;
//! * [`protocol`] — a fully distributed, message-driven formation that
//!   runs inside the `cbfd-net` simulator; on a lossless channel it
//!   produces exactly the oracle's clustering (tested).
//!
//! # Quick example
//!
//! ```
//! use cbfd_cluster::oracle;
//! use cbfd_cluster::FormationConfig;
//! use cbfd_net::geometry::Point;
//! use cbfd_net::topology::Topology;
//!
//! // Two overlapping clusters on a line.
//! let positions = (0..6).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect();
//! let topology = Topology::from_positions(positions, 100.0);
//! let view = oracle::form(&topology, &FormationConfig::default());
//! assert!(view.clusters().count() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod invariants;
pub mod oracle;
pub mod protocol;
pub mod role;
pub mod stats;
pub mod view;

pub use cluster::Cluster;
pub use role::Role;
pub use view::ClusterView;

use serde::{Deserialize, Serialize};

/// Tunables of the formation algorithm.
///
/// # Examples
///
/// ```
/// use cbfd_cluster::FormationConfig;
///
/// let config = FormationConfig { max_deputies: 3, ..FormationConfig::default() };
/// assert_eq!(config.max_deputies, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FormationConfig {
    /// Maximum number of deputy clusterheads elected per cluster (F2).
    pub max_deputies: usize,
    /// Maximum number of backup gateways elected per neighbouring
    /// cluster pair (F2); the primary gateway is not counted.
    pub max_backup_gateways: usize,
}

impl Default for FormationConfig {
    /// Two deputies and up to three backup gateways, reflecting the
    /// paper's reliance on high population density for role
    /// redundancy.
    fn default() -> Self {
        FormationConfig {
            max_deputies: 2,
            max_backup_gateways: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_has_redundancy() {
        let c = FormationConfig::default();
        assert!(c.max_deputies >= 1);
        assert!(c.max_backup_gateways >= 1);
    }
}
