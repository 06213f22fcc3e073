//! Cluster-based failure detection service (CBFD) for large-scale ad
//! hoc wireless network applications.
//!
//! This crate implements the failure detection service of
//!
//! > A. T. Tai, K. S. Tso, W. H. Sanders, *"Cluster-Based Failure
//! > Detection Service for Large-Scale Ad Hoc Wireless Network
//! > Applications"*, DSN 2004,
//!
//! on top of the [`cbfd_net`] wireless substrate and the
//! [`cbfd_cluster`] formation algorithms. The service provides
//! **probabilistic guarantees** of two properties that cannot be
//! guaranteed deterministically over lossy radio channels:
//!
//! * **Completeness** — every node failure is reported to every
//!   operational node;
//! * **Accuracy** — no operational node is suspected by other
//!   operational nodes.
//!
//! # Architecture
//!
//! Every heartbeat interval `φ`, each cluster executes three rounds of
//! duration `Thop`:
//!
//! 1. [`fds.R-1` heartbeat exchange](crate::message::FdsMsg::Heartbeat)
//!    — every member heartbeats; promiscuous receiving turns each
//!    heartbeat into a local diffusion;
//! 2. [`fds.R-2` digest exchange](crate::message::Digest) — every
//!    member reports which heartbeats it overheard, giving the
//!    clusterhead time, spatial, *and* message redundancy;
//! 3. [`fds.R-3` health-status update](crate::message::HealthUpdate)
//!    — the clusterhead applies the
//!    [failure-detection rule](crate::rules::detect_failures) and
//!    broadcasts the verdict; a deputy applies the
//!    [CH-failure rule](crate::rules::ch_failed) to the head itself.
//!
//! Members that miss the update recover it by energy-balanced
//! [peer forwarding](crate::peer_forward); newly detected failures
//! travel across clusters through gateways with
//! [implicit acknowledgments](crate::node) and ranked backup-gateway
//! timeouts.
//!
//! # Quick example
//!
//! ```
//! use cbfd_core::config::FdsConfig;
//! use cbfd_core::service::{Experiment, PlannedCrash};
//! use cbfd_cluster::FormationConfig;
//! use cbfd_net::geometry::Point;
//! use cbfd_net::id::NodeId;
//! use cbfd_net::topology::Topology;
//!
//! // A small two-cluster field; crash node 5 and watch the service
//! // inform everyone.
//! let positions = (0..8).map(|i| Point::new(i as f64 * 45.0, 0.0)).collect();
//! let topology = Topology::from_positions(positions, 100.0);
//! let experiment = Experiment::new(topology, FdsConfig::default(), FormationConfig::default());
//! let outcome = experiment.run(
//!     0.05,                                        // message-loss probability
//!     8,                                           // heartbeat intervals
//!     &[PlannedCrash { epoch: 2, node: NodeId(5) }],
//!     42,                                          // seed
//! );
//! assert!(outcome.detection_latency.contains_key(&NodeId(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod aggregation;
pub mod bitmap;
pub mod config;
pub mod health;
pub mod ledger;
pub mod message;
pub mod node;
pub mod peer_forward;
pub mod profile;
pub mod reference;
pub mod rules;
pub mod service;
pub mod view;

/// Re-export of the [`bytes`] crate: [`message::FdsMsg::decode`]
/// takes [`bytes::Bytes`], so downstream users need the same version.
pub use bytes;

pub use config::FdsConfig;
pub use message::FdsMsg;
pub use node::FdsNode;
pub use service::{Experiment, FdsOutcome, PlannedCrash};
pub use view::FailureView;
