//! Ad hoc wireless network substrate for the cluster-based failure
//! detection service (CBFD).
//!
//! This crate implements everything the DSN 2004 paper *assumes* about
//! its environment (Sections 2.2 and 5):
//!
//! * a **unit-disk radio model** — every host has the same transmission
//!   range `R`, and a link exists between two hosts iff their distance
//!   is at most `R`;
//! * **promiscuous receiving** — a transmission is heard by *every*
//!   in-range host, regardless of the intended recipient, so the only
//!   physical-layer primitive is a local broadcast;
//! * **per-receiver i.i.d. message loss** — a transmitted message
//!   independently fails to reach each in-range neighbour with
//!   probability `p` (the paper's channel model; burst-loss and
//!   distance-dependent models are provided as extensions);
//! * **bounded delivery delay** — within the transmission range a
//!   message arrives within a known bound `Thop`;
//! * a **discrete-event simulator** that runs per-node protocol actors
//!   against this radio model with deterministic, seedable randomness,
//!   fail-stop crash injection, and message/energy accounting.
//!
//! # Quick example
//!
//! ```
//! use cbfd_net::prelude::*;
//!
//! // A trivial actor that broadcasts one message and counts receipts.
//! #[derive(Default)]
//! struct Pinger { heard: usize }
//!
//! impl Actor for Pinger {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         ctx.broadcast(());
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: &()) {
//!         self.heard += 1;
//!     }
//! }
//!
//! let positions = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
//! let topology = Topology::from_positions(positions, 100.0);
//! let mut sim = Simulator::new(topology, RadioConfig::lossless(), 42, |_id| Pinger::default());
//! sim.run_until(SimTime::from_millis(10));
//! assert_eq!(sim.actor(NodeId(1)).heard, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod chaos;
pub mod checkpoint;
pub mod energy;
pub mod event;
pub mod geometry;
pub mod id;
pub mod loss;
pub mod metrics;
pub mod par;
pub mod placement;
pub mod radio;
pub mod rng;
pub mod sim;
pub mod tiled;
pub mod time;
pub mod topology;
pub mod trace;

#[cfg(test)]
mod differential;

/// Convenient glob-import of the most commonly used substrate types.
pub mod prelude {
    pub use crate::actor::{Actor, Ctx, TimerToken};
    pub use crate::geometry::Point;
    pub use crate::id::NodeId;
    pub use crate::loss::LossModel;
    pub use crate::par::{self, par_map};
    pub use crate::placement::{self, Placement};
    pub use crate::radio::RadioConfig;
    pub use crate::sim::Simulator;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::Topology;
}
