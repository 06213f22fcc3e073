//! `stackbench`: the benchmark of record for the CBFD stack.
//!
//! One measured run (`--trace 0`) prints the end-to-end metrics of a
//! workload; one traced run (`--trace 1`) prints its per-layer metrics
//! and writes the span file. Everything is driven through the
//! system's public functions and timed from outside — see
//! `benchmark/README.md` for the definitions.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod digest;
pub mod guard;
pub mod measure;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workload;
