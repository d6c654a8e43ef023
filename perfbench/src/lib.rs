//! # perfbench — the repository benchmark
//!
//! Three simulator workloads, from the paper's single-shot decision to a
//! faulty replicated log, plus per-layer sessions on the threaded runtime,
//! driven only through the public API of the `esync-*` crates.
//! See `README.md` for the workloads, the metrics and what each judges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod layer;
pub mod rt;
pub mod sim;
pub mod stats;
