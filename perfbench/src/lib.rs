//! A deterministic single-thread cluster benchmark for MRP-Store and
//! dLog on both atomic-multicast engines. See `NOTES.md` for the model,
//! the workloads and the metrics.

pub mod app;
pub mod cluster;
pub mod report;
pub mod trace;
pub mod workloads;
