//! The repository benchmark: three fixed-work YCSB workloads over the
//! default `RnTree`, with exact latency percentiles, output verification
//! against a model, and a per-layer ledger timed from outside the
//! program. See `README.md` beside this crate.

mod host;
mod model;
pub mod run;
mod stats;
mod trace;
pub mod workload;
