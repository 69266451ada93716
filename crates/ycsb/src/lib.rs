//! # ycsb — YCSB-style workload generation and benchmark drivers
//!
//! The RNTree paper evaluates concurrency with "well-known YCSB
//! benchmarks" (§6): YCSB-A (50% read / 50% update) under uniform and
//! zipfian key distributions, a skewed read-intensive mix (90/10), an
//! open-loop latency experiment at fixed request frequencies (Figure 9),
//! and a zipfian-coefficient sweep (Figure 10). This crate reproduces that
//! tooling:
//!
//! * [`KeyDist`] — uniform, zipfian (the standard YCSB zeta construction)
//!   and *scrambled* zipfian. The paper hashes keys "to distribute hottest
//!   keys to different leaf nodes"; scrambled zipfian is exactly that.
//! * [`WorkloadSpec`] / [`Mix`] — operation mixes with presets for the
//!   paper's workloads.
//! * [`run_closed_loop`] — N worker threads issuing back-to-back requests
//!   for a fixed duration; reports throughput and per-operation latency.
//! * [`run_open_loop`] — workers issue requests on a fixed schedule
//!   (requests/second); latency is measured from *scheduled* arrival, so
//!   queueing delay shows up, as Figure 9 requires.
//! * [`Histogram`] — mergeable log-bucket latency histogram (~6% value
//!   precision) with mean/percentile queries.

#![deny(missing_docs)]

mod driver;
mod hist;
mod keygen;
mod workload;

pub use driver::{run_closed_loop, run_closed_loop_k, run_open_loop, LoopResult};
pub use hist::Histogram;
pub use keygen::{KeyDist, KeyGen, KeyShape};
pub use workload::{Mix, OpKind, WorkloadSpec};
