//! # record-bench — the benchmark of record
//!
//! Four workloads that load different layers of the simulator, each run
//! end to end with its simulated outcome checked against a digest, plus a
//! traced mode that splits a run's wall time across layers by timing, from
//! outside, the calls the driver makes into each store, and a host-speed
//! probe that the time metrics are adjusted by. See `README.md`.

pub mod alloc;
pub mod calibrate;
pub mod digest;
pub mod report;
pub mod tally;
pub mod timed;
pub mod workloads;
