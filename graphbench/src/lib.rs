//! `graphbench` — the repository's one benchmark: four workloads from
//! Datalog text to TCP reply, end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones. See `README.md` beside this crate.

pub mod batch;
pub mod cli;
pub mod manifest;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
