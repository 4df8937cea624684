//! futrace's benchmark: time to a checked race verdict, end to end and per
//! layer. See `README.md` in this directory for the workloads, the metrics
//! and how to run it.

pub mod bench;
pub mod output;
pub mod programs;
pub mod spans;
pub mod stats;
