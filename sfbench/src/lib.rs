//! `sfbench` — the repo's benchmark: six edit-loop workloads driven
//! against the real `minicc` binary, end-to-end metrics measured from
//! outside, and a separate traced run for the per-layer ledger. See
//! `BENCHMARK.md` beside this crate.

pub mod check;
pub mod e2e;
pub mod lane;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
