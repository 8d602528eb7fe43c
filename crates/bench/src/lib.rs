//! # sfcc-bench
//!
//! The experiment harness of the `sfcc` reproduction: one module per
//! table/figure of the evaluation (see DESIGN.md for the experiment index),
//! a replay driver that runs matched stateless/stateful builds over
//! identical commit histories, and table formatting.
//!
//! Every experiment is a library function returning its report as text, so
//! the `exp_*` binaries stay thin and the experiments themselves are
//! exercised by `cargo test` at reduced scale.

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{
    paired_replay, replay, replay_with, run_program, speedup_percent, BuildMeasurement, Replay,
};
pub use table::{frac_pct, ms, pct, Table};

use sfcc_trace::json::{self, Value};
use std::path::Path;

/// Writes an experiment's machine-readable artifact `name` and says where it
/// went: into the current directory at [`Scale::Full`], and under
/// `target/bench-quick/` at [`Scale::Quick`], so a quick run never replaces
/// a checked-in full-scale artifact.
pub fn write_artifact(scale: Scale, name: &str, doc: &Value) {
    let dir = match scale {
        Scale::Full => ".",
        Scale::Quick => "target/bench-quick",
    };
    let path = Path::new(dir).join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json::write(doc))) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncannot write {}: {e}", path.display()),
    }
}

/// `x` rounded to `places` decimals: an artifact's ratios carry no more
/// digits than the measurement supports.
pub fn rounded(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((x * scale).round() / scale)
}

/// Experiment scale: `Quick` for tests/CI, `Full` for the paper-style runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small projects, few commits — seconds.
    Quick,
    /// Evaluation-sized projects and commit counts — minutes.
    Full,
}

impl Scale {
    /// Parses `--quick` from argv; defaults to [`Scale::Full`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Commits to replay per project.
    pub fn commits(self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 30,
        }
    }

    /// The benchmark project suite at this scale.
    pub fn suite(self, seed: u64) -> Vec<sfcc_workload::GeneratorConfig> {
        match self {
            Scale::Quick => vec![
                sfcc_workload::GeneratorConfig::small(seed),
                sfcc_workload::GeneratorConfig::medium(seed + 1),
            ],
            Scale::Full => sfcc_workload::GeneratorConfig::evaluation_suite(seed),
        }
    }

    /// The single mid-sized project used by non-suite experiments.
    pub fn single(self, seed: u64) -> sfcc_workload::GeneratorConfig {
        match self {
            Scale::Quick => sfcc_workload::GeneratorConfig::small(seed),
            Scale::Full => sfcc_workload::GeneratorConfig::medium(seed),
        }
    }
}

/// The seed all experiments use by default, so printed tables are
/// reproducible run to run.
pub const DEFAULT_SEED: u64 = 20240302; // the paper's publication date
