//! The replay harness: drives stateless and stateful builders through the
//! same commit sequence and collects everything the experiments report.

use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_backend::{run as vm_run, RunOutput, VmError, VmOptions};
use sfcc_buildsys::{BuildReport, Builder};
use sfcc_state::{DormancyProfile, StabilityTracker};
use sfcc_workload::{generate_model, Commit, EditScript, GeneratorConfig, ProjectModel};

/// Measurements for one build (one commit replayed in one mode).
#[derive(Debug, Clone)]
pub struct BuildMeasurement {
    /// Commit number (0 = the initial full build).
    pub commit: usize,
    /// Modules recompiled.
    pub rebuilt: u64,
    /// End-to-end wall time (ns).
    pub wall_ns: u64,
    /// Compile wall time across rebuilt modules (ns).
    pub compile_ns: u64,
    /// Deterministic executed middle-end cost units.
    pub cost_units: u64,
    /// `(active, dormant, skipped)` pass-slot totals.
    pub outcomes: (u64, u64, u64),
    /// Query-engine tasks validated without executing.
    pub query_hits: u64,
    /// Query-engine tasks that (re-)executed.
    pub query_misses: u64,
}

impl BuildMeasurement {
    /// Extracts the measurement from a build report.
    pub fn of(commit: usize, report: &BuildReport) -> Self {
        BuildMeasurement {
            commit,
            rebuilt: report.metric("build.rebuilt_count"),
            wall_ns: report.metric("build.wall_ns"),
            compile_ns: report.metric("build.compile_ns"),
            cost_units: report.metric("build.executed_cost_units"),
            outcomes: (
                report.metric("outcomes.active"),
                report.metric("outcomes.dormant"),
                report.metric("outcomes.skipped"),
            ),
            query_hits: report.metric("query.hits"),
            query_misses: report.metric("query.misses"),
        }
    }
}

/// A replay of one project's commit history in one compiler mode.
#[derive(Debug)]
pub struct Replay {
    /// Mode label (e.g. `stateless`, `stateful/prev-build`).
    pub mode: String,
    /// Build 0 (the full build) followed by one entry per commit.
    pub builds: Vec<BuildMeasurement>,
    /// Aggregated dormancy counters over all builds.
    pub profile: DormancyProfile,
    /// Build-over-build dormancy stability.
    pub stability: StabilityTracker,
    /// The final build's report (program + traces), for quality checks.
    pub final_report: BuildReport,
    /// Serialized dormancy-state size after the final build (bytes).
    pub state_bytes: usize,
    /// Functions tracked in state after the final build.
    pub state_functions: usize,
    /// Function-level IR cache counters (all zero unless enabled).
    pub cache: sfcc::CacheStats,
}

impl Replay {
    /// Total incremental wall time (excludes the initial full build).
    pub fn incremental_wall_ns(&self) -> u64 {
        self.builds.iter().skip(1).map(|b| b.wall_ns).sum()
    }

    /// Total incremental deterministic cost (excludes the full build).
    pub fn incremental_cost_units(&self) -> u64 {
        self.builds.iter().skip(1).map(|b| b.cost_units).sum()
    }
}

/// Runs `commits` commits of `script` over `config`'s project in the given
/// compiler configuration, measuring every build.
pub fn replay(
    config: &GeneratorConfig,
    commits: usize,
    edit_seed: u64,
    compiler_config: Config,
) -> Replay {
    let mut model = generate_model(config);
    let mut script = EditScript::new(edit_seed);
    replay_with(&mut model, &mut script, commits, compiler_config).0
}

/// Like [`replay`], but over a caller-controlled model/script (so callers
/// can run matched stateless/stateful replays on identical histories).
/// Returns the replay and the applied commits.
pub fn replay_with(
    model: &mut ProjectModel,
    script: &mut EditScript,
    commits: usize,
    compiler_config: Config,
) -> (Replay, Vec<Commit>) {
    let mode = compiler_config.mode.label();
    let mut builder = Builder::new(Compiler::new(compiler_config));
    let mut builds = Vec::with_capacity(commits + 1);
    let mut profile = DormancyProfile::new();
    let mut stability = StabilityTracker::new();
    let mut applied = Vec::with_capacity(commits);

    let observe =
        |report: &BuildReport, profile: &mut DormancyProfile, stability: &mut StabilityTracker| {
            for module in &report.modules {
                if let Some(out) = &module.output {
                    profile.add_trace(&out.trace);
                    stability.observe(&out.trace);
                }
            }
        };

    let first = builder
        .build(&model.render())
        .expect("generated project builds");
    observe(&first, &mut profile, &mut stability);
    builds.push(BuildMeasurement::of(0, &first));
    let mut last_report = first;

    for n in 1..=commits {
        applied.push(script.commit(model));
        let report = builder
            .build(&model.render())
            .expect("edited project builds");
        observe(&report, &mut profile, &mut stability);
        builds.push(BuildMeasurement::of(n, &report));
        last_report = report;
    }

    let state_bytes = builder.compiler().state_bytes().len();
    let state_functions = builder.compiler().state().function_count();
    let cache = builder.compiler().cache_stats();
    (
        Replay {
            mode,
            builds,
            profile,
            stability,
            final_report: last_report,
            state_bytes,
            state_functions,
            cache,
        },
        applied,
    )
}

/// Runs matched stateless and stateful replays over the *same* commit
/// history. Returns `(stateless, stateful)`.
pub fn paired_replay(
    config: &GeneratorConfig,
    commits: usize,
    edit_seed: u64,
    policy: SkipPolicy,
) -> (Replay, Replay) {
    let baseline_cfg = Config::stateless();
    let stateful_cfg = Config::stateless().with_policy(policy);

    let mut model_a = generate_model(config);
    let mut script_a = EditScript::new(edit_seed);
    let (stateless, _) = replay_with(&mut model_a, &mut script_a, commits, baseline_cfg);

    let mut model_b = generate_model(config);
    let mut script_b = EditScript::new(edit_seed);
    let (stateful, _) = replay_with(&mut model_b, &mut script_b, commits, stateful_cfg);

    (stateless, stateful)
}

/// Runs a program's `main.main` on several inputs; returns outputs.
pub fn run_program(report: &BuildReport, args: &[i64]) -> Vec<Result<RunOutput, VmError>> {
    args.iter()
        .map(|&n| vm_run(&report.program, "main.main", &[n], VmOptions::default()))
        .collect()
}

/// Relative speedup of `fast` vs `slow` as a percentage (positive = faster).
pub fn speedup_percent(slow: f64, fast: f64) -> f64 {
    if slow == 0.0 {
        0.0
    } else {
        (slow - fast) / slow * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_replay_shapes_match() {
        let config = GeneratorConfig::small(33);
        let (stateless, stateful) = paired_replay(&config, 5, 7, SkipPolicy::PreviousBuild);
        assert_eq!(stateless.builds.len(), 6);
        assert_eq!(stateful.builds.len(), 6);
        // Same history ⇒ identical rebuild counts per commit.
        for (a, b) in stateless.builds.iter().zip(&stateful.builds) {
            assert_eq!(a.rebuilt, b.rebuilt, "commit {}", a.commit);
        }
        // Stateless never skips; stateful skips at least once across the
        // replay.
        assert_eq!(stateless.profile.totals().2, 0);
        let (_, _, skipped) = stateful.profile.totals();
        assert!(skipped > 0);
    }

    #[test]
    fn stateful_reduces_deterministic_cost() {
        let config = GeneratorConfig::small(33);
        let (stateless, stateful) = paired_replay(&config, 6, 7, SkipPolicy::PreviousBuild);
        assert!(
            stateful.incremental_cost_units() < stateless.incremental_cost_units(),
            "stateful {} < stateless {}",
            stateful.incremental_cost_units(),
            stateless.incremental_cost_units()
        );
    }

    #[test]
    fn final_programs_behave_identically() {
        let config = GeneratorConfig::small(12);
        let (stateless, stateful) = paired_replay(&config, 8, 3, SkipPolicy::PreviousBuild);
        let args = [0, 1, 5, 13];
        let a = run_program(&stateless.final_report, &args);
        let b = run_program(&stateful.final_report, &args);
        for ((ra, rb), n) in a.iter().zip(&b).zip(&args) {
            let ra = ra.as_ref().expect("stateless program runs");
            let rb = rb.as_ref().expect("stateful program runs");
            assert_eq!(ra.prints, rb.prints, "n={n}");
            assert_eq!(ra.return_value, rb.return_value, "n={n}");
        }
    }

    #[test]
    fn speedup_math() {
        assert_eq!(speedup_percent(100.0, 90.0), 10.0);
        assert_eq!(speedup_percent(0.0, 5.0), 0.0);
        assert!(speedup_percent(90.0, 100.0) < 0.0);
    }

    #[test]
    fn state_grows_with_functions() {
        let config = GeneratorConfig::small(3);
        let (_, stateful) = paired_replay(&config, 2, 1, SkipPolicy::PreviousBuild);
        assert!(stateful.state_functions > 0);
        assert!(stateful.state_bytes > stateful.state_functions * 8);
    }
}
