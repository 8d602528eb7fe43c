//! The six edit-loop workloads and the request stream of a run.
//!
//! Every workload makes the same kinds of request (epochs of `setup`, one
//! `full` build, `incr` and `noop` builds interleaved, `run`), so every workload
//! reports every end-to-end metric; what differs is which layers of the
//! compiler the requests go through. The `why` strings are copied into
//! `BENCHMARK.json`.

use sfcc_workload::{EditKind, EditScript, GeneratorConfig};
use std::time::Duration;

/// How requests reach the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// One `minicc build` process per request, state kept in the project
    /// directory between requests.
    Cli,
    /// One `minicc serve` child; requests are `build` frames over its
    /// socket, the session stays resident between requests.
    Warm,
    /// One `minicc build --cas <store>` process per request, each in a
    /// fresh checkout directory: only the shared store carries anything
    /// from one request to the next.
    CasCheckout,
}

/// The project generator preset of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `GeneratorConfig::small` (quick smoke runs only).
    Small,
    /// `GeneratorConfig::medium`.
    Medium,
    /// `GeneratorConfig::large`.
    Large,
    /// `GeneratorConfig::xlarge`.
    Xlarge,
    /// `GeneratorConfig::loop_heavy`.
    LoopHeavy,
}

impl Preset {
    /// The generator configuration of this preset under `seed`.
    pub fn config(self, seed: u64) -> GeneratorConfig {
        match self {
            Preset::Small => GeneratorConfig::small(seed),
            Preset::Medium => GeneratorConfig::medium(seed),
            Preset::Large => GeneratorConfig::large(seed),
            Preset::Xlarge => GeneratorConfig::xlarge(seed),
            Preset::LoopHeavy => GeneratorConfig::loop_heavy(seed),
        }
    }

    /// The preset's name in tables and `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Preset::Small => "small",
            Preset::Medium => "medium",
            Preset::Large => "large",
            Preset::Xlarge => "xlarge",
            Preset::LoopHeavy => "loop-heavy",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: the layers it exercises and bypasses.
    pub why: &'static str,
    /// How requests reach the compiler.
    pub lane: Lane,
    /// Project generator preset.
    pub preset: Preset,
    /// `minicc` build flags (the session flags on the warm lane).
    pub flags: &'static [&'static str],
    /// `Some(kind)` restricts the edit stream to one kind; `None` is the
    /// default mix of `EditScript::new`.
    pub edits: Option<EditKind>,
    /// Closed-loop client threads, each with its own project
    /// (`preset(CORPUS_SEED + client)`) and its own edit streams.
    pub clients: usize,
    /// Whether `BENCHMARK.json` lists the workload, so that the driver
    /// holds its metrics against their bounds. The driver's time allows
    /// four workloads at thirty seconds a run; the other two run in every
    /// `sfbench run` set all the same.
    pub gated: bool,
}

/// The seed of the benchmark's fixed corpus: every workload's project and
/// the edit history of a run's first epoch. The corpus stands for a real
/// repository with its past; `--seed` draws the edits of every later epoch
/// (and, in the traced run, the ones past the checkpoint). Were the project
/// drawn from `--seed` too, its size (±4 %) and above all the dynamic
/// instruction count of `main` (1.2 k to 36 k across ten seeds) would swamp
/// every bound, and a run on another seed could not be held against the
/// baseline at all. With a fixed past, `image_bytes` and `run_vm_steps` are
/// pure functions of the compiler.
pub const CORPUS_SEED: u64 = 2024;

impl Workload {
    /// An edit stream of this workload's kind drawn from `seed`.
    pub fn script(&self, seed: u64) -> EditScript {
        match self.edits {
            Some(kind) => EditScript::only(seed, kind),
            None => EditScript::new(seed),
        }
    }

    /// The edit stream's name in tables.
    pub fn edits_label(&self) -> &'static str {
        self.edits.map_or("mix-50/25/15/10", |kind| kind.label())
    }

    /// The same workload shrunk to the `small` preset (quick smoke runs).
    pub fn quick(mut self) -> Workload {
        self.preset = Preset::Small;
        self
    }
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cli-large-tweak",
        why: "The paper's scenario: a build tool spawns the compiler per one-constant edit of a 30-module project; time goes to per-process reload and commit, so daemon and transport work must not move it.",
        lane: Lane::Cli,
        preset: Preset::Large,
        flags: &["--stateful", "--fn-cache", "--jobs", "1"],
        edits: Some(EditKind::TweakConstant),
        clients: 1,
        gated: true,
    },
    Workload {
        name: "warm-xlarge-tweak",
        why: "One client, a resident daemon session, 60 modules: reload is bypassed, leaving transport, tree re-read, one function's pipeline, link and commit; full builds at --jobs 2 show the parallel optimizer.",
        lane: Lane::Warm,
        preset: Preset::Xlarge,
        flags: &["--stateful", "--fn-cache", "--jobs", "2"],
        edits: Some(EditKind::TweakConstant),
        clients: 1,
        gated: false,
    },
    Workload {
        name: "cli-loop-stateless",
        why: "Baseline lane of the paper's comparison: each process re-optimizes every function of a loop-heavy project, nothing skipped, so the pass pipeline does the work; bypasses state, fn-cache, CAS, daemon.",
        lane: Lane::Cli,
        preset: Preset::LoopHeavy,
        flags: &["--stateless", "--jobs", "1"],
        edits: Some(EditKind::RewriteBody),
        clients: 1,
        gated: false,
    },
    Workload {
        name: "cli-loop-stateful",
        why: "cli-loop-stateless plus dormant-pass skipping from persisted state: the paper's mechanism alone. A skip-policy change moves only this row; its image against the stateless row is the quality cost.",
        lane: Lane::Cli,
        preset: Preset::LoopHeavy,
        flags: &["--stateful", "--jobs", "1"],
        edits: Some(EditKind::RewriteBody),
        clients: 1,
        gated: true,
    },
    Workload {
        name: "warm-large-mixed-2c",
        why: "Two clients, two 30-module projects, one daemon, the default edit mix: interface growth and rewrites through the query layer, and the only contention on admission gate, session table and cores.",
        lane: Lane::Warm,
        preset: Preset::Large,
        flags: &["--stateful", "--fn-cache", "--jobs", "1"],
        edits: None,
        clients: 2,
        gated: true,
    },
    Workload {
        name: "cas-medium-checkout",
        why: "Every build in a fresh checkout sharing one artifact store: full builds publish to a cold store, incremental ones look up a warm one and publish once, no-ops only hit. Only here sfcc-cas does work.",
        lane: Lane::CasCheckout,
        preset: Preset::Medium,
        flags: &["--stateless", "--jobs", "1"],
        edits: Some(EditKind::TweakConstant),
        clients: 1,
        gated: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The commit after which `image_bytes` and `run_vm_steps` are taken: the
/// last commit of an epoch, and of the fixed corpus (see [`CORPUS_SEED`]).
/// A timed run fits a different number of requests every time, so the
/// exact-repeat metrics are read at a fixed point of the request stream,
/// which every run reaches however slow the machine is.
pub const CHECKPOINT_COMMIT: usize = 3;

/// Every how many commits the image is checked against the reference
/// interpreter (untimed).
pub const ORACLE_EVERY: usize = 10;

/// The request stream of one epoch.
///
/// An epoch starts from nothing: `setup` (`setups` times over, each into a
/// new root; the last one stays), one from-scratch build of the fresh
/// tree, then cycles of `cycle_incr` commits each followed by a build and
/// `cycle_noop` builds of the unchanged tree, and at the end everything is
/// torn down. A timed run makes as many one-cycle epochs as fit into its
/// seconds. What a build finds — the length of the edit history behind the
/// state, the function cache, the session, the store — depends on where in
/// its epoch it falls, and every epoch is the same walk, so a run that
/// fits nine epochs samples the same distribution as one that fits
/// twelve, and every class of request, the from-scratch build and the
/// set-up included, gets samples all along the run: a slow stretch of the
/// machine touches a few samples of every metric and not most samples of
/// one. The order never depends on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Times `setup` is repeated at the start of an epoch.
    pub setups: usize,
    /// Incremental builds per cycle.
    pub cycle_incr: usize,
    /// No-op builds per cycle.
    pub cycle_noop: usize,
    /// Cycles made however long they take; the checkpoint lies within.
    pub min_cycles: usize,
    /// Hard cap on cycles.
    pub max_cycles: usize,
    /// Wall time after which no further epoch (untraced run) or cycle
    /// (traced run) starts.
    pub budget: Duration,
    /// The checkpoint commit (see [`CHECKPOINT_COMMIT`]).
    pub checkpoint: usize,
}

impl Plan {
    /// A run measuring for `seconds`: epochs of three set-ups, a
    /// from-scratch build, three commits and two no-ops.
    pub fn timed(seconds: u64) -> Plan {
        Plan {
            setups: 3,
            cycle_incr: 3,
            cycle_noop: 2,
            min_cycles: 1,
            max_cycles: 1,
            budget: Duration::from_secs(seconds),
            checkpoint: CHECKPOINT_COMMIT,
        }
    }

    /// The fixed-count smoke plan, one epoch: R=1, N=3, M=2, checkpoint
    /// at the last commit.
    pub fn quick() -> Plan {
        Plan {
            setups: 1,
            cycle_incr: 3,
            cycle_noop: 2,
            min_cycles: 1,
            max_cycles: 1,
            budget: Duration::ZERO,
            checkpoint: 3,
        }
    }

    /// The request stream of the traced run: a single epoch with a single
    /// `setup` which, on a timed plan, goes on past the checkpoint until
    /// half of the budget is spent (the probes get the other half).
    pub fn traced(mut self) -> Plan {
        self.setups = 1;
        self.budget /= 2;
        if !self.budget.is_zero() {
            self.max_cycles = usize::MAX;
        }
        self
    }

    /// Whether a client starts another cycle after `done` of them.
    pub fn more(&self, done: usize, started: std::time::Instant) -> bool {
        done < self.min_cycles || (done < self.max_cycles && started.elapsed() < self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.clients >= 1);
        }
        let gated = WORKLOADS.iter().filter(|w| w.gated).count();
        assert!((2..=8).contains(&gated));
    }

    #[test]
    fn every_plan_reaches_its_checkpoint() {
        for plan in [Plan::timed(10), Plan::timed(1), Plan::quick()] {
            assert!(plan.min_cycles * plan.cycle_incr >= plan.checkpoint);
            assert!(plan.max_cycles >= plan.min_cycles);
        }
        let started = std::time::Instant::now();
        assert!(Plan::quick().more(0, started));
        assert!(!Plan::quick().more(1, started));
    }

    #[test]
    fn the_traced_run_is_one_epoch_that_goes_on_while_its_time_lasts() {
        let started = std::time::Instant::now();
        let traced = Plan::timed(10).traced();
        assert_eq!(traced.setups, 1);
        assert_eq!(traced.budget, Duration::from_secs(5));
        assert!(traced.more(100, started));
        // The smoke plan has no time to spend: still a single cycle.
        assert!(!Plan::quick().traced().more(1, started));
    }
}
