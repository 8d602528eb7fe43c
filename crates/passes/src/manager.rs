//! The instrumented pass manager.
//!
//! This is where the paper's mechanism plugs into the compiler: every pass
//! execution is recorded as **active** (it changed the IR) or **dormant** (it
//! ran and changed nothing), and before each execution a [`SkipOracle`] —
//! implemented by the `sfcc-state` crate from previous builds' dormancy
//! records — may decide to *skip* the pass entirely.

use crate::Pass;
use sfcc_ir::{fingerprint, verify_function, Fingerprint, Function, Module, ModuleSnapshot};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// What happened to one pass slot on one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassOutcome {
    /// The pass ran and modified the IR.
    Active,
    /// The pass ran and left the IR untouched.
    Dormant,
    /// The pass was skipped on the oracle's advice.
    Skipped,
}

impl fmt::Display for PassOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PassOutcome::Active => "active",
            PassOutcome::Dormant => "dormant",
            PassOutcome::Skipped => "skipped",
        })
    }
}

/// The record of one pass slot's execution on one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Pass name (not unique: a pipeline may repeat a pass).
    pub pass: String,
    /// Position in the flattened pipeline — the stable per-build identity of
    /// this pass execution, used as the dormancy-state key.
    pub slot: usize,
    /// What happened.
    pub outcome: PassOutcome,
    /// Wall-clock time spent running the pass (0 when skipped).
    pub nanos: u64,
    /// Deterministic cost proxy: live instructions when the pass started.
    pub cost_units: u64,
}

/// Everything recorded while compiling one function through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionTrace {
    /// Function name (unqualified).
    pub function: String,
    /// Structural fingerprint when entering the pipeline (pre-optimization).
    pub entry_fingerprint: Fingerprint,
    /// Structural fingerprint after the pipeline.
    pub exit_fingerprint: Fingerprint,
    /// One record per pipeline slot, in execution order.
    pub records: Vec<PassRecord>,
}

impl FunctionTrace {
    /// Number of slots with the given outcome.
    pub fn count(&self, outcome: PassOutcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Total pass-execution wall time in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.records.iter().map(|r| r.nanos).sum()
    }

    /// Total deterministic cost of executed (non-skipped) slots.
    pub fn executed_cost(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome != PassOutcome::Skipped)
            .map(|r| r.cost_units)
            .sum()
    }
}

/// The record of one whole-module pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineTrace {
    /// Module name.
    pub module: String,
    /// One trace per function, in module order.
    pub functions: Vec<FunctionTrace>,
    /// Module snapshots taken during this run (pipeline entry + every
    /// re-snapshot stage after the first). Identical for every dispatch
    /// width.
    pub snapshot_clones: u64,
    /// Σ live instruction count over the functions actually deep-cloned
    /// into snapshots — the deterministic cost proxy for snapshot overhead.
    /// The entry snapshot shares the input bodies and costs nothing;
    /// copy-on-write re-snapshots clone only functions a pass changed since
    /// the previous snapshot, so this is far below `functions × snapshots`
    /// on converged code.
    pub snapshot_cost_units: u64,
    /// Functions whose previous snapshot `Arc` was reused at a re-snapshot
    /// instead of deep-cloned — the copy-on-write savings. Deterministic
    /// and identical for every `--jobs` value.
    pub snapshot_reused: u64,
    /// Cost-balanced batches planned across all stages (the fan-out unit of
    /// a wide dispatch; the plan is a function of costs alone, so the
    /// counter is `--jobs`-invariant).
    pub batch_count: u64,
    /// Largest single-batch total cost (live instructions) planned by any
    /// stage of this run.
    pub batch_max_cost: u64,
    /// Wall time spent building this run's snapshots, in nanoseconds — a
    /// measurement like [`PassRecord::nanos`], never part of byte-stable
    /// output.
    pub snapshot_wall_ns: u64,
}

impl PipelineTrace {
    /// Looks up one function's trace.
    pub fn function(&self, name: &str) -> Option<&FunctionTrace> {
        self.functions.iter().find(|f| f.function == name)
    }

    /// Total deterministic cost of executed (non-skipped) slots across all
    /// functions — the module's cost-unit contribution to a build trace.
    pub fn executed_cost(&self) -> u64 {
        self.functions.iter().map(|f| f.executed_cost()).sum()
    }

    /// Total pass-execution wall time across all functions.
    pub fn total_nanos(&self) -> u64 {
        self.functions.iter().map(|f| f.total_nanos()).sum()
    }

    /// Folds the snapshot and batch counters of another run over the same
    /// module into this trace's (`batch_max_cost`: the larger); the function
    /// traces stay as they are.
    pub fn absorb_counters(&mut self, run: &PipelineTrace) {
        self.snapshot_clones += run.snapshot_clones;
        self.snapshot_cost_units += run.snapshot_cost_units;
        self.snapshot_reused += run.snapshot_reused;
        self.batch_count += run.batch_count;
        self.batch_max_cost = self.batch_max_cost.max(run.batch_max_cost);
        self.snapshot_wall_ns += run.snapshot_wall_ns;
    }

    /// Aggregate outcome counts `(active, dormant, skipped)`.
    pub fn outcome_totals(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for f in &self.functions {
            t.0 += f.count(PassOutcome::Active);
            t.1 += f.count(PassOutcome::Dormant);
            t.2 += f.count(PassOutcome::Skipped);
        }
        t
    }
}

/// Context handed to the oracle for one potential pass execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassQuery<'a> {
    /// Module being compiled.
    pub module: &'a str,
    /// Function about to be transformed (unqualified name).
    pub function: &'a str,
    /// The function's structural fingerprint at pipeline entry.
    pub entry_fingerprint: Fingerprint,
    /// Name of the pass.
    pub pass: &'a str,
    /// Flattened pipeline slot of the pass.
    pub slot: usize,
}

/// Decides whether a pass execution may be skipped.
///
/// The stateless compiler uses [`NeverSkip`]; the stateful compiler supplies
/// an oracle backed by the dormancy database of previous builds.
pub trait SkipOracle {
    /// Returns `true` to skip the pass described by `query`.
    fn should_skip(&self, query: &PassQuery<'_>) -> bool;
}

/// The stateless baseline: every pass always runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverSkip;

impl SkipOracle for NeverSkip {
    fn should_skip(&self, _query: &PassQuery<'_>) -> bool {
        false
    }
}

/// One stage of a pipeline: a pass sequence, optionally preceded by a fresh
/// module snapshot (for passes like inlining that read other functions).
pub struct Stage {
    /// Passes run on every function, in order.
    pub passes: Vec<Box<dyn Pass>>,
    /// Take a fresh snapshot of the whole module before this stage, so its
    /// passes observe the results of earlier stages in *other* functions.
    pub resnapshot: bool,
}

/// An ordered sequence of stages with stable flattened slot numbering.
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("slots", &self.slot_names())
            .finish()
    }
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    pub fn stage(mut self, resnapshot: bool, passes: Vec<Box<dyn Pass>>) -> Self {
        self.stages.push(Stage { passes, resnapshot });
        self
    }

    /// The flattened pass names, indexed by slot.
    pub fn slot_names(&self) -> Vec<&'static str> {
        self.stages
            .iter()
            .flat_map(|s| s.passes.iter().map(|p| p.name()))
            .collect()
    }

    /// Number of flattened pass slots.
    pub fn slot_count(&self) -> usize {
        self.stages.iter().map(|s| s.passes.len()).sum()
    }

    /// The pipeline's stages, in execution order.
    pub(crate) fn stages(&self) -> &[Stage] {
        &self.stages
    }
}

/// Pass-manager execution options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Verify every function after every pass that reported a change.
    /// Defaults to `true` in debug builds.
    pub verify_each: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            verify_each: cfg!(debug_assertions),
        }
    }
}

/// Per-function unit of work: the function body being optimized, its
/// accumulated trace, and the copy-on-write dirty bit (set when a pass
/// changes the function, cleared at each re-snapshot). One dispatch task owns
/// a cell for the duration of a stage, so the payload needs no
/// synchronization of its own.
pub(crate) struct FnCell {
    /// The caller's shared body until the first pass runs on it, which
    /// takes the run's one working copy (`Arc::make_mut`); a body every
    /// slot skips is never copied.
    func: Arc<Function>,
    trace: FunctionTrace,
    dirty: bool,
}

/// One stage's work order: everything the per-function slot body needs
/// besides the cell and the oracle.
pub(crate) struct StageJob<'p> {
    stage: &'p Stage,
    slot_base: usize,
    /// The pre-stage snapshot: cross-function passes (the inliner) read
    /// callee bodies from here, never from the cells being mutated, so the
    /// cells of one stage are mutually independent.
    snapshot: Arc<ModuleSnapshot>,
    options: RunOptions,
    /// The entry / exit fingerprints ride along with the first / last
    /// stage's cell visit, so a wide dispatch fingerprints concurrently too.
    first: bool,
    last: bool,
}

impl StageJob<'_> {
    /// The per-function slot body — the paper's mechanism: for each pass
    /// slot of the stage ask the oracle, run or skip, record the outcome.
    pub(crate) fn run_on(&self, cell: &mut FnCell, oracle: &dyn SkipOracle) {
        if self.first {
            cell.trace.entry_fingerprint = fingerprint(&cell.func);
        }
        for (pass_idx, pass) in self.stage.passes.iter().enumerate() {
            let slot = self.slot_base + pass_idx;
            let cost_units = cell.func.live_inst_count() as u64;
            let query = PassQuery {
                module: &self.snapshot.name,
                function: &cell.trace.function,
                entry_fingerprint: cell.trace.entry_fingerprint,
                pass: pass.name(),
                slot,
            };
            let (outcome, nanos) = if oracle.should_skip(&query) {
                (PassOutcome::Skipped, 0)
            } else {
                let start = Instant::now();
                let changed = pass.run(Arc::make_mut(&mut cell.func), &self.snapshot);
                let nanos = start.elapsed().as_nanos() as u64;
                if changed {
                    cell.dirty = true;
                    if self.options.verify_each {
                        let func = &cell.func;
                        verify_function(func).unwrap_or_else(|e| {
                            panic!("pass '{}' broke the IR: {e}\n{func}", pass.name())
                        });
                    }
                    (PassOutcome::Active, nanos)
                } else {
                    (PassOutcome::Dormant, nanos)
                }
            };
            cell.trace.records.push(PassRecord {
                pass: pass.name().to_string(),
                slot,
                outcome,
                nanos,
                cost_units,
            });
        }
        if self.last {
            cell.trace.exit_fingerprint = fingerprint(&cell.func);
        }
    }
}

/// The one stage loop behind [`run_pipeline`] and
/// [`run_pipeline_shared`](crate::run_pipeline_shared): entry snapshot,
/// copy-on-write re-snapshots, batch planning, slot numbering, and trace
/// assembly. `dispatch` applies one stage's [`StageJob`] to every cell —
/// the entries differ only there — given the stage's cost-balanced batch
/// plan, and hands the cells back in their original positions. Stage
/// boundaries are barriers: `dispatch` returns only when every cell is done.
///
/// The entry snapshot is `functions` themselves; a body is copied when the
/// first pass runs on it, so one no pass runs on comes back as the `Arc`
/// it came in as.
pub(crate) fn run_stages<'p>(
    module: &str,
    functions: Vec<Arc<Function>>,
    pipeline: &'p Pipeline,
    options: RunOptions,
    mut dispatch: impl FnMut(Vec<FnCell>, &[Vec<usize>], StageJob<'p>) -> Vec<FnCell>,
) -> (Vec<Arc<Function>>, PipelineTrace) {
    let mut trace = PipelineTrace {
        module: module.to_string(),
        ..PipelineTrace::default()
    };
    let mut cells: Vec<FnCell> = functions
        .into_iter()
        .map(|func| FnCell {
            trace: FunctionTrace {
                function: func.name.clone(),
                entry_fingerprint: Fingerprint::default(),
                exit_fingerprint: Fingerprint::default(),
                records: Vec::new(),
            },
            func,
            dirty: false,
        })
        .collect();
    let mut snapshot = Arc::new(take_snapshot(&mut trace, &mut cells, None));

    let stages = pipeline.stages();
    let mut slot_base = 0usize;
    for (si, stage) in stages.iter().enumerate() {
        // The entry snapshot is already fresh for the first stage.
        if si > 0 && stage.resnapshot {
            snapshot = Arc::new(take_snapshot(&mut trace, &mut cells, Some(&snapshot)));
        }
        // The plan depends only on costs and roster order — never on the
        // dispatch width — so its counters are `--jobs`-invariant.
        let costs: Vec<u64> = cells
            .iter()
            .map(|c| c.func.live_inst_count() as u64)
            .collect();
        let plan = crate::batch::plan_batches(&costs);
        trace.batch_count += plan.batches.len() as u64;
        trace.batch_max_cost = trace.batch_max_cost.max(plan.max_cost);
        let job = StageJob {
            stage,
            slot_base,
            snapshot: Arc::clone(&snapshot),
            options,
            first: si == 0,
            last: si + 1 == stages.len(),
        };
        cells = dispatch(cells, &plan.batches, job);
        slot_base += stage.passes.len();
    }

    let mut functions = Vec::with_capacity(cells.len());
    for mut cell in cells {
        if stages.is_empty() {
            // No stage visited the cell: the body is untouched.
            cell.trace.entry_fingerprint = fingerprint(&cell.func);
            cell.trace.exit_fingerprint = cell.trace.entry_fingerprint;
        }
        functions.push(cell.func);
        trace.functions.push(cell.trace);
    }
    (functions, trace)
}

/// Runs `run` over `module`'s functions in place: each body moves into an
/// `Arc` and back out, copied by neither move, since no snapshot outlives
/// the run.
pub(crate) fn in_place(
    module: &mut Module,
    run: impl FnOnce(&str, Vec<Arc<Function>>) -> (Vec<Arc<Function>>, PipelineTrace),
) -> PipelineTrace {
    let functions = std::mem::take(&mut module.functions)
        .into_iter()
        .map(Arc::new)
        .collect();
    let (functions, trace) = run(&module.name, functions);
    module.functions = functions.into_iter().map(Arc::unwrap_or_clone).collect();
    trace
}

/// Runs `pipeline` over every function of `module` on the calling thread,
/// consulting `oracle` before each pass execution, and returns the full
/// instrumentation trace.
///
/// # Panics
///
/// Panics if [`RunOptions::verify_each`] is set and a pass produces invalid
/// IR — that is a compiler bug, not an input error.
pub fn run_pipeline(
    module: &mut Module,
    pipeline: &Pipeline,
    oracle: &dyn SkipOracle,
    options: RunOptions,
) -> PipelineTrace {
    in_place(module, |name, functions| {
        run_sequential(name, functions, pipeline, oracle, options)
    })
}

/// [`run_pipeline`] over shared bodies: `functions` in, the optimized
/// bodies out in the same order.
pub(crate) fn run_sequential(
    module: &str,
    functions: Vec<Arc<Function>>,
    pipeline: &Pipeline,
    oracle: &dyn SkipOracle,
    options: RunOptions,
) -> (Vec<Arc<Function>>, PipelineTrace) {
    run_stages(module, functions, pipeline, options, |mut cells, _, job| {
        for cell in &mut cells {
            job.run_on(cell, oracle);
        }
        cells
    })
}

/// Takes the next copy-on-write snapshot of the cells' current bodies:
/// cells flagged dirty (changed by some pass since `prev` was taken) are
/// deep-cloned into fresh `Arc`s, clean ones reuse `prev`'s `Arc`s at zero
/// copy cost. `prev: None` is the pipeline-entry snapshot, which shares
/// every cell's `Arc`: no pass has run, so nothing is copied. Books the
/// event in `trace` and clears the dirty bits.
///
/// Pipeline stages transform bodies but never add, remove, or reorder
/// functions, so cell positions align with `prev`'s.
fn take_snapshot(
    trace: &mut PipelineTrace,
    cells: &mut [FnCell],
    prev: Option<&ModuleSnapshot>,
) -> ModuleSnapshot {
    let start = Instant::now();
    let mut cost = 0u64;
    let mut reused = 0u64;
    let mut arcs = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter_mut().enumerate() {
        match prev {
            Some(prev) if !cell.dirty => {
                debug_assert_eq!(prev.arcs()[i].name, cell.func.name);
                arcs.push(Arc::clone(&prev.arcs()[i]));
                reused += 1;
            }
            Some(_) => {
                cost += cell.func.live_inst_count() as u64;
                arcs.push(Arc::new(Function::clone(&cell.func)));
            }
            None => arcs.push(Arc::clone(&cell.func)),
        }
        cell.dirty = false;
    }
    let snapshot = ModuleSnapshot::from_arcs(&trace.module, arcs);
    trace.snapshot_clones += 1;
    trace.snapshot_cost_units += cost;
    trace.snapshot_reused += reused;
    trace.snapshot_wall_ns += start.elapsed().as_nanos() as u64;
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::Function;

    /// A test pass that increments a counter and optionally claims a change.
    struct Probe {
        name: &'static str,
        changes: bool,
    }

    impl Pass for Probe {
        fn name(&self) -> &'static str {
            self.name
        }

        fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
            if self.changes {
                // Make a harmless real change so verification passes: append
                // a fresh unreachable block.
                func.add_block();
            }
            self.changes
        }
    }

    fn test_module() -> Module {
        let mut m = Module::new("t");
        let mut f = Function::new("f", vec![], None);
        sfcc_ir::FuncBuilder::at_entry(&mut f).ret(None);
        m.add_function(f);
        m
    }

    struct SkipByName(&'static str);

    impl SkipOracle for SkipByName {
        fn should_skip(&self, q: &PassQuery<'_>) -> bool {
            q.pass == self.0
        }
    }

    #[test]
    fn records_active_and_dormant() {
        let mut m = test_module();
        let pipeline = Pipeline::new().stage(
            false,
            vec![
                Box::new(Probe {
                    name: "a",
                    changes: true,
                }),
                Box::new(Probe {
                    name: "b",
                    changes: false,
                }),
            ],
        );
        let trace = run_pipeline(&mut m, &pipeline, &NeverSkip, RunOptions::default());
        let f = trace.function("f").unwrap();
        assert_eq!(f.records.len(), 2);
        assert_eq!(f.records[0].outcome, PassOutcome::Active);
        assert_eq!(f.records[1].outcome, PassOutcome::Dormant);
        assert_eq!(f.records[0].slot, 0);
        assert_eq!(f.records[1].slot, 1);
    }

    #[test]
    fn oracle_skips_pass() {
        let mut m = test_module();
        let pipeline = Pipeline::new().stage(
            false,
            vec![
                Box::new(Probe {
                    name: "a",
                    changes: true,
                }),
                Box::new(Probe {
                    name: "b",
                    changes: true,
                }),
            ],
        );
        let trace = run_pipeline(&mut m, &pipeline, &SkipByName("b"), RunOptions::default());
        let f = trace.function("f").unwrap();
        assert_eq!(f.records[1].outcome, PassOutcome::Skipped);
        assert_eq!(f.records[1].nanos, 0);
        assert_eq!(trace.outcome_totals(), (1, 0, 1));
    }

    #[test]
    fn slots_are_stable_across_stages() {
        let mut m = test_module();
        let pipeline = Pipeline::new()
            .stage(
                false,
                vec![Box::new(Probe {
                    name: "a",
                    changes: false,
                })],
            )
            .stage(
                true,
                vec![Box::new(Probe {
                    name: "b",
                    changes: false,
                })],
            );
        assert_eq!(pipeline.slot_names(), vec!["a", "b"]);
        assert_eq!(pipeline.slot_count(), 2);
        let trace = run_pipeline(&mut m, &pipeline, &NeverSkip, RunOptions::default());
        let f = trace.function("f").unwrap();
        assert_eq!(f.records[0].slot, 0);
        assert_eq!(f.records[1].slot, 1);
    }

    #[test]
    fn fingerprints_before_and_after() {
        let mut m = test_module();
        let pipeline = Pipeline::new().stage(
            false,
            vec![Box::new(Probe {
                name: "a",
                changes: true,
            })],
        );
        let trace = run_pipeline(&mut m, &pipeline, &NeverSkip, RunOptions::default());
        let f = trace.function("f").unwrap();
        // The probe adds only an unreachable block, which the canonical
        // printer ignores — fingerprints stay equal.
        assert_eq!(f.entry_fingerprint, f.exit_fingerprint);
        assert_ne!(f.entry_fingerprint, Fingerprint::default());
    }

    #[test]
    fn trace_helpers() {
        let rec = |o| PassRecord {
            pass: "p".into(),
            slot: 0,
            outcome: o,
            nanos: 5,
            cost_units: 3,
        };
        let t = FunctionTrace {
            function: "f".into(),
            entry_fingerprint: Fingerprint::default(),
            exit_fingerprint: Fingerprint::default(),
            records: vec![
                rec(PassOutcome::Active),
                rec(PassOutcome::Dormant),
                rec(PassOutcome::Skipped),
            ],
        };
        assert_eq!(t.count(PassOutcome::Active), 1);
        assert_eq!(t.total_nanos(), 15);
        assert_eq!(t.executed_cost(), 6);
    }
}
