//! The build's task taxonomy: what the incremental engine can be asked for.
//!
//! Each [`BuildTask`] key names one memoizable unit of work; [`BuildSpec`]
//! executes them against a [`Project`] and a [`Compiler`] session, recording
//! every dependency through the engine's [`Ctx`] so the next build can
//! validate instead of re-run. The taxonomy mirrors the compiler pipeline,
//! split where early cutoff pays — and split to *function* granularity from
//! type checking onward, so cross-module dependencies attach to the specific
//! callee signatures a function actually consumes:
//!
//! | task              | inputs/deps                                   | fingerprint (cutoff)   |
//! |-------------------|-----------------------------------------------|------------------------|
//! | `imports(m)`      | `src:m`                                       | import list            |
//! | `parse(m)`        | `src:m`                                       | source hash            |
//! | `interface(m)`    | `parse(m)`                                    | exported signatures    |
//! | `graph`           | `manifest`, every `imports(m)`                | whole import relation  |
//! | `modcheck(m)`     | `parse(m)`, `imports(m)`, deps' `interface`   | globals+imports+roster |
//! | `fnast(m::f)`     | `parse(m)`                                    | span-free def text     |
//! | `signature(m::f)` | `interface(m)`                                | one signature          |
//! | `checkfn(m::f)`   | `fnast(m::f)`, `modcheck(m)`, callees' `signature` | def + context     |
//! | `lowerfn(m::f)`   | `checkfn(m::f)`                               | IR text                |
//! | `optimizefn(m::f)`| closure's `lowerfn`, `state:m::f`             | optimized IR text      |
//! | `codegen(m)`      | `modcheck(m)`, every `optimizefn(m::f)`       | object bytes           |
//! | `link`            | `graph`, every `codegen(m)`                   | image bytes            |
//!
//! The old per-module `interface(m)` cutoff — any dependent of a module
//! rebuilds whenever *any* exported signature changes — is gone. A dependent
//! function's `checkfn(m::f)` records the `signature(q::g)` of each callee it
//! actually resolves, so changing one signature in `q` re-demands only the
//! functions that call it; every other importer task validates via unchanged
//! signature fingerprints. A body-only edit changes `fnast(m::f)` for the one
//! edited function (definition fingerprints are span-free), re-runs that
//! function's check → lower → optimize chain, and cuts off everywhere else.
//! Dormancy state is a *tracked input* at function grain (`state:m::f`,
//! stamped via [`Compiler::state_stamp_fn`]), so stale skip decisions
//! invalidate exactly the functions they would affect.

use crate::builder::BuildError;
use crate::depcheck::DepMutations;
use crate::depgraph::Stored;
use crate::graph::{parse_imports, DepGraph};
use crate::project::Project;
use sfcc::{CompileError, Compiler, OptimizeOutcome, PhaseTimings};
use sfcc_backend::{link_objects, CodeObject, Program};
use sfcc_codec::fnv64;
use sfcc_faultfs::AccessRecord;
use sfcc_frontend::ast::{FunctionDef, Import, TypeAst};
use sfcc_frontend::fingerprint::def_repr;
use sfcc_frontend::{
    callees_of, check_function_with, check_module_level, def_fingerprint, parser, CheckedModule,
    Diagnostics, FuncSig, ModuleEnv, ModuleInterface, ModuleLevel, SourceFile, Span,
};
use sfcc_ir::print::function_to_string;
use sfcc_ir::{Fingerprint, Function, Op};
use sfcc_passes::FunctionTrace;
use sfcc_query::{Ctx, QueryError, TaskSpec};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One unit of memoizable build work, keyed by module — and, from type
/// checking onward, by function.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BuildTask {
    /// Extract a module's import list from its source (parse-only).
    Imports(String),
    /// Lex and parse a module's source to an AST.
    Parse(String),
    /// Extract a module's exported interface from its parsed AST.
    Interface(String),
    /// Assemble the whole-project import graph and wave schedule.
    Graph,
    /// Module-level semantic analysis: import validity, global constants,
    /// signature collection, and the definition-order function roster.
    ModCheck(String),
    /// Project one function's definition out of the module AST.
    FnAst(String, String),
    /// Project one function's exported signature out of the interface.
    Signature(String, String),
    /// Type-check one function body against its callees' signatures.
    CheckFn(String, String),
    /// Lower one checked function to IR.
    LowerFn(String, String),
    /// Run the (skippable) optimization pipeline for one function and
    /// ingest its trace.
    OptimizeFn(String, String),
    /// Compile a module's optimized functions to a relocatable object.
    Codegen(String),
    /// Link all objects into a complete program.
    Link,
}

impl BuildTask {
    /// The module this task belongs to, if it is a per-module task.
    pub fn module(&self) -> Option<&str> {
        match self {
            BuildTask::Imports(m)
            | BuildTask::Parse(m)
            | BuildTask::Interface(m)
            | BuildTask::ModCheck(m)
            | BuildTask::FnAst(m, _)
            | BuildTask::Signature(m, _)
            | BuildTask::CheckFn(m, _)
            | BuildTask::LowerFn(m, _)
            | BuildTask::OptimizeFn(m, _)
            | BuildTask::Codegen(m) => Some(m),
            BuildTask::Graph | BuildTask::Link => None,
        }
    }

    /// The `(module, function)` pair this task belongs to, if it is a
    /// function-grained task.
    pub fn function(&self) -> Option<(&str, &str)> {
        match self {
            BuildTask::FnAst(m, f)
            | BuildTask::Signature(m, f)
            | BuildTask::CheckFn(m, f)
            | BuildTask::LowerFn(m, f)
            | BuildTask::OptimizeFn(m, f) => Some((m, f)),
            _ => None,
        }
    }
}

impl BuildTask {
    /// The inverse of [`BuildTask`]'s `Display` — the form task keys take in
    /// the persisted query graph. Function names are identifiers, so the
    /// last `::` of a function-grained label is the separator whatever the
    /// module is called.
    pub fn parse(label: &str) -> Option<BuildTask> {
        let Some((kind, rest)) = label.split_once('(') else {
            return match label {
                "graph" => Some(BuildTask::Graph),
                "link" => Some(BuildTask::Link),
                _ => None,
            };
        };
        let operand = rest.strip_suffix(')')?;
        let module = || operand.to_string();
        let function = || {
            let (m, f) = operand.rsplit_once("::")?;
            Some((m.to_string(), f.to_string()))
        };
        Some(match kind {
            "imports" => BuildTask::Imports(module()),
            "parse" => BuildTask::Parse(module()),
            "interface" => BuildTask::Interface(module()),
            "modcheck" => BuildTask::ModCheck(module()),
            "codegen" => BuildTask::Codegen(module()),
            "fnast" => function().map(|(m, f)| BuildTask::FnAst(m, f))?,
            "signature" => function().map(|(m, f)| BuildTask::Signature(m, f))?,
            "checkfn" => function().map(|(m, f)| BuildTask::CheckFn(m, f))?,
            "lowerfn" => function().map(|(m, f)| BuildTask::LowerFn(m, f))?,
            "optimizefn" => function().map(|(m, f)| BuildTask::OptimizeFn(m, f))?,
            _ => return None,
        })
    }
}

impl fmt::Display for BuildTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            BuildTask::Graph => return f.write_str("graph"),
            BuildTask::Link => return f.write_str("link"),
            BuildTask::Imports(_) => "imports",
            BuildTask::Parse(_) => "parse",
            BuildTask::Interface(_) => "interface",
            BuildTask::ModCheck(_) => "modcheck",
            BuildTask::FnAst(..) => "fnast",
            BuildTask::Signature(..) => "signature",
            BuildTask::CheckFn(..) => "checkfn",
            BuildTask::LowerFn(..) => "lowerfn",
            BuildTask::OptimizeFn(..) => "optimizefn",
            BuildTask::Codegen(_) => "codegen",
        };
        // Plain pushes, not `write!`: labels are made by the thousand — per
        // observed demand, and per task of every persisted graph.
        f.write_str(kind)?;
        f.write_str("(")?;
        f.write_str(self.module().unwrap_or_default())?;
        if let Some((_, function)) = self.function() {
            f.write_str("::")?;
            f.write_str(function)?;
        }
        f.write_str(")")
    }
}

/// What the parse task memoizes: the AST plus the source text it came from
/// (kept for diagnostic rendering and the source-hash fingerprint).
#[derive(Debug, Clone)]
pub struct ParseArtifact {
    /// The parsed module AST.
    pub ast: sfcc_frontend::Module,
    /// The source text the AST was parsed from.
    pub source: String,
}

/// What the module-level check memoizes: everything per-function checks
/// share, plus the definition-order roster codegen assembles by.
#[derive(Debug, Clone)]
pub struct ModCheckArtifact {
    /// Global constant values by name.
    pub global_values: HashMap<String, i64>,
    /// Global constant types by name.
    pub global_types: HashMap<String, TypeAst>,
    /// The module's import list (sorted, deduplicated).
    pub imports: Vec<String>,
    /// Function names in definition order — the roster codegen iterates.
    pub roster: Vec<String>,
}

/// What a per-function check memoizes: a single-function [`CheckedModule`]
/// shell ready for lowering, the pruned import environment it resolved
/// against, and the canonical context text its fingerprint hashes.
#[derive(Debug, Clone)]
pub struct CheckFnArtifact {
    /// A checked module containing exactly this function, with the local
    /// interface pruned to the signatures its call sites consult.
    pub checked: CheckedModule,
    /// Import environment pruned to the modules this function calls into.
    pub env: ModuleEnv,
    /// Canonical text of everything beyond the definition that lowering can
    /// observe: global constants and resolved callee signatures.
    pub context_repr: String,
}

/// What a per-function optimize memoizes: the transformed function, its
/// IR text — made once: the task's fingerprint hashes it, and it is the
/// value the persisted query graph carries — and the pass trace that
/// produced it.
#[derive(Debug, Clone)]
pub struct OptimizeFnArtifact {
    /// The optimized function.
    pub func: Function,
    /// `sfcc_ir::function_to_string` of `func`.
    pub text: String,
    /// Per-pass instrumentation for this function; `None` for a value
    /// loaded from the last process's graph, which ran no pass here.
    pub ftrace: Option<FunctionTrace>,
}

/// What the codegen task memoizes: the object and its encoding, made once —
/// the task's fingerprint is taken of the bytes, and they are what the
/// persisted query graph carries.
#[derive(Debug, Clone)]
pub struct CodegenArtifact {
    /// The relocatable object.
    pub object: CodeObject,
    /// `sfcc_backend::object::to_bytes` of `object`.
    pub bytes: Vec<u8>,
}

impl CodegenArtifact {
    /// An object with its encoding.
    pub fn of(object: CodeObject) -> Self {
        let bytes = sfcc_backend::object::to_bytes(&object);
        CodegenArtifact { object, bytes }
    }
}

/// What the link task memoizes: the program and its image encoding, made
/// once — the task's fingerprint is taken of the bytes, and they are what
/// the persisted query graph carries.
#[derive(Debug, Clone)]
pub struct LinkArtifact {
    /// The complete program.
    pub program: Program,
    /// `sfcc_backend::image::to_bytes` of `program`.
    pub image: Vec<u8>,
}

impl LinkArtifact {
    /// A program with its image encoding.
    pub fn of(program: Program) -> Self {
        let image = sfcc_backend::image::to_bytes(&program);
        LinkArtifact { program, image }
    }
}

/// A task's memoized output. Payloads are `Arc`-wrapped so cache hits clone
/// a pointer, not a module.
#[derive(Debug, Clone)]
pub enum BuildValue {
    /// Output of [`BuildTask::Imports`]: sorted, deduplicated import names.
    Imports(Arc<Vec<String>>),
    /// Output of [`BuildTask::Parse`].
    Parse(Arc<ParseArtifact>),
    /// Output of [`BuildTask::Interface`].
    Interface(Arc<ModuleInterface>),
    /// Output of [`BuildTask::Graph`].
    Graph(Arc<DepGraph>),
    /// Output of [`BuildTask::ModCheck`].
    ModCheck(Arc<ModCheckArtifact>),
    /// Output of [`BuildTask::FnAst`]: the definition, `None` when the
    /// function is absent from the module.
    FnAst(Arc<Option<FunctionDef>>),
    /// Output of [`BuildTask::Signature`]: the exported signature, `None`
    /// when the function is absent from the interface.
    Signature(Arc<Option<FuncSig>>),
    /// Output of [`BuildTask::CheckFn`].
    CheckFn(Arc<CheckFnArtifact>),
    /// Output of [`BuildTask::LowerFn`]: one unoptimized IR function.
    LowerFn(Arc<Function>),
    /// Output of [`BuildTask::OptimizeFn`].
    OptimizeFn(Arc<OptimizeFnArtifact>),
    /// Output of [`BuildTask::Codegen`].
    Codegen(Arc<CodegenArtifact>),
    /// Output of [`BuildTask::Link`]: the complete program.
    Link(Arc<LinkArtifact>),
}

macro_rules! expect_variant {
    ($name:ident, $variant:ident, $ty:ty, $label:literal) => {
        pub(crate) fn $name(&self) -> Arc<$ty> {
            match self {
                BuildValue::$variant(v) => Arc::clone(v),
                other => unreachable!(
                    concat!($label, " task yields a matching value, got {:?}"),
                    other
                ),
            }
        }
    };
}

impl BuildValue {
    expect_variant!(expect_imports, Imports, Vec<String>, "imports");
    expect_variant!(expect_parse, Parse, ParseArtifact, "parse");
    expect_variant!(expect_interface, Interface, ModuleInterface, "interface");
    expect_variant!(expect_graph, Graph, DepGraph, "graph");
    expect_variant!(expect_modcheck, ModCheck, ModCheckArtifact, "modcheck");
    expect_variant!(expect_fnast, FnAst, Option<FunctionDef>, "fnast");
    expect_variant!(expect_signature, Signature, Option<FuncSig>, "signature");
    expect_variant!(expect_checkfn, CheckFn, CheckFnArtifact, "checkfn");
    expect_variant!(expect_lowerfn, LowerFn, Function, "lowerfn");
    expect_variant!(
        expect_optimizefn,
        OptimizeFn,
        OptimizeFnArtifact,
        "optimizefn"
    );
    expect_variant!(expect_codegen, Codegen, CodegenArtifact, "codegen");
    expect_variant!(expect_link, Link, LinkArtifact, "link");
}

/// An optimized function a wave-parallel batch computed ahead of demand,
/// taken at most once by the matching `optimizefn` execution.
#[derive(Debug)]
struct PreparedFn {
    func: Function,
    ftrace: FunctionTrace,
}

/// One module's restricted optimization batch for [`BuildSpec::run_batches`]:
/// the union call closure of its stale functions, assembled by the driver
/// from `lowerfn` values, plus the stale function names whose artifacts the
/// batch parks.
pub(crate) struct WaveBatch {
    pub module: String,
    /// Restricted module holding the stale functions' union call closure,
    /// sorted by function name (any superset of each function's closure
    /// yields byte-identical per-function results).
    pub ir: sfcc_ir::Module,
    /// Functions whose `optimizefn` tasks will consume parked artifacts.
    pub stale: Vec<String>,
}

/// Per-module snapshot/batch totals accumulated over one build's restricted
/// optimization runs. All fields but `wall_ns` are deterministic and
/// `--jobs`-invariant (they derive from the pipeline's jobs-invariant trace
/// counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SnapshotTotals {
    /// Module snapshots taken (pipeline entry + re-snapshot stages).
    pub clones: u64,
    /// Σ live instruction count over functions actually deep-cloned.
    pub cost_units: u64,
    /// Functions whose previous snapshot `Arc` was reused (copy-on-write
    /// savings).
    pub reused: u64,
    /// Cost-balanced batches planned across all stages.
    pub batch_count: u64,
    /// Largest single-batch planned cost seen in any run (max, not sum).
    pub batch_max_cost: u64,
    /// Wall time spent building snapshots (a measurement, jobs-variant).
    pub wall_ns: u64,
}

impl SnapshotTotals {
    /// Folds one pipeline run's counters into the totals.
    pub(crate) fn absorb(&mut self, trace: &sfcc_passes::PipelineTrace) {
        self.clones += trace.snapshot_clones;
        self.cost_units += trace.snapshot_cost_units;
        self.reused += trace.snapshot_reused;
        self.batch_count += trace.batch_count;
        self.batch_max_cost = self.batch_max_cost.max(trace.batch_max_cost);
        self.wall_ns += trace.snapshot_wall_ns;
    }
}

/// The [`TaskSpec`] driving one build: a project snapshot, the (stateful)
/// compiler session, and the scratch the driver reads back afterwards
/// (per-module phase timings, link time, pre-computed batch artifacts,
/// deferred function-cache inserts, per-module snapshot-clone totals).
pub struct BuildSpec<'a> {
    project: &'a Project,
    compiler: &'a mut Compiler,
    /// The values the last process's graph carried that no demand has
    /// loaded yet ([`TaskSpec::load`]).
    stored: &'a mut Stored,
    prepared: HashMap<(String, String), PreparedFn>,
    timings: HashMap<String, PhaseTimings>,
    /// Per-module [`SnapshotTotals`] accumulated by restricted optimization
    /// runs (batched or solo) this build.
    snapshots: HashMap<String, SnapshotTotals>,
    link_ns: u64,
    jobs: usize,
    /// Function-cache entries produced by optimize tasks, accumulated in
    /// demand order and applied at wave boundaries
    /// ([`BuildSpec::flush_cache_inserts`]) — for *every* `--jobs` value,
    /// so cache visibility (and hence every trace, image, and state file)
    /// is independent of the worker count.
    cache_inserts: Vec<(Fingerprint, Function)>,
    /// `(task, hit)` pairs observed by the engine, one per demanded task
    /// ([`TaskSpec::observe`]); the driver turns them into query trace
    /// events and metrics after the build.
    query_log: Vec<(String, bool)>,
    /// Adversarial dependency mutations (depcheck fuzzing); empty for an
    /// honest build.
    mutations: DepMutations,
    /// The depcheck access log: every logical-resource access this build's
    /// tasks make, tagged with the task active when it happened. `None`
    /// when the build is not audited.
    accesses: Option<Vec<AccessRecord>>,
    /// Per-module context fingerprints recomputed from today's source, for
    /// the honest `cas:m::f` stamp ([`BuildSpec::raw_input_stamp`]). Lazy:
    /// a module is frontend-ed and lowered from scratch at most once per
    /// build, and only when a `cas:` stamp is actually demanded.
    cas_contexts: HashMap<String, HashMap<String, Fingerprint>>,
}

impl<'a> BuildSpec<'a> {
    pub(crate) fn new(
        project: &'a Project,
        compiler: &'a mut Compiler,
        stored: &'a mut Stored,
        jobs: usize,
        mutations: DepMutations,
        depcheck: bool,
    ) -> Self {
        BuildSpec {
            project,
            compiler,
            stored,
            prepared: HashMap::new(),
            timings: HashMap::new(),
            snapshots: HashMap::new(),
            link_ns: 0,
            jobs: jobs.max(1),
            cache_inserts: Vec::new(),
            query_log: Vec::new(),
            mutations,
            accesses: depcheck.then(Vec::new),
            cas_contexts: HashMap::new(),
        }
    }

    /// Notes a logical-resource access, attributed to the task whose body
    /// is running (the engine executes tasks on the thread that drives the
    /// build). A branch on an absent log when the build is not audited.
    fn note_access(&mut self, resource: &str) {
        if let Some(log) = &mut self.accesses {
            log.push(AccessRecord {
                task: sfcc_faultfs::active_task(),
                resource: resource.to_string(),
            });
        }
    }

    /// Hands over the access log, ending the audit; empty when the build
    /// is not audited.
    pub(crate) fn take_accesses(&mut self) -> Vec<AccessRecord> {
        self.accesses.take().unwrap_or_default()
    }

    /// The `(task, hit)` observations accumulated this build, in demand
    /// order. The *set* is `--jobs`-independent (every jobs value demands
    /// the same tasks with the same staleness verdicts); only the order can
    /// differ, which is why the driver sorts before emitting trace events.
    pub(crate) fn take_query_log(&mut self) -> Vec<(String, bool)> {
        std::mem::take(&mut self.query_log)
    }

    /// Phase timings accumulated for a module this build (zeros for phases
    /// the engine validated instead of running).
    pub(crate) fn take_timings(&mut self, module: &str) -> PhaseTimings {
        self.timings.remove(module).unwrap_or_default()
    }

    /// [`SnapshotTotals`] accumulated for a module's restricted optimization
    /// runs this build.
    pub(crate) fn take_snapshots(&mut self, module: &str) -> SnapshotTotals {
        self.snapshots.remove(module).unwrap_or_default()
    }

    /// Ends the build's use of the compiler session and hands it back.
    pub(crate) fn into_compiler(self) -> &'a mut Compiler {
        self.compiler
    }

    /// Wall time of the link step this build, 0 when the link was cached.
    pub(crate) fn link_ns(&self) -> u64 {
        self.link_ns
    }

    /// Runs one restricted optimization batch per module of a wave on a
    /// single shared pool of `self.jobs` workers (capped at the host's
    /// available parallelism; a width-1 pool runs every batch on the calling
    /// thread) against the immutable session snapshot, parking each
    /// stale function's artifact for the matching `optimizefn` execution to
    /// consume. Batches run *outside* any task scope: their resource
    /// accesses are deliberately unattributed (each `optimizefn` task notes
    /// its own `state:m::f` read), and their per-function results are
    /// byte-identical to solo runs, so parking is a pure latency play.
    /// Batches are seeded largest-closure-first so big modules start
    /// earliest.
    pub(crate) fn run_batches(&mut self, mut batches: Vec<WaveBatch>) {
        if batches.is_empty() {
            return;
        }
        let compiler: &Compiler = self.compiler;
        let slots: Vec<Mutex<Option<(sfcc_ir::Module, OptimizeOutcome)>>> =
            batches.iter().map(|_| Mutex::new(None)).collect();
        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(batches[i].ir.functions.len()));
        sfcc_pool::scope(sfcc_pool::effective_jobs(self.jobs), |ps| {
            for i in order {
                let mut ir = std::mem::take(&mut batches[i].ir);
                let slot = &slots[i];
                ps.spawn(move |ps| {
                    let outcome = compiler.optimize(&mut ir, Some(ps));
                    *slot.lock().expect("batch slot poisoned") = Some((ir, outcome));
                });
            }
            // The scope drains every task before returning.
        });
        for (batch, slot) in batches.into_iter().zip(slots) {
            let (optimized, outcome) = slot
                .into_inner()
                .expect("batch slot poisoned")
                .expect("the scope ran every batch task");
            let parked = self.book_restricted_run(&batch.module, &optimized, outcome, &batch.stale);
            for (f, prepared) in batch.stale.into_iter().zip(parked) {
                self.prepared.insert((batch.module.clone(), f), prepared);
            }
        }
    }

    /// Books one restricted optimization run of `module` — deferred cache
    /// inserts, phase timings, snapshot totals — and extracts the artifact
    /// of each `wanted` function, in `wanted` order.
    fn book_restricted_run(
        &mut self,
        module: &str,
        optimized: &sfcc_ir::Module,
        outcome: OptimizeOutcome,
        wanted: &[String],
    ) -> Vec<PreparedFn> {
        self.cache_inserts.extend(outcome.cache_inserts);
        let timings = self.timings.entry(module.to_string()).or_default();
        timings.middle_ns += outcome.middle_ns;
        timings.state_ns += outcome.state_ns;
        self.snapshots
            .entry(module.to_string())
            .or_default()
            .absorb(&outcome.trace);
        wanted
            .iter()
            .map(|f| PreparedFn {
                func: optimized
                    .function(f)
                    .cloned()
                    .expect("restricted run covers every demanded function"),
                ftrace: outcome
                    .trace
                    .function(f)
                    .cloned()
                    .expect("restricted trace covers every demanded function"),
            })
            .collect()
    }

    /// Applies the wave's accumulated function-cache inserts to the session
    /// cache. The driver calls this at wave boundaries — the same points for
    /// every `--jobs` value — so what later waves can hit is deterministic.
    pub(crate) fn flush_cache_inserts(&mut self) {
        let inserts = std::mem::take(&mut self.cache_inserts);
        self.compiler.apply_cache_inserts(inserts);
    }

    /// Reads a module's source — the build's actual access to the `src:m`
    /// resource, noted for depcheck attribution at the point of use.
    fn source_of(&mut self, module: &str) -> &'a str {
        self.note_access(&format!("src:{module}"));
        self.project.file(module).unwrap_or("")
    }

    /// Declares `input` as a dependency through `ctx` — unless a depcheck
    /// mutation suppresses exactly this declaration (seeding a missing
    /// dep).
    fn declare_input(&mut self, ctx: &mut Ctx<'_, Self>, label: &str, input: &str) {
        if !self.mutations.drops(label, input) {
            ctx.input(self, input);
        }
    }

    /// The honest stamp of an input cell, bypassing depcheck mutations.
    /// This is what the staleness audit compares recorded stamps against.
    pub(crate) fn raw_input_stamp(&mut self, input: &str) -> u64 {
        if input == "manifest" {
            let names: Vec<&str> = self.project.names().collect();
            fnv64(names.join(",").as_bytes())
        } else if let Some(m) = input.strip_prefix("src:") {
            match self.project.file(m) {
                Some(source) => fnv64(source.as_bytes()),
                None => fnv64(b"<absent>"),
            }
        } else if let Some((m, f)) = input
            .strip_prefix("state:")
            .and_then(|rest| rest.split_once("::"))
        {
            self.compiler.state_stamp_fn(m, f)
        } else if let Some(rest) = input.strip_prefix("cas:") {
            match rest.split_once("::") {
                Some((m, f)) => self.cas_honest_stamp(m, f),
                None => 0,
            }
        } else {
            0
        }
    }

    /// The honest shared-store stamp for `m::f`: what a sound serve record
    /// must claim. Re-derived *from scratch* — today's source is frontend-ed
    /// and lowered, context fingerprints recomputed, and the full (never
    /// component-dropped) key built from them — so no amount of lying in
    /// the serve path can contaminate the reference value.
    fn cas_honest_stamp(&mut self, m: &str, f: &str) -> u64 {
        if !self.cas_contexts.contains_key(m) {
            let contexts = self.compute_cas_contexts(m).unwrap_or_default();
            self.cas_contexts.insert(m.to_string(), contexts);
        }
        self.cas_contexts
            .get(m)
            .and_then(|ctxs| ctxs.get(f))
            .and_then(|&ctx| self.compiler.cas_honest_stamp(ctx))
            .unwrap_or(0)
    }

    /// Frontend + lower `m` from the project's current source and return
    /// its context fingerprints. Function context fingerprints are
    /// closure-local, so the full-module derivation here agrees with the
    /// restricted-closure derivation the optimize tasks use.
    fn compute_cas_contexts(&self, m: &str) -> Option<HashMap<String, Fingerprint>> {
        let source = self.project.file(m)?;
        let mut env = ModuleEnv::new();
        for dep in parse_imports(m, source) {
            let Some(dep_src) = self.project.file(&dep) else {
                continue;
            };
            if let Ok(iface) = sfcc::extract_interface(&dep, dep_src) {
                env.insert(dep, iface);
            }
        }
        let mut diags = Diagnostics::new();
        let checked = sfcc_frontend::parse_and_check(m, source, &env, &mut diags)?;
        let ir = sfcc_ir::lower_module(&checked, &env);
        Some(sfcc::fncache::context_fingerprints(&ir))
    }

    /// Runs one function's restricted optimization on demand (no parked
    /// batch artifact): the function's own call closure, sequentially.
    /// Byte-identical to the batched path by construction.
    fn optimize_solo(
        &mut self,
        m: &str,
        f: &str,
        closure: &BTreeMap<String, Arc<Function>>,
    ) -> PreparedFn {
        let mut ir = sfcc_ir::Module::new(m);
        for func in closure.values() {
            ir.functions.push((**func).clone());
        }
        let outcome = self.compiler.optimize(&mut ir, None);
        self.book_restricted_run(m, &ir, outcome, &[f.to_string()])
            .pop()
            .expect("one artifact per wanted function")
    }
}

impl TaskSpec for BuildSpec<'_> {
    type Key = BuildTask;
    type Value = BuildValue;
    type Error = BuildError;

    fn execute(
        &mut self,
        key: &BuildTask,
        ctx: &mut Ctx<'_, Self>,
    ) -> Result<BuildValue, QueryError<BuildTask, BuildError>> {
        // Every resource access and faultfs op this task body makes
        // attributes to its label.
        let label = key.to_string();
        let _scope = sfcc_faultfs::task_scope(label.clone());
        for resource in self.mutations.phantom_accesses_for(&label) {
            self.note_access(&resource);
        }
        for path in self.mutations.rogue_reads_for(&label) {
            // A real durable read inside the task scope with no dependency
            // channel: the untracked-io class depcheck must flag. The op is
            // recorded whether or not the path exists.
            let _ = sfcc_faultfs::read(std::path::Path::new(&path));
        }
        let value = self.execute_inner(key, ctx, &label)?;
        for input in self.mutations.phantom_deps_for(&label) {
            ctx.input(self, &input);
        }
        Ok(value)
    }

    fn fingerprint(&self, _key: &BuildTask, value: &BuildValue) -> u64 {
        match value {
            BuildValue::Imports(deps) => fnv64(deps.join(",").as_bytes()),
            BuildValue::Parse(art) => fnv64(art.source.as_bytes()),
            BuildValue::Interface(interface) => interface_hash(interface),
            BuildValue::Graph(graph) => {
                let mut repr = String::new();
                for m in graph.topo_order() {
                    repr.push_str(m);
                    repr.push('=');
                    repr.push_str(&graph.imports_of(m).join(","));
                    repr.push(';');
                }
                fnv64(repr.as_bytes())
            }
            BuildValue::ModCheck(art) => {
                let mut names: Vec<&String> = art.global_types.keys().collect();
                names.sort();
                let mut repr = String::from("globals:");
                for name in names {
                    let value = art.global_values.get(name).copied().unwrap_or(0);
                    repr.push_str(&format!("{name}:{:?}={value};", art.global_types[name]));
                }
                repr.push_str("imports:");
                repr.push_str(&art.imports.join(","));
                repr.push_str(";roster:");
                repr.push_str(&art.roster.join(","));
                fnv64(repr.as_bytes())
            }
            BuildValue::FnAst(def) => match def.as_ref() {
                Some(def) => def_fingerprint(def),
                None => fnv64(b"<absent>"),
            },
            BuildValue::Signature(sig) => match sig.as_ref() {
                Some(sig) => fnv64(signature_repr(sig).as_bytes()),
                None => fnv64(b"<absent>"),
            },
            BuildValue::CheckFn(art) => {
                let def = &art.checked.ast.functions[0];
                fnv64(format!("{}|{}", def_repr(def), art.context_repr).as_bytes())
            }
            BuildValue::LowerFn(func) => fnv64(function_to_string(func).as_bytes()),
            BuildValue::OptimizeFn(art) => fnv64(art.text.as_bytes()),
            BuildValue::Codegen(art) => fnv64(&art.bytes),
            BuildValue::Link(link) => fnv64(&link.image),
        }
    }

    fn load(&mut self, key: &BuildTask) -> Option<BuildValue> {
        self.stored.load(key)
    }

    fn observe(&mut self, key: &BuildTask, hit: bool) {
        self.query_log.push((key.to_string(), hit));
    }

    fn input_stamp(&mut self, input: &str) -> u64 {
        let raw = self.raw_input_stamp(input);
        self.mutations.stamp(input, raw)
    }
}

impl BuildSpec<'_> {
    fn execute_inner(
        &mut self,
        key: &BuildTask,
        ctx: &mut Ctx<'_, Self>,
        label: &str,
    ) -> Result<BuildValue, QueryError<BuildTask, BuildError>> {
        match key {
            BuildTask::Imports(m) => {
                self.declare_input(ctx, label, &format!("src:{m}"));
                let deps = parse_imports(m, self.source_of(m));
                Ok(BuildValue::Imports(Arc::new(deps)))
            }
            BuildTask::Parse(m) => {
                self.declare_input(ctx, label, &format!("src:{m}"));
                let t = Instant::now();
                let source = self.source_of(m).to_string();
                let mut diags = Diagnostics::new();
                let ast = parser::parse(m, &source, &mut diags);
                let elapsed = t.elapsed().as_nanos() as u64;
                if diags.has_errors() {
                    let file = SourceFile::new(format!("{m}.mc"), source.as_str());
                    return Err(compile_error(m, diags, &file));
                }
                self.timings.entry(m.clone()).or_default().frontend_ns += elapsed;
                Ok(BuildValue::Parse(Arc::new(ParseArtifact { ast, source })))
            }
            BuildTask::Interface(m) => {
                let parse = ctx
                    .require(self, &BuildTask::Parse(m.clone()))?
                    .expect_parse();
                Ok(BuildValue::Interface(Arc::new(ModuleInterface::of(
                    &parse.ast,
                ))))
            }
            BuildTask::Graph => {
                self.declare_input(ctx, label, "manifest");
                // The module roster *is* the manifest resource: reading it
                // here is the access the declaration above must cover.
                self.note_access("manifest");
                let names: Vec<String> = self.project.names().map(str::to_string).collect();
                let mut imports = BTreeMap::new();
                for name in names {
                    let deps = ctx.require(self, &BuildTask::Imports(name.clone()))?;
                    imports.insert(name, (*deps.expect_imports()).clone());
                }
                let graph = DepGraph::from_imports(imports)
                    .map_err(|e| QueryError::Task(BuildError::Graph(e)))?;
                Ok(BuildValue::Graph(Arc::new(graph)))
            }
            BuildTask::ModCheck(m) => {
                let parse = ctx
                    .require(self, &BuildTask::Parse(m.clone()))?
                    .expect_parse();
                let imports = ctx
                    .require(self, &BuildTask::Imports(m.clone()))?
                    .expect_imports();
                let mut env = ModuleEnv::new();
                for dep in imports.iter() {
                    let interface = ctx
                        .require(self, &BuildTask::Interface(dep.clone()))?
                        .expect_interface();
                    env.insert(dep.clone(), (*interface).clone());
                }
                let t = Instant::now();
                let mut diags = Diagnostics::new();
                let level = check_module_level(&parse.ast, &env, &mut diags);
                let elapsed = t.elapsed().as_nanos() as u64;
                let Some(level) = level else {
                    let file = SourceFile::new(format!("{m}.mc"), parse.source.as_str());
                    return Err(compile_error(m, diags, &file));
                };
                self.timings.entry(m.clone()).or_default().frontend_ns += elapsed;
                let roster = parse.ast.functions.iter().map(|f| f.name.clone()).collect();
                Ok(BuildValue::ModCheck(Arc::new(ModCheckArtifact {
                    global_values: level.global_values,
                    global_types: level.global_types,
                    imports: (*imports).clone(),
                    roster,
                })))
            }
            BuildTask::FnAst(m, f) => {
                let parse = ctx
                    .require(self, &BuildTask::Parse(m.clone()))?
                    .expect_parse();
                Ok(BuildValue::FnAst(Arc::new(parse.ast.function(f).cloned())))
            }
            BuildTask::Signature(m, f) => {
                let interface = ctx
                    .require(self, &BuildTask::Interface(m.clone()))?
                    .expect_interface();
                Ok(BuildValue::Signature(Arc::new(
                    interface.functions.get(f.as_str()).cloned(),
                )))
            }
            BuildTask::CheckFn(m, f) => {
                let def = ctx
                    .require(self, &BuildTask::FnAst(m.clone(), f.clone()))?
                    .expect_fnast();
                let Some(def) = def.as_ref().clone() else {
                    return Err(QueryError::Task(BuildError::Compile {
                        module: m.clone(),
                        error: CompileError::Frontend {
                            rendered: format!(
                                "error: function `{f}` vanished from module `{m}` between parse and check"
                            ),
                            errors: 1,
                        },
                    }));
                };
                let modcheck = ctx
                    .require(self, &BuildTask::ModCheck(m.clone()))?
                    .expect_modcheck();
                // Per-callee signature dependencies: this is the edge that
                // kills the interface-hash cliff. Each resolved callee pins
                // exactly one `signature(q::g)` fingerprint; signatures this
                // function never consults cannot invalidate it.
                let mut local_sigs: HashMap<String, FuncSig> = HashMap::new();
                local_sigs.insert(def.name.clone(), FuncSig::of(&def));
                let mut env = ModuleEnv::new();
                let mut foreign: BTreeMap<String, HashMap<String, FuncSig>> = BTreeMap::new();
                let mut callee_repr = String::new();
                for (qualifier, callee) in callees_of(&def) {
                    match qualifier {
                        None => {
                            let sig = ctx
                                .require(self, &BuildTask::Signature(m.clone(), callee.clone()))?
                                .expect_signature();
                            match sig.as_ref() {
                                Some(sig) => {
                                    callee_repr.push_str(&format!(
                                        "{m}::{}={};",
                                        callee,
                                        signature_repr(sig)
                                    ));
                                    local_sigs.insert(callee.clone(), sig.clone());
                                }
                                None => {
                                    callee_repr.push_str(&format!("{m}::{callee}=<absent>;"));
                                }
                            }
                        }
                        Some(q) if modcheck.imports.contains(&q) => {
                            let sig = ctx
                                .require(self, &BuildTask::Signature(q.clone(), callee.clone()))?
                                .expect_signature();
                            match sig.as_ref() {
                                Some(sig) => {
                                    callee_repr.push_str(&format!(
                                        "{q}::{}={};",
                                        callee,
                                        signature_repr(sig)
                                    ));
                                    foreign
                                        .entry(q)
                                        .or_default()
                                        .insert(callee.clone(), sig.clone());
                                }
                                None => {
                                    callee_repr.push_str(&format!("{q}::{callee}=<absent>;"));
                                }
                            }
                        }
                        Some(q) => {
                            // Unimported module: no dependency to record —
                            // the checker reports the bad call from the
                            // shell's import list alone.
                            callee_repr.push_str(&format!("{q}::{callee}=<unimported>;"));
                        }
                    }
                }
                for (q, sigs) in foreign {
                    env.insert(q, ModuleInterface { functions: sigs });
                }
                let shell = sfcc_frontend::Module {
                    name: m.clone(),
                    imports: modcheck
                        .imports
                        .iter()
                        .map(|q| Import {
                            module: q.clone(),
                            span: Span::default(),
                        })
                        .collect(),
                    globals: Vec::new(),
                    functions: vec![def.clone()],
                };
                let level = ModuleLevel {
                    global_values: modcheck.global_values.clone(),
                    global_types: modcheck.global_types.clone(),
                    local_sigs: local_sigs.clone(),
                };
                let t = Instant::now();
                let mut diags = Diagnostics::new();
                let ok = check_function_with(&shell, &env, &level, &def, &mut diags);
                let elapsed = t.elapsed().as_nanos() as u64;
                if !ok {
                    // Error path: render against the real source (spans are
                    // from the real parse). Read directly — the build aborts
                    // before any dependency audit runs.
                    let source = self.project.file(m).unwrap_or("");
                    let file = SourceFile::new(format!("{m}.mc"), source);
                    return Err(compile_error(m, diags, &file));
                }
                self.timings.entry(m.clone()).or_default().frontend_ns += elapsed;
                let mut names: Vec<&String> = modcheck.global_types.keys().collect();
                names.sort();
                let mut context_repr = String::from("globals:");
                for name in names {
                    let value = modcheck.global_values.get(name).copied().unwrap_or(0);
                    context_repr.push_str(&format!(
                        "{name}:{:?}={value};",
                        modcheck.global_types[name]
                    ));
                }
                context_repr.push_str("callees:");
                context_repr.push_str(&callee_repr);
                Ok(BuildValue::CheckFn(Arc::new(CheckFnArtifact {
                    checked: CheckedModule {
                        ast: shell,
                        global_values: modcheck.global_values.clone(),
                        global_types: modcheck.global_types.clone(),
                        interface: ModuleInterface {
                            functions: local_sigs,
                        },
                    },
                    env,
                    context_repr,
                })))
            }
            BuildTask::LowerFn(m, f) => {
                let art = ctx
                    .require(self, &BuildTask::CheckFn(m.clone(), f.clone()))?
                    .expect_checkfn();
                let t = Instant::now();
                let def = &art.checked.ast.functions[0];
                let func = sfcc_ir::lower_function_def(&art.checked, &art.env, def);
                self.timings.entry(m.clone()).or_default().lower_ns +=
                    t.elapsed().as_nanos() as u64;
                Ok(BuildValue::LowerFn(Arc::new(func)))
            }
            BuildTask::OptimizeFn(m, f) => {
                // The intra-module call closure: pass pipelines may consult
                // callee bodies (inlining), so every transitively called
                // local function rides along in the restricted run. Results
                // for `f` are identical for any module ⊇ closure(f).
                let mut closure: BTreeMap<String, Arc<Function>> = BTreeMap::new();
                let mut queue = vec![f.clone()];
                while let Some(g) = queue.pop() {
                    if closure.contains_key(&g) {
                        continue;
                    }
                    let func = ctx
                        .require(self, &BuildTask::LowerFn(m.clone(), g.clone()))?
                        .expect_lowerfn();
                    let prefix = format!("{m}.");
                    for (_, iid) in func.iter_insts() {
                        if let Op::Call(target) = &func.inst(iid).op {
                            if let Some(local) = target.strip_prefix(&prefix) {
                                if !closure.contains_key(local) {
                                    queue.push(local.to_string());
                                }
                            }
                        }
                    }
                    closure.insert(g, func);
                }
                // The dormancy record is this task's tracked input; this is
                // its actual read, noted here (not in the batch, which runs
                // unattributed) so depcheck pins it to this label.
                let state_input = format!("state:{m}::{f}");
                self.note_access(&state_input);
                let PreparedFn { func, ftrace } =
                    match self.prepared.remove(&(m.clone(), f.clone())) {
                        Some(parked) => parked,
                        None => self.optimize_solo(m, f, &closure),
                    };
                let ingest_ns = self.compiler.ingest_function_trace(m, &ftrace);
                self.timings.entry(m.clone()).or_default().state_ns += ingest_ns;
                // Recorded *after* ingestion, so the dependency holds the
                // post-write stamp and the task does not invalidate itself.
                if !self.mutations.drops(label, &state_input) {
                    let stamp = self.compiler.state_stamp_fn(m, f);
                    ctx.record_input(&state_input, stamp);
                }
                // A shared-store serve is a tracked input of this task: the
                // recorded stamp is the *served* artifact's provenance key,
                // so revalidation (and the depcheck audit) compares it
                // against the honest key derivation — an under-keyed serve
                // is caught the session it happens.
                if let Some(stamps) = self.compiler.cas_served(m, f) {
                    let cas_input = format!("cas:{m}::{f}");
                    self.note_access(&cas_input);
                    if !self.mutations.drops(label, &cas_input) {
                        ctx.record_input(&cas_input, stamps.served);
                    }
                }
                Ok(BuildValue::OptimizeFn(Arc::new(OptimizeFnArtifact {
                    text: function_to_string(&func),
                    func,
                    ftrace: Some(ftrace),
                })))
            }
            BuildTask::Codegen(m) => {
                let modcheck = ctx
                    .require(self, &BuildTask::ModCheck(m.clone()))?
                    .expect_modcheck();
                let mut ir = sfcc_ir::Module::new(m.clone());
                for f in &modcheck.roster {
                    let art = ctx
                        .require(self, &BuildTask::OptimizeFn(m.clone(), f.clone()))?
                        .expect_optimizefn();
                    ir.functions.push(art.func.clone());
                }
                let (object, backend_ns) = sfcc::phases::codegen(&ir).map_err(|error| {
                    QueryError::Task(BuildError::Compile {
                        module: m.clone(),
                        error,
                    })
                })?;
                self.timings.entry(m.clone()).or_default().backend_ns += backend_ns;
                Ok(BuildValue::Codegen(Arc::new(CodegenArtifact::of(object))))
            }
            BuildTask::Link => {
                let graph = ctx.require(self, &BuildTask::Graph)?.expect_graph();
                let mut objects = Vec::with_capacity(graph.len());
                for m in graph.topo_order() {
                    let codegen = ctx
                        .require(self, &BuildTask::Codegen(m.clone()))?
                        .expect_codegen();
                    objects.push(codegen.object.clone());
                }
                let t = Instant::now();
                let program =
                    link_objects(&objects).map_err(|e| QueryError::Task(BuildError::Link(e)))?;
                self.link_ns = t.elapsed().as_nanos() as u64;
                Ok(BuildValue::Link(Arc::new(LinkArtifact::of(program))))
            }
        }
    }
}

/// Renders accumulated diagnostics into a [`BuildError::Compile`].
fn compile_error(
    module: &str,
    diags: Diagnostics,
    file: &SourceFile,
) -> QueryError<BuildTask, BuildError> {
    QueryError::Task(BuildError::Compile {
        module: module.to_string(),
        error: CompileError::Frontend {
            rendered: diags.render_all(file),
            errors: diags.error_count(),
        },
    })
}

/// The canonical text of one function signature: name, parameter types, and
/// return type. Equal reprs mean callers cannot observe a difference, which
/// is what makes its hash the `signature(m::f)` task's early-cutoff
/// fingerprint.
pub fn signature_repr(sig: &FuncSig) -> String {
    let mut repr = String::new();
    repr.push_str(&sig.name);
    repr.push('(');
    for param in &sig.params {
        repr.push_str(&format!("{param:?},"));
    }
    repr.push_str(&format!(")->{:?}", sig.ret));
    repr
}

/// A deterministic hash of a module's exported interface: function names
/// and signatures, order-independent (the underlying map is unordered).
/// Equal hashes mean dependents cannot observe a *set-level* difference;
/// per-caller invalidation goes through [`signature_repr`] instead.
pub fn interface_hash(interface: &ModuleInterface) -> u64 {
    let mut names: Vec<&String> = interface.functions.keys().collect();
    names.sort();
    let mut repr = String::new();
    for name in names {
        repr.push_str(&signature_repr(&interface.functions[name]));
        repr.push(';');
    }
    fnv64(repr.as_bytes())
}
