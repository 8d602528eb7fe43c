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
//! | `imports(m)`      | `parse(m)`                                    | import list            |
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
//!
//! The engine schedules everything, optimization runs included. The first
//! `optimizefn` of a module to execute with nothing parked for it asks which
//! of the module's other `optimizefn`s are stale, and optimizes them all as
//! one restricted run over their union call closure; their executions take
//! its results. `link` plans the same per-module runs a window of modules
//! at a time before it demands their `codegen`s, so the runs of modules
//! that rebuild together share one pool.

use crate::builder::BuildError;
use crate::depcheck::DepMutations;
use crate::depgraph::Stored;
use crate::graph::{graph_repr, DepGraph};
use crate::project::Project;
use crate::report::ModuleOutput;
use sfcc::{CompileError, Compiler, OptimizeOutcome, PhaseTimings};
use sfcc_backend::{link_image, CodeObject, Program};
use sfcc_codec::{fnv64, Fnv64};
use sfcc_faultfs::AccessRecord;
use sfcc_frontend::ast::{FunctionDef, Import, TypeAst};
use sfcc_frontend::fingerprint::def_repr;
use sfcc_frontend::{
    callees_of, check_function_with, check_module_level, def_fingerprint, parser, CheckedModule,
    Diagnostics, FuncSig, ModuleEnv, ModuleInterface, ModuleLevel, SourceFile, Span,
};
use sfcc_ir::print::{function_to_string, write_function};
use sfcc_ir::{Function, Op};
use sfcc_passes::FunctionTrace;
use sfcc_query::{Ctx, Engine, Loaded, QueryError, TaskId, TaskKey, TaskSpec};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One unit of memoizable build work, keyed by module — and, from type
/// checking onward, by function.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BuildTask {
    /// Project a module's import list out of its parsed AST.
    Imports(String),
    /// Lex and parse a module's source to an AST.
    Parse(String),
    /// Extract a module's exported interface from its parsed AST.
    Interface(String),
    /// Assemble the whole-project import graph and its topological order.
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
        let (kind, module, function) = split_label(label)?;
        let m = || Some(module?.to_string());
        let f = || Some((module?.to_string(), function?.to_string()));
        Some(match kind {
            "graph" | "link" if module.is_some() => return None,
            "graph" => BuildTask::Graph,
            "link" => BuildTask::Link,
            "imports" => BuildTask::Imports(m()?),
            "parse" => BuildTask::Parse(m()?),
            "interface" => BuildTask::Interface(m()?),
            "modcheck" => BuildTask::ModCheck(m()?),
            "codegen" => BuildTask::Codegen(m()?),
            "fnast" => f().map(|(m, f)| BuildTask::FnAst(m, f))?,
            "signature" => f().map(|(m, f)| BuildTask::Signature(m, f))?,
            "checkfn" => f().map(|(m, f)| BuildTask::CheckFn(m, f))?,
            "lowerfn" => f().map(|(m, f)| BuildTask::LowerFn(m, f))?,
            "optimizefn" => f().map(|(m, f)| BuildTask::OptimizeFn(m, f))?,
            _ => return None,
        })
    }
}

impl TaskKey for BuildTask {
    fn parse(label: &str) -> Option<BuildTask> {
        BuildTask::parse(label)
    }
}

/// The kinds whose operand is `module::function`.
const FUNCTION_KINDS: [&str; 5] = ["fnast", "signature", "checkfn", "lowerfn", "optimizefn"];

/// A label split as [`BuildTask::parse`] reads it, without building the
/// key: `(kind, module, function)` — a module for a per-module task, a
/// function too for a function-grained one.
pub(crate) fn split_label(label: &str) -> Option<(&str, Option<&str>, Option<&str>)> {
    let Some((kind, rest)) = label.split_once('(') else {
        return Some((label, None, None));
    };
    let operand = rest.strip_suffix(')')?;
    if !FUNCTION_KINDS.contains(&kind) {
        return Some((kind, Some(operand), None));
    }
    let (m, f) = operand.rsplit_once("::")?;
    Some((kind, Some(m), Some(f)))
}

/// What [`BuildTask::module`] and [`BuildTask::function`] answer for the
/// task `label` names, read off the label: `(module, function)`.
pub(crate) fn label_scope(label: &str) -> (Option<&str>, Option<&str>) {
    split_label(label).map_or((None, None), |(_, m, f)| (m, f))
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

impl ModCheckArtifact {
    /// The module's globals sorted by name, `globals:name:Type=value;…`:
    /// the text the module check's fingerprint and every function check's
    /// context both start with.
    fn globals_repr(&self) -> String {
        let mut names: Vec<&String> = self.global_types.keys().collect();
        names.sort();
        let mut repr = String::from("globals:");
        for name in names {
            let value = self.global_values.get(name).copied().unwrap_or(0);
            repr.push_str(&format!("{name}:{:?}={value};", self.global_types[name]));
        }
        repr
    }
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

/// What a per-function optimize memoizes: the transformed function and its
/// IR text — made once: the task's fingerprint hashes it, and it is the
/// value the persisted query graph carries. The pass trace that produced
/// it belongs to the build's report, not to the value
/// (`BuildSpec::take_trace`).
#[derive(Debug, Clone)]
pub struct OptimizeFnArtifact {
    /// The optimized function, shared with the run that made it — and with
    /// the function cache, or with the `lowerfn` value when every slot
    /// skipped it.
    pub func: Arc<Function>,
    /// `sfcc_ir::function_to_string` of `func`.
    pub text: String,
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

/// What the link task memoizes: the program's image encoding — the bytes
/// the task's fingerprint is taken of, the persisted query graph carries
/// and the image file holds. Whoever runs the program decodes it
/// ([`crate::LinkedProgram`]).
#[derive(Debug, Clone)]
pub struct LinkArtifact {
    /// `sfcc_backend::image::to_bytes` of the program.
    pub image: Vec<u8>,
}

impl LinkArtifact {
    /// A program's image encoding.
    pub fn of(program: &Program) -> Self {
        LinkArtifact {
            image: sfcc_backend::image::to_bytes(program),
        }
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
    /// Output of [`BuildTask::FnAst`]: the definition `parse(m)` holds,
    /// `None` when the function is absent from the module.
    FnAst(Option<Arc<FunctionDef>>),
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

    /// The definition a `fnast` task yields, shared.
    pub(crate) fn expect_fnast(&self) -> Option<Arc<FunctionDef>> {
        match self {
            BuildValue::FnAst(def) => def.as_ref().map(Arc::clone),
            other => unreachable!("fnast task yields a matching value, got {other:?}"),
        }
    }
}

/// An optimized function a restricted run computed for an `optimizefn`
/// execution ([`BuildSpec::optimize_runs`]), taken at most once by it.
#[derive(Debug)]
struct PreparedFn {
    func: Arc<Function>,
    ftrace: FunctionTrace,
}

/// One module's restricted optimization run ([`BuildSpec::plan_run`]).
struct ModuleRun {
    module: String,
    /// The functions whose artifacts the run parks.
    roots: Vec<String>,
    /// The roots' union call closure, sorted by function name: the
    /// `lowerfn` values themselves.
    functions: Vec<Arc<Function>>,
}

/// How many modules, in topological order, `link` plans and optimizes
/// side by side before it demands their `codegen`s. Fixed, so the points
/// where fresh cache entries become visible do not depend on `--jobs`.
const FAN_OUT: usize = 8;

/// The [`TaskSpec`] driving one build: a project snapshot, the (stateful)
/// compiler session, and the scratch the driver reads back afterwards
/// (per-module phase timings and snapshot counters, link time, parked
/// optimize artifacts).
pub struct BuildSpec<'a> {
    project: &'a Project,
    compiler: &'a mut Compiler,
    /// The values the last process's graph carried that no demand has
    /// loaded yet ([`TaskSpec::load`]).
    stored: &'a mut Stored,
    prepared: HashMap<(String, String), PreparedFn>,
    /// The pass trace of each `optimizefn` that executed this build, until
    /// the report takes it.
    traces: HashMap<(String, String), FunctionTrace>,
    /// Input stamps taken this build before the session opened, handed to
    /// the engine once each instead of being taken again.
    primed: HashMap<String, u64>,
    /// Per-module phase timings of the tasks that ran this build, and the
    /// snapshot and batch counters of its restricted optimization runs.
    outputs: HashMap<String, ModuleOutput>,
    link_ns: u64,
    jobs: usize,
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
}

/// The module-local call closure of `roots` in `module`: every function
/// they transitively call through `Op::Call`, each with the lowered IR that
/// `lower` (the `lowerfn` demand) returns. Sorted by name, so a batch
/// module built from it is identical for every demand order and `--jobs`.
pub(crate) fn call_closure<E>(
    module: &str,
    roots: Vec<String>,
    mut lower: impl FnMut(&str) -> Result<Arc<Function>, E>,
) -> Result<BTreeMap<String, Arc<Function>>, E> {
    let prefix = format!("{module}.");
    let mut closure = BTreeMap::new();
    let mut queue = roots;
    while let Some(g) = queue.pop() {
        if closure.contains_key(&g) {
            continue;
        }
        let func = lower(&g)?;
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
    Ok(closure)
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
            traces: HashMap::new(),
            primed: HashMap::new(),
            outputs: HashMap::new(),
            link_ns: 0,
            jobs: jobs.max(1),
            query_log: Vec::new(),
            mutations,
            accesses: depcheck.then(Vec::new),
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

    /// The phase timings and optimize-run counters accumulated for a module
    /// this build (zeros for phases the engine validated instead of
    /// running); its function traces are the driver's to fill in.
    pub(crate) fn take_output(&mut self, module: &str) -> ModuleOutput {
        self.outputs.remove(module).unwrap_or_default()
    }

    /// The phase timings accumulated for a module this build.
    fn timings(&mut self, module: &str) -> &mut PhaseTimings {
        &mut self.outputs.entry(module.to_string()).or_default().timings
    }

    /// The pass trace of `optimizefn(module::function)`, when it executed
    /// this build, handed over once.
    pub(crate) fn take_trace(&mut self, module: &str, function: &str) -> Option<FunctionTrace> {
        let key = (module.to_string(), function.to_string());
        self.traces.remove(&key)
    }

    /// Hands the engine `stamps`, taken this build, for the inputs it
    /// stamps next instead of taking them again.
    pub(crate) fn prime(&mut self, stamps: HashMap<String, u64>) {
        self.primed = stamps;
    }

    /// Ends the build's use of the compiler session and hands it back.
    pub(crate) fn into_compiler(self) -> &'a mut Compiler {
        self.compiler
    }

    /// Opens the compiler session's function cache on the thread that
    /// drives the build, outside any task scope, so a fault plan counts its
    /// reads and no task is charged with them.
    pub(crate) fn open_cache(&self) {
        self.compiler.function_cache();
    }

    /// Reports the stored values this build rejected to the compiler
    /// session, one recovery event each, and returns how many stored
    /// values it hashed.
    pub(crate) fn settle_stored(&mut self, engine: &Engine<BuildTask, BuildValue>) -> u64 {
        self.stored.report_rejected(engine, self.compiler);
        self.stored.take_verified()
    }

    /// Wall time of the link step this build, 0 when the link was cached.
    pub(crate) fn link_ns(&self) -> u64 {
        self.link_ns
    }

    /// The restricted optimization run module `m` still needs, or `None`:
    /// its roster functions whose `optimizefn` will execute and has nothing
    /// parked — `executing`, the one running, and each other one the engine
    /// does not find up to date — over their union call closure, built from
    /// `lowerfn` values. Neither the probes nor the values are edges of the
    /// running task: each function's `optimizefn` records its own, and its
    /// result is byte-identical for any superset of its closure.
    fn plan_run(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        m: &str,
        executing: Option<&str>,
    ) -> Result<Option<ModuleRun>, QueryError<BuildTask, BuildError>> {
        let modcheck = ctx
            .prefetch(self, &BuildTask::ModCheck(m.to_string()))?
            .expect_modcheck();
        let mut roots: Vec<String> = executing.map(str::to_string).into_iter().collect();
        for g in &modcheck.roster {
            if executing == Some(g.as_str())
                || self.prepared.contains_key(&(m.to_string(), g.clone()))
            {
                continue;
            }
            if !ctx.up_to_date(self, &BuildTask::OptimizeFn(m.to_string(), g.clone()))? {
                roots.push(g.clone());
            }
        }
        if roots.is_empty() {
            return Ok(None);
        }
        let closure = call_closure(m, roots.clone(), |g| {
            ctx.prefetch(self, &BuildTask::LowerFn(m.to_string(), g.to_string()))
                .map(|value| value.expect_lowerfn())
        })?;
        Ok(Some(ModuleRun {
            module: m.to_string(),
            roots,
            functions: closure.into_values().collect(),
        }))
    }

    /// Runs planned modules side by side on one pool of `self.jobs` workers
    /// (capped at the host's available parallelism; a width-1 pool runs
    /// them on the calling thread), largest first, then books each in plan
    /// order: its roots' artifacts are parked for their `optimizefn`
    /// executions to take, and its phase timings and snapshot counters are
    /// added to its module's. The runs' fresh cache entries are applied
    /// last, in plan order, in one publish to the shared store: a point of
    /// the demand order that no `--jobs` value moves, so cache visibility
    /// (and hence every trace, image, and state file) is independent of the
    /// worker count. A run reads only the frozen session, so which runs
    /// share the pool changes no byte of any result.
    fn optimize_runs(&mut self, mut runs: Vec<ModuleRun>) {
        if runs.is_empty() {
            return;
        }
        let compiler: &Compiler = self.compiler;
        let outcomes: Vec<Mutex<Option<OptimizeOutcome>>> =
            runs.iter().map(|_| Mutex::new(None)).collect();
        let inputs: Vec<Vec<Arc<Function>>> = runs
            .iter_mut()
            .map(|run| std::mem::take(&mut run.functions))
            .collect();
        let mut largest_first: Vec<_> = runs
            .iter()
            .map(|run| run.module.as_str())
            .zip(inputs)
            .zip(&outcomes)
            .collect();
        largest_first.sort_by_key(|((_, functions), _)| std::cmp::Reverse(functions.len()));
        sfcc_pool::scope(sfcc_pool::effective_jobs(self.jobs), |ps| {
            for ((module, functions), outcome) in largest_first {
                ps.spawn(move |ps| {
                    *outcome.lock().expect("run slot poisoned") =
                        Some(compiler.optimize(module, functions, ps));
                });
            }
        });
        let mut inserts = Vec::new();
        for (run, outcome) in runs.into_iter().zip(outcomes) {
            let outcome = outcome
                .into_inner()
                .expect("run slot poisoned")
                .expect("the scope ran every run");
            let m = run.module;
            inserts.extend(outcome.cache_inserts);
            let output = self.outputs.entry(m.clone()).or_default();
            output.timings.middle_ns += outcome.middle_ns;
            output.timings.state_ns += outcome.state_ns;
            output.trace.absorb_counters(&outcome.trace);
            // Bodies and traces come back in run order; the roots' move
            // out to their executions.
            for (func, ftrace) in outcome.functions.into_iter().zip(outcome.trace.functions) {
                if run.roots.contains(&func.name) {
                    let key = (m.clone(), func.name.clone());
                    self.prepared.insert(key, PreparedFn { func, ftrace });
                }
            }
        }
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
    /// A `cas:m::f` input reads the attached store's identity whatever the
    /// function: an honest serve recorded exactly that, and a lie recorded
    /// a key no identity equals ([`sfcc_cas::CasStore::served`]).
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
        } else if input.starts_with("cas:") {
            self.compiler
                .cas()
                .map_or(0, sfcc_cas::CasStore::identity_stamp)
        } else {
            0
        }
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
            BuildValue::Graph(graph) => fnv64(graph_repr(graph).as_bytes()),
            BuildValue::ModCheck(art) => {
                let mut repr = art.globals_repr();
                repr.push_str("imports:");
                repr.push_str(&art.imports.join(","));
                repr.push_str(";roster:");
                repr.push_str(&art.roster.join(","));
                fnv64(repr.as_bytes())
            }
            BuildValue::FnAst(def) => match def {
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
            BuildValue::LowerFn(func) => printed_fnv64(func),
            BuildValue::OptimizeFn(art) => fnv64(art.text.as_bytes()),
            BuildValue::Codegen(art) => fnv64(&art.bytes),
            BuildValue::Link(link) => fnv64(&link.image),
        }
    }

    fn load(&mut self, id: TaskId, key: &BuildTask) -> Loaded<BuildValue> {
        self.stored.load(id, key)
    }

    fn observe(&mut self, key: &BuildTask, hit: bool) {
        self.query_log.push((key.to_string(), hit));
    }

    fn input_stamp(&mut self, input: &str) -> u64 {
        let raw = match self.primed.remove(input) {
            Some(stamp) => stamp,
            None => self.raw_input_stamp(input),
        };
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
                let parse = ctx
                    .require(self, &BuildTask::Parse(m.clone()))?
                    .expect_parse();
                let mut deps: Vec<String> =
                    parse.ast.imports.iter().map(|i| i.module.clone()).collect();
                deps.sort();
                deps.dedup();
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
                self.timings(m).frontend_ns += elapsed;
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
                self.timings(m).frontend_ns += elapsed;
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
                Ok(BuildValue::FnAst(parse.ast.function(f).map(Arc::clone)))
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
                let Some(def) = def else {
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
                    functions: vec![Arc::clone(&def)],
                };
                let level = ModuleLevel {
                    global_values: modcheck.global_values.clone(),
                    global_types: modcheck.global_types.clone(),
                    local_sigs,
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
                self.timings(m).frontend_ns += elapsed;
                let mut context_repr = modcheck.globals_repr();
                context_repr.push_str("callees:");
                context_repr.push_str(&callee_repr);
                // The level the shell was checked against moves into the
                // checked module: its maps are copied once per function.
                let ModuleLevel {
                    global_values,
                    global_types,
                    local_sigs,
                } = level;
                Ok(BuildValue::CheckFn(Arc::new(CheckFnArtifact {
                    checked: CheckedModule {
                        ast: shell,
                        global_values,
                        global_types,
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
                self.timings(m).lower_ns += t.elapsed().as_nanos() as u64;
                Ok(BuildValue::LowerFn(Arc::new(func)))
            }
            BuildTask::OptimizeFn(m, f) => {
                // The intra-module call closure is this task's input: pass
                // pipelines may consult callee bodies (inlining), so every
                // transitively called local function rides along in the
                // restricted run. Results for `f` are identical for any
                // module ⊇ closure(f), so the run may be its module's.
                call_closure(m, vec![f.clone()], |g| {
                    ctx.require(self, &BuildTask::LowerFn(m.clone(), g.to_string()))
                        .map(|value| value.expect_lowerfn())
                })?;
                // The dormancy record is this task's tracked input; this is
                // its actual read, noted here (not in the module's run) so
                // depcheck pins it to this label.
                let state_input = format!("state:{m}::{f}");
                self.note_access(&state_input);
                let parked = (m.clone(), f.clone());
                if !self.prepared.contains_key(&parked) {
                    let run = self.plan_run(ctx, m, Some(f))?;
                    self.optimize_runs(run.into_iter().collect());
                }
                let PreparedFn { func, ftrace } = self
                    .prepared
                    .remove(&parked)
                    .expect("a run parked this root");
                let ingest_ns = self.compiler.ingest_function_trace(m, &ftrace);
                self.timings(m).state_ns += ingest_ns;
                // Recorded *after* ingestion, so the dependency holds the
                // post-write stamp and the task does not invalidate itself.
                if !self.mutations.drops(label, &state_input) {
                    let stamp = self.compiler.state_stamp_fn(m, f);
                    ctx.record_input(&state_input, stamp);
                }
                // A shared-store serve is a tracked input of this task: the
                // recorded stamp is the store's serve record, which
                // revalidation (and the depcheck audit) compares against the
                // store's identity — an under-keyed serve is caught the
                // session it happens.
                if let Some(served) = self.compiler.cas().and_then(|cas| cas.served(m, f)) {
                    let cas_input = format!("cas:{m}::{f}");
                    self.note_access(&cas_input);
                    if !self.mutations.drops(label, &cas_input) {
                        ctx.record_input(&cas_input, served);
                    }
                }
                self.traces.insert(parked, ftrace);
                Ok(BuildValue::OptimizeFn(Arc::new(OptimizeFnArtifact {
                    text: function_to_string(&func),
                    func,
                })))
            }
            BuildTask::Codegen(m) => {
                let modcheck = ctx
                    .require(self, &BuildTask::ModCheck(m.clone()))?
                    .expect_modcheck();
                let mut arts = Vec::with_capacity(modcheck.roster.len());
                for f in &modcheck.roster {
                    arts.push(
                        ctx.require(self, &BuildTask::OptimizeFn(m.clone(), f.clone()))?
                            .expect_optimizefn(),
                    );
                }
                let functions = arts.iter().map(|art| &*art.func);
                let (object, backend_ns) =
                    sfcc::phases::codegen(m, functions).map_err(|error| {
                        QueryError::Task(BuildError::Compile {
                            module: m.clone(),
                            error,
                        })
                    })?;
                self.timings(m).backend_ns += backend_ns;
                Ok(BuildValue::Codegen(Arc::new(CodegenArtifact::of(object))))
            }
            BuildTask::Link => {
                let graph = ctx.require(self, &BuildTask::Graph)?.expect_graph();
                let mut codegens = Vec::with_capacity(graph.len());
                // Modules whose `codegen` will execute have their runs
                // planned and optimized side by side, a window at a time;
                // a probe that finds a stale `codegen` has already run the
                // stale `optimizefn`s it reached, so their plans skip them.
                for window in graph.topo_order().chunks(FAN_OUT) {
                    let mut runs = Vec::new();
                    for m in window {
                        if !ctx.up_to_date(self, &BuildTask::Codegen(m.clone()))? {
                            runs.extend(self.plan_run(ctx, m, None)?);
                        }
                    }
                    self.optimize_runs(runs);
                    for m in window {
                        codegens.push(
                            ctx.require(self, &BuildTask::Codegen(m.clone()))?
                                .expect_codegen(),
                        );
                    }
                }
                let t = Instant::now();
                let objects: Vec<&CodeObject> = codegens.iter().map(|c| &c.object).collect();
                let image =
                    link_image(&objects).map_err(|e| QueryError::Task(BuildError::Link(e)))?;
                self.link_ns = t.elapsed().as_nanos() as u64;
                Ok(BuildValue::Link(Arc::new(LinkArtifact { image })))
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

/// `fnv64` of `func`'s printed text, hashed as the printer streams it.
fn printed_fnv64(func: &Function) -> u64 {
    let mut h = Fnv64::new();
    write_function(&mut h, func).expect("hashing cannot fail");
    h.finish()
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

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc::Config;

    /// A `cas:` input reads the attached store's identity, whatever the
    /// function it names — a module the project does not have included —
    /// and 0 with no store attached.
    #[test]
    fn a_cas_stamp_is_the_store_identity() {
        let dir = std::env::temp_dir().join(format!("sfcc-tasks-cas-{}", std::process::id()));
        let mut project = Project::new();
        project.set_file("main".into(), "fn main() -> int { return 0; }".into());
        let stamps = |config: Config| {
            let mut compiler = Compiler::new(config);
            let mut stored = Stored::default();
            let mut spec = BuildSpec::new(
                &project,
                &mut compiler,
                &mut stored,
                1,
                DepMutations::new(),
                false,
            );
            [
                spec.raw_input_stamp("cas:ghost::f"),
                spec.raw_input_stamp("cas:main::main"),
            ]
        };
        let [ghost, main] = stamps(Config::stateless().with_cas_path(&dir));
        assert_eq!(ghost, main);
        assert_ne!(main, 0);
        assert_eq!(stamps(Config::stateless()), [0, 0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
