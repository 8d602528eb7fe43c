//! The incremental build driver.
//!
//! A [`Builder`] owns a [`Compiler`] session and a demand-driven query
//! [`Engine`] whose store of memoized task outputs persists across builds.
//! Each [`Builder::build`] call:
//!
//! 1. opens an engine session, which re-stamps every tracked input (source
//!    files, the module manifest, per-function dormancy state) and
//!    invalidates exactly the tasks downstream of a changed stamp;
//! 2. opens the function cache, unless that left `link` valid;
//! 3. demands [`BuildTask::Link`]. The engine does the rest: `link` needs
//!    the import graph and every module's `codegen`, and a module's stale
//!    `optimizefn`s are optimized together as one restricted run over
//!    their union call closure — planned by `link`, a window of modules
//!    side by side, or else by the first of them to execute (see
//!    [`crate::tasks`]). Wherever an
//!    output fingerprint proves nothing changed, the store answers (early
//!    cutoff); a valid `link` is answered without a task executed, the
//!    function cache or the program read.
//!
//! A process's first [`Builder::build_image`] checks, before any of that,
//! the inputs the committed graph's tip records `link` read: when none
//! moved and the image file holds `link`'s image, `link` is a hit and the
//! graph, the state and the cache are never read.
//!
//! The report reads the engine's records: the module order is `link`'s
//! recorded `codegen` dependencies, a module is rebuilt when its `codegen`
//! or one of its `optimizefn`s executed, and its roster is the `optimizefn`
//! dependencies its `codegen` recorded.
//!
//! The old interface-hash staleness cliff is gone: cross-module dependencies
//! attach to per-function `signature(q::g)` fingerprints recorded by the
//! `checkfn` tasks that actually resolved them (see [`crate::tasks`]), so a
//! signature edit re-demands only the functions that call it, and a body
//! edit re-runs exactly one function's pipeline.
//!
//! Skip decisions during a build read a state snapshot *frozen* at session
//! start ([`Compiler::freeze_state`]): per-function trace ingestion mutates
//! the live database mid-session, and freezing keeps every function's skip
//! decision — and therefore every byte — independent of demand order.
//!
//! The store outlives the process: a build that executed anything leaves
//! the store's graph — fingerprints, dependency traces, and the values of
//! `optimizefn`, `codegen`, `link` and `graph` — with the compiler session, whose
//! next state commit persists it beside the dormancy state (module
//! `depgraph`); a new process's first build starts from it, so it executes
//! exactly what a resident session would (see `crate::depgraph`).
//!
//! The compiler session's dormancy state persists across builds (that is
//! the paper's point); [`Builder::clear_cache`] drops only the *query
//! store*, forcing full recompilation while keeping the dormancy state,
//! which is exactly the "fresh checkout, warm state" CI scenario.

use crate::depcheck::{self, DepFindingKind, DepMutations, DepcheckReport};
use crate::depgraph::{self, recorded};
use crate::graph::GraphError;
use crate::project::Project;
use crate::report::{BuildReport, LinkedProgram, ModuleOutput, ModuleReport, QueryStats};
use crate::tasks::{label_scope, BuildSpec, BuildTask, BuildValue, LinkArtifact};
use sfcc::persist::{Artifact, RecoveryEvent};
use sfcc::{CompileError, Compiler};
use sfcc_backend::LinkError;
use sfcc_codec::fnv64;
use sfcc_faultfs::{OpCounts, RecordGuard};
use sfcc_passes::PassOutcome;
use sfcc_query::{Engine, QueryError, SessionStats, TaskSpec};
use sfcc_trace::{ArgValue, Registry, SpanId, Trace};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Why a build failed.
#[derive(Debug)]
pub enum BuildError {
    /// The project's import graph is unusable.
    Graph(GraphError),
    /// A module failed to compile.
    Compile {
        /// The failing module.
        module: String,
        /// The compiler's error.
        error: CompileError,
    },
    /// Linking the objects failed.
    Link(LinkError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Graph(e) => write!(f, "{e}"),
            BuildError::Compile { module, error } => {
                write!(f, "module `{module}` failed to compile:\n{error}")
            }
            BuildError::Link(e) => write!(f, "link failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

impl From<LinkError> for BuildError {
    fn from(e: LinkError) -> Self {
        BuildError::Link(e)
    }
}

/// Maps an engine-level failure back to the build's error type. Demand
/// cycles cannot outlive the `graph` task (which rejects cyclic imports
/// first), but are mapped defensively to the same diagnostic.
fn seal(err: QueryError<BuildTask, BuildError>) -> BuildError {
    match err {
        QueryError::Task(e) => e,
        QueryError::Cycle(path) => BuildError::Graph(GraphError::Cycle(
            path.iter()
                .map(|t| t.module().unwrap_or("?").to_string())
                .collect(),
        )),
    }
}

/// The incremental build driver: compiler session + persistent query store.
pub struct Builder {
    compiler: Compiler,
    engine: Engine<BuildTask, BuildValue>,
    jobs: usize,
    tracing: bool,
    depcheck: bool,
    mutations: DepMutations,
    /// The values the restored graph carried that no demand has loaded.
    stored: depgraph::Stored,
    /// Whether the store holds nodes this process did not compute: set by
    /// restoring the last process's graph, cleared only with the store.
    restored: bool,
    /// The committed graph the store extends, with the manifest checksum
    /// of the chain tip it was committed as: what the next segment is
    /// written against.
    committed: Option<(u64, depgraph::Committed)>,
    /// The graph the compiler holds for its next commit, as the store sees
    /// it: `committed` once that commit lands.
    deposited: Option<depgraph::Committed>,
    /// The image the last build found its image file holding, when it
    /// answered `link` from the committed inputs ([`Builder::build_image`]).
    held: Option<Arc<LinkArtifact>>,
}

impl fmt::Debug for Builder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Builder")
            .field("cached_tasks", &self.engine.len())
            .field("jobs", &self.jobs)
            .field("compiler", &self.compiler)
            .finish()
    }
}

impl Builder {
    /// Creates a builder around a compiler session. Builds run sequentially
    /// until [`Builder::with_jobs`] or [`Builder::with_parallelism`] raises
    /// the worker count.
    pub fn new(compiler: Compiler) -> Self {
        Builder {
            compiler,
            engine: Engine::new(),
            jobs: 1,
            tracing: false,
            depcheck: false,
            mutations: DepMutations::new(),
            stored: depgraph::Stored::default(),
            restored: false,
            committed: None,
            deposited: None,
            held: None,
        }
    }

    /// Turns on dependency-soundness checking: subsequent builds record
    /// every task-attributed resource access and faultfs op, diff them
    /// against the engine's declared dependencies, and attach the verdict
    /// as [`BuildReport::depcheck`]. The evidence belongs to the build
    /// that collects it, so audited builds of different sessions run
    /// concurrently; they are slower, and build outputs are unaffected.
    pub fn with_depcheck(mut self) -> Self {
        self.depcheck = true;
        self
    }

    /// Installs adversarial dependency mutations for subsequent builds —
    /// the fuzzing half of depcheck (see [`DepMutations`]).
    pub fn with_dep_mutations(mut self, mutations: DepMutations) -> Self {
        self.mutations = mutations;
        self
    }

    /// Toggles depcheck on an existing builder (see [`Builder::with_depcheck`]).
    /// The daemon flips this per request: audit builds run instrumented,
    /// ordinary serves do not pay for the recording.
    pub fn set_depcheck(&mut self, on: bool) {
        self.depcheck = on;
    }

    /// The optimized IR of one module of `project`, in roster (definition)
    /// order, out of the query store a build of `project` left: `modcheck`
    /// and every roster `optimizefn` are demanded like any task, so values a
    /// restored graph carried are loaded, the rest rematerialized, and
    /// nothing the build found current executes. `None` when the project
    /// has no such module.
    ///
    /// # Errors
    ///
    /// As [`Builder::build`]: called without that build first, demands
    /// execute, and can fail.
    pub fn module_ir(
        &mut self,
        project: &Project,
        module: &str,
    ) -> Result<Option<sfcc_ir::Module>, BuildError> {
        if !project.contains(module) {
            return Ok(None);
        }
        self.restore_committed();
        let mut spec = BuildSpec::new(
            project,
            &mut self.compiler,
            &mut self.stored,
            self.jobs,
            self.mutations.clone(),
            false,
        );
        let m = module.to_string();
        let modcheck = self
            .engine
            .require(&mut spec, &BuildTask::ModCheck(m.clone()))
            .map_err(seal)?
            .expect_modcheck();
        let mut ir = sfcc_ir::Module::new(m.clone());
        for f in &modcheck.roster {
            let art = self
                .engine
                .require(&mut spec, &BuildTask::OptimizeFn(m.clone(), f.clone()))
                .map_err(seal)?
                .expect_optimizefn();
            ir.functions.push(sfcc_ir::Function::clone(&art.func));
        }
        Ok(Some(ir))
    }

    /// Records a hierarchical span trace of every subsequent build
    /// (build → module → phase → function → pass, plus
    /// query/cache/IO events) into [`BuildReport::trace`]. Each traced
    /// build records into a [`Trace`] of its own, so traced builds of
    /// different sessions run concurrently; the build outputs themselves
    /// are unaffected.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Toggles tracing on an existing builder (see [`Builder::with_tracing`]):
    /// a session flips this per request, so a traced build is not a second
    /// construction path.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Enables parallel optimization, with one worker per available core.
    pub fn with_parallelism(self) -> Self {
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        self.with_jobs(cores)
    }

    /// Sets the worker count of the pool optimization runs share — a
    /// window of modules' runs side by side, each spreading its functions
    /// over the same workers. `1` (also the floor) means fully
    /// sequential builds. The value is a cap, not a demand: the pool is
    /// sized at `min(jobs, available parallelism)` when builds run, so an
    /// oversized `--jobs` on a small host costs nothing (outputs are
    /// byte-identical for every worker count either way).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The image of the program the last build linked, encoded: the bytes
    /// `link` memoized (or loaded), or that the image file held when the
    /// build answered from the committed inputs, so writing it encodes
    /// nothing. `None` before a build has linked.
    pub fn linked_image(&self) -> Option<&[u8]> {
        match self.engine.peek(&BuildTask::Link) {
            Some(BuildValue::Link(link)) => Some(&link.image),
            _ => self.held.as_ref().map(|link| link.image.as_slice()),
        }
    }

    /// The store as one whole graph file — what a commit that starts a new
    /// chain writes, and what the committed chain folds to once this
    /// store's changes are committed.
    pub fn graph_file(&mut self) -> Vec<u8> {
        self.restore_committed();
        let section = depgraph::section(&self.engine, &self.compiler);
        let bytes = depgraph::encode(&self.engine, &mut self.stored, &section).0;
        self.stored.report_rejected(&self.engine, &self.compiler);
        bytes
    }

    /// Fills the store from the graph the last process committed, when the
    /// compiler session still holds it unread: a process's first build
    /// starts from it, not from nothing.
    fn restore_committed(&mut self) {
        if let Some(graph) = self.compiler.take_restored_graph() {
            if let Some(stored) = depgraph::restore(&mut self.engine, graph, &self.mutations) {
                self.stored = stored;
                self.restored = true;
                self.committed = self
                    .compiler
                    .graph_chain()
                    .map(|chain| (chain.tip, depgraph::Committed::restored(&self.engine)));
            }
        }
    }

    /// The underlying compiler session (state persistence, cache counters).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Demand statistics of the engine's current session: the last build's,
    /// plus whatever was demanded since ([`Builder::module_ir`]).
    pub fn session_stats(&self) -> sfcc_query::SessionStats {
        self.engine.session_stats()
    }

    /// Drops the query store — the graph a first build would restore from
    /// the last process's commit included — forcing the next build to
    /// re-execute every task, while keeping the compiler's dormancy state.
    pub fn clear_cache(&mut self) {
        self.engine.clear();
        self.stored = depgraph::Stored::default();
        self.compiler.drop_restored_graph();
        self.held = None;
        self.restored = false;
        self.committed = None;
        self.deposited = None;
    }

    /// [`Builder::clear_cache`], but only of a store that holds nodes this
    /// process did not compute: a restored graph can say what is current,
    /// it cannot show an audit what those tasks read. An audit calls this
    /// first and pays for the execution. Returns whether there was such a
    /// store to forget.
    pub fn forget_restored_graph(&mut self) -> bool {
        let restored = self.restored || self.compiler.drop_restored_graph();
        if restored {
            self.clear_cache();
        }
        restored
    }

    /// Builds the project incrementally and links a complete program.
    ///
    /// # Errors
    ///
    /// [`BuildError::Graph`] for a bad import graph, [`BuildError::Compile`]
    /// for the first module that fails to compile, [`BuildError::Link`] if
    /// the final link fails.
    pub fn build(&mut self, project: &Project) -> Result<BuildReport, BuildError> {
        self.build_with(project, None)
    }

    /// [`Builder::build`] for the image file `image`, which counts as
    /// holding the image when its bytes hash to `link`'s fingerprint — the
    /// rule every persisted value is held to. A process's first build then
    /// checks, before it reads the committed graph, the stamps of the inputs
    /// the graph's tip records `link` read ([`sfcc::InputSection`]): if
    /// every one is unchanged and the file holds the image, `link` is a hit
    /// with nothing restored, decoded or loaded, and the image is the
    /// file's. This is the engine's own validity rule, checked before the
    /// read; on any mismatch the build goes on as [`Builder::build`], with
    /// the stamps it took. The build never writes `image`.
    ///
    /// # Errors
    ///
    /// As [`Builder::build`].
    pub fn build_image(
        &mut self,
        project: &Project,
        image: &Path,
    ) -> Result<BuildReport, BuildError> {
        self.build_with(project, Some(image))
    }

    fn build_with(
        &mut self,
        project: &Project,
        image: Option<&Path>,
    ) -> Result<BuildReport, BuildError> {
        // Freeze the dormancy snapshot skip decisions read for the whole
        // session; per-function ingestion writes the live database. Thawed
        // on every exit so direct compiles between builds see live state.
        self.compiler.freeze_state();
        let mut result = self.build_inner(project, image);
        self.compiler.thaw_state();
        if let Ok(report) = &mut result {
            if self.compiler.persists_state() {
                self.deposit_graph(report.metric("query.misses") > 0);
                // A new base hashes the stored values it copies; the report
                // counts them, and any it rejected: recoveries of this
                // build, which the next one must not report again.
                self.stored.report_rejected(&self.engine, &self.compiler);
                let verified = self.stored.take_verified();
                report.update_metric("persist.values_verified", |n| n + verified);
                let late = self.compiler.take_recovery_events();
                report.add_recoveries(late.len() as u64, &quarantined_paths(&late));
            }
        }
        result
    }

    /// Hands the compiler what the next process starts from: the store as
    /// it now stands, as a segment of the committed graph when the store
    /// extends it, else — or when the segments would outweigh the base — as
    /// a whole graph file. A build that executed nothing deposits nothing
    /// while a committed or pending graph holds the store, and the
    /// session's state commit carries that forward.
    fn deposit_graph(&mut self, executed: bool) {
        let chain = self.compiler.graph_chain();
        if !self.compiler.graph_pending() {
            if let (Some(deposited), Some(chain)) = (self.deposited.take(), chain) {
                self.committed = Some((chain.tip, deposited));
            }
        }
        if !executed && (chain.is_some() || self.compiler.graph_pending()) {
            return;
        }
        let section = depgraph::section(&self.engine, &self.compiler);
        let segment = match (&self.committed, chain) {
            (Some((tip, since)), Some(chain)) if *tip == chain.tip => {
                let stored = &mut self.stored;
                Some(depgraph::encode_segment(
                    &self.engine,
                    stored,
                    chain.tip,
                    since,
                    &section,
                ))
                .filter(|(bytes, _)| !chain.compacts(bytes.len()))
            }
            _ => None,
        };
        let (graph, deposited) = match segment {
            Some((bytes, next)) => (Artifact::Segment(bytes), next),
            None => {
                let (bytes, next) = depgraph::encode(&self.engine, &mut self.stored, &section);
                (Artifact::Base(bytes), next)
            }
        };
        self.compiler.deposit_graph(graph);
        self.deposited = Some(deposited);
    }

    fn build_inner(
        &mut self,
        project: &Project,
        image: Option<&Path>,
    ) -> Result<BuildReport, BuildError> {
        let start = Instant::now();
        // The root span must exist before its children, so it is recorded
        // up front and its wall time filled in at the end.
        let mut recorder = self.tracing.then(Trace::default);
        let root = recorder.as_mut().map_or(SpanId::NONE, |trace| {
            trace.span(SpanId::NONE, "build", "build", 0, 0, 0, Vec::new())
        });
        // Depcheck instrumentation: the spec keeps the access log; the op
        // recorder is thread-local and resets the op counter, so depcheck
        // builds are incompatible with an installed fault plan — an
        // accepted limitation of the audit mode.
        let op_guard = self.depcheck.then(sfcc_faultfs::record);
        let ops_before = sfcc_faultfs::op_counts();
        let decoded_before = sfcc_backend::image::programs_decoded();
        self.held = None;

        // Shared-store session boundary: clear per-session serve records,
        // pick up other processes' commits, and (adversarially) install any
        // seeded key-component drops for this build.
        if let Some(cas) = self.compiler.cas() {
            cas.set_key_drops(self.mutations.key_drops());
            cas.begin_session();
        }

        // An audited or mutated build cannot be answered from recorded
        // stamps: it must see every task's reads, and its lies.
        let link_start = Instant::now();
        let mut primed = HashMap::new();
        let answered = match image {
            Some(image) if op_guard.is_none() && self.mutations.is_empty() => {
                self.answer_from_inputs(project, image, &mut primed, link_start)
            }
            _ => None,
        };
        let answer = match answered {
            Some(answer) => answer,
            None => self.demand_link(project, primed, op_guard, link_start)?,
        };
        Ok(self.report(answer, start, recorder, root, &ops_before, decoded_before))
    }

    /// `link` answered from the input section of the committed graph's tip,
    /// before the graph is read ([`Builder::build_image`]), its image read
    /// from `image` — when this is a process's first build, every input the
    /// section records stamps as recorded, and the file's bytes hash to
    /// `link`'s fingerprint. The stamps are taken through
    /// [`TaskSpec::input_stamp`], as the session would, stopping at the
    /// first that moved; the `state:` ones are not taken at all when the
    /// state the manifest names is the one the section was committed beside
    /// under the same flags, for every one of them is a function of those.
    /// The stamps taken are left in `primed`.
    fn answer_from_inputs(
        &mut self,
        project: &Project,
        image: &Path,
        primed: &mut HashMap<String, u64>,
        link_start: Instant,
    ) -> Option<Answer> {
        if !self.engine.is_empty() {
            return None;
        }
        let section = self.compiler.take_input_section()?;
        let state_holds = self.compiler.state_stamps_hold(&section);
        let mut spec = BuildSpec::new(
            project,
            &mut self.compiler,
            &mut self.stored,
            self.jobs,
            DepMutations::new(),
            false,
        );
        for (input, recorded) in &section.inputs {
            if state_holds && input.starts_with("state:") {
                continue;
            }
            let stamp = spec.input_stamp(input);
            primed.insert(input.clone(), stamp);
            if stamp != *recorded {
                return None;
            }
        }
        let image = std::fs::read(image)
            .ok()
            .filter(|bytes| fnv64(bytes) == section.link)?;
        let link = Arc::new(LinkArtifact { image });
        self.held = Some(Arc::clone(&link));
        let modules = section
            .order
            .into_iter()
            .map(|name| ModuleReport { name, output: None });
        Some(Answer {
            link,
            modules: modules.collect(),
            query: QueryStats::default(),
            query_log: vec![(BuildTask::Link.to_string(), true)],
            stats: SessionStats {
                hits: 1,
                ..SessionStats::default()
            },
            keys_parsed: 0,
            depcheck: None,
            link_ns: 0,
            link_wall_ns: link_start.elapsed().as_nanos() as u64,
            values_verified: 0,
        })
    }

    /// `link` demanded from the store, the graph the last process committed
    /// restored into it first: the session opens with `primed`'s stamps,
    /// and the engine executes what changed.
    fn demand_link(
        &mut self,
        project: &Project,
        primed: HashMap<String, u64>,
        op_guard: Option<RecordGuard>,
        link_start: Instant,
    ) -> Result<Answer, BuildError> {
        // The state opens here, on the thread a fault plan counts, before a
        // stamp or an optimize run reads it.
        self.compiler.state();
        self.restore_committed();

        // Drop tasks of modules that left the project so their objects
        // cannot leak into the link; dependents are invalidated by the
        // missing nodes (and by the manifest stamp).
        self.engine
            .retain(|label| label_scope(label).0.is_none_or(|m| project.contains(m)));

        let mut spec = BuildSpec::new(
            project,
            &mut self.compiler,
            &mut self.stored,
            self.jobs,
            self.mutations.clone(),
            self.depcheck,
        );
        spec.prime(primed);
        self.engine.begin_session(&mut spec);

        // Opening the session re-stamped every recorded input and marked
        // every task no change reaches as valid. If `link` is one of them,
        // nothing changed since the build that recorded it, and its demand
        // is a hit: nothing executes, and neither the function cache nor
        // the program is read — whether the store is this process's own or
        // restored from the last one's graph. Otherwise the cache opens
        // here, on this thread and outside any task, before a `codegen`
        // can look a function up.
        if !self.engine.is_valid(&BuildTask::Link) {
            spec.open_cache();
        }
        let engine = &mut self.engine;
        let link = engine
            .require(&mut spec, &BuildTask::Link)
            .map_err(seal)?
            .expect_link();
        let link_wall_ns = link_start.elapsed().as_nanos() as u64;
        let order = recorded(engine, &BuildTask::Link, "codegen");
        let query_log = spec.take_query_log();

        // A module is rebuilt when its `codegen` or one of its
        // `optimizefn`s executed; its definition-order roster is then the
        // `optimizefn` demands its `codegen` recorded. The rosters drive the
        // report and the garbage collection of per-function tasks and state
        // records.
        let mut rosters: HashMap<String, Vec<String>> = HashMap::new();
        for key in engine.executed_keys() {
            if let BuildTask::Codegen(m) | BuildTask::OptimizeFn(m, _) = key {
                if !rosters.contains_key(m) {
                    let codegen = BuildTask::Codegen(m.clone());
                    rosters.insert(m.clone(), recorded(engine, &codegen, "optimizefn"));
                }
            }
        }

        // Dependency-soundness verdict: diff the recorded evidence against
        // the engine's dependency traces while the spec (raw stamps) and
        // engine (dep traces) are both still on hand.
        let depcheck = op_guard.map(|ops| depcheck::analyze(engine, &mut spec, &ops.take()));

        // Assemble the report from the store.
        let executed: HashSet<&BuildTask> = engine.executed_keys().iter().collect();
        let mut modules = Vec::with_capacity(order.len());
        for name in &order {
            let roster = rosters.get(name);
            let output = roster.map(|roster| {
                // The pipeline trace of the functions optimized this
                // build, in roster (definition) order; functions whose
                // optimizefn validated contributed no pass work.
                let functions = roster
                    .iter()
                    .filter(|f| {
                        executed.contains(&BuildTask::OptimizeFn(name.clone(), (*f).clone()))
                    })
                    .filter_map(|f| spec.take_trace(name, f))
                    .collect();
                let mut output = spec.take_output(name);
                output.trace.module = name.clone();
                output.trace.functions = functions;
                output
            });
            modules.push(ModuleReport {
                name: name.clone(),
                output,
            });
        }

        let labels = |keys: &[BuildTask]| keys.iter().map(ToString::to_string).collect();
        let query = QueryStats {
            rematerialized: labels(engine.rematerialized_keys()),
            executed: labels(engine.executed_keys()),
        };

        let link_ns = spec.link_ns();
        let values_verified = spec.settle_stored(engine);
        let compiler = spec.into_compiler();

        // Garbage-collect function-grained tasks (and dormancy records) of
        // functions that left their module's roster, so deleted functions
        // cannot linger in the store or the state database. (Only rebuilt
        // modules have a roster here: any other has a valid `codegen` over
        // an unchanged roster, and nothing of it is collected.)
        if !rosters.is_empty() {
            engine.retain(|label| match label_scope(label) {
                (Some(m), Some(f)) => rosters.get(m).is_none_or(|r| r.iter().any(|g| g == f)),
                _ => true,
            });
        }
        for (module, roster) in &rosters {
            compiler.retain_state_functions(module, |f| roster.iter().any(|g| g == f));
        }
        Ok(Answer {
            link,
            modules,
            query,
            query_log,
            stats: engine.session_stats(),
            keys_parsed: engine.keys_parsed(),
            depcheck,
            link_ns,
            link_wall_ns,
            values_verified,
        })
    }

    /// The report of a build that answered `link` as `answer`: every
    /// number of the build, each set once — from the answer, the module
    /// traces and the compiler session — and the trace.
    fn report(
        &self,
        answer: Answer,
        start: Instant,
        mut recorder: Option<Trace>,
        root: SpanId,
        ops_before: &OpCounts,
        decoded_before: u64,
    ) -> BuildReport {
        let compiler = &self.compiler;
        if let Some(trace) = &mut recorder {
            let (count, wall_ns) = (answer.modules.len() as u64, answer.link_wall_ns);
            trace.span(root, "link", "link", count, 0, wall_ns, Vec::new());
        }

        // Recovery accounting: any quarantine / cold-start decision the
        // compiler session took since the last build reported its own.
        let events = compiler.take_recovery_events();
        let quarantined = quarantined_paths(&events);
        let wall_ns = start.elapsed().as_nanos() as u64;

        let registry = Registry::new();
        let gauge = |name: &str, value: u64| registry.gauge_set(name, value);
        gauge("build.wall_ns", wall_ns);
        gauge("build.link_ns", answer.link_ns);
        gauge("build.jobs", self.jobs as u64);
        gauge("build.modules", answer.modules.len() as u64);
        let (stats, query) = (answer.stats, &answer.query);
        gauge("query.hits", stats.hits);
        gauge("query.misses", stats.misses);
        gauge("query.loaded", stats.loaded);
        gauge("query.rematerialized", query.rematerialized.len() as u64);
        gauge("query.executed", query.executed.len() as u64);
        gauge("query.keys_parsed", answer.keys_parsed);
        record_fngrain_metrics(&registry, &answer.query_log);
        record_module_metrics(&registry, &answer.modules);
        record_depcheck_metrics(&registry, answer.depcheck.as_ref());
        gauge("recovery.recovered_files", events.len() as u64);
        gauge("recovery.quarantined", quarantined.len() as u64);
        gauge("persist.values_verified", answer.values_verified);
        let decoded = sfcc_backend::image::programs_decoded() - decoded_before;
        gauge("backend.programs_decoded", decoded);
        compiler.record_metrics(&registry);
        // The build's own durable ops; a driver that commits state adds the
        // commit's ([`crate::serve::BuildService`]).
        let ops = sfcc_faultfs::op_counts().delta_since(ops_before);
        for (kind, count) in ops.by_kind() {
            gauge(&format!("faultfs.{kind}"), count);
        }
        gauge("faultfs.bytes_written", ops.bytes_written);

        let mut report = BuildReport {
            program: LinkedProgram::new(answer.link),
            modules: answer.modules,
            query: answer.query,
            outcome: "success".to_string(),
            state_generation: 0,
            quarantined,
            depcheck: answer.depcheck,
            metrics: registry.snapshot(),
            trace: None,
        };

        // The deterministic portion of the trace (module/phase/function/
        // pass subtrees, query instants, session roll-ups) is emitted
        // synthetically from the assembled report, so its structure cannot
        // depend on worker scheduling.
        if let Some(mut trace) = recorder {
            trace.set_wall_ns(root, wall_ns);
            emit_trace_tree(&mut trace, &report, root, &answer.query_log);
            let seq = report.modules.len() as u64;
            let cache = compiler.cache_stats();
            trace.instant(
                root,
                "cache",
                "fn-cache",
                seq + 2,
                vec![
                    ("hits", ArgValue::U64(cache.hits)),
                    ("misses", ArgValue::U64(cache.misses)),
                    ("evictions", ArgValue::U64(cache.evictions)),
                    ("entries", ArgValue::U64(cache.entries as u64)),
                ],
            );
            trace.instant(
                root,
                "io",
                "faultfs-ops",
                seq + 3,
                ops.by_kind()
                    .map(|(kind, count)| (kind, ArgValue::U64(count)))
                    .to_vec(),
            );
            if let Some(dc) = &report.depcheck {
                trace.instant(
                    root,
                    "depcheck",
                    "dep-soundness",
                    seq + 4,
                    vec![
                        ("findings", ArgValue::U64(dc.findings.len() as u64)),
                        ("tasks_checked", ArgValue::U64(dc.tasks_checked)),
                        ("accesses", ArgValue::U64(dc.accesses)),
                    ],
                );
            }
            report.trace = Some(trace);
        }
        report
    }
}

/// How a build answered `link`, and what its report reads of that.
struct Answer {
    link: Arc<LinkArtifact>,
    /// In `link`'s demand order.
    modules: Vec<ModuleReport>,
    query: QueryStats,
    /// `(task, hit)`, one per demanded task, in demand order.
    query_log: Vec<(String, bool)>,
    stats: SessionStats,
    keys_parsed: u64,
    depcheck: Option<DepcheckReport>,
    /// Wall time of the link step, 0 when the link was cached.
    link_ns: u64,
    /// Wall time of answering `link`.
    link_wall_ns: u64,
    values_verified: u64,
}

/// Where the quarantined files among `events` were moved aside.
fn quarantined_paths(events: &[RecoveryEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| e.quarantined_to.as_ref())
        .map(|p| p.display().to_string())
        .collect()
}

/// Function-grain dependency accounting, from the `(task, hit)` demand log:
/// how often per-function signature pins validated, and how many
/// function-pipeline re-executions the per-function cutoffs saved.
fn record_fngrain_metrics(registry: &Registry, query_log: &[(String, bool)]) {
    let count = |kinds: &[&str], hit: bool| {
        let of_kind = |task: &str| kinds.iter().any(|kind| task.starts_with(kind));
        query_log
            .iter()
            .filter(|(task, h)| *h == hit && of_kind(task))
            .count() as u64
    };
    let pipeline = ["checkfn(", "lowerfn(", "optimizefn("];
    registry.gauge_set("fngrain.signature_hits", count(&["signature("], true));
    registry.gauge_set("fngrain.signature_misses", count(&["signature("], false));
    registry.gauge_set("fngrain.fn_tasks_executed", count(&pipeline, false));
    registry.gauge_set("fngrain.cutoff_saved", count(&pipeline, true));
}

/// What the rebuilt modules' traces and phase timings sum to: build
/// totals, dormancy outcomes, snapshot and batch counters, the per-pass
/// and per-slot profile, and each rebuilt module's own numbers.
fn record_module_metrics(registry: &Registry, modules: &[ModuleReport]) {
    let gauge = |name: &str, value: u64| registry.gauge_set(name, value);
    let outputs: Vec<&ModuleOutput> = modules.iter().filter_map(|m| m.output.as_ref()).collect();
    let sum = |field: fn(&ModuleOutput) -> u64| outputs.iter().map(|out| field(out)).sum();
    gauge("build.rebuilt_count", outputs.len() as u64);
    gauge("build.compile_ns", sum(|out| out.timings.total_ns()));
    gauge(
        "build.executed_cost_units",
        sum(|out| out.trace.executed_cost()),
    );
    gauge("snapshot.clones", sum(|out| out.trace.snapshot_clones));
    gauge(
        "snapshot.cost_units",
        sum(|out| out.trace.snapshot_cost_units),
    );
    gauge("snapshot.reused", sum(|out| out.trace.snapshot_reused));
    // Snapshot-clone wall time is jobs-variant, unlike the counters.
    gauge("snapshot.wall_ns", sum(|out| out.trace.snapshot_wall_ns));
    gauge("batch.count", sum(|out| out.trace.batch_count));
    let max_cost = outputs.iter().map(|out| out.trace.batch_max_cost).max();
    gauge("batch.max_cost", max_cost.unwrap_or(0));

    let outcomes = ["active", "dormant", "skipped"];
    let mut totals = [0; 3];
    for module in modules {
        let Some(output) = &module.output else {
            continue;
        };
        let key = |field: &str| format!("module.{}.{field}", module.name);
        let t = &output.timings;
        gauge(&key("frontend_ns"), t.frontend_ns);
        gauge(&key("lower_ns"), t.lower_ns);
        gauge(&key("middle_ns"), t.middle_ns);
        gauge(&key("backend_ns"), t.backend_ns);
        gauge(&key("state_ns"), t.state_ns);
        gauge(&key("optimize_ns"), t.middle_ns + t.state_ns);
        let (a, d, s) = output.trace.outcome_totals();
        for ((outcome, total), n) in outcomes.iter().zip(&mut totals).zip([a, d, s]) {
            gauge(&key(outcome), n as u64);
            *total += n as u64;
        }
    }
    for (outcome, total) in outcomes.iter().zip(totals) {
        gauge(&format!("outcomes.{outcome}"), total);
    }

    // Per pass `[total_ns, runs, skipped]`, per slot `[total_ns, runs]`: a
    // skipped slot is no run, but its time counts.
    let mut passes: BTreeMap<&str, [u64; 3]> = BTreeMap::new();
    let mut slots: BTreeMap<usize, [u64; 2]> = BTreeMap::new();
    let records = outputs
        .iter()
        .flat_map(|out| out.trace.functions.iter())
        .flat_map(|func| func.records.iter());
    for record in records {
        let ran = record.outcome != PassOutcome::Skipped;
        let pass = passes.entry(&record.pass).or_default();
        pass[0] += record.nanos;
        pass[if ran { 1 } else { 2 }] += 1;
        let slot = slots.entry(record.slot).or_default();
        slot[0] += record.nanos;
        slot[1] += u64::from(ran);
    }
    for (pass, [total_ns, runs, skipped]) in passes {
        gauge(&format!("pass.{pass}.total_ns"), total_ns);
        gauge(&format!("pass.{pass}.runs"), runs);
        gauge(&format!("pass.{pass}.skipped"), skipped);
    }
    for (slot, [total_ns, runs]) in slots {
        gauge(&format!("slot.{slot}.total_ns"), total_ns);
        gauge(&format!("slot.{slot}.runs"), runs);
    }
}

/// The depcheck counts of one build, on *every* build — zeros when the
/// audit is off — so the report schema never loses keys on any exit path.
fn record_depcheck_metrics(registry: &Registry, depcheck: Option<&DepcheckReport>) {
    let quiet = DepcheckReport::default();
    let dc = depcheck.unwrap_or(&quiet);
    let gauge = |name: &str, value: u64| registry.gauge_set(name, value);
    gauge("depcheck.enabled", u64::from(depcheck.is_some()));
    gauge("depcheck.findings", dc.findings.len() as u64);
    gauge(
        "depcheck.missing",
        dc.count(DepFindingKind::MissingDep) as u64,
    );
    gauge(
        "depcheck.redundant",
        dc.count(DepFindingKind::RedundantDep) as u64,
    );
    gauge(
        "depcheck.stale",
        dc.count(DepFindingKind::StaleServe) as u64,
    );
    gauge(
        "depcheck.untracked_io",
        dc.count(DepFindingKind::UntrackedIo) as u64,
    );
    gauge("depcheck.tasks_checked", dc.tasks_checked);
    gauge("depcheck.accesses", dc.accesses);
}

/// Emits the deterministic synthetic span subtrees of one build: per-module
/// pipelines (module → phase → function → pass, costs in live-instruction
/// units) in link order, and the session's query demand instants sorted by
/// task name so the exported bytes are identical for every `--jobs` value.
fn emit_trace_tree(
    trace: &mut Trace,
    report: &BuildReport,
    root: SpanId,
    query_log: &[(String, bool)],
) {
    for (pos, module) in report.modules.iter().enumerate() {
        let pos = pos as u64;
        let Some(output) = &module.output else {
            trace.instant(
                root,
                "module",
                &module.name,
                pos,
                vec![("rebuilt", ArgValue::Bool(false))],
            );
            continue;
        };
        let module_span = trace.span(
            root,
            "module",
            &module.name,
            pos,
            0,
            output.timings.total_ns(),
            vec![("rebuilt", ArgValue::Bool(true))],
        );
        let t = &output.timings;
        let phases = [
            ("frontend", t.frontend_ns),
            ("lower", t.lower_ns),
            ("middle", t.middle_ns),
            ("backend", t.backend_ns),
            ("state", t.state_ns),
        ];
        for (pi, (phase, wall_ns)) in phases.iter().enumerate() {
            let phase_span = trace.span(
                module_span,
                "phase",
                *phase,
                pi as u64,
                0,
                *wall_ns,
                Vec::new(),
            );
            if *phase != "middle" {
                continue;
            }
            for (fi, func) in output.trace.functions.iter().enumerate() {
                let fn_span = trace.span(
                    phase_span,
                    "function",
                    &func.function,
                    fi as u64,
                    0,
                    func.total_nanos(),
                    Vec::new(),
                );
                for (ri, rec) in func.records.iter().enumerate() {
                    // A skipped slot did no work: its span costs nothing
                    // on the deterministic timeline, but still appears
                    // exactly once, tagged with its outcome.
                    let cost = if rec.outcome == PassOutcome::Skipped {
                        0
                    } else {
                        rec.cost_units
                    };
                    trace.span(
                        fn_span,
                        "pass",
                        &rec.pass,
                        ri as u64,
                        cost,
                        rec.nanos,
                        vec![
                            ("outcome", ArgValue::Str(rec.outcome.to_string())),
                            ("slot", ArgValue::U64(rec.slot as u64)),
                        ],
                    );
                }
            }
        }
        // Per-stage module-snapshot cloning of this module's restricted
        // optimization runs: deterministic counters (clones, summed
        // deep-clone cost, and copy-on-write Arc reuses), safe in
        // byte-stable traces.
        trace.instant(
            module_span,
            "snapshot_clone",
            "snapshots",
            phases.len() as u64,
            vec![
                ("clones", ArgValue::U64(output.trace.snapshot_clones)),
                (
                    "cost_units",
                    ArgValue::U64(output.trace.snapshot_cost_units),
                ),
                ("reused", ArgValue::U64(output.trace.snapshot_reused)),
            ],
        );
    }
    // Query demand instants: one per demanded task, sorted by task name —
    // the *set* is jobs-independent even though the demand order is not.
    let query_span = trace.span(
        root,
        "query",
        "queries",
        report.modules.len() as u64 + 1,
        0,
        0,
        Vec::new(),
    );
    let mut log: Vec<&(String, bool)> = query_log.iter().collect();
    log.sort();
    for (i, (task, hit)) in log.into_iter().enumerate() {
        trace.instant(
            query_span,
            "query",
            task,
            i as u64,
            vec![("hit", ArgValue::Bool(*hit))],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::interface_hash;
    use sfcc::Config;

    fn project(files: &[(&str, &str)]) -> Project {
        let mut p = Project::new();
        for (name, src) in files {
            p.set_file(name.to_string(), src.to_string());
        }
        p
    }

    fn three_module_project() -> Project {
        project(&[
            ("base", "fn g(x: int) -> int { return x * 2; }"),
            (
                "lib",
                "import base;\nfn f(x: int) -> int { return base::g(x) + 1; }",
            ),
            (
                "main",
                "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
            ),
        ])
    }

    /// A cold build moves its values from task to task by `Arc`: the
    /// definition `fnast(m::f)` yields and the one `checkfn(m::f)`'s shell
    /// holds are the one `parse(m)` holds, and `link` keeps the image alone:
    /// every object is held by its `codegen` value only, and the image is
    /// the one written from those objects.
    #[test]
    fn a_cold_build_shares_its_values() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        builder.build(&three_module_project()).unwrap();
        let value = |task: BuildTask| builder.engine.peek(&task).unwrap();
        let mut objects = Vec::new();
        for (m, f) in [("base", "g"), ("lib", "f"), ("main", "main")] {
            let parse = value(BuildTask::Parse(m.into())).expect_parse();
            let parsed = parse.ast.function(f).unwrap();
            let fnast = value(BuildTask::FnAst(m.into(), f.into())).expect_fnast();
            assert!(Arc::ptr_eq(parsed, &fnast.unwrap()), "fnast({m}::{f})");
            let checkfn = value(BuildTask::CheckFn(m.into(), f.into())).expect_checkfn();
            let shell = &checkfn.checked.ast.functions[0];
            assert!(Arc::ptr_eq(parsed, shell), "checkfn({m}::{f})");
            let BuildValue::Codegen(codegen) = value(BuildTask::Codegen(m.into())) else {
                unreachable!("codegen yields an object")
            };
            assert_eq!(Arc::strong_count(codegen), 1, "codegen({m})");
            objects.push(&codegen.object);
        }
        let link = value(BuildTask::Link).expect_link();
        assert_eq!(link.image, sfcc_backend::link_image(&objects).unwrap());
    }

    #[test]
    fn full_build_then_noop_rebuild() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let p = three_module_project();
        let first = builder.build(&p).unwrap();
        assert_eq!(first.metric("build.rebuilt_count"), 3);
        let again = builder.build(&p).unwrap();
        assert_eq!(again.metric("build.rebuilt_count"), 0);
        assert_eq!(again.metric("query.misses"), 0);
        // The program is still complete and runnable.
        let out = sfcc_backend::run(
            &again.program,
            "main.main",
            &[21],
            sfcc_backend::VmOptions::default(),
        )
        .unwrap();
        assert_eq!(out.return_value, Some(43));
    }

    #[test]
    fn body_edit_rebuilds_one_module() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = three_module_project();
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g(x: int) -> int { return x * 3; }".into(),
        );
        let report = builder.build(&p).unwrap();
        assert_eq!(report.metric("build.rebuilt_count"), 1);
        assert!(report.module("base").unwrap().rebuilt());
        assert!(!report.module("lib").unwrap().rebuilt());
        assert!(report.module("lib").unwrap().output.is_none());
    }

    #[test]
    fn body_edit_executes_only_that_functions_pipeline() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = three_module_project();
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g(x: int) -> int { return x * 3; }".into(),
        );
        let report = builder.build(&p).unwrap();
        // The re-executed tasks are exactly the edited function's pipeline
        // (plus the parse-level re-extractions whose unchanged fingerprints
        // are what spare everyone else) and the relink. Nothing of lib or
        // main — not even signature probes — re-executes.
        let mut executed = report.query.executed.clone();
        executed.sort();
        assert_eq!(
            executed,
            vec![
                "checkfn(base::g)",
                "codegen(base)",
                "fnast(base::g)",
                "imports(base)",
                "interface(base)",
                "link",
                "lowerfn(base::g)",
                "modcheck(base)",
                "optimizefn(base::g)",
                "parse(base)",
            ]
        );
        assert_eq!(report.metric("query.misses"), 10);
        assert!(report.metric("query.hits") > 0);
        assert_eq!(report.metric("fngrain.fn_tasks_executed"), 3);
    }

    #[test]
    fn added_function_does_not_rebuild_importers() {
        // The headline of function-granularity dependencies: adding a
        // function changes base's *interface hash*, but lib's checkfn
        // recorded a dependency on signature(base::g) alone — which is
        // unchanged — so no lib or main task re-executes. Under the old
        // module-grained taxonomy this edit rebuilt lib.
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = three_module_project();
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g(x: int) -> int { return x * 2; }\nfn extra() -> int { return 7; }".into(),
        );
        let report = builder.build(&p).unwrap();
        assert!(report.module("base").unwrap().rebuilt());
        assert!(!report.module("lib").unwrap().rebuilt());
        assert!(!report.module("main").unwrap().rebuilt());
        assert_eq!(report.metric("build.rebuilt_count"), 1);
        let executed = &report.query.executed;
        // base re-runs the new function's pipeline and re-assembles its
        // object; the signature pin lib holds on base::g re-executes (its
        // interface dependency changed) but fingerprints identically.
        assert!(executed.iter().any(|t| t == "optimizefn(base::extra)"));
        assert!(executed.iter().any(|t| t == "signature(base::g)"));
        // lib's module-check re-derives (its interface(base) dependency
        // changed) but fingerprints identically, so nothing of lib's — or
        // main's — *pipeline* re-executes: no checkfn, no optimizefn, no
        // codegen, and no per-function task at all.
        assert!(executed.iter().any(|t| t == "modcheck(lib)"));
        for t in executed {
            assert!(!t.contains("lib::"), "lib function task re-executed: {t}");
            assert!(!t.contains("main::"), "main function task re-executed: {t}");
            assert_ne!(t, "codegen(lib)");
            assert_ne!(t, "codegen(main)");
            assert_ne!(t, "modcheck(main)");
        }
        // The cutoff ledger shows the signature pin validating downstream.
        assert!(
            report.metric("fngrain.signature_hits") > 0
                || report.metric("fngrain.cutoff_saved") > 0
        );
    }

    #[test]
    fn signature_edit_reaches_only_callers() {
        // Two functions in base, one caller each in lib. Editing g2's
        // signature (and its one caller, atomically) must not re-execute
        // f1's pipeline: f1 depends on signature(base::g1) only.
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            (
                "base",
                "fn g1(x: int) -> int { return x + 1; }\nfn g2(x: int) -> int { return x + 2; }",
            ),
            (
                "lib",
                "import base;\nfn f1(x: int) -> int { return base::g1(x); }\nfn f2(x: int) -> int { return base::g2(x); }",
            ),
        ]);
        builder.build(&p).unwrap();
        p.set_file(
            "base".into(),
            "fn g1(x: int) -> int { return x + 1; }\nfn g2(x: int, y: int) -> int { return x + y; }"
                .into(),
        );
        p.set_file(
            "lib".into(),
            "import base;\nfn f1(x: int) -> int { return base::g1(x); }\nfn f2(x: int) -> int { return base::g2(x, x); }"
                .into(),
        );
        let report = builder.build(&p).unwrap();
        let executed = &report.query.executed;
        assert!(executed.iter().any(|t| t == "checkfn(lib::f2)"));
        assert!(!executed.iter().any(|t| t == "checkfn(lib::f1)"));
        assert!(!executed.iter().any(|t| t == "optimizefn(lib::f1)"));
        // g1 itself was not edited either: its whole pipeline validates.
        assert!(!executed.iter().any(|t| t == "checkfn(base::g1)"));
        assert!(!executed.iter().any(|t| t == "optimizefn(base::g1)"));
    }

    #[test]
    fn import_list_change_makes_module_stale() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            ("a", "fn f() -> int { return 1; }"),
            ("main", "fn main(n: int) -> int { return n; }"),
        ]);
        builder.build(&p).unwrap();
        p.set_file(
            "main".into(),
            "import a;\nfn main(n: int) -> int { return a::f() + n; }".into(),
        );
        let report = builder.build(&p).unwrap();
        assert!(report.module("main").unwrap().rebuilt());
        assert!(!report.module("a").unwrap().rebuilt());
    }

    #[test]
    fn removed_module_leaves_the_program() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            ("dead", "fn f() -> int { return 1; }"),
            ("main", "fn main(n: int) -> int { return n; }"),
        ]);
        builder.build(&p).unwrap();
        p.remove_file("dead");
        let report = builder.build(&p).unwrap();
        assert_eq!(report.modules.len(), 1);
        assert!(report.module("dead").is_none());
    }

    #[test]
    fn removed_function_is_garbage_collected() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[(
            "m",
            "fn keep(x: int) -> int { return x; }\nfn gone() -> int { return 1; }",
        )]);
        builder.build(&p).unwrap();
        let before = builder.engine.len();
        p.set_file("m".into(), "fn keep(x: int) -> int { return x; }".into());
        builder.build(&p).unwrap();
        // gone's five per-function tasks left the store.
        assert!(builder.engine.len() < before);
    }

    /// A scratch directory for one test's committed state.
    fn state_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sfcc-builder-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// What a new `--stateful --fn-cache` process over `dir` starts from:
    /// the state, function cache and query graph the last one committed.
    fn process(dir: &std::path::Path) -> Builder {
        let config = Config::stateful()
            .with_function_cache()
            .with_state_path(dir.join(".sfcc-state"));
        Builder::new(Compiler::new(config))
    }

    fn two_callers_project(a: &str, c: &str) -> Project {
        project(&[
            (
                "m",
                &format!(
                    "fn a(x: int) -> int {{ return x * 3 + {a}; }}\n\
                     fn b(x: int) -> int {{ return a(x) + 5; }}\n\
                     fn c(x: int) -> int {{ return x - {c}; }}"
                ),
            ),
            (
                "main",
                "import m;\nfn main(n: int) -> int { return m::b(n) + m::c(n); }",
            ),
        ])
    }

    #[test]
    fn two_constant_edit_over_a_restored_graph_executes_what_it_must() {
        let dir = state_dir("two-constants");
        let mut first = process(&dir);
        first.build(&two_callers_project("1", "7")).unwrap();
        first.compiler().save_state().unwrap();

        // Two constants in two functions of one module, built by the next
        // process: the first stale function to execute plans the module,
        // one run that covers the other two.
        let edited = two_callers_project("2", "9");
        let mut second = process(&dir);
        let report = second.build(&edited).unwrap();
        let mut executed = report.query.executed.clone();
        executed.sort();
        assert_eq!(
            executed,
            [
                "checkfn(m::a)",
                "checkfn(m::c)",
                "codegen(m)",
                "fnast(m::a)",
                "fnast(m::b)",
                "fnast(m::c)",
                "imports(m)",
                "interface(m)",
                "link",
                "lowerfn(m::a)",
                "lowerfn(m::c)",
                "modcheck(m)",
                "optimizefn(m::a)",
                "optimizefn(m::b)",
                "optimizefn(m::c)",
                "parse(m)",
            ]
        );
        // `b` calls `a`: its optimize run needs its own lowered body.
        let mut rematerialized = report.query.rematerialized.clone();
        rematerialized.sort();
        assert_eq!(
            rematerialized,
            ["checkfn(m::b)", "lowerfn(m::b)", "signature(m::a)"]
        );
        assert!(report.module("m").unwrap().rebuilt());
        assert!(!report.module("main").unwrap().rebuilt());
        let fresh_dir = state_dir("two-constants-fresh");
        let mut fresh = process(&fresh_dir);
        let cold = fresh.build(&edited).unwrap();
        assert_eq!(second.linked_image(), fresh.linked_image());
        let clones = |report: &BuildReport| {
            let output = report.module("m").unwrap().output.as_ref().unwrap();
            output.trace.snapshot_clones
        };
        assert_eq!(clones(&report), clones(&cold), "one run, as cold");
        for dir in [dir, fresh_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn function_removed_between_processes_leaves_store_and_state() {
        let dir = state_dir("removed-fn");
        let source = "fn keep(x: int) -> int { return x; }\nfn gone() -> int { return 1; }";
        let mut first = process(&dir);
        first.build(&project(&[("m", source)])).unwrap();
        first.compiler().save_state().unwrap();

        let mut second = process(&dir);
        let kept = project(&[("m", "fn keep(x: int) -> int { return x; }")]);
        second.build(&kept).unwrap();
        second.compiler().save_state().unwrap();
        let tasks = |m: &str, f: &str| {
            let (m, f) = (m.to_string(), f.to_string());
            [
                BuildTask::FnAst(m.clone(), f.clone()),
                BuildTask::Signature(m.clone(), f.clone()),
                BuildTask::CheckFn(m.clone(), f.clone()),
                BuildTask::LowerFn(m.clone(), f.clone()),
                BuildTask::OptimizeFn(m, f),
            ]
        };
        for task in tasks("m", "gone") {
            assert!(second.engine.fingerprint_of(&task).is_none(), "{task} left");
        }
        assert!(second
            .engine
            .fingerprint_of(&tasks("m", "keep")[4])
            .is_some());
        let functions = |builder: &Builder| {
            let state = builder.compiler().state().module("m").unwrap();
            let mut names: Vec<String> = state.functions.keys().cloned().collect();
            names.sort();
            names
        };
        assert_eq!(functions(&second), ["keep"]);
        // What was committed is what a third process starts from.
        let mut third = process(&dir);
        assert_eq!(functions(&third), ["keep"]);
        assert_eq!(third.build(&kept).unwrap().metric("query.misses"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edit_introducing_cycle_is_diagnosed_not_hung() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let mut p = project(&[
            ("a", "fn f() -> int { return 1; }"),
            ("b", "import a;\nfn g() -> int { return a::f(); }"),
        ]);
        builder.build(&p).unwrap();
        // The edit closes a cycle a -> b -> a; the incremental build must
        // report it exactly like a from-scratch build would.
        p.set_file(
            "a".into(),
            "import b;\nfn f() -> int { return b::g(); }".into(),
        );
        let err = builder.build(&p).unwrap_err();
        assert_eq!(err.to_string(), "import cycle: a -> b -> a");
        // Fixing the edit recovers without clearing the cache.
        p.set_file("a".into(), "fn f() -> int { return 2; }".into());
        let report = builder.build(&p).unwrap();
        assert!(report.module("a").unwrap().rebuilt());
    }

    #[test]
    fn compile_errors_name_the_module() {
        let mut builder = Builder::new(Compiler::new(Config::stateless()));
        let p = project(&[("bad", "fn f( -> int { return 1; }")]);
        let err = builder.build(&p).unwrap_err();
        match err {
            BuildError::Compile { module, .. } => assert_eq!(module, "bad"),
            other => panic!("expected compile error, got {other}"),
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let p = three_module_project();
        let mut seq = Builder::new(Compiler::new(Config::stateless()));
        let mut par = Builder::new(Compiler::new(Config::stateless())).with_jobs(4);
        let a = seq.build(&p).unwrap();
        let b = par.build(&p).unwrap();
        assert_eq!(
            sfcc_backend::image::to_bytes(&a.program),
            sfcc_backend::image::to_bytes(&b.program)
        );
        assert_eq!(
            a.metric("build.rebuilt_count"),
            b.metric("build.rebuilt_count")
        );
    }

    #[test]
    fn interface_hash_ignores_bodies_and_order() {
        let interface = |source: &str| {
            let mut diags = sfcc_frontend::Diagnostics::new();
            let ast = sfcc_frontend::parser::parse("m", source, &mut diags);
            assert!(!diags.has_errors(), "{source}");
            sfcc_frontend::ModuleInterface::of(&ast)
        };
        let a = interface("fn f(x: int) -> int { return 1; }\nfn g() -> int { return 2; }");
        let b = interface("fn g() -> int { return 99; }\nfn f(x: int) -> int { return x * 5; }");
        assert_eq!(interface_hash(&a), interface_hash(&b));
        let c = interface("fn f(x: int, y: int) -> int { return 1; }");
        assert_ne!(interface_hash(&a), interface_hash(&c));
    }
}
