//! The compiler session: front end → lowering → (skippable) pass pipeline →
//! object code, with dormancy recording in stateful mode.

use crate::config::{Config, Mode, OptLevel};
use crate::depgraph::{GraphFile, InputSection, ValueBytes, GRAPH_LOGICAL};
use crate::fncache::{function_contexts, CacheStats, FunctionCache};
use crate::persist::{
    self, Artifact, Chain, GraphLinks, RecoveryEvent, CACHE_LOGICAL, STATE_LOGICAL,
};
use crate::phases;
use sfcc_backend::CodeObject;
use sfcc_cas::{CasStore, KeyComponents, DEFAULT_BACKEND_VERSION};
use sfcc_codec::{fnv64, Fnv64};
use sfcc_faultfs::ManifestEntry;
use sfcc_frontend::{ModuleEnv, ModuleInterface};
use sfcc_ir::{Fingerprint, Function};
use sfcc_passes::{
    default_pipeline, minimal_pipeline, run_pipeline_shared, scalar_pipeline, FunctionTrace,
    NeverSkip, PassQuery, Pipeline, PipelineTrace, RunOptions, SkipOracle,
};
use sfcc_pool::{run_batched, PoolScope};
use sfcc_state::{statefile, DbOracle, StateDb};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Wall-clock time per compilation phase, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Lexing, parsing, semantic analysis.
    pub frontend_ns: u64,
    /// AST → IR lowering.
    pub lower_ns: u64,
    /// The optimization pipeline (including skipped-pass bookkeeping).
    pub middle_ns: u64,
    /// Codegen to object code.
    pub backend_ns: u64,
    /// State lookup + ingestion (stateful mode overhead).
    pub state_ns: u64,
}

impl PhaseTimings {
    /// Total across all phases.
    pub fn total_ns(&self) -> u64 {
        self.frontend_ns + self.lower_ns + self.middle_ns + self.backend_ns + self.state_ns
    }
}

/// Everything a successful compilation produces.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The relocatable object code.
    pub object: CodeObject,
    /// The optimized IR (useful for inspection and tests).
    pub ir: sfcc_ir::Module,
    /// The module's exported interface.
    pub interface: ModuleInterface,
    /// Per-pass instrumentation.
    pub trace: PipelineTrace,
    /// Phase timings.
    pub timings: PhaseTimings,
}

impl CompileOutput {
    /// `(active, dormant, skipped)` pass-slot totals.
    pub fn outcome_totals(&self) -> (usize, usize, usize) {
        self.trace.outcome_totals()
    }
}

/// A compilation failure.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The source did not parse or type-check; carries rendered diagnostics.
    Frontend {
        /// Human-readable diagnostics.
        rendered: String,
        /// Number of errors.
        errors: usize,
    },
    /// Code generation failed (indicates an internal bug, not bad input).
    Backend(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend { rendered, errors } => {
                write!(f, "{rendered}\n{errors} error(s)")
            }
            CompileError::Backend(msg) => write!(f, "backend failure: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// What [`Compiler::optimize`] hands back: the optimized functions and
/// what it reports alongside them.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The optimized functions, in input order; one no pass ran on is the
    /// `Arc` it came in as.
    pub functions: Vec<Arc<Function>>,
    /// Per-pass instrumentation of the pipeline run.
    pub trace: PipelineTrace,
    /// Wall time of the pass pipeline itself (ns).
    pub middle_ns: u64,
    /// Wall time of function-cache bookkeeping (ns).
    pub state_ns: u64,
    /// Freshly optimized cacheable functions, keyed by context fingerprint.
    /// [`Compiler::optimize`] does **not** insert them — the caller applies
    /// them at a deterministic point (after a module, or after a set of
    /// restricted runs) so cache visibility, and therefore every downstream
    /// trace, is identical for every `--jobs` value. Apply via
    /// [`Compiler::apply_cache_inserts`]. Each body is shared with
    /// [`OptimizeOutcome::functions`].
    pub cache_inserts: Vec<(Fingerprint, Arc<Function>)>,
}

/// An oracle layer that force-skips every slot of cache-hit functions so
/// their (already optimized, swapped-in) bodies pass through untouched.
struct CacheHits<'env> {
    hits: HashSet<String>,
    inner: Arc<dyn SkipOracle + Send + Sync + 'env>,
}

impl SkipOracle for CacheHits<'_> {
    fn should_skip(&self, query: &PassQuery<'_>) -> bool {
        self.hits.contains(query.function) || self.inner.should_skip(query)
    }
}

/// How a function's pre-pipeline lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LookupHit {
    /// No cached body anywhere: the pipeline must run.
    Miss,
    /// Served by the in-process [`FunctionCache`].
    Local,
    /// Served by the shared artifact store; the local cache gets warmed
    /// with it at the next insert boundary.
    Shared,
}

/// A compiler session.
///
/// A session corresponds to one long-lived compiler process (or one state
/// directory on disk): in stateful mode the dormancy database persists
/// across [`Compiler::compile`] calls and, when
/// [`Config::state_path`] is set, across sessions via
/// [`Compiler::save_state`].
pub struct Compiler {
    config: Config,
    pipeline: Pipeline,
    pipeline_hash: Fingerprint,
    /// The dormancy state, opened on first use ([`Compiler::state`]): from
    /// `state_entry` when the manifest names one.
    state: OnceLock<StateDb>,
    /// The committed state entry opening `state` reads.
    state_entry: Option<ManifestEntry>,
    /// A snapshot of `state` as a build session started with it
    /// ([`Compiler::freeze_state`]), taken when the session first mutates
    /// `state` — until then `state` itself is that snapshot, so a session
    /// that ingests nothing copies nothing. Skip decisions read the
    /// snapshot and per-function ingests mutate the live database, so no
    /// optimize task can observe a sibling's same-session ingest — skip
    /// decisions become independent of demand order and `--jobs`.
    frozen: Option<StateDb>,
    /// Whether a build session is frozen.
    freezing: bool,
    /// The function cache, opened on first use ([`Compiler::function_cache`]):
    /// from `cache_links` when the session loaded a committed chain.
    fn_cache: OnceLock<FunctionCache>,
    /// The committed cache chain's links the load recorded and did not
    /// read; what opening `fn_cache` folds.
    cache_links: Vec<ManifestEntry>,
    /// The shared content-addressed artifact store, consulted below the
    /// in-process function cache ([`Config::cas_path`]). `None` when
    /// disabled or when opening the store failed (the session degrades to
    /// cache-only; a broken store must never fail a build).
    cas: Option<CasStore>,
    /// Every quarantine / cold-start decision of the load, a later open,
    /// and the graph values that failed their check, that no build has
    /// reported yet ([`Compiler::take_recovery_events`]).
    recovery_events: Mutex<Vec<RecoveryEvent>>,
    /// The files the restored graph's values are slices of.
    graph_links: GraphLinks,
    /// Committed bytes read since [`Compiler::record_metrics`] last
    /// reported them.
    bytes_read: AtomicU64,
    /// Everything that changes generated code, hashed: pipeline, mode and
    /// verify flags, backend version. The function cache, keyed on less
    /// than that, carries it as a stamp.
    identity: u64,
    /// The committed graph chain, not yet read, until the build system
    /// takes it ([`Compiler::take_restored_graph`]).
    restored_graph: Option<UnreadGraph>,
    /// The input section of the committed chain's tip, until the build
    /// system takes it ([`Compiler::take_input_section`]).
    section: Option<InputSection>,
    /// The committed state's gauges as that section recorded them, when
    /// it recorded them of the state the manifest names.
    state_gauges: Option<[u64; 3]>,
    /// The query graph the next [`Compiler::save_state`] commits beside
    /// state and cache ([`Compiler::deposit_graph`]); cleared once committed.
    graph_to_save: Mutex<Option<Artifact>>,
    /// What the state directory holds as of the last load or commit.
    committed: Mutex<Committed>,
    /// The session-constant head of every [`Compiler::state_stamp_fn`],
    /// hashed once.
    stamp_prefix: Fnv64,
}

/// A committed graph chain before it is read: its links, base first, and
/// what reading the tip's input section read of it.
struct UnreadGraph {
    links: Vec<ManifestEntry>,
    head: Vec<u8>,
}

/// The committed side of a session's persistent artifacts: what a commit
/// with nothing new would leave unchanged.
struct Committed {
    /// The manifest generation (`0` when none).
    generation: u64,
    /// The manifest's checksum of the state entry, when it holds the state
    /// this session started from or last committed.
    state_checksum: Option<u64>,
    /// Whether a record was ingested, collected or reset since: only then
    /// can the state differ from the one `state_checksum` names.
    state_touched: bool,
    /// The state encoded for the next commit since it was last touched,
    /// with its checksum ([`Compiler::seal_section`]).
    encoded: Option<(Vec<u8>, u64)>,
    /// The committed cache chain the cache extends; `None` when the next
    /// cache commit must write a base.
    cache: Option<Chain>,
    /// The committed graph chain, for the build system's next segment.
    graph: Option<Chain>,
}

impl Committed {
    /// Whether a commit must encode the state to know whether it changed:
    /// a record was touched since, or no committed state is known.
    fn encodes_state(&self) -> bool {
        self.state_touched || self.state_checksum.is_none()
    }
}

impl fmt::Debug for Compiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compiler")
            .field("mode", &self.config.mode.label())
            .field(
                "functions_tracked",
                &self.state.get().map_or(0, StateDb::function_count),
            )
            .finish()
    }
}

impl Compiler {
    /// Creates a session. With a state path, it reads the manifest and the
    /// input section of the committed graph chain's tip
    /// ([`Compiler::take_input_section`]); the state, the graph and the
    /// function cache open on first use.
    pub fn new(config: Config) -> Self {
        let pipeline = match config.opt_level {
            OptLevel::O0 => minimal_pipeline(),
            OptLevel::O1 => scalar_pipeline(),
            OptLevel::O2 => default_pipeline(),
        };
        let pipeline_hash = StateDb::pipeline_hash(&pipeline.slot_names());
        // The compiler identity: exactly the configuration that changes
        // generated code. The opt level selects the pass pipeline, so the
        // pipeline component keys it; the flag digest covers what the
        // pipeline fingerprint does not — mode (skip policy) and
        // verification. Cache toggles and job counts are excluded by
        // design: they are proven not to change bytes.
        let flag_repr = format!("mode={};verify={}", config.mode.label(), config.verify_each);
        let components = KeyComponents {
            pipeline: pipeline_hash,
            flags: fnv64(flag_repr.as_bytes()),
            backend: config
                .cas_backend_version
                .unwrap_or(DEFAULT_BACKEND_VERSION),
            flag_repr,
            pipeline_repr: pipeline.slot_names().join(","),
        };
        let identity = fnv64(
            format!(
                "{:x};{:x};{}",
                components.pipeline.0, components.flags, components.backend
            )
            .as_bytes(),
        );
        // The tracked input that carries the flags into the query graph:
        // every function's state stamp starts with the mode (skip policy)
        // and the pipeline hash (the opt level).
        let mut stamp_prefix = Fnv64::new();
        stamp_prefix
            .str("mode=")
            .str(&config.mode.label())
            .str(";pipeline=")
            .hex(pipeline_hash.0)
            .str(";");
        let want_state = config.mode.is_stateful();
        let want_cache = config.function_cache;
        // What a session reads when it opens: the manifest, and the input
        // section of the graph chain's tip. The rest opens on first use.
        let mut events = Vec::new();
        let mut bytes_read = 0;
        let manifest = match &config.state_path {
            Some(path) if want_state || want_cache => persist::read_manifest(path, &mut events),
            _ => None,
        };
        let manifest = manifest.unwrap_or_default();
        let state_entry = manifest
            .entry(STATE_LOGICAL)
            .filter(|_| want_state)
            .cloned();
        let links: Vec<ManifestEntry> =
            manifest.chain(GRAPH_LOGICAL).into_iter().cloned().collect();
        let (head, section) = match &config.state_path {
            Some(path) if !links.is_empty() => persist::read_section(path, &links, &mut bytes_read),
            _ => (Vec::new(), None),
        };
        let state_checksum = state_entry.as_ref().map(|entry| entry.checksum);
        let state_gauges = section
            .as_ref()
            .filter(|section| section.state.is_some() && section.state == state_checksum)
            .map(|section| section.gauges);
        // The committed cache chain is opened when a lookup first needs it;
        // until then it is the committed one, carried forward untouched.
        let cache_links: Vec<ManifestEntry> = match want_cache {
            true => manifest.chain(CACHE_LOGICAL).into_iter().cloned().collect(),
            false => Vec::new(),
        };
        let fn_cache = if cache_links.is_empty() {
            OnceLock::from(FunctionCache::for_identity(identity))
        } else {
            OnceLock::new()
        };
        let committed = Committed {
            generation: manifest.generation,
            state_checksum,
            state_touched: false,
            encoded: None,
            cache: Chain::of(&manifest, CACHE_LOGICAL).filter(|_| !cache_links.is_empty()),
            graph: Chain::of(&manifest, GRAPH_LOGICAL),
        };
        let cas = config.cas_path.as_ref().and_then(|dir| {
            CasStore::open_dir(dir, components, config.durability)
                .ok()
                .map(|mut store| {
                    store.set_budget(config.cas_budget);
                    store
                })
        });
        let compiler = Compiler {
            config,
            pipeline,
            pipeline_hash,
            state: OnceLock::new(),
            state_entry,
            frozen: None,
            freezing: false,
            fn_cache,
            cache_links,
            cas,
            recovery_events: Mutex::new(Vec::new()),
            graph_links: GraphLinks::default(),
            bytes_read: AtomicU64::new(bytes_read),
            identity,
            restored_graph: (!links.is_empty()).then_some(UnreadGraph { links, head }),
            section,
            state_gauges,
            graph_to_save: Mutex::new(None),
            committed: Mutex::new(committed),
            stamp_prefix,
        };
        compiler.recovered(events);
        compiler
    }

    /// Reports `events` of an open that recovered, and re-commits what the
    /// session holds, so the manifest stops naming what could not be read:
    /// the state, and a cold function cache.
    fn recovered(&self, events: Vec<RecoveryEvent>) {
        if events.is_empty() {
            return;
        }
        self.committed
            .lock()
            .expect("no commit panicked")
            .state_checksum = None;
        if self.cache_links.is_empty() {
            if let Some(cache) = self.fn_cache.get() {
                cache.mark_dirty();
            }
        }
        self.events().extend(events);
    }

    /// Whether [`Compiler::save_state`] commits anything: a state path is
    /// configured and the session has dormancy state or a function cache to
    /// keep there.
    pub fn persists_state(&self) -> bool {
        self.config.state_path.is_some()
            && (self.config.mode.is_stateful() || self.config.function_cache)
    }

    /// Hands over the query graph the last session committed, once,
    /// whatever flags it was recorded under: they reach the graph only as
    /// the [`Compiler::state_stamp_fn`] input. The chain is read and folded
    /// here, on the calling thread. `None` when there is none — no state
    /// path, nothing committed, or an unreadable chain (which
    /// [`Compiler::take_recovery_events`] reports; the next commit then
    /// writes a new one).
    pub fn take_restored_graph(&mut self) -> Option<GraphFile> {
        let UnreadGraph { links, head } = self.restored_graph.take()?;
        self.section = None;
        let base = self.config.state_path.as_deref()?;
        let (mut events, mut bytes_read) = (Vec::new(), 0);
        let opened = persist::open_graph(base, &links, head, &mut events, &mut bytes_read);
        self.bytes_read.fetch_add(bytes_read, Ordering::Relaxed);
        match opened {
            Some((graph, graph_links)) => {
                self.graph_links = graph_links;
                Some(graph)
            }
            None => {
                self.committed.get_mut().expect("no commit panicked").graph = None;
                self.recovered(events);
                None
            }
        }
    }

    /// Drops the committed query graph unread, as [`Compiler::take_restored_graph`]
    /// would hand it over; returns whether there was one.
    pub fn drop_restored_graph(&mut self) -> bool {
        self.section = None;
        self.restored_graph.take().is_some()
    }

    /// Hands over, once, the input section of the committed graph chain's
    /// tip, read when the session opened; `None` when there is none, it did
    /// not decode, or the graph was taken.
    pub fn take_input_section(&mut self) -> Option<InputSection> {
        self.section.take()
    }

    /// Whether every `state:` stamp `section` records is the one this
    /// session takes: the state the manifest names is the one the section
    /// was committed beside, and the flags' stamp prefix is the same.
    pub fn state_stamps_hold(&self, section: &InputSection) -> bool {
        let committed = self.committed.lock().expect("no commit panicked");
        section.state.is_some()
            && section.state == committed.state_checksum
            && section.prefix == self.stamp_prefix.finish()
    }

    /// The encoded input section `section` — its inputs, `link` and module
    /// order filled in by the build system — completed with what the
    /// session commits beside it: the checksum of the state the next
    /// [`Compiler::save_state`] commits (encoded now when it changed, and
    /// kept for that commit), the flags' stamp prefix and the state's
    /// gauges.
    pub fn seal_section(&self, mut section: InputSection) -> Vec<u8> {
        let state = self.state();
        let mut committed = self.committed.lock().expect("no commit panicked");
        section.state = if self.config.mode.is_stateful() && committed.encodes_state() {
            Some(committed.encoded.get_or_insert_with(|| encoded(state)).1)
        } else {
            committed.state_checksum
        };
        section.prefix = self.stamp_prefix.finish();
        section.gauges = state_gauges(state);
        section.to_bytes()
    }

    /// Sets the query graph the next [`Compiler::save_state`] commits in
    /// the same manifest as state and cache: a whole graph file, or a
    /// segment extending [`Compiler::graph_chain`]. Until a graph is
    /// deposited, commits carry the committed one forward — right for a
    /// build that executed nothing.
    pub fn deposit_graph(&mut self, graph: Artifact) {
        *self.graph_to_save.get_mut().expect("no commit panicked") = Some(graph);
    }

    /// Whether a deposited graph awaits its commit.
    pub fn graph_pending(&self) -> bool {
        self.graph_to_save
            .lock()
            .expect("no commit panicked")
            .is_some()
    }

    /// The committed graph chain a deposited segment would extend: the one
    /// this session loaded its restored graph from or last committed.
    /// `None` when there is none, or a failed commit left it unknown.
    pub fn graph_chain(&self) -> Option<Chain> {
        self.committed.lock().expect("no commit panicked").graph
    }

    /// Segments in the committed cache and graph chains, as this session
    /// last loaded or committed them.
    pub fn persisted_segments(&self) -> usize {
        let committed = self.committed.lock().expect("no commit panicked");
        [committed.cache, committed.graph]
            .iter()
            .flatten()
            .map(|chain| chain.count)
            .sum()
    }

    /// The session configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Every quarantine / cold-start decision taken while loading this
    /// session's persistent state (see [`crate::persist`]) — by the load, by
    /// the cache's open, and for each graph value that failed its check
    /// ([`Compiler::reject_value`]) — since the last call, handed over once:
    /// a build reports the recoveries it met, not the session's.
    pub fn take_recovery_events(&self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut *self.events())
    }

    fn events(&self) -> MutexGuard<'_, Vec<RecoveryEvent>> {
        self.recovery_events.lock().expect("no recovery panicked")
    }

    /// Records that the restored graph's value of task `task`, `value`,
    /// does not hash to its node's fingerprint: the task re-executes, and
    /// the session reports a recovery event naming the file it came from.
    pub fn reject_value(&self, task: &str, value: &ValueBytes) {
        self.events()
            .push(self.graph_links.value_event(task, value));
    }

    /// Read access to the dormancy database, opened on first use: the
    /// committed state is read and decoded here, under the load's rules —
    /// an unreadable or corrupt one is a cold start and a recovery event.
    pub fn state(&self) -> &StateDb {
        self.state.get_or_init(|| self.open_state())
    }

    /// The dormancy database, opened, for a mutation.
    fn state_mut(&mut self) -> &mut StateDb {
        self.state();
        self.state.get_mut().expect("the state was opened")
    }

    /// Reads the committed state `state_entry` names (see
    /// [`Compiler::state`]).
    fn open_state(&self) -> StateDb {
        let (Some(entry), Some(base)) = (&self.state_entry, &self.config.state_path) else {
            return StateDb::new();
        };
        let (mut events, mut bytes_read) = (Vec::new(), 0);
        let db = persist::open_state(base, entry, &mut events, &mut bytes_read);
        self.bytes_read.fetch_add(bytes_read, Ordering::Relaxed);
        self.recovered(events);
        db.unwrap_or_default()
    }

    /// Serialized size of the current state (experiment E5).
    pub fn state_bytes(&self) -> Vec<u8> {
        statefile::to_bytes(self.state())
    }

    /// Names of the pipeline's pass slots.
    pub fn pipeline_slots(&self) -> Vec<&'static str> {
        self.pipeline.slot_names()
    }

    /// Compiles one module end to end, on the configured number of worker
    /// threads ([`Config::jobs`]), by composing the phases: frontend,
    /// lowering, [`Compiler::optimize`], codegen — then applies the fresh
    /// cache entries and ingests the trace.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Frontend`] for malformed source.
    pub fn compile(
        &mut self,
        name: &str,
        source: &str,
        env: &ModuleEnv,
    ) -> Result<CompileOutput, CompileError> {
        let (checked, frontend_ns) = phases::frontend(name, source, env)?;
        let (mut ir, lower_ns) = phases::lower(&checked, env);
        let jobs = sfcc_pool::effective_jobs(self.config.jobs);
        // Opened here, where a fault plan counts the read, not on a worker.
        self.state();
        let functions = std::mem::take(&mut ir.functions);
        let functions = functions.into_iter().map(Arc::new).collect();
        let mut outcome = sfcc_pool::scope(jobs, |ps| self.optimize(&ir.name, functions, ps));
        let optimized = outcome.functions.iter().map(|f| &**f);
        let (object, backend_ns) = phases::codegen(&ir.name, optimized)?;
        self.apply_cache_inserts(std::mem::take(&mut outcome.cache_inserts));
        ir.functions = outcome
            .functions
            .into_iter()
            .map(Arc::unwrap_or_clone)
            .collect();
        let mut timings = PhaseTimings {
            frontend_ns,
            lower_ns,
            middle_ns: outcome.middle_ns,
            backend_ns,
            state_ns: outcome.state_ns,
        };
        if self.config.mode.is_stateful() {
            let t = Instant::now();
            self.touch_state();
            let pipeline_hash = self.pipeline_hash;
            self.state_mut().ingest(&outcome.trace, pipeline_hash);
            timings.state_ns += t.elapsed().as_nanos() as u64;
        }
        Ok(CompileOutput {
            object,
            ir,
            interface: checked.interface,
            trace: outcome.trace,
            timings,
        })
    }

    /// The optimize phase: runs the (skippable) pass pipeline over the
    /// functions of module `module` — function-cache and shared-store
    /// lookup (when the session has them), skip-oracle construction from
    /// the dormancy state (the frozen snapshot while one is active, see
    /// [`Compiler::freeze_state`]), and the pipeline itself, at function
    /// granularity on `pool`'s workers (a width-1 pool runs it on the
    /// calling thread). The bodies come in shared and go out in
    /// [`OptimizeOutcome::functions`]: hits are swapped in first, the
    /// pipeline's entry snapshot is the bodies as they stand, and a body is
    /// copied only when the first pass runs on it, so a hit, which every
    /// slot skips, comes back as the cache's `Arc`.
    ///
    /// Reads only immutable session state, so it is safe to call from
    /// worker threads optimizing independent modules in parallel. It does
    /// **not** ingest the trace or populate the cache: recording dormancy
    /// ([`Compiler::ingest_function_trace`]) and applying
    /// [`OptimizeOutcome::cache_inserts`]
    /// ([`Compiler::apply_cache_inserts`]) are the caller's, sequenced at a
    /// deterministic boundary. Nor does it note the dormancy-state read for
    /// depcheck — the functions may be a restricted module's (only the
    /// demanded functions' call closure), so the function-grained caller
    /// attributes `state:m::f` itself, inside each function's own task
    /// scope.
    ///
    /// # Examples
    ///
    /// ```
    /// use sfcc::{phases, Compiler, Config};
    /// use sfcc_frontend::ModuleEnv;
    /// use std::sync::Arc;
    ///
    /// let compiler = Compiler::new(Config::stateless());
    /// let env = ModuleEnv::new();
    /// let source = "fn f(x: int) -> int { return x * 1 + 0; }";
    /// let (checked, _) = phases::frontend("m", source, &env)?;
    /// let (ir, _) = phases::lower(&checked, &env);
    /// let functions = ir.functions.into_iter().map(Arc::new).collect();
    /// let outcome = sfcc_pool::scope(1, |pool| compiler.optimize("m", functions, pool));
    /// assert_eq!(outcome.trace.functions.len(), 1);
    /// let (_object, _) = phases::codegen("m", outcome.functions.iter().map(|f| &**f))?;
    /// # Ok::<(), sfcc::CompileError>(())
    /// ```
    pub fn optimize<'env>(
        &'env self,
        module: &str,
        mut functions: Vec<Arc<Function>>,
        pool: &PoolScope<'env>,
    ) -> OptimizeOutcome {
        let cache = self.config.function_cache.then(|| self.function_cache());
        let cas = self.cas.as_ref();

        // Function-cache lookup: swap cached optimized bodies in and mark them
        // so the pipeline skips them entirely. The shared store (CAS) is the
        // second level: consulted only on a local miss. Lookups never mutate
        // entries (only counters, recency, and referenced bits), so running
        // them concurrently cannot change what any function observes.
        let t = Instant::now();
        let mut hits = HashSet::new();
        let mut shared_hits = HashSet::new();
        let mut contexts = HashMap::new();
        if cache.is_some() || cas.is_some() {
            contexts = function_contexts(module, &functions);
            let shared_contexts = Arc::new(contexts.clone());
            let module_name = module.to_string();
            let marked: Vec<(Arc<Function>, LookupHit)> = functions
                .into_iter()
                .map(|f| (f, LookupHit::Miss))
                .collect();
            let singles: Vec<Vec<usize>> = (0..marked.len()).map(|i| vec![i]).collect();
            let marked = run_batched(Some(pool), marked, &singles, move |_, (func, hit)| {
                let Some(&ctx) = shared_contexts.get(&func.name) else {
                    return;
                };
                if let Some(mut cached) = cache.and_then(|cache| cache.lookup(ctx)) {
                    if cached.name != func.name {
                        Arc::make_mut(&mut cached).name = func.name.clone();
                    }
                    *func = cached;
                    *hit = LookupHit::Local;
                } else if let Some(served) =
                    cas.and_then(|cas| cas.lookup(&module_name, &func.name, ctx))
                {
                    *func = Arc::new(served);
                    *hit = LookupHit::Shared;
                }
            });
            functions = Vec::with_capacity(marked.len());
            for (func, hit) in marked {
                if hit != LookupHit::Miss {
                    hits.insert(func.name.clone());
                }
                // Only an honest serve warms the caches below: a body that
                // only a dropped key component let the store serve must
                // never be filed under an honest key, locally or in the
                // store.
                let honest =
                    |cas: &CasStore| cas.served(module, &func.name) == Some(cas.identity_stamp());
                if hit == LookupHit::Shared && cas.is_some_and(honest) {
                    shared_hits.insert(func.name.clone());
                }
                functions.push(func);
            }
        }
        let mut state_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let base: Arc<dyn SkipOracle + Send + Sync + 'env> = match self.config.mode {
            Mode::Stateless => Arc::new(NeverSkip),
            Mode::Stateful(policy) => {
                Arc::new(DbOracle::new(self.skip_state(), self.pipeline_hash, policy))
            }
        };
        let oracle: Arc<dyn SkipOracle + Send + Sync + 'env> = if hits.is_empty() {
            base
        } else {
            Arc::new(CacheHits {
                hits: hits.clone(),
                inner: base,
            })
        };
        let options = RunOptions {
            verify_each: self.config.verify_each,
        };
        let (functions, trace) =
            run_pipeline_shared(module, functions, &self.pipeline, oracle, options, pool);
        let middle_ns = t.elapsed().as_nanos() as u64;

        // Collect cacheable functions for the caller to insert at the next
        // deterministic boundary: freshly optimized ones, plus shared-store
        // hits (which warm the local cache; re-publishing an existing key is
        // a no-op, the store is content-addressed).
        let t = Instant::now();
        let mut cache_inserts = Vec::new();
        if cache.is_some() || cas.is_some() {
            for func in &functions {
                if hits.contains(&func.name) && !shared_hits.contains(&func.name) {
                    continue;
                }
                if let Some(&ctx) = contexts.get(&func.name) {
                    cache_inserts.push((ctx, Arc::clone(func)));
                }
            }
        }
        state_ns += t.elapsed().as_nanos() as u64;

        OptimizeOutcome {
            functions,
            trace,
            middle_ns,
            state_ns,
            cache_inserts,
        }
    }

    /// Hit/miss counters of the function-level IR cache the session holds:
    /// all zero — `entries` included — while a committed cache has not been
    /// opened.
    pub fn cache_stats(&self) -> CacheStats {
        self.fn_cache
            .get()
            .map(FunctionCache::stats)
            .unwrap_or_default()
    }

    /// Publishes the session's cache, dormancy-state, persistence and CAS
    /// telemetry as gauges in `registry` (the build driver calls this once
    /// per build, after compilation finishes). `persist.bytes_read` counts
    /// the committed bytes read since the last call: the load's, for a
    /// session's first build, and the cache open's. Six gauges count over
    /// the whole session, not the build: `cache.hits`, `cache.misses`,
    /// `cas.hits`, `cas.misses`, `cas.evictions` and `cas.publishes`; a
    /// resident session's build owns the difference to its previous one.
    pub fn record_metrics(&self, registry: &sfcc_trace::Registry) {
        let cache = self.cache_stats();
        registry.gauge_set("cache.hits", cache.hits);
        registry.gauge_set("cache.hits_persisted", cache.hits_persisted);
        registry.gauge_set("cache.misses", cache.misses);
        registry.gauge_set("cache.evictions", cache.evictions);
        registry.gauge_set("cache.corrupt_entries", cache.corrupt_entries);
        registry.gauge_set("cache.entries", cache.entries as u64);
        // An unopened state is the one the input section recorded.
        let gauges = match (self.state.get(), self.state_gauges) {
            (None, Some(gauges)) => gauges,
            _ => state_gauges(self.state()),
        };
        let names = [
            "state.functions",
            "state.dormant_slots",
            "state.recorded_skips",
        ];
        for (name, value) in names.into_iter().zip(gauges) {
            registry.gauge_set(name, value);
        }
        registry.gauge_set("persist.segments", self.persisted_segments() as u64);
        let bytes_read = self.bytes_read.swap(0, Ordering::Relaxed);
        registry.gauge_set("persist.bytes_read", bytes_read);
        let cas = self.cas.as_ref().map(CasStore::stats).unwrap_or_default();
        registry.gauge_set("cas.enabled", self.cas.is_some() as u64);
        registry.gauge_set("cas.hits", cas.hits);
        registry.gauge_set("cas.misses", cas.misses);
        registry.gauge_set("cas.evictions", cas.evictions);
        registry.gauge_set("cas.publishes", cas.publishes);
        registry.gauge_set("cas.entries", cas.entries);
        registry.gauge_set("cas.bytes", cas.bytes);
    }

    /// The function cache, opened on first use: the committed chain the
    /// load recorded is read and folded here, on the calling thread, under
    /// the load's rules — a chain recorded under another identity is a cold
    /// start, an unreadable or corrupt one a recovery event (and a corrupt
    /// link quarantined). A session that never calls this never reads the
    /// chain, and its commits carry it forward untouched.
    pub fn function_cache(&self) -> &FunctionCache {
        self.fn_cache.get_or_init(|| self.open_cache())
    }

    /// Reads the committed cache chain `cache_links` names (see
    /// [`Compiler::function_cache`]).
    fn open_cache(&self) -> FunctionCache {
        let base = self
            .config
            .state_path
            .as_deref()
            .expect("a recorded chain was loaded from a state path");
        let mut events = Vec::new();
        let mut bytes_read = 0;
        let opened = persist::open_cache(base, &self.cache_links, &mut events, &mut bytes_read);
        self.bytes_read.fetch_add(bytes_read, Ordering::Relaxed);
        // The cache keys on context fingerprints alone, which is sound only
        // under one identity: entries persisted under another cold-start
        // the cache, quietly.
        let adopted = opened.filter(|cache| cache.identity() == self.identity);
        let mut committed = self.committed.lock().expect("no commit panicked");
        if !events.is_empty() {
            committed.state_checksum = None;
            self.events().extend(events);
        }
        // A discarded chain is stale on disk whatever the build does next:
        // the cold-started cache is dirty, so the next commit replaces it.
        adopted.unwrap_or_else(|| {
            committed.cache = None;
            let cache = FunctionCache::for_identity(self.identity);
            cache.mark_dirty();
            cache
        })
    }

    /// The shared artifact store, when the session has one.
    pub fn cas(&self) -> Option<&CasStore> {
        self.cas.as_ref()
    }

    /// Applies deferred [`crate::OptimizeOutcome::cache_inserts`] to the
    /// session's function cache and publishes them to the shared store (a
    /// no-op when both are disabled). Callers invoke this at a
    /// deterministic boundary — after a module in sequential compilation,
    /// after the restricted runs one task planned in the incremental
    /// driver — so cache visibility does not depend on `--jobs`. Local
    /// inserts replace same-key entries in place (byte-identical by the
    /// cache-key invariant) and the store skips already-published keys, so a
    /// shared-store hit racing a local recomputation of the same key
    /// converges to identical bytes for every `--jobs` value.
    pub fn apply_cache_inserts(
        &self,
        inserts: impl IntoIterator<Item = (Fingerprint, Arc<Function>)>,
    ) {
        if !self.config.function_cache && self.cas.is_none() {
            return;
        }
        let inserts: Vec<(Fingerprint, Arc<Function>)> = inserts.into_iter().collect();
        if self.config.function_cache {
            let cache = self.function_cache();
            for (key, func) in &inserts {
                cache.insert(*key, Arc::clone(func));
            }
        }
        if let Some(cas) = &self.cas {
            cas.publish(&inserts);
        }
    }

    /// Persists what changed since the last load or commit to the
    /// configured path: the state database when its encoding's checksum
    /// differs from the committed one, the function cache when an entry was
    /// inserted or dropped — as a segment of the committed chain, or a new
    /// base when the segments would outweigh the base
    /// ([`Chain::compacts`]) — and the deposited query graph
    /// ([`Compiler::deposit_graph`]). They become visible together in one
    /// manifest commit that carries the rest forward (see
    /// [`crate::persist`]); with nothing new, nothing is written. Returns
    /// the committed generation — the one already on disk when nothing was
    /// new; `0` without a configured path, or in a stateless session
    /// without a function cache.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. What was not committed stays pending for
    /// the next call, as a base: the failed commit may have been published,
    /// so no segment may extend either chain.
    pub fn save_state(&self) -> io::Result<u64> {
        let path = match &self.config.state_path {
            Some(path) if self.persists_state() => path,
            _ => return Ok(0),
        };
        // An untouched state is the committed one: encoding it would only
        // reproduce the checksum, and it is not even opened.
        let encode =
            |committed: &Committed| self.config.mode.is_stateful() && committed.encodes_state();
        if encode(&self.committed.lock().expect("no commit panicked")) {
            self.state();
        }
        let mut committed = self.committed.lock().expect("no commit panicked");
        let mut graph = self.graph_to_save.lock().expect("no commit panicked");
        let state = encode(&committed)
            .then(|| committed.encoded.take())
            .map(|sealed| sealed.unwrap_or_else(|| encoded(self.state())));
        let state_checksum = state.as_ref().map(|(_, sum)| *sum);
        let state_checksum = state_checksum.or(committed.state_checksum);
        let state = state
            .filter(|_| state_checksum != committed.state_checksum)
            .map(|(bytes, _)| bytes);
        // An unopened cache is the committed one.
        let dirty = self.fn_cache.get().filter(|cache| cache.is_dirty());
        let cache = dirty
            .filter(|_| self.config.function_cache)
            .map(|fn_cache| match committed.cache {
                Some(chain) => {
                    let segment = fn_cache.segment_bytes(chain.tip);
                    if chain.compacts(segment.len()) {
                        Artifact::Base(fn_cache.to_bytes())
                    } else {
                        Artifact::Segment(segment)
                    }
                }
                None => Artifact::Base(fn_cache.to_bytes()),
            });
        let saved = persist::save(
            path,
            state.as_deref(),
            cache.as_ref(),
            graph.as_ref(),
            self.config.durability,
        );
        match saved {
            Ok(Some(manifest)) => {
                committed.generation = manifest.generation;
                committed.state_checksum = state_checksum;
                if cache.is_some() {
                    committed.cache = Chain::of(&manifest, CACHE_LOGICAL);
                }
                if graph.take().is_some() {
                    committed.graph = Chain::of(&manifest, GRAPH_LOGICAL);
                }
            }
            Ok(None) => {}
            Err(e) => {
                if let Some(fn_cache) = dirty.filter(|_| cache.is_some()) {
                    // The encode marked the entries committed; they are not.
                    fn_cache.mark_dirty();
                    committed.cache = None;
                }
                if graph.is_some() {
                    committed.graph = None;
                    if matches!(*graph, Some(Artifact::Segment(_))) {
                        *graph = None;
                    }
                }
                return Err(e);
            }
        }
        committed.state_touched = false;
        Ok(committed.generation)
    }

    /// The state skip decisions read from: the frozen session snapshot when
    /// one was taken ([`Compiler::freeze_state`]), the live database
    /// otherwise.
    fn skip_state(&self) -> &StateDb {
        self.frozen.as_ref().unwrap_or_else(|| self.state())
    }

    /// Freezes a snapshot of the dormancy state for the duration of one
    /// build session. While frozen, optimize phases consult the snapshot for
    /// skip decisions and [`Compiler::ingest_function_trace`] mutates only
    /// the live database — so a function's skip decisions cannot observe a
    /// sibling's (or its own earlier) same-session ingest, regardless of
    /// demand order or `--jobs`. Pair with [`Compiler::thaw_state`].
    pub fn freeze_state(&mut self) {
        self.freezing = true;
        self.frozen = None;
    }

    /// Drops the snapshot taken by [`Compiler::freeze_state`]; subsequent
    /// skip decisions read the live (fully ingested) database again.
    pub fn thaw_state(&mut self) {
        self.freezing = false;
        self.frozen = None;
    }

    /// Folds one *function's* trace into the dormancy state (stateful mode;
    /// a no-op otherwise), leaving every sibling record untouched — the
    /// same merge the whole-module ingest of [`Compiler::compile`] performs
    /// per function. Returns the time spent (ns).
    pub fn ingest_function_trace(&mut self, module: &str, ftrace: &FunctionTrace) -> u64 {
        if !self.config.mode.is_stateful() {
            return 0;
        }
        let t = Instant::now();
        self.touch_state();
        let pipeline_hash = self.pipeline_hash;
        self.state_mut()
            .ingest_function(module, ftrace, pipeline_hash);
        t.elapsed().as_nanos() as u64
    }

    /// Garbage-collects per-function dormancy records of `module`: drops
    /// every record whose function name fails `keep` (deleted or renamed
    /// functions). The build driver calls this after a successful build with
    /// the module's current roster.
    pub fn retain_state_functions(&mut self, module: &str, mut keep: impl FnMut(&str) -> bool) {
        let drops = self
            .state()
            .modules
            .get(module)
            .is_some_and(|m| m.functions.keys().any(|f| !keep(f)));
        if drops {
            self.touch_state();
            self.state_mut().retain_functions(module, keep);
        }
    }

    /// Called before every mutation of `state`: takes the frozen session's
    /// snapshot if this is its first, and notes that the state may no
    /// longer be the committed one, so the next [`Compiler::save_state`]
    /// encodes it to find out.
    fn touch_state(&mut self) {
        if self.freezing && self.frozen.is_none() {
            self.frozen = Some(self.state().clone());
        }
        let committed = self.committed.get_mut().expect("no commit panicked");
        committed.state_touched = true;
        committed.encoded = None;
    }

    /// A deterministic stamp of everything that steers skip decisions for
    /// one function — mode, pipeline, and *that function's* dormancy record
    /// only. Incremental engines record this as a tracked input of the
    /// function's optimize task, so stale skip state invalidates exactly
    /// the functions it would affect. It is also the tracked input that
    /// carries the mode and the pipeline (the opt level) into the query
    /// graph: a session under other flags finds every optimize task's
    /// stamp changed and re-executes it, while the front end, which reads
    /// no flag, validates. Always
    /// reads the live database: the function-grained optimize task records
    /// this stamp immediately after its own ingest, and sibling ingests
    /// never touch the record, so the stamp the next session recomputes at
    /// validation time matches byte for byte unless the record itself
    /// changed.
    ///
    /// The value is FNV-64 of `mode={mode};pipeline={hash:x};` followed, in
    /// stateful mode, by `state={stamp:x}` or `state=absent` — streamed,
    /// not formatted: a no-op build stamps every function.
    pub fn state_stamp_fn(&self, module: &str, function: &str) -> u64 {
        let mut h = self.stamp_prefix;
        if self.config.mode.is_stateful() {
            match self.state().function_stamp(module, function) {
                Some(stamp) => h.str("state=").hex(stamp.into()),
                None => h.str("state=absent"),
            };
        }
        h.finish()
    }
}

/// `state` encoded, with the checksum a manifest records of the bytes.
fn encoded(state: &StateDb) -> (Vec<u8>, u64) {
    let bytes = statefile::to_bytes(state);
    let checksum = fnv64(&bytes);
    (bytes, checksum)
}

/// The `state.functions`, `state.dormant_slots` and `state.recorded_skips`
/// gauges of `state`.
fn state_gauges(state: &StateDb) -> [u64; 3] {
    [
        state.function_count() as u64,
        state.dormant_slot_count(),
        state.total_recorded_skips(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_backend::{link_objects, run as vm_run, VmOptions};

    const SRC_V1: &str = "
fn helper(x: int) -> int { return x * 2 + 1; }
fn main(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + helper(i); }
    return s;
}";

    // V2: a small edit inside main (the constant 1 → 2 inside helper call use).
    const SRC_V2: &str = "
fn helper(x: int) -> int { return x * 2 + 1; }
fn main(n: int) -> int {
    let s: int = 2;
    for (let i: int = 0; i < n; i = i + 1) { s = s + helper(i); }
    return s;
}";

    fn run_output(out: &CompileOutput, args: &[i64]) -> Option<i64> {
        let program = link_objects(std::slice::from_ref(&out.object)).unwrap();
        vm_run(&program, "main.main", args, VmOptions::default())
            .unwrap()
            .return_value
    }

    #[test]
    fn stateless_compile_works() {
        let mut c = Compiler::new(Config::stateless().with_verification());
        let out = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        assert_eq!(run_output(&out, &[5]), Some(25));
        let (_, _, skipped) = out.outcome_totals();
        assert_eq!(skipped, 0);
    }

    /// `state_stamp_fn` of a fixed record, an absent one, and a stateless
    /// session, pinned: the value is what every persisted query graph
    /// recorded for its `state:m::f` inputs.
    #[test]
    fn state_stamps_are_pinned() {
        use sfcc_state::{FunctionRecord, ModuleState, SlotRecord};
        let slot = SlotRecord {
            dormant: true,
            dormant_streak: u32::MAX,
            times_skipped: 5,
            history: 255,
            observations: 8,
        };
        let record = FunctionRecord {
            fingerprint: sfcc_ir::Fingerprint(0xdead_beef),
            exit_fingerprint: sfcc_ir::Fingerprint(u128::MAX),
            slots: vec![slot, SlotRecord::default()],
        };
        let mut stateful = Compiler::new(Config::stateful());
        let mut module = ModuleState::default();
        module.functions.insert("f".to_string(), record);
        stateful.state_mut().modules.insert("m".to_string(), module);
        let stateless = Compiler::new(Config::stateless());
        assert_eq!(
            [
                stateful.state_stamp_fn("m", "f"),
                stateful.state_stamp_fn("m", "g"),
                stateful.state_stamp_fn("x", "f"),
                stateless.state_stamp_fn("m", "f"),
            ],
            [
                3_141_496_782_243_606_719,
                290_734_790_143_426_935,
                290_734_790_143_426_935,
                4_401_217_371_183_480_945,
            ]
        );
    }

    #[test]
    fn stateful_first_build_skips_nothing() {
        let mut c = Compiler::new(Config::stateful().with_verification());
        let out = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let (_, _, skipped) = out.outcome_totals();
        assert_eq!(skipped, 0, "cold start must not skip");
        assert!(c.state().function_count() > 0, "state must be recorded");
    }

    #[test]
    fn stateful_rebuild_skips_dormant_passes() {
        let mut c = Compiler::new(Config::stateful().with_verification());
        let first = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let second = c.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        let (_, dormant_first, _) = first.outcome_totals();
        let (_, _, skipped_second) = second.outcome_totals();
        assert!(skipped_second > 0, "rebuild should skip dormant passes");
        assert!(
            skipped_second <= dormant_first + 2,
            "cannot skip more than was dormant (±policy slack)"
        );
    }

    #[test]
    fn stateful_and_stateless_agree_behaviourally() {
        let mut stateless = Compiler::new(Config::stateless().with_verification());
        let mut stateful = Compiler::new(Config::stateful().with_verification());
        // Warm up state with v1, then compile v2 with skipping active.
        stateful.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let a = stateless
            .compile("main", SRC_V2, &ModuleEnv::new())
            .unwrap();
        let b = stateful.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        for n in [0, 1, 7, 20] {
            assert_eq!(run_output(&a, &[n]), run_output(&b, &[n]), "n={n}");
        }
    }

    #[test]
    fn frontend_errors_are_reported() {
        let mut c = Compiler::new(Config::stateless());
        let err = c
            .compile("main", "fn broken( {", &ModuleEnv::new())
            .unwrap_err();
        let CompileError::Frontend { errors, rendered } = err else {
            panic!("{err}")
        };
        assert!(errors > 0);
        assert!(rendered.contains("main.mc"), "{rendered}");
    }

    #[test]
    fn state_persists_across_sessions() {
        let dir = std::env::temp_dir().join(format!("sfcc-core-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");

        let cfg = Config::stateful()
            .with_state_path(&path)
            .with_verification();
        let mut first_session = Compiler::new(cfg.clone());
        first_session
            .compile("main", SRC_V1, &ModuleEnv::new())
            .unwrap();
        first_session.save_state().unwrap();

        let mut second_session = Compiler::new(cfg);
        assert!(second_session.take_recovery_events().is_empty());
        let out = second_session
            .compile("main", SRC_V2, &ModuleEnv::new())
            .unwrap();
        let (_, _, skipped) = out.outcome_totals();
        assert!(skipped > 0, "persisted state should enable skipping");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn graph_persists_with_the_state_under_any_flags() {
        let dir = std::env::temp_dir().join(format!("sfcc-core-graph-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = Config::stateful().with_state_path(dir.join("state.bin"));

        let mut first = Compiler::new(cfg.clone());
        assert!(first.persists_state());
        assert!(
            first.take_restored_graph().is_none(),
            "nothing committed yet"
        );
        let graph = GraphFile::default();
        first.deposit_graph(Artifact::Base(graph.to_bytes()));
        first.save_state().unwrap();

        let mut same = Compiler::new(cfg.clone());
        assert_eq!(same.take_restored_graph(), Some(graph.clone()));
        assert!(same.take_restored_graph().is_none(), "handed over once");

        // Other flags take the same graph: they reach it only through the
        // state stamps its tasks recorded.
        let mut flipped = Compiler::new(cfg.with_opt_level(OptLevel::O0));
        assert_ne!(
            flipped.state_stamp_fn("main", "main"),
            first.state_stamp_fn("main", "main")
        );
        assert_eq!(flipped.take_restored_graph(), Some(graph));
        assert!(flipped.take_recovery_events().is_empty());

        // A session with nothing to persist keeps no graph either.
        let mut stateless = Compiler::new(Config::stateless().with_state_path(dir.join("s2")));
        assert!(!stateless.persists_state());
        stateless.deposit_graph(Artifact::Base(GraphFile::default().to_bytes()));
        assert_eq!(stateless.save_state().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timings_are_populated() {
        let mut c = Compiler::new(Config::stateful());
        let out = c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        assert!(out.timings.frontend_ns > 0);
        assert!(out.timings.middle_ns > 0);
        assert!(out.timings.backend_ns > 0);
        assert_eq!(
            out.timings.total_ns(),
            out.timings.frontend_ns
                + out.timings.lower_ns
                + out.timings.middle_ns
                + out.timings.backend_ns
                + out.timings.state_ns
        );
    }

    #[test]
    fn o0_pipeline_is_small() {
        let c = Compiler::new(Config::stateless().with_opt_level(OptLevel::O0));
        assert!(c.pipeline_slots().len() <= 3);
    }

    #[test]
    fn opt_levels_are_ordered_and_agree() {
        let o0 = Compiler::new(Config::stateless().with_opt_level(OptLevel::O0));
        let o1 = Compiler::new(Config::stateless().with_opt_level(OptLevel::O1));
        let o2 = Compiler::new(Config::stateless());
        assert!(o0.pipeline_slots().len() < o1.pipeline_slots().len());
        assert!(o1.pipeline_slots().len() < o2.pipeline_slots().len());
        assert!(!o1.pipeline_slots().contains(&"inline"));
        assert!(!o1.pipeline_slots().contains(&"loop-unroll"));

        // All three levels agree behaviourally.
        let src = "fn main(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i * 3; } return s; }";
        let mut results = Vec::new();
        for mut c in [o0, o1, o2] {
            let out = c.compile("main", src, &ModuleEnv::new()).unwrap();
            results.push(run_output(&out, &[9]));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn function_cache_hits_on_unchanged_functions() {
        let mut c = Compiler::new(Config::stateful().with_function_cache().with_verification());
        c.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let cold = c.cache_stats();
        assert_eq!(cold.hits, 0);
        assert!(cold.entries > 0);

        // The edit touches main only; helper hits the cache.
        let out = c.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        let warm = c.cache_stats();
        assert!(warm.hits >= 1, "{warm:?}");
        // helper's trace is fully skipped.
        let helper = out.trace.function("helper").unwrap();
        assert_eq!(
            helper.count(sfcc_passes::PassOutcome::Skipped),
            helper.records.len()
        );
        assert_eq!(run_output(&out, &[5]), Some(27));
    }

    #[test]
    fn function_cache_preserves_behaviour() {
        let mut plain = Compiler::new(Config::stateless().with_verification());
        let mut cached =
            Compiler::new(Config::stateful().with_function_cache().with_verification());
        cached.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let a = plain.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        let b = cached.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        for n in [0, 1, 6, 13] {
            assert_eq!(run_output(&a, &[n]), run_output(&b, &[n]), "n={n}");
        }
    }

    #[test]
    fn function_cache_persists_across_sessions() {
        let dir = std::env::temp_dir().join(format!("sfcc-irc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        let cfg = Config::stateful()
            .with_state_path(&path)
            .with_function_cache()
            .with_verification();

        let mut first = Compiler::new(cfg.clone());
        first.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        first.save_state().unwrap();
        assert!(first.cache_stats().entries > 0);

        let mut second = Compiler::new(cfg);
        let out = second.compile("main", SRC_V2, &ModuleEnv::new()).unwrap();
        assert!(second.cache_stats().hits >= 1, "{:?}", second.cache_stats());
        assert_eq!(run_output(&out, &[5]), Some(27));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_commit_writes_only_what_changed() {
        let dir = std::env::temp_dir().join(format!("sfcc-core-carry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("state.bin");
        let cfg = Config::stateful()
            .with_state_path(&base)
            .with_function_cache();
        let cd = sfcc_faultfs::CommitDir::new(&base);
        let entries = || cd.read_manifest().unwrap().unwrap().entries;

        let mut first = Compiler::new(cfg.clone());
        first.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        assert_eq!(first.save_state().unwrap(), 1);
        assert_eq!(first.save_state().unwrap(), 1, "nothing new since");
        let manifest = std::fs::read(cd.manifest_path()).unwrap();

        // A loaded cache left untouched is not committed, nor is a state
        // that encodes to the committed bytes.
        let second = Compiler::new(cfg.clone());
        assert!(!second.function_cache().is_dirty());
        assert_eq!(second.save_state().unwrap(), 1);
        assert_eq!(std::fs::read(cd.manifest_path()).unwrap(), manifest);

        // An insert commits the cache alone; the state file is carried…
        let before = entries();
        let third = Compiler::new(cfg);
        third.apply_cache_inserts([(Fingerprint(1), Arc::new(Function::new("f", vec![], None)))]);
        assert_eq!(third.save_state().unwrap(), 2);
        let after = entries();
        let file = |entries: &[sfcc_faultfs::ManifestEntry], logical: &str| {
            entries
                .iter()
                .find(|e| e.logical == logical)
                .unwrap()
                .file
                .clone()
        };
        assert_eq!(file(&after, "state"), file(&before, "state"));
        // …as a segment behind the carried base.
        assert_eq!(file(&after, "ircache"), file(&before, "ircache"));
        assert_ne!(file(&after, "ircache+1"), file(&before, "ircache"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn callee_edit_invalidates_caller_cache() {
        let v1 = "fn callee(x: int) -> int { return x + 1; }\nfn caller(x: int) -> int { return callee(x) * 2; }";
        let v2 = "fn callee(x: int) -> int { return x + 5; }\nfn caller(x: int) -> int { return callee(x) * 2; }";
        let mut c = Compiler::new(Config::stateful().with_function_cache().with_verification());
        c.compile("m", v1, &ModuleEnv::new()).unwrap();
        let before = c.cache_stats();
        c.compile("m", v2, &ModuleEnv::new()).unwrap();
        let after = c.cache_stats();
        // caller's context changed with the callee's body: no hits at all.
        assert_eq!(after.hits, before.hits, "caller must not hit a stale entry");
    }

    #[test]
    fn shared_store_hits_across_sessions_byte_identically() {
        let dir = std::env::temp_dir().join(format!("sfcc-cas-compiler-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Session A (no local persistence) populates the shared store.
        let mut a = Compiler::new(Config::stateless().with_cas_path(&dir).with_verification());
        let out_a = a.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let stats_a = a.cas().unwrap().stats();
        assert!(stats_a.publishes > 0, "{stats_a:?}");

        // A fresh session (cold local cache) hits the shared store and
        // produces the same bytes as a plain build.
        let mut b = Compiler::new(Config::stateless().with_cas_path(&dir).with_verification());
        let out_b = b.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let stats_b = b.cas().unwrap().stats();
        assert!(stats_b.hits > 0, "{stats_b:?}");
        assert_eq!(out_a.object, out_b.object);
        assert!(b.cas().unwrap().served("main", "helper").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_store_misses_across_differing_flags() {
        let dir = std::env::temp_dir().join(format!("sfcc-cas-flags-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = Compiler::new(Config::stateless().with_cas_path(&dir));
        a.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        // Same source, different verify flag: the flag digest differs, so
        // every lookup must miss.
        let mut b = Compiler::new(Config::stateless().with_cas_path(&dir).with_verification());
        b.compile("main", SRC_V1, &ModuleEnv::new()).unwrap();
        let stats = b.cas().unwrap().stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert!(stats.misses > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
