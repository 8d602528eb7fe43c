//! What one build produced: the linked program plus per-module and
//! per-query accounting.
//!
//! Every numeric the JSON report emits is sourced from the build's
//! [`MetricsSnapshot`] (the struct fields are the fallback for reports
//! assembled without a registry), and the snapshot itself is emitted as the
//! report's `"metrics"` block — so the registry is the single source of
//! truth and the two views cannot drift. [`validate_report_json`] pins the
//! full report schema for regression tests.

use crate::depcheck::{DepFindingKind, DepcheckReport};
use crate::tasks::LinkArtifact;
use sfcc::PhaseTimings;
use sfcc_backend::Program;
use sfcc_passes::{PassOutcome, PipelineTrace};
use sfcc_trace::json::{self, Value};
use sfcc_trace::MetricsSnapshot;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// How many rows the JSON report's "slowest slots" table carries.
const SLOWEST_SLOTS: usize = 10;

/// Demand statistics of the query engine for one build session.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Tasks validated from the store without executing.
    pub hits: u64,
    /// Tasks that (re-)executed.
    pub misses: u64,
    /// Hits whose value was loaded from the last process's graph.
    pub loaded: u64,
    /// Display names of the hits whose value was recomputed by executing
    /// the task again (valid, nothing on hand, nothing to load), in
    /// completion order. Not misses.
    pub rematerialized: Vec<String>,
    /// Display names of the executed tasks, in completion order (e.g.
    /// `parse(base)`, `link`).
    pub executed: Vec<String>,
}

/// Function-granularity dependency accounting for one build session: how
/// the per-function `signature(q::g)` pins and per-function pipeline
/// cutoffs behaved. `signature_hits + cutoff_saved` is the work the
/// function-grained taxonomy *avoided* that a module-grained interface
/// hash would have re-done.
#[derive(Debug, Clone, Default)]
pub struct FngrainStats {
    /// `signature(m::f)` tasks validated without executing — a dependent's
    /// pin held without even re-extracting the signature.
    pub signature_hits: u64,
    /// `signature(m::f)` tasks that re-executed (their module's interface
    /// changed); an unchanged fingerprint afterwards still cuts off
    /// dependents.
    pub signature_misses: u64,
    /// Per-function pipeline tasks (`checkfn`/`lowerfn`/`optimizefn`) that
    /// actually re-executed this build.
    pub fn_tasks_executed: u64,
    /// Per-function pipeline tasks validated from the store — function
    /// re-executions the fine-grained cutoffs saved.
    pub cutoff_saved: u64,
}

/// Parallel-optimization accounting for one build: copy-on-write snapshot
/// counters and cost-balanced batch counters, summed (`batch_max_cost`:
/// maxed) over the rebuilt modules' pipeline traces. All fields are
/// deterministic and identical for every `--jobs` value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Module snapshots taken (pipeline entry + re-snapshot stages).
    pub snapshot_clones: u64,
    /// Σ live instruction count over functions actually deep-cloned into
    /// snapshots.
    pub snapshot_cost_units: u64,
    /// Functions whose previous snapshot `Arc` was reused instead of
    /// deep-cloned — the copy-on-write savings.
    pub snapshot_reused: u64,
    /// Cost-balanced batches planned across all pipeline stages.
    pub batch_count: u64,
    /// Largest single-batch planned cost (live instructions) of any stage.
    pub batch_max_cost: u64,
}

/// What a rebuilt module's compilation leaves for the report.
#[derive(Debug, Clone)]
pub struct ModuleOutput {
    /// The pass trace of the functions optimized this build, plus the
    /// module's snapshot and batching counters.
    pub trace: PipelineTrace,
    /// Phase timings of the tasks that ran.
    pub timings: PhaseTimings,
}

impl ModuleOutput {
    /// `(active, dormant, skipped)` pass-slot totals.
    pub fn outcome_totals(&self) -> (usize, usize, usize) {
        self.trace.outcome_totals()
    }
}

/// Per-module outcome of one build.
#[derive(Debug, Clone)]
pub struct ModuleReport {
    /// Module name.
    pub name: String,
    /// Whether this build recompiled the module (vs. reusing its cached
    /// object).
    pub rebuilt: bool,
    /// What the compilation left — `Some` only when the module was rebuilt
    /// in *this* build, so traces are never double-counted across builds.
    pub output: Option<ModuleOutput>,
}

/// Wall time of one *pass* (by name) aggregated over every function of
/// every module rebuilt this build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassAggregate {
    /// Pass name (a pipeline may run it in several slots).
    pub pass: String,
    /// Total wall time across all executions (ns).
    pub total_ns: u64,
    /// Executions that actually ran (active or dormant).
    pub runs: u64,
    /// Executions skipped on the oracle's advice.
    pub skipped: u64,
}

/// Wall time of one *pipeline slot* aggregated over every function of every
/// module rebuilt this build — the rows of the "slowest slots" table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAggregate {
    /// Position in the flattened pipeline.
    pub slot: usize,
    /// The pass occupying that slot.
    pub pass: String,
    /// Total wall time across all executions (ns).
    pub total_ns: u64,
    /// Executions that actually ran (active or dormant).
    pub runs: u64,
}

/// A build's linked program as `link` memoized it: the image bytes, shared,
/// decoded into a [`Program`] once, by the first caller that needs one —
/// running or disassembling it. A build itself never decodes it.
#[derive(Debug, Clone)]
pub struct LinkedProgram {
    link: Arc<LinkArtifact>,
    program: OnceLock<Program>,
}

impl LinkedProgram {
    /// The program whose image `link` holds.
    pub(crate) fn new(link: Arc<LinkArtifact>) -> Self {
        LinkedProgram {
            link,
            program: OnceLock::new(),
        }
    }
}

impl Deref for LinkedProgram {
    type Target = Program;

    /// The program, decoded from the image on first use.
    fn deref(&self) -> &Program {
        self.program.get_or_init(|| {
            sfcc_backend::image::from_bytes(&self.link.image).expect("a linked image decodes")
        })
    }
}

impl From<Program> for LinkedProgram {
    fn from(program: Program) -> Self {
        LinkedProgram {
            link: Arc::new(LinkArtifact::of(&program)),
            program: OnceLock::from(program),
        }
    }
}

/// The result of one [`crate::Builder::build`] call.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The fully linked program (always complete, even on a no-op build),
    /// decoded on first use ([`BuildReport::program`]).
    pub program: LinkedProgram,
    /// End-to-end wall time of the build (ns): staleness analysis,
    /// compilation, and linking.
    pub wall_ns: u64,
    /// Wall time of the final link step (ns).
    pub link_ns: u64,
    /// Per-module outcomes, in topological (import-before-importer) order.
    pub modules: Vec<ModuleReport>,
    /// Query-engine hit/miss accounting for this build session.
    pub query: QueryStats,
    /// Function-granularity dependency accounting (signature pins and
    /// per-function cutoffs) for this build session.
    pub fngrain: FngrainStats,
    /// Worker threads the build was allowed to use (`--jobs`).
    pub jobs: usize,
    /// How the build ended. The builder only ever emits `"success"`
    /// reports (failures return errors, not reports); the stamp exists so
    /// a persisted report can never be mistaken for one from a build that
    /// did not complete.
    pub outcome: String,
    /// Generation of the persistent state commit this build's results were
    /// saved under, `0` when the session is stateless or unsaved. Stamped
    /// by the driver *after* [`crate::Builder::build`] returns (the save
    /// happens outside the build), so this field intentionally bypasses
    /// the metrics snapshot and is emitted from the struct.
    pub state_generation: u64,
    /// Number of persistent files (state, cache, manifest) that failed
    /// validation when the session loaded, and were recovered from by
    /// cold-starting the affected artifact.
    pub recovered_files: usize,
    /// Where corrupt files were moved aside (`*.corrupt`), one entry per
    /// quarantined file.
    pub quarantined: Vec<String>,
    /// Dependency-soundness verdict when the build ran with
    /// [`crate::Builder::with_depcheck`]; `None` otherwise. Emitted from
    /// the struct (not the metrics snapshot) so a driver can merge
    /// findings across builds — e.g. `minicc depcheck`'s cold+incremental
    /// pair — before rendering; the `depcheck.*` gauges still mirror the
    /// per-build counts.
    pub depcheck: Option<DepcheckReport>,
    /// Snapshot of the build's metrics registry — query stats, cache
    /// stats, dormancy counts, pass profile, faultfs op counts, recovery
    /// counters. The single source for every numeric [`Self::to_json`]
    /// emits.
    pub metrics: MetricsSnapshot,
    /// The build's recorded span tree when the builder ran with tracing
    /// enabled ([`crate::Builder::with_tracing`]); `None` otherwise.
    pub trace: Option<sfcc_trace::Trace>,
}

impl BuildReport {
    /// The linked program, decoded from its image on first use.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Adds `by` to gauge `name` of the metrics snapshot, for what a
    /// driver does after the build assembled its report.
    pub(crate) fn add_to_gauge(&mut self, name: &str, by: u64) {
        if let Some(sfcc_trace::MetricValue::Gauge(gauge)) = self.metrics.values.get_mut(name) {
            *gauge += by;
        }
    }

    /// Number of modules recompiled by this build.
    pub fn rebuilt_count(&self) -> usize {
        self.modules.iter().filter(|m| m.rebuilt).count()
    }

    /// A module's report, by name.
    pub fn module(&self, name: &str) -> Option<&ModuleReport> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Compile wall time summed over the modules rebuilt by this build (ns).
    pub fn compile_ns(&self) -> u64 {
        self.outputs().map(|out| out.timings.total_ns()).sum()
    }

    /// Deterministic executed middle-end cost, summed over rebuilt modules:
    /// the cost units of every pass slot that actually ran.
    pub fn executed_cost_units(&self) -> u64 {
        self.outputs()
            .flat_map(|out| out.trace.functions.iter())
            .map(|func| func.executed_cost())
            .sum()
    }

    /// `(active, dormant, skipped)` pass-slot totals over rebuilt modules.
    pub fn outcome_totals(&self) -> (usize, usize, usize) {
        let mut totals = (0, 0, 0);
        for out in self.outputs() {
            let (a, d, s) = out.outcome_totals();
            totals.0 += a;
            totals.1 += d;
            totals.2 += s;
        }
        totals
    }

    fn outputs(&self) -> impl Iterator<Item = &ModuleOutput> {
        self.modules.iter().filter_map(|m| m.output.as_ref())
    }

    /// Copy-on-write snapshot and batching totals over rebuilt modules —
    /// the struct-derived source for the `parallel` JSON block and the
    /// `snapshot.*`/`batch.*` gauges.
    pub fn parallel_stats(&self) -> ParallelStats {
        let mut stats = ParallelStats::default();
        for out in self.outputs() {
            stats.snapshot_clones += out.trace.snapshot_clones;
            stats.snapshot_cost_units += out.trace.snapshot_cost_units;
            stats.snapshot_reused += out.trace.snapshot_reused;
            stats.batch_count += out.trace.batch_count;
            stats.batch_max_cost = stats.batch_max_cost.max(out.trace.batch_max_cost);
        }
        stats
    }

    /// Optimize-phase wall time of one rebuilt module (pipeline + cache and
    /// dormancy bookkeeping, ns); `None` when the module was not rebuilt.
    pub fn optimize_ns(&self, name: &str) -> Option<u64> {
        let output = self.module(name)?.output.as_ref()?;
        Some(output.timings.middle_ns + output.timings.state_ns)
    }

    /// Per-pass wall time aggregated over rebuilt modules, slowest first
    /// (ties broken by name for determinism).
    pub fn pass_profile(&self) -> Vec<PassAggregate> {
        let mut by_pass: BTreeMap<&str, PassAggregate> = BTreeMap::new();
        for record in self.records() {
            let agg = by_pass
                .entry(record.pass.as_str())
                .or_insert_with(|| PassAggregate {
                    pass: record.pass.clone(),
                    total_ns: 0,
                    runs: 0,
                    skipped: 0,
                });
            agg.total_ns += record.nanos;
            match record.outcome {
                PassOutcome::Skipped => agg.skipped += 1,
                PassOutcome::Active | PassOutcome::Dormant => agg.runs += 1,
            }
        }
        let mut profile: Vec<PassAggregate> = by_pass.into_values().collect();
        profile.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.pass.cmp(&b.pass)));
        profile
    }

    /// The `n` slowest pipeline slots by aggregate wall time over rebuilt
    /// modules (ties broken by slot index for determinism).
    pub fn slowest_slots(&self, n: usize) -> Vec<SlotAggregate> {
        let mut by_slot: BTreeMap<usize, SlotAggregate> = BTreeMap::new();
        for record in self.records() {
            let agg = by_slot.entry(record.slot).or_insert_with(|| SlotAggregate {
                slot: record.slot,
                pass: record.pass.clone(),
                total_ns: 0,
                runs: 0,
            });
            agg.total_ns += record.nanos;
            if record.outcome != PassOutcome::Skipped {
                agg.runs += 1;
            }
        }
        let mut slots: Vec<SlotAggregate> = by_slot.into_values().collect();
        slots.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.slot.cmp(&b.slot)));
        slots.truncate(n);
        slots
    }

    fn records(&self) -> impl Iterator<Item = &sfcc_passes::PassRecord> {
        self.outputs()
            .flat_map(|out| out.trace.functions.iter())
            .flat_map(|func| func.records.iter())
    }

    /// A scalar from the metrics snapshot, falling back to the
    /// struct-derived value for reports assembled without a registry.
    /// Keeping every numeric the JSON emits on this path is what makes the
    /// snapshot the report's single source of truth.
    fn metric(&self, name: &str, fallback: u64) -> u64 {
        self.metrics.scalar(name).unwrap_or(fallback)
    }

    /// The report as a JSON object (machine-readable build summary for
    /// `minicc build --report json`). Every numeric field reads from the
    /// metrics snapshot ([`Self::metric`]), which is also carried verbatim
    /// as the trailing `"metrics"` block.
    pub fn to_value(&self) -> Value {
        let metric = |name: &str, fallback: u64| Value::from(self.metric(name, fallback));
        let labels = |labels: &[String]| -> Value { labels.iter().map(String::as_str).collect() };
        let outcomes = |prefix: &str, (a, d, s): (usize, usize, usize)| {
            Value::obj([
                ("active", metric(&format!("{prefix}active"), a as u64)),
                ("dormant", metric(&format!("{prefix}dormant"), d as u64)),
                ("skipped", metric(&format!("{prefix}skipped"), s as u64)),
            ])
        };
        let parallel = self.parallel_stats();
        // The depcheck block is present on every report — zeroed when the
        // audit was off — so consumers never have to branch on a missing
        // key. Counts come from the struct, not the snapshot: drivers may
        // merge findings across builds before serializing.
        let quiet = DepcheckReport::default();
        let (enabled, dc) = match &self.depcheck {
            Some(dc) => (true, dc),
            None => (false, &quiet),
        };
        let count = |kind| Value::from(dc.count(kind));
        let findings = dc.findings.iter().map(|f| {
            Value::obj([
                ("kind", f.kind.label().into()),
                ("task", f.task.as_str().into()),
                ("resource", f.resource.as_str().into()),
                ("detail", f.detail.as_str().into()),
            ])
        });
        let pass_profile = self.pass_profile().into_iter().map(|agg| {
            let key = |field: &str| format!("pass.{}.{field}", agg.pass);
            Value::obj([
                ("pass", agg.pass.as_str().into()),
                ("total_ns", metric(&key("total_ns"), agg.total_ns)),
                ("runs", metric(&key("runs"), agg.runs)),
                ("skipped", metric(&key("skipped"), agg.skipped)),
            ])
        });
        let slowest_slots = self.slowest_slots(SLOWEST_SLOTS).into_iter().map(|agg| {
            let key = |field: &str| format!("slot.{}.{field}", agg.slot);
            Value::obj([
                ("slot", agg.slot.into()),
                ("pass", agg.pass.as_str().into()),
                ("total_ns", metric(&key("total_ns"), agg.total_ns)),
                ("runs", metric(&key("runs"), agg.runs)),
            ])
        });
        let modules = self.modules.iter().map(|module| {
            let mut fields = vec![
                ("name", module.name.as_str().into()),
                ("rebuilt", module.rebuilt.into()),
            ];
            if let Some(output) = &module.output {
                let prefix = format!("module.{}.", module.name);
                let key = |field: &str| format!("{prefix}{field}");
                let t = &output.timings;
                let timings = Value::obj([
                    ("frontend", metric(&key("frontend_ns"), t.frontend_ns)),
                    ("lower", metric(&key("lower_ns"), t.lower_ns)),
                    ("middle", metric(&key("middle_ns"), t.middle_ns)),
                    ("backend", metric(&key("backend_ns"), t.backend_ns)),
                    ("state", metric(&key("state_ns"), t.state_ns)),
                ]);
                fields.extend([
                    ("timings_ns", timings),
                    (
                        "optimize_ns",
                        metric(&key("optimize_ns"), t.middle_ns + t.state_ns),
                    ),
                    ("outcomes", outcomes(&prefix, output.outcome_totals())),
                ]);
            }
            Value::obj(fields)
        });
        let fngrain = &self.fngrain;
        Value::obj([
            ("wall_ns", metric("build.wall_ns", self.wall_ns)),
            ("link_ns", metric("build.link_ns", self.link_ns)),
            ("compile_ns", metric("build.compile_ns", self.compile_ns())),
            (
                "rebuilt_count",
                metric("build.rebuilt_count", self.rebuilt_count() as u64),
            ),
            ("jobs", metric("build.jobs", self.jobs as u64)),
            ("outcome", self.outcome.as_str().into()),
            ("state_generation", self.state_generation.into()),
            ("outcomes", outcomes("outcomes.", self.outcome_totals())),
            (
                "query",
                Value::obj([
                    ("hits", metric("query.hits", self.query.hits)),
                    ("misses", metric("query.misses", self.query.misses)),
                    ("loaded", metric("query.loaded", self.query.loaded)),
                    ("rematerialized", labels(&self.query.rematerialized)),
                    ("executed", labels(&self.query.executed)),
                ]),
            ),
            (
                "fngrain",
                Value::obj([
                    (
                        "signature_hits",
                        metric("fngrain.signature_hits", fngrain.signature_hits),
                    ),
                    (
                        "signature_misses",
                        metric("fngrain.signature_misses", fngrain.signature_misses),
                    ),
                    (
                        "fn_tasks_executed",
                        metric("fngrain.fn_tasks_executed", fngrain.fn_tasks_executed),
                    ),
                    (
                        "cutoff_saved",
                        metric("fngrain.cutoff_saved", fngrain.cutoff_saved),
                    ),
                ]),
            ),
            (
                "parallel",
                Value::obj([
                    (
                        "snapshot_clones",
                        metric("snapshot.clones", parallel.snapshot_clones),
                    ),
                    (
                        "snapshot_cost_units",
                        metric("snapshot.cost_units", parallel.snapshot_cost_units),
                    ),
                    (
                        "snapshot_reused",
                        metric("snapshot.reused", parallel.snapshot_reused),
                    ),
                    ("batch_count", metric("batch.count", parallel.batch_count)),
                    (
                        "batch_max_cost",
                        metric("batch.max_cost", parallel.batch_max_cost),
                    ),
                ]),
            ),
            (
                "recovery",
                Value::obj([
                    (
                        "recovered_files",
                        metric("recovery.recovered_files", self.recovered_files as u64),
                    ),
                    ("quarantined", labels(&self.quarantined)),
                ]),
            ),
            (
                "depcheck",
                Value::obj([
                    ("enabled", enabled.into()),
                    ("missing", count(DepFindingKind::MissingDep)),
                    ("redundant", count(DepFindingKind::RedundantDep)),
                    ("stale", count(DepFindingKind::StaleServe)),
                    ("untracked_io", count(DepFindingKind::UntrackedIo)),
                    ("tasks_checked", dc.tasks_checked.into()),
                    ("accesses", dc.accesses.into()),
                    ("findings", findings.collect()),
                ]),
            ),
            // The cas block mirrors the `cas.*` gauges the compiler
            // publishes: always present, zeroed (enabled=false) when no
            // shared store is attached, so consumers never branch on a
            // missing key.
            (
                "cas",
                Value::obj([
                    ("enabled", (self.metric("cas.enabled", 0) != 0).into()),
                    ("hits", metric("cas.hits", 0)),
                    ("misses", metric("cas.misses", 0)),
                    ("evictions", metric("cas.evictions", 0)),
                    ("publishes", metric("cas.publishes", 0)),
                    ("entries", metric("cas.entries", 0)),
                    ("bytes", metric("cas.bytes", 0)),
                ]),
            ),
            ("pass_profile", pass_profile.collect()),
            ("slowest_slots", slowest_slots.collect()),
            ("modules", modules.collect()),
            ("metrics", self.metrics.to_value()),
        ])
    }

    /// [`Self::to_value`], printed: the bytes of `--report json` and of
    /// the persisted `.sfcc-report.json`.
    pub fn to_json(&self) -> String {
        json::write(&self.to_value())
    }
}

/// Validates the JSON produced by [`BuildReport::to_json`] against the
/// report's schema: the exact top-level key sequence, the type of every
/// field, and the shape of each nested block (including the `"metrics"`
/// snapshot, which must parse back via [`MetricsSnapshot::from_json`]).
/// A regression test pins this down so schema drift is an explicit,
/// reviewed change rather than an accident.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let fields = doc.as_obj().ok_or("report: expected a top-level object")?;
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let expected = [
        "wall_ns",
        "link_ns",
        "compile_ns",
        "rebuilt_count",
        "jobs",
        "outcome",
        "state_generation",
        "outcomes",
        "query",
        "fngrain",
        "parallel",
        "recovery",
        "depcheck",
        "cas",
        "pass_profile",
        "slowest_slots",
        "modules",
        "metrics",
    ];
    if keys != expected {
        return Err(format!(
            "report: key sequence {keys:?} does not match the schema {expected:?}"
        ));
    }
    let num = |v: &Value| v.as_u64().is_some();
    let string = |v: &Value| v.as_str().is_some();
    let boolean = |v: &Value| v.as_bool().is_some();
    let strings = |v: &Value| v.as_arr().is_some_and(|a| a.iter().all(string));
    let outcomes = ["active", "dormant", "skipped"];
    let scalars = [
        "wall_ns",
        "link_ns",
        "compile_ns",
        "rebuilt_count",
        "jobs",
        "state_generation",
    ];
    check(&doc, "report", &scalars, num)?;
    check(&doc, "report", &["outcome"], string)?;
    let blocks: [(&str, &[&str]); 7] = [
        ("outcomes", &outcomes),
        ("query", &["hits", "misses", "loaded"]),
        (
            "fngrain",
            &[
                "signature_hits",
                "signature_misses",
                "fn_tasks_executed",
                "cutoff_saved",
            ],
        ),
        (
            "parallel",
            &[
                "snapshot_clones",
                "snapshot_cost_units",
                "snapshot_reused",
                "batch_count",
                "batch_max_cost",
            ],
        ),
        ("recovery", &["recovered_files"]),
        (
            "depcheck",
            &[
                "missing",
                "redundant",
                "stale",
                "untracked_io",
                "tasks_checked",
                "accesses",
            ],
        ),
        (
            "cas",
            &[
                "hits",
                "misses",
                "evictions",
                "publishes",
                "entries",
                "bytes",
            ],
        ),
    ];
    for (block, fields) in blocks {
        check(&doc[block], block, fields, num)?;
    }
    check(&doc["depcheck"], "depcheck", &["enabled"], boolean)?;
    check(&doc["cas"], "cas", &["enabled"], boolean)?;
    check(
        &doc["query"],
        "query",
        &["rematerialized", "executed"],
        strings,
    )?;
    check(&doc["recovery"], "recovery", &["quarantined"], strings)?;

    // Arrays of rows, each with string and numeric fields.
    let row_blocks: [(&str, &Value, &[&str], &[&str]); 3] = [
        (
            "depcheck.findings",
            &doc["depcheck"]["findings"],
            &["kind", "task", "resource", "detail"],
            &[],
        ),
        (
            "pass_profile",
            &doc["pass_profile"],
            &["pass"],
            &["total_ns", "runs", "skipped"],
        ),
        (
            "slowest_slots",
            &doc["slowest_slots"],
            &["pass"],
            &["slot", "total_ns", "runs"],
        ),
    ];
    for (block, rows, text, numbers) in row_blocks {
        let rows = rows.as_arr().ok_or(format!("{block}: expected an array"))?;
        for (i, row) in rows.iter().enumerate() {
            let ctx = format!("{block}[{i}]");
            check(row, &ctx, text, string)?;
            check(row, &ctx, numbers, num)?;
        }
    }

    let modules = doc["modules"]
        .as_arr()
        .ok_or("modules: expected an array")?;
    for (i, module) in modules.iter().enumerate() {
        let ctx = format!("modules[{i}]");
        check(module, &ctx, &["name"], string)?;
        check(module, &ctx, &["rebuilt"], boolean)?;
        match module.get("timings_ns") {
            Some(timings) => {
                let fields = ["frontend", "lower", "middle", "backend", "state"];
                check(timings, &format!("{ctx}.timings_ns"), &fields, num)?;
                check(module, &ctx, &["optimize_ns"], num)?;
                check(
                    &module["outcomes"],
                    &format!("{ctx}.outcomes"),
                    &outcomes,
                    num,
                )?;
            }
            None if module["rebuilt"] == Value::Bool(true) => {
                return Err(format!("{ctx}: rebuilt module without timings_ns"));
            }
            None => {}
        }
    }

    MetricsSnapshot::from_json(&doc["metrics"]).map_err(|e| format!("metrics: {e}"))?;
    Ok(())
}

/// Checks that `block` holds each of `fields`, each of a type `is` accepts.
fn check(
    block: &Value,
    ctx: &str,
    fields: &[&str],
    is: impl Fn(&Value) -> bool,
) -> Result<(), String> {
    for field in fields {
        let value = block
            .get(field)
            .ok_or(format!("{ctx}: missing {field:?}"))?;
        if !is(value) {
            return Err(format!("{ctx}.{field}: unexpected type"));
        }
    }
    Ok(())
}
