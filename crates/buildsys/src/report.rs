//! What one build produced: the linked program plus per-module and
//! per-query accounting.
//!
//! Every numeric the JSON report emits is sourced from the build's
//! [`MetricsSnapshot`] (the struct fields are the fallback for reports
//! assembled without a registry), and the snapshot itself is emitted as the
//! report's `"metrics"` block — so the registry is the single source of
//! truth and the two views cannot drift. [`validate_report_json`] pins the
//! full report schema for regression tests.

use crate::depcheck::DepcheckReport;
use sfcc::PhaseTimings;
use sfcc_backend::Program;
use sfcc_passes::{PassOutcome, PipelineTrace};
use sfcc_trace::json::{escape_into, Value};
use sfcc_trace::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

/// The result of one [`crate::Builder::build`] call.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The fully linked program (always complete, even on a no-op build).
    pub program: Program,
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

    /// Renders the report as a JSON object (machine-readable build summary
    /// for `minicc build --report json`). Hand-rolled — the workspace
    /// carries no serialization dependency. Every numeric field reads from
    /// the metrics snapshot ([`Self::metric`]), which is also emitted
    /// verbatim as the trailing `"metrics"` block.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"wall_ns\":{},\"link_ns\":{},\"compile_ns\":{},\"rebuilt_count\":{},\"jobs\":{},",
            self.metric("build.wall_ns", self.wall_ns),
            self.metric("build.link_ns", self.link_ns),
            self.metric("build.compile_ns", self.compile_ns()),
            self.metric("build.rebuilt_count", self.rebuilt_count() as u64),
            self.metric("build.jobs", self.jobs as u64)
        );
        out.push_str("\"outcome\":");
        escape_into(&mut out, &self.outcome);
        let _ = write!(out, ",\"state_generation\":{},", self.state_generation);
        let (active, dormant, skipped) = self.outcome_totals();
        let _ = write!(
            out,
            "\"outcomes\":{{\"active\":{},\"dormant\":{},\"skipped\":{}}},",
            self.metric("outcomes.active", active as u64),
            self.metric("outcomes.dormant", dormant as u64),
            self.metric("outcomes.skipped", skipped as u64)
        );
        let _ = write!(
            out,
            "\"query\":{{\"hits\":{},\"misses\":{},\"loaded\":{},\"rematerialized\":",
            self.metric("query.hits", self.query.hits),
            self.metric("query.misses", self.query.misses),
            self.metric("query.loaded", self.query.loaded)
        );
        push_labels(&mut out, &self.query.rematerialized);
        out.push_str(",\"executed\":");
        push_labels(&mut out, &self.query.executed);
        out.push_str("},");
        let _ = write!(
            out,
            "\"fngrain\":{{\"signature_hits\":{},\"signature_misses\":{},\"fn_tasks_executed\":{},\"cutoff_saved\":{}}},",
            self.metric("fngrain.signature_hits", self.fngrain.signature_hits),
            self.metric("fngrain.signature_misses", self.fngrain.signature_misses),
            self.metric("fngrain.fn_tasks_executed", self.fngrain.fn_tasks_executed),
            self.metric("fngrain.cutoff_saved", self.fngrain.cutoff_saved)
        );
        let parallel = self.parallel_stats();
        let _ = write!(
            out,
            "\"parallel\":{{\"snapshot_clones\":{},\"snapshot_cost_units\":{},\"snapshot_reused\":{},\"batch_count\":{},\"batch_max_cost\":{}}},",
            self.metric("snapshot.clones", parallel.snapshot_clones),
            self.metric("snapshot.cost_units", parallel.snapshot_cost_units),
            self.metric("snapshot.reused", parallel.snapshot_reused),
            self.metric("batch.count", parallel.batch_count),
            self.metric("batch.max_cost", parallel.batch_max_cost)
        );
        let _ = write!(
            out,
            "\"recovery\":{{\"recovered_files\":{},\"quarantined\":[",
            self.metric("recovery.recovered_files", self.recovered_files as u64)
        );
        for (i, path) in self.quarantined.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, path);
        }
        // The depcheck block is present on every report — zeroed when the
        // audit was off — so consumers never have to branch on a missing
        // key. Counts come from the struct, not the snapshot: drivers may
        // merge findings across builds before serializing.
        let quiet = DepcheckReport::default();
        let (enabled, dc) = match &self.depcheck {
            Some(dc) => (true, dc),
            None => (false, &quiet),
        };
        let _ = write!(
            out,
            "]}},\"depcheck\":{{\"enabled\":{},\"missing\":{},\"redundant\":{},\"stale\":{},\
             \"untracked_io\":{},\"tasks_checked\":{},\"accesses\":{},\"findings\":[",
            enabled,
            dc.count(crate::depcheck::DepFindingKind::MissingDep),
            dc.count(crate::depcheck::DepFindingKind::RedundantDep),
            dc.count(crate::depcheck::DepFindingKind::StaleServe),
            dc.count(crate::depcheck::DepFindingKind::UntrackedIo),
            dc.tasks_checked,
            dc.accesses
        );
        for (i, f) in dc.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kind\":");
            escape_into(&mut out, f.kind.label());
            out.push_str(",\"task\":");
            escape_into(&mut out, &f.task);
            out.push_str(",\"resource\":");
            escape_into(&mut out, &f.resource);
            out.push_str(",\"detail\":");
            escape_into(&mut out, &f.detail);
            out.push('}');
        }
        // The cas block mirrors the `cas.*` gauges the compiler publishes:
        // always present, zeroed (enabled=false) when no shared store is
        // attached, so consumers never branch on a missing key.
        let _ = write!(
            out,
            "]}},\"cas\":{{\"enabled\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"publishes\":{},\"entries\":{},\"bytes\":{}}}",
            self.metric("cas.enabled", 0) != 0,
            self.metric("cas.hits", 0),
            self.metric("cas.misses", 0),
            self.metric("cas.evictions", 0),
            self.metric("cas.publishes", 0),
            self.metric("cas.entries", 0),
            self.metric("cas.bytes", 0)
        );
        out.push_str(",\"pass_profile\":[");
        for (i, agg) in self.pass_profile().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"pass\":");
            escape_into(&mut out, &agg.pass);
            let _ = write!(
                out,
                ",\"total_ns\":{},\"runs\":{},\"skipped\":{}}}",
                self.metric(&format!("pass.{}.total_ns", agg.pass), agg.total_ns),
                self.metric(&format!("pass.{}.runs", agg.pass), agg.runs),
                self.metric(&format!("pass.{}.skipped", agg.pass), agg.skipped)
            );
        }
        out.push_str("],\"slowest_slots\":[");
        for (i, agg) in self.slowest_slots(SLOWEST_SLOTS).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"slot\":{},\"pass\":", agg.slot);
            escape_into(&mut out, &agg.pass);
            let _ = write!(
                out,
                ",\"total_ns\":{},\"runs\":{}}}",
                self.metric(&format!("slot.{}.total_ns", agg.slot), agg.total_ns),
                self.metric(&format!("slot.{}.runs", agg.slot), agg.runs)
            );
        }
        out.push_str("],\"modules\":[");
        for (i, module) in self.modules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_into(&mut out, &module.name);
            let _ = write!(out, ",\"rebuilt\":{}", module.rebuilt);
            if let Some(output) = &module.output {
                let (a, d, s) = output.outcome_totals();
                let key = |field: &str| format!("module.{}.{field}", module.name);
                let _ = write!(
                    out,
                    ",\"timings_ns\":{{\"frontend\":{},\"lower\":{},\"middle\":{},\"backend\":{},\"state\":{}}},\"optimize_ns\":{},\"outcomes\":{{\"active\":{},\"dormant\":{},\"skipped\":{}}}",
                    self.metric(&key("frontend_ns"), output.timings.frontend_ns),
                    self.metric(&key("lower_ns"), output.timings.lower_ns),
                    self.metric(&key("middle_ns"), output.timings.middle_ns),
                    self.metric(&key("backend_ns"), output.timings.backend_ns),
                    self.metric(&key("state_ns"), output.timings.state_ns),
                    self.metric(
                        &key("optimize_ns"),
                        output.timings.middle_ns + output.timings.state_ns
                    ),
                    self.metric(&key("active"), a as u64),
                    self.metric(&key("dormant"), d as u64),
                    self.metric(&key("skipped"), s as u64),
                );
            }
            out.push('}');
        }
        out.push_str("],\"metrics\":");
        out.push_str(&self.metrics.to_json());
        out.push('}');
        out
    }
}

/// Appends `labels` as a JSON array of strings.
fn push_labels(out: &mut String, labels: &[String]) {
    out.push('[');
    for (i, label) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, label);
    }
    out.push(']');
}

/// Validates the JSON produced by [`BuildReport::to_json`] against the
/// report's schema: the exact top-level key sequence, the type of every
/// field, and the shape of each nested block (including the `"metrics"`
/// snapshot, which must parse back via [`MetricsSnapshot::from_json`]).
/// A regression test pins this down so schema drift is an explicit,
/// reviewed change rather than an accident.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    let doc = sfcc_trace::json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
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
    let num = |v: &Value, ctx: &str| -> Result<u64, String> {
        v.as_u64().ok_or(format!("{ctx}: expected a number"))
    };
    for scalar in [
        "wall_ns",
        "link_ns",
        "compile_ns",
        "rebuilt_count",
        "jobs",
        "state_generation",
    ] {
        num(doc.get(scalar).unwrap(), scalar)?;
    }
    doc.get("outcome")
        .and_then(Value::as_str)
        .ok_or("outcome: expected a string")?;
    let outcome_block = |v: &Value, ctx: &str| -> Result<(), String> {
        for field in ["active", "dormant", "skipped"] {
            num(
                v.get(field).ok_or(format!("{ctx}: missing {field:?}"))?,
                &format!("{ctx}.{field}"),
            )?;
        }
        Ok(())
    };
    outcome_block(doc.get("outcomes").unwrap(), "outcomes")?;

    let query = doc.get("query").unwrap();
    num(
        query.get("hits").ok_or("query: missing hits")?,
        "query.hits",
    )?;
    num(
        query.get("misses").ok_or("query: missing misses")?,
        "query.misses",
    )?;
    num(
        query.get("loaded").ok_or("query: missing loaded")?,
        "query.loaded",
    )?;
    for list in ["rematerialized", "executed"] {
        let entries = query
            .get(list)
            .and_then(Value::as_arr)
            .ok_or(format!("query.{list}: expected an array"))?;
        for entry in entries {
            entry
                .as_str()
                .ok_or(format!("query.{list}: expected strings"))?;
        }
    }

    let fngrain = doc.get("fngrain").unwrap();
    for field in [
        "signature_hits",
        "signature_misses",
        "fn_tasks_executed",
        "cutoff_saved",
    ] {
        num(
            fngrain
                .get(field)
                .ok_or(format!("fngrain: missing {field:?}"))?,
            &format!("fngrain.{field}"),
        )?;
    }

    let parallel = doc.get("parallel").unwrap();
    for field in [
        "snapshot_clones",
        "snapshot_cost_units",
        "snapshot_reused",
        "batch_count",
        "batch_max_cost",
    ] {
        num(
            parallel
                .get(field)
                .ok_or(format!("parallel: missing {field:?}"))?,
            &format!("parallel.{field}"),
        )?;
    }

    let recovery = doc.get("recovery").unwrap();
    num(
        recovery
            .get("recovered_files")
            .ok_or("recovery: missing recovered_files")?,
        "recovery.recovered_files",
    )?;
    let quarantined = recovery
        .get("quarantined")
        .and_then(Value::as_arr)
        .ok_or("recovery.quarantined: expected an array")?;
    for entry in quarantined {
        entry
            .as_str()
            .ok_or("recovery.quarantined: expected strings")?;
    }

    let depcheck = doc.get("depcheck").unwrap();
    depcheck
        .get("enabled")
        .and_then(Value::as_bool)
        .ok_or("depcheck: missing bool \"enabled\"")?;
    for field in [
        "missing",
        "redundant",
        "stale",
        "untracked_io",
        "tasks_checked",
        "accesses",
    ] {
        num(
            depcheck
                .get(field)
                .ok_or(format!("depcheck: missing {field:?}"))?,
            &format!("depcheck.{field}"),
        )?;
    }
    let findings = depcheck
        .get("findings")
        .and_then(Value::as_arr)
        .ok_or("depcheck.findings: expected an array")?;
    for (i, finding) in findings.iter().enumerate() {
        for field in ["kind", "task", "resource", "detail"] {
            finding
                .get(field)
                .and_then(Value::as_str)
                .ok_or(format!("depcheck.findings[{i}]: missing string {field:?}"))?;
        }
    }

    let cas = doc.get("cas").unwrap();
    cas.get("enabled")
        .and_then(Value::as_bool)
        .ok_or("cas: missing bool \"enabled\"")?;
    for field in [
        "hits",
        "misses",
        "evictions",
        "publishes",
        "entries",
        "bytes",
    ] {
        num(
            cas.get(field).ok_or(format!("cas: missing {field:?}"))?,
            &format!("cas.{field}"),
        )?;
    }

    for (block, fields) in [
        ("pass_profile", &["total_ns", "runs", "skipped"][..]),
        ("slowest_slots", &["total_ns", "runs"][..]),
    ] {
        let rows = doc
            .get(block)
            .and_then(Value::as_arr)
            .ok_or(format!("{block}: expected an array"))?;
        for (i, row) in rows.iter().enumerate() {
            let ctx = format!("{block}[{i}]");
            row.get("pass")
                .and_then(Value::as_str)
                .ok_or(format!("{ctx}: missing string \"pass\""))?;
            if block == "slowest_slots" {
                num(row.get("slot").ok_or(format!("{ctx}: missing slot"))?, &ctx)?;
            }
            for field in fields {
                num(
                    row.get(field).ok_or(format!("{ctx}: missing {field:?}"))?,
                    &format!("{ctx}.{field}"),
                )?;
            }
        }
    }

    let modules = doc
        .get("modules")
        .and_then(Value::as_arr)
        .ok_or("modules: expected an array")?;
    for (i, module) in modules.iter().enumerate() {
        let ctx = format!("modules[{i}]");
        module
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("{ctx}: missing string \"name\""))?;
        let rebuilt = module
            .get("rebuilt")
            .and_then(Value::as_bool)
            .ok_or(format!("{ctx}: missing bool \"rebuilt\""))?;
        match module.get("timings_ns") {
            Some(timings) => {
                for field in ["frontend", "lower", "middle", "backend", "state"] {
                    num(
                        timings
                            .get(field)
                            .ok_or(format!("{ctx}: missing {field:?}"))?,
                        &format!("{ctx}.timings_ns.{field}"),
                    )?;
                }
                num(
                    module
                        .get("optimize_ns")
                        .ok_or(format!("{ctx}: missing optimize_ns"))?,
                    &format!("{ctx}.optimize_ns"),
                )?;
                outcome_block(
                    module
                        .get("outcomes")
                        .ok_or(format!("{ctx}: missing outcomes"))?,
                    &format!("{ctx}.outcomes"),
                )?;
            }
            None if rebuilt => {
                return Err(format!("{ctx}: rebuilt module without timings_ns"));
            }
            None => {}
        }
    }

    let metrics = doc.get("metrics").ok_or("metrics: missing block")?;
    MetricsSnapshot::from_json(metrics).map_err(|e| format!("metrics: {e}"))?;
    Ok(())
}
