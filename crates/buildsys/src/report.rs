//! What one build produced: the linked program, the primary records of
//! what ran — per-module pass traces and phase timings, the executed and
//! rematerialized task labels, quarantined paths, depcheck findings — and
//! the build's numbers.
//!
//! A number lives in one place: the build's [`MetricsSnapshot`]. The
//! builder sets each gauge once; a driver that works after the build
//! (a state commit) updates the snapshot through
//! [`BuildReport::update_metric`]; readers go through
//! [`BuildReport::metric`], which panics on a name the report does not
//! carry. [`BuildReport::to_value`] renders every numeric of the JSON
//! report from the snapshot and carries the snapshot itself as the
//! trailing `"metrics"` block, so the two views cannot drift.
//! [`validate_report_json`] pins the full report schema for regression
//! tests.

use crate::depcheck::{DepFindingKind, DepcheckReport};
use crate::tasks::LinkArtifact;
use sfcc::PhaseTimings;
use sfcc_backend::Program;
use sfcc_passes::PipelineTrace;
use sfcc_trace::json::{self, Value};
use sfcc_trace::{MetricValue, MetricsSnapshot};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// How many rows the JSON report's "slowest slots" table carries.
const SLOWEST_SLOTS: usize = 10;

/// The tasks one build session executed and rematerialized. Their counts
/// are the `query.*` metrics.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Display names of the hits whose value was recomputed by executing
    /// the task again (valid, nothing on hand, nothing to load), in
    /// completion order. Not misses.
    pub rematerialized: Vec<String>,
    /// Display names of the executed tasks, in completion order (e.g.
    /// `parse(base)`, `link`).
    pub executed: Vec<String>,
}

/// What a rebuilt module's compilation leaves for the report.
#[derive(Debug, Clone, Default)]
pub struct ModuleOutput {
    /// The pass trace of the functions optimized this build, plus the
    /// module's snapshot and batching counters.
    pub trace: PipelineTrace,
    /// Phase timings of the tasks that ran.
    pub timings: PhaseTimings,
}

/// Per-module outcome of one build.
#[derive(Debug, Clone)]
pub struct ModuleReport {
    /// Module name.
    pub name: String,
    /// What the compilation left — `Some` only when the module was rebuilt
    /// in *this* build, so traces are never double-counted across builds.
    pub output: Option<ModuleOutput>,
}

impl ModuleReport {
    /// Whether this build recompiled the module (vs. reusing its cached
    /// object).
    pub fn rebuilt(&self) -> bool {
        self.output.is_some()
    }
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
    /// Per-module outcomes, in topological (import-before-importer) order.
    pub modules: Vec<ModuleReport>,
    /// The tasks this build session executed and rematerialized.
    pub query: QueryStats,
    /// How the build ended. The builder only ever emits `"success"`
    /// reports (failures return errors, not reports); the stamp exists so
    /// a persisted report can never be mistaken for one from a build that
    /// did not complete.
    pub outcome: String,
    /// Generation of the persistent state commit this build's results were
    /// saved under, `0` when the session is stateless or unsaved. Stamped
    /// by the driver *after* [`crate::Builder::build`] returns (the save
    /// happens outside the build); a generation names a commit, it counts
    /// nothing, so it is no metric.
    pub state_generation: u64,
    /// Where corrupt files were moved aside (`*.corrupt`), one entry per
    /// quarantined file.
    pub quarantined: Vec<String>,
    /// Dependency-soundness verdict when the build ran with
    /// [`crate::Builder::with_depcheck`]; `None` otherwise. Rendered from
    /// the findings (not the metrics snapshot) so a driver can merge
    /// findings across builds — e.g. `minicc depcheck`'s cold+incremental
    /// pair — before rendering; the `depcheck.*` gauges count the build's
    /// own.
    pub depcheck: Option<DepcheckReport>,
    /// The build's numbers — query, dormancy, phase-time, pass-profile,
    /// cache, faultfs and recovery counts — read through
    /// [`BuildReport::metric`].
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

    /// The value of counter or gauge `name` of the build's metrics: the
    /// one way to read a number of the report.
    ///
    /// # Panics
    ///
    /// On a name the report does not carry: a misspelt name is a bug, not
    /// a zero.
    pub fn metric(&self, name: &str) -> u64 {
        self.metrics
            .scalar(name)
            .unwrap_or_else(|| panic!("the report carries no metric `{name}`"))
    }

    /// Sets gauge `name` to `update` of its value: how a driver counts
    /// what it does after the build assembled its report.
    ///
    /// # Panics
    ///
    /// On a name the report carries no gauge of.
    pub(crate) fn update_metric(&mut self, name: &str, update: impl FnOnce(u64) -> u64) {
        match self.metrics.values.get_mut(name) {
            Some(MetricValue::Gauge(value)) => *value = update(*value),
            _ => panic!("the report carries no gauge `{name}`"),
        }
    }

    /// A module's report, by name.
    pub fn module(&self, name: &str) -> Option<&ModuleReport> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The report as a JSON object (machine-readable build summary for
    /// `minicc build --report json`). Every number reads from the metrics
    /// snapshot, which is also carried verbatim as the trailing `"metrics"`
    /// block; the rows of the pass and slot tables are the passes and
    /// slots the module traces recorded, ordered by their snapshot times.
    pub fn to_value(&self) -> Value {
        let metric = |name: &str| Value::from(self.metric(name));
        let labels = |labels: &[String]| -> Value { labels.iter().map(String::as_str).collect() };
        let outcomes = |prefix: &str| {
            Value::obj([
                ("active", metric(&format!("{prefix}active"))),
                ("dormant", metric(&format!("{prefix}dormant"))),
                ("skipped", metric(&format!("{prefix}skipped"))),
            ])
        };
        // The depcheck block is present on every report — zeroed when the
        // audit was off — so consumers never have to branch on a missing
        // key. Counts come from the findings, not the snapshot: drivers may
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
        // The passes and slots the module traces recorded, and which pass
        // ran in each slot.
        let mut passes: BTreeSet<&str> = BTreeSet::new();
        let mut slots: BTreeMap<usize, &str> = BTreeMap::new();
        let records = self
            .modules
            .iter()
            .filter_map(|m| m.output.as_ref())
            .flat_map(|out| out.trace.functions.iter())
            .flat_map(|func| func.records.iter());
        for record in records {
            passes.insert(&record.pass);
            slots.entry(record.slot).or_insert(&record.pass);
        }
        let mut passes: Vec<&str> = passes.into_iter().collect();
        passes.sort_by_key(|pass| Reverse(self.metric(&format!("pass.{pass}.total_ns"))));
        let pass_profile = passes.into_iter().map(|pass| {
            let key = |field: &str| format!("pass.{pass}.{field}");
            Value::obj([
                ("pass", pass.into()),
                ("total_ns", metric(&key("total_ns"))),
                ("runs", metric(&key("runs"))),
                ("skipped", metric(&key("skipped"))),
            ])
        });
        let mut slowest: Vec<(usize, &str)> = slots.into_iter().collect();
        slowest.sort_by_key(|(slot, _)| Reverse(self.metric(&format!("slot.{slot}.total_ns"))));
        slowest.truncate(SLOWEST_SLOTS);
        let slowest_slots = slowest.into_iter().map(|(slot, pass)| {
            let key = |field: &str| format!("slot.{slot}.{field}");
            Value::obj([
                ("slot", slot.into()),
                ("pass", pass.into()),
                ("total_ns", metric(&key("total_ns"))),
                ("runs", metric(&key("runs"))),
            ])
        });
        let modules = self.modules.iter().map(|module| {
            let mut fields = vec![
                ("name", module.name.as_str().into()),
                ("rebuilt", module.rebuilt().into()),
            ];
            if module.output.is_some() {
                let prefix = format!("module.{}.", module.name);
                let key = |field: &str| metric(&format!("{prefix}{field}"));
                let timings = Value::obj([
                    ("frontend", key("frontend_ns")),
                    ("lower", key("lower_ns")),
                    ("middle", key("middle_ns")),
                    ("backend", key("backend_ns")),
                    ("state", key("state_ns")),
                ]);
                fields.extend([
                    ("timings_ns", timings),
                    ("optimize_ns", key("optimize_ns")),
                    ("outcomes", outcomes(&prefix)),
                ]);
            }
            Value::obj(fields)
        });
        Value::obj([
            ("wall_ns", metric("build.wall_ns")),
            ("link_ns", metric("build.link_ns")),
            ("compile_ns", metric("build.compile_ns")),
            ("rebuilt_count", metric("build.rebuilt_count")),
            ("jobs", metric("build.jobs")),
            ("outcome", self.outcome.as_str().into()),
            ("state_generation", self.state_generation.into()),
            ("outcomes", outcomes("outcomes.")),
            (
                "query",
                Value::obj([
                    ("hits", metric("query.hits")),
                    ("misses", metric("query.misses")),
                    ("loaded", metric("query.loaded")),
                    ("rematerialized", labels(&self.query.rematerialized)),
                    ("executed", labels(&self.query.executed)),
                ]),
            ),
            (
                "fngrain",
                Value::obj([
                    ("signature_hits", metric("fngrain.signature_hits")),
                    ("signature_misses", metric("fngrain.signature_misses")),
                    ("fn_tasks_executed", metric("fngrain.fn_tasks_executed")),
                    ("cutoff_saved", metric("fngrain.cutoff_saved")),
                ]),
            ),
            (
                "parallel",
                Value::obj([
                    ("snapshot_clones", metric("snapshot.clones")),
                    ("snapshot_cost_units", metric("snapshot.cost_units")),
                    ("snapshot_reused", metric("snapshot.reused")),
                    ("batch_count", metric("batch.count")),
                    ("batch_max_cost", metric("batch.max_cost")),
                ]),
            ),
            (
                "recovery",
                Value::obj([
                    ("recovered_files", metric("recovery.recovered_files")),
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
            // The cas block renders the `cas.*` gauges the compiler
            // publishes on every build: zeroed (enabled=false) when no
            // shared store is attached, so consumers never branch on a
            // missing key.
            (
                "cas",
                Value::obj([
                    ("enabled", (self.metric("cas.enabled") != 0).into()),
                    ("hits", metric("cas.hits")),
                    ("misses", metric("cas.misses")),
                    ("evictions", metric("cas.evictions")),
                    ("publishes", metric("cas.publishes")),
                    ("entries", metric("cas.entries")),
                    ("bytes", metric("cas.bytes")),
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
