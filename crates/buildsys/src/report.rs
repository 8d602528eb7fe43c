//! What one build produced: the linked program, the primary records of
//! what ran — per-module pass traces and phase timings, the executed and
//! rematerialized task labels, quarantined paths, depcheck findings — and
//! the build's numbers.
//!
//! A number lives in one place: the build's [`MetricsSnapshot`]. The
//! builder sets each gauge once; a driver that works after the build
//! (a state commit) updates the snapshot through
//! `BuildReport::update_metric`; readers go through
//! [`BuildReport::metric`], which panics on a name the report does not
//! carry. [`BuildReport::to_value`] prints the records and carries the
//! snapshot as the trailing `"metrics"` block, the document's only copy of
//! the build's numbers. [`validate_report_json`] pins the report schema for
//! regression tests.

use crate::depcheck::{DepFindingKind, DepcheckReport};
use crate::tasks::LinkArtifact;
use sfcc::PhaseTimings;
use sfcc_backend::Program;
use sfcc_passes::PipelineTrace;
use sfcc_trace::json::{self, Value};
use sfcc_trace::{MetricValue, MetricsSnapshot};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

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

    /// Counts `recovered` more recovered files, the quarantined ones among
    /// them moved aside to `quarantined`: recoveries met outside the build
    /// that assembled the report — after it, or by the other builds of an
    /// audit.
    pub(crate) fn add_recoveries(&mut self, recovered: u64, quarantined: &[String]) {
        self.update_metric("recovery.recovered_files", |n| n + recovered);
        self.update_metric("recovery.quarantined", |n| n + quarantined.len() as u64);
        self.quarantined.extend_from_slice(quarantined);
    }

    /// A module's report, by name.
    pub fn module(&self, name: &str) -> Option<&ModuleReport> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The report as a JSON object (machine-readable build summary for
    /// `minicc build --report json`): the build's records — outcome, state
    /// generation, the rematerialized and executed task labels, the
    /// quarantined paths, the depcheck verdict and each module's rebuilt
    /// flag — then the metrics snapshot as the trailing `"metrics"` block,
    /// the one place the document prints a number of the build.
    pub fn to_value(&self) -> Value {
        let labels = |labels: &[String]| -> Value { labels.iter().map(String::as_str).collect() };
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
        let modules = self.modules.iter().map(|module| {
            Value::obj([
                ("name", module.name.as_str().into()),
                ("rebuilt", module.rebuilt().into()),
            ])
        });
        Value::obj([
            ("outcome", self.outcome.as_str().into()),
            ("state_generation", self.state_generation.into()),
            (
                "query",
                Value::obj([
                    ("rematerialized", labels(&self.query.rematerialized)),
                    ("executed", labels(&self.query.executed)),
                ]),
            ),
            (
                "recovery",
                Value::obj([("quarantined", labels(&self.quarantined))]),
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
/// report's schema: the exact key sequence and field types of the document
/// and of each record block, and a `"metrics"` snapshot that parses back
/// via [`MetricsSnapshot::from_json`]. A regression test pins this down so
/// schema drift is an explicit, reviewed change rather than an accident.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let num: Is = |v| v.as_u64().is_some();
    let string: Is = |v| v.as_str().is_some();
    let boolean: Is = |v| v.as_bool().is_some();
    let strings: Is = |v| {
        v.as_arr()
            .is_some_and(|a| a.iter().all(|s| s.as_str().is_some()))
    };
    // Blocks whose own fields are checked below.
    let block: Is = |_| true;
    check(
        &doc,
        "report",
        &[
            ("outcome", string),
            ("state_generation", num),
            ("query", block),
            ("recovery", block),
            ("depcheck", block),
            ("modules", block),
            ("metrics", block),
        ],
    )?;
    check(
        &doc["query"],
        "query",
        &[("rematerialized", strings), ("executed", strings)],
    )?;
    check(&doc["recovery"], "recovery", &[("quarantined", strings)])?;
    let dc = &doc["depcheck"];
    check(
        dc,
        "depcheck",
        &[
            ("enabled", boolean),
            ("missing", num),
            ("redundant", num),
            ("stale", num),
            ("untracked_io", num),
            ("tasks_checked", num),
            ("accesses", num),
            ("findings", block),
        ],
    )?;
    let rows = |rows: &Value, ctx: &str, fields: &[(&str, Is)]| -> Result<(), String> {
        let rows = rows.as_arr().ok_or(format!("{ctx}: expected an array"))?;
        for (i, row) in rows.iter().enumerate() {
            check(row, &format!("{ctx}[{i}]"), fields)?;
        }
        Ok(())
    };
    let finding = ["kind", "task", "resource", "detail"].map(|field| (field, string));
    rows(&dc["findings"], "depcheck.findings", &finding)?;
    rows(
        &doc["modules"],
        "modules",
        &[("name", string), ("rebuilt", boolean)],
    )?;
    MetricsSnapshot::from_json(&doc["metrics"]).map_err(|e| format!("metrics: {e}"))?;
    Ok(())
}

/// A type test on a report field.
type Is = fn(&Value) -> bool;

/// Checks that `block` is an object holding exactly `fields`, in order,
/// each of a type its test accepts.
fn check(block: &Value, ctx: &str, fields: &[(&str, Is)]) -> Result<(), String> {
    let actual = block.as_obj().ok_or(format!("{ctx}: expected an object"))?;
    let keys: Vec<&str> = actual.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = fields.iter().map(|&(k, _)| k).collect();
    if keys != expected {
        return Err(format!(
            "{ctx}: key sequence {keys:?} does not match the schema {expected:?}"
        ));
    }
    for (field, is) in fields {
        if !is(&block[*field]) {
            return Err(format!("{ctx}.{field}: unexpected type"));
        }
    }
    Ok(())
}
