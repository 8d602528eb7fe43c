//! Dependency-soundness checking: prove the incremental build never lies.
//!
//! The query engine is only as honest as the dependencies its tasks
//! *declare*. A task that reads an input it never declared (a **missing
//! dep**) can be served stale from the store after that input changes — a
//! silent wrong build. A task that declares an input it never reads (a
//! **redundant dep**) re-executes when it did not have to — silent
//! over-invalidation. Neither is observable from build outputs alone, which
//! is exactly why they survive in build systems for years.
//!
//! This module closes the loop. During a depcheck-instrumented build
//! ([`crate::Builder::with_depcheck`]), every real resource access is
//! logged by the build itself, tagged with the query task whose body made
//! it (the build's [`BuildSpec`] owns the log; labels come from
//! `sfcc_faultfs::task_scope`), and `analyze` diffs the logged accesses
//! against the engine's dependency traces:
//!
//! - **missing-dep**: an executed task accessed a resource absent from its
//!   declared input set;
//! - **redundant-dep**: an executed task declared an input it never
//!   accessed;
//! - **stale-serve**: a task was served from the store this session, but a
//!   recorded input stamp disagrees with the input's *raw* (unmutated)
//!   stamp — the validation that spared it was lied to; or a valid task
//!   whose value had to be rematerialized came out with another
//!   fingerprint than the one validation vouched for. A shared-store serve
//!   is the `cas:m::f` input of the `optimizefn` it answered: the build
//!   records the store's serve record and the raw stamp is the store's
//!   identity ([`sfcc_cas::CasStore::identity_stamp`]), so an under-keyed
//!   serve is flagged from what the build recorded, with nothing
//!   re-derived;
//! - **untracked-io**: a durable faultfs operation ran inside a task scope;
//!   the engine has no dependency channel for ad-hoc I/O, so any such op is
//!   invisible to invalidation.
//!
//! [`DepMutations`] is the adversarial half: it injects exactly these lies
//! (dropped declarations, phantom declarations, phantom accesses, frozen
//! stamps) into an otherwise-correct build so tests and the E15 fuzzer can
//! assert depcheck catches every class *before* the byte-identity oracle
//! can tell the difference.

use crate::tasks::{BuildSpec, BuildTask, BuildValue};
use sfcc_faultfs::OpRecord;
use sfcc_query::{Dep, Engine};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The class of one dependency-soundness finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepFindingKind {
    /// A task accessed a resource it never declared — a soundness bug: an
    /// edit to that resource will not invalidate the task.
    MissingDep,
    /// A task declared an input it never accessed — over-invalidation: the
    /// task re-executes on edits that cannot affect it.
    RedundantDep,
    /// A task was served from the store although a recorded input stamp
    /// disagrees with the input's current raw stamp — the build reused a
    /// stale output.
    StaleServe,
    /// A durable I/O operation ran inside a task scope without any
    /// dependency channel tracking it.
    UntrackedIo,
}

impl DepFindingKind {
    /// Stable machine-readable label (used in JSON and human output).
    pub fn label(self) -> &'static str {
        match self {
            DepFindingKind::MissingDep => "missing-dep",
            DepFindingKind::RedundantDep => "redundant-dep",
            DepFindingKind::StaleServe => "stale-serve",
            DepFindingKind::UntrackedIo => "untracked-io",
        }
    }
}

impl fmt::Display for DepFindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One dependency-soundness violation, with task and resource provenance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DepFinding {
    /// Which class of lie this is.
    pub kind: DepFindingKind,
    /// The task at fault, by display name (e.g. `frontend(lib)`).
    pub task: String,
    /// The resource involved (e.g. `src:lib`, `state:main`, a path for
    /// untracked I/O).
    pub resource: String,
    /// Human-readable elaboration (what was declared vs. observed).
    pub detail: String,
}

/// The outcome of one depcheck analysis: every finding, plus how much
/// evidence was examined (so "clean" is distinguishable from "blind").
#[derive(Debug, Clone, Default)]
pub struct DepcheckReport {
    /// All findings, deterministically ordered (kind, then task, then
    /// resource) and deduplicated.
    pub findings: Vec<DepFinding>,
    /// Tasks whose declared/actual dependency sets were compared (executed
    /// tasks) or stamp-audited (store-served tasks).
    pub tasks_checked: u64,
    /// Task-attributed resource accesses examined.
    pub accesses: u64,
}

impl DepcheckReport {
    /// Whether the analysis found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings of one class.
    pub fn count(&self, kind: DepFindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }

    /// Folds another analysis (e.g. from a second, incremental build) into
    /// this one, keeping the deterministic order and dropping duplicates.
    pub fn merge(&mut self, other: DepcheckReport) {
        self.findings.extend(other.findings);
        self.findings.sort();
        self.findings.dedup();
        self.tasks_checked += other.tasks_checked;
        self.accesses += other.accesses;
    }

    /// Renders the findings for terminal consumption, one line per finding
    /// plus a summary line — mirroring `fsck`-style output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}: task {} resource {}: {}",
                f.kind, f.task, f.resource, f.detail
            );
        }
        let _ = writeln!(
            out,
            "depcheck: {} finding(s) ({} missing, {} redundant, {} stale, {} untracked-io) \
             across {} task(s), {} access(es)",
            self.findings.len(),
            self.count(DepFindingKind::MissingDep),
            self.count(DepFindingKind::RedundantDep),
            self.count(DepFindingKind::StaleServe),
            self.count(DepFindingKind::UntrackedIo),
            self.tasks_checked,
            self.accesses
        );
        out
    }
}

/// Adversarial dependency mutations, injected into [`BuildSpec`] to make an
/// otherwise-correct build lie in a controlled way. Clones share the frozen
/// stamp history (a freeze must keep returning the stamp captured on the
/// first build, across the per-build `BuildSpec` instances).
#[derive(Debug, Clone, Default)]
pub struct DepMutations {
    /// `(task label, input name)` declarations to suppress.
    dropped: Vec<(String, String)>,
    /// `(task label, input name)` declarations to fabricate.
    phantoms: Vec<(String, String)>,
    /// `(task label, resource)` accesses to fabricate.
    phantom_accesses: Vec<(String, String)>,
    /// Inputs whose stamp is frozen at the first value ever observed,
    /// suppressing invalidation on subsequent edits.
    frozen: BTreeSet<String>,
    /// First-observed stamps of frozen inputs, shared across clones.
    frozen_seen: Arc<Mutex<HashMap<String, u64>>>,
    /// Shared-store key components (by `sfcc_cas::KEY_COMPONENTS` name) to
    /// omit from key derivation — the classic "flag missing from the cache
    /// key" lie, seeding cross-configuration stale serves.
    key_drops: Vec<String>,
    /// `(task label, path)` durable reads to perform inside the task's
    /// scope without declaring any dependency (seeds untracked I/O).
    rogue_reads: Vec<(String, String)>,
}

impl DepMutations {
    /// No mutations: the build behaves honestly.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any mutation is configured.
    pub fn is_empty(&self) -> bool {
        self.dropped.is_empty()
            && self.phantoms.is_empty()
            && self.phantom_accesses.is_empty()
            && self.frozen.is_empty()
            && self.key_drops.is_empty()
            && self.rogue_reads.is_empty()
    }

    /// Suppresses `task`'s declaration of `input` (seeds a missing dep).
    pub fn drop_dep(mut self, task: &str, input: &str) -> Self {
        self.dropped.push((task.to_string(), input.to_string()));
        self
    }

    /// Fabricates a declaration of `input` by `task` (seeds a redundant
    /// dep).
    pub fn phantom_dep(mut self, task: &str, input: &str) -> Self {
        self.phantoms.push((task.to_string(), input.to_string()));
        self
    }

    /// Fabricates an access to `resource` by `task` (seeds a missing dep
    /// for tasks that declare no inputs at all).
    pub fn phantom_access(mut self, task: &str, resource: &str) -> Self {
        self.phantom_accesses
            .push((task.to_string(), resource.to_string()));
        self
    }

    /// Freezes `input`'s stamp at the first value observed, so later edits
    /// never invalidate its dependents (seeds a stale serve).
    pub fn freeze_stamp(mut self, input: &str) -> Self {
        self.frozen.insert(input.to_string());
        self
    }

    /// Omits `component` (a `sfcc_cas::KEY_COMPONENTS` name: `fn`,
    /// `pipeline`, `flags`, `backend`) from the shared store's key
    /// derivation, at both publish and lookup — re-creating the classic
    /// under-keyed cache that serves one configuration's artifacts to
    /// another (seeds a stale serve across configurations).
    pub fn drop_flag_from_key(mut self, component: &str) -> Self {
        self.key_drops.push(component.to_string());
        self
    }

    /// Performs a real durable read of `path` inside `task`'s scope with
    /// no dependency channel declared (seeds untracked I/O).
    pub fn rogue_io(mut self, task: &str, path: &str) -> Self {
        self.rogue_reads.push((task.to_string(), path.to_string()));
        self
    }

    /// Whether `task`'s declaration of `input` is suppressed.
    pub(crate) fn drops(&self, task: &str, input: &str) -> bool {
        self.dropped.iter().any(|(t, i)| t == task && i == input)
    }

    /// Inputs to fabricate declarations for under `task`.
    pub(crate) fn phantom_deps_for(&self, task: &str) -> Vec<String> {
        self.phantoms
            .iter()
            .filter(|(t, _)| t == task)
            .map(|(_, i)| i.clone())
            .collect()
    }

    /// Resources to fabricate accesses to under `task`.
    pub(crate) fn phantom_accesses_for(&self, task: &str) -> Vec<String> {
        self.phantom_accesses
            .iter()
            .filter(|(t, _)| t == task)
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Shared-store key components to omit from derivation.
    pub(crate) fn key_drops(&self) -> &[String] {
        &self.key_drops
    }

    /// Paths `task` should rogue-read inside its scope.
    pub(crate) fn rogue_reads_for(&self, task: &str) -> Vec<String> {
        self.rogue_reads
            .iter()
            .filter(|(t, _)| t == task)
            .map(|(_, p)| p.clone())
            .collect()
    }

    /// Primes a frozen input's first-seen stamp with the one a restored
    /// graph recorded, so the freeze spans processes the way the graph does:
    /// an edit made between two processes is masked from the second one.
    /// Nothing happens for inputs that are not frozen or already observed.
    pub(crate) fn prime(&self, input: &str, recorded: u64) {
        if self.frozen.contains(input) {
            let mut seen = self.frozen_seen.lock().unwrap();
            seen.entry(input.to_string()).or_insert(recorded);
        }
    }

    /// The stamp the engine should see for `input`, given its raw stamp:
    /// the first-ever value for frozen inputs, the raw value otherwise.
    pub(crate) fn stamp(&self, input: &str, raw: u64) -> u64 {
        if !self.frozen.contains(input) {
            return raw;
        }
        let mut seen = self.frozen_seen.lock().unwrap();
        *seen.entry(input.to_string()).or_insert(raw)
    }
}

/// Diffs one build's recorded evidence against the engine's dependency
/// traces. `spec` hands over the access log the build kept and supplies raw
/// (mutation-free) input stamps for the staleness audit; `ops` are the
/// task-attributed faultfs operations captured while the build ran.
///
/// Only *executed* tasks get the access diff: a task that validates instead
/// of executing made no access this build, so its declarations have
/// nothing to be diffed against.
/// Store-served tasks get the stamp audit instead — their recorded input
/// stamps must agree with the inputs' raw stamps, or the validation that
/// spared them was based on a lie.
pub(crate) fn analyze(
    engine: &Engine<BuildTask, BuildValue>,
    spec: &mut BuildSpec<'_>,
    ops: &[OpRecord],
) -> DepcheckReport {
    let accesses = spec.take_accesses();
    let mut accessed: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut attributed = 0u64;
    for rec in &accesses {
        if let Some(task) = &rec.task {
            accessed
                .entry(task.as_str())
                .or_default()
                .insert(rec.resource.as_str());
            attributed += 1;
        }
    }

    let mut findings = Vec::new();
    let mut tasks_checked = 0u64;

    // Executed tasks: declared inputs vs. actual accesses, both directions.
    for key in engine.executed_keys() {
        tasks_checked += 1;
        let label = key.to_string();
        let declared: BTreeSet<&str> = engine
            .deps_of(key)
            .into_iter()
            .flatten()
            .filter_map(|dep| match *dep {
                Dep::Input(input, _) => Some(engine.input_name(input)),
                Dep::Task(..) => None,
            })
            .collect();
        let empty = BTreeSet::new();
        let actual = accessed.get(label.as_str()).unwrap_or(&empty);
        for resource in actual.difference(&declared) {
            findings.push(DepFinding {
                kind: DepFindingKind::MissingDep,
                task: label.clone(),
                resource: (*resource).to_string(),
                detail: "accessed but not declared; edits to it will not invalidate this task"
                    .to_string(),
            });
        }
        for input in declared.difference(actual) {
            findings.push(DepFinding {
                kind: DepFindingKind::RedundantDep,
                task: label.clone(),
                resource: (*input).to_string(),
                detail: "declared but never accessed; edits to it re-run this task for nothing"
                    .to_string(),
            });
        }
        // Shared-store serves recorded by executed tasks: the stamp the
        // task recorded is the *served* artifact's provenance key; the raw
        // stamp is the honest derivation from today's source and config.
        // They disagree exactly when the store answered with another
        // identity's artifact (an under-keyed lookup) — a stale serve the
        // moment it happens, before any byte can diverge downstream.
        for &dep in engine.deps_of(key).into_iter().flatten() {
            let Dep::Input(input, stamp) = dep else {
                continue;
            };
            let name = engine.input_name(input);
            if !name.starts_with("cas:") {
                continue;
            }
            let raw = spec.raw_input_stamp(name);
            if raw != stamp {
                findings.push(DepFinding {
                    kind: DepFindingKind::StaleServe,
                    task: label.clone(),
                    resource: name.to_string(),
                    detail: format!(
                        "shared store served an artifact with provenance stamp {stamp:#x}, \
                         but the honest key derivation stamps {raw:#x}"
                    ),
                });
            }
        }
    }

    // Rematerializations that moved their fingerprint: validation vouched
    // for a value the task no longer computes, and whatever depended on it
    // this session was served against the old one.
    for key in engine.moved_keys() {
        findings.push(DepFinding {
            kind: DepFindingKind::StaleServe,
            task: key.to_string(),
            resource: "fingerprint".to_string(),
            detail: "validated as current, but rematerializing its value produced \
                     another fingerprint"
                .to_string(),
        });
    }

    // Store-served tasks: every recorded input stamp must match the input's
    // raw stamp right now, or the serve was stale.
    for id in engine.verified_hits() {
        tasks_checked += 1;
        let label = engine.label(id);
        for &dep in engine.deps(id) {
            let Dep::Input(input, stamp) = dep else {
                continue;
            };
            let name = engine.input_name(input);
            let raw = spec.raw_input_stamp(name);
            if raw != stamp {
                findings.push(DepFinding {
                    kind: DepFindingKind::StaleServe,
                    task: label.to_string(),
                    resource: name.to_string(),
                    detail: format!(
                        "served from the store with recorded stamp {stamp:#x}, \
                         but the input's raw stamp is {raw:#x}"
                    ),
                });
            }
        }
    }

    // Durable I/O inside a task scope: the engine has no channel for it.
    // The shared artifact store is the one sanctioned exception: its ops
    // run under the dedicated `cas` scope and its reads are tracked
    // through the `cas:` input-stamp audit above, so they are visible to
    // invalidation the way ad-hoc task I/O is not.
    for op in ops {
        if let Some(task) = &op.task {
            if task == sfcc_cas::CAS_TASK_LABEL {
                continue;
            }
            findings.push(DepFinding {
                kind: DepFindingKind::UntrackedIo,
                task: task.clone(),
                resource: op.path.display().to_string(),
                detail: format!(
                    "durable {:?} op #{} is invisible to invalidation",
                    op.kind, op.index
                ),
            });
        }
    }

    findings.sort();
    findings.dedup();
    DepcheckReport {
        findings,
        tasks_checked,
        accesses: attributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_builders_register_and_query() {
        let m = DepMutations::new()
            .drop_dep("imports(a)", "src:a")
            .phantom_dep("lower(a)", "phantom:x")
            .phantom_access("link", "ghost:link")
            .freeze_stamp("src:b")
            .drop_flag_from_key("flags")
            .rogue_io("codegen(a)", "/tmp/rogue");
        assert!(m.drops("imports(a)", "src:a"));
        assert!(!m.drops("imports(b)", "src:b"));
        assert_eq!(m.phantom_deps_for("lower(a)"), vec!["phantom:x"]);
        assert_eq!(m.phantom_accesses_for("link"), vec!["ghost:link"]);
        assert_eq!(m.key_drops(), ["flags".to_string()]);
        assert_eq!(m.rogue_reads_for("codegen(a)"), vec!["/tmp/rogue"]);
        assert!(m.rogue_reads_for("codegen(b)").is_empty());
        assert!(!m.is_empty());
        assert!(DepMutations::new().is_empty());
        assert!(!DepMutations::new().drop_flag_from_key("fn").is_empty());
        assert!(!DepMutations::new().rogue_io("t", "/p").is_empty());
    }

    #[test]
    fn frozen_stamp_sticks_to_first_observation_across_clones() {
        let m = DepMutations::new().freeze_stamp("src:a");
        let clone = m.clone();
        assert_eq!(m.stamp("src:a", 7), 7);
        // A later raw value is masked by the first observation — also via
        // the clone, which shares the history.
        assert_eq!(clone.stamp("src:a", 99), 7);
        assert_eq!(m.stamp("src:b", 42), 42);
    }

    #[test]
    fn report_merge_dedups_and_orders() {
        let f = |kind, task: &str, resource: &str| DepFinding {
            kind,
            task: task.to_string(),
            resource: resource.to_string(),
            detail: String::new(),
        };
        let mut a = DepcheckReport {
            findings: vec![f(DepFindingKind::RedundantDep, "link", "phantom:x")],
            tasks_checked: 3,
            accesses: 5,
        };
        let b = DepcheckReport {
            findings: vec![
                f(DepFindingKind::RedundantDep, "link", "phantom:x"),
                f(DepFindingKind::MissingDep, "graph", "manifest"),
            ],
            tasks_checked: 2,
            accesses: 1,
        };
        a.merge(b);
        assert_eq!(a.findings.len(), 2);
        assert_eq!(a.findings[0].kind, DepFindingKind::MissingDep);
        assert_eq!(a.tasks_checked, 5);
        assert_eq!(a.accesses, 6);
        assert_eq!(a.count(DepFindingKind::RedundantDep), 1);
        assert!(!a.is_clean());
        assert!(a.render().contains("2 finding(s)"));
    }
}
