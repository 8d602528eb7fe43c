//! Dependency-soundness matrix for `depcheck`.
//!
//! The invariant under test: **the incremental engine's declared
//! dependencies and the build's actual resource accesses agree, and any
//! disagreement is flagged before the byte-identity oracle can tell the
//! difference**. Clean builds — sequential, parallel, stateful, and the
//! committed demo project — must produce zero findings; every seeded lie
//! (`DepMutations`) must produce exactly the expected finding with task and
//! resource provenance; a frozen input stamp must surface as a stale serve
//! on the very build whose output went wrong.

use sfcc::{Compiler, Config};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::report::ParallelStats;
use sfcc_buildsys::{
    validate_report_json, Builder, DepFindingKind, DepMutations, DepcheckReport, Project,
};
use sfcc_workload::{generate_model, GeneratorConfig};
use std::sync::atomic::{AtomicBool, Ordering};

fn project(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new();
    for (name, src) in files {
        p.set_file((*name).to_string(), (*src).to_string());
    }
    p
}

/// Three modules exercising every task kind: per-module imports, interface,
/// frontend, lower, optimize, codegen, plus the singleton graph and link.
fn project_v1() -> Project {
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

/// `project_v1` with `base` edited — main.main(21) becomes 64 instead of 43.
fn project_v2() -> Project {
    project(&[
        ("base", "fn g(x: int) -> int { return x * 3; }"),
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

/// One cold depcheck-instrumented build of `project_v1` with `mutations`
/// injected, returning its analysis.
fn depcheck_build(mutations: DepMutations) -> DepcheckReport {
    let mut builder = Builder::new(Compiler::new(Config::stateless()))
        .with_depcheck()
        .with_dep_mutations(mutations);
    let report = builder.build(&project_v1()).unwrap();
    report.depcheck.expect("depcheck was enabled")
}

#[test]
fn quick_clean_build_has_zero_findings_cold_and_warm() {
    let mut builder = Builder::new(Compiler::new(Config::stateless())).with_depcheck();
    let p = project_v1();

    // Cold: every task kind executes and its declared inputs must match its
    // accesses exactly.
    let cold = builder.build(&p).unwrap().depcheck.unwrap();
    assert!(
        cold.is_clean(),
        "cold build must be clean:\n{}",
        cold.render()
    );
    assert!(cold.tasks_checked > 0, "the audit must have seen tasks");
    assert!(cold.accesses > 0, "the audit must have seen accesses");

    // Warm no-op: nothing executes; every store-served task passes the
    // stamp audit.
    let warm = builder.build(&p).unwrap().depcheck.unwrap();
    assert!(
        warm.is_clean(),
        "warm build must be clean:\n{}",
        warm.render()
    );
    assert!(warm.tasks_checked > 0, "served tasks must still be audited");
}

#[test]
fn clean_parallel_stateful_build_has_zero_findings() {
    // Task attribution must survive the work-stealing pool and the stateful
    // skip/cache machinery: same zero-findings bar with jobs=4, dormancy
    // skipping, and the function cache all on.
    let config = Config::stateful().with_function_cache();
    let mut builder = Builder::new(Compiler::new(config))
        .with_depcheck()
        .with_jobs(4);
    let p = project_v1();
    for label in ["cold", "warm"] {
        let dc = builder.build(&p).unwrap().depcheck.unwrap();
        assert!(
            dc.is_clean(),
            "{label} parallel stateful build must be clean:\n{}",
            dc.render()
        );
    }
}

#[test]
fn committed_demo_project_depchecks_clean() {
    // The acceptance bar for `minicc depcheck demo`, as a test: cold build
    // plus no-op rebuild of the hand-written demo project, zero findings.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let p = Project::from_dir(&dir).expect("demo directory exists");
    let mut builder = Builder::new(Compiler::new(Config::stateless())).with_depcheck();
    let mut merged = builder.build(&p).unwrap().depcheck.unwrap();
    merged.merge(builder.build(&p).unwrap().depcheck.unwrap());
    assert!(
        merged.is_clean(),
        "demo project must depcheck clean:\n{}",
        merged.render()
    );
}

#[test]
fn quick_seeded_missing_dep_is_caught_for_every_task_kind() {
    // Input-carrying tasks lie by *dropping* a declaration they need. In
    // the function-grained taxonomy the raw inputs are per-module source
    // (imports, parse), the manifest (graph), and the *per-function*
    // dormancy stamp (optimizefn).
    let dropped = [
        ("imports(base)", "src:base"),
        ("parse(base)", "src:base"),
        ("graph", "manifest"),
        ("optimizefn(base::g)", "state:base::g"),
    ];
    for (task, input) in dropped {
        let dc = depcheck_build(DepMutations::new().drop_dep(task, input));
        assert_eq!(
            dc.findings.len(),
            1,
            "dropping {input} from {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::MissingDep, "{task}");
        assert_eq!(f.task, task);
        assert_eq!(f.resource, input);
    }

    // ...input-free tasks (the derivation chain from parse to link declares
    // only Task deps) lie by *accessing* a resource they never declare —
    // including every per-function kind.
    let ghosts = [
        ("interface(base)", "ghost:iface"),
        ("modcheck(base)", "ghost:level"),
        ("fnast(base::g)", "ghost:ast"),
        ("signature(base::g)", "ghost:sig"),
        ("checkfn(base::g)", "ghost:checked"),
        ("lowerfn(base::g)", "ghost:ir"),
        ("codegen(base)", "ghost:obj"),
        ("link", "ghost:image"),
    ];
    for (task, resource) in ghosts {
        let dc = depcheck_build(DepMutations::new().phantom_access(task, resource));
        assert_eq!(
            dc.findings.len(),
            1,
            "phantom access {resource} by {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::MissingDep, "{task}");
        assert_eq!(f.task, task);
        assert_eq!(f.resource, resource);
    }
}

#[test]
fn quick_seeded_redundant_dep_is_caught_for_every_task_kind() {
    let tasks = [
        "imports(base)",
        "parse(base)",
        "interface(base)",
        "graph",
        "modcheck(base)",
        "fnast(base::g)",
        "signature(base::g)",
        "checkfn(base::g)",
        "lowerfn(base::g)",
        "optimizefn(base::g)",
        "codegen(base)",
        "link",
    ];
    for task in tasks {
        let dc = depcheck_build(DepMutations::new().phantom_dep(task, "phantom:seeded"));
        assert_eq!(
            dc.findings.len(),
            1,
            "phantom dep on {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::RedundantDep, "{task}");
        assert_eq!(f.task, task);
        assert_eq!(f.resource, "phantom:seeded");
    }
}

#[test]
fn frozen_stamp_surfaces_as_stale_serve_on_the_wrong_build() {
    // A frozen input stamp is the canonical silent wrong build: the edit to
    // `base` never invalidates its dependents, so the store serves the old
    // program. Depcheck must flag the stale serve on exactly the build whose
    // bytes went wrong.
    let mut lying = Builder::new(Compiler::new(Config::stateless()))
        .with_depcheck()
        .with_dep_mutations(DepMutations::new().freeze_stamp("src:base"));
    let mut honest = Builder::new(Compiler::new(Config::stateless()));

    // Build 1: the frozen stamp equals the raw stamp, so nothing is stale
    // yet and the audit is clean.
    let first = lying.build(&project_v1()).unwrap();
    assert!(first.depcheck.unwrap().is_clean());

    // Build 2 after the edit: invalidation is suppressed.
    let stale = lying.build(&project_v2()).unwrap();
    let dc = stale.depcheck.unwrap();
    assert!(
        dc.count(DepFindingKind::StaleServe) > 0,
        "suppressed invalidation must surface as stale serves:\n{}",
        dc.render()
    );
    assert!(
        dc.findings
            .iter()
            .all(|f| f.kind == DepFindingKind::StaleServe && f.resource == "src:base"),
        "every finding must point at the frozen input:\n{}",
        dc.render()
    );

    // The flagged build really is wrong: it still computes v1's answer
    // while an honest build of v2 computes the new one.
    let lied = run(&stale.program, "main.main", &[21], VmOptions::default()).unwrap();
    assert_eq!(
        lied.return_value,
        Some(43),
        "the stale serve kept v1's output"
    );
    let truth = honest.build(&project_v2()).unwrap();
    let out = run(&truth.program, "main.main", &[21], VmOptions::default()).unwrap();
    assert_eq!(out.return_value, Some(64));
}

/// The persisted query graph is a shortcut, and the audit covers it both
/// ways: every task a restored graph spares is stamp-audited — a frozen
/// stamp primed from the graph is a lie that spans processes, flagged on
/// the process that serves it — and the audit remains an *execution* audit,
/// because a session can be made to forget the graph.
#[test]
fn quick_restored_graph_is_audited_and_the_audit_still_executes() {
    let dir = std::env::temp_dir().join(format!(
        "sfcc-depcheck-graph-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = Config::stateful()
        .with_state_path(dir.join(".sfcc-state"))
        .with_function_cache();

    // Process 1 builds v1 and commits state, cache and graph.
    let mut first = Builder::new(Compiler::new(config.clone()));
    let tasks = first.build(&project_v1()).unwrap().query.misses;
    first.compiler().save_state().unwrap();

    // Process 2, honest: the graph spares every task, and each spared task
    // is stamp-audited although none ran and none was read.
    let mut cold = Builder::new(Compiler::new(config.clone())).with_depcheck();
    let served = cold.build(&project_v1()).unwrap();
    assert_eq!((served.query.hits, served.query.misses), (1, 0));
    let dc = served.depcheck.unwrap();
    assert!(dc.is_clean(), "{}", dc.render());
    assert_eq!((dc.tasks_checked, dc.accesses), (tasks, 0));
    // Forgetting the graph turns the next build into the execution audit.
    assert!(cold.forget_restored_graph());
    let executed = cold.build(&project_v1()).unwrap();
    assert_eq!(executed.query.misses, tasks);
    let dc = executed.depcheck.unwrap();
    assert!(dc.is_clean(), "{}", dc.render());
    assert!(dc.accesses > 0, "every task's reads were diffed");
    assert!(!cold.forget_restored_graph(), "the store is its own now");

    // Process 3, lying: `src:base` is frozen at the stamp the graph
    // recorded, so the edit of `base` invalidates nothing, the graph spares
    // every task, and v1's program is served for v2's tree.
    let mut lying = Builder::new(Compiler::new(config))
        .with_depcheck()
        .with_dep_mutations(DepMutations::new().freeze_stamp("src:base"));
    let stale = lying.build(&project_v2()).unwrap();
    assert_eq!(stale.query.misses, 0, "the lie must reach the fast path");
    let dc = stale.depcheck.unwrap();
    let mut flagged: Vec<&str> = dc.findings.iter().map(|f| f.task.as_str()).collect();
    flagged.sort_unstable();
    assert_eq!(flagged, ["imports(base)", "parse(base)"], "{}", dc.render());
    assert!(dc
        .findings
        .iter()
        .all(|f| f.kind == DepFindingKind::StaleServe && f.resource == "src:base"));
    let lied = run(&stale.program, "main.main", &[21], VmOptions::default()).unwrap();
    assert_eq!(lied.return_value, Some(43), "v1's output for v2's tree");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quick_depcheck_counters_always_present_in_report_json() {
    // Satellite regression: the depcheck block must exist — zeroed, not
    // absent — on reports from builds that never enabled the audit, so
    // `validate_report_json` holds on every exit path.
    let mut plain = Builder::new(Compiler::new(Config::stateless()));
    let report = plain.build(&project_v1()).unwrap();
    let json = report.to_json();
    validate_report_json(&json).expect("plain report must match the schema");
    assert!(
        json.contains("\"depcheck\":{\"enabled\":false,\"missing\":0,\"redundant\":0,"),
        "{json}"
    );

    // And with the audit on plus seeded findings, the same schema holds and
    // the findings serialize with full provenance.
    let mut audited = Builder::new(Compiler::new(Config::stateless()))
        .with_depcheck()
        .with_dep_mutations(DepMutations::new().drop_dep("graph", "manifest"));
    let report = audited.build(&project_v1()).unwrap();
    let json = report.to_json();
    validate_report_json(&json).expect("audited report must match the schema");
    assert!(
        json.contains("\"depcheck\":{\"enabled\":true,\"missing\":1,"),
        "{json}"
    );
    assert!(
        json.contains("{\"kind\":\"missing-dep\",\"task\":\"graph\",\"resource\":\"manifest\","),
        "{json}"
    );
}

#[test]
fn recovery_build_report_json_still_validates() {
    // The other error path of satellite 3: a build that recovers from
    // quarantined state must still emit schema-valid JSON with both the
    // recovery counters and the (zeroed) depcheck block present.
    let dir = std::env::temp_dir().join(format!(
        "sfcc-depcheck-recovery-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join(".sfcc-state");
    let manifest = sfcc_faultfs::CommitDir::new(&state).manifest_path();
    std::fs::write(manifest, b"garbage, not a manifest").unwrap();

    let config = Config::stateful().with_state_path(&state);
    let mut builder = Builder::new(Compiler::new(config));
    let report = builder.build(&project_v1()).unwrap();
    assert!(
        report.recovered_files > 0,
        "the garbage state must quarantine"
    );
    let json = report.to_json();
    validate_report_json(&json).expect("recovery report must match the schema");
    assert!(
        json.contains("\"recovery\":{\"recovered_files\":"),
        "{json}"
    );
    assert!(json.contains("\"depcheck\":{\"enabled\":false,"), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quick_cas_enabled_audit_stays_clean_cold_and_warm() {
    // Satellite: the shared artifact store routes every read and write
    // through its own task scope, and serves are audited via the
    // `cas:module::function` stamp channel — so attaching a store must
    // never cost a finding: not untracked I/O on the cold (publishing)
    // build, not a stale serve on the warm (fully served) one.
    let dir = std::env::temp_dir().join(format!(
        "sfcc-depcheck-cas-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let config = || Config::stateless().with_cas_path(&dir);
    let mut cold = Builder::new(Compiler::new(config())).with_depcheck();
    let dc = cold.build(&project_v1()).unwrap().depcheck.unwrap();
    assert!(
        dc.is_clean(),
        "publishing through the store must stay clean:\n{}",
        dc.render()
    );

    // A fresh builder over the warm store: every function is served from
    // the shared store and the serve stamps must all audit honest.
    let mut warm = Builder::new(Compiler::new(config())).with_depcheck();
    let dc = warm.build(&project_v1()).unwrap().depcheck.unwrap();
    assert!(
        dc.is_clean(),
        "store-served build must stay clean:\n{}",
        dc.render()
    );
    let stats = warm.compiler().cas_stats().unwrap();
    assert!(
        stats.hits > 0,
        "the warm build must actually be served: {stats:?}"
    );

    // The report's cas block reflects the serves and still validates.
    let report = Builder::new(Compiler::new(config()))
        .build(&project_v1())
        .unwrap();
    let json = report.to_json();
    validate_report_json(&json).unwrap();
    assert!(
        json.contains("\"cas\":{\"enabled\":true,\"hits\":"),
        "{json}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quick_rogue_io_outside_any_dependency_channel_is_flagged() {
    // Untracked-I/O regression seed: a task that touches the durable I/O
    // layer on a path no dependency channel tracks must be flagged, with
    // the task and path in the finding. This pins the audit that exempts
    // the store's own scope — the exemption must not widen past `cas`.
    let tasks = ["link", "codegen(base)", "optimizefn(base::g)"];
    for task in tasks {
        let dc =
            depcheck_build(DepMutations::new().rogue_io(task, "/nonexistent/sfcc-rogue-probe"));
        assert_eq!(
            dc.findings.len(),
            1,
            "rogue I/O by {task} must yield exactly one finding:\n{}",
            dc.render()
        );
        let f = &dc.findings[0];
        assert_eq!(f.kind, DepFindingKind::UntrackedIo, "{task}");
        assert_eq!(f.task, task);
        assert!(
            f.resource.contains("sfcc-rogue-probe"),
            "the finding must name the path: {f:?}"
        );
    }
}

/// What `minicc depcheck` reports for `p`: an audited cold build plus an
/// audited no-op rebuild on one fresh builder, merged.
fn audit(p: &Project) -> DepcheckReport {
    let mut builder = Builder::new(Compiler::new(Config::stateless())).with_depcheck();
    let mut merged = builder.build(p).unwrap().depcheck.unwrap();
    merged.merge(builder.build(p).unwrap().depcheck.unwrap());
    merged
}

/// The observable result of one cold traced build of `p`: the exported
/// trace bytes, the report's `parallel` block and its snapshot gauges.
fn traced(p: &Project) -> (String, ParallelStats, Vec<Option<u64>>) {
    let report = Builder::new(Compiler::new(Config::stateless()))
        .with_tracing()
        .build(p)
        .unwrap();
    let gauges = ["snapshot.clones", "snapshot.cost_units", "snapshot.reused"]
        .map(|name| report.metrics.scalar(name))
        .to_vec();
    let trace = report.trace.as_ref().expect("the build was traced");
    (trace.to_chrome_json(false), report.parallel_stats(), gauges)
}

#[test]
fn quick_concurrent_sessions_do_not_share_observers() {
    // Two sessions in one process — what `minicc serve` runs by default.
    // Session A audits and traces a project; a neighbour thread meanwhile
    // builds the *same* project (same task labels) through a shared store
    // in a loop, so every one of its `optimizefn` tasks notes a `cas:`
    // serve that A never declared. A's verdict, trace and counters must be
    // exactly what it gets alone.
    let p = generate_model(&GeneratorConfig::medium(0x19)).render();
    let store = std::env::temp_dir().join(format!("sfcc-depcheck-two-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).unwrap();

    let solo_audit = audit(&p);
    let solo_traced = traced(&p);

    let stop = AtomicBool::new(false);
    let (warm_tx, warm_rx) = std::sync::mpsc::channel();
    let (beside_audit, beside_traced, neighbour_builds) = std::thread::scope(|s| {
        let neighbour = s.spawn(|| {
            let mut builds = 0u32;
            while !stop.load(Ordering::SeqCst) {
                Builder::new(Compiler::new(Config::stateless().with_cas_path(&store)))
                    .build(&p)
                    .unwrap();
                builds += 1;
                if builds == 1 {
                    warm_tx.send(()).unwrap();
                }
            }
            builds
        });
        // From its second build on the neighbour is served from the store.
        warm_rx.recv().unwrap();
        let beside_audit = audit(&p);
        let beside_traced = traced(&p);
        // Stop the neighbour before asserting: a failed assertion inside
        // the scope would otherwise wait on it forever.
        stop.store(true, Ordering::SeqCst);
        (beside_audit, beside_traced, neighbour.join().unwrap())
    });
    std::fs::remove_dir_all(&store).unwrap();

    assert!(neighbour_builds >= 2, "the neighbour built throughout");
    assert!(
        beside_audit.is_clean(),
        "a neighbour's accesses leaked into the audit:\n{}",
        beside_audit.render()
    );
    assert_eq!(
        (beside_audit.accesses, beside_audit.tasks_checked),
        (solo_audit.accesses, solo_audit.tasks_checked),
        "the audit examined exactly its own build"
    );
    assert!(solo_audit.is_clean(), "{}", solo_audit.render());
    assert!(
        beside_traced.0 == solo_traced.0,
        "a neighbour's spans leaked into the trace"
    );
    assert_eq!(
        (beside_traced.1, &beside_traced.2),
        (solo_traced.1, &solo_traced.2)
    );
}
