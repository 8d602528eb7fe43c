//! The warm build daemon, and cold sessions over the persisted query graph.
//!
//! Edit histories are rows of the lineage harness (`tests/common/lineage.rs`):
//! a script run on a subject and held, after every step, to one oracle table
//! (`twin`, `fresh`, `peer`, `noop`, `chains`, `behaviour`, `minimal`,
//! `audit`, `recoveries`). The rows here hold a warm daemon to its resident
//! peer byte for byte, across `--jobs` values and stores; a cold process to
//! the daemon's state directory, which it accepts as it is; a restarted
//! daemon to a cold process over the same snapshot; one process per step to
//! a resident builder; every commit's folded chains to the whole files; and
//! flag flips among edits to a directory with no history.
//!
//! The rest pins single requests: a cold `ir` executes nothing, a cold edit
//! rematerializes only what it reaches, a no-op commits nothing, the demo's
//! committed bytes, a recovery reported once, a flag flip re-executing only
//! what reads flags, and a warm `run`. Concurrency, admission control (typed
//! busy/timeout, queue bounds), session confinement, flag-keyed session
//! recycling, protocol rejection, and warm depcheck audits (clean serves,
//! seeded frozen-stamp lie caught) ride along. Tests prefixed `quick_` form
//! the `ci.sh --quick` subset.

mod common;

use common::lineage::{self, committed, drop_graph, Outcome, Script, Step::*};
use common::{cleanup, copy_tree, project, write_tree};
use proptest::prelude::*;
use sfcc::{persist, Config};
use sfcc_buildsys::serve::BuildService;
use sfcc_buildsys::{BuildReport, BuildTask, DepGraph, DepMutations, Project};
use sfcc_daemon::{
    roundtrip, Daemon, DaemonHandle, DaemonOptions, ErrorKind, Reply, Request, Service,
};
use sfcc_faultfs::CommitDir;
use sfcc_trace::json;
use sfcc_workload::{generate_model, EditKind, EditScript, GeneratorConfig};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

// ─── scratch + project plumbing ───

fn tmproot(tag: &str) -> PathBuf {
    common::tmpdir("sfcc-serve", tag)
}

fn fixture_v1() -> Project {
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

fn fixture_v2() -> Project {
    project(&[
        ("base", "fn g(x: int) -> int { return x * 2; }"),
        (
            "lib",
            "import base;\nfn f(x: int) -> int { return base::g(x) + 3; }",
        ),
        (
            "main",
            "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
        ),
    ])
}

// ─── daemon plumbing ───

fn start_daemon(root: &Path, configure: impl FnOnce(&mut DaemonOptions)) -> DaemonHandle {
    start_daemon_with(root, configure, BuildService::factory())
}

fn start_daemon_with(
    root: &Path,
    configure: impl FnOnce(&mut DaemonOptions),
    factory: sfcc_daemon::ServiceFactory,
) -> DaemonHandle {
    let mut options = DaemonOptions::new(root);
    options.socket = root.join("daemon.sock");
    configure(&mut options);
    Daemon::bind(options, factory).expect("bind daemon").spawn()
}

const WARM_FLAGS: &[&str] = &["--stateful", "--fn-cache"];

fn args_of(base: &[&str], extra: &[String]) -> Vec<String> {
    base.iter()
        .map(|s| s.to_string())
        .chain(extra.iter().cloned())
        .collect()
}

fn request(cmd: &str, dir: &Path, args: &[String]) -> Request {
    Request {
        cmd: cmd.to_string(),
        dir: Some(dir.display().to_string()),
        module: None,
        out: None,
        args: args.to_vec(),
        prog_args: Vec::new(),
    }
}

fn must_ok(socket: &Path, req: &Request) -> Reply {
    let reply = roundtrip(socket, req).expect("daemon transport");
    assert!(
        reply.ok,
        "request `{}` failed: {}",
        req.cmd,
        json::write(&reply.body)
    );
    reply
}

fn must_err(socket: &Path, req: &Request) -> (ErrorKind, String) {
    let reply = roundtrip(socket, req).expect("daemon transport");
    assert!(
        !reply.ok,
        "request `{}` unexpectedly ok: {}",
        req.cmd,
        json::write(&reply.body)
    );
    reply.error.expect("failed replies carry a typed error")
}

/// The `--stateful --fn-cache --jobs 1` command line.
fn warm_args() -> Vec<String> {
    args_of(WARM_FLAGS, &["--jobs".to_string(), "1".to_string()])
}

/// The service a `minicc build` request for `dir` under [`warm_args`] runs.
fn session(dir: &Path) -> BuildService {
    lineage::service(dir, &warm_args())
}

// ─── lineage rows: each a script on a subject, held to the oracle table of
//     tests/common/lineage.rs after every step ───

/// A warm daemon is its resident peer, byte for byte, after every edit.
#[test]
fn quick_warm_daemon_matches_warm_oracle_byte_for_byte() {
    lineage::check(&Script::of(7, &[Edit; 3]), "daemon j1 stateful");
}

#[test]
fn warm_daemon_matches_oracle_across_jobs_and_seeds() {
    for seed in [11, 12] {
        for jobs in [1, 8] {
            let subject = &format!("daemon j{jobs} stateful");
            lineage::check(&Script::of(seed, &[Edit; 5]), subject);
        }
    }
}

#[test]
fn warm_daemon_matches_oracle_with_cas_warm_stores() {
    lineage::check(&Script::of(21, &[Edit; 4]), "daemon j2 stateful store");
}

/// A cold process accepts a daemon's state directory as it is: it recovers
/// nothing, executes nothing, and links the daemon's image.
#[test]
fn quick_cold_build_accepts_warm_daemon_state_dir() {
    let script = Script::of(3, &[Edit, Edit, Edit, Restart, Noop]);
    lineage::check(&script, "daemon j1 stateful");
}

/// A restarted daemon's first build is a cold process's over the same
/// snapshot, state and cache bytes included.
#[test]
fn quick_restarted_daemon_first_build_matches_cold_lineage() {
    let script = Script::of(17, &[Edit, Restart, Edit]);
    lineage::check(&script, "daemon j1 stateful");
}

/// A restarted daemon's first build of an unchanged tree answers `link`
/// from the committed inputs alone; the edits after it open the graph on
/// first use, and the session stays its peer, its twin and its chains.
#[test]
fn quick_restarted_daemon_noop_then_edits_open_the_graph_lazily() {
    let script = Script::of(23, &[Restart, Noop, Edit, Edit]);
    lineage::check(&script, "daemon j2 stateful");
}

/// An image file deleted, then truncated, between no-ops is rewritten
/// whole each time, on every route.
#[test]
fn quick_a_noop_rewrites_a_deleted_or_truncated_image() {
    let steps = [Noop, DropImage, Noop, TruncateImage, Noop];
    let subjects = [
        "fresh j1 stateful",
        "resident j1 stateful",
        "daemon j1 stateful",
    ];
    for subject in subjects {
        lineage::check(&Script::of(29, &steps), subject);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One process per step, each starting from the graph the last one
    /// committed, is the resident builder after every step.
    #[test]
    fn fresh_builder_lineage_is_resident(seed in any::<u64>()) {
        let jobs = if seed & 1 == 0 { 1 } else { 8 };
        let subject = &format!("fresh j{jobs} stateful");
        lineage::check(&Script::drawn(seed, 7), subject);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Scripts long enough for the chains to compact, on a process per
    /// step and on its resident peer: both builders' chains are checked.
    #[test]
    fn folded_chains_are_the_whole_files(seed in any::<u64>()) {
        let script = Script::drawn(seed, 15);
        assert!(script.builds() >= 16, "{script}");
        lineage::check(&script, "fresh j1 stateful");
    }
}

#[test]
fn quick_fresh_builder_lineage_holds_for_both_job_counts() {
    let script = Script::of(
        0xd628,
        &[Edit, Signature, Edit, Noop, Signature, Edit, Edit],
    );
    for jobs in [1, 8] {
        lineage::check(&script, &format!("fresh j{jobs} stateful"));
    }
}

/// Flips among edits, reverts and no-ops: a `-O` flip builds what a
/// directory with no history builds, and executes only what flags shape.
#[test]
fn quick_flag_flips_among_edits_build_fresh_images() {
    let steps = [
        Revert,
        Edit,
        FnCache,
        Opt(1),
        Noop,
        Revert,
        Edit,
        FnCache,
        Opt(2),
        Noop,
        Revert,
        Edit,
        Opt(0),
    ];
    lineage::check(&Script::of(5, &steps), "fresh j1 stateful");
    let steps = [
        Edit,
        Revert,
        Noop,
        Opt(0),
        Edit,
        Revert,
        Noop,
        Opt(2),
        Edit,
        Revert,
        Noop,
    ];
    lineage::check(&Script::of(42, &steps), "fresh j1 stateful");
}

/// Every kind of step, on each route, with a store and without.
#[test]
fn quick_every_step_on_every_route() {
    let steps = [
        Edit,
        Module,
        Signature,
        Audit,
        Restart,
        Revert,
        Noop,
        Opt(1),
        FnCache,
        Audit,
    ];
    let subjects = [
        "resident j1 stateless store",
        "fresh j8 stateful",
        "daemon j1 stateful store",
    ];
    for subject in subjects {
        lineage::check(&Script::of(0x5eed, &steps), subject);
    }
}

/// Turning `--fn-cache` back on after an `-O` flip: the first build that
/// opens the cache discards the chain the other pipeline committed, and
/// its commit replaces it, though it inserts nothing (the removed module's
/// build optimizes no function).
#[test]
fn quick_cache_back_on_after_a_flip_replaces_the_stale_chain() {
    let steps = [
        Restart,
        Module,
        Edit,
        Edit,
        Noop,
        FnCache,
        Edit,
        Edit,
        Opt(1),
        Revert,
        Edit,
        Audit,
        Restart,
        Module,
        Edit,
        Noop,
        Signature,
        Edit,
        Edit,
        FnCache,
        FnCache,
        Module,
        FnCache,
        Module,
    ];
    lineage::check(&Script::of(0xdf0ea4c6894e2ac1, &steps), "fresh j1 stateful");
}

#[test]
fn warm_run_serve_matches_cold_vm_results() {
    let root = tmproot("run-diff");
    let warm_dir = root.join("warm");
    let cold_dir = root.join("cold");
    write_tree(&warm_dir, &fixture_v1());
    write_tree(&cold_dir, &fixture_v1());

    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    for (version, expected) in [(fixture_v1(), 43), (fixture_v2(), 45)] {
        write_tree(&warm_dir, &version);
        write_tree(&cold_dir, &version);
        let mut run_req = request("run", &warm_dir, &args);
        run_req.prog_args = vec![21];
        let reply = must_ok(&socket, &run_req);
        let warm_result = match reply.body.get("return") {
            Some(json::Value::Num(n)) => *n as i64,
            other => panic!("run reply carries no return value: {other:?}"),
        };
        let report = session(&cold_dir).build().unwrap().report;
        let cold_out = sfcc_backend::run(
            &report.program,
            "main.main",
            &[21],
            sfcc_backend::VmOptions::default(),
        )
        .unwrap();
        assert_eq!(warm_result, expected);
        assert_eq!(cold_out.return_value, Some(expected));
    }
    handle.shutdown();
    cleanup(&root);
}

// ─── cold sessions over the persisted query graph ───

#[test]
fn quick_cold_ir_over_a_committed_tree_executes_nothing() {
    let root = tmproot("cold-ir");
    let (dir, fresh) = (root.join("committed"), root.join("fresh"));
    write_tree(&dir, &fixture_v1());
    write_tree(&fresh, &fixture_v1());
    session(&dir).build().unwrap();

    // A new process asked for `lib`'s IR: the build is a no-op, and the IR
    // is demanded from the store — loaded, rematerialized, never executed.
    let p = Project::from_dir(&dir).unwrap();
    let mut builder = lineage::session(&dir, &warm_args());
    assert_eq!(builder.build(&p).unwrap().metric("query.misses"), 0);
    let ir = builder.module_ir(&p, "lib").unwrap().unwrap();
    let stats = builder.session_stats();
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert_eq!(stats.loaded, 2, "link, optimizefn(lib::f): {stats:?}");
    assert!(stats.rematerialized > 0, "modcheck(lib) and what it reads");
    assert!(builder.module_ir(&p, "nope").unwrap().is_none());

    // The same text a directory with no history prints.
    let q = Project::from_dir(&fresh).unwrap();
    let mut first = lineage::session(&fresh, &warm_args());
    first.build(&q).unwrap();
    let want = first.module_ir(&q, "lib").unwrap().unwrap();
    assert_eq!(
        sfcc_ir::module_to_string(&ir),
        sfcc_ir::module_to_string(&want)
    );
    cleanup(&root);
}

/// A new process after one tweaked constant rematerializes only what the
/// edit reaches: no import graph, no import list, no module check. What it
/// may rematerialize is read by the edited module's re-executed tasks: the
/// parse, interface and signatures of the modules it imports (its module
/// check and re-checked functions read them), and its own functions'
/// signatures, checks and lowered IR (a stale function's call closure).
/// It executes what a resident session executes for the same edit.
#[test]
fn quick_cold_edit_rematerializes_only_the_edited_modules_imports() {
    for seed in [3, 11, 29] {
        let root = tmproot(&format!("cold-edit-{seed}"));
        let (fresh, resident_dir) = (root.join("fresh"), root.join("resident"));
        let mut model = generate_model(&GeneratorConfig::medium(seed));
        let before = model.render();
        write_tree(&fresh, &before);
        write_tree(&resident_dir, &before);
        let mut resident = session(&resident_dir);
        resident.build().unwrap();
        session(&fresh).build().unwrap();

        EditScript::only(seed, EditKind::TweakConstant).commit(&mut model);
        let after = model.render();
        write_tree(&fresh, &after);
        write_tree(&resident_dir, &after);
        let want = resident.build().unwrap().report;
        let got = session(&fresh).build().unwrap().report;
        let image = |report: &BuildReport| sfcc_backend::image::to_bytes(report.program());
        assert_eq!(image(&got), image(&want), "seed {seed}");
        let sorted = |tasks: &[String]| BTreeSet::from_iter(tasks.iter().cloned());
        assert_eq!(
            sorted(&got.query.executed),
            sorted(&want.query.executed),
            "seed {seed}"
        );

        let edited: Vec<&str> = after
            .names()
            .filter(|m| after.file(m) != before.file(m))
            .collect();
        let [edited] = edited[..] else {
            panic!("seed {seed}: one module edited, got {edited:?}");
        };
        let graph = DepGraph::build(&after).unwrap();
        let imported = |m: &str| graph.imports_of(edited).iter().any(|i| i == m);
        let rematerialized = &got.query.rematerialized;
        for label in rematerialized {
            let task = BuildTask::parse(label).unwrap();
            let module = task.module().unwrap_or_default();
            let allowed = match task {
                BuildTask::Parse(_) | BuildTask::Interface(_) => imported(module),
                BuildTask::Signature(..) => imported(module) || module == edited,
                BuildTask::CheckFn(..) | BuildTask::LowerFn(..) => module == edited,
                _ => false,
            };
            assert!(
                allowed,
                "seed {seed}: `{edited}` edited, {label} rematerialized: {rematerialized:?}"
            );
        }
        cleanup(&root);
    }
}

/// A served build's report covers its commit: an edit's durable writes are
/// in its `faultfs.*` gauges. A no-op's commit writes nothing and keeps the
/// generation, in the resident session and in a new one alike.
#[test]
fn quick_reports_cover_the_commit_and_a_noop_commits_nothing() {
    let root = tmproot("commit-ops");
    let dir = root.join("p");
    write_tree(&dir, &fixture_v1());
    let args = args_of(WARM_FLAGS, &[]);
    let gauge = |report: &BuildReport, name: &str| report.metrics.scalar(name).unwrap();
    let mut resident = BuildService::new(&dir, &args).unwrap();
    let first = resident.build().unwrap().report;
    // State, cache and graph files and the manifest's temp file; one
    // rename publishes them.
    assert_eq!(
        (
            gauge(&first, "faultfs.writes"),
            gauge(&first, "faultfs.renames")
        ),
        (4, 1)
    );
    let mut fresh = BuildService::new(&dir, &args).unwrap();
    for service in [&mut resident, &mut fresh] {
        let again = service.build().unwrap().report;
        assert_eq!(again.state_generation, first.state_generation);
        assert_eq!(gauge(&again, "faultfs.writes"), 0);
    }
    cleanup(&root);
}

/// FNV-64 of the demo's committed `depgraph`, `state` and `ircache` bytes
/// after a full build, a one-constant edit and a no-op, each a new session
/// writing its image, and of every artifact a full build publishes to a
/// fresh `--cas` store: the persisted formats — and every decision that
/// writes them — pinned.
#[test]
fn quick_demo_commits_are_pinned() {
    let root = tmproot("demo-pins");
    let dir = root.join("p");
    copy_demo(&dir);
    let args = args_of(WARM_FLAGS, &[]);
    let mut sums = Vec::new();
    for step in ["full", "edit", "no-op"] {
        if step == "edit" {
            let path = dir.join("mathx.mc");
            let text = fs::read_to_string(&path).unwrap();
            fs::write(&path, text.replace("1000000007", "998244353")).unwrap();
        }
        let mut service = BuildService::new(&dir, &args).unwrap();
        service.build_image(&dir.join("a.sbx")).unwrap();
        for logical in ["depgraph", "state", "ircache"] {
            let bytes = persist::committed_bytes(&dir.join(".sfcc-state"), logical)
                .unwrap()
                .expect("committed");
            sums.push(format!(
                "{step} {logical} {:016x}",
                sfcc_codec::fnv64(&bytes)
            ));
        }
    }
    let dir = root.join("s");
    copy_demo(&dir);
    let store = root.join("store");
    let args = args_of(
        WARM_FLAGS,
        &["--cas".to_string(), store.display().to_string()],
    );
    let mut service = BuildService::new(&dir, &args).unwrap();
    service.build_image(&dir.join("a.sbx")).unwrap();
    let cd = CommitDir::new(&store.join(sfcc_cas::CAS_BASE));
    let manifest = cd.read_manifest().unwrap().expect("published");
    for entry in manifest.entries.iter().filter(|e| e.logical != "lru") {
        let bytes = cd.load_entry(entry).unwrap();
        sums.push(format!(
            "store {} {:016x}",
            entry.logical,
            sfcc_codec::fnv64(&bytes)
        ));
    }
    assert_eq!(
        sums,
        [
            "full depgraph 56e6b352b03833be",
            "full state e2662420fc5bc917",
            "full ircache e01ddfa5e095685f",
            "edit depgraph e34c8fc5da3ad9ce",
            "edit state b89fded06bcbcda2",
            "edit ircache 2108f6f120e06257",
            "no-op depgraph e34c8fc5da3ad9ce",
            "no-op state b89fded06bcbcda2",
            "no-op ircache 2108f6f120e06257",
            "store a71ac9a0e78afafff087af4886080248b 3ba9cdfe5c981bfd",
            "store a7d80eae9adc31804f17951101f307dc0 911a2fa2987149c1",
            "store aaf91abd9540dfe5c578dd947703fa9a8 0bee425309b30ef9",
            "store ab396985603e7329839f21677f69fd205 f6637188944bbe26",
            "store add269e0c4d274f4510a4ff5e342a72a8 f94075f3f63fa98f",
            "store af6a2b2de2066194a88d42895633ca1da 86ccd0f68d93547b",
        ]
    );
    cleanup(&root);
}

/// Copies the demo project's sources into `dir`.
fn copy_demo(dir: &Path) {
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    fs::create_dir_all(dir).unwrap();
    for name in ["main.mc", "mathx.mc", "stats.mc"] {
        fs::copy(demo.join(name), dir.join(name)).unwrap();
    }
}

/// A recovery is reported by the build that met it, once. The edit that
/// opens a corrupt committed function cache quarantines it; the resident
/// session's next build met nothing and reports nothing — as a cold
/// process of each step does.
#[test]
fn quick_a_recovery_is_reported_by_the_build_that_met_it() {
    let root = tmproot("recovery-once");
    let args = args_of(WARM_FLAGS, &[]);
    // `(recovered files, quarantined paths)` of the edit and the no-op
    // after it, each step served by one session or by a process of its own.
    let steps = |tag: &str, resident: bool| {
        let dir = root.join(tag);
        copy_demo(&dir);
        BuildService::new(&dir, &args).unwrap().build().unwrap();
        let ircache = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .find(|path| path.to_string_lossy().contains("/.sfcc-state.ircache."))
            .expect("a committed function cache");
        fs::write(ircache, b"junk").unwrap();
        let mathx = dir.join("mathx.mc");
        let source = fs::read_to_string(&mathx).unwrap();
        fs::write(&mathx, source.replace("1000000007", "998244353")).unwrap();
        let mut session = BuildService::new(&dir, &args).unwrap();
        let mut seen = Vec::new();
        for step in 0..2 {
            if step > 0 && !resident {
                session = BuildService::new(&dir, &args).unwrap();
            }
            let report = session.build().unwrap().report;
            let recovered = report.metric("recovery.recovered_files");
            seen.push((recovered, report.quarantined.len()));
        }
        seen
    };
    let resident = steps("resident", true);
    assert_eq!(resident, [(1, 1), (0, 0)]);
    assert_eq!(steps("cold", false), resident);
    cleanup(&root);
}

/// One cold process over `dir` under `config`, its state committed;
/// returns the report and the image bytes.
fn session_under(dir: &Path, config: Config) -> (BuildReport, Vec<u8>) {
    let mut builder = lineage::builder(config);
    let report = builder.build(&Project::from_dir(dir).unwrap()).unwrap();
    builder.compiler().save_state().unwrap();
    let image = sfcc_backend::image::to_bytes(&report.program);
    (report, image)
}

/// The task kinds `report` executed, each once.
fn executed_kinds(report: &BuildReport) -> BTreeSet<&str> {
    report
        .query
        .executed
        .iter()
        .map(|task| &task[..task.find('(').unwrap_or(task.len())])
        .collect()
}

/// The task kinds a flag shapes: the rest of the graph reads no flag.
const FLAG_SHAPED: [&str; 3] = ["codegen", "link", "optimizefn"];

/// Flags are tracked inputs of the tasks they shape: every `optimizefn`
/// records its `state:` stamp, which hashes the mode and the pipeline. A
/// session under other flags takes the graph the last one committed,
/// validates the whole front end and re-executes only optimizations, the
/// code generated from them and the link, into the image a directory with
/// no history builds under the same flags.
#[test]
fn quick_a_flag_flip_re_executes_only_what_reads_flags() {
    let root = tmproot("flag-flip");
    let state_of = |dir: &Path| dir.join(".sfcc-state");
    let stateful = |dir: &Path| {
        Config::stateful()
            .with_state_path(state_of(dir))
            .with_function_cache()
    };
    // What a directory with no history builds under `config`.
    let fresh_image = |tag: &str, config: &dyn Fn(&Path) -> Config| {
        let dir = root.join(tag);
        write_tree(&dir, &fixture_v1());
        session_under(&dir, config(&dir)).1
    };
    let flags_only = BTreeSet::from(FLAG_SHAPED);
    let re_optimized = |report: &BuildReport| {
        let kinds = executed_kinds(report);
        kinds.contains("optimizefn") && kinds.is_subset(&flags_only)
    };

    // -O2, -O0, then -O2 again in one directory beside a shared store: each
    // flip executes exactly the flag-shaped kinds, and the flip back is
    // served from the store.
    let store = root.join("flip-store");
    let dir = root.join("opt");
    write_tree(&dir, &fixture_v1());
    let o0 = |dir: &Path| stateful(dir).with_opt_level(sfcc::OptLevel::O0);
    session_under(&dir, stateful(&dir).with_cas_path(&store));
    let (flip, image) = session_under(&dir, o0(&dir).with_cas_path(&store));
    assert_eq!(flip.metric("recovery.recovered_files"), 0);
    assert_eq!(executed_kinds(&flip), flags_only, "{:?}", flip.query);
    assert_eq!(image, fresh_image("opt-fresh-o0", &o0));
    let (back, image) = session_under(&dir, stateful(&dir).with_cas_path(&store));
    assert_eq!(back.metric("recovery.recovered_files"), 0);
    assert_eq!(executed_kinds(&back), flags_only, "{:?}", back.query);
    assert_eq!(image, fresh_image("opt-fresh-o2", &stateful));
    assert!(
        back.metrics.scalar("cas.hits") > Some(0),
        "the flip back must be served from the store"
    );
    // …and the flip back left its own graph behind.
    let (again, again_image) = session_under(&dir, stateful(&dir).with_cas_path(&store));
    assert_eq!(
        (
            again.metric("query.misses"),
            again.metric("recovery.recovered_files")
        ),
        (0, 0)
    );
    assert_eq!(again_image, image);

    // A stateful session's graph, then a session that keeps only the
    // function cache in the same directory: the mode is a flag too.
    let dir = root.join("mode");
    write_tree(&dir, &fixture_v1());
    let cache_only = |dir: &Path| {
        Config::stateless()
            .with_state_path(state_of(dir))
            .with_function_cache()
    };
    session_under(&dir, stateful(&dir));
    let (flip, image) = session_under(&dir, cache_only(&dir));
    assert_eq!(flip.metric("recovery.recovered_files"), 0);
    assert!(re_optimized(&flip), "{:?}", flip.query);
    assert_eq!(image, fresh_image("mode-fresh", &cache_only));

    // A skip policy is part of the mode, and both policies' state stamps
    // hash the same dormancy records: only the mode in the stamp tells the
    // graph they differ. Skipping every known slot builds what the state
    // alone builds, the graph dropped.
    let skip_known = |dir: &Path| stateful(dir).with_policy(sfcc::SkipPolicy::AlwaysSkipKnown);
    let [dir, twin] = ["policy", "policy-twin"].map(|name| root.join(name));
    for dir in [&dir, &twin] {
        write_tree(dir, &fixture_v1());
        session_under(dir, stateful(dir));
    }
    drop_graph(&twin);
    let (flip, image) = session_under(&dir, skip_known(&dir));
    assert_eq!(flip.metric("recovery.recovered_files"), 0);
    assert!(re_optimized(&flip), "{:?}", flip.query);
    assert_eq!(image, session_under(&twin, skip_known(&twin)).1);

    // A graph whose tasks were served by a shared store records `cas:`
    // stamps. Read by a session without the store, those stamps cannot be
    // honoured: every served task re-executes, exactly as without a graph,
    // while what the stamps still vouch for (the whole frontend) validates.
    let store = root.join("store");
    let publisher = root.join("publisher");
    write_tree(&publisher, &fixture_v1());
    session_under(&publisher, stateful(&publisher).with_cas_path(&store));
    let dir = root.join("cas");
    write_tree(&dir, &fixture_v1());
    let (served, _) = session_under(&dir, stateful(&dir).with_cas_path(&store));
    assert!(
        served.metrics.scalar("cas.hits") > Some(0),
        "the store must serve"
    );
    let twin = root.join("cas-twin");
    copy_tree(&dir, &twin);
    drop_graph(&twin);
    let (unplugged, image) = session_under(&dir, stateful(&dir));
    let (graphless, twin_image) = session_under(&twin, stateful(&twin));
    assert_eq!(unplugged.metric("recovery.recovered_files"), 0);
    let executed = |report: &BuildReport, kind: &str| -> Vec<String> {
        let mut tasks: Vec<String> = report
            .query
            .executed
            .iter()
            .filter(|t| t.starts_with(kind))
            .cloned()
            .collect();
        tasks.sort();
        tasks
    };
    let served = executed(&graphless, "optimizefn(");
    assert!(!served.is_empty());
    assert_eq!(executed(&unplugged, "optimizefn("), served);
    assert!(
        executed(&unplugged, "parse(").is_empty(),
        "{:?}",
        unplugged.query
    );
    assert_eq!(image, twin_image);
    assert_eq!(committed(&dir)[..2], committed(&twin)[..2], "state, cache");
    cleanup(&root);
}

// ─── concurrency + admission control ───

#[test]
fn concurrent_clients_on_distinct_projects_never_bleed() {
    let root = tmproot("conc");
    let handle = start_daemon(&root, |options| {
        options.max_active = 2;
        options.max_queued = 32;
    });
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);

    let threads: Vec<_> = (0..3)
        .map(|i| {
            let root = root.clone();
            let socket = socket.clone();
            let args = args.clone();
            std::thread::spawn(move || {
                let warm_dir = root.join(format!("warm{i}"));
                let oracle_dir = root.join(format!("oracle{i}"));
                let mut model = generate_model(&GeneratorConfig::small(31 + i));
                let mut script = EditScript::new(100 + i);
                let mut oracle = session(&oracle_dir);
                for commit in 0..3 {
                    script.commit(&mut model);
                    let p = model.render();
                    write_tree(&warm_dir, &p);
                    write_tree(&oracle_dir, &p);
                    let mut req = request("build", &warm_dir, &args);
                    req.args.push("--jobs".to_string());
                    req.args.push("1".to_string());
                    must_ok(&socket, &req);
                    let warm = Outcome::left(&warm_dir);
                    oracle
                        .build_image(&oracle_dir.with_extension("sbx"))
                        .unwrap();
                    let want = Outcome::left(&oracle_dir);
                    let bleed = format!("client {i} commit {commit}: warm serve diverged");
                    assert!(warm.image == want.image, "{bleed}: image");
                    assert!(warm.committed == want.committed, "{bleed}: committed");
                    assert_eq!(warm.decisions(true), want.decisions(true), "{bleed}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
    cleanup(&root);
}

/// A service that sleeps, for driving the admission gate deterministically.
struct Sleepy(Duration);

impl Service for Sleepy {
    fn handle(&mut self, _request: &Request) -> Result<json::Value, String> {
        std::thread::sleep(self.0);
        Ok(json::Value::obj([("slept", true.into())]))
    }
    fn snapshot(&mut self) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn quick_overload_returns_typed_busy_and_timeout_never_hangs() {
    let root = tmproot("overload");
    for i in 0..3 {
        fs::create_dir_all(root.join(format!("p{i}"))).unwrap();
    }
    let handle = start_daemon_with(
        &root,
        |options| {
            options.max_active = 1;
            options.max_queued = 1;
            options.request_timeout = Duration::from_millis(300);
        },
        Box::new(|_, _| Ok(Box::new(Sleepy(Duration::from_millis(900))))),
    );
    let socket = handle.socket();

    // Occupy the single worker slot...
    let holder = {
        let socket = socket.clone();
        let root = root.clone();
        std::thread::spawn(move || must_ok(&socket, &request("build", &root.join("p0"), &[])))
    };
    std::thread::sleep(Duration::from_millis(150));
    // ...then fill the one queue slot with a request that must time out...
    let queued = {
        let socket = socket.clone();
        let root = root.clone();
        std::thread::spawn(move || must_err(&socket, &request("build", &root.join("p1"), &[])))
    };
    std::thread::sleep(Duration::from_millis(100));
    // ...and overflow: the third concurrent request is rejected instantly.
    let started = std::time::Instant::now();
    let (kind, message) = must_err(&socket, &request("build", &root.join("p2"), &[]));
    assert_eq!(
        kind,
        ErrorKind::Busy,
        "overflow must be a typed busy: {message}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "busy rejection must be immediate, not a hang"
    );
    let (kind, message) = queued.join().unwrap();
    assert_eq!(
        kind,
        ErrorKind::Timeout,
        "queued request must surface a typed timeout: {message}"
    );
    holder.join().unwrap();

    let stats = must_ok(&socket, &Request::bare("stats"));
    let daemon = stats.body.get("daemon").unwrap();
    assert!(daemon.get("busy").unwrap().as_u64().unwrap() >= 1);
    assert!(daemon.get("timeouts").unwrap().as_u64().unwrap() >= 1);
    handle.shutdown();
    cleanup(&root);
}

#[test]
fn quick_projects_outside_the_root_are_rejected_typed() {
    let root = tmproot("confine");
    let outside = tmproot("confine-outside");
    write_tree(&outside.join("p"), &fixture_v1());
    let handle = start_daemon(&root, |_| {});
    let (kind, _) = must_err(
        &handle.socket(),
        &request("build", &outside.join("p"), &args_of(WARM_FLAGS, &[])),
    );
    assert_eq!(kind, ErrorKind::OutsideRoot);
    handle.shutdown();
    cleanup(&root);
    cleanup(&outside);
}

#[test]
fn sessions_recycle_cleanly_when_flags_change() {
    let root = tmproot("recycle");
    let dir = root.join("p");
    write_tree(&dir, &fixture_v1());
    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    must_ok(&socket, &request("build", &dir, &args_of(WARM_FLAGS, &[])));
    // Different flag signature → the session snapshots and a new one starts
    // from what it committed; the serve must still succeed and leave
    // consistent artifacts.
    let o1 = args_of(&["--stateful", "--fn-cache", "-O1"], &[]);
    must_ok(&socket, &request("build", &dir, &o1));
    let stats = must_ok(&socket, &Request::bare("stats"));
    let created = stats
        .body
        .get("daemon")
        .unwrap()
        .get("sessions_created")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        created >= 2,
        "flag change must recycle the session, got {created}"
    );
    Outcome::left(&dir);
    handle.shutdown();
    cleanup(&root);
}

// ─── protocol rejection (in-process; the CLI contract rides in
//     crates/buildsys/tests/cli.rs) ───

#[test]
fn quick_malformed_requests_get_typed_errors_not_hangs() {
    use std::io::Write as _;
    let root = tmproot("malformed");
    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();

    // Valid frame, invalid JSON — the second one nested far deeper than a
    // connection thread's stack could recurse.
    let deep = "[".repeat(20_000);
    for frame in ["not json", deep.as_str()] {
        let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        sfcc_daemon::protocol::write_frame(&mut stream, frame.as_bytes()).unwrap();
        let payload = sfcc_daemon::protocol::read_frame(&mut stream)
            .unwrap()
            .unwrap();
        let reply = Reply::parse(&String::from_utf8(payload).unwrap()).unwrap();
        assert_eq!(reply.error.unwrap().0, ErrorKind::Malformed);
        must_ok(&socket, &Request::bare("ping"));
    }

    // Valid JSON, unknown command.
    let (kind, _) = must_err(&socket, &Request::bare("frobnicate"));
    assert_eq!(kind, ErrorKind::Malformed);

    // Hostile length prefix: rejected before allocation, connection closed.
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let answer = sfcc_daemon::protocol::read_frame(&mut stream).unwrap();
    if let Some(payload) = answer {
        let reply = Reply::parse(&String::from_utf8(payload).unwrap()).unwrap();
        assert_eq!(reply.error.unwrap().0, ErrorKind::Malformed);
    }

    // The daemon survives all of the above.
    must_ok(&socket, &Request::bare("ping"));
    handle.shutdown();
    cleanup(&root);
}

// ─── warm depcheck audits ───

#[test]
fn quick_warm_depcheck_is_clean_and_a_frozen_stamp_lie_is_caught() {
    // Honest daemon: warm serves audit clean.
    let root = tmproot("depcheck-clean");
    let dir = root.join("p");
    write_tree(&dir, &fixture_v1());
    let handle = start_daemon(&root, |_| {});
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    must_ok(&socket, &request("build", &dir, &args));
    write_tree(&dir, &fixture_v2());
    must_ok(&socket, &request("build", &dir, &args));
    let reply = must_ok(&socket, &request("depcheck", &dir, &args));
    assert_eq!(
        reply.body.get("clean").and_then(|v| v.as_bool()),
        Some(true),
        "warm serves must audit clean: {}",
        json::write(&reply.body)
    );
    handle.shutdown();
    cleanup(&root);

    // Lying daemon: a frozen source stamp makes the engine serve stale
    // results after an edit; the warm depcheck audit must catch it.
    let root = tmproot("depcheck-lie");
    let dir = root.join("p");
    write_tree(&dir, &fixture_v1());
    let handle = start_daemon_with(
        &root,
        |_| {},
        Box::new(|dir, args| {
            Ok(Box::new(BuildService::new_with(
                dir,
                args,
                DepMutations::new().freeze_stamp("src:lib"),
            )?))
        }),
    );
    let socket = handle.socket();
    let args = args_of(WARM_FLAGS, &[]);
    must_ok(&socket, &request("build", &dir, &args));
    write_tree(&dir, &fixture_v2());
    let reply = must_ok(&socket, &request("depcheck", &dir, &args));
    assert_eq!(
        reply.body.get("clean").and_then(|v| v.as_bool()),
        Some(false),
        "the frozen-stamp lie escaped the warm audit: {}",
        json::write(&reply.body)
    );
    handle.shutdown();
    cleanup(&root);
}
