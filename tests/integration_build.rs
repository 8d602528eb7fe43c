//! Cross-crate integration tests: workload → build system → stateful
//! compiler, including state persistence across builder sessions.

mod common;

use common::lineage::{self, Script, Step::Edit};
use sfcc::{Compiler, Config};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::{Builder, Project};
use sfcc_workload::{generate_model, GeneratorConfig};

#[test]
fn generated_project_builds_and_runs() {
    let model = generate_model(&GeneratorConfig::small(5));
    let mut builder = Builder::new(Compiler::new(Config::stateless().with_verification()));
    let report = builder.build(&model.render()).unwrap();
    assert_eq!(
        report.metric("build.rebuilt_count"),
        model.modules.len() as u64
    );
    let out = run(&report.program, "main.main", &[3], VmOptions::default()).unwrap();
    assert!(out.executed > 0);
}

/// A body edit rebuilds exactly the edited module; a new function at least
/// its module (the lineage harness's `minimal` check).
#[test]
fn commit_replay_rebuilds_minimally() {
    lineage::check(&Script::of(8, &[Edit; 10]), "resident j1 stateful");
}

/// New processes over the committed state skip passes (`behaviour`'s
/// skipped slot: the first build, from nothing, skips none).
#[test]
fn state_survives_builder_sessions_on_disk() {
    lineage::check(&Script::of(77, &[Edit; 3]), "fresh j1 stateful");
}

#[test]
fn corrupted_state_degrades_to_cold_start() {
    let dir = std::env::temp_dir().join(format!("sfcc-it-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let state_path = dir.join("state.bin");
    let manifest = sfcc_faultfs::CommitDir::new(&state_path).manifest_path();
    std::fs::write(&manifest, b"not a manifest at all").unwrap();

    let compiler = Compiler::new(Config::stateful().with_state_path(&state_path));
    let events = compiler.take_recovery_events();
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0].path, manifest);
    assert!(events[0].quarantined_to.is_some());
    let mut builder = Builder::new(compiler);
    let model = generate_model(&GeneratorConfig::small(3));
    let report = builder.build(&model.render()).unwrap();
    let skipped = report.metric("outcomes.skipped");
    assert_eq!(skipped, 0, "cold start must not skip");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn project_round_trips_through_directory() {
    let dir = std::env::temp_dir().join(format!("sfcc-it-dir-{}", std::process::id()));
    let model = generate_model(&GeneratorConfig::small(13));
    let project = model.render();
    project.write_to_dir(&dir).unwrap();
    let loaded = Project::from_dir(&dir).unwrap();
    assert_eq!(project, loaded);

    // The loaded-from-disk project builds identically.
    let mut a = Builder::new(Compiler::new(Config::stateless()));
    let mut b = Builder::new(Compiler::new(Config::stateless()));
    let ra = a.build(&project).unwrap();
    let rb = b.build(&loaded).unwrap();
    let oa = run(&ra.program, "main.main", &[5], VmOptions::default()).unwrap();
    let ob = run(&rb.program, "main.main", &[5], VmOptions::default()).unwrap();
    assert_eq!(oa.return_value, ob.return_value);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A parallel stateful builder is its sequential peer, byte for byte.
#[test]
fn parallel_and_sequential_stateful_builds_agree() {
    lineage::check(&Script::of(31, &[Edit; 3]), "resident j8 stateful");
}

#[test]
fn committed_demo_project_builds_and_runs() {
    // The hand-written project in demo/ must stay green.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let project = Project::from_dir(&dir).expect("demo directory exists");
    assert_eq!(project.len(), 3);
    let mut builder = Builder::new(Compiler::new(Config::stateful().with_verification()));
    let report = builder.build(&project).unwrap();
    let out = run(&report.program, "main.main", &[5], VmOptions::default()).unwrap();
    assert_eq!(out.return_value, Some(824));
    assert_eq!(out.prints.len(), 20);

    // And the stateful rebuild skips.
    builder.clear_cache();
    let again = builder.build(&project).unwrap();
    assert!(again.metric("outcomes.skipped") > 0);
}
