//! Cross-crate integration tests: workload → build system → stateful
//! compiler, including state persistence across builder sessions.

use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::{Builder, Project};
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};

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

#[test]
fn commit_replay_rebuilds_minimally() {
    let mut model = generate_model(&GeneratorConfig::small(8));
    let mut script = EditScript::new(2);
    let mut builder = Builder::new(Compiler::new(Config::stateful().with_verification()));
    builder.build(&model.render()).unwrap();

    for _ in 0..10 {
        let commit = script.commit(&mut model);
        let report = builder.build(&model.render()).unwrap();
        // A body edit rebuilds exactly the edited module; an interface
        // change (add-fn) additionally rebuilds dependents.
        assert!(
            report.metric("build.rebuilt_count") >= 1,
            "commit {commit:?}"
        );
        assert!(
            report.module(&commit.module).unwrap().rebuilt(),
            "commit {commit:?}"
        );
        if commit.kind != sfcc_workload::EditKind::AddFunction {
            assert_eq!(
                report.metric("build.rebuilt_count"),
                1,
                "body edit must stay local: {commit:?}"
            );
        }
    }
}

#[test]
fn state_survives_builder_sessions_on_disk() {
    let dir = std::env::temp_dir().join(format!("sfcc-it-build-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let state_path = dir.join("state.bin");

    let mut model = generate_model(&GeneratorConfig::small(77));
    let mut script = EditScript::new(4);

    // Session 1: full build, persist.
    {
        let mut builder = Builder::new(Compiler::new(
            Config::stateful()
                .with_state_path(&state_path)
                .with_verification(),
        ));
        builder.build(&model.render()).unwrap();
        builder.compiler().save_state().unwrap();
    }

    // Session 2: fresh process-equivalent, same state dir — skipping works
    // on the first incremental build.
    {
        let mut builder = Builder::new(Compiler::new(
            Config::stateful()
                .with_state_path(&state_path)
                .with_verification(),
        ));
        script.commit(&mut model);
        let report = builder.build(&model.render()).unwrap();
        let skipped = report.metric("outcomes.skipped");
        assert!(skipped > 0, "persisted state must enable skipping");
    }
    std::fs::remove_dir_all(&dir).unwrap();
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

#[test]
fn parallel_and_sequential_stateful_builds_agree() {
    let mut model = generate_model(&GeneratorConfig::small(31));
    let mut script = EditScript::new(6);
    let policy = SkipPolicy::PreviousBuild;

    let mut seq = Builder::new(Compiler::new(Config::stateless().with_policy(policy)));
    let mut par =
        Builder::new(Compiler::new(Config::stateless().with_policy(policy))).with_parallelism();

    for _ in 0..4 {
        let project = model.render();
        let ra = seq.build(&project).unwrap();
        let rb = par.build(&project).unwrap();
        let oa = run(&ra.program, "main.main", &[7], VmOptions::default()).unwrap();
        let ob = run(&rb.program, "main.main", &[7], VmOptions::default()).unwrap();
        assert_eq!(oa.prints, ob.prints);
        assert_eq!(oa.return_value, ob.return_value);
        script.commit(&mut model);
    }
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
