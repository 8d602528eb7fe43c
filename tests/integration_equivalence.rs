//! The soundness property at the heart of the reproduction, exercised at
//! scale: replaying an entire commit history, the stateful compiler's
//! programs behave exactly like the stateless compiler's on every commit.

use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};

/// Replays `commits` commits, checking behavioural equivalence of the two
/// compilers' outputs after every single build.
fn check_history(config: GeneratorConfig, edit_seed: u64, commits: usize) {
    let mut model_a = generate_model(&config);
    let mut script_a = EditScript::new(edit_seed);
    let mut baseline = Builder::new(Compiler::new(Config::stateless()));

    let mut model_b = generate_model(&config);
    let mut script_b = EditScript::new(edit_seed);
    let mut stateful = Builder::new(Compiler::new(
        Config::stateless().with_policy(SkipPolicy::PreviousBuild),
    ));

    let mut total_skipped = 0u64;
    for n in 0..=commits {
        if n > 0 {
            script_a.commit(&mut model_a);
            script_b.commit(&mut model_b);
        }
        let ra = baseline.build(&model_a.render()).unwrap();
        let rb = stateful.build(&model_b.render()).unwrap();
        total_skipped += rb.metric("outcomes.skipped");

        for arg in [0, 2, 9] {
            let oa = run(&ra.program, "main.main", &[arg], VmOptions::default());
            let ob = run(&rb.program, "main.main", &[arg], VmOptions::default());
            match (oa, ob) {
                (Ok(oa), Ok(ob)) => {
                    assert_eq!(oa.prints, ob.prints, "commit {n}, arg {arg}");
                    assert_eq!(oa.return_value, ob.return_value, "commit {n}, arg {arg}");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "commit {n}, arg {arg}"),
                (a, b) => panic!("divergence at commit {n}, arg {arg}: {a:?} vs {b:?}"),
            }
        }
    }
    assert!(
        total_skipped > 0,
        "the stateful compiler never skipped anything"
    );
}

#[test]
fn equivalence_small_project_long_history() {
    check_history(GeneratorConfig::small(101), 11, 15);
}

#[test]
fn equivalence_second_seed() {
    check_history(GeneratorConfig::small(202), 13, 12);
}

#[test]
fn equivalence_call_heavy() {
    let mut config = GeneratorConfig::small(303);
    config.callees_per_function = (2, 5);
    check_history(config, 17, 10);
}

#[test]
fn equivalence_under_rewrite_heavy_edits() {
    // Rewrites maximize dormancy-prediction misses; behaviour must still
    // be identical (mispredictions cost quality, never correctness).
    let config = GeneratorConfig::small(404);
    let mut model_a = generate_model(&config);
    let mut model_b = generate_model(&config);
    let mut sa = EditScript::only(5, sfcc_workload::EditKind::RewriteBody);
    let mut sb = EditScript::only(5, sfcc_workload::EditKind::RewriteBody);

    let mut baseline = Builder::new(Compiler::new(Config::stateless()));
    let mut stateful = Builder::new(Compiler::new(
        Config::stateless().with_policy(SkipPolicy::PreviousBuild),
    ));
    baseline.build(&model_a.render()).unwrap();
    stateful.build(&model_b.render()).unwrap();

    for n in 1..=8 {
        sa.commit(&mut model_a);
        sb.commit(&mut model_b);
        let ra = baseline.build(&model_a.render()).unwrap();
        let rb = stateful.build(&model_b.render()).unwrap();
        let oa = run(&ra.program, "main.main", &[6], VmOptions::default()).unwrap();
        let ob = run(&rb.program, "main.main", &[6], VmOptions::default()).unwrap();
        assert_eq!(oa.prints, ob.prints, "commit {n}");
        assert_eq!(oa.return_value, ob.return_value, "commit {n}");
    }
}

#[test]
fn quality_gap_stays_bounded() {
    // Even with skipping, dynamic cost should stay close to the baseline's.
    let config = GeneratorConfig::small(505);
    let mut model_a = generate_model(&config);
    let mut model_b = generate_model(&config);
    let mut sa = EditScript::new(19);
    let mut sb = EditScript::new(19);

    let mut baseline = Builder::new(Compiler::new(Config::stateless()));
    let mut stateful = Builder::new(Compiler::new(
        Config::stateless().with_policy(SkipPolicy::PreviousBuild),
    ));
    baseline.build(&model_a.render()).unwrap();
    stateful.build(&model_b.render()).unwrap();
    for _ in 0..10 {
        sa.commit(&mut model_a);
        sb.commit(&mut model_b);
    }
    let ra = baseline.build(&model_a.render()).unwrap();
    let rb = stateful.build(&model_b.render()).unwrap();
    let oa = run(&ra.program, "main.main", &[9], VmOptions::default()).unwrap();
    let ob = run(&rb.program, "main.main", &[9], VmOptions::default()).unwrap();
    let gap = (ob.executed as f64 - oa.executed as f64) / oa.executed.max(1) as f64;
    assert!(
        gap < 0.10,
        "quality gap too large: {gap:.3} ({} vs {})",
        oa.executed,
        ob.executed
    );
}
