//! The soundness property at the heart of the reproduction, exercised at
//! scale: replaying an entire commit history, the stateful compiler's
//! programs behave exactly like the stateless compiler's on every commit.

mod common;

use common::lineage::{self, Script, Step::Edit};
use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditKind, EditScript, GeneratorConfig};

/// Replays a history of edits on a resident stateful builder: after every
/// build its program behaves like a stateless build's (the lineage
/// harness's `behaviour` check), and over the history it skipped passes.
fn check_history(script: Script) {
    lineage::check(&script, "resident j1 stateful");
}

#[test]
fn equivalence_small_project_long_history() {
    check_history(Script::of(101, &[Edit; 15]));
}

#[test]
fn equivalence_second_seed() {
    check_history(Script::of(202, &[Edit; 12]));
}

#[test]
fn equivalence_call_heavy() {
    check_history(Script {
        calls: Some((2, 5)),
        ..Script::of(303, &[Edit; 10])
    });
}

/// Rewrites maximize dormancy-prediction misses; behaviour must still be
/// identical (mispredictions cost quality, never correctness).
#[test]
fn equivalence_under_rewrite_heavy_edits() {
    check_history(Script {
        only: Some(EditKind::RewriteBody),
        ..Script::of(404, &[Edit; 8])
    });
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
