//! Differential testing across many generated programs: every compiler
//! configuration must agree on observable behaviour, and optimization must
//! never make programs dynamically slower.

use sfcc::{Compiler, Config, OptLevel, SkipPolicy};
use sfcc_backend::{run, RunOutput, VmError, VmOptions};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};

fn behaviours(
    report: &sfcc_buildsys::BuildReport,
    args: &[i64],
) -> Vec<Result<RunOutput, VmError>> {
    args.iter()
        .map(|&n| run(&report.program, "main.main", &[n], VmOptions::default()))
        .collect()
}

fn assert_same(a: &[Result<RunOutput, VmError>], b: &[Result<RunOutput, VmError>], ctx: &str) {
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.prints, rb.prints, "{ctx}, input {i}");
                assert_eq!(ra.return_value, rb.return_value, "{ctx}, input {i}");
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}, input {i}"),
            (x, y) => panic!("{ctx}, input {i}: {x:?} vs {y:?}"),
        }
    }
}

/// 12 random projects × 3 configurations × 3 inputs, all agreeing.
#[test]
fn differential_o0_o2_stateful_agree_across_seeds() {
    let args = [0, 4, 17];
    for seed in 0..12 {
        let model = generate_model(&GeneratorConfig::small(1000 + seed));
        let project = model.render();

        let mut o0 = Builder::new(Compiler::new(
            Config::stateless().with_opt_level(OptLevel::O0),
        ));
        let mut o2 = Builder::new(Compiler::new(Config::stateless()));
        let mut st = Builder::new(Compiler::new(
            Config::stateless().with_policy(SkipPolicy::PreviousBuild),
        ));

        let r0 = o0.build(&project).unwrap();
        let r2 = o2.build(&project).unwrap();
        // Warm the stateful compiler with one identical build first so the
        // second one exercises skipping on every function.
        st.build(&project).unwrap();
        st.clear_cache();
        let rs = st.build(&project).unwrap();
        assert!(
            rs.metric("outcomes.skipped") > 0,
            "seed {seed}: warm rebuild should skip"
        );

        let b0 = behaviours(&r0, &args);
        let b2 = behaviours(&r2, &args);
        let bs = behaviours(&rs, &args);
        assert_same(&b0, &b2, &format!("seed {seed}: O0 vs O2"));
        assert_same(&b2, &bs, &format!("seed {seed}: stateless vs stateful"));

        // Optimization must not slow programs down dynamically.
        for (slow, fast) in b0.iter().zip(&b2) {
            if let (Ok(slow), Ok(fast)) = (slow, fast) {
                assert!(
                    fast.executed <= slow.executed,
                    "seed {seed}: O2 ({}) slower than O0 ({})",
                    fast.executed,
                    slow.executed
                );
            }
        }
    }
}

/// Interleaved edits with different edit mixes: equivalence holds under
/// every mix, including interface-changing commits.
#[test]
fn differential_edit_mixes_agree() {
    use sfcc_workload::EditKind;
    for (mix, kind) in [
        ("const", Some(EditKind::TweakConstant)),
        ("stmts", Some(EditKind::AddStatement)),
        ("fns", Some(EditKind::AddFunction)),
        ("default", None),
    ] {
        let config = GeneratorConfig::small(777);
        let mut model_a = generate_model(&config);
        let mut model_b = generate_model(&config);
        let (mut sa, mut sb) = match kind {
            Some(k) => (EditScript::only(3, k), EditScript::only(3, k)),
            None => (EditScript::new(3), EditScript::new(3)),
        };

        let mut baseline = Builder::new(Compiler::new(Config::stateless()));
        let mut stateful = Builder::new(Compiler::new(
            Config::stateless().with_policy(SkipPolicy::PreviousBuild),
        ));
        baseline.build(&model_a.render()).unwrap();
        stateful.build(&model_b.render()).unwrap();

        for n in 1..=6 {
            sa.commit(&mut model_a);
            sb.commit(&mut model_b);
            let ra = baseline.build(&model_a.render()).unwrap();
            let rb = stateful.build(&model_b.render()).unwrap();
            assert_same(
                &behaviours(&ra, &[5]),
                &behaviours(&rb, &[5]),
                &format!("mix {mix}, commit {n}"),
            );
        }
    }
}

/// The stateful compiler's *output object code* for an unchanged function
/// must be byte-identical when nothing was skipped differently — and when
/// skips do fire, still behaviourally equal (checked above). Here: a
/// rebuild with zero source changes produces an identical program.
#[test]
fn identical_input_reproduces_identical_program() {
    let model = generate_model(&GeneratorConfig::small(888));
    let project = model.render();
    let mut a = Builder::new(Compiler::new(Config::stateless()));
    let mut b = Builder::new(Compiler::new(Config::stateless()));
    let ra = a.build(&project).unwrap();
    let rb = b.build(&project).unwrap();
    assert_eq!(ra.program.total_code_size(), rb.program.total_code_size());
    for (fa, fb) in ra.program.funcs.iter().zip(&rb.program.funcs) {
        assert_eq!(fa, fb, "codegen must be deterministic");
    }
}
