//! Determinism of parallel builds: whatever the edit history, `--jobs 1`
//! and `--jobs 8` must produce byte-identical bytecode images **and**
//! byte-identical persisted dormancy state (and function-cache) files.
//! This is the contract that makes the worker count a pure wall-time knob:
//! per-function pipelines read callees from an immutable module snapshot,
//! traces merge in module definition order, and function-cache inserts are
//! applied as each optimize run is booked, in plan order — points of the
//! demand order, the same for every worker count.

mod common;

use common::lineage::{self, committed, Script, Step::Edit};
use common::{cleanup, tmpdir};
use proptest::prelude::*;
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::Project;

/// Builds each version of a one-module project on a `--stateful
/// --fn-cache` builder at `--jobs 1` and at `--jobs 8`: after every build
/// their images and their committed state, cache and graph agree byte for
/// byte.
fn jobs_agree(tag: &str, versions: impl Iterator<Item = String>) {
    let root = tmpdir("sfcc-it-par", tag);
    let dirs = [1, 8].map(|jobs| root.join(format!("j{jobs}")));
    let mut builders = [1, 8].map(|jobs: usize| {
        let dir = root.join(format!("j{jobs}"));
        std::fs::create_dir_all(&dir).unwrap();
        let args = ["--stateful", "--fn-cache", "--jobs", &jobs.to_string()].map(String::from);
        lineage::session(&dir, &args)
    });
    let mut p = Project::new();
    for (edit, source) in versions.enumerate() {
        p.set_file("main".to_string(), source);
        let images = builders
            .each_mut()
            .map(|b| to_bytes(b.build(&p).unwrap().program()));
        assert!(images[0] == images[1], "image diverged at edit {edit}");
        for builder in &builders {
            builder.compiler().save_state().unwrap();
        }
        let [seq, par] = dirs.each_ref().map(|dir| committed(dir));
        assert!(seq == par, "committed bytes diverged at edit {edit}");
    }
    cleanup(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A builder racing 8 workers over modules and functions replays a
    /// random edit history beside its `--jobs 1` peer: after every edit,
    /// images and committed state, cache and graph agree byte for byte (the
    /// lineage harness's `peer` check).
    #[test]
    fn jobs_1_and_jobs_8_builds_are_byte_identical(seed in any::<u64>()) {
        lineage::check(&Script::of(seed, &[Edit; 5]), "resident j8 stateful");
    }
}

/// Copy-on-write snapshots under cross-batch inliner reads: a seeded module
/// whose ~40 callers all inline a handful of tiny helpers, so the inline
/// stage's re-snapshot must present every batch with identical callee
/// bodies. A deterministic edit script dirties different functions each
/// commit; `--jobs 8` (batched fan-out, CoW re-wraps) must stay
/// byte-identical to `--jobs 1` in images, state, and fn-cache.
#[test]
fn quick_cow_snapshot_byte_identity_under_cross_batch_inlining() {
    let mut source = String::new();
    // Tiny helpers: well under the inline threshold, so every caller
    // inlines them from the stage snapshot.
    for h in 0..4 {
        source.push_str(&format!(
            "fn h{h}(x: int) -> int {{ return x * {} + {h}; }}\n",
            h + 2
        ));
    }
    for i in 0..40 {
        source.push_str(&format!(
            "fn g{i}(x: int) -> int {{\n  let a: int = h{}(x);\n  let b: int = h{}(a);\n  let acc: int = a + b;\n  for (let j: int = 0; j < {}; j = j + 1) {{\n    acc = acc + h{}(j);\n  }}\n  return acc;\n}}\n",
            i % 4,
            (i + 1) % 4,
            i % 5 + 1,
            (i + 2) % 4
        ));
    }
    source.push_str("fn main(n: int) -> int { return g0(n) + g39(n); }\n");

    // Edit a helper body: every inlining caller goes stale, and the
    // re-snapshot must re-wrap exactly the functions that changed.
    let edits = (0..3).map(|edit| source.replace("x * 2 + 0", &format!("x * 2 + {}", 10 + edit)));
    jobs_agree("cow", edits);
}

/// A stage that changes no function must re-wrap no function: the
/// re-snapshot reuses every previous `Arc` (zero cloned cost units), in
/// both runners, with identical trace counters.
#[test]
fn quick_zero_change_stage_performs_zero_rewraps() {
    use sfcc_passes::{run_pipeline, run_pipeline_parallel, NeverSkip, Pipeline, RunOptions};

    /// A pass that never touches the IR.
    struct Nop;
    impl sfcc_passes::Pass for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn run(&self, _func: &mut sfcc_ir::Function, _snapshot: &sfcc_ir::ModuleSnapshot) -> bool {
            false
        }
    }

    let build_module = || {
        let mut m = sfcc_ir::Module::new("zero");
        for i in 0..24 {
            let mut f = sfcc_ir::Function::new(
                format!("f{i}"),
                vec![sfcc_ir::Ty::I64],
                Some(sfcc_ir::Ty::I64),
            );
            let mut b = sfcc_ir::FuncBuilder::at_entry(&mut f);
            let v = b.bin(
                sfcc_ir::BinKind::Add,
                sfcc_ir::ValueRef::Param(0),
                sfcc_ir::ValueRef::int(i),
            );
            b.ret(Some(v));
            m.add_function(f);
        }
        m
    };
    let make_pipeline = || {
        Pipeline::new()
            .stage(false, vec![Box::new(Nop)])
            .stage(true, vec![Box::new(Nop)])
    };
    let options = RunOptions { verify_each: true };

    let mut seq_module = build_module();
    let nfuncs = seq_module.functions.len() as u64;
    let seq_pipeline = make_pipeline();
    let seq = run_pipeline(&mut seq_module, &seq_pipeline, &NeverSkip, options);

    let mut par_module = build_module();
    let par_pipeline = make_pipeline();
    let par = sfcc_pool::scope(8, |ps| {
        run_pipeline_parallel(
            &mut par_module,
            &par_pipeline,
            std::sync::Arc::new(NeverSkip),
            options,
            ps,
        )
    });

    for (label, trace) in [("sequential", &seq), ("parallel", &par)] {
        // Pipeline entry + the resnapshot stage. The entry snapshot shares
        // the input bodies, and the Nop stage changed nothing, so the
        // re-snapshot clones zero functions and reuses all.
        assert_eq!(trace.snapshot_clones, 2, "{label}: snapshot count");
        assert_eq!(
            trace.snapshot_cost_units, 0,
            "{label}: no snapshot may deep-clone"
        );
        assert_eq!(
            trace.snapshot_reused, nfuncs,
            "{label}: the re-snapshot must reuse every function Arc"
        );
        assert!(trace.batch_count > 0, "{label}: batches were planned");
    }
    let strip = |mut t: sfcc_passes::PipelineTrace| {
        t.snapshot_wall_ns = 0;
        for f in &mut t.functions {
            for r in &mut f.records {
                r.nanos = 0;
            }
        }
        t
    };
    assert_eq!(strip(seq), strip(par), "runner traces diverged");
}

/// One big module: the single-stale-module path, where all parallelism is
/// function-level. `--jobs 8` must still match `--jobs 1` exactly.
#[test]
fn single_module_function_parallelism_is_deterministic() {
    let mut source = String::new();
    for i in 0..48 {
        source.push_str(&format!(
            "fn f{i}(x: int) -> int {{\n  let acc: int = x;\n  for (let j: int = 0; j < {}; j = j + 1) {{\n    acc = acc * 3 + {i};\n  }}\n  return acc;\n}}\n",
            i % 7 + 1
        ));
    }
    source.push_str("fn main(n: int) -> int { return f0(n) + f47(n); }\n");

    // A body-only edit of one function re-optimizes just this module.
    let edits = (0..3).map(|edit| source.replace("acc * 3", &format!("acc * {}", 3 + edit)));
    jobs_agree("single", edits);
}
