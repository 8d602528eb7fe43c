//! Function-parallel pipeline execution on a shared work-stealing pool.
//!
//! [`run_pipeline_parallel`] is the stage loop of
//! [`run_pipeline`](crate::run_pipeline) with a wider dispatch, so its
//! output is byte-identical for the same inputs:
//!
//! * Within a stage, passes read callee bodies only from the immutable
//!   pre-stage snapshot, so functions of one stage are mutually independent
//!   and can run in any order — including concurrently.
//! * Stage boundaries are barriers: a stage's tasks all finish before the
//!   next stage (and any re-snapshot) begins.
//! * Per-function [`FunctionTrace`](crate::FunctionTrace)s stay in module
//!   definition order regardless of completion order, so the
//!   [`PipelineTrace`] — and everything derived from it (dormancy state,
//!   emitted IR, bytecode images) — does not depend on scheduling.
//!
//! Fan-out is *batched*: one pool task runs per cost-balanced batch of the
//! stage's plan (`crate::batch`), so tiny functions share a task's fixed
//! cost instead of each paying it. Batches are serviced
//! largest-total-cost-first.
//!
//! The oracle must be deterministic (a pure function of each query) for the
//! byte-identity guarantee to extend to recorded outcomes; every oracle in
//! this workspace satisfies that.

use std::sync::Arc;

use sfcc_ir::{Function, Module};
use sfcc_pool::{run_batched, PoolScope};

use crate::manager::{
    in_place, run_sequential, run_stages, Pipeline, PipelineTrace, RunOptions, SkipOracle,
};

/// Runs `pipeline` over every function of `module` with function-level
/// parallelism on `pool`, consulting `oracle` before each pass execution.
///
/// Dispatches in line, exactly as [`run_pipeline`](crate::run_pipeline) does, when the pool has
/// no workers or the module has at most one function.
///
/// # Panics
///
/// Panics if [`RunOptions::verify_each`] is set and a pass produces invalid
/// IR — that is a compiler bug, not an input error. A panic inside a worker
/// task is propagated to the caller.
pub fn run_pipeline_parallel<'env>(
    module: &mut Module,
    pipeline: &'env Pipeline,
    oracle: Arc<dyn SkipOracle + Send + Sync + 'env>,
    options: RunOptions,
    pool: &PoolScope<'env>,
) -> PipelineTrace {
    in_place(module, |name, functions| {
        run_pipeline_shared(name, functions, pipeline, oracle, options, pool)
    })
}

/// [`run_pipeline_parallel`] over shared bodies: the functions of module
/// `module` in, the optimized bodies out in the same order. The run's entry
/// snapshot is `functions` themselves, and a body is copied only when the
/// first pass runs on it, so one that every slot skips comes back as the
/// `Arc` it came in as, uncopied.
///
/// # Panics
///
/// As [`run_pipeline_parallel`].
pub fn run_pipeline_shared<'env>(
    module: &str,
    functions: Vec<Arc<Function>>,
    pipeline: &'env Pipeline,
    oracle: Arc<dyn SkipOracle + Send + Sync + 'env>,
    options: RunOptions,
    pool: &PoolScope<'env>,
) -> (Vec<Arc<Function>>, PipelineTrace) {
    if !pool.is_parallel() || functions.len() <= 1 {
        return run_sequential(module, functions, pipeline, oracle.as_ref(), options);
    }
    run_stages(
        module,
        functions,
        pipeline,
        options,
        |cells, batches, job| {
            let oracle = Arc::clone(&oracle);
            run_batched(Some(pool), cells, batches, move |_, cell| {
                job.run_on(cell, oracle.as_ref())
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_pipeline, run_pipeline, NeverSkip, PassQuery};
    use sfcc_frontend::parse_and_check;
    use sfcc_ir::lower_module;
    use sfcc_ir::Function;

    /// A deterministic oracle that skips a fixed set of slots, to exercise
    /// the Skipped path in parallel.
    struct SkipSlots(Vec<usize>);

    impl SkipOracle for SkipSlots {
        fn should_skip(&self, q: &PassQuery<'_>) -> bool {
            self.0.contains(&q.slot)
        }
    }

    fn sample_module() -> Module {
        let src = r#"
            fn leaf(x: int) -> int { return x * 2 + 1; }
            fn helper(a: int, b: int) -> int {
                let t: int = leaf(a);
                let u: int = leaf(b);
                return t + u * 3;
            }
            fn looped(n: int) -> int {
                let acc: int = 0;
                for (let i: int = 0; i < n; i = i + 1) {
                    acc = acc + helper(i, n);
                }
                return acc;
            }
            fn deadish(p: int) -> int {
                let unused: int = p * 99;
                let keep: int = p + 4;
                return keep;
            }
            fn main() -> int {
                return looped(10) + deadish(7) + helper(1, 2);
            }
        "#;
        let env = sfcc_frontend::ModuleEnv::new();
        let mut d = sfcc_frontend::Diagnostics::new();
        let checked = parse_and_check("par", src, &env, &mut d).expect("sample module must check");
        lower_module(&checked, &env)
    }

    /// Clears the timing fields, which legitimately differ run to run.
    fn strip_nanos(mut trace: PipelineTrace) -> PipelineTrace {
        trace.snapshot_wall_ns = 0;
        for f in &mut trace.functions {
            for r in &mut f.records {
                r.nanos = 0;
            }
        }
        trace
    }

    /// Runs `pipeline` through both entries, asserts equal IR and traces,
    /// and returns the (shared) trace.
    fn assert_matches_sequential(
        pipeline: &Pipeline,
        oracle: impl SkipOracle + Send + Sync + 'static,
        jobs: usize,
    ) -> PipelineTrace {
        let options = RunOptions { verify_each: true };
        let oracle = Arc::new(oracle);

        let mut seq = sample_module();
        let seq_trace = run_pipeline(&mut seq, pipeline, oracle.as_ref(), options);

        let mut par = sample_module();
        let par_trace = sfcc_pool::scope(jobs, |ps| {
            run_pipeline_parallel(&mut par, pipeline, Arc::clone(&oracle) as _, options, ps)
        });

        assert_eq!(seq.to_string(), par.to_string(), "optimized IR diverged");
        let seq_trace = strip_nanos(seq_trace);
        assert_eq!(seq_trace, strip_nanos(par_trace), "traces diverged");
        seq_trace
    }

    #[test]
    fn parallel_matches_sequential_never_skip() {
        assert_matches_sequential(&default_pipeline(), NeverSkip, 4);
    }

    #[test]
    fn parallel_matches_sequential_with_skips() {
        assert_matches_sequential(&default_pipeline(), SkipSlots(vec![0, 3, 7, 11]), 4);
    }

    #[test]
    fn single_worker_pool_matches_sequential() {
        assert_matches_sequential(&default_pipeline(), NeverSkip, 1);
    }

    #[test]
    fn first_stage_resnapshot_reuses_the_entry_snapshot() {
        // The entry snapshot is already fresh when the first stage starts,
        // so a first-stage `resnapshot` takes no second one — at any width.
        let pipeline = Pipeline::new()
            .stage(true, vec![Box::new(crate::mem2reg::Mem2Reg)])
            .stage(true, vec![Box::new(crate::inline::Inline)]);
        let trace = assert_matches_sequential(&pipeline, NeverSkip, 4);
        assert_eq!(trace.snapshot_clones, 2, "entry + the second stage");
    }

    #[test]
    fn empty_pipeline_still_records_fingerprints_and_the_entry_snapshot() {
        let trace = assert_matches_sequential(&Pipeline::new(), NeverSkip, 4);
        assert_eq!(trace.snapshot_clones, 1);
        assert_eq!((trace.snapshot_reused, trace.batch_count), (0, 0));
        assert_eq!(trace.functions.len(), sample_module().functions.len());
        for f in &trace.functions {
            assert!(f.records.is_empty());
            assert_ne!(f.entry_fingerprint, sfcc_ir::Fingerprint::default());
            assert_eq!(f.entry_fingerprint, f.exit_fingerprint);
        }
    }

    /// The entry snapshot shares the input bodies, and a body is copied
    /// only when a pass first runs on it: one every slot skips comes back
    /// as the `Arc` it came in as, at any width.
    #[test]
    fn a_body_no_pass_runs_on_is_never_copied() {
        let pipeline = default_pipeline();
        for jobs in [1, 4] {
            let functions: Vec<Arc<Function>> = sample_module()
                .functions
                .into_iter()
                .map(Arc::new)
                .collect();
            let skipped = &functions[0].name;
            let oracle = Arc::new(SkipFunction(skipped.clone()));
            let (out, _) = sfcc_pool::scope(jobs, |ps| {
                let input = functions.clone();
                run_pipeline_shared("par", input, &pipeline, oracle, RunOptions::default(), ps)
            });
            for (before, after) in functions.iter().zip(&out) {
                let shared = Arc::ptr_eq(before, after);
                assert_eq!(
                    shared,
                    &before.name == skipped,
                    "{} at j{jobs}",
                    before.name
                );
            }
        }
    }

    /// Skips every slot of one function.
    struct SkipFunction(String);

    impl SkipOracle for SkipFunction {
        fn should_skip(&self, q: &PassQuery<'_>) -> bool {
            q.function == self.0
        }
    }
}
