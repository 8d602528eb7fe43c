//! E16: function-granularity dependencies — the interface-hash cliff,
//! measured.
//!
//! One function's body is edited inside a wide module (64 functions at
//! `--quick`, 256 at full scale) that a consumer module imports one caller
//! per function from. Two comparisons run on the *same* engine:
//!
//! 1. **fn-grain**: the edit as-is — per-function staleness confines the
//!    re-execution to the edited function's pipeline;
//! 2. **module-grain (emulated)**: the same warm store, but every function
//!    body in the module is touched — exactly the blast radius a
//!    module-grained taxonomy (one `frontend(m)`/`optimize(m)` task pair
//!    per file) imposes on *any* edit to the file.
//!
//! Both are real builds through the same task graph, so the re-executed
//! task counts and wall times are measured, not modeled. A third scenario
//! adds a brand-new function to the wide module — the classic
//! interface-hash cliff — and counts how many of the consumer's function
//! pipelines re-execute (the cliff's toll used to be *all* of them).

use crate::table::Table;
use sfcc::{Compiler, Config};
use sfcc_buildsys::{BuildReport, Builder, Project};
use sfcc_trace::json::Value;
use std::fmt::Write as _;

/// A `wide` module with `n` functions, a consumer with one caller per wide
/// function, and a `main` entry — the cliff-shaped project.
fn wide_project(n: usize) -> Project {
    let mut wide = String::new();
    let mut consumer = String::from("import wide;\n");
    for i in 0..n {
        let _ = writeln!(wide, "fn f{i}(x: int) -> int {{ return x + {i}; }}");
        let _ = writeln!(
            consumer,
            "fn g{i}(x: int) -> int {{ return wide::f{i}(x) * 2; }}"
        );
    }
    let mut p = Project::new();
    p.set_file("wide".into(), wide);
    p.set_file("consumer".into(), consumer);
    p.set_file(
        "main".into(),
        "import consumer;\nfn main(n: int) -> int { return consumer::g0(n); }".into(),
    );
    p
}

/// Executed per-function *pipeline* tasks (checkfn/lowerfn/optimizefn) of
/// one build — the work the granularity decision governs.
fn fn_pipeline_tasks(report: &BuildReport) -> usize {
    report.metric("fngrain.fn_tasks_executed") as usize
}

/// Executed per-function pipeline tasks belonging to `module`.
fn fn_pipeline_tasks_of(report: &BuildReport, module: &str) -> usize {
    let prefix = format!("({module}::");
    report
        .query
        .executed
        .iter()
        .filter(|t| {
            (t.starts_with("checkfn(") || t.starts_with("lowerfn(") || t.starts_with("optimizefn("))
                && t.contains(&prefix)
        })
        .count()
}

/// E16: the granularity comparison. Returns the rendered table and the JSON
/// artifact written to `BENCH_fngrain.json`.
pub fn fngrain(scale: crate::Scale) -> (String, Value) {
    let n = match scale {
        crate::Scale::Quick => 64usize,
        crate::Scale::Full => 256,
    };
    let edit_fn = n / 2;

    // Scenario 1: fn-grain — a one-function body edit on a warm store.
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    builder.build(&wide_project(n)).unwrap();
    let mut p = wide_project(n);
    let edited = p.file("wide").unwrap().replace(
        &format!("fn f{edit_fn}(x: int) -> int {{ return x + {edit_fn}; }}"),
        &format!("fn f{edit_fn}(x: int) -> int {{ return x + {edit_fn} + 1000; }}"),
    );
    p.set_file("wide".into(), edited);
    let fine = builder.build(&p).unwrap();
    let fine_tasks = fn_pipeline_tasks(&fine);
    let fine_wall = fine.metric("build.wall_ns");

    // Scenario 2: module-grain, emulated on the same engine — every
    // function body in the module is touched, which is what a per-module
    // `frontend(m)`/`optimize(m)` task pair turns *any* one-line edit into.
    let mut q = wide_project(n);
    let mut all_touched = String::new();
    for i in 0..n {
        let _ = writeln!(
            all_touched,
            "fn f{i}(x: int) -> int {{ return x + {i} + 1; }}"
        );
    }
    q.set_file("wide".into(), all_touched);
    let coarse = builder.build(&q).unwrap();
    let coarse_tasks = fn_pipeline_tasks(&coarse);
    let coarse_wall = coarse.metric("build.wall_ns");

    // Scenario 3: the cliff itself — add a function to the wide module and
    // count the consumer pipelines that re-execute. A module-grained
    // interface hash re-ran all `n`; per-function signature pins run none.
    let mut builder2 = Builder::new(Compiler::new(Config::stateless()));
    builder2.build(&wide_project(n)).unwrap();
    let mut r = wide_project(n);
    let grown = format!(
        "{}fn brand_new() -> int {{ return 1; }}\n",
        r.file("wide").unwrap()
    );
    r.set_file("wide".into(), grown);
    let cliff = builder2.build(&r).unwrap();
    let cliff_consumer_tasks = fn_pipeline_tasks_of(&cliff, "consumer");
    let consumer_rebuilt = cliff
        .module("consumer")
        .map(|m| m.rebuilt())
        .unwrap_or(true);

    let task_ratio = coarse_tasks as f64 / fine_tasks.max(1) as f64;
    let wall_speedup = coarse_wall as f64 / fine_wall.max(1) as f64;

    let mut table = Table::new(&[
        "scenario",
        "fn pipeline tasks",
        "wall (ms)",
        "signature hits",
    ]);
    table.row(&[
        format!("fn-grain: edit 1 of {n} bodies"),
        fine_tasks.to_string(),
        format!("{:.3}", fine_wall as f64 / 1e6),
        fine.metric("fngrain.signature_hits").to_string(),
    ]);
    table.row(&[
        format!("module-grain (emulated): all {n}"),
        coarse_tasks.to_string(),
        format!("{:.3}", coarse_wall as f64 / 1e6),
        coarse.metric("fngrain.signature_hits").to_string(),
    ]);
    table.row(&[
        format!("cliff: add fn, {n}-caller importer"),
        format!("{cliff_consumer_tasks} (consumer)"),
        format!("{:.3}", cliff.metric("build.wall_ns") as f64 / 1e6),
        cliff.metric("fngrain.signature_hits").to_string(),
    ]);
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nre-executed pipeline-task ratio (module/fn grain): {task_ratio:.1}x\n\
         wall-time ratio: {wall_speedup:.1}x\n\
         consumer rebuilt on interface growth: {} (the old taxonomy rebuilt it, all {n} callers)",
        if consumer_rebuilt { "YES" } else { "no" },
    );

    let json = Value::obj([
        ("experiment", "fngrain".into()),
        ("module_functions", n.into()),
        (
            "fn_grain",
            Value::obj([
                ("fn_tasks", fine_tasks.into()),
                ("wall_ns", fine_wall.into()),
                (
                    "signature_hits",
                    fine.metric("fngrain.signature_hits").into(),
                ),
            ]),
        ),
        (
            "module_grain",
            Value::obj([
                ("fn_tasks", coarse_tasks.into()),
                ("wall_ns", coarse_wall.into()),
            ]),
        ),
        (
            "cliff",
            Value::obj([
                ("consumer_fn_tasks", cliff_consumer_tasks.into()),
                ("consumer_rebuilt", consumer_rebuilt.into()),
            ]),
        ),
        ("task_ratio", crate::rounded(task_ratio, 2)),
        ("wall_ratio", crate::rounded(wall_speedup, 2)),
    ]);
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_one_function_edit_beats_module_grain_five_fold() {
        let (table, json) = fngrain(crate::Scale::Quick);
        // The acceptance bar: a one-function body edit in a 64-function
        // module re-executes at least 5x fewer per-function pipeline tasks
        // than the module-grained blast radius.
        let Some(&Value::Num(ratio)) = json.get("task_ratio") else {
            panic!("no task_ratio in {json:?}");
        };
        assert!(ratio >= 5.0, "ratio {ratio} < 5:\n{table}\n{json:?}");
        // And the cliff is dead: growing the interface re-executes zero
        // consumer pipelines.
        let cliff = json.get("cliff").expect("cliff");
        assert_eq!(
            (
                cliff.get("consumer_fn_tasks"),
                cliff.get("consumer_rebuilt")
            ),
            (Some(&Value::Int(0)), Some(&Value::Bool(false))),
            "{table}\n{json:?}"
        );
    }
}
