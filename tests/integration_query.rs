//! End-to-end properties of the demand-driven query engine behind the
//! builder: incremental builds must be *byte-identical* to from-scratch
//! builds under arbitrary edit histories, the engine's hit/miss accounting
//! must show early cutoff doing its job, and structural regressions (an
//! edit that closes an import cycle) must surface as ordinary diagnostics.

mod common;

use common::lineage::{self, Script, Step::Edit};
use common::project;
use proptest::prelude::*;
use sfcc::{Compiler, Config};
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::{Builder, Project};

fn three_module_project() -> Project {
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

/// A from-scratch build of `p` with a fresh compiler and empty query store.
fn clean_image(p: &Project) -> Vec<u8> {
    let mut fresh = Builder::new(Compiler::new(Config::stateless()));
    to_bytes(&fresh.build(p).unwrap().program)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness of memoization: whatever the edit history, the image an
    /// incremental builder links is byte-for-byte the image a from-scratch
    /// build of the same sources produces — the lineage harness's `fresh`
    /// check on a resident stateless builder. (Stateful skipping trades
    /// bytes for behavioural equivalence: its `twin` and `behaviour`.)
    #[test]
    fn incremental_builds_are_byte_identical_to_clean_builds(seed in any::<u64>()) {
        lineage::check(&Script::of(seed, &[Edit; 4]), "resident j1 stateless");
    }
}

#[test]
fn interface_edit_reexecutes_dependents_tasks_with_cutoff() {
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    let mut p = three_module_project();
    let first = builder.build(&p).unwrap();
    // Cold build: every task is a miss, nothing hits.
    assert_eq!(first.metric("query.hits"), 0);
    assert!(first.metric("query.misses") > 0);

    // Interface edit: base exports one more function. Under function-grained
    // dependencies lib's pin is on signature(base::g) alone — unchanged — so
    // only lib's cheap module-check re-derives (and fingerprints
    // identically); no per-function task of lib, nothing of main.
    p.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 2; }\nfn extra() -> int { return 7; }".into(),
    );
    let report = builder.build(&p).unwrap();
    let executed = &report.query.executed;
    assert!(
        executed.iter().any(|t| t == "signature(base::g)"),
        "{executed:?}"
    );
    assert!(
        executed.iter().any(|t| t == "modcheck(lib)"),
        "{executed:?}"
    );
    assert!(
        !executed.iter().any(|t| t.contains("lib::")),
        "{executed:?}"
    );
    assert!(
        !executed.iter().any(|t| t == "codegen(lib)"),
        "{executed:?}"
    );
    assert!(
        !executed
            .iter()
            .any(|t| t.ends_with("(main)") || t.contains("main::")),
        "{executed:?}"
    );
    assert!(report.metric("query.hits") > 0);
    assert_eq!(report.metric("query.misses"), executed.len() as u64);

    // And the linked image is exactly what a clean build would produce.
    assert_eq!(to_bytes(&report.program), clean_image(&p));
}

#[test]
fn body_edit_hits_everything_but_the_edited_module() {
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    let mut p = three_module_project();
    builder.build(&p).unwrap();
    p.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 7; }".into(),
    );
    let report = builder.build(&p).unwrap();
    // No task of lib or main executes; only base's tasks (module-level and
    // per-function alike) and the link.
    assert!(
        report
            .query
            .executed
            .iter()
            .all(|t| t.contains("(base") || t == "link"),
        "{:?}",
        report.query.executed
    );
    assert_eq!(to_bytes(&report.program), clean_image(&p));
}

#[test]
fn edit_that_closes_an_import_cycle_is_reported_like_a_clean_build() {
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    let mut p = project(&[
        ("a", "fn f() -> int { return 1; }"),
        ("b", "import a;\nfn g() -> int { return a::f(); }"),
    ]);
    builder.build(&p).unwrap();

    // The edit makes the import relation cyclic. The incremental build must
    // terminate (no demand-loop hang, no stack overflow) with the exact
    // diagnostic a from-scratch build emits.
    p.set_file(
        "a".into(),
        "import b;\nfn f() -> int { return b::g(); }".into(),
    );
    let incremental_err = builder.build(&p).unwrap_err().to_string();
    assert_eq!(incremental_err, "import cycle: a -> b -> a");

    let mut fresh = Builder::new(Compiler::new(Config::stateless()));
    let clean_err = fresh.build(&p).unwrap_err().to_string();
    assert_eq!(incremental_err, clean_err);

    // Undoing the edit recovers with the memoized store intact: the
    // restored sources match what was memoized before the failed build, so
    // *nothing* recompiles, and the image still matches a clean build.
    p.set_file("a".into(), "fn f() -> int { return 1; }".into());
    let report = builder.build(&p).unwrap();
    assert_eq!(report.metric("build.rebuilt_count"), 0);
    assert_eq!(to_bytes(&report.program), clean_image(&p));
}
