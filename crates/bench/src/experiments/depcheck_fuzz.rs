//! E15: depcheck as a fuzzer — every injected dependency lie is caught no
//! later than the byte-identity oracle notices the build went wrong.
//!
//! The experiment weaponizes `DepMutations`: each case injects one class of
//! dependency lie (a dropped declaration, a phantom declaration, a phantom
//! access, a frozen input stamp) into an otherwise-correct build, then
//! replays a deterministic edit script with two builders side by side — an
//! honest reference and the mutated, depcheck-instrumented one. Per step we
//! record when depcheck first flagged the lie and when the two builders'
//! program images first diverged. The claim under test: **flagged step <=
//! divergence step, always** — the audit sees the lie from the dependency
//! evidence before (or exactly when) the lie produces a wrong build, so a
//! CI gate on depcheck's exit code catches soundness bugs that byte
//! comparison alone would only catch after shipping a bad image.

use crate::table::Table;
use crate::{Scale, DEFAULT_SEED};
use sfcc::{Compiler, Config};
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::{Builder, DepMutations};
use sfcc_trace::json::Value;
use sfcc_workload::{generate_model, EditScript};
use std::fmt::Write as _;

/// The outcome of one fuzz case.
struct CaseOutcome {
    name: &'static str,
    /// First replay step (0 = cold build) where depcheck reported findings.
    flagged_at: Option<usize>,
    /// First replay step where the mutated image differed from the honest
    /// one (`None`: the lie never produced a wrong build on this script).
    diverged_at: Option<usize>,
    /// Total findings across the replay.
    findings: usize,
}

impl CaseOutcome {
    /// Whether depcheck caught the lie, and no later than the oracle.
    fn caught(&self) -> bool {
        match (self.flagged_at, self.diverged_at) {
            (Some(f), Some(d)) => f <= d,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }
}

/// Replays one mutated builder against an honest reference over the same
/// deterministic edit script.
fn run_case(
    name: &'static str,
    commits: usize,
    scale: Scale,
    mutate: &dyn Fn(&[String]) -> DepMutations,
) -> CaseOutcome {
    let config = scale.single(DEFAULT_SEED + 150);
    let mut model = generate_model(&config);
    let mut script = EditScript::new(DEFAULT_SEED ^ 0xdecc_decc_dead_0e15);

    let mutations = {
        let project = model.render();
        let mut names: Vec<String> = project.names().map(str::to_string).collect();
        names.sort();
        mutate(&names)
    };
    let mut honest = Builder::new(Compiler::new(Config::stateless()));
    let mut mutated = Builder::new(Compiler::new(Config::stateless()))
        .with_depcheck()
        .with_dep_mutations(mutations);

    let mut outcome = CaseOutcome {
        name,
        flagged_at: None,
        diverged_at: None,
        findings: 0,
    };
    for step in 0..=commits {
        if step > 0 {
            script.commit(&mut model);
        }
        let project = model.render();
        let good = honest.build(&project).expect("honest build succeeds");
        let bad = mutated.build(&project).expect("mutated build succeeds");
        let dc = bad.depcheck.expect("depcheck was enabled");
        outcome.findings += dc.findings.len();
        if !dc.is_clean() && outcome.flagged_at.is_none() {
            outcome.flagged_at = Some(step);
        }
        if outcome.diverged_at.is_none() && to_bytes(&good.program) != to_bytes(&bad.program) {
            outcome.diverged_at = Some(step);
        }
    }
    outcome
}

/// E15: the dependency-lie fuzz matrix. Returns the rendered table and the
/// JSON artifact written to `BENCH_depcheck.json`.
pub fn depcheck_fuzz(scale: Scale) -> (String, Value) {
    let commits = match scale {
        Scale::Quick => 4usize,
        Scale::Full => 12,
    };

    // One case per lie class, aimed at representative tasks of the
    // taxonomy. `names[0]` is the first module of the generated project.
    type Mutate = dyn Fn(&[String]) -> DepMutations;
    let catalog: Vec<(&'static str, Box<Mutate>)> = vec![
        (
            "drop-dep parse/src",
            Box::new(|names: &[String]| {
                DepMutations::new().drop_dep(
                    &format!("parse({})", names[0]),
                    &format!("src:{}", names[0]),
                )
            }),
        ),
        (
            "drop-dep graph/manifest",
            Box::new(|_: &[String]| DepMutations::new().drop_dep("graph", "manifest")),
        ),
        (
            "phantom-dep link",
            Box::new(|_: &[String]| DepMutations::new().phantom_dep("link", "phantom:fuzz")),
        ),
        (
            "phantom-access codegen",
            Box::new(|names: &[String]| {
                DepMutations::new().phantom_access(&format!("codegen({})", names[0]), "ghost:fuzz")
            }),
        ),
        (
            "freeze-stamp all sources",
            Box::new(|names: &[String]| {
                names.iter().fold(DepMutations::new(), |m, name| {
                    m.freeze_stamp(&format!("src:{name}"))
                })
            }),
        ),
    ];

    let outcomes: Vec<CaseOutcome> = catalog
        .iter()
        .map(|(name, mutate)| run_case(name, commits, scale, mutate.as_ref()))
        .collect();
    let all_caught = outcomes.iter().all(CaseOutcome::caught);

    let fmt_step = |s: Option<usize>| match s {
        Some(step) => format!("step {step}"),
        None => "never".to_string(),
    };
    let mut table = Table::new(&[
        "mutation",
        "findings",
        "flagged at",
        "bytes diverged at",
        "verdict",
    ]);
    for o in &outcomes {
        table.row(&[
            o.name.into(),
            o.findings.to_string(),
            fmt_step(o.flagged_at),
            fmt_step(o.diverged_at),
            if o.caught() {
                "caught".into()
            } else {
                "MISSED".into()
            },
        ]);
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nreplay: {} commits per case; `caught` means depcheck flagged the\n\
         lie on a step no later than the first byte divergence — the audit\n\
         beats the byte-identity oracle on every mutation: {}.",
        commits,
        if all_caught { "yes" } else { "NO" }
    );

    let cases = outcomes.iter().map(|o| {
        Value::obj([
            ("name", o.name.into()),
            ("findings", o.findings.into()),
            ("flagged_at", o.flagged_at.into()),
            ("diverged_at", o.diverged_at.into()),
            ("caught", o.caught().into()),
        ])
    });
    let json = Value::obj([
        ("experiment", "depcheck_fuzz".into()),
        ("commits", commits.into()),
        ("cases", cases.collect()),
        ("all_caught", all_caught.into()),
    ]);
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_every_mutation_is_caught_before_divergence() {
        let (table, json) = depcheck_fuzz(Scale::Quick);
        assert_eq!(
            json.get("all_caught"),
            Some(&Value::Bool(true)),
            "a mutation escaped depcheck:\n{table}\n{json:?}"
        );
        assert!(!table.contains("MISSED"), "{table}");
    }
}
