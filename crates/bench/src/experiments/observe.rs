//! E14: observability overhead — the cost of the tracing/metrics layer.
//!
//! The tracer is designed to be zero-cost when disabled: an untraced build
//! holds no recorder, so every recording site is a branch on an absent
//! `Option<Trace>`, and the expensive structure (the span tree, the query
//! instants) is assembled only at report time of a *traced* build. This
//! experiment certifies the `<2%` disabled-overhead budget two ways:
//!
//! 1. **accounting bound** — microbenchmark the disabled recording site
//!    (the branch on an absent recorder) to get ns/site, count the sites an
//!    untraced build actually executes (recorder branches, query-log
//!    pushes, registry writes), and bound the disabled overhead as
//!    `sites x ns_per_site / build_wall`. This bound is robust to timer
//!    noise because both factors are measured tightly.
//! 2. **paired measurement** — median incremental-replay wall time with
//!    tracing off vs fully on, reporting the *enabled* overhead too (the
//!    price of `--trace`, not covered by any budget).
//!
//! Build outputs are asserted byte-identical between the traced and
//! untraced arms on every run (the no-observer-effect property).

use crate::table::{ms, Table};
use crate::{Scale, DEFAULT_SEED};
use sfcc::{Compiler, Config};
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::{BuildReport, Builder};
use sfcc_trace::{SpanId, Trace};
use sfcc_workload::{generate_model, EditScript};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Safety factor on the accounting bound: the real disabled site is never
/// slower than this multiple of the microbenchmarked guard round-trip.
const ACCOUNTING_SAFETY: f64 = 4.0;

/// Median of a sample (ns). Sorts a copy; samples are tiny.
fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Nanoseconds per disabled recording site: the branch an untraced build
/// takes on its absent recorder instead of recording a span.
fn disabled_ns_per_call(iters: u64) -> f64 {
    let mut recorder: Option<Trace> = None;
    let t = Instant::now();
    for i in 0..iters {
        if let Some(trace) = black_box(&mut recorder) {
            trace.span(SpanId::NONE, "bench", "probe", i, 0, 0, Vec::new());
        }
    }
    let per_call = t.elapsed().as_nanos() as f64 / iters as f64;
    // Sub-nanosecond readings mean the loop got folded; clamp to a
    // conservative floor of one cycle-ish so the bound stays honest.
    per_call.max(0.25)
}

/// Instrumentation sites an *untraced* build executes: the branches on its
/// absent recorder (build open and close, link start and end, two per
/// wave), one query-log push per engine observation, and one registry
/// write per metric in the final snapshot.
fn disabled_sites(report: &BuildReport) -> u64 {
    let waves = report
        .metrics
        .scalar("build.waves")
        .expect("build.waves gauge");
    let observations = report.query.hits + report.query.misses;
    (4 + 2 * waves) + observations + report.metrics.len() as u64
}

/// One replay arm: total wall ns over the cold build plus every commit,
/// the final report, and the final image bytes.
fn run_arm(commits: usize, traced: bool) -> (u64, BuildReport, Vec<u8>) {
    let config = Scale::Quick.single(DEFAULT_SEED + 80);
    let mut model = generate_model(&config);
    let mut script = EditScript::new(DEFAULT_SEED ^ 0x0b5e_7ab1_e000_0e14);
    let builder = Builder::new(Compiler::new(Config::stateless().with_jobs(2))).with_jobs(2);
    let mut builder = if traced {
        builder.with_tracing()
    } else {
        builder
    };

    let mut total = 0u64;
    let mut last = None;
    for commit in 0..=commits {
        if commit > 0 {
            script.commit(&mut model);
        }
        let project = model.render();
        let t = Instant::now();
        let report = builder.build(&project).expect("generated project builds");
        total += t.elapsed().as_nanos() as u64;
        last = Some(report);
    }
    let report = last.expect("at least the cold build ran");
    let image = to_bytes(&report.program);
    (total, report, image)
}

/// E14: disabled-overhead bound and measured enabled overhead of the
/// observability layer. Returns the rendered table and the JSON artifact
/// written to `BENCH_trace.json`.
pub fn trace_overhead(scale: Scale) -> (String, String) {
    let (reps, commits, iters) = match scale {
        Scale::Quick => (3usize, 3usize, 200_000u64),
        Scale::Full => (7, 8, 2_000_000),
    };

    let ns_per_call = disabled_ns_per_call(iters);

    let mut off_walls = Vec::new();
    let mut on_walls = Vec::new();
    let mut sites = 0u64;
    let mut reference_image: Option<Vec<u8>> = None;
    for _ in 0..reps {
        let (off_ns, off_report, off_image) = run_arm(commits, false);
        let (on_ns, on_report, on_image) = run_arm(commits, true);
        assert_eq!(off_image, on_image, "tracing changed the final image bytes");
        assert_eq!(
            off_report.outcome_totals(),
            on_report.outcome_totals(),
            "tracing changed pass outcomes"
        );
        if let Some(expected) = &reference_image {
            assert_eq!(expected, &off_image, "replay not reproducible across reps");
        } else {
            reference_image = Some(off_image);
        }
        off_walls.push(off_ns);
        on_walls.push(on_ns);
        sites = disabled_sites(&off_report);
    }
    let off_med = median(off_walls);
    let on_med = median(on_walls);
    let per_build_sites = sites;
    let total_sites = per_build_sites * (commits as u64 + 1);
    let disabled_bound_pct =
        total_sites as f64 * ns_per_call * ACCOUNTING_SAFETY / off_med as f64 * 100.0;
    let enabled_pct = (on_med as f64 - off_med as f64) / off_med as f64 * 100.0;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "disabled instrumentation call: {ns_per_call:.2} ns (x{ACCOUNTING_SAFETY} safety)\n\
         sites per build: {per_build_sites} (recorder branches + query observations + registry writes)\n"
    );
    let mut table = Table::new(&["arm", "replay-ms (median)", "overhead"]);
    table.row(&["tracing off".into(), ms(off_med), "baseline".into()]);
    table.row(&[
        "tracing off (accounting bound)".into(),
        ms(off_med),
        format!("<= {disabled_bound_pct:.3}%"),
    ]);
    table.row(&[
        "tracing on (--trace)".into(),
        ms(on_med),
        format!("{enabled_pct:+.1}%"),
    ]);
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nbudget: disabled overhead must stay under 2%; the accounting\n\
         bound above is {}.\n\
         the `tracing on` row is the full price of `--trace` (span tree,\n\
         query instants, export structures) — informative, not budgeted.",
        if disabled_bound_pct < 2.0 {
            "within budget"
        } else {
            "OVER BUDGET"
        }
    );

    let mut json = String::from("{\"experiment\":\"trace_overhead\",");
    let _ = write!(
        json,
        "\"reps\":{reps},\"commits\":{commits},\
         \"ns_per_disabled_call\":{ns_per_call:.4},\
         \"accounting_safety\":{ACCOUNTING_SAFETY},\
         \"sites_per_build\":{per_build_sites},\
         \"replay_wall_ns_off\":{off_med},\
         \"replay_wall_ns_on\":{on_med},\
         \"disabled_overhead_bound_pct\":{disabled_bound_pct:.4},\
         \"enabled_overhead_pct\":{enabled_pct:.4},\
         \"within_budget\":{}}}",
        disabled_bound_pct < 2.0
    );
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_disabled_overhead_is_under_budget() {
        let (table, json) = trace_overhead(Scale::Quick);
        assert!(
            json.contains("\"within_budget\":true"),
            "disabled overhead bound exceeded 2%:\n{table}\n{json}"
        );
        assert!(table.contains("within budget"), "{table}");
    }
}
