//! E4/E6/E7: the headline end-to-end comparison, the edit-size sweep, and
//! the compile-time breakdown.

use crate::harness::{paired_replay, replay_with, speedup_percent};
use crate::table::{ms, pct, Table};
use crate::{Scale, DEFAULT_SEED};
use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditScript};
use std::collections::BTreeMap;

/// E4 / Table 2: end-to-end incremental build time, stateless vs stateful.
///
/// The paper reports a mean end-to-end speedup of **6.72 %** on its C++
/// suite; the shape to match is *stateful wins on every project, by a
/// single-digit-to-low-tens percentage*, with the deterministic cost column
/// confirming the win is machine-independent.
pub fn end_to_end(scale: Scale) -> String {
    // Replay each project under several independent edit histories so the
    // wall-clock column carries a spread, not a single noisy sample.
    let edit_seeds: &[u64] = match scale {
        Scale::Quick => &[DEFAULT_SEED ^ 0xC0117],
        Scale::Full => &[
            DEFAULT_SEED ^ 0xC0117,
            DEFAULT_SEED ^ 0xC0118,
            DEFAULT_SEED ^ 0xC0119,
        ],
    };
    let mut table = Table::new(&[
        "project",
        "builds",
        "histories",
        "stateless-ms",
        "stateful-ms",
        "speedup",
        "cost-speedup",
        "skipped-slots",
    ]);
    let mut speedups = Vec::new();
    for config in scale.suite(DEFAULT_SEED) {
        let mut slow_total = 0u64;
        let mut fast_total = 0u64;
        let mut slow_cost = 0u64;
        let mut fast_cost = 0u64;
        let mut skipped_total = 0u64;
        for &edit_seed in edit_seeds {
            let (stateless, stateful) = paired_replay(
                &config,
                scale.commits(),
                edit_seed,
                SkipPolicy::PreviousBuild,
            );
            slow_total += stateless.incremental_wall_ns();
            fast_total += stateful.incremental_wall_ns();
            slow_cost += stateless.incremental_cost_units();
            fast_cost += stateful.incremental_cost_units();
            skipped_total += stateful.profile.totals().2;
        }
        let wall_speedup = speedup_percent(slow_total as f64, fast_total as f64);
        let cost_speedup = speedup_percent(slow_cost as f64, fast_cost as f64);
        speedups.push(wall_speedup);
        table.row(&[
            config.name.clone(),
            scale.commits().to_string(),
            edit_seeds.len().to_string(),
            ms(slow_total),
            ms(fast_total),
            pct(wall_speedup),
            pct(cost_speedup),
            skipped_total.to_string(),
        ]);
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let mut out = table.render();
    out.push_str(&format!(
        "\nmean end-to-end speedup: {} (paper reports 6.72% on its Clang/C++ suite)\n",
        pct(mean)
    ));
    out
}

/// E6 / Figure 3: speedup as commits grow less local (more functions
/// touched per commit).
pub fn edit_size_sweep(scale: Scale) -> String {
    let config = scale.single(DEFAULT_SEED + 10);
    let widths: &[usize] = match scale {
        Scale::Quick => &[1, 4, 16],
        Scale::Full => &[1, 2, 5, 10, 20, 40, 80],
    };
    let mut table = Table::new(&[
        "functions-touched",
        "stateless-ms",
        "stateful-ms",
        "speedup",
        "cost-speedup",
    ]);
    for &width in widths {
        // Matched replays: same model, same wide-commit sequence.
        let measure = |cfg: Config| -> (u64, u64) {
            let mut model = generate_model(&config);
            let mut script = EditScript::new(DEFAULT_SEED ^ 0xE6);
            let mut builder = Builder::new(Compiler::new(cfg));
            builder.build(&model.render()).expect("builds");
            let mut wall = 0;
            let mut cost = 0;
            for _ in 0..4 {
                script.wide_commit(&mut model, width);
                let report = builder.build(&model.render()).expect("builds");
                wall += report.metric("build.wall_ns");
                cost += report.metric("build.executed_cost_units");
            }
            (wall, cost)
        };
        let (slow_wall, slow_cost) = measure(Config::stateless());
        let (fast_wall, fast_cost) =
            measure(Config::stateless().with_policy(SkipPolicy::PreviousBuild));
        table.row(&[
            width.to_string(),
            ms(slow_wall),
            ms(fast_wall),
            pct(speedup_percent(slow_wall as f64, fast_wall as f64)),
            pct(speedup_percent(slow_cost as f64, fast_cost as f64)),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nshape check: absolute savings grow with wider edits (more skippable\n\
         recompilation), while the build-system's file-level reuse shrinks.\n",
    );
    out
}

/// E7 / Figure 4: where compile time goes, stateless vs stateful, for one
/// warm incremental rebuild.
pub fn breakdown(scale: Scale) -> String {
    let config = scale.single(DEFAULT_SEED + 20);

    let measure = |cfg: Config| -> (BTreeMap<&'static str, u64>, BTreeMap<String, u64>) {
        let mut model = generate_model(&config);
        let mut script = EditScript::new(DEFAULT_SEED ^ 0xE7);
        let (replay, _) = replay_with(&mut model, &mut script, 5, cfg);
        let mut phases: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut per_pass: BTreeMap<String, u64> = BTreeMap::new();
        // Aggregate over the incremental builds (skip the full build).
        for module in replay
            .final_report
            .modules
            .iter()
            .filter_map(|m| m.output.as_ref())
        {
            *phases.entry("frontend").or_default() += module.timings.frontend_ns;
            *phases.entry("lower").or_default() += module.timings.lower_ns;
            *phases.entry("middle").or_default() += module.timings.middle_ns;
            *phases.entry("backend").or_default() += module.timings.backend_ns;
            *phases.entry("state").or_default() += module.timings.state_ns;
            for f in &module.trace.functions {
                for r in &f.records {
                    *per_pass.entry(r.pass.clone()).or_default() += r.nanos;
                }
            }
        }
        *phases.entry("link").or_default() += replay.final_report.metric("build.link_ns");
        (phases, per_pass)
    };

    let (slow_phases, slow_passes) = measure(Config::stateless());
    let (fast_phases, fast_passes) =
        measure(Config::stateless().with_policy(SkipPolicy::PreviousBuild));

    let mut out = String::from("per-phase (final incremental build, rebuilt modules):\n");
    let mut table = Table::new(&["phase", "stateless-ms", "stateful-ms"]);
    for phase in ["frontend", "lower", "middle", "backend", "state", "link"] {
        table.row(&[
            phase.to_string(),
            ms(slow_phases.get(phase).copied().unwrap_or(0)),
            ms(fast_phases.get(phase).copied().unwrap_or(0)),
        ]);
    }
    out.push_str(&table.render());

    out.push_str("\nper-pass middle-end time (same build):\n");
    let mut table = Table::new(&["pass", "stateless-ms", "stateful-ms"]);
    let mut passes: Vec<&String> = slow_passes.keys().collect();
    passes.sort_by_key(|p| std::cmp::Reverse(slow_passes[*p]));
    for pass in passes {
        table.row(&[
            pass.clone(),
            ms(slow_passes.get(pass).copied().unwrap_or(0)),
            ms(fast_passes.get(pass).copied().unwrap_or(0)),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nshape check: only the middle-end shrinks in stateful mode; frontend,\n\
         backend and link are unchanged — bounding the end-to-end speedup.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_reports_positive_cost_speedup() {
        let out = end_to_end(Scale::Quick);
        assert!(out.contains("mean end-to-end speedup"), "{out}");
        assert!(out.contains("small"), "{out}");
        // The deterministic cost column must never be negative for the
        // prev-build policy (skipping only removes work).
        for line in out.lines().filter(|l| l.contains('%')) {
            if let Some(cost_field) = line.split_whitespace().rev().nth(1) {
                if let Some(v) = cost_field.strip_suffix('%') {
                    if let Ok(v) = v.parse::<f64>() {
                        assert!(v >= -0.01, "cost regression in: {line}");
                    }
                }
            }
        }
    }

    #[test]
    fn edit_size_sweep_has_all_widths() {
        let out = edit_size_sweep(Scale::Quick);
        for w in ["1 ", "4 ", "16 "] {
            assert!(
                out.lines().any(|l| l.trim_start().starts_with(w.trim())),
                "{out}"
            );
        }
    }

    #[test]
    fn breakdown_lists_phases_and_passes() {
        let out = breakdown(Scale::Quick);
        for needle in ["frontend", "middle", "backend", "link", "mem2reg"] {
            assert!(out.contains(needle), "missing {needle}: {out}");
        }
    }
}
