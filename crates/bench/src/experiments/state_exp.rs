//! E5/E8: state storage & maintenance overhead, and dormancy stability.

use crate::harness::{replay_with, speedup_percent};
use crate::table::{frac_pct, ms, pct, Table};
use crate::{Scale, DEFAULT_SEED};
use sfcc::{persist, Compiler, Config, Durability};
use sfcc_buildsys::Builder;
use sfcc_state::statefile;
use sfcc_workload::{generate_model, EditScript};
use std::time::Instant;

/// E5 / Table 3: how much the dormancy state costs — bytes on disk,
/// save/load time, and the recording overhead on a cold (full) build.
pub fn state_overhead(scale: Scale) -> String {
    let mut table = Table::new(&[
        "project",
        "functions",
        "state-bytes",
        "bytes/fn",
        "save-ms",
        "load-ms",
        "record-overhead",
    ]);
    for config in scale.suite(DEFAULT_SEED) {
        let model = generate_model(&config);
        let project = model.render();

        // Cold full builds, min of three runs each to tame wall-clock
        // noise (the overhead being measured is small).
        let full_build = |cfg: Config| -> (u64, Builder) {
            let mut best = u64::MAX;
            let mut last = None;
            for _ in 0..3 {
                let mut builder = Builder::new(Compiler::new(cfg.clone()));
                best = best.min(
                    builder
                        .build(&project)
                        .expect("builds")
                        .metric("build.wall_ns"),
                );
                last = Some(builder);
            }
            (best, last.expect("ran at least once"))
        };
        let (slow, _) = full_build(Config::stateless());
        let (fast, stateful) = full_build(Config::stateful());
        let overhead = -speedup_percent(slow as f64, fast as f64);

        let bytes = stateful.compiler().state_bytes();
        let functions = stateful.compiler().state().function_count();

        let dir =
            std::env::temp_dir().join(format!("sfcc-e5-{}-{}", std::process::id(), config.name));
        std::fs::create_dir_all(&dir).expect("temp dir");
        // The commit the compiler ships: encode, write a generation file,
        // publish the manifest; and the load that reads it back.
        let base = dir.join(".sfcc-state");
        let t = Instant::now();
        let state = statefile::to_bytes(stateful.compiler().state());
        persist::save(&base, Some(&state), None, None, Durability::Fast).expect("save");
        let save_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let loaded = persist::load(&base, true, false);
        let load_ns = t.elapsed().as_nanos() as u64;
        assert!(loaded.events.is_empty(), "state reload failed");
        assert_eq!(loaded.db.function_count(), functions);
        let _ = std::fs::remove_dir_all(&dir);

        table.row(&[
            config.name.clone(),
            functions.to_string(),
            bytes.len().to_string(),
            format!("{:.1}", bytes.len() as f64 / functions.max(1) as f64),
            ms(save_ns),
            ms(load_ns),
            pct(overhead),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nshape check: tens of bytes per function; save/load well under a\n\
         millisecond per thousand functions; recording overhead a few percent\n\
         of one full build (and amortized across every later incremental build).\n",
    );
    out
}

/// E8 / Figure 5: P(pass dormant in build *n* | dormant in build *n−1*),
/// measured on the stateless baseline replay (ground truth, no skipping).
pub fn dormancy_stability(scale: Scale) -> String {
    let config = scale.single(DEFAULT_SEED + 30);
    let mut model = generate_model(&config);
    let mut script = EditScript::new(DEFAULT_SEED ^ 0xE8);
    let (replay, _) = replay_with(
        &mut model,
        &mut script,
        scale.commits(),
        Config::stateless(),
    );

    let mut table = Table::new(&["pass", "stability", "samples"]);
    for (pass, stability, samples) in replay.stability.per_pass() {
        table.row(&[pass, frac_pct(stability), samples.to_string()]);
    }
    let mut out = table.render();
    if let Some(overall) = replay.stability.overall() {
        out.push_str(&format!(
            "\noverall dormancy stability: {}\n",
            frac_pct(overall)
        ));
        out.push_str(
            "shape check: the high-dormancy passes the technique actually skips\n\
             (cse, memfwd, sccp, inline, adce, peephole, …) are ≥90% stable;\n\
             low-dormancy passes are less stable but also rarely skipped —\n\
             which is what makes the previous-build policy profitable.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_overhead_reports_all_projects() {
        let out = state_overhead(Scale::Quick);
        assert!(out.contains("small") && out.contains("medium"), "{out}");
        assert!(out.contains("bytes/fn"), "{out}");
    }

    #[test]
    fn stability_is_high() {
        let config = sfcc_workload::GeneratorConfig::small(DEFAULT_SEED + 30);
        let mut model = generate_model(&config);
        let mut script = EditScript::new(DEFAULT_SEED ^ 0xE8);
        let (replay, _) = replay_with(&mut model, &mut script, 8, Config::stateless());
        let overall = replay.stability.overall().expect("samples exist");
        assert!(overall > 0.7, "stability unexpectedly low: {overall}");
    }

    #[test]
    fn stability_report_renders() {
        let out = dormancy_stability(Scale::Quick);
        assert!(out.contains("overall dormancy stability"), "{out}");
    }
}
