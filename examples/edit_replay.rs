//! Edit replay: simulate a developer's incremental-build loop on a generated
//! multi-module project and compare the stateless and stateful compilers on
//! every commit.
//!
//! Run with: `cargo run --release --example edit_replay`

use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = GeneratorConfig::medium(42);
    let commits = 12;

    println!(
        "project: {} modules (+main), replaying {commits} commits\n",
        config.modules
    );
    println!(
        "{:>7}  {:<12} {:>8}  {:>14}  {:>14}  {:>8}",
        "commit", "edit", "rebuilt", "stateless(ms)", "stateful(ms)", "skipped"
    );

    // Two builders over identical histories.
    let mut model_a = generate_model(&config);
    let mut script_a = EditScript::new(7);
    let mut baseline = Builder::new(Compiler::new(Config::stateless()));

    let mut model_b = generate_model(&config);
    let mut script_b = EditScript::new(7);
    let mut stateful = Builder::new(Compiler::new(
        Config::stateless().with_policy(SkipPolicy::PreviousBuild),
    ));

    baseline.build(&model_a.render())?;
    stateful.build(&model_b.render())?;

    let (mut total_a, mut total_b) = (0u64, 0u64);
    for n in 1..=commits {
        let commit = script_a.commit(&mut model_a);
        script_b.commit(&mut model_b);

        let report_a = baseline.build(&model_a.render())?;
        let report_b = stateful.build(&model_b.render())?;
        total_a += report_a.metric("build.wall_ns");
        total_b += report_b.metric("build.wall_ns");

        let skipped = report_b.metric("outcomes.skipped");
        println!(
            "{:>7}  {:<12} {:>8}  {:>14.2}  {:>14.2}  {:>8}",
            n,
            commit.kind.label(),
            report_b.metric("build.rebuilt_count"),
            report_a.metric("build.wall_ns") as f64 / 1e6,
            report_b.metric("build.wall_ns") as f64 / 1e6,
            skipped,
        );
    }

    let speedup = (total_a as f64 - total_b as f64) / total_a as f64 * 100.0;
    println!(
        "\ntotals: stateless {:.2} ms, stateful {:.2} ms — {speedup:.2}% end-to-end speedup",
        total_a as f64 / 1e6,
        total_b as f64 / 1e6
    );
    println!("(the paper reports 6.72% on its Clang/C++ suite; see EXPERIMENTS.md)");
    Ok(())
}
