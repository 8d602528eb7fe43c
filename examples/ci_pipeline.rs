//! CI pipeline: the paper's second motivating scenario. A CI runner does a
//! clean-checkout build after every pushed commit (no object cache) *and*
//! runs a verification step against the built program. The only artifact
//! cached between jobs is the compiler's dormancy-state file — and that
//! alone lets the stateful compiler skip thousands of pass executions per
//! job, shortening the whole pipeline.
//!
//! Run with: `cargo run --release --example ci_pipeline`

use sfcc::{Compiler, Config};
use sfcc_backend::{run, VmOptions};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let state_dir = std::env::temp_dir().join(format!("sfcc-ci-{}", std::process::id()));
    std::fs::create_dir_all(&state_dir)?;
    let state_path = state_dir.join("ci.sfcc-state");

    let mut model = generate_model(&GeneratorConfig::medium(7));
    let mut script = EditScript::new(99);
    let mut verified = 0;

    println!("CI loop: each job = clean checkout + fresh session; only the state file persists\n");
    for job in 1..=8 {
        // Every job is a brand-new session; dormancy state survives on disk.
        let compiler = Compiler::new(
            Config::stateful()
                .with_state_path(&state_path)
                .with_function_cache(),
        );
        let cold = compiler.state().function_count() == 0;
        let mut builder = Builder::new(compiler);

        if job > 1 {
            let commit = script.commit(&mut model);
            println!(
                "job {job}: commit #{} ({} in {}/{})",
                commit.number,
                commit.kind.label(),
                commit.module,
                commit.function
            );
        } else {
            println!(
                "job {job}: initial import{}",
                if cold { " (cold state)" } else { "" }
            );
        }

        let report = builder.build(&model.render())?;
        let skipped = report.metric("outcomes.skipped");

        // The verification step: run the program on fixed inputs.
        let mut outputs = Vec::new();
        for n in [1, 5, 9] {
            let out = run(&report.program, "main.main", &[n], VmOptions::default())?;
            outputs.push(out.return_value.unwrap_or_default());
        }
        verified += 1;

        let cache = builder.compiler().cache_stats();
        println!(
            "   rebuilt {} module(s) in {:.2} ms, skipped {skipped} pass slot(s), \
             {} IR-cache hit(s); verify outputs = {outputs:?}",
            report.metric("build.rebuilt_count"),
            report.metric("build.wall_ns") as f64 / 1e6,
            cache.hits,
        );

        // Persist the dormancy state for the next job.
        builder.compiler().save_state()?;
    }

    println!(
        "\n{verified}/8 jobs verified; state file at {}",
        state_path.display()
    );
    std::fs::remove_dir_all(&state_dir)?;
    Ok(())
}
