//! E13 — extension: function-level parallel optimization scaling
//!
//! Usage: `cargo run -p sfcc-bench --release --bin exp_parallel_scaling [--quick] [--gate-overhead <pct>]`
//!
//! Prints the sweep tables and writes the machine-readable artifact to
//! `BENCH_parallel.json` in the current directory, under
//! `target/bench-quick/` with `--quick` (including the host's
//! `detected_cores`, since the achievable speedup is bounded by it).
//!
//! With `--gate-overhead <pct>`, exits nonzero when the single-module
//! sweep's widest worker count exceeds `jobs=1` optimize time by more than
//! `<pct>` percent — the CI fan-out overhead smoke.

use std::process::ExitCode;

fn main() -> ExitCode {
    let scale = sfcc_bench::Scale::from_args();
    let gate = gate_arg();
    println!("# E13 — extension: parallel optimize scaling\n");
    let (table, json) = sfcc_bench::experiments::parallel::parallel_scaling(scale);
    print!("{table}");
    sfcc_bench::write_artifact(scale, "BENCH_parallel.json", &json);
    if let Some(max_pct) = gate {
        match sfcc_bench::experiments::parallel::gate_single_module_overhead(&json, max_pct) {
            Ok(pct) => {
                println!("overhead gate: {pct:+.2}% (budget {max_pct:.2}%) — ok");
            }
            Err(e) => {
                eprintln!("overhead gate FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Parses `--gate-overhead <pct>` from the command line, if present.
fn gate_arg() -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let pos = args.iter().position(|a| a == "--gate-overhead")?;
    let pct = args
        .get(pos + 1)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| {
            eprintln!("--gate-overhead expects a percentage, e.g. `--gate-overhead 5`");
            std::process::exit(2);
        });
    Some(pct)
}
