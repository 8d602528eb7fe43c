//! E15 — extension: dependency-soundness fuzzing (depcheck)
//!
//! Usage: `cargo run -p sfcc-bench --release --bin exp_depcheck_fuzz [--quick]`
//!
//! Prints the fuzz matrix (one row per injected dependency lie, with the
//! step depcheck flagged it vs the step the build's bytes went wrong) and
//! writes the machine-readable artifact to `BENCH_depcheck.json` in the
//! current directory (under `target/bench-quick/` with `--quick`).

fn main() {
    let scale = sfcc_bench::Scale::from_args();
    println!("# E15 — extension: dependency-soundness fuzzing\n");
    let (table, json) = sfcc_bench::experiments::depcheck_fuzz::depcheck_fuzz(scale);
    print!("{table}");
    sfcc_bench::write_artifact(scale, "BENCH_depcheck.json", &json);
}
