//! E16 — extension: function-granularity cross-module dependencies
//!
//! Usage: `cargo run -p sfcc-bench --release --bin exp_fngrain [--quick]`
//!
//! Prints the granularity comparison (one-function edit vs the emulated
//! module-grained blast radius, plus the interface-growth cliff) and writes
//! the machine-readable artifact to `BENCH_fngrain.json` in the current
//! directory (under `target/bench-quick/` with `--quick`).

fn main() {
    let scale = sfcc_bench::Scale::from_args();
    println!("# E16 — extension: function-granularity dependencies\n");
    let (table, json) = sfcc_bench::experiments::fngrain::fngrain(scale);
    print!("{table}");
    sfcc_bench::write_artifact(scale, "BENCH_fngrain.json", &json);
}
