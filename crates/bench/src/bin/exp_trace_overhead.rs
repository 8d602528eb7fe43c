//! E14 — extension: observability (tracing/metrics) overhead
//!
//! Usage: `cargo run -p sfcc-bench --release --bin exp_trace_overhead [--quick]`
//!
//! Prints the overhead table (disabled-overhead accounting bound plus the
//! measured price of `--trace`) and writes the machine-readable artifact
//! to `BENCH_trace.json` in the current directory (under
//! `target/bench-quick/` with `--quick`).

fn main() {
    let scale = sfcc_bench::Scale::from_args();
    println!("# E14 — extension: observability overhead\n");
    let (table, json) = sfcc_bench::experiments::observe::trace_overhead(scale);
    print!("{table}");
    sfcc_bench::write_artifact(scale, "BENCH_trace.json", &json);
}
