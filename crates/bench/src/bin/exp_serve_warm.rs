//! E18 — extension: warm build daemon (`minicc serve`)
//!
//! Usage: `cargo run -p sfcc-bench --release --bin exp_serve_warm [--quick]`
//!
//! Prints warm-vs-cold latency distributions for a one-function edit stream
//! (plus a concurrent multi-client phase) and writes the machine-readable
//! artifact to `BENCH_serve.json` in the current directory (under
//! `target/bench-quick/` with `--quick`).

fn main() {
    let scale = sfcc_bench::Scale::from_args();
    println!("# E18 — extension: warm build daemon (minicc serve)\n");
    let (table, json) = sfcc_bench::experiments::serve_warm::serve_warm(scale);
    print!("{table}");
    sfcc_bench::write_artifact(scale, "BENCH_serve.json", &json);
}
