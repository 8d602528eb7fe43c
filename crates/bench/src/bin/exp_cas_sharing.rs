//! E17 — extension: shared content-addressed artifact store
//!
//! Usage: `cargo run -p sfcc-bench --release --bin exp_cas_sharing [--quick]`
//!
//! Prints the cross-project sharing comparison (a fleet of tenants over one
//! store vs. isolated cold builds) and writes the machine-readable artifact
//! to `BENCH_cas.json` in the current directory (under
//! `target/bench-quick/` with `--quick`).

fn main() {
    let scale = sfcc_bench::Scale::from_args();
    println!("# E17 — extension: shared artifact store (cross-project sharing)\n");
    let (table, json) = sfcc_bench::experiments::cas_sharing::cas_sharing(scale);
    print!("{table}");
    sfcc_bench::write_artifact(scale, "BENCH_cas.json", &json);
}
