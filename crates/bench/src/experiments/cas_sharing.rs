//! E17: shared artifact store — cross-project sharing, measured.
//!
//! A fleet of tenant projects shares one content-addressed artifact store.
//! Every tenant imports the same `common` module (the shared surface) and
//! adds a tenant-unique module on top. Each tenant is built cold — a fresh
//! compiler, as separate CI jobs would be — twice: once with no store
//! (baseline) and once with the shared store attached. The first tenant
//! publishes the common artifacts; every later tenant hits them and only
//! compiles its unique functions.
//!
//! Counters, not clocks, carry the result: store hits/misses/publishes and
//! active-vs-skipped pass slots are deterministic. The soundness row is
//! byte-identity — every tenant's disassembly must be identical with and
//! without the store.

use crate::table::Table;
use sfcc::{Compiler, Config};
use sfcc_backend::disasm_program;
use sfcc_buildsys::{Builder, Project};
use sfcc_trace::json::Value;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Tenant `t` of the fleet: the shared `common` module (identical for all
/// tenants), a tenant-unique module, and an entry point.
fn tenant_project(t: usize, shared_fns: usize, unique_fns: usize) -> Project {
    let mut common = String::new();
    for i in 0..shared_fns {
        let _ = writeln!(common, "fn c{i}(x: int) -> int {{ return x * 2 + {i}; }}");
    }
    let mut unique = String::from("import common;\n");
    for j in 0..unique_fns {
        let _ = writeln!(
            unique,
            "fn u{j}(x: int) -> int {{ return common::c{}(x) + {t} * {j}; }}",
            j % shared_fns
        );
    }
    let mut p = Project::new();
    p.set_file("common".into(), common);
    p.set_file("unique".into(), unique);
    p.set_file(
        "main".into(),
        "import unique;\nfn main(n: int) -> int { return unique::u0(n); }".into(),
    );
    p
}

/// A scratch store directory unique to this process.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-bench-cas-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// E17: the sharing comparison. Returns the rendered table and the JSON
/// artifact written to `BENCH_cas.json`.
pub fn cas_sharing(scale: crate::Scale) -> (String, Value) {
    let (tenants, shared_fns, unique_fns) = match scale {
        crate::Scale::Quick => (4usize, 16usize, 4usize),
        crate::Scale::Full => (8, 64, 8),
    };
    let store = store_dir("sharing");

    let mut table = Table::new(&[
        "tenant",
        "store hits",
        "misses",
        "publishes",
        "slots active",
        "slots skipped",
        "identical",
    ]);
    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    let mut total_publishes = 0u64;
    let mut base_active = 0u64;
    let mut shared_active = 0u64;
    let mut shared_skipped = 0u64;
    let mut bytes = 0u64;
    let mut all_identical = true;
    let mut base_wall = 0u64;
    let mut shared_wall = 0u64;

    for t in 0..tenants {
        let p = tenant_project(t, shared_fns, unique_fns);

        // Baseline: cold build, no store.
        let mut plain = Builder::new(Compiler::new(Config::stateless()));
        let base = plain.build(&p).unwrap();
        base_active += base.metric("outcomes.active");
        base_wall += base.metric("build.wall_ns");

        // Shared: cold build, store attached.
        let mut sharing = Builder::new(Compiler::new(Config::stateless().with_cas_path(&store)));
        let served = sharing.build(&p).unwrap();
        let stats = sharing.compiler().cas().unwrap().stats();
        let (active, skipped) = (
            served.metric("outcomes.active"),
            served.metric("outcomes.skipped"),
        );
        shared_active += active;
        shared_skipped += skipped;
        shared_wall += served.metric("build.wall_ns");
        total_hits += stats.hits;
        total_misses += stats.misses;
        total_publishes += stats.publishes;
        bytes = stats.bytes;

        let identical = disasm_program(&base.program) == disasm_program(&served.program);
        all_identical &= identical;
        table.row(&[
            format!("t{t}"),
            stats.hits.to_string(),
            stats.misses.to_string(),
            stats.publishes.to_string(),
            active.to_string(),
            skipped.to_string(),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }

    let lookups = total_hits + total_misses;
    let hit_rate = total_hits as f64 / lookups.max(1) as f64;
    let slot_ratio = base_active as f64 / shared_active.max(1) as f64;
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nfleet hit rate: {:.1}% over {lookups} lookups ({total_publishes} publishes, {bytes} store bytes)\n\
         active pass slots, no store vs shared: {base_active} vs {shared_active} ({slot_ratio:.1}x)\n\
         byte-identical across all tenants: {}",
        hit_rate * 100.0,
        if all_identical { "yes" } else { "NO" },
    );

    let json = Value::obj([
        ("experiment", "cas_sharing".into()),
        ("tenants", tenants.into()),
        ("shared_fns", shared_fns.into()),
        ("unique_fns", unique_fns.into()),
        ("hits", total_hits.into()),
        ("misses", total_misses.into()),
        ("publishes", total_publishes.into()),
        ("store_bytes", bytes.into()),
        ("hit_rate", crate::rounded(hit_rate, 3)),
        ("base_active_slots", base_active.into()),
        ("shared_active_slots", shared_active.into()),
        ("shared_skipped_slots", shared_skipped.into()),
        ("slot_ratio", crate::rounded(slot_ratio, 2)),
        ("base_wall_ns", base_wall.into()),
        ("shared_wall_ns", shared_wall.into()),
        ("byte_identical", all_identical.into()),
    ]);
    let _ = std::fs::remove_dir_all(&store);
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_followers_hit_the_shared_surface_byte_identically() {
        let (table, json) = cas_sharing(crate::Scale::Quick);
        // Soundness first: the store may never change bytes.
        assert_eq!(
            json.get("byte_identical"),
            Some(&Value::Bool(true)),
            "{table}\n{json:?}"
        );
        // The economics: each of the 3 follower tenants hits all 16 shared
        // functions (the leader publishes them), so the fleet performs at
        // least 48 hits, and dedup means the shared surface is published
        // exactly once.
        let hits = json.get("hits").and_then(Value::as_u64).expect("hits");
        assert!(hits >= 48, "fleet hits {hits} < 48:\n{table}\n{json:?}");
        let Some(&Value::Num(slot_ratio)) = json.get("slot_ratio") else {
            panic!("no slot_ratio in {json:?}");
        };
        assert!(
            slot_ratio > 1.5,
            "sharing must cut active pass slots: {slot_ratio}\n{table}"
        );
    }
}
