//! Byte-identity pin for the canonical IR text.
//!
//! Every persisted fingerprint, state record, function-cache entry, graph
//! value and store artifact is derived from the printer's output, so its
//! bytes are a file format. This test prints every function of `demo/`,
//! lowered and after the default pipeline, and compares the FNV-64 of the
//! concatenated text, each function's structural fingerprint and each
//! definition's AST fingerprint against constants recorded from a known-good
//! build. A change here is a format change: it invalidates every store.

use sfcc_frontend::{def_fingerprint, parse_and_check, Diagnostics, ModuleEnv};
use sfcc_ir::{fingerprint, function_to_string, lower_module, parse_function, Module};
use sfcc_passes::{default_pipeline, run_pipeline, NeverSkip, RunOptions};
use std::fmt::Write as _;

/// The demo's modules in import order.
const DEMO: [&str; 3] = ["mathx", "stats", "main"];

/// FNV-64 of every lowered function's text, in `DEMO` order.
const LOWERED_TEXT_FNV64: u64 = 0x1f07_5c8a_edd5_91b2;
/// FNV-64 of every optimized function's text, in `DEMO` order.
const OPTIMIZED_TEXT_FNV64: u64 = 0xcec2_35c8_e00d_2ad9;

/// `module.function def=<AST fingerprint> lowered=<IR fingerprint>
/// optimized=<IR fingerprint>`, one line per function.
const FINGERPRINTS: &str = "\
mathx.gcd def=7b6ccba2e7adaa46 lowered=945db41de6f13c7bcfeba2a57a86d46f optimized=fb2c41ffec3e2d1281d9a5353b091d00
mathx.pow_mod def=c2e93ce3bc99a1b3 lowered=35445722863ce7481e8ad319e7c8ec23 optimized=3dca538af182dbcb31841b197f95f4c2
mathx.isqrt def=9d544ec9f0fdc947 lowered=53936a5a623f53374915e96363046e52 optimized=9a46f6ee760f0b4cc3689197542de8c7
stats.spread def=b9e53d0c30342aa0 lowered=911e63a2fab1e7ec60601fdedc61603c optimized=69030f0492d3d7dab8d2ce9a18f227bd
stats.normalized_gcd def=4e148c6a75363272 lowered=8c6aeaee49970491bb813dd140a09203 optimized=ab5fd7a3cad3365187425225b77f6fcf
stats.clamp def=3612ba06b312d593 lowered=db60d820d69d6bd979a4a87472432d8f optimized=f874ac82ba23ea1bb225ba7d72e97665
main.main def=ffe53a21bcec34ff lowered=bf47afec1bc8373be172e9952aab11dd optimized=2a94ec6a94e8e09876fbd813b066b006
";

/// Lowers the demo, returning each module's IR plus a fingerprint table
/// seeded with the AST fingerprints.
fn lowered_demo() -> (Vec<Module>, Vec<String>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../demo");
    let mut env = ModuleEnv::new();
    let mut modules = Vec::new();
    let mut rows = Vec::new();
    for name in DEMO {
        let src = std::fs::read_to_string(format!("{dir}/{name}.mc")).unwrap();
        let mut diags = Diagnostics::new();
        let checked = parse_and_check(name, &src, &env, &mut diags)
            .unwrap_or_else(|| panic!("{name}: {diags:?}"));
        for def in &checked.ast.functions {
            rows.push(format!(
                "{name}.{} def={:016x}",
                def.name,
                def_fingerprint(def)
            ));
        }
        modules.push(lower_module(&checked, &env));
        env.insert(name.to_string(), checked.interface);
    }
    (modules, rows)
}

/// FNV-64 of the concatenated function texts; appends each function's
/// fingerprint to its row, and checks each text parses back to itself.
fn text_hash(modules: &[Module], rows: &mut [String], label: &str) -> u64 {
    let mut text = String::new();
    let funcs = modules.iter().flat_map(|m| &m.functions);
    for (f, row) in funcs.zip(rows.iter_mut()) {
        let printed = function_to_string(f);
        let reparsed = parse_function(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(function_to_string(&reparsed), printed);
        write!(row, " {label}={}", fingerprint(f)).unwrap();
        text.push_str(&printed);
    }
    sfcc_codec::fnv64(text.as_bytes())
}

#[test]
fn quick_demo_text_and_fingerprints_are_pinned() {
    let (mut modules, mut rows) = lowered_demo();
    let lowered = text_hash(&modules, &mut rows, "lowered");
    let pipeline = default_pipeline();
    for m in &mut modules {
        run_pipeline(m, &pipeline, &NeverSkip, RunOptions { verify_each: true });
    }
    let optimized = text_hash(&modules, &mut rows, "optimized");
    let table: String = rows.iter().map(|r| format!("{r}\n")).collect();
    assert_eq!(
        (lowered, optimized, table.as_str()),
        (LOWERED_TEXT_FNV64, OPTIMIZED_TEXT_FNV64, FINGERPRINTS),
        "the canonical IR text moved: got {lowered:#018x} / {optimized:#018x}\n{table}"
    );
}
