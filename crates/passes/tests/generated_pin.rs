//! Byte-identity pin for the optimizer on generated code.
//!
//! `crates/ir/tests/golden.rs` pins the demo's seven functions, none of which
//! the unroller touches. This test runs [`default_pipeline`] over every
//! module of two generated projects — `medium` and `loop_heavy`, seed 2024 —
//! and compares the FNV-64 of the optimized text, and of every slot's
//! outcome and cost, against constants recorded from a known-good build. A
//! pass rewrite that claims byte-identical output must leave both unchanged:
//! the text is what every fingerprint hashes, and the outcomes are what the
//! dormancy state records.

use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv};
use sfcc_ir::{lower_module, module_to_string};
use sfcc_passes::{default_pipeline, run_pipeline, NeverSkip, RunOptions};
use sfcc_workload::{generate_model, GeneratorConfig};
use std::fmt::Write as _;

/// `(optimized text, slot outcomes)` FNV-64s of `GeneratorConfig::medium(2024)`.
const MEDIUM: (u64, u64) = (0x0185_61dc_6618_62c6, 0x2f39_fddc_caaf_7521);
/// `(optimized text, slot outcomes)` FNV-64s of `GeneratorConfig::loop_heavy(2024)`.
const LOOP_HEAVY: (u64, u64) = (0xfa14_cd05_76d2_58af, 0x91e3_694d_7b8b_cdbc);

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Lowers and optimizes every module of the project `config` generates;
/// returns the FNV-64s of the concatenated module text and of one
/// `function slot outcome cost` line per pass execution.
fn optimize(config: &GeneratorConfig) -> (u64, u64) {
    let model = generate_model(config);
    let pipeline = default_pipeline();
    let mut env = ModuleEnv::new();
    let (mut text, mut outcomes) = (String::new(), String::new());
    for module in &model.modules {
        let src = model.render_module(module);
        let mut diags = Diagnostics::new();
        let checked = parse_and_check(&module.name, &src, &env, &mut diags)
            .unwrap_or_else(|| panic!("{}: {diags:?}", module.name));
        let mut ir = lower_module(&checked, &env);
        env.insert(module.name.clone(), checked.interface);
        let trace = run_pipeline(&mut ir, &pipeline, &NeverSkip, RunOptions::default());
        text.push_str(&module_to_string(&ir));
        for f in &trace.functions {
            for r in &f.records {
                writeln!(
                    outcomes,
                    "{}.{} {} {:?} {}",
                    module.name, f.function, r.slot, r.outcome, r.cost_units
                )
                .unwrap();
            }
        }
    }
    (fnv64(text.as_bytes()), fnv64(outcomes.as_bytes()))
}

#[test]
fn medium_optimizes_to_pinned_bytes() {
    let (text, outcomes) = optimize(&GeneratorConfig::medium(2024));
    assert_eq!(
        (text, outcomes),
        MEDIUM,
        "optimized medium(2024): text {text:#018x}, outcomes {outcomes:#018x}"
    );
}

#[test]
fn loop_heavy_optimizes_to_pinned_bytes() {
    let (text, outcomes) = optimize(&GeneratorConfig::loop_heavy(2024));
    assert_eq!(
        (text, outcomes),
        LOOP_HEAVY,
        "optimized loop_heavy(2024): text {text:#018x}, outcomes {outcomes:#018x}"
    );
}
