//! The output check must pass on a correct image and must fail — and raise
//! the failure count — on a stale one, so that a silently wrong
//! incremental build can never score as a fast one.

mod common;

use sfbench::e2e::Ops;
use sfbench::lane;
use sfbench::oracle::{self, RUN_INPUTS};
use sfcc_refinterp::RefOptions;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig, ProjectModel};
use std::path::Path;

fn flags() -> Vec<String> {
    ["--stateful", "--fn-cache", "--jobs", "1"]
        .iter()
        .map(|f| f.to_string())
        .collect()
}

/// Builds `model`'s tree with the real compiler; returns the image path.
fn build(model: &ProjectModel, out: &Path, tag: &str) -> std::path::PathBuf {
    let dir = out.join(tag);
    model.render().write_to_dir(&dir).unwrap();
    let image = out.join(format!("{tag}.sbx"));
    let (_, built) = lane::cli_build(common::minicc(), &dir, &image, &flags());
    built.expect("generated projects build");
    image
}

/// What the reference interpreter makes of `model` on every run input.
fn behaviour(model: &ProjectModel) -> Vec<String> {
    let machine = oracle::reference_machine(&model.render()).unwrap();
    RUN_INPUTS
        .iter()
        .map(|&n| {
            format!(
                "{:?}",
                machine.run("main", "main", &[n], RefOptions::default())
            )
        })
        .collect()
}

#[test]
fn a_correct_image_passes_on_every_input() {
    let out = common::out_dir("oracle-pass");
    for seed in [3u64, 11] {
        let model = generate_model(&GeneratorConfig::small(seed));
        let image = build(&model, &out, &format!("p{seed}"));
        let verdict = oracle::check_image(&model.render(), &image);
        assert_eq!(verdict.checks, RUN_INPUTS.len() as u64);
        assert_eq!(verdict.mismatches, 0, "seed {seed}");
        assert!(verdict.vm_steps > 0);
    }
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn a_stale_image_fails_and_raises_the_failure_count() {
    let out = common::out_dir("oracle-stale");
    let mut model = generate_model(&GeneratorConfig::small(7));
    let mut script = EditScript::new(7);
    // Walk the edit stream to the first commit that changes what the
    // program prints or returns.
    let (before, after) = (0..60)
        .find_map(|_| {
            let before = model.clone();
            script.commit(&mut model);
            (behaviour(&before) != behaviour(&model)).then(|| (before, model.clone()))
        })
        .expect("some commit of sixty changes the program's behaviour");

    // The image of the previous commit, handed over as if it were the
    // build of the current tree.
    let stale = build(&before, &out, "before");
    let mut ops = Ops::default();
    ops.request(true);
    ops.checks(&oracle::check_image(&before.render(), &stale));
    assert_eq!(ops.failed, 0, "the image is right for its own sources");

    let verdict = oracle::check_image(&after.render(), &stale);
    assert!(verdict.mismatches > 0, "a stale image must not pass");
    ops.checks(&verdict);
    assert_eq!(ops.failed, verdict.mismatches);
    assert!(ops.failed as f64 / ops.attempted as f64 > 0.0);

    // An image that is not there at all fails every input.
    let missing = oracle::check_image(&after.render(), &out.join("absent.sbx"));
    assert_eq!(missing.mismatches, RUN_INPUTS.len() as u64);
    let _ = std::fs::remove_dir_all(out);
}
