//! Criterion benchmark of the headline comparison: one warm incremental
//! rebuild (a single-function edit) with the stateless vs stateful compiler.
//!
//! Complements `exp_end_to_end` (which replays whole histories): this bench
//! isolates one rebuild so Criterion's statistics apply.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sfcc::{Compiler, Config, SkipPolicy};
use sfcc_buildsys::Builder;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};

fn bench_incremental(c: &mut Criterion) {
    let config = GeneratorConfig::medium(20240302);

    let mut group = c.benchmark_group("incremental-rebuild");
    for (label, compiler_config) in [
        ("stateless", Config::stateless()),
        (
            "stateful",
            Config::stateless().with_policy(SkipPolicy::PreviousBuild),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    // Warm builder + one pending edit.
                    let mut model = generate_model(&config);
                    let mut script = EditScript::new(7);
                    let mut builder = Builder::new(Compiler::new(compiler_config.clone()));
                    builder.build(&model.render()).unwrap();
                    // A couple of warm-up commits so dormancy state exists.
                    for _ in 0..2 {
                        script.commit(&mut model);
                        builder.build(&model.render()).unwrap();
                    }
                    script.commit(&mut model);
                    (builder, model.render())
                },
                |(mut builder, project)| {
                    builder
                        .build(&project)
                        .unwrap()
                        .metric("build.rebuilt_count")
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Each sample rebuilds a medium project; keep the count modest.
    config = Criterion::default().sample_size(10);
    targets = bench_incremental
}
criterion_main!(benches);
