//! Criterion microbenchmarks for the sfcc substrates:
//! IR printing, parsing and fingerprinting, the state codec, the pass
//! pipeline, and the VM.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sfcc::{Compiler, Config};
use sfcc_backend::{link_objects, run as vm_run, VmOptions};
use sfcc_frontend::ModuleEnv;
use sfcc_ir::{fingerprint, function_to_string, lower_module, parse_function};
use sfcc_passes::{default_pipeline, run_pipeline, NeverSkip, RunOptions};
use sfcc_state::{statefile, StateDb};
use sfcc_workload::{generate_model, GeneratorConfig};

/// A mid-sized fixed corpus module used across the microbenches: the
/// largest module of a small generated project, in pre-optimization IR.
fn corpus_ir() -> sfcc_ir::Module {
    let model = generate_model(&GeneratorConfig::small(99));
    let project = model.render();
    let graph = sfcc_buildsys::DepGraph::build(&project).unwrap();
    let mut env_by: std::collections::HashMap<String, sfcc_frontend::ModuleInterface> =
        Default::default();
    let mut best: Option<sfcc_ir::Module> = None;
    for name in graph.topo_order() {
        let mut env = ModuleEnv::new();
        for dep in graph.imports_of(name) {
            env.insert(dep.clone(), env_by[dep].clone());
        }
        let mut diags = sfcc_frontend::Diagnostics::new();
        let checked =
            sfcc_frontend::parse_and_check(name, project.file(name).unwrap(), &env, &mut diags)
                .unwrap();
        env_by.insert(name.clone(), checked.interface.clone());
        let ir = lower_module(&checked, &env);
        if best
            .as_ref()
            .is_none_or(|b| ir.functions.len() > b.functions.len())
        {
            best = Some(ir);
        }
    }
    best.unwrap()
}

fn warmed_state() -> StateDb {
    let model = generate_model(&GeneratorConfig::medium(7));
    let mut builder = sfcc_buildsys::Builder::new(Compiler::new(Config::stateful()));
    builder.build(&model.render()).unwrap();
    statefile::from_bytes(&builder.compiler().state_bytes()).unwrap()
}

fn bench_ir_text(c: &mut Criterion) {
    let ir = corpus_ir();
    c.bench_function("fingerprint/module", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for f in &ir.functions {
                acc ^= fingerprint(f).short();
            }
            acc
        })
    });
    c.bench_function("print/module", |b| {
        b.iter(|| {
            ir.functions
                .iter()
                .map(|f| function_to_string(f).len())
                .sum::<usize>()
        })
    });
    let texts: Vec<String> = ir.functions.iter().map(function_to_string).collect();
    c.bench_function("parse/module", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|t| parse_function(t).unwrap().live_inst_count())
                .sum::<usize>()
        })
    });
}

fn bench_state_codec(c: &mut Criterion) {
    let db = warmed_state();
    let bytes = statefile::to_bytes(&db);
    c.bench_function("state/encode", |b| {
        b.iter(|| statefile::to_bytes(&db).len())
    });
    c.bench_function("state/decode", |b| {
        b.iter(|| statefile::from_bytes(&bytes).unwrap().function_count())
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let ir = corpus_ir();
    let pipeline = default_pipeline();
    c.bench_function("pipeline/default-O2", |b| {
        b.iter_batched(
            || ir.clone(),
            |mut m| {
                run_pipeline(
                    &mut m,
                    &pipeline,
                    &NeverSkip,
                    RunOptions { verify_each: false },
                )
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_vm(c: &mut Criterion) {
    let src = "
fn main(n: int) -> int {
    let s: int = 0;
    for (let i: int = 1; i < n; i = i + 1) {
        s = s + (s ^ i) % ((i & 15) + 1) + i * 3;
    }
    return s;
}";
    let mut compiler = Compiler::new(Config::stateless());
    let out = compiler.compile("main", src, &ModuleEnv::new()).unwrap();
    let program = link_objects(std::slice::from_ref(&out.object)).unwrap();
    c.bench_function("vm/loop-1000", |b| {
        b.iter(|| {
            vm_run(&program, "main.main", &[1000], VmOptions::default())
                .unwrap()
                .executed
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_ir_text, bench_state_codec, bench_pipeline, bench_vm
}
criterion_main!(benches);
