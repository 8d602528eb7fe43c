//! Smoke coverage: `sfbench run --quick` drives all six workloads through
//! both lanes of the real `minicc` (preset `small`, R=1 N=3 M=2) and must
//! emit exactly the metric names `BENCHMARK.json` declares, for every
//! workload it lists and for the two it leaves to `sfbench run`.

mod common;

use sfbench::check;
use sfcc_trace::json::{self, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn spec() -> Value {
    let text = std::fs::read_to_string(common::repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(list: &Value) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// `(every workload of the benchmark, the ones BENCHMARK.json must list)`.
fn known_workloads() -> (BTreeSet<String>, BTreeSet<String>) {
    let all = sfbench::workloads::WORKLOADS;
    let names = |gated_only: bool| {
        all.iter()
            .filter(|w| w.gated || !gated_only)
            .map(|w| w.name.to_string())
            .collect()
    };
    (names(false), names(true))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs `sfbench run --quick [extra]` into `out`; returns the results
/// document.
fn quick_set(out: &Path, extra: &[&str], file: &str) -> Value {
    let status = Command::new(env!("CARGO_BIN_EXE_sfbench"))
        .args(["run", "--quick", "--seed", "42", "--out"])
        .arg(out)
        .arg("--minicc")
        .arg(common::minicc())
        .args(extra)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("sfbench runs");
    assert!(status.success(), "sfbench run --quick {extra:?} failed");
    let text = std::fs::read_to_string(out.join(file)).expect("the results file");
    json::parse(&text).expect("results are JSON")
}

/// `(workload names, metric names of every workload)`; asserts each
/// workload reports the same metrics and nothing failed.
fn emitted(results: &Value) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut workloads = BTreeSet::new();
    let mut metrics: Option<BTreeSet<String>> = None;
    for w in results
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Value::as_str).expect("name");
        workloads.insert(name.to_string());
        assert_eq!(
            w.get("failed").and_then(Value::as_u64),
            Some(0),
            "{name}: fail_ratio must be 0"
        );
        assert!(w.get("attempted").and_then(Value::as_u64).unwrap_or(0) > 0);
        let own: BTreeSet<String> = w
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        match &metrics {
            Some(first) => assert_eq!(first, &own, "{name} reports other metrics"),
            None => metrics = Some(own),
        }
    }
    (workloads, metrics.expect("at least one workload"))
}

#[test]
fn quick_run_emits_exactly_the_declared_end_to_end_names() {
    let out = common::out_dir("quick-e2e");
    let spec = spec();
    let (workloads, metrics) = emitted(&quick_set(&out, &[], "results.json"));
    let (all, gated) = known_workloads();
    assert_eq!(workloads, all);
    assert_eq!(gated, names(spec.get("workloads").unwrap()));
    assert_eq!(metrics, names(spec.get("end_to_end").unwrap()));
    assert!(workloads.iter().chain(&metrics).all(|n| well_formed(n)));
    // Nothing is left behind but the results file.
    let left: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        left,
        ["results.json"],
        "scratch directories must be removed"
    );
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn quick_traced_run_emits_exactly_the_declared_per_layer_names() {
    let out = common::out_dir("quick-layers");
    let spec = spec();
    let results = quick_set(&out, &["--trace"], "layers.json");
    let (workloads, metrics) = emitted(&results);
    assert_eq!(workloads, known_workloads().0);
    assert_eq!(metrics, names(spec.get("per_layer").unwrap()));
    assert!(metrics.iter().all(|n| well_formed(n)));

    // The rows separate their layers as designed.
    let value = |workload: &str, metric: &str| -> f64 {
        let w = results
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
            .unwrap();
        match w.get("metrics").unwrap().get(metric).unwrap().get("median") {
            Some(Value::Num(n)) => *n,
            other => panic!("{workload}/{metric}: {other:?}"),
        }
    };
    for w in &workloads {
        let cas = value(w, "cas.hit_ratio");
        assert_eq!(
            cas > 0.0,
            w == "cas-medium-checkout",
            "{w}: cas.hit_ratio {cas}"
        );
        let ping = value(w, "daemon.ping_rtt_ms");
        assert_eq!(
            ping > 0.0,
            w.starts_with("warm-"),
            "{w}: daemon.ping_rtt_ms {ping}"
        );
    }
    assert!(value("cli-loop-stateful", "passes.slots_skipped") > 0.0);
    assert_eq!(value("cli-loop-stateless", "passes.slots_skipped"), 0.0);

    // One trace per workload, every span naming its layer and request.
    for w in &workloads {
        let text = std::fs::read_to_string(out.join(format!("trace-{w}.json"))).unwrap();
        let trace = json::parse(&text).expect("the trace is JSON");
        let spans = trace.get("spans").and_then(Value::as_arr).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("session")));
        for key in [
            "id",
            "parent",
            "request_id",
            "name",
            "layer",
            "start_ns",
            "end_ns",
        ] {
            assert!(spans[0].get(key).is_some(), "{w}: span without `{key}`");
        }
    }
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn quick_sets_of_one_seed_repeat_their_exact_counts() {
    let out_a = common::out_dir("quick-repeat-a");
    let out_b = common::out_dir("quick-repeat-b");
    quick_set(&out_a, &[], "results.json");
    quick_set(&out_b, &[], "results.json");
    let read = |dir: &Path| {
        check::parse_results(&std::fs::read_to_string(dir.join("results.json")).unwrap()).unwrap()
    };
    let (a, b) = (read(&out_a), read(&out_b));
    let spec_text = std::fs::read_to_string(common::repo_root().join("BENCHMARK.json")).unwrap();
    let bounds = check::parse_bounds(&spec_text).unwrap();
    for exact in bounds
        .iter()
        .filter(|b| sfbench::report::EXACT.contains(&b.name.as_str()))
    {
        for (wa, wb) in a.iter().zip(&b) {
            let of = |w: &check::WorkloadResult| {
                w.metrics.iter().find(|(n, _)| *n == exact.name).unwrap().1
            };
            let (verdict, _) = check::judge(exact, &of(wa), &of(wb));
            assert_eq!(verdict, check::Verdict::Ok, "{}/{}", wa.name, exact.name);
            assert!(of(wa).median > 0.0);
        }
    }
    let _ = std::fs::remove_dir_all(out_a);
    let _ = std::fs::remove_dir_all(out_b);
}

#[test]
fn a_missing_compiler_is_a_clear_error() {
    let out = common::out_dir("quick-nominicc");
    let output = Command::new(env!("CARGO_BIN_EXE_sfbench"))
        .args([
            "--workload",
            "cli-large-tweak",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--out")
        .arg(&out)
        .args(["--minicc", "/nonexistent/minicc"])
        .output()
        .expect("sfbench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result may be printed");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("cargo build --release -p sfcc-buildsys"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(out);
}
