//! Golden-trace suite for the observability layer: exported build traces
//! must be well-formed Chrome trace JSON with strictly nested spans, carry
//! every pass execution exactly once (tagged active/dormant/skipped), and
//! be **byte-identical** across repeated runs and across `--jobs 1` vs
//! `--jobs 8`. The JSON report must match its pinned schema and print
//! every number of the build once, in its metrics snapshot, and — the
//! no-observer-effect property — enabling tracing and metrics must change
//! no build output (images, persisted state, cache, rebuild decisions)
//! over random edit scripts. Tests prefixed `quick_` form the CI smoke
//! subset.

use proptest::prelude::*;
use sfcc::{Compiler, Config};
use sfcc_backend::image::to_bytes;
use sfcc_buildsys::serve::BuildService;
use sfcc_buildsys::{validate_report_json, BuildReport, Builder, Project};
use sfcc_trace::json::{self, Value};
use sfcc_trace::validate_chrome_trace;
use sfcc_workload::{generate_model, EditScript, GeneratorConfig};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-it-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A scratch copy of the sources of `demo/`.
fn demo_copy(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    for entry in std::fs::read_dir(&demo).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "mc") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
    }
    dir
}

fn three_module_project() -> Project {
    let mut p = Project::new();
    p.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 2 + 1; }".into(),
    );
    p.set_file(
        "lib".into(),
        "import base;\nfn f(x: int) -> int { return base::g(x) + 3; }".into(),
    );
    p.set_file(
        "main".into(),
        "import lib;\nfn main(n: int) -> int { return lib::f(n); }".into(),
    );
    p
}

fn traced_builder(jobs: usize) -> Builder {
    Builder::new(Compiler::new(Config::stateless().with_jobs(jobs)))
        .with_jobs(jobs)
        .with_tracing()
}

fn chrome_json(report: &BuildReport) -> String {
    report
        .trace
        .as_ref()
        .expect("a traced build records a trace")
        .to_chrome_json(false)
}

#[test]
fn quick_trace_is_wellformed_and_strictly_nested() {
    let mut builder = traced_builder(2);
    let report = builder.build(&three_module_project()).unwrap();
    let text = chrome_json(&report);
    let summary = validate_chrome_trace(&text).expect("exported trace must validate");
    // The full hierarchy is present: build > module > phase > function >
    // pass.
    assert_eq!(summary.max_depth, 5, "unexpected hierarchy: {summary:?}");
    assert!(summary.complete > 0, "no spans recorded");
    assert!(summary.instants > 0, "no query instants recorded");
    assert!(summary.pass_events > 0, "no pass spans recorded");
    // Wall-clock must be absent from the deterministic export, present in
    // the annotated one.
    assert!(!text.contains("wall_ns"));
    assert!(report
        .trace
        .as_ref()
        .unwrap()
        .to_chrome_json(true)
        .contains("wall_ns"));
}

/// Every pass execution of the build appears in the trace exactly once,
/// tagged with its outcome; the tag totals equal the report's.
#[test]
fn quick_every_pass_execution_appears_exactly_once_tagged() {
    let mut builder = traced_builder(1);
    let report = builder.build(&three_module_project()).unwrap();
    let recorded: usize = report
        .modules
        .iter()
        .filter_map(|m| m.output.as_ref())
        .flat_map(|out| out.trace.functions.iter())
        .map(|f| f.records.len())
        .sum();
    let [active, dormant, skipped] =
        ["active", "dormant", "skipped"].map(|o| report.metric(&format!("outcomes.{o}")) as usize);

    let doc = json::parse(&chrome_json(&report)).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let mut tags = (0usize, 0usize, 0usize);
    let mut pass_events = 0usize;
    for ev in events {
        if ev.get("cat").and_then(Value::as_str) != Some("pass") {
            continue;
        }
        pass_events += 1;
        let outcome = ev
            .get("args")
            .and_then(|a| a.get("outcome"))
            .and_then(Value::as_str)
            .expect("every pass span is tagged with its outcome");
        match outcome {
            "active" => tags.0 += 1,
            "dormant" => tags.1 += 1,
            "skipped" => tags.2 += 1,
            other => panic!("unknown outcome tag {other:?}"),
        }
    }
    assert_eq!(
        pass_events, recorded,
        "pass executions must appear exactly once"
    );
    assert_eq!(tags, (active, dormant, skipped));
}

/// The golden property: exported trace bytes are identical across repeated
/// cold runs, across `--jobs 1` vs `--jobs 8`, and across warm incremental
/// rebuilds of the same edit.
#[test]
fn trace_bytes_identical_across_jobs_and_runs() {
    let p = three_module_project();
    let mut seq = traced_builder(1);
    let mut par = traced_builder(8);
    let cold_seq = chrome_json(&seq.build(&p).unwrap());
    let cold_par = chrome_json(&par.build(&p).unwrap());
    assert_eq!(
        cold_seq, cold_par,
        "cold trace diverged between jobs 1 and 8"
    );

    // A second cold run from a fresh builder reproduces the same bytes.
    let rerun = chrome_json(&traced_builder(1).build(&p).unwrap());
    assert_eq!(cold_seq, rerun, "cold trace not reproducible across runs");

    // A warm incremental rebuild (query hits, partial recompilation) must
    // also be jobs-independent.
    let mut edited = three_module_project();
    edited.set_file(
        "base".into(),
        "fn g(x: int) -> int { return x * 5 + 1; }".into(),
    );
    let warm_seq = chrome_json(&seq.build(&edited).unwrap());
    let warm_par = chrome_json(&par.build(&edited).unwrap());
    assert_eq!(
        warm_seq, warm_par,
        "warm trace diverged between jobs 1 and 8"
    );
    assert_ne!(cold_seq, warm_seq, "warm trace should differ from cold");
    // The warm trace records cache-hit demand instants.
    assert!(warm_seq.contains("\"hit\":true"));
}

#[test]
fn quick_report_json_matches_pinned_schema() {
    let mut builder = Builder::new(Compiler::new(Config::stateless()));
    let plain = builder.build(&three_module_project()).unwrap();
    // A stateful demo build, then a `mathx` edit audited by depcheck after
    // the committed function cache was corrupted: a report with recovery
    // records and a depcheck verdict.
    let dir = demo_copy("schema");
    let flags = ["--stateful".to_string(), "--fn-cache".to_string()];
    BuildService::new(&dir, &flags).unwrap().build().unwrap();
    let ircache = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.to_string_lossy().contains("/.sfcc-state.ircache."))
        .expect("a committed function cache");
    std::fs::write(ircache, b"junk").unwrap();
    let mathx = dir.join("mathx.mc");
    let source = std::fs::read_to_string(&mathx).unwrap();
    std::fs::write(&mathx, source.replace("1000000007", "998244353")).unwrap();
    let recovered = BuildService::new(&dir, &flags).unwrap().depcheck().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    for report in [&plain, &recovered] {
        let text = report.to_json();
        validate_report_json(&text).expect("report must match its schema");
        // A number of the build is printed once, in `metrics`; outside it
        // only the state generation and the depcheck verdict are numbers.
        let mut numbers = Vec::new();
        numeric_leaves(&json::parse(&text).unwrap(), "", &mut numbers);
        numbers.retain(|path| {
            path != ".state_generation"
                && !path.starts_with(".depcheck.")
                && !path.starts_with(".metrics.")
        });
        assert!(numbers.is_empty(), "numbers outside `metrics`: {numbers:?}");
    }
    let doc = json::parse(&recovered.to_json()).unwrap();
    let recoveries = doc["metrics"]["recovery.recovered_files"]["value"].as_u64();
    assert!(recoveries >= Some(1), "{recoveries:?}");
    assert!(doc["depcheck"]["enabled"] == Value::Bool(true));

    // Schema drift is an error, not a silent pass: a renamed key, a
    // missing block, and invalid JSON are all rejected.
    let text = plain.to_json();
    let renamed = text.replace("\"metrics\":", "\"telemetry\":");
    assert!(validate_report_json(&renamed).is_err());
    assert!(validate_report_json("{}").is_err());
    assert!(validate_report_json("not json").is_err());
}

/// The paths (`.key`, `[i]`) of the numbers in `value`, appended to `out`.
fn numeric_leaves(value: &Value, path: &str, out: &mut Vec<String>) {
    match value {
        Value::Num(_) | Value::Int(_) => out.push(path.to_string()),
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                numeric_leaves(item, &format!("{path}[{i}]"), out);
            }
        }
        Value::Obj(fields) => {
            for (key, field) in fields {
                numeric_leaves(field, &format!("{path}.{key}"), out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// A stateful builder with the function cache on, persisting under
/// `dir/<tag>.state`.
fn stateful_builder(dir: &Path, tag: &str, traced: bool) -> Builder {
    let config = Config::stateful()
        .with_state_path(dir.join(format!("{tag}.state")))
        .with_function_cache()
        .with_jobs(2);
    let builder = Builder::new(Compiler::new(config)).with_jobs(2);
    if traced {
        builder.with_tracing()
    } else {
        builder
    }
}

/// Persisted dormancy-state and function-cache bytes, via the commit
/// manifest.
fn persisted_bytes(builder: &Builder, dir: &Path, tag: &str) -> (Vec<u8>, Vec<u8>) {
    builder.compiler().save_state().unwrap();
    let cd = sfcc_faultfs::CommitDir::new(&dir.join(format!("{tag}.state")));
    let m = cd.read_manifest().unwrap().unwrap();
    let state = cd.load_entry(m.entry("state").unwrap()).unwrap();
    let cache = cd.load_entry(m.entry("ircache").unwrap()).unwrap();
    (state, cache)
}

/// Everything a build decided, minus the telemetry block and wall times.
#[derive(Debug, PartialEq)]
struct Decisions {
    rebuilt: Vec<(String, bool)>,
    /// Pass outcomes, query hits and misses, executed cost units.
    counts: [u64; 6],
    executed: Vec<String>,
}

fn decisions(report: &BuildReport) -> Decisions {
    Decisions {
        rebuilt: report
            .modules
            .iter()
            .map(|m| (m.name.clone(), m.rebuilt()))
            .collect(),
        counts: [
            "outcomes.active",
            "outcomes.dormant",
            "outcomes.skipped",
            "query.hits",
            "query.misses",
            "build.executed_cost_units",
        ]
        .map(|name| report.metric(name)),
        executed: report.query.executed.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// No observer effect: a traced builder and an untraced builder
    /// replaying the same random edit script produce byte-identical
    /// images, state files, and cache files, and identical build
    /// decisions (rebuild flags, query stats, pass outcomes).
    #[test]
    fn tracing_changes_no_build_output(seed in any::<u64>()) {
        let dir = scratch_dir(&format!("prop-{}", seed % 1000));
        let config = GeneratorConfig::small(seed % 1000);
        let mut model = generate_model(&config);
        let mut script = EditScript::new(seed ^ 0x51ed_2701_89ab_cdef);

        let mut plain = stateful_builder(&dir, "plain", false);
        let mut traced = stateful_builder(&dir, "traced", true);

        for commit in 0..4usize {
            if commit > 0 {
                script.commit(&mut model);
            }
            let p = model.render();
            let plain_report = plain.build(&p).unwrap();
            let traced_report = traced.build(&p).unwrap();

            prop_assert!(plain_report.trace.is_none());
            prop_assert!(traced_report.trace.is_some());
            prop_assert_eq!(
                to_bytes(&plain_report.program),
                to_bytes(&traced_report.program),
                "image diverged at commit {}", commit
            );
            prop_assert_eq!(
                decisions(&plain_report),
                decisions(&traced_report),
                "build decisions diverged at commit {}", commit
            );
            let (plain_state, plain_cache) = persisted_bytes(&plain, &dir, "plain");
            let (traced_state, traced_cache) = persisted_bytes(&traced, &dir, "traced");
            prop_assert_eq!(plain_state, traced_state, "state diverged at commit {}", commit);
            prop_assert_eq!(plain_cache, traced_cache, "fn-cache diverged at commit {}", commit);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Golden bytes: every document kind sfcc emits, pinned to constants. A
// failure here means an emitter changed a byte that readers of reports,
// traces or daemon frames may depend on; fix the emitter unless a format
// change is the point.
// ---------------------------------------------------------------------------

/// A report exercising every block: a rebuilt module and a reused one,
/// depcheck findings, a quarantined path, strings that need escaping, and
/// a metrics snapshot of gauges, two counters and a histogram.
fn golden_report() -> BuildReport {
    use sfcc_buildsys::report::{ModuleOutput, ModuleReport, QueryStats};
    use sfcc_buildsys::{DepFinding, DepFindingKind, DepcheckReport};
    let registry = sfcc_trace::Registry::new();
    for (name, value) in [
        ("build.wall_ns", 123_456),
        ("build.link_ns", 2_000),
        ("build.compile_ns", 150),
        ("build.rebuilt_count", 1),
        ("build.jobs", 2),
        ("outcomes.active", 1),
        ("outcomes.dormant", 1),
        ("outcomes.skipped", 1),
        ("query.misses", 4),
        ("query.loaded", 3),
        ("fngrain.signature_hits", 1),
        ("fngrain.signature_misses", 2),
        ("fngrain.fn_tasks_executed", 3),
        ("fngrain.cutoff_saved", 4),
        ("snapshot.clones", 2),
        ("snapshot.cost_units", 40),
        ("snapshot.reused", 1),
        ("batch.count", 3),
        ("batch.max_cost", 17),
        ("recovery.recovered_files", 1),
        ("cas.enabled", 0),
        ("cas.hits", 0),
        ("cas.misses", 0),
        ("cas.evictions", 0),
        ("cas.publishes", 0),
        ("cas.entries", 0),
        ("cas.bytes", 0),
        ("pass.inline.total_ns", 500),
        ("pass.inline.skipped", 1),
        ("pass.dce.total_ns", 300),
        ("pass.dce.runs", 1),
        ("pass.dce.skipped", 0),
        ("slot.0.total_ns", 500),
        ("slot.0.runs", 1),
        ("slot.1.total_ns", 300),
        ("slot.1.runs", 1),
        ("slot.2.total_ns", 0),
        ("slot.2.runs", 0),
        ("module.we\"ird.frontend_ns", 10),
        ("module.we\"ird.lower_ns", 77),
        ("module.we\"ird.middle_ns", 30),
        ("module.we\"ird.backend_ns", 40),
        ("module.we\"ird.state_ns", 50),
        ("module.we\"ird.optimize_ns", 80),
        ("module.we\"ird.active", 1),
        ("module.we\"ird.dormant", 1),
        ("module.we\"ird.skipped", 1),
    ] {
        registry.gauge_set(name, value);
    }
    registry.counter_add("query.hits", 5);
    registry.counter_add("pass.inline.runs", 1);
    registry.histogram_record("cache.lookup_ns", 40);
    registry.histogram_record("cache.lookup_ns", 2);
    BuildReport {
        program: sfcc_backend::Program {
            funcs: Vec::new(),
            entry: None,
        }
        .into(),
        modules: vec![
            ModuleReport {
                name: "base".to_string(),
                output: None,
            },
            ModuleReport {
                name: "we\"ird".to_string(),
                output: Some(ModuleOutput::default()),
            },
        ],
        query: QueryStats {
            rematerialized: vec!["parse(base)".to_string()],
            executed: vec!["checkfn(we\"ird::f)".to_string(), "link".to_string()],
        },
        outcome: "success".to_string(),
        state_generation: 12,
        quarantined: vec!["/p/.sfcc-state.g1\\x\n.corrupt".to_string()],
        depcheck: Some(DepcheckReport {
            findings: vec![DepFinding {
                kind: DepFindingKind::StaleServe,
                task: "frontend(lib)".to_string(),
                resource: "src:lib".to_string(),
                detail: "declared \"a\"\tobserved \u{1}b/c".to_string(),
            }],
            tasks_checked: 38,
            accesses: 12,
        }),
        metrics: registry.snapshot(),
        trace: None,
    }
}

const GOLDEN_REPORT: &str = r#"{"outcome":"success","state_generation":12,"query":{"rematerialized":["parse(base)"],"executed":["checkfn(we\"ird::f)","link"]},"recovery":{"quarantined":["/p/.sfcc-state.g1\\x\n.corrupt"]},"depcheck":{"enabled":true,"missing":0,"redundant":0,"stale":1,"untracked_io":0,"tasks_checked":38,"accesses":12,"findings":[{"kind":"stale-serve","task":"frontend(lib)","resource":"src:lib","detail":"declared \"a\"\tobserved \u0001b/c"}]},"modules":[{"name":"base","rebuilt":false},{"name":"we\"ird","rebuilt":true}],"metrics":{"batch.count":{"type":"gauge","value":3},"batch.max_cost":{"type":"gauge","value":17},"build.compile_ns":{"type":"gauge","value":150},"build.jobs":{"type":"gauge","value":2},"build.link_ns":{"type":"gauge","value":2000},"build.rebuilt_count":{"type":"gauge","value":1},"build.wall_ns":{"type":"gauge","value":123456},"cache.lookup_ns":{"type":"histogram","count":2,"sum":42,"min":2,"max":40},"cas.bytes":{"type":"gauge","value":0},"cas.enabled":{"type":"gauge","value":0},"cas.entries":{"type":"gauge","value":0},"cas.evictions":{"type":"gauge","value":0},"cas.hits":{"type":"gauge","value":0},"cas.misses":{"type":"gauge","value":0},"cas.publishes":{"type":"gauge","value":0},"fngrain.cutoff_saved":{"type":"gauge","value":4},"fngrain.fn_tasks_executed":{"type":"gauge","value":3},"fngrain.signature_hits":{"type":"gauge","value":1},"fngrain.signature_misses":{"type":"gauge","value":2},"module.we\"ird.active":{"type":"gauge","value":1},"module.we\"ird.backend_ns":{"type":"gauge","value":40},"module.we\"ird.dormant":{"type":"gauge","value":1},"module.we\"ird.frontend_ns":{"type":"gauge","value":10},"module.we\"ird.lower_ns":{"type":"gauge","value":77},"module.we\"ird.middle_ns":{"type":"gauge","value":30},"module.we\"ird.optimize_ns":{"type":"gauge","value":80},"module.we\"ird.skipped":{"type":"gauge","value":1},"module.we\"ird.state_ns":{"type":"gauge","value":50},"outcomes.active":{"type":"gauge","value":1},"outcomes.dormant":{"type":"gauge","value":1},"outcomes.skipped":{"type":"gauge","value":1},"pass.dce.runs":{"type":"gauge","value":1},"pass.dce.skipped":{"type":"gauge","value":0},"pass.dce.total_ns":{"type":"gauge","value":300},"pass.inline.runs":{"type":"counter","value":1},"pass.inline.skipped":{"type":"gauge","value":1},"pass.inline.total_ns":{"type":"gauge","value":500},"query.hits":{"type":"counter","value":5},"query.loaded":{"type":"gauge","value":3},"query.misses":{"type":"gauge","value":4},"recovery.recovered_files":{"type":"gauge","value":1},"slot.0.runs":{"type":"gauge","value":1},"slot.0.total_ns":{"type":"gauge","value":500},"slot.1.runs":{"type":"gauge","value":1},"slot.1.total_ns":{"type":"gauge","value":300},"slot.2.runs":{"type":"gauge","value":0},"slot.2.total_ns":{"type":"gauge","value":0},"snapshot.clones":{"type":"gauge","value":2},"snapshot.cost_units":{"type":"gauge","value":40},"snapshot.reused":{"type":"gauge","value":1}}}"#;

/// `minicc build demo --trace t.json`'s trace, in process: a stateless
/// one-request session over a copy of `demo/`.
fn golden_demo_trace() -> String {
    let dir = demo_copy("golden-demo");
    let mut session = BuildService::new(&dir, &[]).unwrap();
    session.set_tracing(true);
    let built = session.build().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    built.report.trace.expect("traced").to_chrome_json(false)
}

#[test]
fn quick_emitted_json_bytes_are_pinned() {
    use sfcc_daemon::protocol::{error_response, ok_response, ErrorKind};
    use sfcc_daemon::Request;
    assert_eq!(golden_report().to_json(), GOLDEN_REPORT);

    // The demo trace: 35 636 bytes, pinned by length and FNV-64.
    let trace = golden_demo_trace();
    assert!(
        trace.starts_with(r#"{"displayTimeUnit":"ns","traceEvents":[{"name":"build","cat":"build","ph":"X","ts":0,"dur":2615,"pid":1,"tid":1,"args":{"seq":0,"cost":0}},{"name":"mathx","cat":"module","#),
        "{}",
        &trace[..trace.len().min(200)]
    );
    assert_eq!(
        (trace.len(), sfcc_codec::fnv64(trace.as_bytes())),
        (35_636, 0x4b06_0ded_f868_0c80)
    );

    let request = Request {
        cmd: "run".to_string(),
        dir: Some("/p/\"q\"".to_string()),
        module: Some("m\\n".to_string()),
        out: Some("/p/a.sbx".to_string()),
        args: vec!["--stateful".into(), "--jobs".into(), "8".into()],
        prog_args: vec![21, -3, 9_007_199_254_740_992],
    };
    assert_eq!(
        request.to_json(),
        r#"{"cmd":"run","dir":"/p/\"q\"","module":"m\\n","out":"/p/a.sbx","args":["--stateful","--jobs","8"],"prog_args":[21,-3,9007199254740992]}"#
    );
    assert_eq!(Request::bare("ping").to_json(), r#"{"cmd":"ping"}"#);

    let members = Value::obj([
        ("image", "/p/a b\"c.sbx".into()),
        ("modules", 3u64.into()),
        ("prints", [1i64, -2].into_iter().collect()),
        ("return", Value::Null),
        ("clean", true.into()),
        ("report", Value::obj([("x", Value::Arr(Vec::new()))])),
    ]);
    assert_eq!(
        json::write(&ok_response("build", members)),
        r#"{"ok":true,"cmd":"build","image":"/p/a b\"c.sbx","modules":3,"prints":[1,-2],"return":null,"clean":true,"report":{"x":[]}}"#
    );
    assert_eq!(
        json::write(&ok_response("ping", Value::Null)),
        r#"{"ok":true,"cmd":"ping"}"#
    );
    assert_eq!(
        json::write(&error_response(
            ErrorKind::OutsideRoot,
            "project `/x` is \"outside\"\n"
        )),
        r#"{"ok":false,"error":{"kind":"outside-root","message":"project `/x` is \"outside\"\n"}}"#
    );
}
