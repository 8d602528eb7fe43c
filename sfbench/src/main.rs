//! `sfbench` — the benchmark's command line.
//!
//! ```text
//! sfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! sfbench run [--seed n] [--seconds s] [--runs k] [--trace] [--quick] full set, tables + results file
//! sfbench check <a.json> <b.json> [--spec BENCHMARK.json]             compare two sets
//! sfbench spec                                                        metric lists for BENCHMARK.json
//! ```
//!
//! Common options: `--out <dir>` (default `target/sfbench`; everything the
//! benchmark writes goes there) and `--minicc <path>` (default: the binary
//! beside `sfbench`). `run --commit <id>` records which commit a set
//! measured.

use sfbench::report::{self, Host, Metric, END_TO_END};
use sfbench::stats::Summary;
use sfbench::workloads::{self, Plan, Workload, WORKLOADS};
use sfbench::{check, e2e, lane, layers};
use sfcc_trace::json::{self, escape_into, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 30;

const USAGE: &str = "usage:
  sfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--minicc <path>]
  sfbench run [--seed <n>] [--seconds <s>] [--runs <k>] [--trace] [--quick] [--commit <id>] [--workload <name>]... [--out <dir>] [--minicc <path>]
  sfbench check <a.json> <b.json> [--spec <BENCHMARK.json>]
  sfbench spec";

/// Command-line options shared by the run modes.
#[derive(Debug, Default)]
struct Options {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    runs: Option<usize>,
    trace: Option<String>,
    quick: bool,
    out: Option<PathBuf>,
    minicc: Option<PathBuf>,
    spec: Option<PathBuf>,
    commit: Option<String>,
    operands: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` expects a value\n\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("`{flag}` expects a number, got `{text}`"))
        }
        match arg.as_str() {
            "--workload" => options.workloads.push(value("--workload")?),
            "--seed" => options.seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => options.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--runs" => options.runs = Some(number("--runs", value("--runs")?)?),
            "--quick" => options.quick = true,
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            "--minicc" => options.minicc = Some(PathBuf::from(value("--minicc")?)),
            "--spec" => options.spec = Some(PathBuf::from(value("--spec")?)),
            "--commit" => options.commit = Some(value("--commit")?),
            // `--trace 0|1` for a single run, bare `--trace` for a set.
            "--trace" => {
                let explicit = iter.next_if(|next| matches!(next.as_str(), "0" | "1"));
                options.trace = Some(explicit.cloned().unwrap_or_else(|| "1".to_string()));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"));
            }
            operand => options.operands.push(operand.to_string()),
        }
    }
    Ok(options)
}

impl Options {
    fn traced(&self) -> bool {
        self.trace.as_deref() == Some("1")
    }

    fn out(&self) -> PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/sfbench"))
    }

    fn plan(&self) -> Plan {
        if self.quick {
            Plan::quick()
        } else {
            Plan::timed(self.seconds.unwrap_or(DEFAULT_SECONDS))
        }
    }

    fn selected(&self) -> Result<Vec<Workload>, String> {
        let chosen: Vec<Workload> = if self.workloads.is_empty() {
            WORKLOADS.to_vec()
        } else {
            self.workloads
                .iter()
                .map(|name| {
                    workloads::find(name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{name}`; known: {}", known.join(", "))
                    })
                })
                .collect::<Result<_, _>>()?
        };
        Ok(if self.quick {
            chosen.into_iter().map(Workload::quick).collect()
        } else {
            chosen
        })
    }
}

/// What one run of one workload produced, traced or not.
struct RunOutcome {
    metrics: Vec<Metric>,
    /// What the run reports beside its metrics, with no bound on it.
    reported: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// `(full, incr, noop)` requests made and the tail percentile used.
    counts: Option<(usize, usize, usize, u32)>,
    errors: Vec<String>,
}

fn one_run(
    options: &Options,
    minicc: &Path,
    workload: &Workload,
    seed: u64,
) -> Result<RunOutcome, String> {
    let out = options.out();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create `{}`: {e}", out.display()))?;
    let plan = options.plan();
    if options.traced() {
        let run = layers::run(minicc, workload, seed, &plan, &out)?;
        let path = layers::trace_path(&out, workload.name);
        std::fs::write(&path, &run.trace_json)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        Ok(RunOutcome {
            metrics: run.metrics,
            reported: Vec::new(),
            attempted: run.attempted,
            failed: run.failed,
            counts: None,
            errors: run.errors,
        })
    } else {
        let run = e2e::run(minicc, workload, seed, &plan, &out)?;
        Ok(RunOutcome {
            metrics: report::end_to_end(&run),
            reported: report::reported(&run),
            attempted: run.ops.attempted,
            failed: run.ops.failed,
            counts: Some((
                run.full_ms.len(),
                run.incr_ms.len(),
                run.noop_ms.len(),
                run.incr_tail().1,
            )),
            errors: run.errors,
        })
    }
}

/// One run of one workload. The last line of standard output is the
/// result object; the line before it says how many samples stand behind
/// each value and, untraced, how many requests of each class were made and
/// what the run reports beside the bounded metrics.
fn drive(options: &Options) -> Result<ExitCode, String> {
    let [name] = options.workloads.as_slice() else {
        return Err(format!("a single run expects one `--workload`\n\n{USAGE}"));
    };
    let workload = options
        .selected()?
        .pop()
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = options.seed.ok_or("a single run expects `--seed`")?;
    let minicc = lane::locate_minicc(options.minicc.as_deref())?;
    if let Some(warning) = Host::detect().load_warning() {
        eprintln!("{warning}");
    }
    let outcome = one_run(options, &minicc, &workload, seed)?;
    for error in &outcome.errors {
        eprintln!("{}: {error}", workload.name);
    }
    let samples: Vec<String> = outcome
        .metrics
        .iter()
        .chain(&outcome.reported)
        .map(|m| m.samples.to_string())
        .collect();
    let mut detail = format!("{{\"samples\": [{}]", samples.join(", "));
    if let Some((full, incr, noop, tail)) = outcome.counts {
        let _ = write!(
            detail,
            ", \"requests\": {{\"full\": {full}, \"incr\": {incr}, \"noop\": {noop}}}, \"tail_percentile\": {tail}, \"reported\": {{{}}}",
            report::metrics_json(&outcome.reported)
        );
    }
    println!("{detail}}}");
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// The two JSON lines of a single run made in a process of its own.
///
/// A set cannot make its runs in one process: the resource usage of
/// waited-for children belongs to the process and never resets, so a
/// workload's `peak_rss_mb` would include the reaped daemon of the
/// workload before it.
fn child_run(options: &Options, workload: &Workload, seed: u64) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find sfbench itself: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name, "--seed", &seed.to_string()])
        .args(["--trace", if options.traced() { "1" } else { "0" }])
        .arg("--out")
        .arg(options.out());
    if options.quick {
        command.arg("--quick");
    } else {
        let seconds = options.seconds.unwrap_or(DEFAULT_SECONDS);
        command.args(["--seconds", &seconds.to_string()]);
    }
    if let Some(minicc) = &options.minicc {
        command.arg("--minicc").arg(minicc);
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of `{}`: {e}", workload.name))?;
    if !output.status.success() {
        return Err(format!(
            "the run of `{}` ended with {}",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the run printed no result")?;
    let detail = lines.next().ok_or("the run printed no sample counts")?;
    Ok((json::parse(result)?, json::parse(detail)?))
}

/// One metric of a set: its values over the set's runs.
struct Column {
    /// Whether `BENCHMARK.json` holds a bound against the metric.
    bounded: bool,
    name: String,
    unit: String,
    samples: u64,
    values: Vec<f64>,
}

/// A full set: every selected workload `--runs` times on one seed, one
/// table and one JSON line per workload, and a results file under `--out`.
fn run_set(options: &Options) -> Result<ExitCode, String> {
    lane::locate_minicc(options.minicc.as_deref())?;
    let selected = options.selected()?;
    let seed = options.seed.unwrap_or(42);
    let runs = options
        .runs
        .unwrap_or(if options.quick { 1 } else { 3 })
        .max(1);
    let host = Host::detect();
    let mut warnings = Vec::new();
    if let Some(warning) = host.load_warning() {
        eprintln!("{warning}");
        warnings.push(warning);
    }
    let out = options.out();
    let mut documents = Vec::new();
    let mut any_failed = false;
    for workload in &selected {
        let mut columns: Vec<Column> = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        let mut requests = None;
        for _ in 0..runs {
            let (result, detail) = child_run(options, workload, seed)?;
            let count = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0);
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("a result without metrics")?;
            let samples = detail.get("samples").and_then(Value::as_arr).unwrap_or(&[]);
            let reported = detail.get("reported").and_then(Value::as_obj);
            for (i, (name, metric)) in metrics
                .iter()
                .chain(reported.into_iter().flatten())
                .enumerate()
            {
                if columns.len() <= i {
                    columns.push(Column {
                        bounded: i < metrics.len(),
                        name: name.clone(),
                        unit: metric
                            .get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        samples: 0,
                        values: Vec::new(),
                    });
                }
                columns[i].samples = samples.get(i).and_then(Value::as_u64).unwrap_or(1);
                if let Some(Value::Num(value)) = metric.get("value") {
                    columns[i].values.push(*value);
                }
            }
            if let Some(made) = detail.get("requests") {
                requests = Some((
                    count(made, "full"),
                    count(made, "incr"),
                    count(made, "noop"),
                    count(&detail, "tail_percentile"),
                ));
            }
        }
        any_failed |= failed > 0;
        let fail_ratio = failed as f64 / attempted.max(1) as f64;

        println!(
            "\n{} — preset {}, flags `{}`, edits {}, {} client(s); seed {seed}, {runs} run(s)",
            workload.name,
            workload.preset.label(),
            workload.flags.join(" "),
            workload.edits_label(),
            workload.clients,
        );
        let mut made = String::new();
        if let Some((full, incr, noop, tail)) = requests {
            println!(
                "  last run: {full} full, {incr} incr, {noop} noop builds; incr_tail_ms is p{tail}; (names) in brackets carry no bound"
            );
            made = format!(
                ",\"requests\":{{\"full\":{full},\"incr\":{incr},\"noop\":{noop}}},\"tail_percentile\":{tail}"
            );
        }
        println!(
            "  {:<34} {:>6} {:>14} {:>14} {:>14} {:>5} {:>8}",
            "metric", "unit", "median", "q1", "q3", "runs", "samples"
        );
        let mut document = String::from("{\"name\":");
        escape_into(&mut document, workload.name);
        let _ = write!(
            document,
            ",\"attempted\":{attempted},\"failed\":{failed},\"fail_ratio\":{}{made},\"metrics\":{{",
            report::json_num(fail_ratio)
        );
        let mut unbounded = String::new();
        for column in &columns {
            let summary = Summary::of(&column.values);
            println!(
                "  {:<34} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>5} {:>8}",
                if column.bounded {
                    column.name.clone()
                } else {
                    format!("({})", column.name)
                },
                column.unit,
                summary.median,
                summary.q1,
                summary.q3,
                summary.n,
                column.samples
            );
            let part = if column.bounded {
                &mut document
            } else {
                &mut unbounded
            };
            if !part.ends_with('{') && !part.is_empty() {
                part.push(',');
            }
            escape_into(part, &column.name);
            part.push(':');
            part.push_str(&report::summary_json(
                &column.unit,
                &summary,
                &column.values,
                column.samples,
            ));
        }
        println!(
            "  {:<34} {:>6} {:>14.4} {:>14} {:>14} {:>5} {:>8}",
            "fail_ratio", "ratio", fail_ratio, "", "", runs, attempted
        );
        if !unbounded.is_empty() {
            let _ = write!(document, "}},\"reported\":{{{unbounded}");
        }
        document.push_str("}}");
        println!("{document}");
        documents.push(document);
    }

    let kind = if options.traced() {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut file = format!(
        "{{\"schema\":\"sfbench-results-1\",\"kind\":\"{kind}\",\"seed\":{seed},\"runs\":{runs},\"quick\":{},",
        options.quick
    );
    if !options.quick {
        let _ = write!(
            file,
            "\"seconds\":{},",
            options.seconds.unwrap_or(DEFAULT_SECONDS)
        );
    }
    if let Some(commit) = &options.commit {
        file.push_str("\"commit\":");
        escape_into(&mut file, commit);
        file.push(',');
    }
    let _ = write!(file, "\"host\":{},\"warnings\":[", host.to_json());
    for (i, warning) in warnings.iter().enumerate() {
        if i > 0 {
            file.push(',');
        }
        escape_into(&mut file, warning);
    }
    let _ = write!(file, "],\"workloads\":[\n{}\n]}}\n", documents.join(",\n"));
    let path = out.join(if options.traced() {
        "layers.json"
    } else {
        "results.json"
    });
    std::fs::write(&path, file).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn check_sets(options: &Options) -> Result<ExitCode, String> {
    let [a, b] = options.operands.as_slice() else {
        return Err(format!("`check` expects two result files\n\n{USAGE}"));
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    };
    let spec_path = options
        .spec
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let bounds = check::parse_bounds(&read(&spec_path.display().to_string())?)?;
    let set_a = check::parse_results(&read(a)?).map_err(|e| format!("`{a}`: {e}"))?;
    let set_b = check::parse_results(&read(b)?).map_err(|e| format!("`{b}`: {e}"))?;
    let comparison = check::compare(&bounds, &set_a, &set_b);
    print!("{}", comparison.table);
    println!(
        "{} violation(s), {} unresolved pairing(s)",
        comparison.violations, comparison.unresolved
    );
    Ok(if comparison.violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints the metric lists of `BENCHMARK.json` as the code defines them
/// (bounds are fixed in the file itself).
fn print_spec() {
    let entry = |name: &str, unit: &str, better: &str| {
        format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| {
            let mut why = String::new();
            escape_into(&mut why, w.why);
            format!("    {{\"name\": \"{}\", \"why\": {why}}}", w.name)
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|&(name, unit, better)| entry(name, unit, better))
        .collect();
    let per_layer: Vec<String> = layers::per_layer_spec()
        .iter()
        .map(|(name, unit, better)| entry(name, unit, better))
        .collect();
    println!(
        "{{\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(command @ ("run" | "check" | "spec")) => (command, &args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => ("drive", &args[..]),
    };
    let result = parse(rest).and_then(|options| match command {
        "run" => run_set(&options),
        "check" => check_sets(&options),
        "spec" => {
            print_spec();
            Ok(ExitCode::SUCCESS)
        }
        _ => drive(&options),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sfbench: {message}");
            ExitCode::from(2)
        }
    }
}
