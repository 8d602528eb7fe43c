//! `minicc` — the command-line driver for MiniC projects.
//!
//! ```text
//! minicc build <dir> [-o out.sbx] [build flags]   compile + link to an image
//! minicc run   <dir> [build flags] -- <args...>   build and run main.main
//! minicc exec  <file.sbx> -- <args...>            run a prebuilt image
//! minicc ir    <dir> <module> [build flags]       print a module's optimized IR
//! minicc bc    <dir> [build flags]                disassemble the linked program
//! minicc state <state-file>                       inspect a dormancy-state file
//! minicc fsck  <dir|state-file> [image.sbx...]    verify + repair state/CAS dirs
//! minicc stats <dir>                              metrics of the last build
//! minicc trace-check <trace.json>                 validate an exported trace
//! minicc depcheck <dir> [build flags]             audit dependency soundness
//! ```
//!
//! Build flags: `--stateful` (persist dormancy state in `<dir>/.sfcc-state`),
//! `--stateless` (default), `--fn-cache`, `--cas <dir>` (shared
//! content-addressed artifact store; `SFCC_CAS`/`SFCC_CAS_BUDGET` env
//! equivalents), `--jobs N` (default: all cores),
//! `--durable` (fsync durable writes), `-O0`/`-O1`/`-O2`; `build` also
//! accepts `--report json` for a machine-readable summary including
//! query-engine hit/miss counts and corruption-recovery counters, and
//! `--trace <out.json>` to export a deterministic Chrome/Perfetto span
//! trace of the build (`--trace-wall` adds non-deterministic wall-clock
//! annotations). Every `build` persists its JSON report to
//! `<dir>/.sfcc-report.json`, which `minicc stats` pretty-prints.
//!
//! A build-class command (`build`/`run`/`ir`/`bc`/`depcheck`) is one
//! request: the command line parses once — build flags through
//! `SessionFlags`, the one grammar the daemon uses too — into a
//! `sfcc_daemon::Request`, which a one-request local `BuildService`
//! session serves, or a warm daemon (`--daemon`, `minicc client`). This
//! file holds no build logic of its own; both routes print through the
//! same renderers.
//!
//! Fault injection (testing only): `--fault-plan <spec>` or the
//! `SFCC_FAULT_PLAN` environment variable installs a deterministic fault
//! plan (see `sfcc-faultfs`) for the whole invocation, e.g.
//! `SFCC_FAULT_PLAN=crash-at:5 minicc build p --stateful` simulates a crash
//! at the fifth durable I/O operation.

use sfcc::persist;
use sfcc_backend::{disasm_program, load_image};
use sfcc_buildsys::serve::{self, BuildService, SessionFlags, REPORT_FILE, STALE_REPORT_FILE};
use sfcc_buildsys::BuildReport;
use sfcc_daemon::{Daemon, DaemonOptions, ErrorKind, Reply, Request};
use sfcc_faultfs::FaultPlan;
use sfcc_trace::json::Value;
use std::mem::ManuallyDrop;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// `println!` for a CLI whose reader may hang up (`minicc … | head -1`): a
/// closed stdout drops the rest of the output instead of panicking, and the
/// exit code still reports what the command did.
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn out(text: impl std::fmt::Display) {
    use std::io::Write;
    match write!(std::io::stdout(), "{text}") {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            panic!("failed printing to stdout: {e}")
        }
        _ => {}
    }
}

const USAGE: &str = "minicc — incremental MiniC compiler driver

usage:
  minicc build <dir> [-o <out.sbx>] [--report json] [--trace <out.json>] [build flags]
  minicc run   <dir> [build flags] -- <args...>
  minicc exec  <file.sbx> -- <args...>
  minicc ir    <dir> <module> [build flags]
  minicc bc    <dir> [build flags]
  minicc state <state-file>
  minicc fsck  <dir|state-file> [image.sbx ...]
  minicc stats <dir>
  minicc trace-check <trace.json>
  minicc depcheck <dir> [--report json] [build flags]
  minicc serve <root-dir> [--socket <path>] [serve flags]
  minicc client <socket> <build|run|ir|depcheck|stats|ping|shutdown> [...]

build flags:
  --stateful     stateful compilation; state persists in <dir>/.sfcc-state
  --stateless    stateless compilation (default)
  --fn-cache     enable the function-level IR cache
  --cas <dir>    attach a shared content-addressed artifact store rooted at
                 <dir>/.sfcc-cas; artifacts are keyed on (function
                 fingerprint, pass pipeline, flag digest, backend version),
                 so distinct projects built with identical configuration
                 share optimized IR byte-identically (implies --fn-cache;
                 SFCC_CAS=<dir> is equivalent)
  --cas-budget <bytes>  evict least-recently-used store entries beyond this
                 size budget (SFCC_CAS_BUDGET=<bytes> is equivalent)
  --jobs <N>     worker threads on one shared pool, stolen between module
                 waves and per-function optimization tasks (default: all
                 available cores); every value produces byte-identical
                 output — N only changes wall time
  --parallel     alias for the default --jobs behavior
  --durable      fsync state/cache/image writes (crash-consistent either
                 way; --durable also survives OS-level crashes)
  --report json  (build) print a JSON build report instead of the summary
  --trace <out.json>  (build) export a Chrome/Perfetto trace of the build;
                 the timeline is deterministic cost units, so the bytes are
                 identical across runs and --jobs values
  --trace-wall   annotate trace events with measured wall-clock nanoseconds
                 (makes the trace non-deterministic)
  -O0 | -O1 | -O2  optimization level (default -O2)
  --daemon <socket>  (build/run/ir/depcheck) serve the request through a
                 warm `minicc serve` daemon when one is reachable at
                 <socket>; falls back to a local cold build otherwise.
                 Build flags and SFCC_CAS/SFCC_CAS_BUDGET travel with the
                 request; --report json, --trace and --trace-wall cannot
                 (the report and trace stay in the serving process) and are
                 refused together with --daemon

build daemon:
  `minicc serve <root-dir>` starts a warm build daemon on a unix socket
  (default <root-dir>/daemon.sock): per-project sessions keep the query
  engine, function cache, CAS handle, and per-function dormancy stamps
  resident, so repeat builds skip cold start. Projects must live under
  <root-dir>. Serve flags: --socket <path>, --max-active <N> (default 2),
  --max-queued <N> (default 16), --timeout-ms <N> (default 30000),
  --idle-snapshot-ms <N>. SIGTERM at any point leaves every state dir
  acceptable to a cold `minicc build`.
  `minicc client <socket> <cmd> ...` sends one request; build/run/ir/
  depcheck take the operands and build flags of the local command (not
  --report json, --trace, --trace-wall or --daemon). Exit codes:
    0  success (and `shutdown` of an already-gone daemon)
    1  the request failed (build error, depcheck findings)
    2  transport failure (cannot connect, protocol error) or, for
       depcheck, the audited build itself failed
    3  daemon at capacity (typed busy; retry later)
    4  request timed out in the daemon's admission queue

observability:
  every `build` persists its JSON report to <dir>/.sfcc-report.json;
  `minicc stats <dir>` pretty-prints that report's metrics registry, and
  `minicc trace-check <trace.json>` validates an exported trace (schema +
  strict span nesting) and prints summary statistics. A build that fails
  moves the previous report to .sfcc-report.json.stale first, so `stats`
  can never mistake it for the failed build's telemetry.

dependency soundness:
  `minicc depcheck <dir>` runs an instrumented cold build plus a no-op
  rebuild (read-only: no state is saved, no report file is written) and
  diffs every task's actual resource accesses against its declared
  dependencies. fsck-style exit codes make it CI-gateable:
    0  clean — declared deps match observed accesses exactly
    1  findings — missing/redundant deps, stale serves, or untracked I/O
    2  the audited build itself failed

fault injection (testing):
  --fault-plan <spec>   deterministic fault plan for this invocation, e.g.
                        crash-at:5, torn:3:16, fail:2, enospc:1,
                        bitflip:4:12, fail-rename:1 (comma-separated);
                        the SFCC_FAULT_PLAN env var is equivalent";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The fault plan applies to the whole invocation, so it is peeled off
    // before command dispatch; the guard stays alive until exit.
    let mut plan_spec = std::env::var("SFCC_FAULT_PLAN").ok();
    if let Some(i) = args.iter().position(|a| a == "--fault-plan") {
        if i + 1 >= args.len() {
            eprintln!("`--fault-plan` expects a spec\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        plan_spec = Some(args.remove(i + 1));
        args.remove(i);
    }
    let _fault_guard = match plan_spec.as_deref() {
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => Some(sfcc_faultfs::install(plan)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "build" | "run" | "ir" | "bc" | "depcheck" => cmd_request(command, rest),
        "exec" => cmd_exec(rest),
        "state" => cmd_state(rest),
        "fsck" => cmd_fsck(rest),
        "stats" => cmd_stats(rest),
        "trace-check" => cmd_trace_check(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

// ─── build-class commands: one request, served by a session ───

/// One build-class command line, parsed once: the request either route
/// serves, plus the options that never leave this process.
struct Invocation {
    request: Request,
    /// `--report json`: print the JSON build report instead of the summary.
    report_json: bool,
    /// `--trace <path>`: export a Chrome-trace JSON of the build.
    trace: Option<PathBuf>,
    /// `--trace-wall`: include wall-clock annotations in the trace.
    trace_wall: bool,
    /// `--daemon <socket>`: route through a warm daemon when reachable.
    daemon: Option<PathBuf>,
}

/// Resolves a path a daemon would otherwise interpret against *its* cwd.
fn absolutize(path: &Path) -> PathBuf {
    std::env::current_dir().unwrap_or_default().join(path)
}

/// The integers after `--`.
fn parse_prog_args<'a>(values: impl Iterator<Item = &'a String>) -> Result<Vec<i64>, String> {
    values
        .map(|value| {
            value
                .parse()
                .map_err(|_| format!("program argument `{value}` is not an integer"))
        })
        .collect()
}

fn parse_invocation(cmd: &str, args: &[String]) -> Result<Invocation, String> {
    let mut flags = SessionFlags::parse(&[])?;
    let mut operands: Vec<&str> = Vec::new();
    let mut output: Option<PathBuf> = None;
    let mut invocation = Invocation {
        request: Request::bare(cmd),
        report_json: false,
        trace: None,
        trace_wall: false,
        daemon: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--report" => {
                let format = iter.next().ok_or("`--report` expects a format")?;
                if format != "json" {
                    return Err(format!(
                        "unsupported report format `{format}` (only `json`)"
                    ));
                }
                invocation.report_json = true;
            }
            "--trace" => {
                let path = iter.next().ok_or("`--trace` expects an output path")?;
                invocation.trace = Some(PathBuf::from(path));
            }
            "--trace-wall" => invocation.trace_wall = true,
            "--daemon" => {
                let socket = iter.next().ok_or("`--daemon` expects a socket path")?;
                invocation.daemon = Some(PathBuf::from(socket));
            }
            "-o" => {
                let path = iter.next().ok_or("`-o` expects a path")?;
                output = Some(PathBuf::from(path));
            }
            "--" => invocation.request.prog_args = parse_prog_args(iter.by_ref())?,
            other => {
                if flags.accept(other, &mut iter)? {
                    continue;
                }
                if other.starts_with('-') {
                    return Err(format!("unknown flag `{other}`\n\n{USAGE}"));
                }
                operands.push(other);
            }
        }
    }
    // Options a command would drop are refused, not dropped.
    if cmd != "build" && output.is_some() {
        return Err("`-o` applies to `build` only".to_string());
    }
    if cmd != "build" && (invocation.trace.is_some() || invocation.trace_wall) {
        return Err("`--trace`/`--trace-wall` apply to `build` only".to_string());
    }
    if invocation.report_json && !matches!(cmd, "build" | "depcheck") {
        return Err("`--report json` applies to `build` and `depcheck` only".to_string());
    }
    let dir = match (cmd, operands.as_slice()) {
        ("ir", [dir, module]) => {
            invocation.request.module = Some((*module).to_string());
            *dir
        }
        ("ir", _) => {
            return Err(format!(
                "`ir` expects a project directory and a module name\n\n{USAGE}"
            ));
        }
        (_, [dir]) => *dir,
        _ => return Err(format!("`{cmd}` expects one project directory\n\n{USAGE}")),
    };
    if cmd == "build" && output.is_none() {
        output = Some(Path::new(dir).with_extension("sbx"));
    }
    // The environment stands for flags, so it is resolved here, where the
    // flags are: whichever process serves the request sees `--cas <abs>`.
    if flags.cas.is_none() {
        flags.cas = std::env::var_os("SFCC_CAS").map(PathBuf::from);
    }
    if let Some(store) = &flags.cas {
        flags.cas = Some(absolutize(store));
        if flags.cas_budget.is_none() {
            flags.cas_budget = std::env::var("SFCC_CAS_BUDGET")
                .ok()
                .and_then(|v| v.parse().ok());
        }
    }
    let shown = |path: PathBuf| absolutize(&path).display().to_string();
    invocation.request.dir = Some(shown(PathBuf::from(dir)));
    invocation.request.out = output.map(shown);
    invocation.request.args = flags.to_args();
    Ok(invocation)
}

impl Invocation {
    /// Refuses the options only the serving process could honour: the
    /// report and the trace stay in the daemon, and a reply cannot carry
    /// them back (that needs a `json::Value` writer). Called before
    /// anything is sent.
    fn refuse_local_only(&self, route: &str) -> Result<(), String> {
        let flag = if self.report_json {
            "--report json"
        } else if self.trace.is_some() {
            "--trace"
        } else if self.trace_wall {
            "--trace-wall"
        } else {
            return Ok(());
        };
        Err(format!(
            "`{flag}` cannot be combined with {route}: only a local build can honour it"
        ))
    }
}

/// `build` / `run` / `ir` / `bc` / `depcheck`: through `--daemon` when one
/// is reachable, through a one-request local session otherwise.
fn cmd_request(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    let invocation = parse_invocation(cmd, args)?;
    if let Some(socket) = &invocation.daemon {
        if cmd == "bc" {
            return Err("`bc` has no daemon route; drop `--daemon`".to_string());
        }
        invocation.refuse_local_only("`--daemon`")?;
        if daemon_reachable(socket) {
            let reply = sfcc_daemon::roundtrip(socket, &invocation.request)
                .map_err(|e| format!("daemon request failed: {e}"))?;
            return Ok(render_reply(&invocation.request, &reply));
        }
        eprintln!(
            "daemon at `{}` is unreachable; serving locally",
            socket.display()
        );
    }
    serve_locally(&invocation)
}

/// Opens a session, serves the one request through its typed methods, and
/// renders the result with the printers [`render_reply`] uses.
///
/// The process exits right after, so the session and the report are never
/// dropped: freeing a session's heap node by node is a tenth of a cold
/// request, and nothing in either has a `Drop` that does more than free
/// (everything durable was committed by the request itself).
fn serve_locally(invocation: &Invocation) -> Result<ExitCode, String> {
    let request = &invocation.request;
    let dir = request.dir.as_deref().expect("parsed with a directory");
    let mut session = ManuallyDrop::new(BuildService::new(Path::new(dir), &request.args)?);
    match request.cmd.as_str() {
        "build" => {
            let image = request.out.as_deref().expect("parsed with an output");
            session.set_tracing(invocation.trace.is_some());
            let built = ManuallyDrop::new(session.build_image(Path::new(image))?);
            if let Some(path) = &invocation.trace {
                let trace = built.report.trace.as_ref().expect("the build was traced");
                std::fs::write(path, trace.to_chrome_json(invocation.trace_wall))
                    .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            }
            if invocation.report_json {
                outln!("{}", built.report_json);
            } else {
                print_build(&BuildSummary::of_report(&built.report), image);
            }
        }
        "run" => {
            let ran = ManuallyDrop::new(session.run(&request.prog_args)?);
            print_built_for_run(&BuildSummary::of_report(&ran.built.report));
            print_run(
                &request.prog_args,
                &ran.output.prints,
                ran.output.return_value,
                ran.output.executed,
            );
        }
        "ir" => {
            let module = request.module.as_deref().expect("parsed with a module");
            out(session.ir(module)?);
        }
        "bc" => out(disasm_program(&session.build()?.report.program)),
        "depcheck" => {
            // A failed audit build is exit 2 — distinct from "findings"
            // (1) so CI can tell a broken project apart from a lying one.
            let report = match session.depcheck() {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("{e}");
                    return Ok(ExitCode::from(2));
                }
            };
            let verdict = report.depcheck.as_ref().expect("an audited build");
            if invocation.report_json {
                outln!("{}", report.to_json());
                return Ok(ExitCode::from(u8::from(!verdict.is_clean())));
            }
            return Ok(print_depcheck(dir, &verdict.render(), verdict.is_clean()));
        }
        other => unreachable!("`{other}` is not a build-class command"),
    }
    Ok(ExitCode::SUCCESS)
}

// ─── the renderers: one per request kind, fed by either route ───

/// The numbers of the build summary.
struct BuildSummary {
    modules: u64,
    rebuilt: u64,
    wall_ns: u64,
    /// Pass slots: active, dormant, skipped.
    slots: [u64; 3],
    /// Query hits, misses.
    queries: [u64; 2],
    /// Signature pins held, re-extracted; function tasks ran, cut off.
    fngrain: [u64; 4],
    recovered: u64,
    quarantined: Vec<String>,
}

impl BuildSummary {
    fn of_report(report: &BuildReport) -> BuildSummary {
        let (active, dormant, skipped) = report.outcome_totals();
        let fngrain = &report.fngrain;
        BuildSummary {
            modules: report.modules.len() as u64,
            rebuilt: report.rebuilt_count() as u64,
            wall_ns: report.wall_ns,
            slots: [active as u64, dormant as u64, skipped as u64],
            queries: [report.query.hits, report.query.misses],
            fngrain: [
                fngrain.signature_hits,
                fngrain.signature_misses,
                fngrain.fn_tasks_executed,
                fngrain.cutoff_saved,
            ],
            recovered: report.recovered_files as u64,
            quarantined: report.quarantined.clone(),
        }
    }

    /// From a reply: the flat members, and — in a `build` reply — the
    /// `report` member for what only the full report carries.
    fn of_reply(body: &Value) -> BuildSummary {
        let num = |key: &str| num_at(body, &[key]);
        let report = body.get("report").unwrap_or(&Value::Null);
        let fngrain = |key: &str| num_at(report, &["fngrain", key]);
        let quarantined = report
            .get("recovery")
            .and_then(|r| r.get("quarantined"))
            .and_then(Value::as_arr)
            .map(|paths| {
                paths
                    .iter()
                    .filter_map(|p| p.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        BuildSummary {
            modules: num("modules"),
            rebuilt: num("rebuilt"),
            wall_ns: num("wall_ns"),
            slots: [num("active"), num("dormant"), num("skipped")],
            queries: [num("hits"), num("misses")],
            fngrain: [
                fngrain("signature_hits"),
                fngrain("signature_misses"),
                fngrain("fn_tasks_executed"),
                fngrain("cutoff_saved"),
            ],
            recovered: num("recovered"),
            quarantined,
        }
    }
}

/// The unsigned integer at `path` inside a reply body, `0` when absent.
fn num_at(body: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(body, |value, key| value.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn print_build(summary: &BuildSummary, image: &str) {
    if summary.recovered > 0 {
        outln!(
            "recovered from {} corrupt persistent file(s); quarantined: {}",
            summary.recovered,
            if summary.quarantined.is_empty() {
                "(none)".to_string()
            } else {
                summary.quarantined.join(", ")
            }
        );
    }
    let ([active, dormant, skipped], [hits, misses]) = (summary.slots, summary.queries);
    outln!(
        "built {} module(s) ({} recompiled) in {:.2} ms; pass slots: {active} active, {dormant} dormant, {skipped} skipped; queries: {hits} hit(s), {misses} miss(es)",
        summary.modules,
        summary.rebuilt,
        summary.wall_ns as f64 / 1e6,
    );
    let [held, re_extracted, ran, saved] = summary.fngrain;
    outln!(
        "fn-grain: {held} signature pin(s) held, {re_extracted} re-extracted; {ran} function pipeline task(s) ran, {saved} saved by cutoff"
    );
    outln!("wrote {image}");
}

/// The line `run` prints about the build it ran on.
fn print_built_for_run(summary: &BuildSummary) {
    outln!(
        "built {} module(s) ({} recompiled, {} pass slot(s) skipped)",
        summary.modules,
        summary.rebuilt,
        summary.slots[2]
    );
}

fn print_run(args: &[i64], prints: &[i64], returned: Option<i64>, executed: u64) {
    for value in prints {
        outln!("{value}");
    }
    match returned {
        Some(v) => outln!("main.main({args:?}) = {v}"),
        None => outln!("main.main({args:?}) returned"),
    }
    outln!("({executed} instructions executed)");
}

/// Prints a depcheck verdict; fsck-style exit code (0 clean, 1 findings).
fn print_depcheck(dir: &str, findings: &str, clean: bool) -> ExitCode {
    out(findings);
    if clean {
        outln!(
            "depcheck `{dir}`: clean — every declared dependency was accessed and \
             every access was declared"
        );
    }
    ExitCode::from(u8::from(!clean))
}

fn cmd_exec(args: &[String]) -> Result<ExitCode, String> {
    let (image, prog_args) = match args {
        [image] => (image, Vec::new()),
        [image, dashes, values @ ..] if dashes == "--" => (image, parse_prog_args(values.iter())?),
        _ => return Err(format!("`exec` expects one .sbx image\n\n{USAGE}")),
    };
    let program =
        load_image(Path::new(image)).map_err(|e| format!("cannot load `{image}`: {e}"))?;
    let output = serve::run_main(&program, &prog_args)?;
    print_run(
        &prog_args,
        &output.prints,
        output.return_value,
        output.executed,
    );
    Ok(ExitCode::SUCCESS)
}

/// Resolves a `<dir>` or `<state-file>` operand to the state base path:
/// a directory means its `.sfcc-state` inside.
fn state_base(operand: &str) -> PathBuf {
    let path = Path::new(operand);
    if path.is_dir() {
        path.join(".sfcc-state")
    } else {
        path.to_path_buf()
    }
}

fn cmd_state(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(format!("`state` expects one state-file path\n\n{USAGE}"));
    };
    let path = state_base(path);
    let db = match persist::peek_state(&path) {
        Ok(Some(db)) => db,
        Ok(None) => return Err(format!("no state file at `{}`", path.display())),
        Err(reason) => {
            return Err(format!(
                "state file `{}` is unreadable: {reason} (run `minicc fsck` to repair)",
                path.display()
            ));
        }
    };
    outln!(
        "state file {} — {} module(s), {} function(s) tracked",
        path.display(),
        db.modules.len(),
        db.function_count(),
    );
    let mut module_names: Vec<&String> = db.modules.keys().collect();
    module_names.sort();
    for module_name in module_names {
        let module = &db.modules[module_name];
        outln!("\nmodule {module_name} (build #{}):", module.build_counter);
        let mut fn_names: Vec<&String> = module.functions.keys().collect();
        fn_names.sort();
        for fn_name in fn_names {
            let record = &module.functions[fn_name];
            let bitmap: String = record
                .slots
                .iter()
                .map(|slot| if slot.dormant { '.' } else { 'A' })
                .collect();
            let skips: u32 = record.slots.iter().map(|slot| slot.times_skipped).sum();
            outln!("  {fn_name:<20} {bitmap}  ({skips} skip(s) so far)");
        }
    }
    outln!("\n(A = pass was active at the last build, . = dormant/skippable)");
    Ok(ExitCode::SUCCESS)
}

fn cmd_fsck(args: &[String]) -> Result<ExitCode, String> {
    let Some((target, images)) = args.split_first() else {
        return Err(format!(
            "`fsck` expects a project directory or state-file path\n\n{USAGE}"
        ));
    };
    let base = state_base(target);
    let images: Vec<PathBuf> = images.iter().map(PathBuf::from).collect();
    let report = sfcc::persist::fsck(&base, &images)
        .map_err(|e| format!("fsck of `{}` failed: {e}", base.display()))?;
    outln!(
        "fsck {}: {} file(s) checked",
        base.display(),
        report.checked
    );
    for path in &report.quarantined {
        outln!("  quarantined {}", path.display());
    }
    for path in &report.removed {
        outln!("  removed orphan {}", path.display());
    }
    if report.repaired_manifest {
        outln!("  manifest rewritten without the corrupt entries");
    }
    if report.clean() {
        outln!("  clean");
    } else {
        outln!("  next stateful build recompiles what was lost and rewrites the state");
    }
    // A directory operand may also root a shared artifact store; audit it
    // too, validating every artifact's checksum *and* embedded provenance.
    let target_path = Path::new(target);
    let cas_manifest =
        sfcc_faultfs::CommitDir::new(&target_path.join(sfcc_cas::CAS_BASE)).manifest_path();
    if target_path.is_dir() && cas_manifest.exists() {
        let cas_report = sfcc_cas::fsck(target_path)
            .map_err(|e| format!("cas fsck of `{}` failed: {e}", target_path.display()))?;
        outln!(
            "cas fsck {}: {} artifact(s) checked",
            target_path.join(sfcc_cas::CAS_BASE).display(),
            cas_report.checked
        );
        for path in &cas_report.quarantined {
            outln!("  quarantined {path}");
        }
        if cas_report.removed > 0 {
            outln!("  removed {} orphan file(s)", cas_report.removed);
        }
        if cas_report.repaired_manifest {
            outln!("  manifest rewritten without the corrupt entries");
        }
        if cas_report.clean() {
            outln!("  clean");
        } else if cas_report.quarantined.is_empty() && !cas_report.repaired_manifest {
            // Orphan debris only (shared commits never GC replaced
            // generations) — nothing referenced was touched.
            outln!("  clean after sweep");
        } else {
            outln!("  the store lost artifacts, not correctness: evicted keys miss and recompile");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let [dir] = args else {
        return Err(format!("`stats` expects one project directory\n\n{USAGE}"));
    };
    let path = Path::new(dir).join(REPORT_FILE);
    let stale_path = Path::new(dir).join(STALE_REPORT_FILE);
    if !path.exists() && stale_path.exists() {
        // A build parked the previous report and never completed; refusing
        // beats presenting the prior build's telemetry as current.
        return Err(format!(
            "the last build of `{dir}` did not complete; `{}` holds the report of the \
             previous successful build (rebuild to refresh)",
            stale_path.display()
        ));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read `{}`: {e} (run `minicc build {dir}` first)",
            path.display()
        )
    })?;
    let doc = sfcc_trace::json::parse(&text)
        .map_err(|e| format!("`{}` is not valid JSON: {e}", path.display()))?;
    // Reports predating the outcome stamp are treated as unverifiable.
    let outcome = doc
        .get("outcome")
        .and_then(sfcc_trace::json::Value::as_str)
        .unwrap_or("unknown");
    if outcome != "success" {
        outln!("WARNING: this report's build outcome is `{outcome}`, not `success`");
    }
    let report_generation = doc
        .get("state_generation")
        .and_then(sfcc_trace::json::Value::as_u64)
        .unwrap_or(0);
    // When the project has a persistent state directory, cross-check the
    // report against its current generation: a newer state commit means a
    // later build ran and this telemetry is not from it.
    if report_generation > 0 {
        let state_dir = Path::new(dir).join(".sfcc-state");
        if let Ok(Some(manifest)) = sfcc_faultfs::CommitDir::new(&state_dir).read_manifest() {
            if manifest.generation > report_generation {
                outln!(
                    "WARNING: this report is stale — it was saved at state generation \
                     {report_generation}, but the state directory is at generation {} \
                     (rebuild to refresh)",
                    manifest.generation
                );
            }
        }
    }
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| format!("`{}` has no \"metrics\" block", path.display()))?;
    let snapshot = sfcc_trace::MetricsSnapshot::from_json(metrics)
        .map_err(|e| format!("`{}`: {e}", path.display()))?;
    outln!(
        "metrics of the last build of `{dir}` ({} metric(s)):\n",
        snapshot.len()
    );
    out(snapshot.render_pretty());
    // Copy-on-write snapshot economics at a glance: how much cloning the
    // re-snapshot stages actually did vs. how much the dirty-bit rule saved.
    if let (Some(clones), Some(reused)) = (
        snapshot.scalar("snapshot.clones"),
        snapshot.scalar("snapshot.reused"),
    ) {
        let cost = snapshot.scalar("snapshot.cost_units").unwrap_or(0);
        let batches = snapshot.scalar("batch.count").unwrap_or(0);
        outln!(
            "\nsnapshot reuse: {reused} function(s) reused across {clones} snapshot(s) \
             ({cost} cost units cloned, {batches} batch(es) planned)"
        );
    }
    Ok(ExitCode::SUCCESS)
}

// ─── build daemon: `minicc serve` / `minicc client` / `--daemon` ───

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut root: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut max_active = 2usize;
    let mut max_queued = 16usize;
    let mut timeout_ms = 30_000u64;
    let mut idle_ms: Option<u64> = None;
    let mut iter = args.iter();
    let number = |flag: &str, value: Option<&String>| -> Result<u64, String> {
        let value = value.ok_or_else(|| format!("`{flag}` expects a number"))?;
        value
            .parse()
            .map_err(|_| format!("`{flag}` expects a number, got `{value}`"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--socket" => {
                let path = iter.next().ok_or("`--socket` expects a path")?;
                socket = Some(PathBuf::from(path));
            }
            "--max-active" => max_active = number("--max-active", iter.next())?.max(1) as usize,
            "--max-queued" => max_queued = number("--max-queued", iter.next())? as usize,
            "--timeout-ms" => timeout_ms = number("--timeout-ms", iter.next())?.max(1),
            "--idle-snapshot-ms" => {
                idle_ms = Some(number("--idle-snapshot-ms", iter.next())?.max(1));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown serve flag `{other}`\n\n{USAGE}"));
            }
            operand if root.is_none() => root = Some(PathBuf::from(operand)),
            other => return Err(format!("`serve` expects one root directory, got `{other}`")),
        }
    }
    let root = root.ok_or_else(|| format!("`serve` expects a root directory\n\n{USAGE}"))?;
    std::fs::create_dir_all(&root)
        .map_err(|e| format!("cannot create `{}`: {e}", root.display()))?;
    let mut options = DaemonOptions::new(&root);
    if let Some(path) = socket {
        options.socket = path;
    }
    options.max_active = max_active;
    options.max_queued = max_queued;
    options.request_timeout = Duration::from_millis(timeout_ms);
    options.idle_snapshot = idle_ms.map(Duration::from_millis);
    let socket_path = options.socket.clone();
    sfcc_daemon::install_term_handler();
    let daemon = Daemon::bind(options, BuildService::factory())?;
    outln!(
        "minicc daemon: serving projects under `{}` on `{}`",
        root.display(),
        socket_path.display()
    );
    daemon.run();
    outln!("minicc daemon: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// Prints a daemon reply with the printers the local route uses, and maps
/// it to the documented exit code.
fn render_reply(request: &Request, reply: &Reply) -> ExitCode {
    if !reply.ok {
        let (kind, message) = reply
            .error
            .clone()
            .unwrap_or((ErrorKind::Internal, String::new()));
        eprintln!("daemon error ({}): {message}", kind.label());
        return match kind {
            ErrorKind::Busy => ExitCode::from(3),
            ErrorKind::Timeout => ExitCode::from(4),
            ErrorKind::Build if request.cmd == "depcheck" => ExitCode::from(2),
            _ => ExitCode::FAILURE,
        };
    }
    let body = &reply.body;
    let text = |key: &str| body.get(key).and_then(Value::as_str).unwrap_or_default();
    match request.cmd.as_str() {
        "build" => print_build(&BuildSummary::of_reply(body), text("image")),
        "run" => {
            let int = |value: &Value| match value {
                Value::Num(n) => Some(*n as i64),
                _ => None,
            };
            let prints: Vec<i64> = body
                .get("prints")
                .and_then(Value::as_arr)
                .map(|values| values.iter().filter_map(int).collect())
                .unwrap_or_default();
            print_built_for_run(&BuildSummary::of_reply(body));
            print_run(
                &request.prog_args,
                &prints,
                body.get("return").and_then(int),
                num_at(body, &["executed"]),
            );
        }
        "ir" => out(text("ir")),
        "depcheck" => {
            let clean = body.get("clean").and_then(Value::as_bool).unwrap_or(false);
            let dir = request.dir.as_deref().unwrap_or_default();
            return print_depcheck(dir, text("render"), clean);
        }
        // ping/stats/shutdown: show the raw JSON body.
        _ => outln!("{}", reply.raw),
    }
    ExitCode::SUCCESS
}

/// Whether a daemon answers pings at `socket` right now.
fn daemon_reachable(socket: &Path) -> bool {
    sfcc_daemon::roundtrip_with_timeout(socket, &Request::bare("ping"), Duration::from_secs(5))
        .map(|reply| reply.ok)
        .unwrap_or(false)
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let Some((socket, rest)) = args.split_first() else {
        return Err(format!(
            "`client` expects a socket path and a command\n\n{USAGE}"
        ));
    };
    let Some((cmd, rest)) = rest.split_first() else {
        return Err(format!(
            "`client` expects a command after the socket\n\n{USAGE}"
        ));
    };
    let socket = Path::new(socket);
    let request = match cmd.as_str() {
        "ping" | "stats" => Request::bare(cmd),
        // Shutdown is idempotent: a dead socket means the daemon is
        // already down, which is the requested state — exit 0.
        "shutdown" => {
            match sfcc_daemon::roundtrip(socket, &Request::bare("shutdown")) {
                Ok(_) => outln!("daemon: shutting down"),
                Err(_) => outln!("daemon: already gone"),
            }
            return Ok(ExitCode::SUCCESS);
        }
        "build" | "run" | "ir" | "depcheck" => {
            let invocation = parse_invocation(cmd, rest)?;
            if invocation.daemon.is_some() {
                return Err("`--daemon` is redundant under `minicc client`".to_string());
            }
            invocation.refuse_local_only("`minicc client`")?;
            invocation.request
        }
        other => return Err(format!("unknown client command `{other}`\n\n{USAGE}")),
    };
    match sfcc_daemon::roundtrip(socket, &request) {
        Ok(reply) => Ok(render_reply(&request, &reply)),
        Err(e) => {
            eprintln!("{e}");
            Ok(ExitCode::from(2))
        }
    }
}

fn cmd_trace_check(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(format!("`trace-check` expects one trace file\n\n{USAGE}"));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let summary = sfcc_trace::validate_chrome_trace(&text)
        .map_err(|e| format!("`{path}` is not a valid trace: {e}"))?;
    outln!(
        "{path}: valid — {} event(s) ({} span(s), {} instant(s)), max depth {}, {} pass event(s)",
        summary.events,
        summary.complete,
        summary.instants,
        summary.max_depth,
        summary.pass_events
    );
    Ok(ExitCode::SUCCESS)
}
