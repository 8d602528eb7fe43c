//! The one implementation of a build-class request.
//!
//! A request — `build`, `run`, `ir`, `depcheck` — is served by a
//! [`BuildService`]: a session wrapping a persistent [`Builder`] whose
//! query engine, function cache, CAS handle, and per-function dormancy
//! stamps stay resident between requests. `minicc serve` keeps sessions
//! alive behind `sfcc-daemon` (which owns sockets, framing, admission, and
//! session slots); a cold `minicc build` opens a session, serves one
//! request through the same typed methods, and exits. There is no second
//! path: flags parse through [`SessionFlags`] on both routes, and each
//! request kind's durable-op sequence is written once, here.
//!
//! A warm serve re-validates inputs through the engine's stamps (the
//! per-function `state:m::f` dormancy inputs included) instead of
//! reloading state from disk, which is exactly the paper's statefulness
//! applied across process boundaries. Because a build parks the previous
//! report, builds, persists state through the `CommitDir` protocol, writes
//! `.sfcc-report.json`, and writes the image in one fixed order, a crash
//! mid-request leaves the same states whichever process served it.

use crate::{BuildReport, Builder, DepMutations, Project};
use sfcc::{Compiler, Config, Durability};
use sfcc_backend::{run, Program, RunOutput, VmOptions};
use sfcc_daemon::{Request, Service};
use sfcc_trace::json;
use std::path::{Path, PathBuf};

/// The build flags one session is keyed under: the part of a `minicc`
/// command line that travels with the request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionFlags {
    /// `--stateful`: persist dormancy state in `<dir>/.sfcc-state`.
    pub stateful: bool,
    /// `--fn-cache`: enable the function-level IR cache.
    pub fn_cache: bool,
    /// `--cas <dir>`: attach a shared content-addressed artifact store.
    pub cas: Option<PathBuf>,
    /// `--cas-budget <bytes>`.
    pub cas_budget: Option<u64>,
    /// `--jobs <N>`; `None` means all available cores.
    pub jobs: Option<usize>,
    /// `--durable`: fsync durable writes.
    pub durable: bool,
    /// `-O0` / `-O1` / `-O2`.
    pub opt: u8,
}

impl SessionFlags {
    /// Parses the `args` of a request (verbatim CLI flag syntax).
    ///
    /// # Errors
    ///
    /// Names the first unknown or malformed flag.
    pub fn parse(args: &[String]) -> Result<SessionFlags, String> {
        let mut flags = SessionFlags {
            opt: 2,
            ..SessionFlags::default()
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if !flags.accept(arg, &mut iter)? {
                return Err(format!("unknown session flag `{arg}`"));
            }
        }
        Ok(flags)
    }

    /// Consumes `arg` — and, for a valued flag, its value from `rest` — if
    /// it is a session flag; `Ok(false)` means it is not one and nothing
    /// was consumed. `minicc` interleaves this with the client-side options
    /// it owns, so every command line goes through this one grammar.
    ///
    /// # Errors
    ///
    /// A session flag with a missing or malformed value.
    pub fn accept<'a>(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        match arg {
            "--stateful" => self.stateful = true,
            "--stateless" => self.stateful = false,
            "--fn-cache" => self.fn_cache = true,
            "--cas" => {
                let dir = rest.next().ok_or("`--cas` expects a store directory")?;
                self.cas = Some(PathBuf::from(dir));
            }
            "--cas-budget" => {
                let value = rest.next().ok_or("`--cas-budget` expects a byte count")?;
                self.cas_budget = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`--cas-budget` expects a number, got `{value}`"))?,
                );
            }
            "--jobs" => {
                let value = rest.next().ok_or("`--jobs` expects a worker count")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("`--jobs` expects a number, got `{value}`"))?;
                if n == 0 {
                    return Err("`--jobs` expects at least 1 worker".to_string());
                }
                self.jobs = Some(n);
            }
            "--parallel" => self.jobs = None,
            "--durable" => self.durable = true,
            "-O0" => self.opt = 0,
            "-O1" => self.opt = 1,
            "-O2" => self.opt = 2,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The canonical inverse of [`SessionFlags::parse`]: fixed order,
    /// defaults omitted, so equal flags render to equal `args` however the
    /// command line spelled them (the daemon keys sessions on the `args`
    /// it receives).
    pub fn to_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        let mut flag = |name: &str| args.push(name.to_string());
        if self.stateful {
            flag("--stateful");
        }
        if self.fn_cache {
            flag("--fn-cache");
        }
        if let Some(cas) = &self.cas {
            flag("--cas");
            flag(&cas.display().to_string());
        }
        if let Some(budget) = self.cas_budget {
            flag("--cas-budget");
            flag(&budget.to_string());
        }
        if let Some(jobs) = self.jobs {
            flag("--jobs");
            flag(&jobs.to_string());
        }
        if self.durable {
            flag("--durable");
        }
        if self.opt != 2 {
            flag(&format!("-O{}", self.opt));
        }
        args
    }

    /// The compiler configuration these flags select for `dir`. A pure
    /// function of the flags: environment fallbacks (`SFCC_CAS`,
    /// `SFCC_CAS_BUDGET`) are resolved into flags where the command line
    /// is parsed, so they travel with the request.
    pub fn config(&self, dir: &Path) -> Config {
        let mut config = if self.stateful {
            Config::stateful().with_state_path(dir.join(".sfcc-state"))
        } else {
            Config::stateless()
        };
        config = match self.opt {
            0 => config.with_opt_level(sfcc::OptLevel::O0),
            1 => config.with_opt_level(sfcc::OptLevel::O1),
            _ => config,
        };
        if self.fn_cache {
            config = config.with_function_cache();
        }
        // The store implies the function cache, which fronts it.
        if let Some(store) = &self.cas {
            config = config.with_cas_path(store);
            if let Some(budget) = self.cas_budget {
                config = config.with_cas_budget(budget);
            }
        }
        if self.durable {
            config = config.with_durability(Durability::Durable);
        }
        let jobs = self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        });
        config.with_jobs(jobs)
    }
}

/// Parses a `SFCC_DAEMON_MUTATIONS`-style spec into [`DepMutations`] —
/// the adversarial hook the depcheck audit tests seed lies through
/// (e.g. `freeze-stamp:state:main::main`). Comma-separated entries.
///
/// # Errors
///
/// Names the first unknown mutation kind.
pub fn parse_mutations(spec: &str) -> Result<DepMutations, String> {
    let mut mutations = DepMutations::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        match entry.split_once(':') {
            Some(("freeze-stamp", input)) => {
                mutations = mutations.freeze_stamp(input);
            }
            _ => return Err(format!("unknown dependency mutation `{entry}`")),
        }
    }
    Ok(mutations)
}

/// One project's session: a persistent [`Builder`] plus the flags it was
/// configured under. Resident across requests in the daemon; opened for
/// one request by the cold CLI.
pub struct BuildService {
    dir: PathBuf,
    flags: SessionFlags,
    builder: Builder,
    /// Whether the builder holds state newer than the last durable save.
    /// Builds save their own state before responding, so this only stays
    /// set when a build's commit failed partway.
    dirty: bool,
}

/// The report file every build persists, `minicc stats`'s input.
pub const REPORT_FILE: &str = ".sfcc-report.json";
/// Where the previous build's report is parked while a build runs. A build
/// that fails leaves it here, so `minicc stats` can tell "the last build
/// did not complete" apart from "here is the last build's telemetry".
pub const STALE_REPORT_FILE: &str = ".sfcc-report.json.stale";

/// What one committed build produced.
pub struct Built {
    /// The build's report, stamped with the state generation it committed.
    pub report: BuildReport,
    /// [`BuildReport::to_json`] of `report`, rendered once per request: the
    /// bytes of the persisted report file, of a reply's `report` member,
    /// and of `--report json`.
    pub report_json: String,
}

/// What a `run` request produced: the build, then `main.main`'s execution.
pub struct Ran {
    /// The build the program came from.
    pub built: Built,
    /// The VM's output.
    pub output: RunOutput,
}

/// Runs `main.main` of `program` on `args`. The VM zero-fills missing
/// argument registers, so the argument count must match exactly: a
/// forgotten `-- <n>` fails loudly instead of running `main` on zeros.
///
/// # Errors
///
/// An argument-count mismatch or a VM trap.
pub fn run_main(program: &Program, args: &[i64]) -> Result<RunOutput, String> {
    if let Some(id) = program.func_id("main.main") {
        let arity = program.func(id).arity as usize;
        if args.len() != arity {
            return Err(format!(
                "main.main takes {arity} argument(s), got {} (pass them after `--`)",
                args.len()
            ));
        }
    }
    run(program, "main.main", args, VmOptions::default())
        .map_err(|e| format!("runtime error: {e:?}"))
}

impl BuildService {
    /// A session for `dir` under `args` (verbatim CLI build flags).
    /// Mutation specs (the depcheck fuzzing hook) come from the
    /// `SFCC_DAEMON_MUTATIONS` environment variable.
    ///
    /// # Errors
    ///
    /// Bad flags or a bad mutation spec.
    pub fn new(dir: &Path, args: &[String]) -> Result<BuildService, String> {
        let mutations = match std::env::var("SFCC_DAEMON_MUTATIONS") {
            Ok(spec) => parse_mutations(&spec)?,
            Err(_) => DepMutations::new(),
        };
        BuildService::new_with(dir, args, mutations)
    }

    /// [`BuildService::new`] with explicit dependency mutations — the
    /// in-process hook the audit tests seed lies through without touching
    /// process-global environment.
    ///
    /// # Errors
    ///
    /// Bad flags.
    pub fn new_with(
        dir: &Path,
        args: &[String],
        mutations: DepMutations,
    ) -> Result<BuildService, String> {
        let flags = SessionFlags::parse(args)?;
        let config = flags.config(dir);
        let jobs = config.jobs;
        let mut builder = Builder::new(Compiler::new(config)).with_jobs(jobs);
        if !mutations.is_empty() {
            builder = builder.with_dep_mutations(mutations);
        }
        Ok(BuildService {
            dir: dir.to_path_buf(),
            flags,
            builder,
            dirty: false,
        })
    }

    /// A [`sfcc_daemon::ServiceFactory`] over [`BuildService::new`].
    pub fn factory() -> sfcc_daemon::ServiceFactory {
        Box::new(|dir, args| Ok(Box::new(BuildService::new(dir, args)?)))
    }

    /// Toggles span tracing of subsequent builds (see
    /// [`Builder::set_tracing`]); a traced build's [`Built::report`]
    /// carries the trace.
    pub fn set_tracing(&mut self, on: bool) {
        self.builder.set_tracing(on);
    }

    fn load_project(&self) -> Result<Project, String> {
        let project = Project::from_dir(&self.dir)
            .map_err(|e| format!("cannot load project `{}`: {e}", self.dir.display()))?;
        if project.is_empty() {
            return Err(format!("no .mc files in `{}`", self.dir.display()));
        }
        Ok(project)
    }

    /// One build of the tree as it is now, committed: park the previous
    /// report → build → save state → write the report → unpark. The report
    /// file is plain `std::fs`, deliberately outside the fault-injectable
    /// I/O layer, so telemetry never shifts a fault plan's op numbering.
    ///
    /// # Errors
    ///
    /// An unreadable or empty project, a build failure, or a failed state
    /// or report write. A failed build leaves the previous report parked.
    pub fn build(&mut self) -> Result<Built, String> {
        let project = self.load_project()?;
        self.commit(&project)
    }

    /// [`BuildService::build`] of an already loaded project.
    fn commit(&mut self, project: &Project) -> Result<Built, String> {
        // Park the previous report before building: if this build fails or
        // crashes, `stats` must not serve yesterday's numbers as today's.
        let report_path = self.dir.join(REPORT_FILE);
        let stale_path = self.dir.join(STALE_REPORT_FILE);
        if report_path.exists() {
            let _ = std::fs::rename(&report_path, &stale_path);
        }
        // Dirty from the moment the engine may mutate until the state is
        // durably committed: if the save below fails (or the build dies
        // partway), the shutdown/idle snapshot retries the commit.
        self.dirty = true;
        let mut report = self.builder.build(project).map_err(|e| e.to_string())?;
        if self.flags.stateful {
            report.state_generation = self
                .builder
                .compiler()
                .save_state()
                .map_err(|e| format!("cannot save state: {e}"))?;
        }
        self.dirty = false;
        let report_json = report.to_json();
        std::fs::write(&report_path, &report_json)
            .map_err(|e| format!("cannot write `{}`: {e}", report_path.display()))?;
        let _ = std::fs::remove_file(&stale_path);
        Ok(Built {
            report,
            report_json,
        })
    }

    /// [`BuildService::build`], then the linked image written to `out`.
    ///
    /// # Errors
    ///
    /// As [`BuildService::build`], or a failed image write.
    pub fn build_image(&mut self, out: &Path) -> Result<Built, String> {
        let built = self.build()?;
        let durability = self.builder.compiler().config().durability;
        sfcc_backend::image::save_with(&built.report.program, out, durability)
            .map_err(|e| format!("cannot write `{}`: {e}", out.display()))?;
        Ok(built)
    }

    /// [`BuildService::build`], then `main.main` run on `args`.
    ///
    /// # Errors
    ///
    /// As [`BuildService::build`] and [`run_main`].
    pub fn run(&mut self, args: &[i64]) -> Result<Ran, String> {
        let built = self.build()?;
        let output = run_main(&built.report.program, args)?;
        Ok(Ran { built, output })
    }

    /// [`BuildService::build`], then `module`'s optimized IR as text,
    /// demanded from the query store like any task ([`Builder::module_ir`]):
    /// a warm module's IR is on hand, a restored one is loaded from the
    /// graph, and nothing the build found current executes.
    ///
    /// # Errors
    ///
    /// As [`BuildService::build`], or an unknown module.
    pub fn ir(&mut self, module: &str) -> Result<String, String> {
        let project = self.load_project()?;
        self.commit(&project)?;
        let ir = self
            .builder
            .module_ir(&project, module)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no module `{module}` in `{}`", self.dir.display()))?;
        Ok(sfcc_ir::module_to_string(&ir))
    }

    /// Audits dependency soundness: an instrumented build (whose access
    /// diff covers every task kind that runs) followed by a no-op rebuild
    /// (whose stamp audit covers store serves). A session that starts from
    /// the last process's graph is audited as it would serve — every task
    /// the graph spares is stamp-audited — and then made to forget the
    /// graph, so the two builds still execute and access-diff every task.
    /// Read-only — saves no state and writes no report file — so it can
    /// run against a checkout without dirtying it. Returns the rebuild's
    /// report, its [`BuildReport::depcheck`] holding the merged verdict of
    /// all builds.
    ///
    /// # Errors
    ///
    /// An unreadable or empty project, or a failure of any build.
    pub fn depcheck(&mut self) -> Result<BuildReport, String> {
        let project = self.load_project()?;
        self.builder.set_depcheck(true);
        let audit = (|| {
            let builder = &mut self.builder;
            let audited = |builder: &mut Builder, what: &str| {
                builder
                    .build(&project)
                    .map_err(|e| format!("depcheck: {what} failed: {e}"))
            };
            let served = audited(builder, "audited build")?;
            let mut merged = served.depcheck.unwrap_or_default();
            if builder.forget_restored_graph() {
                // The graph spared every task, so none was access-diffed.
                let executed = audited(builder, "audited build")?;
                merged.merge(executed.depcheck.unwrap_or_default());
            }
            let mut second = audited(builder, "no-op rebuild")?;
            merged.merge(second.depcheck.take().unwrap_or_default());
            second.depcheck = Some(merged);
            Ok(second)
        })();
        self.builder.set_depcheck(false);
        audit
    }
}

/// The daemon's view of a session: each typed result encoded as the
/// members of a reply.
impl Service for BuildService {
    fn handle(&mut self, request: &Request) -> Result<String, String> {
        let mut payload = String::new();
        match request.cmd.as_str() {
            "build" => {
                let out = match request.out.as_deref() {
                    Some(path) => PathBuf::from(path),
                    None => self.dir.with_extension("sbx"),
                };
                let Built {
                    report,
                    report_json,
                } = self.build_image(&out)?;
                let (active, dormant, skipped) = report.outcome_totals();
                payload.push_str("\"image\":");
                json::escape_into(&mut payload, &out.display().to_string());
                payload.push_str(&format!(
                    ",\"modules\":{},\"rebuilt\":{},\"generation\":{},\"recovered\":{},\
                     \"active\":{active},\"dormant\":{dormant},\"skipped\":{skipped},\
                     \"hits\":{},\"misses\":{},\"wall_ns\":{},\"report\":{report_json}",
                    report.modules.len(),
                    report.rebuilt_count(),
                    report.state_generation,
                    report.recovered_files,
                    report.query.hits,
                    report.query.misses,
                    report.wall_ns,
                ));
            }
            "run" => {
                let Ran { built, output } = self.run(&request.prog_args)?;
                let prints: Vec<String> = output.prints.iter().map(i64::to_string).collect();
                let returned = match output.return_value {
                    Some(v) => v.to_string(),
                    None => "null".to_string(),
                };
                payload.push_str(&format!(
                    "\"prints\":[{}],\"return\":{returned},\"executed\":{},\
                     \"modules\":{},\"rebuilt\":{},\"skipped\":{}",
                    prints.join(","),
                    output.executed,
                    built.report.modules.len(),
                    built.report.rebuilt_count(),
                    built.report.outcome_totals().2,
                ));
            }
            "ir" => {
                let module = request
                    .module
                    .as_deref()
                    .ok_or("`ir` requires a \"module\" field")?;
                let text = self.ir(module)?;
                payload.push_str("\"module\":");
                json::escape_into(&mut payload, module);
                payload.push_str(",\"ir\":");
                json::escape_into(&mut payload, &text);
            }
            "depcheck" => {
                let verdict = self.depcheck()?.depcheck.unwrap_or_default();
                payload.push_str(&format!(
                    "\"clean\":{},\"findings\":{},\"render\":",
                    verdict.is_clean(),
                    verdict.findings.len()
                ));
                json::escape_into(&mut payload, &verdict.render());
            }
            other => return Err(format!("session cannot serve `{other}`")),
        }
        Ok(payload)
    }

    fn snapshot(&mut self) -> Result<(), String> {
        // Builds persist their own state before responding, so this only
        // writes when a build's own commit failed; re-saving
        // unconditionally would advance the state generation past what a
        // cold build lineage produces and break byte-identity.
        if self.dirty && self.flags.stateful {
            self.builder
                .compiler()
                .save_state()
                .map_err(|e| format!("cannot save state: {e}"))?;
            self.dirty = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// `to_args` is the inverse of `parse`, and canonical: however a
    /// command line orders, repeats, or defaults its flags, equal flags
    /// render to the same `args` (the daemon's session key).
    #[test]
    fn to_args_round_trips_and_is_canonical() {
        let table: [(&str, &[&str]); 6] = [
            (
                "",
                &["", "--stateless -O2 --parallel", "--jobs 4 --parallel"],
            ),
            ("--stateful", &["--stateful", "--stateless --stateful"]),
            (
                "--stateful --fn-cache",
                &["--stateful --fn-cache", "--fn-cache --stateful"],
            ),
            ("-O0", &["-O0", "-O1 --stateful -O0 --stateless"]),
            ("--jobs 3 -O1", &["-O1 --jobs 3", "--jobs 8 -O1 --jobs 3"]),
            (
                "--stateful --fn-cache --cas /s --cas-budget 4096 --jobs 2 --durable -O1",
                &[
                    "--stateful --fn-cache --cas /s --cas-budget 4096 --jobs 2 --durable -O1",
                    "-O1 --durable --jobs 2 --cas-budget 4096 --cas /s --fn-cache --stateful",
                ],
            ),
        ];
        for (canonical, spellings) in table {
            for line in spellings {
                let flags = SessionFlags::parse(&args(line)).unwrap();
                assert_eq!(flags.to_args(), args(canonical), "`{line}`");
                assert_eq!(
                    SessionFlags::parse(&flags.to_args()).unwrap(),
                    flags,
                    "round trip of `{line}`"
                );
            }
        }
    }

    #[test]
    fn parse_names_the_offending_flag() {
        for (line, needle) in [
            ("--frobnicate", "--frobnicate"),
            ("--jobs", "--jobs"),
            ("--jobs 0", "at least 1"),
            ("--cas-budget lots", "lots"),
            ("--report json", "--report"),
        ] {
            let err = SessionFlags::parse(&args(line)).unwrap_err();
            assert!(err.contains(needle), "`{line}`: {err}");
        }
    }
}
