//! One lineage harness: a seeded script of steps run on a subject, with one
//! oracle table checked after every step.
//!
//! A [`Script`] is a generated project and a list of [`Step`]s: no-ops,
//! `EditScript` edits, reverts, a signature edit, a module added or
//! removed, `-O` and `--fn-cache` flips, restarts, depcheck audits, and
//! no-ops over a deleted or truncated image file. A
//! subject is a route (a resident [`Builder`], a fresh one per step, or a
//! daemon session), a worker count, a mode and a store, written as
//! [`SUBJECT`] says; a process per step is stateful. [`check`] builds the
//! project, then every step, and after each holds the subject to the table
//! below; the subject, its peer, its twin and the stateless reference build
//! at once, each in a directory of its own. A resident `--jobs 1` subject
//! verifies the IR after every pass that changes it. A failing check names
//! itself, the step, and the one call that reproduces it.
//!
//! | check | what holds |
//! |---|---|
//! | `twin` | a stateful build's image is its graph-dropped twin's: the same history in a directory whose graph is dropped before every step. Dormancy transfers by function name, so a stateful edit may skip a pass a fresh build runs: an edit is not held to a fresh directory. The twin re-optimizes what the subject's graph holds, so it is compared while the function cache holds every value the graph does: from the first build, or from an `-O` flip under the cache, to the next `--fn-cache` flip. It builds every step but a no-op, so its history stays the subject's. |
//! | `fresh` | a stateless build without a function cache, and a stateful `-O` flip without a store, give the image a directory with no history builds under the same flags. A cache hit hands a re-optimized caller's inliner its callee's optimized body, and a store serves artifacts its publisher's dormancy shaped, so those builds are held to `behaviour`. |
//! | `peer` | the subject is its peer, a resident builder at `--jobs 1` over the same script: image, committed state, cache and graph bytes, generation, rebuilt flags, misses and executed set (hits too where both sessions stay warm). No `optimizefn` is rematerialized. A daemon's `ir main` is the peer's `module_ir`. |
//! | `noop` | a step that changed nothing keeps the image, and leaves it in the image file, which it rewrites when it was deleted or truncated; in a session that stays warm, or a stateful one, it misses nothing, keeps the generation and moves no `.sfcc-state*` byte; as a stateful session's first build, over an intact image file, it reads only the manifest and the graph tip's input section: it hits `link` alone and loads and verifies no value. |
//! | `chains` | on the subject's builder and its peer's, the committed graph chain folds to `graph_file()`, and where `twin` holds, or the cache is on and a build since the last `--fn-cache` flip executed, the cache chain to `function_cache().to_bytes()`; over a script of 16 stateful builds each graph chain rebases at least twice. |
//! | `behaviour` | a build `fresh` does not hold prints and returns on inputs 0, 2 and 9 what a stateless build does; over three edits or more built at `-O1` or `-O2`, a stateful subject skips at least one pass slot. |
//! | `minimal` | a body edit rebuilds only its module, a new function at least its module; a stateful flip executes only `optimizefn`, `codegen` and `link`. |
//! | `audit` | a `depcheck` of the committed directory finds nothing. |
//! | `recoveries` | no build recovers or quarantines a file. |

use super::{cleanup, tmpdir, write_tree};
use sfcc::{persist, Compiler, Config, Durability};
use sfcc_buildsys::serve::{BuildService, SessionFlags};
use sfcc_buildsys::{Builder, Project};
use sfcc_daemon::{roundtrip, Daemon, DaemonHandle, DaemonOptions, Request};
use sfcc_faultfs::CommitDir;
use sfcc_trace::json::{self, Value};
use sfcc_workload::{generate_model, Commit, EditKind, EditScript, GeneratorConfig, ProjectModel};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::{fmt, fs};

/// How a subject is written.
pub const SUBJECT: &str = "<resident|fresh|daemon> j<jobs> <stateful|stateless> [store]";

/// One step of a script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Builds the tree unchanged.
    Noop,
    /// Applies the next commit of the script's `EditScript`.
    Edit,
    /// Swaps the project with the one before the last edit: undoes that
    /// edit, and a second revert redoes it.
    Revert,
    /// Toggles the signature of `sigx::s` and of every call of it.
    Signature,
    /// Adds the `extra` module, or removes it.
    Module,
    /// Flips to `-O<level>`.
    Opt(u8),
    /// Toggles `--fn-cache`.
    FnCache,
    /// Ends every session: the next build is a new process over the
    /// committed directory.
    Restart,
    /// Audits the committed directory with `depcheck`.
    Audit,
    /// Deletes the subject's image file, then builds the tree unchanged.
    DropImage,
    /// Truncates the subject's image file to 10 bytes, then builds the
    /// tree unchanged.
    TruncateImage,
}

/// A generated project and the steps run on it.
#[derive(Clone, Debug)]
pub struct Script {
    /// Seeds the project and its edits.
    pub seed: u64,
    /// What follows the first build.
    pub steps: Vec<Step>,
    /// Callees per generated function, when not the small preset's.
    pub calls: Option<(usize, usize)>,
    /// The one kind of the script's edits, when not the default mix.
    pub only: Option<EditKind>,
}

impl Script {
    /// The script of `steps` over the project `seed` generates.
    pub fn of(seed: u64, steps: &[Step]) -> Script {
        let (steps, calls, only) = (steps.to_vec(), None, None);
        Script {
            seed,
            steps,
            calls,
            only,
        }
    }

    /// Steps drawn from `seed` until `builds` of them build: edits most
    /// often, then no-ops, and one of each other kind for every 14 draws.
    pub fn drawn(seed: u64, builds: usize) -> Script {
        let draw = |i: u64| sfcc_codec::fnv64(&[seed.to_le_bytes(), i.to_le_bytes()].concat());
        let (mut script, mut opt, mut i) = (Script::of(seed, &[]), 2, 0);
        while script.builds() <= builds {
            i += 1;
            script.steps.push(match draw(i) % 14 {
                0 | 1 => Step::Noop,
                2..=6 => Step::Edit,
                7 => Step::Revert,
                8 => Step::Signature,
                9 => Step::Module,
                10 => {
                    opt = (opt + 1 + (draw(i) >> 8) as u8 % 2) % 3;
                    Step::Opt(opt)
                }
                11 => Step::FnCache,
                12 => Step::Restart,
                _ => Step::Audit,
            });
        }
        script
    }

    /// The builds the script makes, the first included: a restart and an
    /// audit build nothing.
    pub fn builds(&self) -> usize {
        let building = |s: &&Step| !matches!(s, Step::Restart | Step::Audit);
        1 + self.steps.iter().filter(building).count()
    }
}

/// The expression that rebuilds the script.
impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let of = format!("Script::of({:#x}, &{:?})", self.seed, self.steps);
        if self.calls.is_none() && self.only.is_none() {
            return f.write_str(&of);
        }
        let (calls, only) = (self.calls, self.only);
        write!(f, "Script {{ calls: {calls:?}, only: {only:?}, ..{of} }}")
    }
}

/// Runs `script` on `subject`, checking the oracle table after every step.
///
/// # Panics
///
/// On the first check that fails, naming it, the step and the call that
/// reproduces it.
pub fn check(script: &Script, subject: &str) {
    let mut run = Run::new(script, subject);
    run.build(Step::Noop, None);
    for (i, &step) in script.steps.iter().enumerate() {
        run.index = i + 1;
        run.step(step);
    }
    run.finish();
}

/// How a subject's builds reach the compiler.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    /// One [`Builder`] across steps, until a restart or a flag flip.
    Resident,
    /// A new [`Builder`] per step over the committed directory.
    Fresh,
    /// A daemon session, served over its socket.
    Daemon,
}

/// What one build left: its image, its report and the committed bytes.
pub struct Outcome {
    pub image: Vec<u8>,
    pub report: Value,
    /// What [`committed`] read after the build.
    pub committed: [Option<Vec<u8>>; 3],
}

impl Outcome {
    /// What a `minicc build` of `dir` left: the image beside it, the report
    /// in it and its committed bytes.
    pub fn left(dir: &Path) -> Outcome {
        let report = fs::read_to_string(dir.join(".sfcc-report.json")).unwrap();
        Outcome {
            image: fs::read(dir.with_extension("sbx")).unwrap(),
            report: json::parse(&report).unwrap(),
            committed: committed(dir),
        }
    }

    fn gauge(&self, name: &str) -> u64 {
        self.report["metrics"][name]["value"].as_u64().unwrap()
    }

    fn generation(&self) -> u64 {
        self.report["state_generation"].as_u64().unwrap()
    }

    /// A task list of the report's `query` block, sorted.
    fn tasks(&self, list: &str) -> Vec<String> {
        let mut tasks = strings(&self.report["query"][list]);
        tasks.sort();
        tasks
    }

    /// The rebuilt flags, generation, misses and executed set, and the
    /// hits when `hits`.
    pub fn decisions(&self, hits: bool) -> String {
        let modules = json::write(&self.report["modules"]);
        let (generation, misses) = (self.generation(), self.gauge("query.misses"));
        let executed = self.tasks("executed");
        let hits = hits.then(|| self.gauge("query.hits"));
        format!("{modules} generation {generation} misses {misses} hits {hits:?} {executed:?}")
    }
}

/// What `main.main` prints and returns on inputs 0, 2 and 9.
fn behaviour(program: &sfcc_backend::Program) -> Vec<String> {
    let run = |arg| sfcc_backend::run(program, "main.main", &[arg], Default::default());
    let outputs = [0, 2, 9].map(|arg| run(arg).map(|out| (out.prints, out.return_value)));
    outputs.iter().map(|out| format!("{out:?}")).collect()
}

fn strings(list: &Value) -> Vec<String> {
    let items = list.as_arr().unwrap();
    items
        .iter()
        .map(|t| t.as_str().unwrap().to_string())
        .collect()
}

/// The flags a script has flipped to.
#[derive(Clone, Copy)]
struct Flags {
    stateful: bool,
    fn_cache: bool,
    opt: u8,
}

impl Flags {
    /// The command line of these flags, with `store` and `--jobs jobs`.
    fn args(&self, store: Option<&Path>, jobs: usize) -> Vec<String> {
        let mut args = vec![format!("-O{}", self.opt), "--jobs".into(), jobs.to_string()];
        args.extend(self.stateful.then(|| "--stateful".to_string()));
        args.extend(self.fn_cache.then(|| "--fn-cache".to_string()));
        if let Some(store) = store {
            args.extend(["--cas".to_string(), store.display().to_string()]);
        }
        args
    }
}

/// One directory built by one route, and its live session.
struct Lane {
    route: Route,
    jobs: usize,
    dir: PathBuf,
    store: Option<PathBuf>,
    builder: Option<Builder>,
    daemon: Option<DaemonHandle>,
    /// The command line the live session was opened under.
    session: Option<Vec<String>>,
    /// Whether its builds verify the IR after every pass that changes it.
    verify: bool,
    /// The graph chain's bases, and how often a commit after the first
    /// started a new one.
    bases: Vec<String>,
    rebased: usize,
}

impl Lane {
    fn new(root: &Path, name: &str, route: Route, jobs: usize, store: bool) -> Lane {
        Lane {
            route,
            jobs,
            dir: root.join(name),
            store: store.then(|| root.join(format!("{name}-store"))),
            builder: None,
            daemon: None,
            session: None,
            verify: false,
            bases: Vec::new(),
            rebased: 0,
        }
    }

    fn args(&self, flags: &Flags) -> Vec<String> {
        flags.args(self.store.as_deref(), self.jobs)
    }

    /// The image file a `minicc build` of the lane's tree writes.
    fn image(&self) -> PathBuf {
        self.dir.with_extension("sbx")
    }

    /// Whether the session that served the last build serves the next one,
    /// under `flags`.
    fn warm(&self, flags: &Flags) -> bool {
        self.route != Route::Fresh && self.session == Some(self.args(flags))
    }

    /// Writes `project` as the lane's tree and builds it, committed as a
    /// `minicc build` request commits.
    fn build(&mut self, project: &Project, flags: &Flags) -> Outcome {
        write_tree(&self.dir, project);
        // A daemon recycles the session of a project whose flags change.
        if !self.warm(flags) && self.route != Route::Daemon {
            self.restart();
        }
        let args = self.args(flags);
        self.session = Some(args.clone());
        if self.route == Route::Daemon {
            let root = self.dir.parent().unwrap();
            let daemon = self.daemon.get_or_insert_with(|| {
                let options = DaemonOptions::new(root);
                let daemon = Daemon::bind(options, BuildService::factory());
                daemon.expect("bind daemon").spawn()
            });
            serve(&daemon.socket(), request("build", &self.dir, &args));
            return Outcome::left(&self.dir);
        }
        let mut config = SessionFlags::parse(&args).unwrap().config(&self.dir);
        config.verify_each = self.verify;
        let image = self.image();
        let builder = self.builder.get_or_insert_with(|| builder(config));
        let mut report = builder.build_image(project, &image).unwrap();
        report.state_generation = builder.compiler().save_state().unwrap();
        let linked = builder.linked_image().unwrap().to_vec();
        sfcc_faultfs::atomic_write_if_changed(&image, &linked, Durability::Fast).unwrap();
        Outcome {
            image: linked,
            report: report.to_value(),
            committed: committed(&self.dir),
        }
    }

    /// What of the builder's chains, `built` committed them, does not fold
    /// to its whole files: the graph's, and when `cache`, the function
    /// cache's.
    fn unfolded(&mut self, built: &Outcome, cache: bool) -> Option<String> {
        let builder = self.builder.as_mut()?;
        let [_, ircache, depgraph] = &built.committed;
        let graph = depgraph.as_ref() == Some(&builder.graph_file());
        // Opened only to be checked: a check that opened a cache the build
        // did not would discard its chain for the next build to commit.
        let whole = || builder.compiler().function_cache().to_bytes();
        let cache = !cache || ircache.as_ref() == Some(&whole());
        let state = self.dir.join(".sfcc-state");
        let manifest = CommitDir::new(&state).read_manifest().unwrap().unwrap();
        let base = manifest.entry("depgraph").unwrap().file.clone();
        self.rebased += usize::from(!self.bases.is_empty() && !self.bases.contains(&base));
        self.bases.push(base);
        let dir = self.dir.display();
        (!graph || !cache).then(|| format!("{dir}: the graph folds: {graph}, the cache: {cache}"))
    }

    /// Ends the live session; a daemon shuts down, committing what its
    /// sessions hold.
    fn restart(&mut self) {
        (self.builder, self.session) = (None, None);
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
        }
    }
}

/// The committed `state`, `ircache` and `depgraph` bytes of `dir`, chains
/// folded.
pub fn committed(dir: &Path) -> [Option<Vec<u8>>; 3] {
    let state = dir.join(".sfcc-state");
    ["state", "ircache", "depgraph"]
        .map(|logical| persist::committed_bytes(&state, logical).unwrap())
}

/// A builder for `dir` under `args`, configured as a `minicc` request's.
pub fn session(dir: &Path, args: &[String]) -> Builder {
    builder(SessionFlags::parse(args).unwrap().config(dir))
}

/// The service a `minicc` request for `dir` under `args` runs.
pub fn service(dir: &Path, args: &[String]) -> BuildService {
    BuildService::new(dir, args).unwrap()
}

/// A builder under `config`, with its worker count.
pub fn builder(config: Config) -> Builder {
    let jobs = config.jobs;
    Builder::new(Compiler::new(config)).with_jobs(jobs)
}

fn request(cmd: &str, dir: &Path, args: &[String]) -> Request {
    let (dir, args) = (Some(dir.display().to_string()), args.to_vec());
    Request {
        dir,
        args,
        ..Request::bare(cmd)
    }
}

/// The body of a daemon's reply to `req`, which must succeed.
fn serve(socket: &Path, req: Request) -> Value {
    let reply = roundtrip(socket, &req).expect("daemon transport");
    assert!(
        reply.ok,
        "`{}` failed: {}",
        req.cmd,
        json::write(&reply.body)
    );
    reply.body
}

/// Every `.sfcc-state*` file of `dir`, manifest included, by name.
fn state_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let files = fs::read_dir(dir)
        .unwrap()
        .map(|dirent| dirent.unwrap().path());
    let state = files.filter(|path| path.to_string_lossy().contains("/.sfcc-state"));
    state
        .map(|path| (path.display().to_string(), fs::read(&path).unwrap()))
        .collect()
}

/// Rewrites the manifest of `dir` without its query graph, if it has one:
/// the directory as a commit left it before there was a graph.
pub fn drop_graph(dir: &Path) {
    let cd = CommitDir::new(&dir.join(".sfcc-state"));
    if let Some(m) = cd.read_manifest().unwrap() {
        let kept = m
            .entries
            .iter()
            .filter(|e| e.logical != "depgraph")
            .cloned();
        cd.publish(m.generation, kept.collect(), Durability::Fast)
            .unwrap();
    }
}

/// What the subject's build is held to besides its peer and twin.
enum Reference {
    /// The image a directory with no history builds.
    Fresh(Vec<u8>),
    /// The behaviour of a stateless build.
    Behaviour(Vec<String>),
}

/// What a directory under `root` with no history builds under `flags`.
fn fresh_image(root: &Path, project: &Project, flags: &Flags) -> Vec<u8> {
    let dir = root.join("f");
    cleanup(&dir);
    let mut builder = session(&dir, &flags.args(None, 1));
    builder.build(project).unwrap();
    builder.linked_image().unwrap().to_vec()
}

/// What `twin` builds: the subject's history, its graph dropped. It
/// commits only when flags end its session, for the next one to load.
fn twin_image(twin: &mut Lane, project: &Project, flags: &Flags) -> Vec<u8> {
    let args = twin.args(flags);
    if twin.session.as_ref() != Some(&args) {
        if let Some(last) = twin.builder.take() {
            last.compiler().save_state().unwrap();
            drop_graph(&twin.dir);
        }
        fs::create_dir_all(&twin.dir).unwrap();
        let config = SessionFlags::parse(&args).unwrap().config(&twin.dir);
        (twin.builder, twin.session) = (Some(builder(config)), Some(args));
    }
    let builder = twin.builder.as_mut().unwrap();
    builder.clear_cache();
    builder.build(project).unwrap();
    builder.linked_image().unwrap().to_vec()
}

/// The behaviour of a stateless build of `project` at the `-O` level of
/// `flags`, on a builder resident at that level.
fn stateless(
    resident: &mut Option<(u8, Builder)>,
    root: &Path,
    project: &Project,
    flags: &Flags,
) -> Vec<String> {
    let opt = flags.opt;
    let builder = match resident {
        Some((level, builder)) if *level == opt => builder,
        slot => {
            let (stateful, fn_cache) = (false, false);
            let args = Flags {
                stateful,
                fn_cache,
                opt,
            }
            .args(None, 1);
            &mut slot.insert((opt, session(root, &args))).1
        }
    };
    behaviour(builder.build(project).unwrap().program())
}

/// One script on one subject, beside what it is checked against.
struct Run<'a> {
    script: &'a Script,
    subject: &'a str,
    /// The step being checked; 0 is the first build.
    index: usize,
    root: PathBuf,
    flags: Flags,
    store: bool,
    lane: Lane,
    /// A resident `--jobs 1` lane over the same script, unless the subject
    /// is one.
    peer: Option<Lane>,
    /// The subject's history, its graph dropped before every step.
    twin: Lane,
    /// A stateless builder resident at one `-O` level: the behaviour
    /// reference.
    stateless: Option<(u8, Builder)>,
    model: ProjectModel,
    previous: ProjectModel,
    edits: EditScript,
    signature: bool,
    extra: bool,
    last: Option<Outcome>,
    /// Pass slots the subject skipped, over its builds.
    skipped: u64,
    /// Edits built at `-O1` or `-O2`.
    optimized_edits: usize,
    /// Whether the function cache may lack a value the graph holds: set by
    /// an `--fn-cache` flip, cleared by an `-O` flip that re-optimizes
    /// every function through the cache.
    cache_stale: bool,
    /// Whether a build since the last `--fn-cache` flip opened the
    /// function cache: one that executed anything.
    cache_opened: bool,
}

impl<'a> Run<'a> {
    fn new(script: &'a Script, subject: &'a str) -> Run<'a> {
        let words: Vec<&str> = subject.split_whitespace().collect();
        let bad = || -> ! { panic!("subject `{subject}` is not `{SUBJECT}`") };
        let (route, jobs, mode) = match words[..] {
            [route, jobs, mode] | [route, jobs, mode, "store"] => (route, jobs, mode),
            _ => bad(),
        };
        let route = match route {
            "resident" => Route::Resident,
            "fresh" => Route::Fresh,
            "daemon" => Route::Daemon,
            _ => bad(),
        };
        let jobs: usize = match jobs.strip_prefix('j').map(str::parse) {
            Some(Ok(jobs)) if jobs > 0 => jobs,
            _ => bad(),
        };
        let stateful = match mode {
            "stateful" => true,
            // A stateless process per step keeps no history to check.
            "stateless" if route != Route::Fresh => false,
            _ => bad(),
        };
        let store = words.len() == 4;
        let root = tmpdir(
            "sfcc-lineage",
            &format!("{:x}-{}", script.seed, words.join("-")),
        );
        let mut config = GeneratorConfig::small(script.seed);
        config.callees_per_function = script.calls.unwrap_or(config.callees_per_function);
        let model = generate_model(&config);
        let edits = match script.only {
            Some(kind) => EditScript::only(script.seed, kind),
            None => EditScript::new(script.seed ^ 0x51ed_270b),
        };
        let reference = route == Route::Resident && jobs == 1;
        let mut lane = Lane::new(&root, "s", route, jobs, store);
        // Verifying shapes the function cache's identity, and a subject
        // commits the cache its peer does: only a subject without a peer
        // verifies.
        lane.verify = reference;
        Run {
            script,
            subject,
            index: 0,
            flags: Flags {
                stateful,
                fn_cache: stateful,
                opt: 2,
            },
            store,
            lane,
            peer: (!reference).then(|| Lane::new(&root, "p", Route::Resident, 1, store)),
            twin: Lane::new(&root, "t", Route::Resident, 1, store),
            stateless: None,
            root,
            previous: model.clone(),
            model,
            edits,
            signature: false,
            extra: false,
            last: None,
            skipped: 0,
            optimized_edits: 0,
            cache_stale: false,
            cache_opened: false,
        }
    }

    /// Panics unless `ok`, naming `check`, the step and the reproduction.
    fn ensure(&self, ok: bool, check: &str, what: &str) {
        if !ok {
            let step = match self.index {
                0 => "the first build".to_string(),
                i => format!("{:?}", self.script.steps[i - 1]),
            };
            let (index, script, subject) = (self.index, self.script, self.subject);
            panic!(
                "lineage check `{check}` failed at step {index} ({step}): {what}\n  \
                 reproduce: lineage::check(&{script}, \"{subject}\")"
            );
        }
    }

    /// Whether a function cache or a store serves the subject's builds.
    fn cached(&self) -> bool {
        self.flags.fn_cache || self.store
    }

    fn project(&self) -> Project {
        let mut p = self.model.render();
        let (s, call) = match self.signature {
            true => ("fn s(x: int, y: int) -> int { return x + y; }", "s(x, 2)"),
            false => ("fn s(x: int) -> int { return x + 1; }", "s(x)"),
        };
        let t = format!("fn t(x: int) -> int {{ return {call} * 2; }}");
        p.set_file("sigx".to_string(), format!("{s}\n{t}"));
        let u = format!("fn u(x: int) -> int {{ return sigx::{call} + sigx::t(x); }}");
        let v = "fn v(x: int) -> int { return x - 1; }";
        p.set_file("sigy".to_string(), format!("import sigx;\n{u}\n{v}"));
        if self.extra {
            let e = "fn e(x: int) -> int { return x * 3; }";
            p.set_file("extra".to_string(), e.to_string());
        }
        p
    }

    fn step(&mut self, step: Step) {
        let mut commit = None;
        match step {
            Step::Noop => {}
            Step::Edit => {
                self.previous = self.model.clone();
                commit = Some(self.edits.commit(&mut self.model));
                self.optimized_edits += usize::from(self.flags.opt > 0);
            }
            Step::Revert => std::mem::swap(&mut self.model, &mut self.previous),
            Step::Signature => self.signature = !self.signature,
            Step::Module => self.extra = !self.extra,
            Step::Opt(level) => {
                self.flags.opt = level;
                self.cache_stale &= !self.flags.fn_cache;
            }
            Step::FnCache => {
                self.flags.fn_cache = !self.flags.fn_cache;
                self.cache_stale = true;
                self.cache_opened = false;
            }
            Step::Restart => {
                // The twin keeps its session: it holds what a new process
                // would load from its commit.
                self.lane.restart();
                return self.peer.iter_mut().for_each(Lane::restart);
            }
            Step::Audit => return self.audit(),
            Step::DropImage => fs::remove_file(self.lane.image()).unwrap(),
            Step::TruncateImage => {
                let file = fs::OpenOptions::new().write(true).open(self.lane.image());
                file.and_then(|file| file.set_len(10)).unwrap();
            }
        }
        self.build(step, commit);
    }

    /// Builds the current tree on the subject and checks every row.
    fn build(&mut self, step: Step, commit: Option<Commit>) {
        let project = self.project();
        let flags = self.flags;
        let warm = self.lane.warm(&flags);
        let hits = warm && self.peer.as_ref().is_some_and(|peer| peer.warm(&flags));
        let unchanged = matches!(step, Step::Noop | Step::DropImage | Step::TruncateImage);
        let noop = unchanged && self.last.is_some();
        let before = noop.then(|| state_files(&self.lane.dir));
        let flip = matches!(step, Step::Opt(_)) && !self.store;
        let fresh = (!flags.stateful && !self.cached()) || (flags.stateful && flip);
        // The subject, its peer, its twin and the reference build at once,
        // each in a directory of its own.
        let (project, root) = (&project, &self.root);
        let (got, peer, twin, reference) = std::thread::scope(|s| {
            let peer = s.spawn(|| self.peer.as_mut().map(|peer| peer.build(project, &flags)));
            let twin = s.spawn(|| {
                let twin = &mut self.twin;
                (flags.stateful && !noop).then(|| twin_image(twin, project, &flags))
            });
            let reference = s.spawn(|| match fresh {
                true => Reference::Fresh(fresh_image(root, project, &flags)),
                false => {
                    Reference::Behaviour(stateless(&mut self.stateless, root, project, &flags))
                }
            });
            let got = self.lane.build(project, &flags);
            let joined = (peer.join(), twin.join(), reference.join());
            (got, joined.0.unwrap(), joined.1.unwrap(), joined.2.unwrap())
        });
        let recovered = got.gauge("recovery.recovered_files");
        let quarantined = strings(&got.report["recovery"]["quarantined"]);
        let what = format!("{recovered} recovered, quarantined {quarantined:?}");
        self.ensure(
            recovered == 0 && quarantined.is_empty(),
            "recoveries",
            &what,
        );
        let remat = got.tasks("rematerialized");
        let reran = remat.iter().any(|t| t.starts_with("optimizefn("));
        self.ensure(!reran, "peer", &format!("rematerialized {remat:?}"));
        if let Some(last) = self.last.as_ref().filter(|_| noop) {
            self.ensure(got.image == last.image, "noop", "image");
            let file = fs::read(self.lane.image()).ok();
            self.ensure(file.as_ref() == Some(&got.image), "noop", "the image file");
            if flags.stateful && !warm && step == Step::Noop {
                let read = ["query.hits", "query.loaded", "persist.values_verified"];
                let read = read.map(|name| got.gauge(name));
                let what = format!("hits, loaded, verified: {read:?}");
                self.ensure(read == [1, 0, 0], "noop", &what);
            }
            if flags.stateful || warm {
                let (misses, now, then) = (
                    got.gauge("query.misses"),
                    got.generation(),
                    last.generation(),
                );
                let what = format!("{misses} misses, generation {then} -> {now}");
                self.ensure(misses == 0 && now == then, "noop", &what);
                let moved = Some(state_files(&self.lane.dir)) != before;
                self.ensure(!moved, "noop", "a state file moved");
            }
        }
        if let Some(want) = &peer {
            self.check_peer(&got, want, hits);
        }
        self.cache_opened |= got.gauge("query.misses") > 0;
        self.check_chains(&got, peer.as_ref());
        if let Some(commit) = commit.filter(|_| flags.stateful || warm) {
            let modules = got.report["modules"].as_arr().unwrap();
            let rebuilt = modules.iter().any(|m| {
                m["name"].as_str() == Some(&commit.module) && m["rebuilt"].as_bool() == Some(true)
            });
            let local =
                commit.kind == EditKind::AddFunction || got.gauge("build.rebuilt_count") == 1;
            let what = format!("{commit:?} rebuilt {}", json::write(&got.report["modules"]));
            self.ensure(rebuilt && local, "minimal", &what);
        }
        if matches!(step, Step::Opt(_) | Step::FnCache) && flags.stateful {
            let executed = got.tasks("executed");
            let shaped = ["optimizefn(", "codegen(", "link"];
            let ok = executed
                .iter()
                .all(|t| shaped.iter().any(|k| t.starts_with(k)));
            self.ensure(ok, "minimal", &format!("a flip executed {executed:?}"));
        }
        match reference {
            Reference::Fresh(fresh) => self.ensure(got.image == fresh, "fresh", "image"),
            Reference::Behaviour(want) => {
                let have = behaviour(&sfcc_backend::image::from_bytes(&got.image).unwrap());
                self.ensure(have == want, "behaviour", &format!("{have:?} != {want:?}"));
            }
        }
        if let Some(twin) = twin.filter(|_| self.cache_synced()) {
            self.ensure(twin == got.image, "twin", "image");
        }
        if flags.stateful {
            self.skipped += got.gauge("outcomes.skipped");
        }
        self.last = Some(got);
    }

    /// Compares the subject's build with its peer's.
    fn check_peer(&self, got: &Outcome, want: &Outcome, hits: bool) {
        self.ensure(got.image == want.image, "peer", "image");
        let (have, theirs) = (got.decisions(hits), want.decisions(hits));
        self.ensure(
            have == theirs,
            "peer",
            &format!("{have}\n    peer: {theirs}"),
        );
        let logicals = ["state", "ircache", "depgraph"].into_iter();
        let pairs = got.committed.iter().zip(&want.committed);
        let moved: Vec<&str> = logicals
            .zip(pairs)
            .filter(|(_, (a, b))| a != b)
            .map(|(l, _)| l)
            .collect();
        self.ensure(moved.is_empty(), "peer", &format!("committed {moved:?}"));
    }

    /// Whether the function cache holds every value the graph does.
    fn cache_synced(&self) -> bool {
        self.flags.fn_cache && !self.cache_stale
    }

    /// The chains the subject's and the peer's builders committed fold to
    /// their whole files: the cache's too while the cache is on, from an
    /// `--fn-cache` flip on the first build that opens it.
    fn check_chains(&mut self, got: &Outcome, peer: Option<&Outcome>) {
        if !self.flags.stateful {
            return;
        }
        let cache = self.flags.fn_cache && (!self.cache_stale || self.cache_opened);
        let lanes = [Some((&mut self.lane, got)), self.peer.as_mut().zip(peer)];
        let unfolded = lanes
            .into_iter()
            .flatten()
            .filter_map(|(lane, built)| lane.unfolded(built, cache));
        let unfolded: Vec<String> = unfolded.collect();
        self.ensure(unfolded.is_empty(), "chains", &unfolded.join("; "));
    }

    fn audit(&self) {
        let mut service = service(&self.lane.dir, &self.lane.args(&self.flags));
        let verdict = service.depcheck().unwrap().depcheck.unwrap();
        self.ensure(verdict.is_clean(), "audit", &verdict.render());
    }

    fn finish(mut self) {
        self.index = self.script.steps.len();
        if self.flags.stateful && self.optimized_edits >= 3 {
            self.ensure(self.skipped > 0, "behaviour", "no pass slot was skipped");
        }
        if self.flags.stateful && self.script.builds() >= 16 {
            let lanes = [Some(&self.lane), self.peer.as_ref()].into_iter().flatten();
            let builders = lanes.filter(|lane| lane.route != Route::Daemon);
            let rebased: Vec<usize> = builders.map(|lane| lane.rebased).collect();
            let what = format!("the graph chains rebased {rebased:?} time(s)");
            self.ensure(rebased.iter().all(|&n| n >= 2), "chains", &what);
        }
        if let (Some(daemon), Some(peer)) = (&self.lane.daemon, &mut self.peer) {
            let mut req = request("ir", &self.lane.dir, &self.lane.args(&self.flags));
            req.module = Some("main".to_string());
            let have = serve(&daemon.socket(), req)["ir"]
                .as_str()
                .unwrap()
                .to_string();
            let project = Project::from_dir(&peer.dir).unwrap();
            let builder = peer.builder.as_mut().expect("a peer session");
            let ir = builder.module_ir(&project, "main").unwrap().unwrap();
            let want = sfcc_ir::module_to_string(&ir);
            self.ensure(have == want, "peer", "the daemon's `ir main`");
        }
        self.lane.restart();
        self.twin.restart();
        cleanup(&self.root);
    }
}
