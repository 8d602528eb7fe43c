//! The untraced run: one workload's epochs of requests driven against the
//! real `minicc` binary, every request timed from outside and every output
//! checked. All end-to-end metrics come from here and only from here.

use crate::lane::{self, ServeChild};
use crate::oracle::{self, Verdict};
use crate::stats;
use crate::workloads::{Lane, Plan, Workload, CORPUS_SEED, ORACLE_EVERY};
use sfcc_buildsys::Project;
use sfcc_workload::{generate_model, EditScript, ProjectModel};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A directory removed, with everything in it, when the value is dropped —
/// on success, on error and on panic alike.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates a uniquely named directory under `out`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create(out: &Path) -> Result<Scratch, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let root = out.join(format!("scratch-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create `{}`: {e}", root.display()))?;
        // The daemon resolves request directories itself; hand out
        // absolute paths so both sides mean the same place.
        let root = std::fs::canonicalize(&root)
            .map_err(|e| format!("cannot resolve `{}`: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// The directory.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Build requests and output checks made, and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one build request.
    pub fn request(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one output check: an operation per input compared.
    pub fn checks(&mut self, verdict: &Verdict) {
        self.attempted += verdict.checks;
        self.failed += verdict.mismatches;
    }

    /// Adds another tally to this one.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything one untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct E2eRun {
    /// Wall time of each `setup`, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each from-scratch build, milliseconds (all clients).
    pub full_ms: Vec<f64>,
    /// Latency of each incremental build, milliseconds (all clients).
    pub incr_ms: Vec<f64>,
    /// Latency of each no-op build, milliseconds (all clients).
    pub noop_ms: Vec<f64>,
    /// Of each epoch, the incremental builds all its clients completed per
    /// second of the busiest client's time inside those requests: the wall
    /// time of the `incr` requests without the harness's own edits and
    /// checks between them.
    pub incr_rates: Vec<f64>,
    /// Largest resident set of any compiler process the run drove, KiB:
    /// every `minicc build` child and every daemon.
    pub peak_rss_kb: u64,
    /// Size of the first epoch's checkpoint image(s), bytes (summed over
    /// clients).
    pub image_bytes: u64,
    /// VM instructions over the run inputs on the same image(s).
    pub run_vm_steps: u64,
    /// Requests and checks, attempted and failed.
    pub ops: Ops,
    /// The first few failure messages, for the operator.
    pub errors: Vec<String>,
}

impl E2eRun {
    /// `incr_tail_ms` and the percentile it stands for.
    pub fn incr_tail(&self) -> (f64, u32) {
        stats::tail(&self.incr_ms)
    }

    /// Takes over what a later epoch measured. The exact counts stay
    /// those of the first epoch, whose edits are the fixed corpus.
    fn absorb(&mut self, mut epoch: E2eRun) {
        self.setup_s.append(&mut epoch.setup_s);
        self.full_ms.append(&mut epoch.full_ms);
        self.incr_ms.append(&mut epoch.incr_ms);
        self.noop_ms.append(&mut epoch.noop_ms);
        self.incr_rates.append(&mut epoch.incr_rates);
        self.peak_rss_kb = self.peak_rss_kb.max(epoch.peak_rss_kb);
        self.ops.merge(epoch.ops);
        let room = 5usize.saturating_sub(self.errors.len());
        self.errors.extend(epoch.errors.into_iter().take(room));
    }
}

/// The kind of a build request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A from-scratch build.
    Full,
    /// The build after one commit.
    Incr,
    /// A build of the unchanged tree.
    Noop,
}

/// Where a run takes place: what `setup` produced, shared by all clients.
#[derive(Debug, Clone)]
pub struct Site {
    /// The `minicc` binary under test.
    pub minicc: PathBuf,
    /// The workload being run.
    pub workload: Workload,
    /// The workload's build flags, owned.
    pub flags: Vec<String>,
    /// The daemon's socket (warm lane).
    pub socket: Option<PathBuf>,
    /// The directory every tree of the run lives under (the daemon's root
    /// on the warm lane).
    pub root: PathBuf,
}

/// What carries out one client's build requests. The untraced run uses
/// [`Outside`]; the traced run substitutes a backend that wraps the same
/// requests in spans.
pub trait Backend: Send {
    /// One build of `dir` into `out`, timed by the implementor from send
    /// to reply; `store` is the artifact store on the CAS lane. `Err` is a
    /// failed request.
    fn build(
        &mut self,
        class: Class,
        dir: &Path,
        out: &Path,
        store: Option<&Path>,
    ) -> (Duration, Result<(), String>);

    /// Called once after the client's last request, while the daemon and
    /// the client's final tree (`project`, on disk at `dir`) still exist.
    fn finish(&mut self, _site: &Site, _project: &Project, _dir: &Path) {}
}

/// The backend of the untraced run: every request goes to the real
/// `minicc`, as a process of its own or as a frame to the daemon, and is
/// timed from outside.
pub struct Outside {
    site: Site,
}

impl Outside {
    /// A backend for `site`.
    pub fn new(site: &Site) -> Outside {
        Outside { site: site.clone() }
    }
}

/// `flags` plus `--cas <store>` when there is a store.
pub fn with_store(flags: &[String], store: Option<&Path>) -> Vec<String> {
    let mut flags = flags.to_vec();
    if let Some(store) = store {
        flags.push("--cas".to_string());
        flags.push(store.display().to_string());
    }
    flags
}

impl Backend for Outside {
    fn build(
        &mut self,
        _class: Class,
        dir: &Path,
        out: &Path,
        store: Option<&Path>,
    ) -> (Duration, Result<(), String>) {
        match &self.site.socket {
            Some(socket) => {
                let (elapsed, reply) = lane::warm_build(socket, dir, out, &self.site.flags);
                (elapsed, reply.map(|_| ()))
            }
            None => lane::cli_build(
                &self.site.minicc,
                dir,
                out,
                &with_store(&self.site.flags, store),
            ),
        }
    }
}

/// One closed-loop client: its project, its edit stream, and where its
/// tree and image live.
struct Client<B> {
    id: usize,
    backend: B,
    model: ProjectModel,
    /// The edit stream in use.
    script: EditScript,
    /// First epoch only: the `--seed` stream that takes over from the
    /// corpus history at the checkpoint.
    seeded: Option<EditScript>,
    /// The directory the next request builds.
    dir: PathBuf,
    /// The shared artifact store (CAS lane).
    store: Option<PathBuf>,
    out: PathBuf,
    commits: usize,
    checkouts: usize,
    full_ms: Vec<f64>,
    incr_ms: Vec<f64>,
    noop_ms: Vec<f64>,
    /// Time spent inside incremental build requests.
    incr_busy: Duration,
    /// `(image bytes, VM steps)` at the checkpoint.
    checkpoint: Option<(u64, u64)>,
    ops: Ops,
    errors: Vec<String>,
}

impl<B: Backend> Client<B> {
    fn fail(&mut self, message: String) {
        if self.errors.len() < 5 {
            self.errors.push(format!("client {}: {message}", self.id));
        }
    }

    /// Counts one build request; returns its latency in milliseconds.
    fn record(&mut self, elapsed: Duration, outcome: Result<(), String>) -> f64 {
        self.ops.request(outcome.is_ok());
        if let Err(message) = outcome {
            self.fail(message);
        }
        elapsed.as_secs_f64() * 1e3
    }

    /// Writes the whole current tree into a new directory under `root`.
    fn write_tree(&mut self, root: &Path, tag: &str) -> PathBuf {
        self.checkouts += 1;
        let dir = root.join(format!("c{}-{tag}{}", self.id, self.checkouts));
        if let Err(e) = self.model.render().write_to_dir(&dir) {
            self.fail(format!("cannot write `{}`: {e}", dir.display()));
        }
        dir
    }

    /// CAS lane: the next request builds a fresh checkout of the current
    /// tree; the previous checkout is removed.
    fn fresh_checkout(&mut self, root: &Path) {
        let next = self.write_tree(root, "co");
        let _ = std::fs::remove_dir_all(std::mem::replace(&mut self.dir, next));
    }

    /// Checks the current image against the reference (untimed).
    fn check_output(&mut self) -> Verdict {
        let verdict = oracle::check_image(&self.model.render(), &self.out);
        self.ops.checks(&verdict);
        if verdict.mismatches > 0 {
            self.fail(format!(
                "image after commit {} disagrees with the reference interpreter on {} of {} inputs",
                self.commits, verdict.mismatches, verdict.checks
            ));
        }
        verdict
    }

    /// The from-scratch build of the client's tree, fresh from `setup`.
    fn full_build(&mut self) {
        let (elapsed, outcome) =
            self.backend
                .build(Class::Full, &self.dir, &self.out, self.store.as_deref());
        let ms = self.record(elapsed, outcome);
        self.full_ms.push(ms);
    }

    /// One commit, one rewritten file, one timed build.
    fn incr_build(&mut self, site: &Site, checkpoint: usize) {
        let commit = self.script.commit(&mut self.model);
        if site.workload.lane == Lane::CasCheckout {
            self.fresh_checkout(&site.root);
        } else {
            let module = self
                .model
                .modules
                .iter()
                .find(|m| m.name == commit.module)
                .expect("a commit names a module of the model");
            let path = self.dir.join(format!("{}.mc", module.name));
            if let Err(e) = std::fs::write(&path, self.model.render_module(module)) {
                self.fail(format!("cannot write `{}`: {e}", path.display()));
            }
        }
        let (elapsed, outcome) =
            self.backend
                .build(Class::Incr, &self.dir, &self.out, self.store.as_deref());
        let ms = self.record(elapsed, outcome);
        self.incr_ms.push(ms);
        self.incr_busy += elapsed;
        self.commits += 1;
        let at_checkpoint = self.commits == checkpoint;
        if at_checkpoint || self.commits.is_multiple_of(ORACLE_EVERY) {
            let verdict = self.check_output();
            if at_checkpoint {
                let bytes = std::fs::metadata(&self.out).map_or(0, |m| m.len());
                self.checkpoint = Some((bytes, verdict.vm_steps));
                if let Some(seeded) = self.seeded.take() {
                    self.script = seeded;
                }
            }
        }
    }

    /// A build of the unchanged tree.
    fn noop_build(&mut self, site: &Site) {
        if site.workload.lane == Lane::CasCheckout {
            self.fresh_checkout(&site.root);
        }
        let (elapsed, outcome) =
            self.backend
                .build(Class::Noop, &self.dir, &self.out, self.store.as_deref());
        let ms = self.record(elapsed, outcome);
        self.noop_ms.push(ms);
    }

    /// The client's whole request stream (see [`Plan`]), ending with the
    /// `run` phase: the final image must still behave like the reference.
    fn requests(&mut self, site: &Site, plan: &Plan) {
        let started = Instant::now();
        self.full_build();
        self.check_output();
        let mut cycles = 0;
        while plan.more(cycles, started) {
            for _ in 0..plan.cycle_incr {
                self.incr_build(site, plan.checkpoint);
            }
            for _ in 0..plan.cycle_noop {
                self.noop_build(site);
            }
            cycles += 1;
        }
        self.check_output();
    }
}

/// The socket path handed to the daemon and its clients: relative to the
/// working directory when the scratch root is under it, because a unix
/// socket address holds barely a hundred bytes.
fn socket_path(root: &Path) -> PathBuf {
    let socket = root.join("d.sock");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| std::fs::canonicalize(cwd).ok())
        .and_then(|cwd| socket.strip_prefix(&cwd).ok().map(Path::to_path_buf))
        .unwrap_or(socket)
}

/// A client's project, trees and streams before it has a backend.
struct Seat {
    model: ProjectModel,
    dir: PathBuf,
    store: Option<PathBuf>,
    out: PathBuf,
}

/// The `setup` phase: generate each client's model, write its tree, start
/// the daemon (warm lane) or create the store (CAS lane).
fn set_up(
    minicc: &Path,
    workload: &Workload,
    root: &Path,
) -> Result<(Vec<Seat>, Option<ServeChild>), String> {
    std::fs::create_dir_all(root)
        .map_err(|e| format!("cannot create `{}`: {e}", root.display()))?;
    let mut seats = Vec::with_capacity(workload.clients);
    for id in 0..workload.clients {
        let model = generate_model(&workload.preset.config(CORPUS_SEED + id as u64));
        let dir = root.join(format!("c{id}"));
        model
            .render()
            .write_to_dir(&dir)
            .map_err(|e| format!("cannot write `{}`: {e}", dir.display()))?;
        let store = match workload.lane {
            Lane::CasCheckout => {
                let store = root.join(format!("c{id}.store"));
                std::fs::create_dir_all(&store)
                    .map_err(|e| format!("cannot create `{}`: {e}", store.display()))?;
                Some(store)
            }
            Lane::Cli | Lane::Warm => None,
        };
        seats.push(Seat {
            model,
            out: root.join(format!("c{id}.sbx")),
            dir,
            store,
        });
    }
    let daemon = match workload.lane {
        Lane::Warm => Some(ServeChild::start(minicc, root, &socket_path(root))?),
        Lane::Cli | Lane::CasCheckout => None,
    };
    Ok((seats, daemon))
}

/// Runs one epoch of a workload (see [`Plan`]) through the backends `make`
/// builds (one per client) and returns what was measured together with
/// the backends. The first epoch replays the fixed corpus and goes on, past
/// the checkpoint, with edits drawn from `seed`; every later epoch draws
/// all its edits from `seed` and its own number. Everything written goes
/// under a scratch directory in `out` that is gone when this returns.
///
/// # Errors
///
/// The harness itself could not run (no scratch directory, daemon did not
/// start). Failed builds and wrong outputs are not errors: they are
/// counted in [`E2eRun::ops`].
pub fn run_with<B: Backend>(
    minicc: &Path,
    workload: &Workload,
    seed: u64,
    epoch: u64,
    plan: &Plan,
    out: &Path,
    make: impl Fn(&Site, usize) -> B,
) -> Result<(E2eRun, Vec<B>), String> {
    let scratch = Scratch::create(out)?;
    let mut result = E2eRun::default();

    // `setup`, several times over; the last repetition is the one the
    // requests then run against.
    let mut live: Option<(PathBuf, Vec<Seat>, Option<ServeChild>)> = None;
    for attempt in 0..plan.setups.max(1) {
        if let Some((previous, _, daemon)) = live.take() {
            if let Some(daemon) = daemon {
                daemon.shutdown();
            }
            let _ = std::fs::remove_dir_all(previous);
        }
        let root = scratch.root().join(format!("s{attempt}"));
        let started = Instant::now();
        let (seats, daemon) = set_up(minicc, workload, &root)?;
        result.setup_s.push(started.elapsed().as_secs_f64());
        live = Some((root, seats, daemon));
    }
    let (root, seats, daemon) = live.expect("at least one setup ran");

    let site = Site {
        minicc: minicc.to_path_buf(),
        workload: *workload,
        flags: workload.flags.iter().map(|f| f.to_string()).collect(),
        socket: daemon.as_ref().map(|d| d.socket().to_path_buf()),
        root,
    };
    let seeded = |id: usize| {
        // Odd multiplier: distinct epochs never share a stream.
        let stream = seed.wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        workload.script(stream.wrapping_add(id as u64))
    };
    let mut clients: Vec<Client<B>> = seats
        .into_iter()
        .enumerate()
        .map(|(id, seat)| Client {
            id,
            backend: make(&site, id),
            model: seat.model,
            script: if epoch == 0 {
                workload.script(CORPUS_SEED + id as u64)
            } else {
                seeded(id)
            },
            seeded: (epoch == 0).then(|| seeded(id)),
            dir: seat.dir,
            store: seat.store,
            out: seat.out,
            commits: 0,
            checkouts: 0,
            full_ms: Vec::new(),
            incr_ms: Vec::new(),
            noop_ms: Vec::new(),
            incr_busy: Duration::ZERO,
            checkpoint: None,
            ops: Ops::default(),
            errors: Vec::new(),
        })
        .collect();

    // All clients at once; each is a closed loop.
    std::thread::scope(|scope| {
        for client in &mut clients {
            let site = &site;
            scope.spawn(move || client.requests(site, plan));
        }
    });
    let mut backends = Vec::with_capacity(clients.len());
    let mut busiest = Duration::ZERO;
    for mut client in clients {
        client
            .backend
            .finish(&site, &client.model.render(), &client.dir);
        result.full_ms.append(&mut client.full_ms);
        result.incr_ms.append(&mut client.incr_ms);
        result.noop_ms.append(&mut client.noop_ms);
        busiest = busiest.max(client.incr_busy);
        let (bytes, steps) = client.checkpoint.unwrap_or_default();
        result.image_bytes += bytes;
        result.run_vm_steps += steps;
        result.ops.merge(client.ops);
        result.errors.append(&mut client.errors);
        backends.push(client.backend);
    }

    if !busiest.is_zero() {
        result
            .incr_rates
            .push(result.incr_ms.len() as f64 / busiest.as_secs_f64());
    }
    // Reaped first: only a waited-for daemon counts among the children.
    if let Some(daemon) = daemon {
        daemon.shutdown();
    }
    result.peak_rss_kb = lane::children_peak_rss_kb();
    Ok((result, backends))
}

/// The untraced run: epochs of [`run_with`] the [`Outside`] backend, as
/// many as fit into the plan's budget (an epoch is only started when one
/// as long as the longest so far would still end in time), at least one.
///
/// # Errors
///
/// See [`run_with`].
pub fn run(
    minicc: &Path,
    workload: &Workload,
    seed: u64,
    plan: &Plan,
    out: &Path,
) -> Result<E2eRun, String> {
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    let mut total: Option<E2eRun> = None;
    for epoch in 0.. {
        let began = Instant::now();
        let (run, _) = run_with(minicc, workload, seed, epoch, plan, out, |site, _| {
            Outside::new(site)
        })?;
        longest = longest.max(began.elapsed());
        match &mut total {
            Some(total) => total.absorb(run),
            None => total = Some(run),
        }
        if started.elapsed() + longest > plan.budget {
            break;
        }
    }
    Ok(total.expect("at least one epoch ran"))
}
