//! The daemon server: unix-socket lifecycle, per-project sessions, and
//! request routing.
//!
//! The server is build-system agnostic: the embedder supplies a
//! [`ServiceFactory`] that creates one [`Service`] per project session,
//! and the server owns everything around it — socket binding with
//! stale-socket recovery, the accept loop, frame/JSON decoding, the
//! admission [`Gate`], the session registry keyed by
//! canonical project directory, and the snapshot lifecycle (per-session on
//! recycle, all sessions on idle and on shutdown).
//!
//! Session isolation: distinct projects get distinct [`Service`] instances
//! and may build concurrently (bounded by the gate); requests for the
//! *same* project serialize on its session slot, waiting at most the
//! per-request timeout. A session is keyed by `(directory, build flags)`:
//! a request with different flags snapshots the old service and creates a
//! fresh one. The fresh service starts from what the old one committed, not
//! from nothing: flags reach persisted state as tracked inputs, so it
//! re-executes only the work the changed flags shape.

use crate::gate::{Gate, GateError};
use crate::protocol::{self, ErrorKind, Request};
use sfcc_trace::json::{self, Value};
use std::collections::HashMap;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One warm per-project compilation session.
///
/// Implementations keep whatever makes serves warm (query engine, caches,
/// dormancy state) resident between [`Service::handle`] calls.
pub trait Service: Send {
    /// Handles one request for this session's project; the result is the
    /// object whose members follow `"ok"` and `"cmd"` in the reply.
    ///
    /// # Errors
    ///
    /// A human-readable failure (reported to the client as a typed `build`
    /// error); the session stays usable.
    fn handle(&mut self, request: &Request) -> Result<Value, String>;

    /// Persists this session's durable state (dormancy state, caches)
    /// through whatever commit protocol the embedder uses. Called on
    /// daemon shutdown, on idle, and before a session is recycled.
    ///
    /// # Errors
    ///
    /// A human-readable failure; the daemon logs and continues.
    fn snapshot(&mut self) -> Result<(), String>;
}

/// Creates the [`Service`] of a new session: canonical project directory
/// plus the request's build flags.
pub type ServiceFactory =
    Box<dyn Fn(&Path, &[String]) -> Result<Box<dyn Service>, String> + Send + Sync>;

/// Server tuning knobs.
pub struct DaemonOptions {
    /// The socket path to bind.
    pub socket: PathBuf,
    /// Directory that confines project sessions: requests whose canonical
    /// project directory is not under this root are rejected with a typed
    /// `outside-root` error.
    pub root: PathBuf,
    /// Build-class requests running concurrently (distinct projects).
    pub max_active: usize,
    /// Build-class requests waiting in the admission queue.
    pub max_queued: usize,
    /// How long one request may wait for a worker slot and its session.
    pub request_timeout: Duration,
    /// Snapshot every session after this much quiet time, when set.
    pub idle_snapshot: Option<Duration>,
}

impl DaemonOptions {
    /// Defaults: 2 concurrent builds, 16 queued, 30 s request timeout, no
    /// idle snapshot, socket at `<root>/daemon.sock`.
    pub fn new(root: impl Into<PathBuf>) -> DaemonOptions {
        let root = root.into();
        DaemonOptions {
            socket: root.join("daemon.sock"),
            root,
            max_active: 2,
            max_queued: 16,
            request_timeout: Duration::from_secs(30),
            idle_snapshot: None,
        }
    }
}

/// Monotonic counters of a daemon's lifetime, exposed by `stats` and
/// returned by [`Daemon::run`].
#[derive(Default)]
pub struct DaemonStats {
    /// Requests decoded (including failed ones).
    pub requests: AtomicU64,
    /// Successful build-class serves (build/ir/run/depcheck).
    pub serves: AtomicU64,
    /// Typed `busy` rejections.
    pub busy_rejections: AtomicU64,
    /// Typed `timeout` rejections.
    pub timeouts: AtomicU64,
    /// Malformed frames / unknown commands.
    pub malformed: AtomicU64,
    /// Sessions created (including recycles).
    pub sessions_created: AtomicU64,
    /// Session snapshots taken (idle, shutdown, recycle).
    pub snapshots: AtomicU64,
}

/// One session slot: the service plus the flag signature it was built
/// under. The service is `taken` out while a request runs, so same-project
/// requests serialize here with a deadline instead of a blocking lock.
struct SessionSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

struct SlotState {
    /// `None` while a request holds the service.
    service: Option<Box<dyn Service>>,
    /// Signature of the build flags the service was created under.
    signature: String,
}

struct Inner {
    options: DaemonOptions,
    factory: ServiceFactory,
    gate: Gate,
    sessions: Mutex<HashMap<PathBuf, Arc<SessionSlot>>>,
    stats: DaemonStats,
    shutdown: AtomicBool,
    /// Open client connections, drained before shutdown snapshotting.
    connections: AtomicUsize,
    last_activity: Mutex<Instant>,
    started: Instant,
}

/// A bound-but-not-yet-running daemon; [`Daemon::run`] serves until
/// shutdown, [`Daemon::spawn`] does so on a background thread.
pub struct Daemon {
    listener: UnixListener,
    inner: Arc<Inner>,
}

/// Handle to a daemon running on a background thread.
pub struct DaemonHandle {
    inner: Arc<Inner>,
    thread: std::thread::JoinHandle<()>,
}

impl DaemonHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> PathBuf {
        self.inner.options.socket.clone()
    }

    /// Requests shutdown and waits for the daemon to snapshot and exit.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

/// `true` once the process received SIGTERM/SIGINT after
/// [`install_term_handler`].
pub fn term_received() -> bool {
    TERM_RECEIVED.load(Ordering::SeqCst)
}

static TERM_RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_term(_signum: i32) {
    // Async-signal-safe: a single atomic store; the serve loop polls it.
    TERM_RECEIVED.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM/SIGINT handler that flips [`term_received`], so the
/// serve loop can drain, snapshot every session, and exit gracefully.
/// (Even without the handler the state directory stays consistent: every
/// durable commit is atomic.)
#[cfg(unix)]
pub fn install_term_handler() {
    type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

impl Daemon {
    /// Binds the socket, recovering a stale socket file (a previous daemon
    /// that died without unlinking) by probing it: a path that refuses
    /// connections is removed and rebound; one that accepts means another
    /// daemon is alive.
    ///
    /// # Errors
    ///
    /// A human-readable reason: another daemon is running, or the bind
    /// failed.
    pub fn bind(options: DaemonOptions, factory: ServiceFactory) -> Result<Daemon, String> {
        let socket = options.socket.clone();
        let listener = match UnixListener::bind(&socket) {
            Ok(listener) => listener,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                match UnixStream::connect(&socket) {
                    Ok(_) => {
                        return Err(format!(
                            "a daemon is already serving `{}`",
                            socket.display()
                        ));
                    }
                    Err(_) => {
                        // Stale socket: the owning process is gone.
                        std::fs::remove_file(&socket)
                            .map_err(|e| format!("cannot remove stale socket: {e}"))?;
                        UnixListener::bind(&socket)
                            .map_err(|e| format!("cannot bind `{}`: {e}", socket.display()))?
                    }
                }
            }
            Err(e) => return Err(format!("cannot bind `{}`: {e}", socket.display())),
        };
        let gate = Gate::new(options.max_active, options.max_queued);
        Ok(Daemon {
            listener,
            inner: Arc::new(Inner {
                options,
                factory,
                gate,
                sessions: Mutex::new(HashMap::new()),
                stats: DaemonStats::default(),
                shutdown: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
                last_activity: Mutex::new(Instant::now()),
                started: Instant::now(),
            }),
        })
    }

    /// Serves until shutdown is requested (via request, handle, or
    /// SIGTERM), then drains connections, snapshots every session, and
    /// removes the socket file.
    ///
    /// Connections are accepted by a thread blocked in `accept`, so a
    /// request is served the moment it arrives; this thread only watches
    /// for shutdown and quiet time.
    pub fn run(self) {
        let Daemon { listener, inner } = self;
        let stopping = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || accept_loop(&listener, &inner, &stopping))
        };
        let mut last_idle_snapshot = Instant::now();
        while !(inner.shutdown.load(Ordering::SeqCst) || term_received()) {
            std::thread::sleep(Duration::from_millis(10));
            if let Some(idle) = inner.options.idle_snapshot {
                let quiet_since = *inner.last_activity.lock().unwrap();
                if quiet_since.elapsed() >= idle && last_idle_snapshot < quiet_since {
                    snapshot_all(&inner);
                    last_idle_snapshot = Instant::now();
                }
            }
        }
        // Stop accepting: the acceptor drops the connection that wakes it
        // and any later one, as a closed socket would.
        stopping.store(true, Ordering::SeqCst);
        if UnixStream::connect(&inner.options.socket).is_ok() {
            let _ = acceptor.join();
        }
        // Drain in-flight connections (bounded), then snapshot and unbind.
        let deadline = Instant::now() + Duration::from_secs(10);
        while inner.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        snapshot_all(&inner);
        let _ = std::fs::remove_file(&inner.options.socket);
    }

    /// Runs the daemon on a background thread; the returned handle shuts
    /// it down.
    pub fn spawn(self) -> DaemonHandle {
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::spawn(move || self.run());
        DaemonHandle { inner, thread }
    }
}

/// Accepts connections until `stopping`, each served on a thread of its
/// own.
fn accept_loop(listener: &UnixListener, inner: &Arc<Inner>, stopping: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _addr)) => {
                let inner = Arc::clone(inner);
                inner.connections.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    handle_connection(&inner, stream);
                    inner.connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // Out of descriptors or the like: back off, then retry.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Snapshots every session that is not currently serving a request.
fn snapshot_all(inner: &Inner) {
    let slots: Vec<Arc<SessionSlot>> = inner.sessions.lock().unwrap().values().cloned().collect();
    for slot in slots {
        let mut state = slot.state.lock().unwrap();
        // An in-flight request snapshots through its own completion path;
        // skipping here never loses durability because every build request
        // persists its own state before responding.
        if let Some(service) = state.service.as_mut() {
            if service.snapshot().is_ok() {
                inner.stats.snapshots.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn handle_connection(inner: &Inner, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    loop {
        let payload = match protocol::read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(_) => {
                inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
                let response = protocol::error_response(ErrorKind::Malformed, "unreadable frame");
                let _ = protocol::write_frame(&mut stream, json::write(&response).as_bytes());
                return;
            }
        };
        inner.stats.requests.fetch_add(1, Ordering::Relaxed);
        *inner.last_activity.lock().unwrap() = Instant::now();
        let response = match std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(Request::parse)
        {
            Ok(request) => handle_request(inner, &request),
            Err(why) => {
                inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
                protocol::error_response(ErrorKind::Malformed, &why)
            }
        };
        if protocol::write_frame(&mut stream, json::write(&response).as_bytes()).is_err() {
            return;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn handle_request(inner: &Inner, request: &Request) -> Value {
    match request.cmd.as_str() {
        "ping" => protocol::ok_response("ping", Value::Null),
        "stats" => protocol::ok_response("stats", stats(inner)),
        "shutdown" => {
            inner.shutdown.store(true, Ordering::SeqCst);
            protocol::ok_response("shutdown", Value::Null)
        }
        "build" | "ir" | "run" | "bc" | "depcheck" => handle_build_class(inner, request),
        other => {
            inner.stats.malformed.fetch_add(1, Ordering::Relaxed);
            protocol::error_response(ErrorKind::Malformed, &format!("unknown command `{other}`"))
        }
    }
}

/// The members of a `stats` reply.
fn stats(inner: &Inner) -> Value {
    let (active, queued) = inner.gate.occupancy();
    let sessions = inner.sessions.lock().unwrap().len();
    let s = &inner.stats;
    let count = |counter: &AtomicU64| Value::from(counter.load(Ordering::Relaxed));
    let daemon = Value::obj([
        ("requests", count(&s.requests)),
        ("serves", count(&s.serves)),
        ("busy", count(&s.busy_rejections)),
        ("timeouts", count(&s.timeouts)),
        ("malformed", count(&s.malformed)),
        ("sessions", sessions.into()),
        ("sessions_created", count(&s.sessions_created)),
        ("snapshots", count(&s.snapshots)),
        ("active", active.into()),
        ("queued", queued.into()),
        (
            "uptime_ms",
            (inner.started.elapsed().as_millis() as u64).into(),
        ),
    ]);
    Value::obj([("daemon", daemon)])
}

/// Signature of the build flags a session is keyed under.
fn flags_signature(args: &[String]) -> String {
    args.join("\u{1f}")
}

fn handle_build_class(inner: &Inner, request: &Request) -> Value {
    if inner.shutdown.load(Ordering::SeqCst) {
        return protocol::error_response(ErrorKind::ShuttingDown, "daemon is shutting down");
    }
    let Some(dir) = &request.dir else {
        return protocol::error_response(
            ErrorKind::Malformed,
            &format!("`{}` requires a \"dir\" field", request.cmd),
        );
    };
    let dir = match std::fs::canonicalize(dir) {
        Ok(dir) => dir,
        Err(e) => {
            return protocol::error_response(
                ErrorKind::Build,
                &format!("cannot resolve project directory `{dir}`: {e}"),
            );
        }
    };
    let root =
        std::fs::canonicalize(&inner.options.root).unwrap_or_else(|_| inner.options.root.clone());
    if !dir.starts_with(&root) {
        return protocol::error_response(
            ErrorKind::OutsideRoot,
            &format!(
                "project `{}` is outside the daemon root `{}`",
                dir.display(),
                root.display()
            ),
        );
    }

    let start = Instant::now();
    let _permit = match inner.gate.admit(inner.options.request_timeout) {
        Ok(permit) => permit,
        Err(e @ GateError::Busy { .. }) => {
            inner.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return protocol::error_response(ErrorKind::Busy, &e.to_string());
        }
        Err(e @ GateError::Timeout { .. }) => {
            inner.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            return protocol::error_response(ErrorKind::Timeout, &e.to_string());
        }
    };

    let slot = {
        let mut sessions = inner.sessions.lock().unwrap();
        Arc::clone(sessions.entry(dir.clone()).or_insert_with(|| {
            Arc::new(SessionSlot {
                state: Mutex::new(SlotState {
                    service: None,
                    signature: String::new(),
                }),
                cv: Condvar::new(),
            })
        }))
    };

    let signature = flags_signature(&request.args);
    let deadline = start + inner.options.request_timeout;
    let mut service = {
        let mut state = slot.state.lock().unwrap();
        // Same-project serialization: wait for the in-flight request (the
        // slot's service is taken out while one runs).
        loop {
            if state.service.is_some() || state.signature.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                inner.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return protocol::error_response(
                    ErrorKind::Timeout,
                    &format!(
                        "request timed out after {} ms waiting for the project session",
                        start.elapsed().as_millis()
                    ),
                );
            }
            let (next, _) = slot.cv.wait_timeout(state, deadline - now).unwrap();
            state = next;
        }
        // Recycle on flag change: snapshot the old service, start cold.
        if state.signature != signature {
            if let Some(mut old) = state.service.take() {
                let _ = old.snapshot();
                inner.stats.snapshots.fetch_add(1, Ordering::Relaxed);
            }
            state.signature.clear();
        }
        match state.service.take() {
            Some(service) => service,
            None => match (inner.factory)(&dir, &request.args) {
                Ok(service) => {
                    inner.stats.sessions_created.fetch_add(1, Ordering::Relaxed);
                    state.signature = signature.clone();
                    service
                }
                Err(why) => {
                    return protocol::error_response(ErrorKind::Internal, &why);
                }
            },
        }
    };

    let result = service.handle(request);
    {
        let mut state = slot.state.lock().unwrap();
        state.service = Some(service);
        drop(state);
        slot.cv.notify_all();
    }
    *inner.last_activity.lock().unwrap() = Instant::now();
    match result {
        Ok(members) => {
            inner.stats.serves.fetch_add(1, Ordering::Relaxed);
            protocol::ok_response(&request.cmd, members)
        }
        Err(why) => protocol::error_response(ErrorKind::Build, &why),
    }
}

/// Client side: one request/response roundtrip over a fresh connection.
///
/// # Errors
///
/// `Err` is a transport/protocol failure (cannot connect, frame error,
/// unparsable response) — distinct from a *typed* daemon error, which
/// arrives as a parsed [`protocol::Reply`] with `ok == false`.
pub fn roundtrip(socket: &Path, request: &Request) -> Result<protocol::Reply, String> {
    roundtrip_with_timeout(socket, request, Duration::from_secs(600))
}

/// [`roundtrip`] with an explicit client-side read timeout.
///
/// # Errors
///
/// See [`roundtrip`].
pub fn roundtrip_with_timeout(
    socket: &Path,
    request: &Request,
    timeout: Duration,
) -> Result<protocol::Reply, String> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to `{}`: {e}", socket.display()))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    protocol::write_frame(&mut stream, request.to_json().as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let payload = protocol::read_frame(&mut stream)
        .map_err(|e| format!("cannot read response: {e}"))?
        .ok_or("daemon closed the connection without responding")?;
    let text = String::from_utf8(payload).map_err(|e| format!("response is not UTF-8: {e}"))?;
    protocol::Reply::parse(&text)
}
