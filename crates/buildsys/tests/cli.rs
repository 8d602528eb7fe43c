//! CLI-level coverage for the `minicc` observability and recovery
//! commands: exit codes and stderr/stdout contracts of `stats`,
//! `trace-check`, and `fsck` against a clean project, quarantined state
//! files, and a missing state dir. Tests prefixed `quick_` form the CI
//! smoke subset.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A scratch copy of the checked-in `demo/` project (three modules).
fn demo_copy(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    for entry in std::fs::read_dir(demo).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "mc") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
    }
    dir
}

fn minicc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minicc"))
        .args(args)
        .output()
        .expect("failed to launch minicc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn quick_stats_without_report_fails_with_hint() {
    let dir = demo_copy("stats-missing");
    let out = minicc(&["stats", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "stats must fail before any build");
    let err = stderr(&out);
    assert!(
        err.contains(".sfcc-report.json") && err.contains("run `minicc build"),
        "stderr must name the missing report and hint at `build`: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_build_then_stats_renders_registry() {
    let dir = demo_copy("stats-ok");
    let d = dir.to_str().unwrap();
    let built = minicc(&["build", d]);
    assert!(built.status.success(), "build failed: {}", stderr(&built));
    assert!(
        dir.join(".sfcc-report.json").is_file(),
        "report not persisted"
    );

    let out = minicc(&["stats", d]);
    assert!(out.status.success(), "stats failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("metric(s)"), "missing header: {text}");
    for metric in [
        "build.wall_ns",
        "query.misses",
        "outcomes.dormant",
        "cache.hits",
    ] {
        assert!(
            text.contains(metric),
            "stats output missing {metric}: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_trace_export_validates_and_is_deterministic() {
    let dir_a = demo_copy("trace-a");
    let dir_b = demo_copy("trace-b");
    let trace_a = dir_a.join("trace.json");
    let trace_b = dir_b.join("trace.json");
    let run = |dir: &Path, trace: &Path, jobs: &str| {
        let out = minicc(&[
            "build",
            dir.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        assert!(
            out.status.success(),
            "traced build failed: {}",
            stderr(&out)
        );
    };
    // Two cold builds of identical sources, opposite parallelism.
    run(&dir_a, &trace_a, "1");
    run(&dir_b, &trace_b, "8");
    let bytes_a = std::fs::read(&trace_a).unwrap();
    let bytes_b = std::fs::read(&trace_b).unwrap();
    assert_eq!(
        bytes_a, bytes_b,
        "trace bytes differ between --jobs 1 and 8"
    );

    let out = minicc(&["trace-check", trace_a.to_str().unwrap()]);
    assert!(out.status.success(), "trace-check failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("valid") && text.contains("pass event(s)"),
        "unexpected trace-check summary: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn quick_trace_check_rejects_invalid_and_missing() {
    let dir = scratch_dir("trace-bad");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
    let out = minicc(&["trace-check", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "malformed trace must be rejected");

    let missing = dir.join("nope.json");
    let out = minicc(&["trace-check", missing.to_str().unwrap()]);
    assert!(!out.status.success(), "missing trace file must be rejected");
    assert!(
        stderr(&out).contains("nope.json"),
        "stderr must name the missing file: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_clean_after_stateful_build() {
    let dir = demo_copy("fsck-clean");
    let d = dir.to_str().unwrap();
    let built = minicc(&["build", d, "--stateful", "--fn-cache"]);
    assert!(built.status.success(), "build failed: {}", stderr(&built));

    let out = minicc(&["fsck", d]);
    assert!(out.status.success(), "fsck failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("3 file(s) checked") && text.contains("clean"),
        "clean state dir must verify state, cache and query graph: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_quarantines_corrupt_manifest_then_recovers() {
    let dir = demo_copy("fsck-corrupt");
    let d = dir.to_str().unwrap();
    let built = minicc(&["build", d, "--stateful", "--fn-cache"]);
    assert!(built.status.success(), "build failed: {}", stderr(&built));

    // Flip one byte in the middle of the commit manifest.
    let manifest = dir.join(".sfcc-state.manifest");
    let mut bytes = std::fs::read(&manifest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&manifest, &bytes).unwrap();

    let out = minicc(&["fsck", d]);
    assert!(
        out.status.success(),
        "fsck must not fail on corruption: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("quarantined"),
        "corrupt manifest not quarantined: {text}"
    );
    assert!(
        dir.join(".sfcc-state.manifest.corrupt").is_file(),
        "quarantined manifest must be preserved with a .corrupt suffix"
    );
    assert!(
        text.contains("next stateful build recompiles"),
        "fsck must explain the recovery path: {text}"
    );

    // A second fsck finds nothing left to quarantine, and a rebuild
    // recreates a clean state dir from scratch.
    let again = minicc(&["fsck", d]);
    assert!(again.status.success());
    assert!(
        stdout(&again).contains("clean"),
        "second fsck not clean: {}",
        stdout(&again)
    );
    let rebuilt = minicc(&["build", d, "--stateful", "--fn-cache"]);
    assert!(
        rebuilt.status.success(),
        "rebuild failed: {}",
        stderr(&rebuilt)
    );
    let final_check = minicc(&["fsck", d]);
    assert!(stdout(&final_check).contains("3 file(s) checked"));
    assert!(stdout(&final_check).contains("clean"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_missing_state_dir_reports_clean() {
    let dir = scratch_dir("fsck-missing");
    let missing = dir.join("no-such-project");
    let out = minicc(&["fsck", missing.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "fsck of absent state must succeed: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("0 file(s) checked") && text.contains("clean"),
        "absent state must be vacuously clean: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_without_operand_prints_usage() {
    let out = minicc(&["fsck"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("usage:"),
        "missing usage: {}",
        stderr(&out)
    );
}

#[test]
fn quick_closed_stdout_is_not_a_panic() {
    // `minicc build demo | head -1`, deterministically: stdout is a pipe
    // whose read end is already gone when the first line is printed.
    let dir = demo_copy("epipe");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_minicc"))
        .args(["build", dir.to_str().unwrap()])
        .stdout(writer)
        .output()
        .expect("failed to launch minicc");
    assert_eq!(
        out.status.code(),
        Some(0),
        "the build itself succeeded: {}",
        stderr(&out)
    );
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert!(dir.with_extension("sbx").is_file(), "image not written");
    let _ = std::fs::remove_file(dir.with_extension("sbx"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persisted_function_cache_is_not_served_across_opt_levels() {
    // The cache keys on function fingerprints alone, which is only sound
    // under one pipeline: entries persisted at one level must never be
    // served at another. Every image equals a fresh build at its level.
    let build = |dir: &Path, level: &str| -> Vec<u8> {
        let image = dir.join("out.sbx");
        let out = minicc(&[
            "build",
            dir.to_str().unwrap(),
            "--stateful",
            "--fn-cache",
            level,
            "-o",
            image.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{level}: {}", stderr(&out));
        std::fs::read(image).unwrap()
    };
    let dir = demo_copy("cache-id");
    for (step, level) in ["-O2", "-O0", "-O2"].into_iter().enumerate() {
        let fresh = demo_copy(&format!("cache-id-fresh{step}"));
        assert!(
            build(&dir, level) == build(&fresh, level),
            "step {step}: the {level} image differs from a fresh {level} build"
        );
        let _ = std::fs::remove_dir_all(&fresh);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `minicc build` + flags in `dir`, asserting success; returns stdout.
fn stateful_build(dir: &Path) -> String {
    let out = minicc(&["build", dir.to_str().unwrap(), "--stateful", "--fn-cache"]);
    assert!(out.status.success(), "build failed: {}", stderr(&out));
    stdout(&out)
}

#[test]
fn quick_second_process_is_a_noop_and_requests_that_need_values_still_work() {
    let dir = demo_copy("graph-noop");
    let d = dir.to_str().unwrap();
    let first = stateful_build(&dir);
    assert!(first.contains("(3 recompiled)"), "{first}");
    let image = std::fs::read(dir.with_extension("sbx")).unwrap();
    std::fs::remove_file(dir.with_extension("sbx")).unwrap();

    // A second process finds nothing to do — and still owes the image.
    let second = stateful_build(&dir);
    assert!(
        second.contains("(0 recompiled)") && second.contains("queries: 1 hit(s), 0 miss(es)"),
        "{second}"
    );
    assert!(
        second.contains("0 function pipeline task(s) ran"),
        "{second}"
    );
    assert_eq!(std::fs::read(dir.with_extension("sbx")).unwrap(), image);

    // `ir` demands the module's IR from the store: loaded from the graph,
    // nothing executed — and the text a directory with no history prints.
    let ir = minicc(&["ir", d, "mathx", "--stateful", "--fn-cache"]);
    assert!(ir.status.success(), "{}", stderr(&ir));
    assert!(stdout(&ir).contains("fn @gcd("), "{}", stdout(&ir));
    let report = std::fs::read_to_string(dir.join(".sfcc-report.json")).unwrap();
    assert!(report.contains("\"misses\":0,"), "{report}");
    let fresh = demo_copy("graph-noop-fresh");
    let f = fresh.to_str().unwrap();
    let fresh_ir = minicc(&["ir", f, "mathx", "--stateful", "--fn-cache"]);
    assert_eq!(stdout(&ir), stdout(&fresh_ir));
    std::fs::remove_dir_all(&fresh).unwrap();

    // `depcheck` audits what the graph would serve *and* still executes and
    // access-diffs every task: the same accesses as a directory without a
    // graph, and a third build's worth of stamp audits on top.
    let fresh = demo_copy("graph-noop-fresh");
    let counts = |dir: &Path| -> (u64, u64) {
        let out = minicc(&[
            "depcheck",
            dir.to_str().unwrap(),
            "--stateful",
            "--fn-cache",
        ]);
        assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
        let text = stdout(&out);
        let number_before = |marker: &str| -> u64 {
            let head = &text[..text.find(marker).expect(marker)];
            head.rsplit(' ').next().unwrap().parse().unwrap()
        };
        (number_before(" task(s)"), number_before(" access(es)"))
    };
    let (cold_tasks, cold_accesses) = counts(&fresh);
    let (graph_tasks, graph_accesses) = counts(&dir);
    assert!(cold_accesses > 0);
    assert_eq!(graph_accesses, cold_accesses);
    assert_eq!(
        graph_tasks * 2,
        cold_tasks * 3,
        "{graph_tasks} vs {cold_tasks}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

#[test]
fn quick_depcheck_flags_a_lie_the_persisted_graph_carried_across_processes() {
    let dir = demo_copy("graph-lie");
    let d = dir.to_str().unwrap();
    stateful_build(&dir);
    // Edit `mathx` between two processes, and freeze its stamp at the one
    // the graph recorded: the second process is told nothing changed.
    let path = dir.join("mathx.mc");
    let source = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, source.replace("1000000007", "998244353")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_minicc"))
        .env("SFCC_DAEMON_MUTATIONS", "freeze-stamp:src:mathx")
        .args(["depcheck", d, "--stateful", "--fn-cache"])
        .output()
        .expect("failed to launch minicc");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}{}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    for task in ["imports(mathx)", "parse(mathx)"] {
        assert!(
            text.contains(&format!("stale-serve: task {task} resource src:mathx")),
            "{text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// `minicc serve` / `minicc client` protocol contract (real processes)
// ---------------------------------------------------------------------------

/// A live `minicc serve` child process. Killed on drop so a failing test
/// never leaks a daemon.
struct ServeProc {
    child: Option<std::process::Child>,
    socket: PathBuf,
}

impl ServeProc {
    fn socket(&self) -> &str {
        self.socket.to_str().unwrap()
    }

    /// Asks the daemon to shut down and returns its captured output.
    fn shutdown_and_wait(mut self) -> Output {
        let out = minicc(&["client", self.socket(), "shutdown"]);
        assert!(out.status.success(), "shutdown must succeed");
        self.child.take().unwrap().wait_with_output().unwrap()
    }

    /// Sends SIGTERM to the daemon and returns its captured output.
    fn terminate_and_wait(mut self) -> Output {
        let child = self.child.take().unwrap();
        let pid = child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("launch kill");
        assert!(status.success(), "kill -TERM must succeed");
        child.wait_with_output().unwrap()
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_serve(root: &Path, extra: &[&str]) -> ServeProc {
    let socket = root.join("d.sock");
    let child = Command::new(env!("CARGO_BIN_EXE_minicc"))
        .arg("serve")
        .arg(root)
        .arg("--socket")
        .arg(&socket)
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("launch minicc serve");
    let proc = ServeProc {
        child: Some(child),
        socket,
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        if minicc(&["client", proc.socket(), "ping"]).status.success() {
            return proc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon did not come up within 20s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn write_project(dir: &Path, files: &[(&str, &str)]) {
    std::fs::create_dir_all(dir).unwrap();
    for (name, src) in files {
        std::fs::write(dir.join(format!("{name}.mc")), src).unwrap();
    }
}

fn v1_files() -> Vec<(&'static str, &'static str)> {
    vec![
        ("base", "fn g(x: int) -> int { return x * 2; }"),
        (
            "lib",
            "import base;\nfn f(x: int) -> int { return base::g(x) + 1; }",
        ),
        (
            "main",
            "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
        ),
    ]
}

#[test]
fn quick_serve_client_lifecycle_contract() {
    let root = scratch_dir("serve-life");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let dir = dir.to_str().unwrap().to_string();
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    // Cold served build: summary + image path on stdout, exit 0.
    let out = minicc(&["client", &sock, "build", &dir, "--stateful", "--fn-cache"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("built 3 module(s)"), "{text}");
    assert!(text.contains("wrote "), "{text}");

    // Warm rebuild: nothing recompiles, the engine answers from memory.
    let out = minicc(&["client", &sock, "build", &dir, "--stateful", "--fn-cache"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("(0 recompiled)"), "{}", stdout(&out));

    // Warm run and IR serves.
    let out = minicc(&[
        "client",
        &sock,
        "run",
        &dir,
        "--stateful",
        "--fn-cache",
        "--",
        "21",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("main.main([21]) = 43"),
        "{}",
        stdout(&out)
    );
    let out = minicc(&[
        "client",
        &sock,
        "ir",
        &dir,
        "main",
        "--stateful",
        "--fn-cache",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("fn @main"), "{}", stdout(&out));

    // Stats is served inline and reports the session.
    let out = minicc(&["client", &sock, "stats"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"daemon\""), "{}", stdout(&out));

    // Malformed client commands are rejected before touching the wire.
    let out = minicc(&["client", &sock, "frobnicate"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown client command"),
        "{}",
        stderr(&out)
    );

    // Graceful shutdown removes the socket; shutdown is idempotent; a
    // dead socket is a transport failure (exit 2) for ordinary commands.
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("shut down cleanly"),
        "{}",
        stdout(&out)
    );
    assert!(!Path::new(&sock).exists(), "socket file must be removed");
    let out = minicc(&["client", &sock, "shutdown"]);
    assert!(out.status.success(), "second shutdown must be idempotent");
    assert!(
        stdout(&out).contains("daemon: already gone"),
        "{}",
        stdout(&out)
    );
    let out = minicc(&["client", &sock, "ping"]);
    assert_eq!(out.status.code(), Some(2), "dead socket must exit 2");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_stale_socket_is_recovered_on_bind() {
    let root = scratch_dir("serve-stale");
    let socket = root.join("d.sock");
    // A dead daemon leaves its socket file behind: bind one and drop it
    // without unlinking.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists(), "stale socket file must remain on disk");

    let daemon = spawn_serve(&root, &[]);
    let out = minicc(&["client", daemon.socket(), "ping"]);
    assert!(out.status.success(), "daemon must recover the stale socket");
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_second_daemon_on_a_live_socket_is_refused() {
    let root = scratch_dir("serve-dup");
    let daemon = spawn_serve(&root, &[]);

    let out = Command::new(env!("CARGO_BIN_EXE_minicc"))
        .arg("serve")
        .arg(&root)
        .arg("--socket")
        .arg(&daemon.socket)
        .output()
        .unwrap();
    assert!(!out.status.success(), "second daemon must be refused");
    assert!(stderr(&out).contains("already serving"), "{}", stderr(&out));

    // The live daemon is unharmed.
    let out = minicc(&["client", daemon.socket(), "ping"]);
    assert!(out.status.success());
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_sigterm_snapshots_and_a_cold_build_accepts() {
    let root = scratch_dir("serve-term");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let dir_s = dir.to_str().unwrap().to_string();
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    let out = minicc(&["client", &sock, "build", &dir_s, "--stateful", "--fn-cache"]);
    assert!(out.status.success(), "{}", stderr(&out));

    // kill -TERM at an arbitrary quiet point: the daemon drains, snapshots,
    // and exits cleanly.
    let out = daemon.terminate_and_wait();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("shut down cleanly"),
        "{}",
        stdout(&out)
    );
    assert!(!Path::new(&sock).exists(), "socket file must be removed");

    // A cold CLI build accepts the daemon's state directory: no recovery,
    // and the warm state serves (nothing reported recovered).
    let out = minicc(&["build", "--stateful", "--fn-cache", &dir_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        !stdout(&out).contains("recovered from"),
        "cold build must accept the daemon's state dir: {}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_daemon_flag_falls_back_to_local_when_unreachable() {
    let root = scratch_dir("serve-fallback");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let missing = root.join("no-daemon.sock");
    let out = minicc(&[
        "build",
        "--daemon",
        missing.to_str().unwrap(),
        "--stateful",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unreachable; serving locally"),
        "fallback must be announced on stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quick_daemon_flag_routes_through_a_live_daemon() {
    let root = scratch_dir("serve-route");
    let dir = root.join("p");
    write_project(&dir, &v1_files());
    let daemon = spawn_serve(&root, &[]);

    let out = minicc(&[
        "build",
        "--daemon",
        daemon.socket(),
        "--stateful",
        "--fn-cache",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("built 3 module(s)"),
        "{}",
        stdout(&out)
    );

    // The request went through the daemon, not a local session.
    let out = minicc(&["client", daemon.socket(), "stats"]);
    assert!(
        stdout(&out).contains("\"sessions_created\":1"),
        "{}",
        stdout(&out)
    );
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// `minicc` with extra environment variables.
fn minicc_env(args: &[&str], env: &[(&str, &Path)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_minicc"));
    for (key, value) in env {
        command.env(key, value);
    }
    command
        .args(args)
        .output()
        .expect("failed to launch minicc")
}

/// Stdout with the two fields that legitimately differ between two runs
/// masked: the project directory (the image path derives from it) and the
/// build's wall time.
fn masked_stdout(out: &Output, dir: &Path) -> String {
    let text = stdout(out).replace(dir.to_str().unwrap(), "<dir>");
    match (text.find(") in "), text.find(" ms; ")) {
        (Some(a), Some(b)) if a < b => format!("{}<wall>{}", &text[..a + 5], &text[b..]),
        _ => text,
    }
}

/// The daemon's lifetime request counter, as `client stats` reports it.
fn daemon_requests(sock: &str) -> u64 {
    let out = minicc(&["client", sock, "stats"]);
    assert!(out.status.success(), "{}", stderr(&out));
    sfcc_trace::json::parse(&stdout(&out))
        .unwrap()
        .get("daemon")
        .and_then(|d| d.get("requests"))
        .and_then(|n| n.as_u64())
        .expect("stats carries daemon.requests")
}

#[test]
fn quick_local_and_daemon_routes_agree() {
    let root = scratch_dir("route-parity");
    let local = root.join("local");
    let remote = root.join("remote");
    write_project(&local, &v1_files());
    write_project(&remote, &v1_files());
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    // One request of every kind, the same tree served both ways. Each
    // command has its own flag set: a flag change recycles the daemon's
    // session, so every request starts — like every local process — from
    // what the previous one committed, and the outputs are comparable.
    let session = ["--stateful", "--fn-cache"];
    let commands: [(&[&str], &[&str], &[&str]); 4] = [
        (&["build"], &[], &[]),
        (&["run"], &["--jobs", "1"], &["--", "21"]),
        (&["ir"], &["lib", "--jobs", "2"], &[]),
        (&["depcheck"], &["--durable"], &[]),
    ];
    for (cmd, flags, tail) in commands {
        let line = |dir: &Path, route: &[&str]| -> Output {
            let dir = dir.to_str().unwrap();
            minicc(&[cmd, &[dir], flags, &session, route, tail].concat())
        };
        let here = line(&local, &[]);
        let there = line(&remote, &["--daemon", &sock]);
        assert!(here.status.success(), "local {cmd:?}: {}", stderr(&here));
        assert_eq!(
            here.status.code(),
            there.status.code(),
            "{cmd:?} exit codes"
        );
        assert_eq!(
            masked_stdout(&here, &local),
            masked_stdout(&there, &remote),
            "{cmd:?}: the two routes print different text"
        );
    }
    assert!(
        stdout(&minicc(&["client", &sock, "stats"])).contains("\"sessions_created\":4"),
        "every remote command must have been served by the daemon"
    );

    // What the two routes left behind is the same, byte for byte.
    assert_eq!(
        std::fs::read(local.with_extension("sbx")).unwrap(),
        std::fs::read(remote.with_extension("sbx")).unwrap(),
        "images differ"
    );
    let committed = |dir: &Path, logical: &str| -> Vec<u8> {
        let cd = sfcc_faultfs::CommitDir::new(&dir.join(".sfcc-state"));
        let manifest = cd.read_manifest().unwrap().expect("a committed manifest");
        cd.load_entry(manifest.entry(logical).expect(logical))
            .unwrap()
    };
    for logical in ["state", "ircache"] {
        assert!(
            committed(&local, logical) == committed(&remote, logical),
            "committed `{logical}` entries differ"
        );
    }
    let report = |dir: &Path| {
        let text = std::fs::read_to_string(dir.join(".sfcc-report.json")).unwrap();
        sfcc_trace::json::parse(&text).unwrap()
    };
    for block in ["query", "fngrain", "outcomes"] {
        assert_eq!(
            report(&local).get(block),
            report(&remote).get(block),
            "report `{block}` blocks differ"
        );
    }

    // Options a reply cannot carry back are refused before anything is
    // sent — on both spellings of the daemon route — naming the flag.
    let before = daemon_requests(&sock);
    let trace = root.join("t.json");
    let refused: [&[&str]; 3] = [
        &["--report", "json"],
        &["--trace", trace.to_str().unwrap()],
        &["--trace-wall"],
    ];
    for option in refused {
        let dir = remote.to_str().unwrap();
        for route in [
            [&["build", dir, "--daemon", &sock], option].concat(),
            [&["client", &sock, "build", dir], option].concat(),
        ] {
            let out = minicc(&route);
            assert!(!out.status.success(), "{route:?} must be refused");
            assert!(
                stderr(&out).contains(option[0]),
                "{route:?} must name `{}`: {}",
                option[0],
                stderr(&out)
            );
        }
    }
    assert!(!trace.exists(), "a refused --trace must not leave a file");
    assert_eq!(
        daemon_requests(&sock),
        before + 1,
        "a refused option must not reach the daemon (only `stats` itself did)"
    );

    // An environment fallback stands for its flag, so it travels: the
    // daemon publishes into the store the *client's* environment names.
    // (A fresh tree: nothing is cached locally, so the build must publish.)
    let store = root.join("store");
    let fresh = root.join("fresh");
    write_project(&fresh, &v1_files());
    let out = minicc_env(
        &["build", fresh.to_str().unwrap(), "--daemon", &sock],
        &[("SFCC_CAS", &store)],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        std::fs::read_dir(&store).is_ok_and(|mut entries| entries.next().is_some()),
        "SFCC_CAS through --daemon must publish into `{}`",
        store.display()
    );

    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// A 30-module project whose every function body carries `salt`: rewriting
/// it under another salt re-optimizes every function of every module.
fn salted_project(dir: &Path, salt: u32) {
    std::fs::create_dir_all(dir).unwrap();
    for i in 0..30 {
        let mut src = String::new();
        for f in 0..6 {
            src.push_str(&format!(
                "fn f{f}(x: int) -> int {{ let a: int = x * {m} + {salt}; let b: int = a + {f}; \
                 return b * 2 - x + a * b; }}\n",
                m = i + 1,
            ));
        }
        std::fs::write(dir.join(format!("m{i:03}.mc")), src).unwrap();
    }
}

#[test]
fn quick_daemon_audit_ignores_a_neighbour_session() {
    // Two sessions of one daemon over identical sources (so identical task
    // labels). While `a` is audited, `b` flips between two salts through a
    // shared store, so every one of its builds re-runs every function task
    // and notes accesses under the very labels `a`'s audit examines. The
    // audit of `a` must report exactly what a solo audit reports.
    let root = scratch_dir("serve-two");
    let (a, b, store) = (root.join("a"), root.join("b"), root.join("store"));
    salted_project(&a, 0);
    let solo = minicc(&["depcheck", a.to_str().unwrap()]);
    let verdict = |out: &Output| stdout(out).lines().next().unwrap_or_default().to_string();
    assert!(
        verdict(&solo).starts_with("depcheck: 0 finding(s)"),
        "{}",
        stdout(&solo)
    );
    let daemon = spawn_serve(&root, &[]);
    let sock = daemon.socket().to_string();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let (warm_tx, warm_rx) = std::sync::mpsc::channel();
    let (audit, neighbour_builds) = std::thread::scope(|s| {
        let neighbour = s.spawn(|| {
            let mut builds = 0u32;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                salted_project(&b, builds % 2);
                let out = minicc(&[
                    "client",
                    &sock,
                    "build",
                    b.to_str().unwrap(),
                    "--cas",
                    store.to_str().unwrap(),
                ]);
                assert!(out.status.success(), "{}", stderr(&out));
                builds += 1;
                if builds == 1 {
                    warm_tx.send(()).unwrap();
                }
            }
            builds
        });
        // The neighbour's session exists and is mid-loop from here on.
        warm_rx.recv().unwrap();
        let audit = minicc(&["client", &sock, "depcheck", a.to_str().unwrap()]);
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        (audit, neighbour.join().unwrap())
    });
    assert!(neighbour_builds > 1, "the neighbour kept building");
    assert_eq!(audit.status.code(), Some(0), "{}", stdout(&audit));
    assert_eq!(
        verdict(&audit),
        verdict(&solo),
        "task and access counts included"
    );
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// A project big enough that one cold build holds the daemon's single
/// worker slot for a while: a long import chain (sequential waves) of
/// modules with several optimizable functions each.
fn slow_project(dir: &Path, modules: usize) {
    std::fs::create_dir_all(dir).unwrap();
    for i in 0..modules {
        let mut src = String::new();
        if i > 0 {
            src.push_str(&format!("import m{:03};\n", i - 1));
        }
        for f in 0..6 {
            src.push_str(&format!(
                "fn f{f}(x: int) -> int {{ let a: int = x * {m}; let b: int = a + {f}; \
                 let c: int = b * 2 - x; return c + a * b; }}\n",
                m = i + 1,
            ));
        }
        std::fs::write(dir.join(format!("m{i:03}.mc")), src).unwrap();
    }
}

/// Polls `client stats` until the daemon reports an active request.
fn wait_for_active(sock: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let out = minicc(&["client", sock, "stats"]);
        if stdout(&out).contains("\"active\":1") {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "first build never became active"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn client_busy_and_timeout_exit_codes() {
    // Busy: one worker slot, zero queue slots — while a slow build holds
    // the slot, a second project's request is rejected immediately with
    // exit 3.
    let root = scratch_dir("serve-busy");
    slow_project(&root.join("big"), 220);
    write_project(&root.join("small"), &v1_files());
    let daemon = spawn_serve(&root, &["--max-active", "1", "--max-queued", "0"]);
    let sock = daemon.socket().to_string();

    let holder = {
        let sock = sock.clone();
        let big = root.join("big").to_str().unwrap().to_string();
        std::thread::spawn(move || {
            minicc(&["client", &sock, "build", &big, "--stateful", "--jobs", "1"])
        })
    };
    wait_for_active(&sock);
    let out = minicc(&[
        "client",
        &sock,
        "build",
        root.join("small").to_str().unwrap(),
        "--stateful",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "busy must exit 3: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("daemon error (busy)"),
        "{}",
        stderr(&out)
    );
    let held = holder.join().unwrap();
    assert!(held.status.success(), "{}", stderr(&held));
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);

    // Timeout: two requests on the *same* project serialize on the session
    // slot; with a short request timeout the second gets a typed timeout,
    // exit 4 — never a hang.
    let root = scratch_dir("serve-timeout");
    slow_project(&root.join("big"), 220);
    let daemon = spawn_serve(
        &root,
        &[
            "--max-active",
            "2",
            "--max-queued",
            "4",
            "--timeout-ms",
            "150",
        ],
    );
    let sock = daemon.socket().to_string();
    let holder = {
        let sock = sock.clone();
        let big = root.join("big").to_str().unwrap().to_string();
        std::thread::spawn(move || {
            minicc(&["client", &sock, "build", &big, "--stateful", "--jobs", "1"])
        })
    };
    wait_for_active(&sock);
    let out = minicc(&[
        "client",
        &sock,
        "build",
        root.join("big").to_str().unwrap(),
        "--stateful",
    ]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "timeout must exit 4: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("daemon error (timeout)"),
        "{}",
        stderr(&out)
    );
    let held = holder.join().unwrap();
    assert!(held.status.success(), "{}", stderr(&held));
    let out = daemon.shutdown_and_wait();
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&root);
}
