//! E18: the warm build daemon (`minicc serve`), measured.
//!
//! The daemon's pitch is latency: a resident engine answers an incremental
//! build from memory, where a cold CLI session must reload persistent
//! state, re-validate every task, and re-execute whatever the dormancy
//! stamps cannot prove unchanged. This experiment drives the *same*
//! one-function edit stream down both lanes — warm requests over the real
//! unix-socket protocol against an in-process daemon, and cold one-request
//! sessions (the sequence one `minicc build --stateful --fn-cache`
//! invocation runs) — and reports the latency distributions side by side.
//!
//! A second phase fans N client threads with independent projects into one
//! daemon, interleaving their edit streams, to show warm latency holds up
//! under concurrent sessions (and that nothing is rejected at these rates).
//!
//! Wall clocks are the *subject* here, not incidental: the artifact records
//! p50/p90/p99 nanoseconds per lane and the p50 speedup, which
//! [`gate_speedup`] checks in CI.

use crate::table::Table;
use sfcc_buildsys::serve::BuildService;
use sfcc_buildsys::Project;
use sfcc_daemon::{roundtrip, Daemon, DaemonHandle, DaemonOptions, Request};
use sfcc_workload::{generate_model, EditKind, EditScript, GeneratorConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfcc-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `p` as the complete tree at `dir`, clearing stale modules.
fn write_tree(dir: &Path, p: &Project) {
    std::fs::create_dir_all(dir).unwrap();
    for dirent in std::fs::read_dir(dir).unwrap() {
        let path = dirent.unwrap().path();
        if path.extension().is_some_and(|e| e == "mc") {
            std::fs::remove_file(&path).unwrap();
        }
    }
    p.write_to_dir(dir).unwrap();
}

/// One cold CLI session — what `minicc build` runs: a session opened for
/// the one request (loading persistent state from disk), served through the
/// entry the daemon serves through, and dropped.
fn cold_session(dir: &Path) {
    let request = build_request(dir);
    BuildService::new(dir, &request.args)
        .and_then(|mut session| session.build_image(&dir.join("out.sbx")))
        .unwrap();
}

fn build_request(dir: &Path) -> Request {
    Request {
        cmd: "build".to_string(),
        dir: Some(dir.display().to_string()),
        module: None,
        out: Some(dir.join("out.sbx").display().to_string()),
        args: ["--stateful", "--fn-cache", "--jobs", "1"]
            .map(String::from)
            .to_vec(),
        prog_args: Vec::new(),
    }
}

/// Sends one warm build request and returns its round-trip latency (ns),
/// or an error string for a typed rejection.
fn warm_request(socket: &Path, dir: &Path) -> Result<u64, String> {
    let request = build_request(dir);
    let start = Instant::now();
    let reply = roundtrip(socket, &request)?;
    let ns = start.elapsed().as_nanos() as u64;
    if reply.ok {
        Ok(ns)
    } else {
        Err(reply.raw)
    }
}

fn start_daemon(root: &Path, max_active: usize) -> DaemonHandle {
    let mut options = DaemonOptions::new(root);
    options.socket = root.join("daemon.sock");
    options.max_active = max_active;
    Daemon::bind(options, BuildService::factory())
        .expect("bind daemon")
        .spawn()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn dist(mut samples: Vec<u64>) -> (u64, u64, u64) {
    samples.sort_unstable();
    (
        percentile(&samples, 0.50),
        percentile(&samples, 0.90),
        percentile(&samples, 0.99),
    )
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// E18: the warm-vs-cold serve comparison. Returns the rendered table and
/// the JSON artifact written to `BENCH_serve.json`.
pub fn serve_warm(scale: crate::Scale) -> (String, String) {
    // Both scales use the large project: the daemon's advantage is the
    // recompute a cold session repeats per module, which only shows at
    // size. Quick just trims the edit and client counts.
    let (config, edits, clients, client_edits) = match scale {
        crate::Scale::Quick => (GeneratorConfig::large(42), 6usize, 2usize, 4usize),
        crate::Scale::Full => (GeneratorConfig::large(42), 20, 4, 8),
    };

    // ── Phase 1: one-function edits, warm daemon vs cold sessions ──
    let root = scratch("single");
    let warm_dir = root.join("warm");
    let cold_dir = root.join("cold");
    let mut model = generate_model(&config);
    let mut script = EditScript::only(7, EditKind::TweakConstant);
    write_tree(&warm_dir, &model.render());
    write_tree(&cold_dir, &model.render());

    let daemon = start_daemon(&root, clients.max(2));
    let socket = daemon.socket();
    // Prime both lanes: the daemon fills its engine, the cold lane commits
    // its state dir. Neither priming build is measured.
    warm_request(&socket, &warm_dir).expect("priming serve");
    cold_session(&cold_dir);

    let mut warm_ns = Vec::with_capacity(edits);
    let mut cold_ns = Vec::with_capacity(edits);
    for _ in 0..edits {
        script.commit(&mut model);
        let p = model.render();
        write_tree(&warm_dir, &p);
        write_tree(&cold_dir, &p);
        warm_ns.push(warm_request(&socket, &warm_dir).expect("warm serve"));
        let start = Instant::now();
        cold_session(&cold_dir);
        cold_ns.push(start.elapsed().as_nanos() as u64);
    }
    let (warm_p50, warm_p90, warm_p99) = dist(warm_ns);
    let (cold_p50, cold_p90, cold_p99) = dist(cold_ns);
    let speedup_p50 = cold_p50 as f64 / warm_p50.max(1) as f64;

    // ── Phase 2: N clients, independent projects, one daemon ──
    let multi_root = scratch("multi");
    let multi_socket = {
        let handle = start_daemon(&multi_root, clients);
        let socket = handle.socket();
        let threads: Vec<_> = (0..clients)
            .map(|i| {
                let socket = socket.clone();
                let dir = multi_root.join(format!("p{i}"));
                std::thread::spawn(move || {
                    let mut model = generate_model(&GeneratorConfig::small(100 + i as u64));
                    let mut script = EditScript::only(i as u64, EditKind::TweakConstant);
                    write_tree(&dir, &model.render());
                    let mut latencies = Vec::new();
                    let mut errors = 0u64;
                    match warm_request(&socket, &dir) {
                        Ok(ns) => latencies.push(ns),
                        Err(_) => errors += 1,
                    }
                    for _ in 0..client_edits {
                        script.commit(&mut model);
                        write_tree(&dir, &model.render());
                        match warm_request(&socket, &dir) {
                            Ok(ns) => latencies.push(ns),
                            Err(_) => errors += 1,
                        }
                    }
                    (latencies, errors)
                })
            })
            .collect();
        let mut multi = Vec::new();
        let mut errors = 0u64;
        for t in threads {
            let (lat, err) = t.join().unwrap();
            multi.extend(lat);
            errors += err;
        }
        handle.shutdown();
        (multi, errors)
    };
    let (multi_samples, multi_errors) = multi_socket;
    let multi_requests = multi_samples.len();
    let (multi_p50, multi_p90, _) = dist(multi_samples);

    daemon.shutdown();

    let mut table = Table::new(&["phase", "requests", "p50 (ms)", "p90 (ms)", "p99 (ms)"]);
    table.row(&[
        "warm serve (1-fn edit)".to_string(),
        edits.to_string(),
        ms(warm_p50),
        ms(warm_p90),
        ms(warm_p99),
    ]);
    table.row(&[
        "cold session (1-fn edit)".to_string(),
        edits.to_string(),
        ms(cold_p50),
        ms(cold_p90),
        ms(cold_p99),
    ]);
    table.row(&[
        format!("warm serve ({clients} clients)"),
        multi_requests.to_string(),
        ms(multi_p50),
        ms(multi_p90),
        "-".to_string(),
    ]);
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nwarm speedup on a one-function edit (p50): {speedup_p50:.1}x\n\
         concurrent clients: {clients}, rejected/errored requests: {multi_errors}",
    );

    let mut json = String::from("{\"experiment\":\"serve_warm\",");
    let _ = write!(
        json,
        "\"edits\":{edits},\
         \"warm_p50_ns\":{warm_p50},\"warm_p90_ns\":{warm_p90},\"warm_p99_ns\":{warm_p99},\
         \"cold_p50_ns\":{cold_p50},\"cold_p90_ns\":{cold_p90},\"cold_p99_ns\":{cold_p99},\
         \"speedup_p50\":{speedup_p50:.3},\
         \"clients\":{clients},\"multi_requests\":{multi_requests},\
         \"multi_warm_p50_ns\":{multi_p50},\"multi_warm_p90_ns\":{multi_p90},\
         \"multi_errors\":{multi_errors}}}"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&multi_root);
    (out, json)
}

/// Parses `speedup_p50` out of the E18 artifact and fails when it is below
/// `min` — the CI warm-latency gate.
///
/// # Errors
///
/// A malformed artifact or a speedup below `min`.
pub fn gate_speedup(json: &str, min: f64) -> Result<f64, String> {
    let speedup: f64 = json
        .split("\"speedup_p50\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .ok_or("no speedup_p50 in artifact")?;
    if speedup < min {
        return Err(format!(
            "warm serve speedup {speedup:.2}x is below the {min:.2}x gate"
        ));
    }
    Ok(speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_warm_serves_beat_cold_sessions_and_nothing_is_rejected() {
        let (table, json) = serve_warm(crate::Scale::Quick);
        assert!(
            json.contains("\"multi_errors\":0"),
            "concurrent clients must not be rejected at this rate:\n{table}\n{json}"
        );
        // ci.sh enforces 1.2x on the release build via `--gate-speedup`
        // (since PR 25 a cold session executes only what the warm one
        // does); this debug build keeps a 1.5x floor, which still catches a
        // daemon that lost its warmth.
        let speedup = gate_speedup(&json, 1.5)
            .unwrap_or_else(|e| panic!("warm must beat cold: {e}\n{table}\n{json}"));
        assert!(speedup.is_finite(), "{table}");
    }
}
