//! Crash-consistency matrix for the compiler's persistent state.
//!
//! The invariant under test: **a crash, torn write, or silent corruption at
//! any point may cost a cold start, never a wrong build**. The harness
//! records the durable-op trace of one builder session (load state → build →
//! commit state + IR cache + query graph → write image), then replays the session with a
//! deterministic fault injected at every operation index (`sfcc-faultfs`),
//! reruns cleanly, and asserts the recovered state, cache, and image are
//! *byte-identical* to a reference trajectory that never crashed. Because
//! the manifest rename is the single commit point, every trial must land on
//! exactly one of two references: all-old (crash before the rename) or
//! all-new (crash after).
//!
//! Satellites ride along: racing builders sharing one state directory,
//! durability-mode fsync verification, exhaustive truncation and bit-flip
//! decoding sweeps, recovery counters in the JSON build report, and
//! fsck-based debris collection. Tests prefixed `quick_` form the
//! `ci.sh --quick` crash-consistency sweep.

use proptest::prelude::*;
use sfcc::depgraph::GRAPH_LOGICAL;
use sfcc::{persist, Compiler, Config, Durability, FunctionCache, GraphFile};
use sfcc_backend::VmOptions;
use sfcc_buildsys::serve::BuildService;
use sfcc_buildsys::{BuildReport, Builder, Project};
use sfcc_daemon::{roundtrip, Daemon, DaemonHandle, DaemonOptions, Request, Service};
use sfcc_faultfs::{self as ffs, CommitDir, Fault, FaultPlan, OpKind};
use sfcc_state::statefile;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

const STATE_BASE: &str = ".sfcc-state";
const IMAGE_NAME: &str = "out.sbx";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sfcc-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cleanup(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

fn project(files: &[(&str, &str)]) -> Project {
    let mut p = Project::new();
    for (name, src) in files {
        p.set_file((*name).to_string(), (*src).to_string());
    }
    p
}

fn project_v1() -> Project {
    project(&[
        ("base", "fn g(x: int) -> int { return x * 2; }"),
        (
            "lib",
            "import base;\nfn f(x: int) -> int { return base::g(x) + 1; }",
        ),
        (
            "main",
            "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
        ),
    ])
}

/// `project_v1` with an edited `lib` — main.main(21) becomes 45 instead
/// of 43.
fn project_v2() -> Project {
    project(&[
        ("base", "fn g(x: int) -> int { return x * 2; }"),
        (
            "lib",
            "import base;\nfn f(x: int) -> int { return base::g(x) + 3; }",
        ),
        (
            "main",
            "import lib;\nfn main(n: int) -> int { return lib::f(n); }",
        ),
    ])
}

fn state_base(dir: &Path) -> PathBuf {
    dir.join(STATE_BASE)
}

/// One full builder session against `dir`: load persistent state, build,
/// commit state + cache through the manifest protocol, write the program
/// image. Mirrors one `minicc build --stateful --fn-cache` invocation.
fn run_session(dir: &Path, p: &Project, durability: Durability) -> Result<BuildReport, String> {
    let config = Config::stateful()
        .with_state_path(state_base(dir))
        .with_function_cache()
        .with_durability(durability);
    let mut builder = Builder::new(Compiler::new(config));
    let report = builder.build(p).map_err(|e| e.to_string())?;
    builder.compiler().save_state().map_err(|e| e.to_string())?;
    sfcc_backend::image::save_with(&report.program, &dir.join(IMAGE_NAME), durability)
        .map_err(|e| e.to_string())?;
    Ok(report)
}

/// The committed manifest generation at `dir` (0 when none). A crashed
/// directory must always have an absent-or-valid manifest, never a torn one.
fn generation(dir: &Path) -> u64 {
    CommitDir::new(&state_base(dir))
        .read_manifest()
        .expect("manifest must be absent or valid after a crash, never torn")
        .map(|m| m.generation)
        .unwrap_or(0)
}

/// The logical durable artifacts of a directory, independent of physical
/// generation-file names.
#[derive(PartialEq)]
struct Snapshot {
    state: Vec<u8>,
    cache: Vec<u8>,
    graph: Vec<u8>,
    image: Vec<u8>,
}

fn snapshot(dir: &Path) -> Snapshot {
    let cd = CommitDir::new(&state_base(dir));
    let m = cd
        .read_manifest()
        .unwrap()
        .expect("a completed session must have committed a manifest");
    Snapshot {
        state: cd
            .load_entry(m.entry(persist::STATE_LOGICAL).unwrap())
            .unwrap(),
        cache: cd
            .load_entry(m.entry(persist::CACHE_LOGICAL).unwrap())
            .unwrap(),
        graph: cd.load_entry(m.entry(GRAPH_LOGICAL).unwrap()).unwrap(),
        image: fs::read(dir.join(IMAGE_NAME)).unwrap(),
    }
}

fn assert_snapshots_eq(got: &Snapshot, want: &Snapshot, label: &str) {
    assert_eq!(got.state, want.state, "state bytes diverge: {label}");
    assert_eq!(got.cache, want.cache, "cache bytes diverge: {label}");
    assert_eq!(got.graph, want.graph, "graph bytes diverge: {label}");
    assert_eq!(got.image, want.image, "image bytes diverge: {label}");
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for dirent in fs::read_dir(src).unwrap() {
        let dirent = dirent.unwrap();
        fs::copy(dirent.path(), dst.join(dirent.file_name())).unwrap();
    }
}

/// Records the per-session durable-op traces of running `projects` in
/// sequence against one fresh scratch directory. Op indices within each
/// trace are 1-based *relative to the session start* (`enumerate` position
/// + 1), matching how an installed plan counts them.
fn recorded_ops(
    projects: &[&Project],
    durability: Durability,
    tag: &str,
) -> Vec<Vec<ffs::OpRecord>> {
    let dir = tmpdir(tag);
    let rec = ffs::record();
    let mut logs = Vec::new();
    for p in projects {
        run_session(&dir, p, durability).unwrap();
        logs.push(rec.take());
    }
    drop(rec);
    cleanup(&dir);
    logs
}

/// References for a cold-start trial: the artifacts after one clean session
/// (`f1`, the all-old outcome) and after two (`f2`, the all-new outcome).
struct ColdRefs {
    f1: Snapshot,
    f2: Snapshot,
}

fn cold_references(durability: Durability, tag: &str) -> ColdRefs {
    let p = project_v1();
    let f1_dir = tmpdir(&format!("{tag}-f1"));
    run_session(&f1_dir, &p, durability).unwrap();
    let f1 = snapshot(&f1_dir);
    cleanup(&f1_dir);

    let f2_dir = tmpdir(&format!("{tag}-f2"));
    run_session(&f2_dir, &p, durability).unwrap();
    run_session(&f2_dir, &p, durability).unwrap();
    let f2 = snapshot(&f2_dir);
    cleanup(&f2_dir);
    ColdRefs { f1, f2 }
}

/// The crash-point harness: enumerate every durable op of a cold session,
/// crash at each, rerun cleanly, and demand byte-identity with the
/// matching never-crashed reference.
fn cold_crash_matrix(durability: Durability) {
    let p = project_v1();
    let label = durability.label();
    let refs = cold_references(durability, &format!("cold-{label}"));
    let logs = recorded_ops(&[&p], durability, &format!("cold-rec-{label}"));
    let n = logs[0].len() as u64;
    assert!(
        n >= 8,
        "a session must perform several durable ops, got {n}"
    );

    // K = n + 1 is the fault-free boundary trial.
    for k in 1..=n + 1 {
        let dir = tmpdir(&format!("cold-{label}-k{k}"));
        {
            let _g = ffs::install(FaultPlan::single(Fault::CrashAt(k)));
            let _ = run_session(&dir, &p, durability);
        }
        let committed = generation(&dir) > 0;
        let report = run_session(&dir, &p, durability)
            .unwrap_or_else(|e| panic!("recovery session failed after crash at op {k}: {e}"));
        assert_eq!(
            report.recovered_files, 0,
            "a clean crash must not look like corruption (op {k})"
        );
        let want = if committed { &refs.f2 } else { &refs.f1 };
        assert_snapshots_eq(
            &snapshot(&dir),
            want,
            &format!("{label} crash at op {k}, committed={committed}"),
        );
        cleanup(&dir);
    }
}

#[test]
fn quick_cold_crash_matrix_fast() {
    cold_crash_matrix(Durability::Fast);
}

#[test]
fn cold_crash_matrix_durable() {
    cold_crash_matrix(Durability::Durable);
}

#[test]
fn warm_crash_matrix_fast() {
    let d = Durability::Fast;
    let v1 = project_v1();
    let v2 = project_v2();

    // Seed: one clean v1 session; trials crash an *incremental* v2 session.
    let seed = tmpdir("warm-seed");
    run_session(&seed, &v1, d).unwrap();
    let seed_gen = generation(&seed);

    let w2_dir = tmpdir("warm-w2");
    copy_dir(&seed, &w2_dir);
    run_session(&w2_dir, &v2, d).unwrap();
    let w2 = snapshot(&w2_dir);
    cleanup(&w2_dir);

    let w3_dir = tmpdir("warm-w3");
    copy_dir(&seed, &w3_dir);
    run_session(&w3_dir, &v2, d).unwrap();
    run_session(&w3_dir, &v2, d).unwrap();
    let w3 = snapshot(&w3_dir);
    cleanup(&w3_dir);

    let n = {
        let dir = tmpdir("warm-rec");
        copy_dir(&seed, &dir);
        let rec = ffs::record();
        run_session(&dir, &v2, d).unwrap();
        let n = rec.take().len() as u64;
        drop(rec);
        cleanup(&dir);
        n
    };
    assert!(
        n >= 8,
        "a warm session must perform several durable ops, got {n}"
    );

    for k in 1..=n + 1 {
        let dir = tmpdir(&format!("warm-k{k}"));
        copy_dir(&seed, &dir);
        {
            let _g = ffs::install(FaultPlan::single(Fault::CrashAt(k)));
            let _ = run_session(&dir, &v2, d);
        }
        let committed = generation(&dir) > seed_gen;
        let report = run_session(&dir, &v2, d)
            .unwrap_or_else(|e| panic!("recovery failed after warm crash at op {k}: {e}"));
        assert_eq!(report.recovered_files, 0, "op {k}");
        let want = if committed { &w3 } else { &w2 };
        assert_snapshots_eq(
            &snapshot(&dir),
            want,
            &format!("warm crash at op {k}, committed={committed}"),
        );
        cleanup(&dir);
    }
    cleanup(&seed);
}

#[test]
fn torn_write_matrix_fast() {
    let d = Durability::Fast;
    let p = project_v1();
    let refs = cold_references(d, "torn");
    let logs = recorded_ops(&[&p], d, "torn-rec");
    let writes: Vec<u64> = logs[0]
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind == OpKind::Write)
        .map(|(i, _)| i as u64 + 1)
        .collect();
    assert!(
        writes.len() >= 5,
        "a cold session writes three generations, a manifest, and an image"
    );

    for &k in &writes {
        for keep in [0usize, 1, 17] {
            let dir = tmpdir(&format!("torn-k{k}-b{keep}"));
            {
                let _g = ffs::install(FaultPlan::single(Fault::TornAt { op: k, keep }));
                let _ = run_session(&dir, &p, d);
            }
            let committed = generation(&dir) > 0;
            run_session(&dir, &p, d).unwrap_or_else(|e| {
                panic!("recovery failed after torn write at op {k} keep {keep}: {e}")
            });
            let want = if committed { &refs.f2 } else { &refs.f1 };
            assert_snapshots_eq(
                &snapshot(&dir),
                want,
                &format!("torn write at op {k} keep {keep}, committed={committed}"),
            );
            cleanup(&dir);
        }
    }
}

#[test]
fn bitflip_read_matrix_never_accepts_corrupt_data() {
    let d = Durability::Fast;
    let v1 = project_v1();
    let seed = tmpdir("flip-seed");
    run_session(&seed, &v1, d).unwrap();

    let reads: Vec<u64> = {
        let dir = tmpdir("flip-rec");
        copy_dir(&seed, &dir);
        let rec = ffs::record();
        run_session(&dir, &v1, d).unwrap();
        let log = rec.take();
        drop(rec);
        cleanup(&dir);
        log.iter()
            .enumerate()
            .filter(|(_, r)| r.kind == OpKind::Read)
            .map(|(i, _)| i as u64 + 1)
            .collect()
    };
    assert!(
        reads.len() >= 4,
        "a warm session reads at least manifest, state, cache, and graph"
    );

    for &k in &reads {
        for bit in [0u64, 8 * 9 + 3, 8 * 40 + 6] {
            let dir = tmpdir(&format!("flip-k{k}-b{bit}"));
            copy_dir(&seed, &dir);
            let report = {
                let _g = ffs::install(FaultPlan::single(Fault::BitflipAt { op: k, bit }));
                run_session(&dir, &v1, d).unwrap_or_else(|e| {
                    panic!("silent corruption must degrade, not fail (op {k} bit {bit}): {e}")
                })
            };
            // The build never consumed the flipped data as valid: the
            // program behaves exactly like an uncorrupted build.
            let out = sfcc_backend::run(&report.program, "main.main", &[21], VmOptions::default())
                .unwrap();
            assert_eq!(out.return_value, Some(43), "op {k} bit {bit}");
            // And the session recommitted a fully healthy directory.
            let clean = run_session(&dir, &v1, d).unwrap();
            assert_eq!(clean.recovered_files, 0, "op {k} bit {bit}");
            let out = sfcc_backend::run(&clean.program, "main.main", &[21], VmOptions::default())
                .unwrap();
            assert_eq!(out.return_value, Some(43), "op {k} bit {bit}");
            cleanup(&dir);
        }
    }
    cleanup(&seed);
}

/// Byte streams of the durable formats from a warm two-session run, for
/// decode-hardening sweeps.
struct RawArtifacts {
    state: Vec<u8>,
    cache: Vec<u8>,
    graph: Vec<u8>,
    manifest: Vec<u8>,
    image: Vec<u8>,
}

fn reference_artifacts() -> &'static RawArtifacts {
    static ARTS: OnceLock<RawArtifacts> = OnceLock::new();
    ARTS.get_or_init(|| {
        let dir = tmpdir("refbytes");
        run_session(&dir, &project_v1(), Durability::Fast).unwrap();
        run_session(&dir, &project_v1(), Durability::Fast).unwrap();
        let cd = CommitDir::new(&state_base(&dir));
        let m = cd.read_manifest().unwrap().unwrap();
        let state = cd
            .load_entry(m.entry(persist::STATE_LOGICAL).unwrap())
            .unwrap();
        let cache = cd
            .load_entry(m.entry(persist::CACHE_LOGICAL).unwrap())
            .unwrap();
        let graph = cd.load_entry(m.entry(GRAPH_LOGICAL).unwrap()).unwrap();
        let manifest = fs::read(cd.manifest_path()).unwrap();
        let image = fs::read(dir.join(IMAGE_NAME)).unwrap();
        cleanup(&dir);
        RawArtifacts {
            state,
            cache,
            graph,
            manifest,
            image,
        }
    })
}

#[test]
fn quick_truncation_at_every_byte_boundary_errors() {
    let RawArtifacts {
        state,
        cache,
        graph,
        ..
    } = reference_artifacts();
    for cut in 0..state.len() {
        assert!(
            statefile::from_bytes(&state[..cut]).is_err(),
            "truncated state (cut {cut}) must not decode"
        );
    }
    for cut in 0..cache.len() {
        assert!(
            FunctionCache::from_bytes(&cache[..cut]).is_err(),
            "truncated cache (cut {cut}) must not decode"
        );
    }
    // A v2 graph: the value of every persisted kind rides along, and every
    // cut — through a value's bytes included — is a typed error.
    let decoded = GraphFile::from_bytes(graph.as_slice()).unwrap();
    let valued: Vec<&str> = decoded
        .keys
        .iter()
        .zip(&decoded.nodes)
        .filter(|(_, node)| node.value.is_some())
        .map(|(key, _)| key.as_str())
        .collect();
    assert!(valued.contains(&"link") && valued.contains(&"codegen(main)"));
    assert!(valued.contains(&"optimizefn(base::g)"), "{valued:?}");
    assert!(
        valued.iter().all(|key| key.starts_with("optimizefn(")
            || key.starts_with("codegen(")
            || *key == "link"),
        "{valued:?}"
    );
    for cut in 0..graph.len() {
        assert!(
            GraphFile::from_bytes(&graph[..cut]).is_err(),
            "truncated graph (cut {cut}) must not decode"
        );
    }
}

#[test]
fn single_bitflips_on_disk_never_decode() {
    let RawArtifacts {
        state,
        cache,
        graph,
        manifest,
        image,
    } = reference_artifacts();
    for i in 0..graph.len() {
        let mut b = graph.clone();
        b[i] ^= 1 << (i % 8);
        assert!(
            GraphFile::from_bytes(b).is_err(),
            "graph flip at byte {i} accepted as valid"
        );
    }
    for i in 0..state.len() {
        let mut b = state.clone();
        b[i] ^= 1 << (i % 8);
        assert!(
            statefile::from_bytes(&b).is_err(),
            "state flip at byte {i} accepted as valid"
        );
    }
    for i in 0..cache.len() {
        let mut b = cache.clone();
        b[i] ^= 1 << (i % 8);
        assert!(
            FunctionCache::from_bytes(&b).is_err(),
            "cache flip at byte {i} accepted as valid"
        );
    }
    for i in 0..image.len() {
        let mut b = image.clone();
        b[i] ^= 1 << (i % 8);
        assert!(
            sfcc_backend::image::from_bytes(&b).is_err(),
            "image flip at byte {i} accepted as valid"
        );
    }
    // The manifest decoder is only reachable through a CommitDir.
    let dir = tmpdir("flip-manifest");
    let cd = CommitDir::new(&state_base(&dir));
    for i in 0..manifest.len() {
        let mut b = manifest.clone();
        b[i] ^= 1 << (i % 8);
        fs::write(cd.manifest_path(), &b).unwrap();
        assert!(
            cd.read_manifest().is_err(),
            "manifest flip at byte {i} accepted as valid"
        );
    }
    cleanup(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Beyond the exhaustive boundary sweeps: random *combinations* of a
    /// truncation and a bit flip must still never decode.
    #[test]
    fn random_truncate_and_flip_never_decodes(seed in any::<u64>()) {
        let RawArtifacts { state, cache, graph, .. } = reference_artifacts();
        let cut = 1 + ((seed >> 5) as usize) % (graph.len() - 1);
        let mut b = graph[..cut].to_vec();
        let j = ((seed >> 29) as usize) % b.len();
        b[j] ^= 1 << ((seed >> 47) % 8);
        prop_assert!(GraphFile::from_bytes(b.as_slice()).is_err());

        let cut = 1 + (seed as usize) % (state.len() - 1);
        let mut b = state[..cut].to_vec();
        let j = ((seed >> 17) as usize) % b.len();
        b[j] ^= 1 << ((seed >> 40) % 8);
        prop_assert!(statefile::from_bytes(&b).is_err());

        let cut = 1 + ((seed >> 9) as usize) % (cache.len() - 1);
        let mut b = cache[..cut].to_vec();
        let j = ((seed >> 23) as usize) % b.len();
        b[j] ^= 1 << ((seed >> 33) % 8);
        prop_assert!(FunctionCache::from_bytes(&b).is_err());
    }
}

/// Rewrites the manifest without its query-graph entry — the directory as
/// every commit before the graph existed left it.
fn drop_graph(dir: &Path) {
    let cd = CommitDir::new(&state_base(dir));
    let m = cd.read_manifest().unwrap().unwrap();
    let kept = m
        .entries
        .iter()
        .filter(|e| e.logical != GRAPH_LOGICAL)
        .cloned()
        .collect();
    cd.publish(m.generation, kept, Durability::Fast).unwrap();
}

#[test]
fn truncated_files_recover_through_the_builder() {
    let d = Durability::Fast;
    let v1 = project_v1();

    // What the second session of a lineage leaves when it has no graph to
    // start from and re-executes everything.
    let from_scratch = {
        let dir = tmpdir("trunc-ref");
        run_session(&dir, &v1, d).unwrap();
        drop_graph(&dir);
        run_session(&dir, &v1, d).unwrap();
        let snap = snapshot(&dir);
        cleanup(&dir);
        snap
    };

    // Manifest layout: truncate one committed generation file.
    for logical in [persist::STATE_LOGICAL, GRAPH_LOGICAL] {
        let dir = tmpdir("trunc-entry");
        run_session(&dir, &v1, d).unwrap();
        let cd = CommitDir::new(&state_base(&dir));
        let m = cd.read_manifest().unwrap().unwrap();
        let path = cd.entry_path(m.entry(logical).unwrap());
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let report = run_session(&dir, &v1, d).unwrap();
        assert_eq!(report.recovered_files, 1, "{logical}");
        assert!(report.quarantined[0].ends_with(".corrupt"), "{logical}");
        if logical == GRAPH_LOGICAL {
            // A torn graph is a cold start of the store and of nothing
            // else: every task re-executes against the intact state.
            assert!(report.query.misses > 0 && report.query.hits == 0);
            assert_snapshots_eq(&snapshot(&dir), &from_scratch, "torn graph");
        }
        cleanup(&dir);
    }

    // A graph entry the manifest vouches for, but that does not decode:
    // same typed refusal, same quarantine, same from-scratch build.
    let dir = tmpdir("junk-graph");
    run_session(&dir, &v1, d).unwrap();
    let cd = CommitDir::new(&state_base(&dir));
    let mut junk = reference_artifacts().graph.clone();
    junk.truncate(junk.len() - 3);
    let committed = cd.commit(&[(GRAPH_LOGICAL, &junk)], d).unwrap();
    let junk_path = cd.entry_path(committed.entry(GRAPH_LOGICAL).unwrap());
    let loaded = persist::load(&state_base(&dir), true, true);
    assert!(loaded.graph.is_none() && loaded.db_error.is_none());
    assert_eq!(loaded.events.len(), 1);
    assert!(loaded.events[0]
        .reason
        .contains("query graph does not decode"));
    assert!(!junk_path.exists(), "the undecodable graph is moved aside");
    let report = run_session(&dir, &v1, d).unwrap();
    assert!(report.query.misses > 0 && report.query.hits == 0);
    assert_eq!(snapshot(&dir).image, from_scratch.image);
    cleanup(&dir);
}

/// `project_v1` with a second `base` function whose body is `x + {k}`: an
/// edit of `h` re-runs `codegen(base)`, which then needs `g`'s optimized IR.
fn project_gh(k: u32) -> Project {
    let base = format!(
        "fn g(x: int) -> int {{ return x * 2; }}\nfn h(x: int) -> int {{ return x + {k}; }}"
    );
    let mut p = project_v1();
    p.set_file("base".into(), base);
    p
}

/// Rewrites the committed graph of `dir` through `tamper`, re-checksummed:
/// what a hostile or buggy writer could leave, with the armor intact.
fn tamper_graph(dir: &Path, tamper: impl FnOnce(&mut GraphFile)) {
    let cd = CommitDir::new(&state_base(dir));
    let m = cd.read_manifest().unwrap().unwrap();
    let bytes = cd.load_entry(m.entry(GRAPH_LOGICAL).unwrap()).unwrap();
    let mut graph = GraphFile::from_bytes(bytes).unwrap();
    tamper(&mut graph);
    cd.commit(&[(GRAPH_LOGICAL, &graph.to_bytes())], Durability::Fast)
        .unwrap();
}

#[test]
fn quick_tampered_graphs_are_never_served() {
    let d = Durability::Fast;
    let (before, after) = (project_gh(5), project_gh(6));
    // What the edited tree builds to in a directory with no history.
    let fresh_image = {
        let dir = tmpdir("tamper-fresh");
        run_session(&dir, &after, d).unwrap();
        let image = snapshot(&dir).image;
        cleanup(&dir);
        image
    };
    let index = |graph: &GraphFile, key: &str| graph.keys.iter().position(|k| k == key).unwrap();

    // Two `optimizefn` values swapped, the trailer re-checksummed: each is
    // a well-formed value — of the other node. A value is its own checksum,
    // so neither is served: the graph does not decode, is quarantined, and
    // the build is a cold start.
    let dir = tmpdir("tamper-swap");
    run_session(&dir, &before, d).unwrap();
    tamper_graph(&dir, |graph| {
        let (g, main) = (
            index(graph, "optimizefn(base::g)"),
            index(graph, "optimizefn(main::main)"),
        );
        let g_value = graph.nodes[g].value.take();
        assert!(g_value.is_some() && g_value != graph.nodes[main].value);
        graph.nodes[g].value = graph.nodes[main].value.take();
        graph.nodes[main].value = g_value;
    });
    let report = run_session(&dir, &after, d).unwrap();
    assert_eq!(report.recovered_files, 1);
    assert_eq!(
        (report.query.hits, report.query.loaded),
        (0, 0),
        "{:?}",
        report.query
    );
    assert_eq!(snapshot(&dir).image, fresh_image);
    cleanup(&dir);

    // A dependency edge closing a cycle (`parse(lib)` on `link`): the
    // engine would answer every walk through it — the edit of `base`
    // reaches `link`, so `lib` is walked — with a cycle error, so the graph
    // is a cold start instead.
    let dir = tmpdir("tamper-cycle");
    run_session(&dir, &before, d).unwrap();
    tamper_graph(&dir, |graph| {
        let (parse, link) = (index(graph, "parse(lib)"), index(graph, "link"));
        let fingerprint = graph.nodes[link].fingerprint;
        graph.nodes[parse].deps.push(sfcc::GraphDep::Task {
            key: link as u32,
            fingerprint,
        });
    });
    let report = run_session(&dir, &after, d).unwrap();
    assert_eq!(report.query.hits, 0, "cold start: {:?}", report.query);
    assert_eq!(snapshot(&dir).image, fresh_image);
    cleanup(&dir);
}

/// The one crash point where the commit is durable and the image is not:
/// after the manifest rename, before the image write. The next cold build
/// finds nothing to do — and still owes the image, which it writes from the
/// committed `link` value without executing a task.
#[test]
fn quick_crash_between_commit_and_image_is_healed_by_a_noop() {
    let d = Durability::Fast;
    let p = project_v1();
    let refs = cold_references(d, "heal");
    let log = recorded_ops(&[&p], d, "heal-rec").remove(0);
    // The first rename of a cold session publishes the manifest.
    let manifest_rename = log
        .iter()
        .position(|r| r.kind == OpKind::Rename)
        .expect("a session renames its manifest into place");
    assert!(log[manifest_rename]
        .path
        .to_string_lossy()
        .contains(".manifest"));
    let image_write = log[manifest_rename..]
        .iter()
        .position(|r| r.kind == OpKind::Write)
        .map(|i| (manifest_rename + i) as u64 + 1)
        .expect("the image is written after the commit");

    let dir = tmpdir("heal");
    {
        let _g = ffs::install(FaultPlan::single(Fault::CrashAt(image_write)));
        assert!(run_session(&dir, &p, d).is_err());
    }
    assert_eq!(generation(&dir), 1, "the commit landed");
    assert!(!dir.join(IMAGE_NAME).exists(), "the image did not");

    let report = run_session(&dir, &p, d).unwrap();
    assert_eq!((report.query.misses, report.rebuilt_count()), (0, 0));
    assert!(report.query.executed.is_empty());
    assert_eq!(report.recovered_files, 0);
    assert_snapshots_eq(&snapshot(&dir), &refs.f2, "healed by a no-op");
    cleanup(&dir);
}

#[test]
fn quick_recovery_counters_surface_in_json_report() {
    let d = Durability::Fast;
    let v1 = project_v1();
    let dir = tmpdir("counters");
    run_session(&dir, &v1, d).unwrap();

    // Corrupt both committed entries on disk.
    let cd = CommitDir::new(&state_base(&dir));
    let m = cd.read_manifest().unwrap().unwrap();
    for logical in [persist::STATE_LOGICAL, persist::CACHE_LOGICAL] {
        fs::write(cd.entry_path(m.entry(logical).unwrap()), b"garbage").unwrap();
    }
    let report = run_session(&dir, &v1, d).unwrap();
    assert_eq!(report.recovered_files, 2);
    assert_eq!(report.quarantined.len(), 2);
    assert!(report.quarantined.iter().all(|q| q.ends_with(".corrupt")));
    let json = report.to_json();
    assert!(
        json.contains("\"recovery\":{\"recovered_files\":2,\"quarantined\":["),
        "{json}"
    );
    assert!(json.contains(".corrupt"), "{json}");

    // The recovery session recommitted healthy state: the next build of
    // the unchanged tree has nothing to redo, and the one after an edit is
    // fully incremental again — warm state, no recovery, dormant skipping.
    let next = run_session(&dir, &v1, d).unwrap();
    assert_eq!(next.recovered_files, 0);
    assert!(next
        .to_json()
        .contains("\"recovery\":{\"recovered_files\":0,\"quarantined\":[]}"));
    assert_eq!(next.query.misses, 0, "an unchanged tree is a no-op");
    let edited = run_session(&dir, &project_v2(), d).unwrap();
    let (_, _, skipped) = edited.outcome_totals();
    assert!(skipped > 0, "warm rebuild must skip dormant pass slots");
    cleanup(&dir);
}

#[test]
fn racing_builders_share_a_state_directory_safely() {
    let dir = tmpdir("race");
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let p = project_v1();
                for _ in 0..3 {
                    run_session(&dir, &p, Durability::Fast).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Quiescent: the surviving manifest is valid and both artifacts load
    // without a single recovery event — losers' generations are merely
    // orphaned, never half-published.
    let loaded = persist::load(&state_base(&dir), true, true);
    assert!(loaded.db_error.is_none(), "{:?}", loaded.events);
    assert!(loaded.events.is_empty(), "{:?}", loaded.events);

    // fsck reclaims the orphaned generations; a re-check is clean, and the
    // next session still builds a correct program from the shared state.
    let report = persist::fsck(&state_base(&dir), &[dir.join(IMAGE_NAME)]).unwrap();
    assert!(report.quarantined.is_empty(), "{report:?}");
    assert!(persist::fsck(&state_base(&dir), &[]).unwrap().clean());
    let final_report = run_session(&dir, &project_v1(), Durability::Fast).unwrap();
    assert_eq!(final_report.recovered_files, 0);
    let out = sfcc_backend::run(
        &final_report.program,
        "main.main",
        &[21],
        VmOptions::default(),
    )
    .unwrap();
    assert_eq!(out.return_value, Some(43));
    cleanup(&dir);
}

#[test]
fn quick_durable_mode_emits_sync_points_fast_does_not() {
    let p = project_v1();
    let fast_dir = tmpdir("dur-fast");
    let rec = ffs::record();
    run_session(&fast_dir, &p, Durability::Fast).unwrap();
    let fast_ops = rec.take();
    let durable_dir = tmpdir("dur-durable");
    run_session(&durable_dir, &p, Durability::Durable).unwrap();
    let durable_ops = rec.take();
    drop(rec);

    assert!(
        fast_ops
            .iter()
            .all(|r| r.kind != OpKind::SyncFile && r.kind != OpKind::SyncDir),
        "fast mode must not fsync"
    );
    let sync_files = durable_ops
        .iter()
        .filter(|r| r.kind == OpKind::SyncFile)
        .count();
    let sync_dirs = durable_ops
        .iter()
        .filter(|r| r.kind == OpKind::SyncDir)
        .count();
    // Both generation files, the manifest temp, and the image temp are
    // synced; the manifest and image renames are each followed by a
    // directory sync.
    assert!(
        sync_files >= 4,
        "durable mode fsyncs data files, got {sync_files}"
    );
    assert!(
        sync_dirs >= 2,
        "durable mode fsyncs directories, got {sync_dirs}"
    );
    cleanup(&fast_dir);
    cleanup(&durable_dir);
}

#[test]
fn transient_enospc_and_rename_failures_keep_the_directory_consistent() {
    let d = Durability::Fast;
    let p = project_v1();
    let refs = cold_references(d, "transient");
    for spec in [
        "enospc:5",
        "fail:6",
        "fail-rename:1",
        "fail-rename:2",
        "enospc:8",
    ] {
        let dir = tmpdir(&format!("transient-{}", spec.replace(':', "-")));
        {
            let _g = ffs::install(FaultPlan::parse(spec).unwrap());
            let _ = run_session(&dir, &p, d);
        }
        let committed = generation(&dir) > 0;
        run_session(&dir, &p, d).unwrap_or_else(|e| panic!("recovery failed after `{spec}`: {e}"));
        let want = if committed { &refs.f2 } else { &refs.f1 };
        assert_snapshots_eq(
            &snapshot(&dir),
            want,
            &format!("transient `{spec}`, committed={committed}"),
        );
        cleanup(&dir);
    }
}

#[test]
fn fsck_reclaims_crash_debris_and_quarantines_bad_images() {
    let d = Durability::Fast;
    let p = project_v1();
    let dir = tmpdir("fsck-debris");

    // Crash at the first rename: both generation files and the manifest
    // temp are already on disk, referenced by nothing.
    let logs = recorded_ops(&[&p], d, "fsck-rec");
    let k = logs[0]
        .iter()
        .enumerate()
        .find(|(_, r)| r.kind == OpKind::Rename)
        .map(|(i, _)| i as u64 + 1)
        .expect("a session must rename at least the manifest");
    {
        let _g = ffs::install(FaultPlan::single(Fault::CrashAt(k)));
        let _ = run_session(&dir, &p, d);
    }
    let report = persist::fsck(&state_base(&dir), &[]).unwrap();
    assert!(
        report.removed.len() >= 3,
        "crash debris must be collected: {report:?}"
    );
    assert!(persist::fsck(&state_base(&dir), &[]).unwrap().clean());

    // A corrupt image is quarantined by fsck.
    run_session(&dir, &p, d).unwrap();
    let image = dir.join(IMAGE_NAME);
    let mut bytes = fs::read(&image).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    fs::write(&image, &bytes).unwrap();
    let report = persist::fsck(&state_base(&dir), std::slice::from_ref(&image)).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    assert!(!image.exists(), "corrupt image must be moved aside");
    cleanup(&dir);
}

// ---------------------------------------------------------------------------
// Shared artifact store (sfcc-cas) fault matrix
// ---------------------------------------------------------------------------

/// One stateless builder session against a shared artifact store at
/// `store`. Every durable op the session performs belongs to the store, so
/// op indices map directly onto the CAS publish/lookup protocol.
fn cas_session(store: &Path, p: &Project) -> Result<BuildReport, String> {
    let mut builder = Builder::new(Compiler::new(
        Config::stateless().with_cas_path(store.to_path_buf()),
    ));
    builder.build(p).map_err(|e| e.to_string())
}

fn assert_runs_43(report: &BuildReport, label: &str) {
    let out = sfcc_backend::run(&report.program, "main.main", &[21], VmOptions::default())
        .unwrap_or_else(|e| panic!("{label}: program does not run: {e:?}"));
    assert_eq!(out.return_value, Some(43), "{label}");
}

#[test]
fn quick_cas_bitflip_reads_are_quarantined_never_served() {
    let p = project_v1();
    let store = tmpdir("cas-flip-seed");
    cas_session(&store, &p).unwrap();

    // Record the read ops of a warm session: manifest, artifacts, recency.
    let reads: Vec<u64> = {
        let rec = ffs::record();
        cas_session(&store, &p).unwrap();
        let log = rec.take();
        drop(rec);
        log.iter()
            .enumerate()
            .filter(|(_, r)| r.kind == OpKind::Read)
            .map(|(i, _)| i as u64 + 1)
            .collect()
    };
    assert!(
        reads.len() >= 2,
        "a warm store session reads at least the manifest and an artifact"
    );

    for &k in &reads {
        for bit in [0u64, 8 * 9 + 3] {
            let dir = tmpdir(&format!("cas-flip-k{k}-b{bit}"));
            copy_dir(&store, &dir);
            let report = {
                let _g = ffs::install(FaultPlan::single(Fault::BitflipAt { op: k, bit }));
                cas_session(&dir, &p).unwrap_or_else(|e| {
                    panic!("store corruption must degrade, not fail (op {k} bit {bit}): {e}")
                })
            };
            // The flipped bytes were never accepted: checksum or manifest
            // validation rejected them and the build recompiled locally.
            assert_runs_43(&report, &format!("cas flip op {k} bit {bit}"));
            // The store remains auditable; repair converges.
            sfcc_cas::fsck(&dir).unwrap();
            assert!(sfcc_cas::fsck(&dir).unwrap().clean(), "op {k} bit {bit}");
            let clean = cas_session(&dir, &p).unwrap();
            assert_runs_43(&clean, &format!("post-repair op {k} bit {bit}"));
            cleanup(&dir);
        }
    }
    cleanup(&store);
}

#[test]
fn cas_enospc_at_every_op_degrades_to_local_compilation() {
    let p = project_v1();
    let n = {
        let dir = tmpdir("cas-enospc-rec");
        let rec = ffs::record();
        cas_session(&dir, &p).unwrap();
        let n = rec.take().len() as u64;
        drop(rec);
        cleanup(&dir);
        n
    };
    assert!(n >= 5, "a cold store session performs several ops, got {n}");

    for k in 1..=n {
        let store = tmpdir(&format!("cas-enospc-k{k}"));
        let report = {
            let _g = ffs::install(FaultPlan::single(Fault::EnospcAt(k)));
            cas_session(&store, &p)
                .unwrap_or_else(|e| panic!("ENOSPC at op {k} must not fail the build: {e}"))
        };
        assert_runs_43(&report, &format!("enospc op {k}"));
        sfcc_cas::fsck(&store).unwrap();
        assert!(sfcc_cas::fsck(&store).unwrap().clean(), "op {k}");
        let clean = cas_session(&store, &p).unwrap();
        assert_runs_43(&clean, &format!("post-enospc op {k}"));
        cleanup(&store);
    }
}

#[test]
fn quick_cas_fsck_quarantines_tampered_artifacts() {
    let p = project_v1();
    let store = tmpdir("cas-tamper");
    cas_session(&store, &p).unwrap();

    // Flip one byte in the middle of every published artifact file.
    let mut tampered = 0;
    for dirent in fs::read_dir(&store).unwrap() {
        let path = dirent.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with(".sfcc-cas.a") {
            continue;
        }
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        tampered += 1;
    }
    assert!(tampered >= 3, "the session must have published artifacts");

    // fsck detects every tampered artifact through its checksum +
    // provenance validation, moves it aside, and repairs the manifest.
    let report = sfcc_cas::fsck(&store).unwrap();
    assert_eq!(
        report.quarantined.len(),
        tampered,
        "every tampered artifact must be quarantined: {report:?}"
    );
    assert!(report.repaired_manifest, "{report:?}");
    assert!(sfcc_cas::fsck(&store).unwrap().clean());

    // The repaired store serves nothing stale: a rebuild misses, recompiles
    // locally, republishes, and runs correctly.
    let clean = cas_session(&store, &p).unwrap();
    assert_runs_43(&clean, "post-tamper rebuild");
    cleanup(&store);
}

// ---------------------------------------------------------------------------
// Warm build daemon (`minicc serve`) crash rows
// ---------------------------------------------------------------------------

/// Runs a warm [`BuildService`] session with a fault plan installed on the
/// daemon's connection thread for the span of each request — faultfs plans
/// are thread-local, so a plan installed on the test thread would never
/// reach the daemon. Once a crash fault fires, the wrapper also refuses
/// the shutdown snapshot: the simulated daemon died at op `k` and never
/// got the chance to snapshot.
struct FaultySession {
    inner: BuildService,
    plan: FaultPlan,
    ops: Arc<Mutex<u64>>,
    crashed: bool,
}

impl Service for FaultySession {
    fn handle(&mut self, request: &Request) -> Result<String, String> {
        let guard = ffs::install(self.plan.clone());
        let result = self.inner.handle(request);
        *self.ops.lock().unwrap() = guard.ops_so_far();
        self.crashed = self.crashed || guard.crashed();
        result
    }

    fn snapshot(&mut self) -> Result<(), String> {
        if self.crashed {
            return Ok(());
        }
        self.inner.snapshot()
    }
}

fn faulty_daemon(root: &Path, plan: FaultPlan) -> (DaemonHandle, Arc<Mutex<u64>>) {
    let ops = Arc::new(Mutex::new(0u64));
    let factory_ops = ops.clone();
    let mut options = DaemonOptions::new(root);
    options.socket = root.join("daemon.sock");
    let handle = Daemon::bind(
        options,
        Box::new(move |dir, args| {
            Ok(Box::new(FaultySession {
                inner: BuildService::new(dir, args)?,
                plan: plan.clone(),
                ops: factory_ops.clone(),
                crashed: false,
            }))
        }),
    )
    .expect("bind daemon")
    .spawn();
    (handle, ops)
}

/// One warm `build` request against the daemon at `socket`, writing the
/// image where [`run_session`] does so the [`snapshot`] comparison applies.
fn daemon_build(socket: &Path, dir: &Path) -> Result<(), String> {
    let request = Request {
        cmd: "build".to_string(),
        dir: Some(dir.display().to_string()),
        module: None,
        out: Some(dir.join(IMAGE_NAME).display().to_string()),
        args: ["--stateful", "--fn-cache", "--jobs", "1"]
            .map(String::from)
            .to_vec(),
        prog_args: Vec::new(),
    };
    let reply = roundtrip(socket, &request)?;
    if reply.ok {
        Ok(())
    } else {
        Err(reply.raw)
    }
}

/// Crash the daemon at every durable op of a served incremental build; a
/// cold rebuild must always recover to one of the two no-crash references,
/// byte for byte — the same invariant the cold/warm matrices above demand
/// of CLI sessions. (References come from plain cold sessions:
/// `tests/integration_serve.rs` proves a served build leaves byte-identical
/// artifacts, so `run_session` doubles as the reference generator.)
#[test]
fn quick_daemon_serve_crash_matrix_fast() {
    let d = Durability::Fast;
    let v1 = project_v1();
    let v2 = project_v2();

    let seed = tmpdir("dserve-seed");
    run_session(&seed, &v1, d).unwrap();
    let seed_gen = generation(&seed);

    let w2_dir = tmpdir("dserve-w2");
    copy_dir(&seed, &w2_dir);
    run_session(&w2_dir, &v2, d).unwrap();
    let w2 = snapshot(&w2_dir);
    cleanup(&w2_dir);

    let w3_dir = tmpdir("dserve-w3");
    copy_dir(&seed, &w3_dir);
    run_session(&w3_dir, &v2, d).unwrap();
    run_session(&w3_dir, &v2, d).unwrap();
    let w3 = snapshot(&w3_dir);
    cleanup(&w3_dir);

    // Count the durable ops of one daemon-served incremental build.
    let n = {
        let root = tmpdir("dserve-rec");
        let dir = root.join("p");
        copy_dir(&seed, &dir);
        v2.write_to_dir(&dir).unwrap();
        let (handle, ops) = faulty_daemon(&root, FaultPlan::none());
        daemon_build(&handle.socket(), &dir).unwrap();
        handle.shutdown();
        let n = *ops.lock().unwrap();
        cleanup(&root);
        n
    };
    assert!(
        n >= 8,
        "a served build must perform several durable ops, got {n}"
    );

    for k in 1..=n + 1 {
        let root = tmpdir(&format!("dserve-k{k}"));
        let dir = root.join("p");
        copy_dir(&seed, &dir);
        v2.write_to_dir(&dir).unwrap();
        let (handle, _) = faulty_daemon(&root, FaultPlan::single(Fault::CrashAt(k)));
        let _ = daemon_build(&handle.socket(), &dir);
        handle.shutdown(); // snapshot suppressed when the crash fired

        let committed = generation(&dir) > seed_gen;
        let report = run_session(&dir, &v2, d)
            .unwrap_or_else(|e| panic!("recovery failed after daemon crash at op {k}: {e}"));
        assert_eq!(
            report.recovered_files, 0,
            "a daemon crash must not look like corruption (op {k})"
        );
        let want = if committed { &w3 } else { &w2 };
        assert_snapshots_eq(
            &snapshot(&dir),
            want,
            &format!("daemon crash at op {k}, committed={committed}"),
        );
        cleanup(&root);
    }
    cleanup(&seed);
}

/// A served build whose state commit fails leaves the session dirty; the
/// graceful-shutdown snapshot must retry and land the *completed* build's
/// state — byte-identical to a session that never hit the fault.
#[test]
fn quick_daemon_shutdown_snapshot_retries_a_failed_state_commit() {
    let d = Durability::Fast;
    let refs = cold_references(d, "dserve-dirty");
    let root = tmpdir("dserve-dirty");
    let dir = root.join("p");
    fs::create_dir_all(&dir).unwrap();
    project_v1().write_to_dir(&dir).unwrap();

    // The first rename of a cold served build is the state-commit manifest
    // rename: failing it makes the request error *after* the engine ran.
    let (handle, _) = faulty_daemon(&root, FaultPlan::parse("fail-rename:1").unwrap());
    let err = daemon_build(&handle.socket(), &dir)
        .expect_err("the served build must surface the failed state commit");
    assert!(err.contains("cannot save state"), "{err}");
    assert_eq!(
        generation(&dir),
        0,
        "the failed commit must not have published a manifest"
    );

    handle.shutdown();
    assert!(
        generation(&dir) > 0,
        "the shutdown snapshot must commit the dirty session state"
    );
    // The retried commit is the one-clean-session state, byte for byte.
    let cd = CommitDir::new(&state_base(&dir));
    let m = cd.read_manifest().unwrap().unwrap();
    assert_eq!(
        cd.load_entry(m.entry(persist::STATE_LOGICAL).unwrap())
            .unwrap(),
        refs.f1.state,
        "snapshot state diverges from a never-faulted session"
    );
    assert_eq!(
        cd.load_entry(m.entry(persist::CACHE_LOGICAL).unwrap())
            .unwrap(),
        refs.f1.cache,
        "snapshot cache diverges from a never-faulted session"
    );

    // A cold session accepts the snapshot wholesale — graph included, so it
    // has nothing to redo — and lands on the two-session reference: no
    // recovery, correct output; the session after an edit skips from it.
    let report = run_session(&dir, &project_v1(), d).unwrap();
    assert_eq!(report.recovered_files, 0);
    assert_eq!(
        report.query.misses, 0,
        "the snapshot's graph must be accepted"
    );
    assert_snapshots_eq(&snapshot(&dir), &refs.f2, "post-snapshot cold session");
    let out = sfcc_backend::run(&report.program, "main.main", &[21], VmOptions::default()).unwrap();
    assert_eq!(out.return_value, Some(43));
    let edited = run_session(&dir, &project_v2(), d).unwrap();
    let (_, _, skipped) = edited.outcome_totals();
    assert!(skipped > 0, "the snapshot state must warm the next session");
    cleanup(&root);
}
