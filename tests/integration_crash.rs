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

mod common;

use common::{cleanup, project};
use proptest::prelude::*;
use sfcc::depgraph::{section_span, GRAPH_LOGICAL};
use sfcc::{persist, Compiler, Config, Durability, FunctionCache, GraphFile, InputSection};
use sfcc_backend::VmOptions;
use sfcc_buildsys::serve::BuildService;
use sfcc_buildsys::{BuildReport, Builder, Project};
use sfcc_codec::{fnv64, Reader, Writer};
use sfcc_daemon::{roundtrip, Daemon, DaemonHandle, DaemonOptions, Request, Service};
use sfcc_faultfs::{self as ffs, CommitDir, Fault, FaultPlan, OpKind};
use sfcc_state::statefile;
use sfcc_trace::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

const STATE_BASE: &str = ".sfcc-state";
const IMAGE_NAME: &str = "out.sbx";

fn tmpdir(tag: &str) -> PathBuf {
    common::tmpdir("sfcc-crash", tag)
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
    let folded = |logical: &str| {
        persist::committed_bytes(&state_base(dir), logical)
            .unwrap()
            .expect("a completed session must have committed every artifact")
    };
    Snapshot {
        state: folded(persist::STATE_LOGICAL),
        cache: folded(persist::CACHE_LOGICAL),
        graph: folded(GRAPH_LOGICAL),
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
            report.metric("recovery.recovered_files"),
            0,
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

/// The crash-point harness over one incremental session: `seed` is the
/// committed directory every trial starts from, `next` the project the
/// crashed session builds. The all-new reference is that session and a
/// no-op after it; the all-old one, that session alone (what the recovery
/// session then does). Returns the reference session's manifest.
fn incremental_crash_matrix(seed: &Path, next: &Project, tag: &str) -> sfcc_faultfs::Manifest {
    let d = Durability::Fast;
    let seed_gen = generation(seed);
    let w2_dir = tmpdir(&format!("{tag}-w2"));
    copy_dir(seed, &w2_dir);
    run_session(&w2_dir, next, d).unwrap();
    let w2 = snapshot(&w2_dir);
    let manifest = CommitDir::new(&state_base(&w2_dir))
        .read_manifest()
        .unwrap()
        .unwrap();
    cleanup(&w2_dir);

    let w3_dir = tmpdir(&format!("{tag}-w3"));
    copy_dir(seed, &w3_dir);
    run_session(&w3_dir, next, d).unwrap();
    run_session(&w3_dir, next, d).unwrap();
    let w3 = snapshot(&w3_dir);
    cleanup(&w3_dir);

    let n = {
        let dir = tmpdir(&format!("{tag}-rec"));
        copy_dir(seed, &dir);
        let rec = ffs::record();
        run_session(&dir, next, d).unwrap();
        let n = rec.take().len() as u64;
        drop(rec);
        cleanup(&dir);
        n
    };
    assert!(
        n >= 8,
        "an incremental session must perform several durable ops, got {n}"
    );

    for k in 1..=n + 1 {
        let dir = tmpdir(&format!("{tag}-k{k}"));
        copy_dir(seed, &dir);
        {
            let _g = ffs::install(FaultPlan::single(Fault::CrashAt(k)));
            let _ = run_session(&dir, next, d);
        }
        let committed = generation(&dir) > seed_gen;
        let report = run_session(&dir, next, d)
            .unwrap_or_else(|e| panic!("recovery failed after {tag} crash at op {k}: {e}"));
        assert_eq!(report.metric("recovery.recovered_files"), 0, "op {k}");
        let want = if committed { &w3 } else { &w2 };
        assert_snapshots_eq(
            &snapshot(&dir),
            want,
            &format!("{tag} crash at op {k}, committed={committed}"),
        );
        assert!(persist::fsck(&state_base(&dir), &[])
            .unwrap()
            .quarantined
            .is_empty());
        cleanup(&dir);
    }
    manifest
}

/// Crashes at every durable op of a commit that appends a segment to the
/// cache and graph chains.
#[test]
fn warm_crash_matrix_fast() {
    let seed = tmpdir("warm-seed");
    run_session(&seed, &project_v1(), Durability::Fast).unwrap();
    let manifest = incremental_crash_matrix(&seed, &project_v2(), "warm");
    for logical in [GRAPH_LOGICAL, persist::CACHE_LOGICAL] {
        assert_eq!(manifest.chain(logical).len(), 2, "{logical}: an append");
    }
    cleanup(&seed);
}

/// Crashes at every durable op of a commit that compacts the graph chain:
/// the seed holds edits until the next one's segment would outweigh the
/// base.
#[test]
fn compacting_crash_matrix_fast() {
    let d = Durability::Fast;
    let seed = tmpdir("compact-seed");
    let projects = [project_v1(), project_v2()];
    run_session(&seed, &projects[0], d).unwrap();
    let mut edits = 1;
    let compacts = |seed: &Path, next: &Project| {
        let probe = tmpdir("compact-probe");
        copy_dir(seed, &probe);
        run_session(&probe, next, d).unwrap();
        let m = CommitDir::new(&state_base(&probe))
            .read_manifest()
            .unwrap()
            .unwrap();
        cleanup(&probe);
        m.chain(GRAPH_LOGICAL).len() == 1
    };
    while !compacts(&seed, &projects[edits % 2]) {
        run_session(&seed, &projects[edits % 2], d).unwrap();
        edits += 1;
        assert!(edits < 16, "the graph chain never compacts");
    }
    assert!(edits > 1, "the seed holds segments");
    let manifest = incremental_crash_matrix(&seed, &projects[edits % 2], "compact");
    assert_eq!(manifest.chain(GRAPH_LOGICAL).len(), 1, "a compaction");
    cleanup(&seed);
}

/// A commit that fails is never lost: whichever op of an appending commit
/// fails — before the manifest is published or, durable, after it — the
/// next successful commit of the same session, after an edit or after a
/// no-op, carries everything since the last success (or starts new
/// chains), and the directory folds to the store and cache that committed
/// it; a new process over the tree then executes nothing.
#[test]
fn quick_a_failed_commit_is_carried_by_the_next() {
    for durability in [Durability::Fast, Durability::Durable] {
        let config = |dir: &Path| {
            Config::stateful()
                .with_state_path(state_base(dir))
                .with_function_cache()
                .with_durability(durability)
        };
        // One session: a committed build, an edit whose commit fails at op
        // `fail` (none when `None`), then `next` built and committed.
        let session = |dir: &Path, fail: Option<u64>, next: &Project| {
            let mut builder = Builder::new(Compiler::new(config(dir)));
            builder.build(&project_gh(5)).unwrap();
            builder.compiler().save_state().unwrap();
            builder.build(&project_gh(6)).unwrap();
            let ops = {
                let rec = ffs::record();
                let _g = fail.map(|k| ffs::install(FaultPlan::single(Fault::FailAt(k))));
                let failed = builder.compiler().save_state().is_err();
                assert_eq!(failed, fail.is_some(), "op {fail:?}");
                rec.take()
            };
            builder.build(next).unwrap();
            builder.compiler().save_state().unwrap();
            (builder, ops)
        };
        let probe = tmpdir("carry-probe");
        let (_, ops) = session(&probe, None, &project_gh(6));
        cleanup(&probe);
        // Removing what a commit replaced comes after it and cannot fail it.
        let failing: Vec<u64> = ops
            .iter()
            .filter(|op| op.kind != OpKind::Remove)
            .map(|op| op.index)
            .collect();
        assert!(failing.len() >= 5, "{ops:?}");
        for next in [project_gh(6), project_gh(7)] {
            for &k in &failing {
                let label = format!("{} fail at op {k}", durability.label());
                let dir = tmpdir("carry");
                let (mut builder, _) = session(&dir, Some(k), &next);
                let folded = |logical: &str| {
                    persist::committed_bytes(&state_base(&dir), logical)
                        .unwrap()
                        .unwrap()
                };
                assert!(
                    folded(GRAPH_LOGICAL) == builder.graph_file(),
                    "{label}: graph"
                );
                let cache = builder.compiler().function_cache().to_bytes();
                assert!(folded(persist::CACHE_LOGICAL) == cache, "{label}: cache");
                let mut fresh = Builder::new(Compiler::new(config(&dir)));
                let report = fresh.build(&next).unwrap();
                assert_eq!(
                    (
                        report.metric("query.misses"),
                        report.metric("recovery.recovered_files")
                    ),
                    (0, 0),
                    "{label}"
                );
                cleanup(&dir);
            }
        }
    }
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

/// A bit flipped in any read of a warm session's load — a no-op's, which
/// reads the manifest, the state and the graph, and an edit's, which also
/// opens the function cache — is never consumed as valid data. (The
/// commit's own re-read of the manifest is the crash and torn-write
/// matrices' business: a commit it fails is an error, retried.)
#[test]
fn bitflip_read_matrix_never_accepts_corrupt_data() {
    let d = Durability::Fast;
    let v1 = project_v1();
    let seed = tmpdir("flip-seed");
    run_session(&seed, &v1, d).unwrap();

    for (p, answer, min_reads) in [(v1, 43, 3), (project_v2(), 45, 4)] {
        let reads: Vec<u64> = {
            let dir = tmpdir("flip-rec");
            copy_dir(&seed, &dir);
            let rec = ffs::record();
            run_session(&dir, &p, d).unwrap();
            let log = rec.take();
            drop(rec);
            cleanup(&dir);
            let manifest = CommitDir::new(&state_base(&dir)).manifest_path();
            log.iter()
                .enumerate()
                .filter(|(i, r)| r.kind == OpKind::Read && (*i == 0 || r.path != manifest))
                .map(|(i, _)| i as u64 + 1)
                .collect()
        };
        assert!(
            reads.len() >= min_reads,
            "a warm session reads at least manifest, state and graph, an edit the cache too"
        );

        for &k in &reads {
            for bit in [0u64, 8 * 9 + 3, 8 * 40 + 6] {
                let dir = tmpdir(&format!("flip-k{k}-b{bit}"));
                copy_dir(&seed, &dir);
                let report = {
                    let _g = ffs::install(FaultPlan::single(Fault::BitflipAt { op: k, bit }));
                    run_session(&dir, &p, d).unwrap_or_else(|e| {
                        panic!("silent corruption must degrade, not fail (op {k} bit {bit}): {e}")
                    })
                };
                // The build never consumed the flipped data as valid: the
                // program behaves exactly like an uncorrupted build.
                let out =
                    sfcc_backend::run(&report.program, "main.main", &[21], VmOptions::default())
                        .unwrap();
                assert_eq!(out.return_value, Some(answer), "op {k} bit {bit}");
                // And the session recommitted a fully healthy directory.
                let clean = run_session(&dir, &p, d).unwrap();
                assert_eq!(
                    clean.metric("recovery.recovered_files"),
                    0,
                    "op {k} bit {bit}"
                );
                let out =
                    sfcc_backend::run(&clean.program, "main.main", &[21], VmOptions::default())
                        .unwrap();
                assert_eq!(out.return_value, Some(answer), "op {k} bit {bit}");
                cleanup(&dir);
            }
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
    /// The graph segment an edit after them appends.
    segment: Vec<u8>,
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
        run_session(&dir, &project_v2(), Durability::Fast).unwrap();
        let segment = graph_tip(&dir).1;
        cleanup(&dir);
        RawArtifacts {
            state,
            cache,
            graph,
            manifest,
            image,
            segment,
        }
    })
}

#[test]
fn quick_truncation_at_every_byte_boundary_errors() {
    let RawArtifacts {
        state,
        cache,
        graph,
        segment,
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
    assert!(valued.contains(&"graph"), "{valued:?}");
    assert!(
        valued.iter().all(|key| key.starts_with("optimizefn(")
            || key.starts_with("codegen(")
            || *key == "link"
            || *key == "graph"),
        "{valued:?}"
    );
    for cut in 0..graph.len() {
        assert!(
            GraphFile::from_bytes(&graph[..cut]).is_err(),
            "truncated graph (cut {cut}) must not decode"
        );
    }
    // The input sections of a base and of a segment: every cut through one
    // is a typed error of the section read alone.
    for (bytes, is_segment) in [(graph, false), (segment, true)] {
        let span = section_span(bytes, is_segment).unwrap();
        assert!(InputSection::from_bytes(&bytes[span.clone()]).is_ok());
        for cut in 0..span.end {
            let read = section_span(&bytes[..cut], is_segment)
                .ok()
                .and_then(|span| bytes[..cut].get(span))
                .map(InputSection::from_bytes);
            assert!(
                !matches!(read, Some(Ok(_))),
                "a section cut at {cut} (segment: {is_segment}) decoded"
            );
        }
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
        segment,
    } = reference_artifacts();
    for i in 0..graph.len() {
        let mut b = graph.clone();
        b[i] ^= 1 << (i % 8);
        assert!(
            GraphFile::from_bytes(b).is_err(),
            "graph flip at byte {i} accepted as valid"
        );
    }
    // The input sections of a base — swept whole above — and of a
    // segment: a flip anywhere up to a section's end never reads as one.
    for (bytes, is_segment) in [(graph, false), (segment, true)] {
        let end = section_span(bytes, is_segment).unwrap().end;
        for i in 0..end {
            let mut b = bytes.clone();
            b[i] ^= 1 << (i % 8);
            let read = section_span(&b, is_segment)
                .ok()
                .and_then(|span| b.get(span))
                .map(InputSection::from_bytes);
            assert!(
                !matches!(read, Some(Ok(_))),
                "section flip at byte {i} (segment: {is_segment}) accepted as valid"
            );
        }
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
        assert_eq!(report.metric("recovery.recovered_files"), 1, "{logical}");
        assert!(report.quarantined[0].ends_with(".corrupt"), "{logical}");
        if logical == GRAPH_LOGICAL {
            // A torn graph is a cold start of the store and of nothing
            // else: every task re-executes against the intact state.
            assert!(report.metric("query.misses") > 0 && report.metric("query.hits") == 0);
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
    assert!(loaded.graph.is_none() && loaded.state_checksum.is_some());
    assert_eq!(loaded.events.len(), 1);
    assert!(loaded.events[0]
        .reason
        .contains("query graph does not decode"));
    assert!(!junk_path.exists(), "the undecodable graph is moved aside");
    let report = run_session(&dir, &v1, d).unwrap();
    assert!(report.metric("query.misses") > 0 && report.metric("query.hits") == 0);
    assert_eq!(snapshot(&dir).image, from_scratch.image);
    cleanup(&dir);
}

/// The committed graph chain's tip of `dir`: its path and bytes.
fn graph_tip(dir: &Path) -> (PathBuf, Vec<u8>) {
    let cd = CommitDir::new(&state_base(dir));
    let m = cd.read_manifest().unwrap().unwrap();
    let path = cd.entry_path(m.chain(GRAPH_LOGICAL).last().unwrap());
    let bytes = fs::read(&path).unwrap();
    (path, bytes)
}

/// One `minicc build --stateful --fn-cache -o out.sbx` of `p` in `dir`: the
/// build for the image file, committed, the image written unless held.
fn image_session(dir: &Path, p: &Project) -> BuildReport {
    let config = Config::stateful()
        .with_state_path(state_base(dir))
        .with_function_cache();
    let mut builder = Builder::new(Compiler::new(config));
    let image = dir.join(IMAGE_NAME);
    let report = builder.build_image(p, &image).unwrap();
    builder.compiler().save_state().unwrap();
    let linked = builder.linked_image().unwrap();
    ffs::atomic_write_if_changed(&image, linked, Durability::Fast).unwrap();
    report
}

/// Whether `report` is of a build that answered `link` from the input
/// section alone.
fn answered_from_inputs(report: &BuildReport) -> bool {
    let read = ["query.hits", "query.loaded", "persist.values_verified"];
    read.map(|name| report.metric(name)) == [1, 0, 0]
}

/// A damaged input section — any flipped bit, any cut, of a base's or of a
/// segment's, up to the section's end — never answers a no-op from the
/// inputs: the build falls through, finds the tip does not decode,
/// quarantines it and rebuilds the image the intact directory holds.
#[test]
fn quick_a_damaged_input_section_never_answers_a_noop() {
    let v1 = project_v1();
    for (tag, history) in [
        ("base", vec![&v1]),
        ("segment", vec![&v1, &project_v2(), &v1]),
    ] {
        let seed = tmpdir(&format!("section-{tag}"));
        for p in &history {
            image_session(&seed, p);
        }
        let segments = CommitDir::new(&state_base(&seed))
            .read_manifest()
            .unwrap()
            .unwrap()
            .chain(GRAPH_LOGICAL)
            .len()
            - 1;
        assert_eq!(segments > 0, tag == "segment", "{tag}");
        let want = fs::read(seed.join(IMAGE_NAME)).unwrap();
        // The intact directory answers the no-op from its inputs.
        let dir = tmpdir(&format!("section-{tag}-intact"));
        copy_dir(&seed, &dir);
        assert!(answered_from_inputs(&image_session(&dir, &v1)), "{tag}");
        cleanup(&dir);
        let (path, bytes) = graph_tip(&seed);
        let name = path.file_name().unwrap().to_owned();
        let end = section_span(&bytes, tag == "segment").unwrap().end;
        let damaged = (0..end).map(|i| {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << (i % 8);
            (format!("flip {i}"), flipped)
        });
        let cuts = (0..end).map(|cut| (format!("cut {cut}"), bytes[..cut].to_vec()));
        for (what, tip) in damaged.chain(cuts) {
            let dir = tmpdir(&format!("section-{tag}-damaged"));
            copy_dir(&seed, &dir);
            fs::write(dir.join(&name), &tip).unwrap();
            let report = image_session(&dir, &v1);
            assert!(!answered_from_inputs(&report), "{tag} {what}");
            assert_eq!(report.metric("recovery.recovered_files"), 1, "{tag} {what}");
            assert_eq!(
                fs::read(dir.join(IMAGE_NAME)).unwrap(),
                want,
                "{tag} {what}"
            );
            cleanup(&dir);
        }
        // `fsck` checks the section too: a flip inside its fields, before
        // its checksum, quarantines the tip.
        let dir = tmpdir(&format!("section-{tag}-fsck"));
        copy_dir(&seed, &dir);
        let mut flipped = bytes.clone();
        flipped[end - 9] ^= 0x10;
        fs::write(dir.join(&name), &flipped).unwrap();
        let report = persist::fsck(&state_base(&dir), &[]).unwrap();
        let quarantined = PathBuf::from(format!("{}.corrupt", dir.join(&name).display()));
        assert_eq!(report.quarantined, [quarantined], "{tag}");
        cleanup(&dir);
        cleanup(&seed);
    }
}

/// `db` encoded in state-file format version 2: the layout before the
/// module build counter and the per-record last-build number were dropped,
/// as a directory an older compiler committed holds it.
fn version_2_state(db: &sfcc_state::StateDb) -> Vec<u8> {
    sfcc_codec::armor(b"SFCCST\0", 2, |w| {
        let mut modules: Vec<_> = db.modules.iter().collect();
        modules.sort_by_key(|(name, _)| *name);
        w.usize(modules.len());
        for (name, module) in modules {
            w.str(name);
            w.u128(module.pipeline_hash.0);
            w.u64(1); // build counter
            let mut functions: Vec<_> = module.functions.iter().collect();
            functions.sort_by_key(|(name, _)| *name);
            w.usize(functions.len());
            for (name, record) in functions {
                w.str(name);
                w.u128(record.fingerprint.0);
                w.u128(record.exit_fingerprint.0);
                w.u64(1); // last build
                w.usize(record.slots.len());
                for slot in &record.slots {
                    w.u8(u8::from(slot.dormant));
                    w.u32(slot.dormant_streak);
                    w.u32(slot.times_skipped);
                    w.u8(slot.history);
                    w.u8(slot.observations);
                }
            }
        }
    })
}

/// A state file of an older format version, committed beside a graph, is
/// one quarantined recovery: the edit builds what a fresh directory builds,
/// and the next no-op executes nothing.
#[test]
fn quick_a_version_2_state_file_is_one_quarantined_cold_start() {
    let d = Durability::Fast;
    let (v1, v2) = (project_v1(), project_v2());
    let fresh = tmpdir("v2-fresh");
    run_session(&fresh, &v2, d).unwrap();
    let fresh_image = fs::read(fresh.join(IMAGE_NAME)).unwrap();
    cleanup(&fresh);

    let dir = tmpdir("v2-state");
    run_session(&dir, &v1, d).unwrap();
    let base = state_base(&dir);
    let state = persist::committed_bytes(&base, persist::STATE_LOGICAL)
        .unwrap()
        .unwrap();
    let old = version_2_state(&statefile::from_bytes(&state).unwrap());
    let cd = CommitDir::new(&base);
    let committed = cd.commit(&[(persist::STATE_LOGICAL, &old)], d).unwrap();
    assert!(committed.entry(GRAPH_LOGICAL).is_some(), "beside a graph");
    let old_path = cd.entry_path(committed.entry(persist::STATE_LOGICAL).unwrap());

    let report = run_session(&dir, &v2, d).unwrap();
    assert_eq!(
        report.metric("recovery.recovered_files"),
        1,
        "{:?}",
        report.quarantined
    );
    assert_eq!(
        report.quarantined,
        [format!("{}.corrupt", old_path.display())]
    );
    assert!(!old_path.exists());
    assert_eq!(fs::read(dir.join(IMAGE_NAME)).unwrap(), fresh_image);
    let noop = run_session(&dir, &v2, d).unwrap();
    assert_eq!(
        (
            noop.metric("query.misses"),
            noop.metric("recovery.recovered_files")
        ),
        (0, 0)
    );
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

/// Flips one byte in the middle of the committed value of task `key` of
/// `dir`'s graph and commits the file as a new base. No trailer covers a
/// value's bytes, so only the value's own check can tell.
fn flip_value(dir: &Path, key: &str) {
    let bytes = persist::committed_bytes(&state_base(dir), GRAPH_LOGICAL)
        .unwrap()
        .unwrap();
    let graph = GraphFile::from_bytes(bytes.clone()).unwrap();
    let at = graph.keys.iter().position(|k| k == key).unwrap();
    let value = graph.nodes[at].value.as_deref().expect("a persisted value");
    let start = bytes
        .windows(value.len())
        .position(|w| w == value)
        .expect("the value is in the file");
    let mut flipped = bytes.clone();
    flipped[start + value.len() / 2] ^= 0x20;
    CommitDir::new(&state_base(dir))
        .commit(&[(GRAPH_LOGICAL, &flipped)], Durability::Fast)
        .unwrap();
}

#[test]
fn quick_tampered_graphs_are_never_served() {
    let d = Durability::Fast;
    let (before, after) = (project_gh(5), project_gh(6));
    // What the edited tree builds to in a directory with no history.
    let fresh_image = |p: &Project| {
        let dir = tmpdir("tamper-fresh");
        run_session(&dir, p, d).unwrap();
        let image = snapshot(&dir).image;
        cleanup(&dir);
        image
    };
    let index = |graph: &GraphFile, key: &str| graph.keys.iter().position(|k| k == key).unwrap();

    // Two `optimizefn` values swapped, the trailer re-checksummed: each is
    // a well-formed value — of the other node. A value is its own checksum,
    // so neither is served: the edit of `h` and a function added to `main`
    // demand both, each fails its check when loaded, and its task executes
    // instead — a miss and a recovery event. Every other value is served.
    let mut swapped_after = after.clone();
    let main = swapped_after.file("main").unwrap().to_string();
    swapped_after.set_file(
        "main".into(),
        format!("{main}\nfn two() -> int {{ return 2; }}"),
    );
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
    let report = run_session(&dir, &swapped_after, d).unwrap();
    for task in ["optimizefn(base::g)", "optimizefn(main::main)"] {
        assert!(
            report.query.executed.iter().any(|t| t == task),
            "{task}: {:?}",
            report.query
        );
    }
    assert_eq!(
        report.metric("recovery.recovered_files"),
        2,
        "one event per rejected value"
    );
    assert!(report.metric("query.loaded") > 0, "{:?}", report.query);
    assert_eq!(snapshot(&dir).image, fresh_image(&swapped_after));
    cleanup(&dir);

    // A byte flipped inside the committed `link` value: the no-op that
    // loads it finds it corrupt, re-executes `link` — one recovery event,
    // the same image — and commits a clean value.
    let dir = tmpdir("tamper-link");
    run_session(&dir, &before, d).unwrap();
    let image = snapshot(&dir).image;
    flip_value(&dir, "link");
    let report = run_session(&dir, &before, d).unwrap();
    assert_eq!(report.query.executed, ["link"], "{:?}", report.query);
    assert_eq!(
        (
            report.metric("recovery.recovered_files"),
            report.quarantined.len()
        ),
        (1, 0)
    );
    assert_eq!(snapshot(&dir).image, image);
    let committed = persist::committed_bytes(&state_base(&dir), GRAPH_LOGICAL)
        .unwrap()
        .unwrap();
    assert!(GraphFile::from_bytes(committed).is_ok(), "a clean value");
    let again = run_session(&dir, &before, d).unwrap();
    assert_eq!(
        (
            again.metric("query.misses"),
            again.metric("recovery.recovered_files")
        ),
        (0, 0)
    );
    cleanup(&dir);

    // A byte flipped inside a value no build demands: builds stay correct,
    // and `fsck` quarantines the link that holds it.
    let dir = tmpdir("tamper-idle");
    run_session(&dir, &before, d).unwrap();
    let image = snapshot(&dir).image;
    flip_value(&dir, "optimizefn(main::main)");
    let cd = CommitDir::new(&state_base(&dir));
    let base = cd.entry_path(
        cd.read_manifest()
            .unwrap()
            .unwrap()
            .entry(GRAPH_LOGICAL)
            .unwrap(),
    );
    for (p, want) in [(&before, image), (&after, fresh_image(&after))] {
        let report = run_session(&dir, p, d).unwrap();
        assert_eq!(report.metric("recovery.recovered_files"), 0);
        assert_eq!(fs::read(dir.join(IMAGE_NAME)).unwrap(), want);
    }
    let report = persist::fsck(&state_base(&dir), &[]).unwrap();
    assert_eq!(
        report.quarantined,
        [PathBuf::from(format!("{}.corrupt", base.display()))]
    );
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
    assert_eq!(
        report.metric("query.hits"),
        0,
        "cold start: {:?}",
        report.query
    );
    assert_eq!(snapshot(&dir).image, fresh_image(&after));
    cleanup(&dir);
}

/// A committed function cache, record by record.
struct CacheFile {
    /// Magic and format version.
    header: Vec<u8>,
    identity: u64,
    /// `(key, name, IR text)` per entry.
    records: Vec<(u128, String, Vec<u8>)>,
}

/// The committed function cache of `dir`.
fn cache_file(dir: &Path) -> CacheFile {
    let cd = CommitDir::new(&state_base(dir));
    let m = cd.read_manifest().unwrap().unwrap();
    let bytes = cd
        .load_entry(m.entry(persist::CACHE_LOGICAL).unwrap())
        .unwrap();
    let mut r = Reader::new(&bytes[7..]);
    r.u32().unwrap();
    let header = bytes[..bytes.len() - r.remaining()].to_vec();
    let identity = r.u64().unwrap();
    let records = (0..r.usize().unwrap())
        .map(|_| {
            let key = r.u128().unwrap();
            let name = r.str().unwrap();
            (key, name, r.bytes().unwrap().to_vec())
        })
        .collect();
    CacheFile {
        header,
        identity,
        records,
    }
}

/// Rewrites the text of the committed cache entry `key` of `dir` to `text`,
/// the trailer re-checksummed: a record the armor vouches for.
fn tamper_cache_entry(dir: &Path, key: u128, text: &[u8]) {
    let CacheFile {
        header,
        identity,
        records,
    } = cache_file(dir);
    let mut payload = Writer::new();
    payload.u64(identity);
    payload.usize(records.len());
    for (k, name, original) in &records {
        payload.u128(*k);
        payload.str(name);
        payload.bytes(if *k == key { text } else { original });
    }
    let payload = payload.into_bytes();
    let mut file = Writer::new();
    file.raw(&header);
    file.raw(&payload);
    file.u64(fnv64(&payload));
    CommitDir::new(&state_base(dir))
        .commit(
            &[(persist::CACHE_LOGICAL, &file.into_bytes())],
            Durability::Fast,
        )
        .unwrap();
}

/// A cache entry whose armor checks but whose text does not parse (or is not
/// UTF-8) is found only when a lookup hits it — and then it is a miss: the
/// function is recomputed, the image is a fresh build's, and the entry is
/// not written back.
#[test]
fn quick_tampered_cache_entry_is_a_miss_never_served() {
    let d = Durability::Fast;
    let (v1, v2) = (project_v1(), project_v2());
    let fresh_image = {
        let dir = tmpdir("cache-tamper-fresh");
        run_session(&dir, &v1, d).unwrap();
        let image = snapshot(&dir).image;
        cleanup(&dir);
        image
    };
    // Untampered, the revert's lookup of `lib::f` hits the entry the first
    // session committed: a new process opens the cache when an edit needs it.
    let dir = tmpdir("cache-revert");
    run_session(&dir, &v1, d).unwrap();
    run_session(&dir, &v2, d).unwrap();
    let report = run_session(&dir, &v1, d).unwrap();
    assert!(report.metrics.scalar("cache.hits_persisted").unwrap() >= 1);
    assert_eq!(snapshot(&dir).image, fresh_image);
    cleanup(&dir);
    for text in [&b"not ir"[..], &[0xff, 0xfe, 0x80][..]] {
        // v1, v2, then back to v1: the revert re-runs `lib::f`, whose v1
        // body the first session cached.
        let dir = tmpdir("cache-tamper");
        run_session(&dir, &v1, d).unwrap();
        let records = cache_file(&dir).records;
        let key = records.iter().find(|(_, name, _)| name == "f").unwrap().0;
        run_session(&dir, &v2, d).unwrap();
        tamper_cache_entry(&dir, key, text);
        let report = run_session(&dir, &v1, d).unwrap();
        let gauge = |name: &str| report.metrics.scalar(name).unwrap();
        assert_eq!(
            report.metric("recovery.recovered_files"),
            0,
            "a bad entry is not a bad file"
        );
        assert_eq!(
            (gauge("cache.corrupt_entries"), gauge("cache.hits")),
            (1, 0)
        );
        assert!(report
            .query
            .executed
            .contains(&"optimizefn(lib::f)".to_string()));
        assert_eq!(snapshot(&dir).image, fresh_image);
        // Not re-persisted: every committed entry parses again.
        assert!(persist::fsck(&state_base(&dir), &[]).unwrap().clean());
        cleanup(&dir);
    }
}

/// A damaged segment — bits flipped, cut short, or gone — costs its own
/// artifact a cold start and nothing else: the other chain and the state
/// load, the build's image is the one a directory without history builds,
/// and `fsck` quarantines the segment (a missing one, it cannot) and drops
/// the rest of its chain from the manifest, its base removed as debris. A
/// damaged cache costs a no-op nothing — it reads no byte of it — and the
/// next edit, which opens it, its cold start.
#[test]
fn quick_damaged_segments_cold_start_only_their_artifact() {
    let d = Durability::Fast;
    let (v1, v2) = (project_v1(), project_v2());
    let seed = tmpdir("seg-seed");
    run_session(&seed, &v1, d).unwrap();
    run_session(&seed, &v2, d).unwrap();
    let fresh = tmpdir("seg-fresh");
    run_session(&fresh, &v2, d).unwrap();
    let cold_image = fs::read(fresh.join(IMAGE_NAME)).unwrap();
    cleanup(&fresh);

    for logical in [GRAPH_LOGICAL, persist::CACHE_LOGICAL] {
        for damage in ["flip", "truncate", "remove"] {
            for by_fsck in [false, true] {
                let label = format!("{damage} {logical} segment, by fsck: {by_fsck}");
                let dir = tmpdir("seg-damage");
                copy_dir(&seed, &dir);
                let cd = CommitDir::new(&state_base(&dir));
                let m = cd.read_manifest().unwrap().unwrap();
                let links: Vec<PathBuf> =
                    m.chain(logical).iter().map(|e| cd.entry_path(e)).collect();
                assert_eq!(links.len(), 2, "{label}");
                let bytes = fs::read(&links[1]).unwrap();
                match damage {
                    "flip" => {
                        let mut b = bytes.clone();
                        b[bytes.len() / 2] ^= 0x20;
                        fs::write(&links[1], b).unwrap();
                    }
                    "truncate" => fs::write(&links[1], &bytes[..bytes.len() / 2]).unwrap(),
                    _ => fs::remove_file(&links[1]).unwrap(),
                }
                if by_fsck {
                    let report = persist::fsck(&state_base(&dir), &[]).unwrap();
                    let quarantined = usize::from(damage != "remove");
                    assert_eq!(report.quarantined.len(), quarantined, "{label}");
                    assert!(report.repaired_manifest, "{label}");
                    assert!(
                        report.removed.contains(&links[0]),
                        "{label}: base is debris"
                    );
                    let m = cd.read_manifest().unwrap().unwrap();
                    assert!(m.chain(logical).is_empty(), "{label}");
                    assert!(
                        m.entries.iter().all(|e| !e.logical.starts_with(logical)),
                        "{label}"
                    );
                    assert!(
                        persist::fsck(&state_base(&dir), &[]).unwrap().clean(),
                        "{label}"
                    );
                } else {
                    let loaded = persist::load(&state_base(&dir), true, true);
                    assert_eq!(loaded.events.len(), 1, "{label}: {:?}", loaded.events);
                    assert_eq!(loaded.events[0].path, links[1], "{label}");
                    assert!(
                        loaded.state_checksum.is_some(),
                        "{label}: the state is not collateral"
                    );
                    let (graph, cache) = (loaded.graph.is_some(), loaded.cache.stats().entries > 0);
                    let want = (logical != GRAPH_LOGICAL, logical != persist::CACHE_LOGICAL);
                    assert_eq!((graph, cache), want, "{label}");
                }
                let mut p = v2.clone();
                if logical == persist::CACHE_LOGICAL {
                    let rec = ffs::record();
                    let report = run_session(&dir, &v2, d).unwrap();
                    let cache_ops = rec
                        .take()
                        .into_iter()
                        .filter(|r| r.path.to_string_lossy().contains(".sfcc-state.ircache"))
                        .count();
                    assert_eq!(
                        (
                            report.metric("query.misses"),
                            report.metric("recovery.recovered_files"),
                            cache_ops
                        ),
                        (0, 0, 0),
                        "{label}: the no-op"
                    );
                    // An edit that leaves the program as it was.
                    let lib = p.file("lib").unwrap().to_string();
                    p.set_file("lib".into(), format!("{lib}\n"));
                }
                let report = run_session(&dir, &p, d).unwrap();
                assert_eq!(
                    report.metric("recovery.recovered_files"),
                    u64::from(!by_fsck),
                    "{label}"
                );
                assert_eq!(
                    fs::read(dir.join(IMAGE_NAME)).unwrap(),
                    cold_image,
                    "{label}"
                );
                assert!(
                    persist::fsck(&state_base(&dir), &[]).unwrap().clean(),
                    "{label}"
                );
                cleanup(&dir);
            }
        }
    }
    cleanup(&seed);
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
    assert_eq!(
        (
            report.metric("query.misses"),
            report.metric("build.rebuilt_count")
        ),
        (0, 0)
    );
    assert!(report.query.executed.is_empty());
    assert_eq!(report.metric("recovery.recovered_files"), 0);
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
    assert_eq!(report.metric("recovery.recovered_files"), 2);
    assert_eq!(report.quarantined.len(), 2);
    assert!(report.quarantined.iter().all(|q| q.ends_with(".corrupt")));
    let json = report.to_json();
    assert!(json.contains("\"recovery\":{\"quarantined\":[\""), "{json}");
    assert!(
        json.contains("\"recovery.recovered_files\":{\"type\":\"gauge\",\"value\":2}"),
        "{json}"
    );
    assert!(json.contains(".corrupt"), "{json}");

    // The recovery session recommitted healthy state: the next build of
    // the unchanged tree has nothing to redo, and the one after an edit is
    // fully incremental again — warm state, no recovery, dormant skipping.
    let next = run_session(&dir, &v1, d).unwrap();
    assert_eq!(next.metric("recovery.recovered_files"), 0);
    let json = next.to_json();
    assert!(json.contains("\"recovery\":{\"quarantined\":[]}"), "{json}");
    assert!(
        json.contains("\"recovery.recovered_files\":{\"type\":\"gauge\",\"value\":0}"),
        "{json}"
    );
    assert_eq!(
        next.metric("query.misses"),
        0,
        "an unchanged tree is a no-op"
    );
    let edited = run_session(&dir, &project_v2(), d).unwrap();
    let skipped = edited.metric("outcomes.skipped");
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
    assert!(loaded.events.is_empty(), "{:?}", loaded.events);

    // fsck reclaims the orphaned generations; a re-check is clean, and the
    // next session still builds a correct program from the shared state.
    let report = persist::fsck(&state_base(&dir), &[dir.join(IMAGE_NAME)]).unwrap();
    assert!(report.quarantined.is_empty(), "{report:?}");
    assert!(persist::fsck(&state_base(&dir), &[]).unwrap().clean());
    let final_report = run_session(&dir, &project_v1(), Durability::Fast).unwrap();
    assert_eq!(final_report.metric("recovery.recovered_files"), 0);
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

    // A corrupt manifest is quarantined — not a manifest repair: nothing
    // is published in its place — and every file it named is an orphan.
    let manifest = CommitDir::new(&store.join(sfcc_cas::CAS_BASE)).manifest_path();
    fs::write(&manifest, b"junk").unwrap();
    let report = sfcc_cas::fsck(&store).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    assert!(!report.repaired_manifest, "{report:?}");
    assert!(!report.removed.is_empty(), "{report:?}");
    assert!(sfcc_cas::fsck(&store).unwrap().clean());
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
    fn handle(&mut self, request: &Request) -> Result<Value, String> {
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
        Err(json::write(&reply.body))
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
            report.metric("recovery.recovered_files"),
            0,
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
    assert_eq!(report.metric("recovery.recovered_files"), 0);
    assert_eq!(
        report.metric("query.misses"),
        0,
        "the snapshot's graph must be accepted"
    );
    assert_snapshots_eq(&snapshot(&dir), &refs.f2, "post-snapshot cold session");
    let out = sfcc_backend::run(&report.program, "main.main", &[21], VmOptions::default()).unwrap();
    assert_eq!(out.return_value, Some(43));
    let edited = run_session(&dir, &project_v2(), d).unwrap();
    let skipped = edited.metric("outcomes.skipped");
    assert!(skipped > 0, "the snapshot state must warm the next session");
    cleanup(&root);
}
