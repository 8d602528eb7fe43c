//! Crash-safe persistence of a session's durable artifacts.
//!
//! The dormancy state, the function-IR cache and the query graph (whose
//! recorded `state:` stamps describe that very state, see
//! [`crate::depgraph`]) must move across sessions *together*: they are
//! published through one [`CommitDir`] manifest anchored at the configured
//! state path, so a crash at any I/O operation leaves the set logically
//! all-old or all-new (see `sfcc-faultfs`).
//!
//! Loading enforces the graceful-degradation contract: any manifest, state,
//! cache or graph file that is truncated, corrupt, or version-skewed is detected
//! (never read as valid), moved aside to `<file>.corrupt`, and the affected
//! artifact cold-starts. Every such decision is reported as a
//! [`RecoveryEvent`] so the build system can surface `recovered_files` /
//! `quarantined` counters. A directory without a manifest is a cold start.

use crate::depgraph::{GraphFile, GRAPH_LOGICAL};
use crate::fncache::FunctionCache;
use sfcc_faultfs::{CommitDir, Durability, EntryError, ManifestEntry, ManifestError};
use sfcc_state::{statefile, DecodeError, StateDb};
use std::io;
use std::path::{Path, PathBuf};

/// Logical name of the dormancy state in the commit manifest.
pub const STATE_LOGICAL: &str = "state";
/// Logical name of the function-IR cache in the commit manifest.
pub const CACHE_LOGICAL: &str = "ircache";

/// One recovery decision taken while loading persistent state: a file was
/// unreadable or failed validation and the affected artifact cold-started.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// The file that failed.
    pub path: PathBuf,
    /// Where it was quarantined (`<path>.corrupt`), when it was provably
    /// corrupt; `None` for plain I/O failures, which leave the file alone.
    pub quarantined_to: Option<PathBuf>,
    /// Human-readable reason.
    pub reason: String,
}

/// The result of loading a session's persistent artifacts. The default is
/// what an empty directory loads as: everything cold, nothing to report.
#[derive(Debug, Default)]
pub struct LoadedState {
    /// The dormancy database (cold when absent or unrecoverable).
    pub db: StateDb,
    /// Why the state fell back to a cold start, if it did.
    pub db_error: Option<DecodeError>,
    /// The function-IR cache (cold when absent or unrecoverable).
    pub cache: FunctionCache,
    /// The query graph the last commit recorded (`None` when absent or
    /// unrecoverable: the build system starts from an empty store).
    pub graph: Option<GraphFile>,
    /// Every quarantine / fallback decision taken during the load.
    pub events: Vec<RecoveryEvent>,
}

fn quarantine_event(path: &Path, reason: String, events: &mut Vec<RecoveryEvent>) {
    events.push(RecoveryEvent {
        path: path.to_path_buf(),
        quarantined_to: sfcc_faultfs::quarantine(path),
        reason,
    });
}

fn io_event(path: &Path, err: &io::Error, events: &mut Vec<RecoveryEvent>) {
    events.push(RecoveryEvent {
        path: path.to_path_buf(),
        quarantined_to: None,
        reason: format!("unreadable: {err}"),
    });
}

/// Loads the artifacts anchored at `base`, applying the recovery contract.
/// Never fails: any problem degrades the affected artifact to a cold start
/// and is reported in [`LoadedState::events`].
pub fn load(base: &Path, want_state: bool, want_cache: bool) -> LoadedState {
    let mut out = LoadedState::default();
    let cd = CommitDir::new(base);
    match cd.read_manifest() {
        Ok(Some(manifest)) => {
            if want_state {
                if let Some(entry) = manifest.entry(STATE_LOGICAL) {
                    match load_entry_bytes(&cd, entry, &mut out.events) {
                        Some(bytes) => match statefile::from_bytes(&bytes) {
                            Ok(db) => out.db = db,
                            Err(e) => {
                                out.db_error = Some(e);
                                quarantine_event(
                                    &cd.entry_path(entry),
                                    format!("state does not decode: {e}"),
                                    &mut out.events,
                                );
                            }
                        },
                        None => out.db_error = Some(DecodeError::Corrupt),
                    }
                }
            }
            if want_cache {
                if let Some(entry) = manifest.entry(CACHE_LOGICAL) {
                    if let Some(bytes) = load_entry_bytes(&cd, entry, &mut out.events) {
                        match FunctionCache::from_bytes(&bytes) {
                            Ok(cache) => out.cache = cache,
                            Err(e) => quarantine_event(
                                &cd.entry_path(entry),
                                format!("cache does not decode: {e}"),
                                &mut out.events,
                            ),
                        }
                    }
                }
            }
            if let Some(entry) = manifest.entry(GRAPH_LOGICAL) {
                // The graph checks every byte as it decodes (a trailer over
                // its structure, each value against its node's fingerprint),
                // so it is read without hashing it for the manifest as well.
                match cd.read_entry(entry) {
                    Ok(bytes) => match GraphFile::from_bytes(bytes) {
                        Ok(graph) => out.graph = Some(graph),
                        Err(e) => quarantine_event(
                            &cd.entry_path(entry),
                            format!("query graph does not decode: {e}"),
                            &mut out.events,
                        ),
                    },
                    Err(e) => io_event(&cd.entry_path(entry), &e, &mut out.events),
                }
            }
        }
        Ok(None) => {}
        Err(ManifestError::Corrupt(e)) => {
            if want_state {
                out.db_error = Some(e);
            }
            quarantine_event(
                &cd.manifest_path(),
                format!("manifest does not decode: {e}"),
                &mut out.events,
            );
        }
        Err(ManifestError::Io(e)) => {
            // The manifest may be fine (transient failure, injected crash):
            // cold-start this session but leave the file alone.
            io_event(&cd.manifest_path(), &e, &mut out.events);
        }
    }
    out
}

fn load_entry_bytes(
    cd: &CommitDir,
    entry: &ManifestEntry,
    events: &mut Vec<RecoveryEvent>,
) -> Option<Vec<u8>> {
    match cd.load_entry(entry) {
        Ok(bytes) => Some(bytes),
        Err(EntryError::Corrupt(why)) => {
            quarantine_event(&cd.entry_path(entry), why, events);
            None
        }
        Err(EntryError::Io(e)) => {
            io_event(&cd.entry_path(entry), &e, events);
            None
        }
    }
}

/// Commits the given artifacts at `base` atomically: all files (or any
/// subset, carrying the others forward) become visible in one manifest
/// rename. `graph` is an already-encoded [`GraphFile`] and rides along only
/// with a state or cache commit — it describes them, and a session that
/// persists neither has no state directory to keep a graph in. Returns the generation number of the committed manifest (`0`
/// when there was nothing to save), so callers can stamp reports with
/// exactly which state commit their results correspond to.
///
/// # Errors
///
/// Propagates I/O failures; the previously committed generation stays
/// intact on any error.
pub fn save(
    base: &Path,
    db: Option<&StateDb>,
    cache: Option<&FunctionCache>,
    graph: Option<&[u8]>,
    durability: Durability,
) -> io::Result<u64> {
    let state_bytes = db.map(statefile::to_bytes);
    let cache_bytes = cache.map(FunctionCache::to_bytes);
    let mut files: Vec<(&str, &[u8])> = Vec::new();
    if let Some(b) = &state_bytes {
        files.push((STATE_LOGICAL, b.as_slice()));
    }
    if let Some(b) = &cache_bytes {
        files.push((CACHE_LOGICAL, b.as_slice()));
    }
    if files.is_empty() {
        return Ok(0);
    }
    if let Some(b) = graph {
        files.push((GRAPH_LOGICAL, b));
    }
    let manifest = CommitDir::new(base).commit(&files, durability)?;
    Ok(manifest.generation)
}

/// Read-only state lookup for inspection commands (`minicc state`):
/// manifest-aware, but never quarantines or mutates anything. Without a
/// manifest, `base` is read as a bare state file (what
/// `sfcc_state::statefile::save` writes, e.g. experiment E5's).
/// `Ok(None)` means no state exists at `base`.
///
/// # Errors
///
/// Returns a description of the I/O or decode failure.
pub fn peek_state(base: &Path) -> Result<Option<StateDb>, String> {
    let cd = CommitDir::new(base);
    match cd.read_manifest() {
        Ok(Some(manifest)) => match manifest.entry(STATE_LOGICAL) {
            Some(entry) => {
                let bytes = cd.load_entry(entry).map_err(|e| e.to_string())?;
                statefile::from_bytes(&bytes)
                    .map(Some)
                    .map_err(|e| e.to_string())
            }
            None => Ok(None),
        },
        Ok(None) => match std::fs::read(base) {
            Ok(bytes) => statefile::from_bytes(&bytes)
                .map(Some)
                .map_err(|e| e.to_string()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.to_string()),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// The result of [`fsck`].
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Files whose contents were fully verified.
    pub checked: usize,
    /// Files found corrupt and moved to `<file>.corrupt`.
    pub quarantined: Vec<PathBuf>,
    /// Abandoned temp/generation files that were removed.
    pub removed: Vec<PathBuf>,
    /// Whether the manifest was rewritten to drop quarantined entries.
    pub repaired_manifest: bool,
}

impl FsckReport {
    /// Whether the directory was fully healthy (nothing quarantined,
    /// removed, or repaired).
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty() && self.removed.is_empty() && !self.repaired_manifest
    }
}

/// Verifies and repairs the state directory at `base`, plus any program
/// `images`: every referenced file is fully decoded; corrupt files are
/// quarantined; a manifest with quarantined entries is rewritten without
/// them; abandoned temp/generation files are removed.
///
/// # Errors
///
/// Propagates I/O failures from scanning the directory or rewriting the
/// manifest (individual file problems are repairs, not errors).
pub fn fsck(base: &Path, images: &[PathBuf]) -> io::Result<FsckReport> {
    let mut report = FsckReport::default();
    let cd = CommitDir::new(base);
    let manifest = match cd.read_manifest() {
        Ok(m) => m,
        Err(ManifestError::Corrupt(e)) => {
            let mpath = cd.manifest_path();
            if let Some(dest) = sfcc_faultfs::quarantine(&mpath) {
                report.quarantined.push(dest);
            }
            let _ = e;
            None
        }
        Err(ManifestError::Io(e)) => return Err(e),
    };

    let manifest = match manifest {
        Some(m) => {
            let mut survivors = Vec::new();
            for entry in &m.entries {
                let ok = match cd.load_entry(entry) {
                    Ok(bytes) => decodes(&entry.logical, bytes),
                    Err(_) => false,
                };
                if ok {
                    report.checked += 1;
                    survivors.push(entry.clone());
                } else {
                    let path = cd.entry_path(entry);
                    if let Some(dest) = sfcc_faultfs::quarantine(&path) {
                        report.quarantined.push(dest);
                    }
                }
            }
            if survivors.len() != m.entries.len() {
                let repaired = cd.publish(m.generation + 1, survivors, Durability::Fast)?;
                report.repaired_manifest = true;
                Some(repaired)
            } else {
                Some(m)
            }
        }
        None => None,
    };

    match cd.orphans(manifest.as_ref()) {
        Ok(orphans) => {
            for path in orphans {
                if std::fs::remove_file(&path).is_ok() {
                    report.removed.push(path);
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }

    for image in images {
        if let Ok(bytes) = std::fs::read(image) {
            if sfcc_backend::image::from_bytes(&bytes).is_ok() {
                report.checked += 1;
            } else if let Some(dest) = sfcc_faultfs::quarantine(image) {
                report.quarantined.push(dest);
            }
        }
    }
    Ok(report)
}

fn decodes(logical: &str, bytes: Vec<u8>) -> bool {
    match logical {
        STATE_LOGICAL => statefile::from_bytes(&bytes).is_ok(),
        CACHE_LOGICAL => FunctionCache::from_bytes(&bytes).is_ok(),
        GRAPH_LOGICAL => GraphFile::from_bytes(bytes).is_ok(),
        // Unknown logicals (a newer version's artifacts): the manifest
        // checksum already verified the bytes.
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpbase(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfcc-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join(".sfcc-state")
    }

    fn cleanup(base: &Path) {
        fs::remove_dir_all(base.parent().unwrap()).unwrap();
    }

    #[test]
    fn save_load_roundtrip_via_manifest() {
        let base = tmpbase("roundtrip");
        let db = StateDb::new();
        let cache = FunctionCache::new();
        save(&base, Some(&db), Some(&cache), None, Durability::Fast).unwrap();
        let loaded = load(&base, true, true);
        assert!(loaded.events.is_empty());
        assert!(loaded.db_error.is_none());
        assert_eq!(loaded.db, db);
        cleanup(&base);
    }

    #[test]
    fn corrupt_manifest_is_quarantined_and_cold_starts() {
        let base = tmpbase("corrupt-manifest");
        save(&base, Some(&StateDb::new()), None, None, Durability::Fast).unwrap();
        let mpath = CommitDir::new(&base).manifest_path();
        fs::write(&mpath, b"not a manifest").unwrap();
        let loaded = load(&base, true, true);
        assert!(loaded.db_error.is_some());
        assert!(!mpath.exists());
        assert_eq!(loaded.events.len(), 1);
        cleanup(&base);
    }

    #[test]
    fn corrupt_entry_quarantines_only_that_logical() {
        let base = tmpbase("corrupt-entry");
        save(
            &base,
            Some(&StateDb::new()),
            Some(&FunctionCache::new()),
            None,
            Durability::Fast,
        )
        .unwrap();
        let cd = CommitDir::new(&base);
        let m = cd.read_manifest().unwrap().unwrap();
        let state_path = cd.entry_path(m.entry(STATE_LOGICAL).unwrap());
        fs::write(&state_path, b"garbage").unwrap();
        let loaded = load(&base, true, true);
        assert!(loaded.db_error.is_some(), "state cold-started");
        assert_eq!(loaded.events.len(), 1, "cache entry untouched");
        assert!(!state_path.exists());
        cleanup(&base);
    }

    fn sample_graph() -> GraphFile {
        GraphFile {
            identity: 7,
            keys: vec!["link".into()],
            nodes: vec![crate::depgraph::GraphNode {
                fingerprint: sfcc_codec::fnv64(&[1, 2, 3]),
                deps: Vec::new(),
                value: Some(vec![1, 2, 3].into()),
            }],
        }
    }

    #[test]
    fn graph_rides_the_same_manifest_and_is_carried_forward() {
        let base = tmpbase("graph");
        let graph = sample_graph();
        let db = StateDb::new();
        save(
            &base,
            Some(&db),
            None,
            Some(&graph.to_bytes()),
            Durability::Fast,
        )
        .unwrap();
        assert_eq!(load(&base, true, false).graph, Some(graph.clone()));
        // A commit without a graph keeps the committed one.
        save(&base, Some(&db), None, None, Durability::Fast).unwrap();
        let loaded = load(&base, true, false);
        assert_eq!(loaded.graph, Some(graph.clone()));
        assert!(loaded.events.is_empty());
        // Nothing else to commit: no graph-only manifest.
        let bare = tmpbase("graph-only");
        let committed = save(&bare, None, None, Some(&graph.to_bytes()), Durability::Fast);
        assert_eq!(committed.unwrap(), 0);
        assert!(!CommitDir::new(&bare).manifest_path().exists());
        cleanup(&base);
        cleanup(&bare);
    }

    #[test]
    fn undecodable_graph_is_quarantined_and_fsck_finds_it_too() {
        for by_fsck in [false, true] {
            let base = tmpbase("graph-junk");
            let mut bytes = sample_graph().to_bytes();
            bytes.pop();
            save(
                &base,
                Some(&StateDb::new()),
                None,
                Some(&bytes),
                Durability::Fast,
            )
            .unwrap();
            let cd = CommitDir::new(&base);
            let m = cd.read_manifest().unwrap().unwrap();
            let graph_path = cd.entry_path(m.entry(GRAPH_LOGICAL).unwrap());
            if by_fsck {
                let report = fsck(&base, &[]).unwrap();
                assert_eq!(report.quarantined.len(), 1);
                assert!(report.repaired_manifest);
                assert_eq!(report.checked, 1, "the state entry is healthy");
            } else {
                let loaded = load(&base, true, false);
                assert!(loaded.graph.is_none());
                assert!(loaded.db_error.is_none(), "the state is not collateral");
                assert_eq!(loaded.events.len(), 1);
                assert!(loaded.events[0].quarantined_to.is_some());
            }
            assert!(!graph_path.exists());
            cleanup(&base);
        }
    }

    #[test]
    fn peek_state_does_not_quarantine() {
        let base = tmpbase("peek");
        fs::write(&base, b"garbage").unwrap();
        assert!(peek_state(&base).is_err());
        assert!(base.exists(), "read-only inspection must not mutate");
        cleanup(&base);
    }

    #[test]
    fn fsck_repairs_a_damaged_directory() {
        let base = tmpbase("fsck");
        save(
            &base,
            Some(&StateDb::new()),
            Some(&FunctionCache::new()),
            None,
            Durability::Fast,
        )
        .unwrap();
        let cd = CommitDir::new(&base);
        let m = cd.read_manifest().unwrap().unwrap();
        // Corrupt the cache entry and drop an abandoned temp file.
        let cache_path = cd.entry_path(m.entry(CACHE_LOGICAL).unwrap());
        fs::write(&cache_path, b"zap").unwrap();
        let orphan = base.parent().unwrap().join(".sfcc-state.manifest.tmp.1.2");
        fs::write(&orphan, b"junk").unwrap();

        let report = fsck(&base, &[]).unwrap();
        assert!(!report.clean());
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.repaired_manifest);
        assert!(report.removed.iter().any(|p| p == &orphan));

        // The repaired directory loads cleanly and a re-check is clean.
        let loaded = load(&base, true, true);
        assert!(loaded.db_error.is_none());
        assert!(loaded.events.is_empty());
        assert!(fsck(&base, &[]).unwrap().clean());
        cleanup(&base);
    }
}
