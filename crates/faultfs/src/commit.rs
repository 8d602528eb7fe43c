//! Multi-file atomic commit via a checksummed manifest.
//!
//! Several logical files ("state", "ircache") must move to their new
//! contents *together* — a crash that publishes a new state file against an
//! old cache would make cross-build invariants unverifiable. [`CommitDir`]
//! gives them a single commit point: each logical file is written as an
//! immutable generation file named `<base>.<logical>.g<gen>-<pid>-<seq>`,
//! and the set becomes visible only when the manifest (`<base>.manifest`)
//! is atomically renamed into place. The manifest records every entry's
//! length and FNV-64, so a stale or bit-flipped generation file is detected
//! on load and costs a cold start, never a wrong build.
//!
//! A logical file may also be a *chain*: a base entry `<logical>` plus
//! immutable segment entries `<logical>+1`, `<logical>+2`, … that a reader
//! folds onto it in order ([`Manifest::chain`]). A commit names the logical
//! `<logical>+` ([`next_segment`]) to add the next segment, and the logical itself
//! to write a new base, which drops the old chain's segments; the manifest
//! format, the single commit point and the carry-forward rule are the same
//! for both.
//!
//! Garbage collection is deliberately conservative: a commit deletes only
//! the generation files *it* replaced (the ones named by the manifest it
//! read). Temp files and generation files abandoned by crashed or foreign
//! builders are cleaned up by `minicc fsck` ([`CommitDir::fsck`]).

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use sfcc_codec::{fnv64, DecodeError, Writer};

use crate::inject;
use crate::Durability;

/// Magic bytes opening a commit manifest.
pub const MANIFEST_MAGIC: &[u8; 7] = b"SFCCMF\0";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// One logical file recorded by a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The logical name ("state", "ircache").
    pub logical: String,
    /// The generation file's name, relative to the base directory.
    pub file: String,
    /// Expected byte length of the generation file.
    pub len: u64,
    /// Expected FNV-64 of the generation file's contents.
    pub checksum: u64,
}

/// The committed set of logical files in a state directory; the default is
/// an empty directory's, generation 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit generation (increments on every commit).
    pub generation: u64,
    /// The committed entries, sorted by logical name.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Looks up an entry by logical name.
    pub fn entry(&self, logical: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.logical == logical)
    }

    /// The chain of `logical`: its base entry, then its segments in the
    /// order they were appended. Empty when there is no base.
    pub fn chain(&self, logical: &str) -> Vec<&ManifestEntry> {
        let Some(base) = self.entry(logical) else {
            return Vec::new();
        };
        let mut segments: Vec<(u64, &ManifestEntry)> = self
            .entries
            .iter()
            .filter_map(|e| Some((segment_number(&e.logical, logical)?, e)))
            .collect();
        segments.sort_unstable_by_key(|(n, _)| *n);
        std::iter::once(base)
            .chain(segments.into_iter().map(|(_, e)| e))
            .collect()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(MANIFEST_MAGIC);
        w.u32(MANIFEST_VERSION);
        w.u64(self.generation);
        w.usize(self.entries.len());
        for e in &self.entries {
            w.str(&e.logical);
            w.str(&e.file);
            w.u64(e.len);
            w.u64(e.checksum);
        }
        let body = w.into_bytes();
        let sum = fnv64(&body);
        let mut w = Writer::new();
        w.raw(&body);
        w.u64(sum);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = sfcc_codec::open(bytes, MANIFEST_MAGIC, MANIFEST_VERSION)?;
        let generation = r.u64()?;
        let count = r.count()?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(ManifestEntry {
                logical: r.str()?,
                file: r.str()?,
                len: r.u64()?,
                checksum: r.u64()?,
            });
        }
        // The trailer covers the header too: everything before it.
        let body_len = bytes.len() - r.remaining();
        let sum = r.u64()?;
        if sum != fnv64(&bytes[..body_len]) || !r.is_done() {
            return Err(DecodeError::Corrupt);
        }
        Ok(Manifest {
            generation,
            entries,
        })
    }
}

/// The logical a commit names to append the next segment to `logical`'s
/// chain (see [`Manifest::chain`]).
pub fn next_segment(logical: &str) -> String {
    format!("{logical}+")
}

/// The logical whose chain an entry named `entry` belongs to: `l` for `l`
/// and for its segments `l+<n>`.
pub fn chain_of(entry: &str) -> &str {
    match entry.rsplit_once('+') {
        Some((logical, _)) if segment_number(entry, logical).is_some() => logical,
        _ => entry,
    }
}

/// `n` when `entry` names segment `n` of `logical`'s chain (`<logical>+<n>`).
fn segment_number(entry: &str, logical: &str) -> Option<u64> {
    let n = entry.strip_prefix(logical)?.strip_prefix('+')?;
    if n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    n.parse().ok()
}

/// Why a manifest could not be read.
#[derive(Debug)]
pub enum ManifestError {
    /// The manifest file exists but does not decode: it is corrupt and
    /// should be quarantined.
    Corrupt(DecodeError),
    /// The manifest could not be read at all (permissions, injected crash,
    /// transient I/O). The file may be fine; do not quarantine.
    Io(io::Error),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Corrupt(e) => write!(f, "corrupt manifest: {e}"),
            ManifestError::Io(e) => write!(f, "manifest unreadable: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Why a committed entry could not be loaded.
#[derive(Debug)]
pub enum EntryError {
    /// The generation file's bytes do not match the manifest's recorded
    /// length/checksum (or failed to decode downstream): quarantine it.
    Corrupt(String),
    /// The generation file could not be read (missing, permissions,
    /// injected fault).
    Io(io::Error),
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::Corrupt(why) => write!(f, "corrupt entry: {why}"),
            EntryError::Io(e) => write!(f, "entry unreadable: {e}"),
        }
    }
}

impl std::error::Error for EntryError {}

/// The result of [`CommitDir::fsck`].
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Files whose contents were fully verified.
    pub checked: usize,
    /// Files found corrupt and moved to `<file>.corrupt`.
    pub quarantined: Vec<PathBuf>,
    /// Abandoned temp/generation files that were removed.
    pub removed: Vec<PathBuf>,
    /// Whether a manifest without the dropped chains was published.
    pub repaired_manifest: bool,
}

impl FsckReport {
    /// Whether the directory was fully healthy (nothing quarantined,
    /// removed, or repaired).
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty() && self.removed.is_empty() && !self.repaired_manifest
    }
}

/// A state directory's atomic commit protocol, anchored at a base path
/// (e.g. the configured state path `proj/.sfcc-state`). The manifest lives
/// at `<base>.manifest`; generation files live beside it.
#[derive(Debug, Clone)]
pub struct CommitDir {
    base: PathBuf,
}

impl CommitDir {
    /// Creates a commit view anchored at `base`.
    pub fn new(base: &Path) -> Self {
        CommitDir {
            base: base.to_path_buf(),
        }
    }

    /// The base path this commit view is anchored at.
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// The manifest's path: `<base>.manifest`.
    pub fn manifest_path(&self) -> PathBuf {
        let name = self.base_name();
        self.base.with_file_name(format!("{name}.manifest"))
    }

    fn base_name(&self) -> String {
        self.base
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "state".to_string())
    }

    fn dir(&self) -> PathBuf {
        self.base
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    }

    /// The absolute path of an entry's generation file.
    pub fn entry_path(&self, entry: &ManifestEntry) -> PathBuf {
        self.base.with_file_name(&entry.file)
    }

    /// Reads the current manifest. `Ok(None)` means no manifest exists (a
    /// fresh or legacy directory).
    ///
    /// # Errors
    ///
    /// [`ManifestError::Corrupt`] when the file exists but does not decode;
    /// [`ManifestError::Io`] when it cannot be read at all.
    pub fn read_manifest(&self) -> Result<Option<Manifest>, ManifestError> {
        let path = self.manifest_path();
        let bytes = match inject::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ManifestError::Io(e)),
        };
        Manifest::from_bytes(&bytes)
            .map(Some)
            .map_err(ManifestError::Corrupt)
    }

    /// One committed entry's bytes as they are on disk, *not* verified
    /// against the manifest: for a format that checks every byte itself as
    /// it decodes, which would otherwise hash them twice.
    ///
    /// # Errors
    ///
    /// Propagates the read failure.
    pub fn read_entry(&self, entry: &ManifestEntry) -> io::Result<Vec<u8>> {
        inject::read(&self.entry_path(entry))
    }

    /// Appends at most `len` bytes of one committed entry's file from byte
    /// `offset` on to `buf`, unverified ([`inject::read_range`]): fewer
    /// when the file ends first. Returns how many.
    ///
    /// # Errors
    ///
    /// Propagates the read failure.
    pub fn read_entry_range(
        &self,
        entry: &ManifestEntry,
        offset: u64,
        len: u64,
        buf: &mut Vec<u8>,
    ) -> io::Result<usize> {
        inject::read_range(&self.entry_path(entry), offset, len, buf)
    }

    /// Loads and verifies one committed entry's bytes against the
    /// manifest's recorded length and checksum.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] on length/checksum mismatch,
    /// [`EntryError::Io`] when the file cannot be read.
    pub fn load_entry(&self, entry: &ManifestEntry) -> Result<Vec<u8>, EntryError> {
        let bytes = self.read_entry(entry).map_err(EntryError::Io)?;
        if bytes.len() as u64 != entry.len {
            return Err(EntryError::Corrupt(format!(
                "length {} != recorded {}",
                bytes.len(),
                entry.len
            )));
        }
        let sum = fnv64(&bytes);
        if sum != entry.checksum {
            return Err(EntryError::Corrupt("checksum mismatch".to_string()));
        }
        Ok(bytes)
    }

    /// Atomically commits a new generation: writes each logical file as an
    /// immutable generation file, carries forward committed entries for
    /// logicals not in `files`, publishes the new manifest with a single
    /// rename, then garbage-collects only the generation files this commit
    /// replaced. A logical named [`next_segment`]`(l)` becomes the next segment
    /// of `l`'s chain; writing `l` itself starts a new chain, and the old
    /// one's segments are not carried forward.
    ///
    /// A crash at any operation leaves the directory logically all-old
    /// (manifest not yet renamed) or all-new (renamed; GC is non-semantic).
    ///
    /// # Errors
    ///
    /// Any I/O failure before the manifest rename aborts the commit with
    /// the old generation intact — reading the old manifest included: only
    /// a corrupt one counts as absent. A segment appended to a logical the
    /// manifest has no base for is refused
    /// ([`io::ErrorKind::InvalidInput`]) before anything is written.
    pub fn commit(&self, files: &[(&str, &[u8])], durability: Durability) -> io::Result<Manifest> {
        self.commit_inner(files, durability, true)
    }

    /// Like [`CommitDir::commit`], but never deletes the generation files
    /// this commit replaced. In a directory shared by concurrent *processes*
    /// the replaced-file GC is unsound: a racing committer may have read the
    /// old manifest and carried its entries forward, so its (later, winning)
    /// manifest would reference files this commit just deleted. Shared
    /// directories leave replaced generations as debris for fsck's orphan
    /// sweep instead.
    ///
    /// # Errors
    ///
    /// Any I/O failure before the manifest rename aborts the commit with
    /// the old generation intact.
    pub fn commit_shared(
        &self,
        files: &[(&str, &[u8])],
        durability: Durability,
    ) -> io::Result<Manifest> {
        self.commit_inner(files, durability, false)
    }

    fn commit_inner(
        &self,
        files: &[(&str, &[u8])],
        durability: Durability,
        gc_replaced: bool,
    ) -> io::Result<Manifest> {
        let old = match self.read_manifest() {
            Ok(old) => old,
            // A corrupt old manifest must not block a new commit: treat it
            // as absent (recovery already quarantined or will quarantine it).
            Err(ManifestError::Corrupt(_)) => None,
            // An unreadable one may be intact: committing over it would
            // drop every entry it carries and restart the generations.
            Err(ManifestError::Io(e)) => return Err(e),
        };
        let generation = old.as_ref().map(|m| m.generation + 1).unwrap_or(1);
        let base_name = self.base_name();
        let pid = std::process::id();

        let mut logicals = Vec::with_capacity(files.len());
        for (logical, _) in files {
            logicals.push(match logical.strip_suffix('+') {
                Some(chain) => {
                    let links = old.as_ref().map_or(0, |m| m.chain(chain).len());
                    if links == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("no committed `{chain}` to append a segment to"),
                        ));
                    }
                    let last = old.as_ref().and_then(|m| {
                        m.entries
                            .iter()
                            .filter_map(|e| segment_number(&e.logical, chain))
                            .max()
                    });
                    format!("{chain}+{}", last.unwrap_or(0) + 1)
                }
                None => (*logical).to_string(),
            });
        }
        let mut entries: Vec<ManifestEntry> = Vec::new();
        for (logical, (_, bytes)) in logicals.iter().zip(files) {
            // pid + process-global sequence keeps the name unique even when
            // racing builders commit the same generation number, so a
            // published file is never rewritten in place. It stays invisible
            // until the manifest references it.
            let file = format!(
                "{base_name}.{logical}.g{generation}-{pid}-{}",
                inject::unique_seq()
            );
            let path = self.base.with_file_name(&file);
            inject::write(&path, bytes)?;
            if durability == Durability::Durable {
                inject::sync_file(&path)?;
            }
            entries.push(ManifestEntry {
                logical: logical.clone(),
                file,
                len: bytes.len() as u64,
                checksum: fnv64(bytes),
            });
        }
        // Carry forward committed logicals this commit does not rewrite,
        // save the segments of a chain whose base it does.
        if let Some(old) = &old {
            let written: HashSet<&str> = logicals.iter().map(String::as_str).collect();
            for e in &old.entries {
                let rewritten =
                    written.contains(e.logical.as_str()) || written.contains(chain_of(&e.logical));
                if !rewritten {
                    entries.push(e.clone());
                }
            }
        }
        entries.sort_by(|a, b| a.logical.cmp(&b.logical));

        let manifest = Manifest {
            generation,
            entries,
        };
        inject::atomic_write(&self.manifest_path(), &manifest.to_bytes(), durability)?;

        // GC: delete only the entry files this commit replaced. Foreign or
        // abandoned generations are fsck's job — deleting them here could
        // race a concurrent builder whose manifest still references them.
        // (Skipped entirely for shared directories; see `commit_shared`.)
        if !gc_replaced {
            return Ok(manifest);
        }
        if let Some(old) = &old {
            for e in &old.entries {
                let replaced = manifest
                    .entry(&e.logical)
                    .map(|n| n.file != e.file)
                    .unwrap_or(true);
                if replaced {
                    let _ = inject::remove_file(&self.entry_path(e));
                }
            }
        }
        Ok(manifest)
    }

    /// Publishes a manifest referencing already-written generation files
    /// as-is (no data is rewritten). Used by `fsck` to drop quarantined
    /// entries from a manifest without touching the surviving generations.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from writing the manifest.
    pub fn publish(
        &self,
        generation: u64,
        mut entries: Vec<ManifestEntry>,
        durability: Durability,
    ) -> io::Result<Manifest> {
        entries.sort_by(|a, b| a.logical.cmp(&b.logical));
        let manifest = Manifest {
            generation,
            entries,
        };
        inject::atomic_write(&self.manifest_path(), &manifest.to_bytes(), durability)?;
        Ok(manifest)
    }

    /// Audits and repairs the directory, in this order: a corrupt manifest
    /// is quarantined (a quarantine, not a manifest repair: nothing is
    /// published in its place); each chain's links are loaded and checked
    /// against the manifest, then `verify(logical, links, bytes)` says
    /// whether the whole holds, naming the failing link's index when it
    /// does not; a failing link is quarantined and its chain dropped, as is
    /// a chain without its base (quarantining nothing); when a chain was
    /// dropped, the surviving ones are republished as the next generation;
    /// last, orphan files (see `CommitDir::orphans`) are removed through
    /// [`inject::remove_file`]. Nothing referenced is ever deleted:
    /// everything suspicious is moved aside.
    ///
    /// # Errors
    ///
    /// An unreadable manifest, an unreadable directory, a failed republish,
    /// and a failed removal of an orphan (save one already gone). Files
    /// that fail validation are repairs, not errors.
    pub fn fsck(
        &self,
        mut verify: impl FnMut(&str, &[&ManifestEntry], Vec<Vec<u8>>) -> Result<(), usize>,
    ) -> io::Result<FsckReport> {
        let mut report = FsckReport::default();
        let manifest = match self.read_manifest() {
            Ok(manifest) => manifest,
            Err(ManifestError::Corrupt(_)) => {
                report
                    .quarantined
                    .extend(inject::quarantine(&self.manifest_path()));
                None
            }
            Err(ManifestError::Io(e)) => return Err(e),
        };
        let manifest = match manifest {
            Some(m) => {
                let mut logicals: Vec<&str> =
                    m.entries.iter().map(|e| chain_of(&e.logical)).collect();
                logicals.sort_unstable();
                logicals.dedup();
                let mut survivors = Vec::new();
                for logical in logicals {
                    let links = m.chain(logical);
                    if links.is_empty() {
                        continue;
                    }
                    let verdict = links
                        .iter()
                        .enumerate()
                        .map(|(i, link)| self.load_entry(link).map_err(|_| i))
                        .collect::<Result<Vec<_>, usize>>()
                        .and_then(|bytes| verify(logical, &links, bytes));
                    match verdict {
                        Ok(()) => {
                            report.checked += links.len();
                            survivors.extend(links.into_iter().cloned());
                        }
                        Err(i) => report
                            .quarantined
                            .extend(inject::quarantine(&self.entry_path(links[i]))),
                    }
                }
                if survivors.len() == m.entries.len() {
                    Some(m)
                } else {
                    report.repaired_manifest = true;
                    Some(self.publish(m.generation + 1, survivors, Durability::Fast)?)
                }
            }
            None => None,
        };
        let orphans = match self.orphans(manifest.as_ref()) {
            Ok(orphans) => orphans,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        for path in orphans {
            match inject::remove_file(&path) {
                Ok(()) => report.removed.push(path),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Scans the base directory for files that belong to this base's commit
    /// protocol but are referenced by nothing: abandoned temp files and
    /// generation files not named by the current manifest. The manifest
    /// itself, quarantined `*.corrupt`/`*.corrupt.<seq>` files, and foreign
    /// files are never reported.
    fn orphans(&self, manifest: Option<&Manifest>) -> io::Result<Vec<PathBuf>> {
        let base_name = self.base_name();
        let manifest_name = format!("{base_name}.manifest");
        let mut out = Vec::new();
        for dirent in std::fs::read_dir(self.dir())? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if !name.starts_with(&base_name) {
                continue;
            }
            if name == base_name || name == manifest_name || inject::is_quarantine_name(&name) {
                continue;
            }
            let tail = &name[base_name.len()..];
            let is_tmp = tail.contains(".tmp.");
            let is_gen = is_generation_suffix(tail);
            if !is_tmp && !is_gen {
                continue;
            }
            let referenced = manifest
                .map(|m| m.entries.iter().any(|e| e.file == name))
                .unwrap_or(false);
            if !referenced {
                out.push(dirent.path());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Whether a file-name tail (after the base name) ends in a generation
/// suffix `.<logical>.g<digits>-<digits>-<digits>`.
fn is_generation_suffix(tail: &str) -> bool {
    let Some(idx) = tail.rfind(".g") else {
        return false;
    };
    let nums = &tail[idx + 2..];
    let mut parts = nums.split('-');
    let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    matches!(
        (parts.next(), parts.next(), parts.next(), parts.next()),
        (Some(a), Some(b), Some(c), None) if all_digits(a) && all_digits(b) && all_digits(c)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use std::fs;

    fn tmpbase(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfcc-commit-{tag}-{}-{:?}",
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
    fn commit_and_load_roundtrip() {
        let base = tmpbase("roundtrip");
        let cd = CommitDir::new(&base);
        assert!(cd.read_manifest().unwrap().is_none());
        let m = cd
            .commit(&[("state", b"S1"), ("ircache", b"C1")], Durability::Fast)
            .unwrap();
        assert_eq!(m.generation, 1);
        let read = cd.read_manifest().unwrap().unwrap();
        assert_eq!(read, m);
        assert_eq!(cd.load_entry(read.entry("state").unwrap()).unwrap(), b"S1");
        assert_eq!(
            cd.load_entry(read.entry("ircache").unwrap()).unwrap(),
            b"C1"
        );
        cleanup(&base);
    }

    #[test]
    fn second_commit_replaces_and_gcs() {
        let base = tmpbase("gc");
        let cd = CommitDir::new(&base);
        let m1 = cd.commit(&[("state", b"S1")], Durability::Fast).unwrap();
        let old_path = cd.entry_path(m1.entry("state").unwrap());
        let m2 = cd.commit(&[("state", b"S2")], Durability::Fast).unwrap();
        assert_eq!(m2.generation, 2);
        assert!(!old_path.exists(), "replaced generation must be GC'd");
        assert_eq!(cd.load_entry(m2.entry("state").unwrap()).unwrap(), b"S2");
        cleanup(&base);
    }

    #[test]
    fn unwritten_logical_is_carried_forward() {
        let base = tmpbase("carry");
        let cd = CommitDir::new(&base);
        cd.commit(&[("state", b"S1"), ("ircache", b"C1")], Durability::Fast)
            .unwrap();
        let m2 = cd.commit(&[("state", b"S2")], Durability::Fast).unwrap();
        assert_eq!(cd.load_entry(m2.entry("ircache").unwrap()).unwrap(), b"C1");
        assert_eq!(cd.load_entry(m2.entry("state").unwrap()).unwrap(), b"S2");
        cleanup(&base);
    }

    #[test]
    fn crash_before_manifest_rename_keeps_old_generation() {
        let base = tmpbase("crash");
        let cd = CommitDir::new(&base);
        cd.commit(&[("state", b"S1")], Durability::Fast).unwrap();
        // Ops in a fast commit: read manifest, write gen, write manifest
        // tmp, rename. Crash at the manifest tmp write (op 3).
        let g = crate::inject::install(FaultPlan::parse("crash-at:3").unwrap());
        assert!(cd.commit(&[("state", b"S2")], Durability::Fast).is_err());
        drop(g);
        let m = cd.read_manifest().unwrap().unwrap();
        assert_eq!(m.generation, 1);
        assert_eq!(cd.load_entry(m.entry("state").unwrap()).unwrap(), b"S1");
        cleanup(&base);
    }

    #[test]
    fn tampered_entry_is_detected() {
        let base = tmpbase("tamper");
        let cd = CommitDir::new(&base);
        let m = cd.commit(&[("state", b"S1")], Durability::Fast).unwrap();
        let e = m.entry("state").unwrap();
        fs::write(cd.entry_path(e), b"S!").unwrap();
        assert!(matches!(cd.load_entry(e), Err(EntryError::Corrupt(_))));
        cleanup(&base);
    }

    #[test]
    fn corrupt_manifest_is_reported_as_corrupt() {
        let base = tmpbase("badmf");
        let cd = CommitDir::new(&base);
        cd.commit(&[("state", b"S1")], Durability::Fast).unwrap();
        let mut bytes = fs::read(cd.manifest_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(cd.manifest_path(), &bytes).unwrap();
        assert!(matches!(cd.read_manifest(), Err(ManifestError::Corrupt(_))));
        cleanup(&base);
    }

    #[test]
    fn orphan_scan_finds_abandoned_files() {
        let base = tmpbase("orphans");
        let cd = CommitDir::new(&base);
        let m = cd.commit(&[("state", b"S1")], Durability::Fast).unwrap();
        let dir = base.parent().unwrap();
        let tmp = dir.join(".sfcc-state.manifest.tmp.999.0");
        let stale = dir.join(".sfcc-state.state.g9-999-0");
        let foreign = dir.join("unrelated.txt");
        let corrupt = dir.join(".sfcc-state.corrupt");
        // A quarantined temp (repeat corruption → .corrupt.<seq> suffix)
        // contains ".tmp." but must survive the sweep: it is evidence.
        let quarantined_tmp = dir.join(".sfcc-state.manifest.tmp.999.1.corrupt.7");
        for p in [&tmp, &stale, &foreign, &corrupt, &quarantined_tmp] {
            fs::write(p, b"x").unwrap();
        }
        let orphans = cd.orphans(Some(&m)).unwrap();
        assert!(orphans.contains(&tmp));
        assert!(orphans.contains(&stale));
        assert!(!orphans.contains(&foreign));
        assert!(!orphans.contains(&corrupt));
        assert!(!orphans.contains(&quarantined_tmp));
        let live = cd.entry_path(m.entry("state").unwrap());
        assert!(!orphans.contains(&live));
        cleanup(&base);
    }

    /// Segments append behind their base in order and are carried forward
    /// with it; a new base drops them, and the commit that does GCs their
    /// files.
    #[test]
    fn segments_chain_behind_their_base_until_a_new_base() {
        let base = tmpbase("chain");
        let cd = CommitDir::new(&base);
        cd.commit(&[("graph", b"B1"), ("state", b"S1")], Durability::Fast)
            .unwrap();
        let seg = next_segment("graph");
        for body in [b"s1", b"s2"] {
            cd.commit(&[(seg.as_str(), body)], Durability::Fast)
                .unwrap();
        }
        let m = cd
            .commit(&[(seg.as_str(), b"s3")], Durability::Fast)
            .unwrap();
        let chain: Vec<Vec<u8>> = m
            .chain("graph")
            .into_iter()
            .map(|e| cd.load_entry(e).unwrap())
            .collect();
        assert_eq!(chain, [&b"B1"[..], b"s1", b"s2", b"s3"]);
        assert_eq!(m.chain("graph")[3].logical, "graph+3");
        assert!(m.chain("state+1").is_empty() && m.chain("none").is_empty());
        let segment_files: Vec<PathBuf> = m.chain("graph")[1..]
            .iter()
            .map(|e| cd.entry_path(e))
            .collect();
        let m = cd.commit(&[("graph", b"B2")], Durability::Fast).unwrap();
        assert_eq!(m.chain("graph").len(), 1);
        assert_eq!(m.entries.len(), 2, "state carried, segments dropped");
        assert!(segment_files.iter().all(|p| !p.exists()));
        cleanup(&base);
    }

    /// A segment needs a base: without one the commit writes nothing.
    #[test]
    fn a_segment_without_a_base_is_refused_before_any_write() {
        let base = tmpbase("orphan-seg");
        let cd = CommitDir::new(&base);
        cd.commit(&[("state", b"S1")], Durability::Fast).unwrap();
        let before = crate::op_counts();
        let err = cd
            .commit(&[(next_segment("graph").as_str(), b"s1")], Durability::Fast)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(crate::op_counts().delta_since(&before).writes, 0);
        assert_eq!(cd.read_manifest().unwrap().unwrap().generation, 1);
        cleanup(&base);
    }

    /// An old manifest that cannot be *read* is not an absent one: the
    /// commit aborts, and the next one carries every entry forward with a
    /// monotonic generation. A corrupt one still counts as absent.
    #[test]
    fn an_unreadable_old_manifest_aborts_the_commit() {
        let base = tmpbase("mf-io");
        let cd = CommitDir::new(&base);
        cd.commit(&[("state", b"S1"), ("ircache", b"C1")], Durability::Fast)
            .unwrap();
        cd.commit(&[("state", b"S2")], Durability::Fast).unwrap();
        {
            // Op 1 of a commit is its read of the old manifest.
            let _g = crate::inject::install(FaultPlan::parse("fail:1").unwrap());
            assert!(cd.commit(&[("state", b"S3")], Durability::Fast).is_err());
        }
        let m = cd.read_manifest().unwrap().unwrap();
        assert_eq!(m.generation, 2);
        let m = cd.commit(&[("state", b"S3")], Durability::Fast).unwrap();
        assert_eq!(m.generation, 3);
        assert_eq!(cd.load_entry(m.entry("ircache").unwrap()).unwrap(), b"C1");
        fs::write(cd.manifest_path(), b"junk").unwrap();
        let m = cd.commit(&[("state", b"S4")], Durability::Fast).unwrap();
        assert_eq!((m.generation, m.entries.len()), (1, 1));
        cleanup(&base);
    }

    #[test]
    fn manifest_decode_never_panics_on_truncation() {
        let base = tmpbase("trunc");
        let cd = CommitDir::new(&base);
        cd.commit(&[("state", b"S1"), ("ircache", b"C1")], Durability::Fast)
            .unwrap();
        let bytes = fs::read(cd.manifest_path()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Manifest::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(Manifest::from_bytes(&bytes).is_ok());
        cleanup(&base);
    }
}
