//! Crash-safe persistence of a session's durable artifacts.
//!
//! The dormancy state, the function-IR cache and the query graph (whose
//! recorded `state:` stamps describe that very state, see
//! [`crate::depgraph`]) must move across sessions *together*: they are
//! published through one [`CommitDir`] manifest anchored at the configured
//! state path, so a crash at any I/O operation leaves the set logically
//! all-old or all-new (see `sfcc-faultfs`). A commit writes only the
//! artifacts that changed and carries the others forward; one with nothing
//! new publishes no manifest at all.
//!
//! The cache and the graph are *chains*: a base file plus the segments
//! later commits appended, each holding what changed since the commit
//! before it ([`Artifact::Segment`]). Loading folds a chain into exactly
//! the [`FunctionCache`] or [`GraphFile`] its base would be had every
//! commit rewritten it. Each segment names its parent's manifest checksum,
//! so a segment folded onto anything but the chain it was written against
//! does not decode. The state is small and moves as a whole file.
//!
//! A session reads what it uses: the manifest and the input section of the
//! graph chain's tip ([`read_section`]) when it opens, which is all a build
//! that changed nothing needs; the state ([`open_state`]), the graph's
//! structure ([`open_graph`], each value left unhashed until the build
//! first demands it) and the cache chain ([`open_cache`]) when first used.
//! [`load`] is the eager reference: it reads all of them, and also hashes
//! every graph value.
//!
//! Loading enforces the graceful-degradation contract: any manifest, state,
//! cache or graph file that is truncated, corrupt, or version-skewed is detected
//! (never read as valid), moved aside to `<file>.corrupt`, and the affected
//! artifact cold-starts. Every such decision is reported as a
//! [`RecoveryEvent`] so the build system can surface `recovered_files` /
//! `quarantined` counters. A directory without a manifest is a cold start.

use crate::depgraph::{section_span, GraphFile, InputSection, ValueBytes, GRAPH_LOGICAL};
use crate::fncache::FunctionCache;
use sfcc_faultfs::{
    next_segment, CommitDir, Durability, EntryError, FsckReport, Manifest, ManifestEntry,
    ManifestError,
};
use sfcc_state::{statefile, DecodeError, StateDb};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

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

/// A committed chain as the next commit sees it (see [`Manifest::chain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    /// The base file's length.
    pub base: u64,
    /// The segments' total length.
    pub segments: u64,
    /// How many segments follow the base.
    pub count: usize,
    /// The manifest checksum of the last link: the parent a next segment
    /// names.
    pub tip: u64,
}

impl Chain {
    /// `logical`'s chain in `manifest`, if it has a base.
    pub fn of(manifest: &Manifest, logical: &str) -> Option<Chain> {
        let links = manifest.chain(logical);
        let (base, segments) = links.split_first()?;
        Some(Chain {
            base: base.len,
            segments: segments.iter().map(|e| e.len).sum(),
            count: segments.len(),
            tip: links.last()?.checksum,
        })
    }

    /// The one compaction rule: whether a next segment of `len` bytes would
    /// make the segments outweigh the base. The commit then writes a new
    /// base instead.
    pub fn compacts(&self, len: usize) -> bool {
        self.segments + len as u64 > self.base
    }
}

/// What a commit writes for a chained artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Artifact {
    /// A whole file: a new chain, the old one's segments dropped.
    Base(Vec<u8>),
    /// The next segment of the committed chain.
    Segment(Vec<u8>),
}

/// The result of loading a session's persistent artifacts. The default is
/// what an empty directory loads as: everything cold, nothing to report.
#[derive(Debug, Default)]
pub struct LoadedState {
    /// The dormancy database (cold when absent or unrecoverable; a
    /// recovery event then names the file).
    pub db: StateDb,
    /// The function-IR cache, folded (cold when absent, unrecoverable, or
    /// not wanted).
    pub cache: FunctionCache,
    /// The committed cache chain `cache` was folded from (`None` when
    /// cold).
    pub cache_chain: Option<Chain>,
    /// The query graph the last commit recorded, every value checked
    /// (`None` when absent or unrecoverable: the build system starts from
    /// an empty store).
    pub graph: Option<GraphFile>,
    /// The chain `graph` was folded from.
    pub graph_chain: Option<Chain>,
    /// The files `graph`'s values are slices of.
    pub graph_links: GraphLinks,
    /// Every quarantine / fallback decision taken during the load.
    pub events: Vec<RecoveryEvent>,
    /// The generation of the manifest the artifacts were read from (`0`
    /// when there is none).
    pub generation: u64,
    /// The manifest's checksum of the state entry `db` was decoded from
    /// (`None` when the state was not loaded from one).
    pub state_checksum: Option<u64>,
    /// Bytes of committed files the load's reads returned: the state entry
    /// and every graph and cache link it read.
    pub bytes_read: u64,
}

/// The files a loaded graph's values are slices of, by path — what names
/// the file a value that fails its check came from. Holds no buffer alive.
#[derive(Debug, Clone, Default)]
pub struct GraphLinks(Vec<(PathBuf, Weak<Vec<u8>>)>);

impl GraphLinks {
    /// The file `value` was read from, if it is one of these.
    pub fn holding(&self, value: &ValueBytes) -> Option<&Path> {
        self.0
            .iter()
            .find(|(_, buffer)| value.lives_in(buffer))
            .map(|(path, _)| path.as_path())
    }

    /// The recovery event of the value of task `task` failing its check:
    /// the task re-executes, and the file is left alone — the rest of it
    /// holds.
    pub fn value_event(&self, task: &str, value: &ValueBytes) -> RecoveryEvent {
        RecoveryEvent {
            path: self
                .holding(value)
                .map(Path::to_path_buf)
                .unwrap_or_default(),
            quarantined_to: None,
            reason: format!("query graph value of `{task}` does not hash to its fingerprint"),
        }
    }
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

/// Why a chain did not fold: the failing link's index, and the failure.
type LinkError = (usize, EntryError);

/// The buffers a fold read, by link.
type Buffers = Vec<Arc<Vec<u8>>>;

/// Reads a chain's links through `read`.
fn read_links(
    links: &[&ManifestEntry],
    read: &mut impl FnMut(&ManifestEntry) -> Result<Vec<u8>, EntryError>,
) -> Result<Buffers, LinkError> {
    links
        .iter()
        .enumerate()
        .map(|(i, link)| read(link).map(Arc::new).map_err(|e| (i, e)))
        .collect()
}

/// The error of link `i` that does not decode.
fn corrupt(i: usize) -> impl Fn(DecodeError) -> LinkError {
    move |e| (i, EntryError::Corrupt(format!("does not decode: {e}")))
}

/// The link whose buffer `value` is a slice of.
fn link_of(buffers: &Buffers, value: &ValueBytes) -> usize {
    buffers.iter().position(|b| value.shares(b)).unwrap_or(0)
}

/// Folds the cache chain `buffers` (of `links`, at least the base).
fn fold_cache(links: &[&ManifestEntry], buffers: &Buffers) -> Result<FunctionCache, LinkError> {
    let mut cache = FunctionCache::decode(Arc::clone(&buffers[0])).map_err(corrupt(0))?;
    for i in 1..buffers.len() {
        cache
            .apply_segment(Arc::clone(&buffers[i]), links[i - 1].checksum)
            .map_err(corrupt(i))?;
    }
    Ok(cache)
}

/// The graph chain's base, decoded from `buffers[0]`, its values unchecked.
fn graph_base(buffers: &Buffers) -> Result<GraphFile, LinkError> {
    GraphFile::decode(Arc::clone(&buffers[0])).map_err(corrupt(0))
}

/// Folds the graph chain `buffers` (of `links`) onto its decoded `base`,
/// its values unchecked, and checks the input section it carries: the
/// tip's.
fn fold_graph(
    links: &[&ManifestEntry],
    buffers: &Buffers,
    base: GraphFile,
) -> Result<GraphFile, LinkError> {
    let segments = buffers[1..]
        .iter()
        .zip(links)
        .map(|(buffer, parent)| (Arc::clone(buffer), parent.checksum));
    let graph = base.fold(segments).map_err(|(i, e)| corrupt(i + 1)(e))?;
    graph.check_section().map_err(corrupt(buffers.len() - 1))?;
    Ok(graph)
}

/// `graph`, folded from `buffers`, once every value it kept hashes to its
/// node's fingerprint; else the link holding the first that does not.
fn checked(graph: GraphFile, buffers: &Buffers) -> Result<GraphFile, LinkError> {
    match graph.check_values() {
        Ok(()) => Ok(graph),
        Err(value) => {
            let why = "does not decode: a value is not what its fingerprint hashes".to_string();
            Err((link_of(buffers, value), EntryError::Corrupt(why)))
        }
    }
}

/// Reports a failed fold: the failing link quarantined when corrupt, left
/// alone when unreadable.
fn link_event(
    cd: &CommitDir,
    links: &[&ManifestEntry],
    (i, e): LinkError,
    what: &str,
    events: &mut Vec<RecoveryEvent>,
) {
    let path = cd.entry_path(links[i]);
    match e {
        EntryError::Corrupt(why) => quarantine_event(&path, format!("{what} {why}"), events),
        EntryError::Io(e) => io_event(&path, &e, events),
    }
}

/// Loads the artifacts anchored at `base`, applying the recovery contract,
/// eagerly: the manifest, the state (when `want_state`), the graph chain
/// folded and every graph value hashed against its node's fingerprint (a
/// graph holding one that does not is quarantined and cold-starts), and —
/// when `want_cache` — the cache chain folded ([`open_cache`]). Never
/// fails: any problem degrades the affected artifact to a cold start and is
/// reported in [`LoadedState::events`]. A session reads the same pieces
/// lazily: [`read_manifest`], [`read_section`], [`open_state`],
/// [`open_graph`] and [`open_cache`].
pub fn load(base: &Path, want_state: bool, want_cache: bool) -> LoadedState {
    let mut out = LoadedState::default();
    let Some(manifest) = read_manifest(base, &mut out.events) else {
        return out;
    };
    out.generation = manifest.generation;
    if let Some(entry) = manifest.entry(STATE_LOGICAL).filter(|_| want_state) {
        if let Some(db) = open_state(base, entry, &mut out.events, &mut out.bytes_read) {
            out.db = db;
            out.state_checksum = Some(entry.checksum);
        }
    }
    let links: Vec<ManifestEntry> = manifest.chain(GRAPH_LOGICAL).into_iter().cloned().collect();
    if !links.is_empty() {
        let opened = open_graph(
            base,
            &links,
            Vec::new(),
            &mut out.events,
            &mut out.bytes_read,
        );
        if let Some((graph, graph_links)) = opened {
            match graph.check_values() {
                Ok(()) => {
                    out.graph = Some(graph);
                    out.graph_chain = Chain::of(&manifest, GRAPH_LOGICAL);
                    out.graph_links = graph_links;
                }
                Err(value) => {
                    let path = graph_links
                        .holding(value)
                        .map_or_else(PathBuf::new, Path::to_path_buf);
                    let why =
                        "query graph does not decode: a value is not what its fingerprint hashes";
                    quarantine_event(&path, why.to_string(), &mut out.events);
                }
            }
        }
    }
    let links: Vec<ManifestEntry> = manifest.chain(CACHE_LOGICAL).into_iter().cloned().collect();
    if want_cache && !links.is_empty() {
        if let Some(cache) = open_cache(base, &links, &mut out.events, &mut out.bytes_read) {
            out.cache = cache;
            out.cache_chain = Chain::of(&manifest, CACHE_LOGICAL);
        }
    }
    out
}

/// Reads the manifest anchored at `base`: `None` when there is none, or
/// when it is unreadable — reported in `events`, and quarantined when it
/// does not decode. Everything then cold-starts.
pub fn read_manifest(base: &Path, events: &mut Vec<RecoveryEvent>) -> Option<Manifest> {
    let cd = CommitDir::new(base);
    match cd.read_manifest() {
        Ok(manifest) => manifest,
        Err(ManifestError::Corrupt(e)) => {
            let why = format!("manifest does not decode: {e}");
            quarantine_event(&cd.manifest_path(), why, events);
            None
        }
        Err(ManifestError::Io(e)) => {
            // The manifest may be fine (transient failure, injected crash):
            // cold-start this session but leave the file alone.
            io_event(&cd.manifest_path(), &e, events);
            None
        }
    }
}

/// The first bytes of a graph chain's tip a read of its input section
/// starts with: enough for the magic, the version and the section's length.
const SECTION_HEAD: u64 = 32;

/// Reads the input section the tip of the committed graph chain `links`
/// (base first) leads with, and nothing after it, in at most two bounded
/// reads on this thread, adding what they returned to `bytes_read`.
/// Returns the bytes of the tip read — [`open_graph`] does not read them
/// again — and the section, `None` when the tip has none, or it is
/// unreadable or does not decode: the session then opens the chain, whose
/// decode reports the damage.
pub fn read_section(
    base: &Path,
    links: &[ManifestEntry],
    bytes_read: &mut u64,
) -> (Vec<u8>, Option<InputSection>) {
    let Some(tip) = links.last() else {
        return (Vec::new(), None);
    };
    let cd = CommitDir::new(base);
    let segment = links.len() > 1;
    let mut head = Vec::new();
    let _ = cd.read_entry_range(tip, 0, SECTION_HEAD.min(tip.len), &mut head);
    let span = section_span(&head, segment).ok();
    if let Some(end) = span.as_ref().map(|span| span.end as u64) {
        let at = head.len() as u64;
        if end > at && end <= tip.len {
            let _ = cd.read_entry_range(tip, at, end - at, &mut head);
        }
    }
    *bytes_read += head.len() as u64;
    let section = span
        .and_then(|span| head.get(span))
        .filter(|section| !section.is_empty())
        .and_then(|section| InputSection::from_bytes(section).ok());
    (head, section)
}

/// Reads and decodes the committed state `entry` at `base`, verified
/// against the manifest, adding what the read returned to `bytes_read`.
/// `None` when it is unreadable or does not decode: reported in `events`,
/// a corrupt file quarantined.
pub fn open_state(
    base: &Path,
    entry: &ManifestEntry,
    events: &mut Vec<RecoveryEvent>,
    bytes_read: &mut u64,
) -> Option<StateDb> {
    let cd = CommitDir::new(base);
    let bytes = load_entry_bytes(&cd, entry, events)?;
    *bytes_read += bytes.len() as u64;
    match statefile::from_bytes(&bytes) {
        Ok(db) => Some(db),
        Err(e) => {
            let why = format!("state does not decode: {e}");
            quarantine_event(&cd.entry_path(entry), why, events);
            None
        }
    }
}

/// Reads the committed graph chain `links` (base first) at `base` and
/// folds it, structurally checked — header, input sections, trailer, key
/// table, fingerprints — with each value left a slice of its file,
/// unhashed, for the session to check when it first demands it; and the
/// files the values are slices of. `head` is what [`read_section`] read of
/// the tip: only the rest of the tip is read. Reads stay on this thread,
/// where a fault plan counts them; the base decodes on another while the
/// segments are read. What the reads returned, past `head`, is added to
/// `bytes_read` when the chain folds. `None` when a link is unreadable or
/// does not fold: reported in `events`, a corrupt link quarantined.
pub fn open_graph(
    base: &Path,
    links: &[ManifestEntry],
    head: Vec<u8>,
    events: &mut Vec<RecoveryEvent>,
    bytes_read: &mut u64,
) -> Option<(GraphFile, GraphLinks)> {
    let cd = CommitDir::new(base);
    let links: Vec<&ManifestEntry> = links.iter().collect();
    let tip = links.last()?.file.clone();
    let head_len = head.len() as u64;
    let mut head = Some(head).filter(|head| !head.is_empty());
    // The graph checks every byte but its values as it decodes (a trailer
    // over the rest), so it is read without hashing it for the manifest as
    // well.
    let mut read = |entry: &ManifestEntry| match head.take_if(|_| entry.file == tip) {
        Some(mut bytes) => {
            let at = bytes.len() as u64;
            let rest = cd.read_entry_range(entry, at, u64::MAX, &mut bytes);
            rest.map(|_| bytes).map_err(EntryError::Io)
        }
        None => cd.read_entry(entry).map_err(EntryError::Io),
    };
    let folded = std::thread::scope(|scope| {
        let mut buffers = read_links(&links[..1], &mut read)?;
        let base = Arc::clone(&buffers[0]);
        let base = scope.spawn(move || graph_base(&vec![base]));
        let segments = read_links(&links[1..], &mut read);
        buffers.extend(segments.map_err(|(i, e)| (i + 1, e))?);
        let base = base.join().expect("a graph decode does not panic")?;
        fold_graph(&links, &buffers, base).map(|graph| (graph, buffers))
    });
    match folded {
        Ok((graph, buffers)) => {
            *bytes_read += buffers.iter().map(|b| b.len() as u64).sum::<u64>() - head_len;
            let files = links.iter().zip(&buffers);
            let files = files.map(|(link, b)| (cd.entry_path(link), Arc::downgrade(b)));
            Some((graph, GraphLinks(files.collect())))
        }
        Err(e) => {
            link_event(&cd, &links, e, "query graph", events);
            None
        }
    }
}

/// Reads and folds the committed cache chain `links` (base first) at
/// `base` on this thread, where a fault plan counts the reads, adding what
/// the reads returned to `bytes_read`. The cache checks every byte it
/// keeps as it decodes (a trailer over the payload), so the links are not
/// hashed for the manifest as well. `None` when a link is unreadable or
/// does not decode: reported in `events`, a corrupt link quarantined.
pub fn open_cache(
    base: &Path,
    links: &[ManifestEntry],
    events: &mut Vec<RecoveryEvent>,
    bytes_read: &mut u64,
) -> Option<FunctionCache> {
    let cd = CommitDir::new(base);
    let links: Vec<&ManifestEntry> = links.iter().collect();
    let mut read = |entry: &ManifestEntry| cd.read_entry(entry).map_err(EntryError::Io);
    let folded = read_links(&links, &mut read).and_then(|buffers| {
        *bytes_read += buffers.iter().map(|b| b.len() as u64).sum::<u64>();
        fold_cache(&links, &buffers)
    });
    match folded {
        Ok(cache) => Some(cache),
        Err(e) => {
            link_event(&cd, &links, e, "cache", events);
            None
        }
    }
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

/// Commits the given artifacts — an encoded [`statefile`], a
/// [`FunctionCache`] and a [`GraphFile`] each as a base or a segment of the
/// committed chain — at `base` atomically: they become visible in one
/// manifest rename, and every artifact passed as `None` is carried forward
/// from the committed manifest. Returns the new manifest, `None` when all
/// three are `None`: nothing changed, and no manifest is published.
///
/// # Errors
///
/// Propagates I/O failures, and refuses a segment of a chain the manifest
/// does not hold; the previously committed generation stays intact on any
/// error.
pub fn save(
    base: &Path,
    state: Option<&[u8]>,
    cache: Option<&Artifact>,
    graph: Option<&Artifact>,
    durability: Durability,
) -> io::Result<Option<Manifest>> {
    fn chained<'a>(logical: &str, artifact: Option<&'a Artifact>) -> Option<(String, &'a [u8])> {
        artifact.map(|a| match a {
            Artifact::Base(bytes) => (logical.to_string(), bytes.as_slice()),
            Artifact::Segment(bytes) => (next_segment(logical), bytes.as_slice()),
        })
    }
    let files: Vec<(String, &[u8])> = [
        state.map(|bytes| (STATE_LOGICAL.to_string(), bytes)),
        chained(CACHE_LOGICAL, cache),
        chained(GRAPH_LOGICAL, graph),
    ]
    .into_iter()
    .flatten()
    .collect();
    if files.is_empty() {
        return Ok(None);
    }
    let files: Vec<(&str, &[u8])> = files.iter().map(|(l, b)| (l.as_str(), *b)).collect();
    CommitDir::new(base).commit(&files, durability).map(Some)
}

/// The bytes `logical` holds as committed at `base`, verified against the
/// manifest: the state file, or the cache or graph file its chain folds to
/// — what committing the artifact whole every time would have written.
/// `None` when the manifest has no such logical.
///
/// # Errors
///
/// An unreadable manifest or link, or one that does not decode.
pub fn committed_bytes(base: &Path, logical: &str) -> io::Result<Option<Vec<u8>>> {
    let cd = CommitDir::new(base);
    let manifest = cd.read_manifest().map_err(io::Error::other)?;
    let Some(manifest) = manifest else {
        return Ok(None);
    };
    let links = manifest.chain(logical);
    if links.is_empty() {
        return Ok(None);
    }
    let folded = read_links(&links, &mut |entry| cd.load_entry(entry)).and_then(|buffers| {
        Ok(match logical {
            CACHE_LOGICAL => fold_cache(&links, &buffers)?.to_bytes(),
            GRAPH_LOGICAL => checked(
                fold_graph(&links, &buffers, graph_base(&buffers)?)?,
                &buffers,
            )?
            .to_bytes(),
            _ => buffers[0].to_vec(),
        })
    });
    folded.map(Some).map_err(|(i, e)| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", links[i].file),
        )
    })
}

/// Read-only state lookup for inspection commands (`minicc state`):
/// manifest-aware, but never quarantines or mutates anything. `Ok(None)`
/// means no state is committed at `base`.
///
/// # Errors
///
/// Returns a description of the I/O or decode failure.
pub fn peek_state(base: &Path) -> Result<Option<StateDb>, String> {
    let cd = CommitDir::new(base);
    let manifest = cd.read_manifest().map_err(|e| e.to_string())?;
    let Some(entry) = manifest.as_ref().and_then(|m| m.entry(STATE_LOGICAL)) else {
        return Ok(None);
    };
    let bytes = cd.load_entry(entry).map_err(|e| e.to_string())?;
    statefile::from_bytes(&bytes)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Verifies and repairs the state directory at `base` through
/// [`CommitDir::fsck`] — every chain folded and fully decoded, each link
/// verified against the manifest — plus any program `images`, each
/// decoded and quarantined when it does not.
///
/// # Errors
///
/// Propagates I/O failures from scanning the directory, rewriting the
/// manifest or removing an orphan (individual file problems are repairs,
/// not errors).
pub fn fsck(base: &Path, images: &[PathBuf]) -> io::Result<FsckReport> {
    let mut report = CommitDir::new(base).fsck(verify)?;
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

/// Whether `logical`'s chain `links`, read as `bytes`, holds: the whole
/// decodes — every cache entry parsed (loading parses none), every graph
/// value checked. `Err` names the failing link.
fn verify(logical: &str, links: &[&ManifestEntry], bytes: Vec<Vec<u8>>) -> Result<(), usize> {
    let buffers: Buffers = bytes.into_iter().map(Arc::new).collect();
    let link = |(i, _): LinkError| i;
    match logical {
        CACHE_LOGICAL => match fold_cache(links, &buffers).map_err(link)?.unparsable() {
            None => Ok(()),
            Some(record) => Err(link_of(&buffers, &record)),
        },
        GRAPH_LOGICAL => {
            let base = graph_base(&buffers).map_err(link)?;
            let graph = fold_graph(links, &buffers, base).map_err(link)?;
            checked(graph, &buffers).map(|_| ()).map_err(link)
        }
        // The state has no segments.
        STATE_LOGICAL if links.len() > 1 => Err(1),
        STATE_LOGICAL => statefile::from_bytes(&buffers[0])
            .map(|_| ())
            .map_err(|_| 0),
        // Unknown logicals (a newer version's artifacts): the manifest
        // checksum verified the bytes.
        _ => Ok(()),
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

    fn empty_state() -> Vec<u8> {
        statefile::to_bytes(&StateDb::new())
    }

    fn empty_cache() -> Vec<u8> {
        FunctionCache::new().to_bytes()
    }

    #[test]
    fn save_load_roundtrip_via_manifest() {
        let base = tmpbase("roundtrip");
        let state = empty_state();
        save(
            &base,
            Some(&state),
            Some(&Artifact::Base(empty_cache())),
            None,
            Durability::Fast,
        )
        .unwrap();
        let loaded = load(&base, true, true);
        assert!(loaded.events.is_empty());
        assert_eq!(loaded.db, StateDb::new());
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.state_checksum, Some(sfcc_codec::fnv64(&state)));
        cleanup(&base);
    }

    #[test]
    fn corrupt_manifest_is_quarantined_and_cold_starts() {
        let base = tmpbase("corrupt-manifest");
        save(&base, Some(&empty_state()), None, None, Durability::Fast).unwrap();
        let mpath = CommitDir::new(&base).manifest_path();
        fs::write(&mpath, b"not a manifest").unwrap();
        let loaded = load(&base, true, true);
        assert_eq!(loaded.events.len(), 1);
        assert_eq!(loaded.events[0].path, mpath);
        assert!(!mpath.exists());
        assert!(loaded.state_checksum.is_none(), "state cold-started");
        cleanup(&base);
    }

    #[test]
    fn corrupt_entry_quarantines_only_that_logical() {
        let base = tmpbase("corrupt-entry");
        save(
            &base,
            Some(&empty_state()),
            Some(&Artifact::Base(empty_cache())),
            None,
            Durability::Fast,
        )
        .unwrap();
        let cd = CommitDir::new(&base);
        let m = cd.read_manifest().unwrap().unwrap();
        let state_path = cd.entry_path(m.entry(STATE_LOGICAL).unwrap());
        fs::write(&state_path, b"garbage").unwrap();
        let loaded = load(&base, true, true);
        assert_eq!(loaded.events.len(), 1, "cache entry untouched");
        assert_eq!(loaded.events[0].path, state_path, "state cold-started");
        assert!(loaded.state_checksum.is_none());
        assert!(!state_path.exists());
        cleanup(&base);
    }

    fn sample_graph() -> GraphFile {
        GraphFile {
            keys: vec!["link".into()],
            nodes: vec![crate::depgraph::GraphNode {
                fingerprint: sfcc_codec::fnv64(&[1, 2, 3]),
                deps: Vec::new(),
                value: Some(vec![1, 2, 3].into()),
            }],
            section: Vec::new(),
        }
    }

    #[test]
    fn graph_rides_the_same_manifest_and_is_carried_forward() {
        let base = tmpbase("graph");
        let graph = sample_graph();
        let state = empty_state();
        let committed = save(
            &base,
            Some(&state),
            None,
            Some(&Artifact::Base(graph.to_bytes())),
            Durability::Fast,
        );
        assert_eq!(committed.unwrap().map(|m| m.generation), Some(1));
        assert_eq!(load(&base, true, false).graph, Some(graph.clone()));
        // A commit without a graph keeps the committed one.
        save(&base, Some(&state), None, None, Durability::Fast).unwrap();
        let loaded = load(&base, true, false);
        assert_eq!(loaded.graph, Some(graph.clone()));
        assert!(loaded.events.is_empty());
        // A graph-only commit keeps the committed state.
        let newer = GraphFile {
            keys: vec!["link(newer)".into()],
            ..graph
        };
        let committed = save(
            &base,
            None,
            None,
            Some(&Artifact::Base(newer.to_bytes())),
            Durability::Fast,
        );
        assert_eq!(committed.unwrap().map(|m| m.generation), Some(3));
        let loaded = load(&base, true, false);
        assert_eq!(
            (loaded.graph, loaded.state_checksum),
            (Some(newer), Some(sfcc_codec::fnv64(&state)))
        );
        // Nothing to commit: no manifest is published.
        let manifest = fs::read(CommitDir::new(&base).manifest_path()).unwrap();
        assert!(save(&base, None, None, None, Durability::Fast)
            .unwrap()
            .is_none());
        assert_eq!(
            fs::read(CommitDir::new(&base).manifest_path()).unwrap(),
            manifest
        );
        assert_eq!(load(&base, true, false).generation, 3);
        cleanup(&base);
    }

    #[test]
    fn undecodable_graph_is_quarantined_and_fsck_finds_it_too() {
        for by_fsck in [false, true] {
            let base = tmpbase("graph-junk");
            let mut bytes = sample_graph().to_bytes();
            bytes.pop();
            save(
                &base,
                Some(&empty_state()),
                None,
                Some(&Artifact::Base(bytes)),
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
                assert!(
                    loaded.state_checksum.is_some(),
                    "the state is not collateral"
                );
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
        let manifest = CommitDir::new(&base).manifest_path();
        fs::write(&manifest, b"garbage").unwrap();
        assert!(peek_state(&base).is_err());
        assert!(manifest.exists(), "read-only inspection must not mutate");
        cleanup(&base);
    }

    #[test]
    fn fsck_repairs_a_damaged_directory() {
        let base = tmpbase("fsck");
        save(
            &base,
            Some(&empty_state()),
            Some(&Artifact::Base(empty_cache())),
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
        assert!(loaded.events.is_empty());
        let ops = {
            let recorder = sfcc_faultfs::record();
            assert!(fsck(&base, &[]).unwrap().clean());
            recorder.take().len()
        };

        // An orphan is removed through the fault-injectable layer, and a
        // removal that fails is the audit's error.
        fs::write(&orphan, b"junk").unwrap();
        {
            let plan = sfcc_faultfs::FaultPlan::parse(&format!("fail:{}", ops + 1)).unwrap();
            let _fault = sfcc_faultfs::install(plan);
            assert!(fsck(&base, &[]).is_err());
        }
        assert!(orphan.exists());
        assert_eq!(fsck(&base, &[]).unwrap().removed, [orphan]);
        cleanup(&base);
    }
}
