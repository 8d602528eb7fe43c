//! The fault-injectable I/O layer.
//!
//! Every durable operation in the system goes through the wrappers here
//! ([`read`], [`read_range`], [`write()`], [`rename`], [`remove_file`], [`sync_file`],
//! [`sync_dir`], [`atomic_write`]). Each call is assigned a 1-based,
//! thread-local operation index; an installed [`FaultPlan`] is consulted at
//! every index and can fail the operation, tear a write, flip a bit on a
//! read, or "crash" the thread (all subsequent operations fail).
//!
//! Fault state is thread-local on purpose: all durable I/O in the compiler
//! happens on the thread that owns the `Compiler`/`Builder` (pool workers
//! never touch disk), so a plan installed by one test cannot perturb tests
//! running in parallel.

use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::plan::{Fault, FaultPlan};
use crate::Durability;

/// The kind of a durable I/O operation, as counted by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A read: of a whole file, or of a bounded range ([`read_range`]).
    Read,
    /// Whole-file write (of a temp or generation file).
    Write,
    /// Atomic rename (the commit point of [`atomic_write`]).
    Rename,
    /// File removal (GC of replaced generation files).
    Remove,
    /// `fsync` of a file (durable mode only).
    SyncFile,
    /// `fsync` of a directory (durable mode only).
    SyncDir,
}

impl OpKind {
    /// A short label for logs and harness output.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Rename => "rename",
            OpKind::Remove => "remove",
            OpKind::SyncFile => "sync-file",
            OpKind::SyncDir => "sync-dir",
        }
    }
}

/// Cumulative per-kind counts of durable operations on the current thread
/// (see [`op_counts`]). Unlike the 1-based fault-plan index, these are
/// *never reset* — not by [`install`], not by [`record`] — so telemetry
/// reads cannot perturb the op numbering existing fault plans rely on.
/// Callers wanting per-build figures snapshot before/after and subtract
/// ([`OpCounts::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Reads, whole-file and bounded.
    pub reads: u64,
    /// Whole-file writes.
    pub writes: u64,
    /// Atomic renames.
    pub renames: u64,
    /// File removals.
    pub removes: u64,
    /// File fsyncs.
    pub sync_files: u64,
    /// Directory fsyncs.
    pub sync_dirs: u64,
    /// Bytes handed to whole-file writes (of a torn write, the bytes it
    /// kept): what a commit costs the disk, not an operation kind.
    pub bytes_written: u64,
}

impl OpCounts {
    /// Total operations across all kinds.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.renames + self.removes + self.sync_files + self.sync_dirs
    }

    /// The counts by kind, named as reports print them.
    pub fn by_kind(&self) -> [(&'static str, u64); 6] {
        [
            ("reads", self.reads),
            ("writes", self.writes),
            ("renames", self.renames),
            ("removes", self.removes),
            ("sync_files", self.sync_files),
            ("sync_dirs", self.sync_dirs),
        ]
    }

    /// Per-kind difference `self − earlier` (saturating), for turning two
    /// cumulative snapshots into one interval's counts.
    pub fn delta_since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            renames: self.renames.saturating_sub(earlier.renames),
            removes: self.removes.saturating_sub(earlier.removes),
            sync_files: self.sync_files.saturating_sub(earlier.sync_files),
            sync_dirs: self.sync_dirs.saturating_sub(earlier.sync_dirs),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }

    fn bump(&mut self, kind: OpKind) {
        match kind {
            OpKind::Read => self.reads += 1,
            OpKind::Write => self.writes += 1,
            OpKind::Rename => self.renames += 1,
            OpKind::Remove => self.removes += 1,
            OpKind::SyncFile => self.sync_files += 1,
            OpKind::SyncDir => self.sync_dirs += 1,
        }
    }
}

/// The current thread's cumulative durable-operation counts (attempted
/// operations, including ones a fault plan failed).
pub fn op_counts() -> OpCounts {
    TL.with(|tl| tl.borrow().counts)
}

/// One recorded durable operation (see [`record`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The 1-based thread-local operation index.
    pub index: u64,
    /// What the operation was.
    pub kind: OpKind,
    /// The path it targeted.
    pub path: PathBuf,
    /// The query task active when the operation ran (see
    /// [`crate::task_scope`]), if any. Session-level I/O (state load/save,
    /// report writes) carries `None`.
    pub task: Option<String>,
}

struct TlState {
    plan: Option<FaultPlan>,
    /// Set once a `CrashAt`/`TornAt` fault fires: the simulated process is
    /// dead and every further operation fails.
    crashed: bool,
    /// Next operation index to hand out (1-based).
    next_op: u64,
    /// Number of rename operations seen so far (for `fail-rename`).
    renames: u64,
    /// One-shot faults that already fired (so `fail`/`enospc`/`fail-rename`
    /// are transient rather than sticky).
    fired: Vec<Fault>,
    log: Option<Vec<OpRecord>>,
    /// Lifetime per-kind op counters (never reset; see [`OpCounts`]).
    counts: OpCounts,
}

impl TlState {
    const fn new() -> Self {
        TlState {
            plan: None,
            crashed: false,
            next_op: 1,
            renames: 0,
            fired: Vec::new(),
            log: None,
            counts: OpCounts {
                reads: 0,
                writes: 0,
                renames: 0,
                removes: 0,
                sync_files: 0,
                sync_dirs: 0,
                bytes_written: 0,
            },
        }
    }
}

thread_local! {
    static TL: RefCell<TlState> = const { RefCell::new(TlState::new()) };
}

/// The payload of an injected [`io::Error`]; lets callers and tests
/// distinguish scripted faults from real filesystem errors.
#[derive(Debug)]
struct InjectedFault {
    op: u64,
    what: &'static str,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at op {}: {}", self.op, self.what)
    }
}

impl std::error::Error for InjectedFault {}

fn injected(op: u64, what: &'static str) -> io::Error {
    io::Error::other(InjectedFault { op, what })
}

/// Whether an [`io::Error`] was produced by the fault injector (as opposed
/// to a real filesystem failure).
pub fn is_injected(err: &io::Error) -> bool {
    err.get_ref()
        .map(|inner| inner.is::<InjectedFault>())
        .unwrap_or(false)
}

/// Installs a fault plan on the current thread, resetting the operation
/// counter to 1. Dropping the returned guard uninstalls the plan.
#[must_use = "the plan is uninstalled when the guard drops"]
pub fn install(plan: FaultPlan) -> FaultGuard {
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        tl.plan = Some(plan);
        tl.crashed = false;
        tl.next_op = 1;
        tl.renames = 0;
        tl.fired.clear();
    });
    FaultGuard { _priv: () }
}

/// Uninstalls the thread's fault plan on drop. Returned by [`install`].
#[derive(Debug)]
pub struct FaultGuard {
    _priv: (),
}

impl FaultGuard {
    /// The next operation index the injector will hand out on this thread —
    /// i.e. one past the number of operations performed since [`install`].
    pub fn ops_so_far(&self) -> u64 {
        TL.with(|tl| tl.borrow().next_op - 1)
    }

    /// Whether a crash fault has fired on this thread.
    pub fn crashed(&self) -> bool {
        TL.with(|tl| tl.borrow().crashed)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        TL.with(|tl| {
            let mut tl = tl.borrow_mut();
            tl.plan = None;
            tl.crashed = false;
            tl.fired.clear();
        });
    }
}

/// Starts recording every durable operation on the current thread (and
/// resets the operation counter to 1), so the crash harness can enumerate
/// injection points. Dropping the guard stops recording.
#[must_use = "recording stops when the guard drops"]
pub fn record() -> RecordGuard {
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        tl.next_op = 1;
        tl.renames = 0;
        tl.log = Some(Vec::new());
    });
    RecordGuard { _priv: () }
}

/// Stops recording on drop; [`RecordGuard::take`] returns the log.
/// Returned by [`record`].
#[derive(Debug)]
pub struct RecordGuard {
    _priv: (),
}

impl RecordGuard {
    /// Takes the operations recorded so far (leaving recording active with
    /// an empty log).
    pub fn take(&self) -> Vec<OpRecord> {
        TL.with(|tl| tl.borrow_mut().log.replace(Vec::new()).unwrap_or_default())
    }
}

impl Drop for RecordGuard {
    fn drop(&mut self) {
        TL.with(|tl| tl.borrow_mut().log = None);
    }
}

enum Action {
    Proceed,
    /// Persist only this many bytes of the write, then crash.
    Torn(usize),
    /// Flip this absolute bit of the read-back data.
    Flip(u64),
}

/// Counts the operation, records it if recording, and evaluates the
/// installed plan. `Err` means the operation must fail without touching the
/// filesystem; `Ok(action)` tells the wrapper how to proceed.
fn enter(kind: OpKind, path: &Path) -> io::Result<Action> {
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        let op = tl.next_op;
        tl.next_op += 1;
        tl.counts.bump(kind);
        if kind == OpKind::Rename {
            tl.renames += 1;
        }
        let renames = tl.renames;
        if tl.log.is_some() {
            let task = crate::attribute::active_task();
            if let Some(log) = tl.log.as_mut() {
                log.push(OpRecord {
                    index: op,
                    kind,
                    path: path.to_path_buf(),
                    task,
                });
            }
        }
        if tl.plan.is_none() {
            return Ok(Action::Proceed);
        }
        if tl.crashed {
            return Err(injected(op, "process crashed"));
        }
        let faults = tl
            .plan
            .as_ref()
            .map(|p| p.faults.clone())
            .unwrap_or_default();
        let mut action = Action::Proceed;
        for fault in faults {
            match fault {
                Fault::CrashAt(k) if op >= k => {
                    tl.crashed = true;
                    return Err(injected(op, "crash"));
                }
                Fault::TornAt { op: k, keep } if op == k => {
                    if kind == OpKind::Write {
                        tl.crashed = true;
                        action = Action::Torn(keep);
                    } else {
                        tl.crashed = true;
                        return Err(injected(op, "crash (torn on non-write)"));
                    }
                }
                Fault::FailAt(k) if op == k && !tl.fired.contains(&fault) => {
                    tl.fired.push(fault);
                    return Err(injected(op, "transient I/O failure"));
                }
                Fault::EnospcAt(k) if op == k && !tl.fired.contains(&fault) => {
                    tl.fired.push(fault);
                    #[cfg(unix)]
                    return Err(io::Error::from_raw_os_error(28));
                    #[cfg(not(unix))]
                    return Err(injected(op, "enospc"));
                }
                Fault::BitflipAt { op: k, bit } if op == k && kind == OpKind::Read => {
                    action = Action::Flip(bit);
                }
                Fault::FailRename(n)
                    if kind == OpKind::Rename && renames == n && !tl.fired.contains(&fault) =>
                {
                    tl.fired.push(fault);
                    return Err(injected(op, "rename failure"));
                }
                _ => {}
            }
        }
        Ok(action)
    })
}

/// Reads a whole file through the injector. A `bitflip` fault on this
/// operation corrupts one bit of the returned data.
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    let action = enter(OpKind::Read, path)?;
    let mut data = fs::read(path)?;
    if let Action::Flip(bit) = action {
        if !data.is_empty() {
            let byte = ((bit / 8) as usize) % data.len();
            data[byte] ^= 1 << (bit % 8) as u8;
        }
    }
    Ok(data)
}

/// Appends at most `len` bytes of a file, from byte `offset` on, to `buf`
/// through the injector: fewer at the end of the file. Returns how many.
/// Counted, recorded and faulted as a [`read`] is; a `bitflip` fault
/// corrupts one bit of what it appends.
pub fn read_range(path: &Path, offset: u64, len: u64, buf: &mut Vec<u8>) -> io::Result<usize> {
    use std::io::{Read, Seek, SeekFrom};
    let action = enter(OpKind::Read, path)?;
    let mut file = fs::File::open(path)?;
    let size = file.metadata()?.len();
    buf.reserve(len.min(size.saturating_sub(offset)) as usize);
    file.seek(SeekFrom::Start(offset))?;
    let start = buf.len();
    file.take(len).read_to_end(buf)?;
    let data = &mut buf[start..];
    if let Action::Flip(bit) = action {
        if !data.is_empty() {
            let byte = ((bit / 8) as usize) % data.len();
            data[byte] ^= 1 << (bit % 8) as u8;
        }
    }
    Ok(data.len())
}

/// Writes a whole file through the injector. A `torn` fault on this
/// operation persists only a prefix of `bytes` and then crashes the thread.
pub fn write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let (action, kept) = match enter(OpKind::Write, path)? {
        Action::Torn(keep) => (Action::Torn(keep), keep.min(bytes.len())),
        action => (action, bytes.len()),
    };
    TL.with(|tl| tl.borrow_mut().counts.bytes_written += kept as u64);
    fs::write(path, &bytes[..kept])?;
    match action {
        Action::Torn(_) => Err(injected(0, "torn write")),
        _ => Ok(()),
    }
}

/// Renames a file through the injector.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    enter(OpKind::Rename, from)?;
    fs::rename(from, to)
}

/// Removes a file through the injector.
pub fn remove_file(path: &Path) -> io::Result<()> {
    enter(OpKind::Remove, path)?;
    fs::remove_file(path)
}

/// `fsync`s a file through the injector.
pub fn sync_file(path: &Path) -> io::Result<()> {
    enter(OpKind::SyncFile, path)?;
    fs::File::open(path)?.sync_all()
}

/// `fsync`s a directory through the injector (a no-op error on platforms
/// where directories cannot be opened).
pub fn sync_dir(path: &Path) -> io::Result<()> {
    enter(OpKind::SyncDir, path)?;
    fs::File::open(path)?.sync_all()
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-globally unique sequence number, shared with temp-file naming.
/// Combined with the pid it makes durable file names collision-free across
/// racing builders, so a published file is never rewritten in place.
pub fn unique_seq() -> u64 {
    TMP_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// A temp-file path unique across threads *and* processes: the pid and a
/// process-global counter are embedded in the name, so two builders racing
/// on one state directory can never interleave torn writes on one temp.
fn unique_tmp(path: &Path) -> PathBuf {
    let seq = unique_seq();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    path.with_file_name(format!("{name}.tmp.{}.{seq}", std::process::id()))
}

/// Atomically replaces `path` with `bytes`: write a uniquely named temp
/// file, optionally sync it, rename it over `path`, optionally sync the
/// parent directory. A crash at any point leaves either the old or the new
/// contents at `path`, never a mixture.
///
/// Failed temp files are deliberately left behind (the thread may be
/// "crashed"); `minicc fsck` garbage-collects them.
pub fn atomic_write(path: &Path, bytes: &[u8], durability: Durability) -> io::Result<()> {
    let tmp = unique_tmp(path);
    write(&tmp, bytes)?;
    if durability == Durability::Durable {
        sync_file(&tmp)?;
    }
    rename(&tmp, path)?;
    if durability == Durability::Durable {
        sync_parent(path)?;
    }
    Ok(())
}

/// [`atomic_write`], unless `path` already holds exactly `bytes`: then the
/// file stays as it is — no temp file, no rename, the same inode — and
/// under [`Durability::Durable`] it and its directory are synced, so they
/// are as durable as the write would have left them. The comparison reads
/// outside the injector (it changes nothing).
///
/// # Errors
///
/// Propagates I/O failures of the write or the syncs.
pub fn atomic_write_if_changed(
    path: &Path,
    bytes: &[u8],
    durability: Durability,
) -> io::Result<()> {
    let held = fs::metadata(path).is_ok_and(|m| m.is_file() && m.len() == bytes.len() as u64)
        && fs::read(path).is_ok_and(|held| held == bytes);
    if !held {
        atomic_write(path, bytes, durability)
    } else if durability == Durability::Durable {
        sync_file(path)?;
        sync_parent(path)
    } else {
        Ok(())
    }
}

/// `fsync`s the directory holding `path`, when it names one.
fn sync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => sync_dir(parent),
        _ => Ok(()),
    }
}

/// Moves a detected-corrupt file aside to `<path>.corrupt`, best-effort and
/// *outside* the injector (quarantine is part of recovery, not a durable
/// write; it must not consume operation indices or fail under a crash
/// plan). If `<path>.corrupt` already holds earlier forensic debris, a
/// unique `<path>.corrupt.<seq>` destination is chosen instead — a repeat
/// corruption of the same logical file must never destroy the evidence of
/// the previous one. Returns the quarantine path if the rename succeeded.
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let name = path.file_name()?.to_string_lossy().into_owned();
    let mut dest = path.with_file_name(format!("{name}.corrupt"));
    while dest.exists() {
        dest = path.with_file_name(format!("{name}.corrupt.{}", unique_seq()));
    }
    fs::rename(path, &dest).ok()?;
    Some(dest)
}

/// Whether `name` is a quarantine destination produced by [`quarantine`]:
/// `<file>.corrupt` or `<file>.corrupt.<seq>`. Garbage collectors (`fsck`
/// orphan sweeps) must skip these — they are forensic evidence, not debris.
pub fn is_quarantine_name(name: &str) -> bool {
    match name.rsplit_once(".corrupt") {
        Some((prefix, tail)) => {
            !prefix.is_empty()
                && (tail.is_empty()
                    || tail.strip_prefix('.').is_some_and(|seq| {
                        !seq.is_empty() && seq.bytes().all(|b| b.is_ascii_digit())
                    }))
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfcc-inject-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A bounded read appends the range asked for, fewer bytes at the end
    /// of the file, and is one read op that a fault plan can flip.
    #[test]
    fn read_range_is_a_counted_bounded_read() {
        let dir = tmpdir("range");
        let p = dir.join("a");
        fs::write(&p, b"0123456789").unwrap();
        let before = op_counts();
        let mut buf = b"x".to_vec();
        assert_eq!(read_range(&p, 2, 3, &mut buf).unwrap(), 3);
        assert_eq!(read_range(&p, 8, 100, &mut buf).unwrap(), 2);
        assert_eq!(read_range(&p, 20, 4, &mut buf).unwrap(), 0);
        assert_eq!(buf, b"x23489");
        assert_eq!(op_counts().delta_since(&before).reads, 3);
        let _g = install(FaultPlan::single(Fault::BitflipAt { op: 1, bit: 0 }));
        let mut buf = Vec::new();
        read_range(&p, 0, 2, &mut buf).unwrap();
        assert_eq!(buf, b"11");
        drop(_g);
        let _g = install(FaultPlan::single(Fault::FailAt(1)));
        assert!(read_range(&p, 0, 2, &mut Vec::new()).is_err());
        drop(_g);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file that already holds the bytes keeps its inode and costs no
    /// write or rename — under `Durable`, a sync of it and its directory;
    /// any other content is replaced whole.
    #[test]
    fn write_if_changed_leaves_identical_bytes_alone() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmpdir("if-changed");
        let p = dir.join("a");
        atomic_write_if_changed(&p, b"image", Durability::Fast).unwrap();
        let inode = fs::metadata(&p).unwrap().ino();
        for durability in [Durability::Fast, Durability::Durable] {
            let before = op_counts();
            atomic_write_if_changed(&p, b"image", durability).unwrap();
            let ops = op_counts().delta_since(&before);
            assert_eq!(fs::metadata(&p).unwrap().ino(), inode);
            let synced = u64::from(durability == Durability::Durable) * 2;
            assert_eq!(ops.total(), synced, "{:?}", ops.by_kind());
        }
        for other in [&b"imagf"[..], b"ima", b"image, longer"] {
            atomic_write_if_changed(&p, other, Durability::Fast).unwrap();
            assert_eq!(fs::read(&p).unwrap(), other);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_fails_everything_from_k() {
        let dir = tmpdir("crash");
        let p = dir.join("a");
        let _g = install(FaultPlan::parse("crash-at:2").unwrap());
        write(&p, b"one").unwrap(); // op 1
        let err = write(&p, b"two").unwrap_err(); // op 2: crash
        assert!(is_injected(&err));
        let err = read(&p).unwrap_err(); // op 3: still dead
        assert!(is_injected(&err));
        drop(_g);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_keeps_prefix_then_crashes() {
        let dir = tmpdir("torn");
        let p = dir.join("a");
        let _g = install(FaultPlan::parse("torn:1:2").unwrap());
        let before = op_counts();
        assert!(write(&p, b"abcdef").is_err());
        assert_eq!(op_counts().delta_since(&before).bytes_written, 2);
        assert!(read(&p).is_err()); // thread is dead
        drop(_g);
        assert_eq!(fs::read(&p).unwrap(), b"ab");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_faults_fire_once() {
        let dir = tmpdir("transient");
        let p = dir.join("a");
        let _g = install(FaultPlan::parse("fail:1").unwrap());
        assert!(write(&p, b"x").is_err()); // op 1 fails once
        write(&p, b"x").unwrap(); // op 2 proceeds
        drop(_g);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_maps_to_raw_os_error() {
        let dir = tmpdir("enospc");
        let p = dir.join("a");
        let _g = install(FaultPlan::parse("enospc:1").unwrap());
        let err = write(&p, b"x").unwrap_err();
        #[cfg(unix)]
        assert_eq!(err.raw_os_error(), Some(28));
        #[cfg(not(unix))]
        assert!(is_injected(&err));
        drop(_g);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_corrupts_exactly_one_bit() {
        let dir = tmpdir("bitflip");
        let p = dir.join("a");
        fs::write(&p, b"\x00\x00\x00").unwrap();
        let _g = install(FaultPlan::parse("bitflip:1:9").unwrap());
        let data = read(&p).unwrap();
        drop(_g);
        assert_eq!(data, vec![0u8, 0b10, 0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_rename_counts_renames_only() {
        let dir = tmpdir("rename");
        let a = dir.join("a");
        let b = dir.join("b");
        fs::write(&a, b"x").unwrap();
        let _g = install(FaultPlan::parse("fail-rename:2").unwrap());
        write(&dir.join("pad"), b"p").unwrap(); // write op, not a rename
        rename(&a, &b).unwrap(); // rename #1
        fs::write(&a, b"y").unwrap();
        assert!(rename(&a, &b).is_err()); // rename #2 fails
        rename(&a, &b).unwrap(); // transient: rename #3 proceeds
        drop(_g);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_logs_atomic_write_ops() {
        let dir = tmpdir("record");
        let p = dir.join("a");
        let rec = record();
        atomic_write(&p, b"x", Durability::Fast).unwrap();
        let fast = rec.take();
        assert_eq!(
            fast.iter().map(|r| r.kind).collect::<Vec<_>>(),
            vec![OpKind::Write, OpKind::Rename]
        );
        atomic_write(&p, b"y", Durability::Durable).unwrap();
        let durable = rec.take();
        assert_eq!(
            durable.iter().map(|r| r.kind).collect::<Vec<_>>(),
            vec![
                OpKind::Write,
                OpKind::SyncFile,
                OpKind::Rename,
                OpKind::SyncDir
            ]
        );
        drop(rec);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn op_counts_accumulate_and_survive_install() {
        let dir = tmpdir("counts");
        let p = dir.join("a");
        let before = op_counts();
        atomic_write(&p, b"x", Durability::Durable).unwrap();
        let mid = op_counts().delta_since(&before);
        assert_eq!((mid.writes, mid.renames, mid.bytes_written), (1, 1, 1));
        assert_eq!((mid.sync_files, mid.sync_dirs), (1, 1));
        assert_eq!(mid.total(), 4);
        // install() resets the fault-plan op index but must NOT reset the
        // cumulative counters (telemetry reads cannot perturb plans).
        let guard = install(FaultPlan::parse("fail:1").unwrap());
        assert!(read(&p).is_err()); // op 1 fails, still counted
        read(&p).unwrap();
        drop(guard);
        let after = op_counts().delta_since(&before);
        assert_eq!(after.reads, 2);
        assert_eq!(after.total(), 6);
        assert_eq!(after.bytes_written, 1, "bytes are not an op");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_moves_file_aside() {
        let dir = tmpdir("quarantine");
        let p = dir.join("state");
        fs::write(&p, b"garbage").unwrap();
        let dest = quarantine(&p).unwrap();
        assert!(!p.exists());
        assert_eq!(dest, dir.join("state.corrupt"));
        assert_eq!(fs::read(&dest).unwrap(), b"garbage");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_quarantine_keeps_all_evidence() {
        let dir = tmpdir("quarantine-repeat");
        let p = dir.join("state");
        fs::write(&p, b"first corruption").unwrap();
        let first = quarantine(&p).unwrap();
        fs::write(&p, b"second corruption").unwrap();
        let second = quarantine(&p).unwrap();
        fs::write(&p, b"third corruption").unwrap();
        let third = quarantine(&p).unwrap();
        assert_eq!(first, dir.join("state.corrupt"));
        assert_ne!(second, first);
        assert_ne!(third, second);
        assert_eq!(fs::read(&first).unwrap(), b"first corruption");
        assert_eq!(fs::read(&second).unwrap(), b"second corruption");
        assert_eq!(fs::read(&third).unwrap(), b"third corruption");
        for dest in [&first, &second, &third] {
            let name = dest.file_name().unwrap().to_string_lossy();
            assert!(is_quarantine_name(&name), "{name}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_name_classification() {
        assert!(is_quarantine_name("state.corrupt"));
        assert!(is_quarantine_name("state.corrupt.7"));
        assert!(is_quarantine_name(
            ".sfcc-state.manifest.tmp.12.3.corrupt.41"
        ));
        assert!(!is_quarantine_name("state"));
        assert!(!is_quarantine_name("state.corrupted"));
        assert!(!is_quarantine_name("state.corrupt.bak"));
        assert!(!is_quarantine_name(".corrupt"));
    }

    #[test]
    fn op_records_carry_active_task() {
        let dir = tmpdir("op-task");
        let p = dir.join("a");
        let rec = record();
        write(&p, b"outside").unwrap();
        {
            let _task = crate::task_scope("link");
            write(&p, b"inside").unwrap();
        }
        let log = rec.take();
        assert_eq!(log[0].task, None);
        assert_eq!(log[1].task.as_deref(), Some("link"));
        drop(rec);
        fs::remove_dir_all(&dir).unwrap();
    }
}
