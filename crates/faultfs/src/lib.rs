//! # sfcc-faultfs
//!
//! The crash-safety substrate of the stateful compiler. Everything the
//! system persists across builds — the dormancy state file, the function-IR
//! cache, program images — must obey one invariant: **a torn, truncated, or
//! corrupt file may cost a cold start, never a wrong build**. This crate
//! provides the two pieces that make the invariant testable and true:
//!
//! * a **fault-injectable I/O layer** ([`read`], [`write`], [`rename`],
//!   [`atomic_write`], …): every durable operation is counted, optionally
//!   recorded ([`record`]), and can be made to fail deterministically by an
//!   installed [`FaultPlan`] (crash after the K-th op, torn write, bit-flip
//!   on read-back, one-shot ENOSPC, rename failure). Fault state is
//!   **thread-local**: a plan installed by a test faults only that test's
//!   thread, so the crash-point harness can enumerate injection points while
//!   other tests run undisturbed.
//! * a **multi-file atomic commit protocol** ([`CommitDir`]): logical files
//!   ("state", "ircache") are written as immutable generation files and
//!   published by atomically renaming a checksummed manifest. A crash at
//!   *any* I/O operation leaves the directory logically either fully-old or
//!   fully-new — there is exactly one commit point — which is what lets the
//!   crash-consistency matrix assert byte-identical recovery.
//!
//! A third piece supports the dependency-soundness checker: **task
//! attribution** ([`task_scope`], [`active_task`], [`AccessRecord`]).
//! Recorded operations, and the logical-resource accesses an auditing build
//! logs for itself, are tagged with the query task active on the calling
//! thread, so `minicc depcheck` can diff a build's actual accesses against
//! the query engine's declared dependencies with task-level provenance.
//!
//! Temp and generation file names embed the pid and a process-global
//! counter, so concurrent builders sharing a state directory can never
//! interleave torn writes on one temp file.
//!
//! # Example
//!
//! ```
//! use sfcc_faultfs::{self as ffs, Durability, FaultPlan};
//!
//! let dir = std::env::temp_dir().join(format!("ffs-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("data.bin");
//!
//! // A clean atomic write succeeds and is readable.
//! ffs::atomic_write(&path, b"payload", Durability::Fast).unwrap();
//! assert_eq!(ffs::read(&path).unwrap(), b"payload");
//!
//! // Under a crash plan the write fails — and the old contents survive.
//! let guard = ffs::install(FaultPlan::parse("crash-at:1").unwrap());
//! assert!(ffs::atomic_write(&path, b"new", Durability::Fast).is_err());
//! drop(guard);
//! assert_eq!(ffs::read(&path).unwrap(), b"payload");
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod attribute;
pub mod commit;
pub mod inject;
pub mod plan;

pub use attribute::{active_task, task_scope, AccessRecord, TaskGuard};
pub use commit::{CommitDir, EntryError, Manifest, ManifestEntry, ManifestError};
pub use inject::{
    atomic_write, install, is_injected, is_quarantine_name, op_counts, quarantine, read, record,
    remove_file, rename, sync_dir, sync_file, unique_seq, write, FaultGuard, OpCounts, OpKind,
    OpRecord, RecordGuard,
};
pub use plan::{Fault, FaultPlan, PlanError};

/// How hard an atomic write tries to be durable against power loss.
///
/// Both modes are *crash-consistent* (the destination is replaced by a
/// single rename of a fully written temp file); `Durable` additionally
/// `fsync`s the data before the rename and the parent directory after it,
/// so the committed bytes survive an OS-level crash, not just a process
/// kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Durability {
    /// Write + rename, no sync points. Crash-consistent against process
    /// death; the page cache is trusted to reach disk eventually.
    #[default]
    Fast,
    /// Sync the temp file before the rename and the parent directory after
    /// it.
    Durable,
}

impl Durability {
    /// A short label for reports and CLI parsing.
    pub fn label(self) -> &'static str {
        match self {
            Durability::Fast => "fast",
            Durability::Durable => "durable",
        }
    }
}
