//! Content-addressed shared artifact store (`sfcc-cas`).
//!
//! The function cache ([`sfcc` fncache]) keeps one project's optimized
//! function bodies keyed on context fingerprints. This crate generalizes
//! that store so *distinct projects, builders, and (eventually) machines*
//! can share artifacts: every artifact is filed under a key derived from
//! the **full compiler identity**, not just the function's content:
//!
//! ```text
//! key = H(fn context fingerprint, pass-pipeline hash,
//!         compiler flag digest,   backend format version)
//! ```
//!
//! Omitting any component reintroduces the classic incremental-build lie —
//! a config change silently served stale code ("The Devil Is in the
//! Command Line") — so each component is independently droppable *only*
//! through the adversarial test hook ([`CasStore::set_key_drops`]), which
//! exists precisely so tests can prove every component is load-bearing.
//!
//! # Soundness invariants
//!
//! - **Hit ⇒ byte-identical.** A lookup returns a function only if the
//!   stored bytes pass checksum + armor validation and (in honest mode)
//!   the embedded provenance key matches the key looked up. Anything else
//!   is quarantined and treated as a miss — a corrupt or evicted entry can
//!   cost a recompile, never a wrong build.
//! - **Crash-safe.** All durable I/O goes through `sfcc-faultfs` and the
//!   directory backend publishes through the [`CommitDir`] manifest
//!   discipline: a crash at any operation leaves the store logically
//!   all-old or all-new, and `fsck` reclaims debris.
//! - **Auditable.** Every artifact embeds a full [`Provenance`] record
//!   (key, components, and their human-readable reprs) so [`fsck`] can
//!   re-derive the key and verify the filing, and so a consumer can detect
//!   that a served artifact was produced under a different identity (the
//!   depcheck stale-serve oracle builds on this).
//! - **Attributed.** Store I/O runs under the dedicated
//!   [`CAS_TASK_LABEL`] task scope, giving depcheck a channel to separate
//!   tracked store traffic from rogue ad-hoc I/O inside build tasks.
//!
//! # Concurrency
//!
//! Handles are `&self`-shareable (interior mutexes + atomic counters).
//! Cross-process safety comes entirely from the backend's publish
//! discipline: racing publishers can lose entries to each other (the loser
//! re-publishes or re-misses later — a lost update, never corruption), and
//! a reader holding a stale manifest view simply misses.

use sfcc_codec::{fnv64, DecodeError, Reader, Writer};
use sfcc_faultfs::{self as ffs, CommitDir, Durability, EntryError, Manifest, ManifestError};
use sfcc_ir::{Fingerprint, Function};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every serialized artifact.
pub const ARTIFACT_MAGIC: &[u8; 7] = b"SFCCAR\0";
/// Current artifact format version.
pub const ARTIFACT_VERSION: u32 = 1;
/// The backend (object/IR) format version baked into every key. Bump when
/// the optimized-IR encoding changes meaning; tests override it via
/// [`KeyComponents`] to prove the component is load-bearing.
pub const DEFAULT_BACKEND_VERSION: u32 = 1;
/// Task label every store operation runs under ([`ffs::task_scope`]), so
/// depcheck can tell tracked store traffic from rogue task I/O.
pub const CAS_TASK_LABEL: &str = "cas";
/// The named key components, in derivation order. [`CasStore::set_key_drops`]
/// accepts exactly these names.
pub const KEY_COMPONENTS: [&str; 4] = ["fn", "pipeline", "flags", "backend"];

/// File name of the store's commit base inside the store directory.
pub const CAS_BASE: &str = ".sfcc-cas";
/// Logical name of the recency (LRU) sidecar entry in the manifest.
const LRU_LOGICAL: &str = "lru";

/// The session-constant half of every key this store derives: everything
/// about the compiler's identity except the per-function fingerprint.
#[derive(Debug, Clone)]
pub struct KeyComponents {
    /// Hash of the pass pipeline's slot names.
    pub pipeline: Fingerprint,
    /// Digest of the semantically relevant compiler flags (mode, opt
    /// level, verification) — see [`KeyComponents::flag_repr`].
    pub flags: u64,
    /// Backend format version ([`DEFAULT_BACKEND_VERSION`] normally).
    pub backend: u32,
    /// Human-readable rendering of the flag set, embedded in provenance
    /// records so `fsck` output and audits stay legible.
    pub flag_repr: String,
    /// Human-readable rendering of the pipeline (slot names), embedded in
    /// provenance records.
    pub pipeline_repr: String,
}

/// The provenance record embedded in every artifact: the full key, each
/// component it was derived from, and their readable reprs. [`fsck`]
/// re-derives the key from the components and checks both the embedded
/// digest and the manifest filing against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The full (honest, no components dropped) key digest.
    pub key: Fingerprint,
    /// The function's context fingerprint.
    pub fn_ctx: Fingerprint,
    /// The pipeline hash component.
    pub pipeline: Fingerprint,
    /// The compiler flag digest component.
    pub flags: u64,
    /// The backend format version component.
    pub backend: u32,
    /// Readable flag rendering (audit output).
    pub flag_repr: String,
    /// Readable pipeline rendering (audit output).
    pub pipeline_repr: String,
}

/// One stored artifact: provenance plus the optimized function in
/// canonical IR text (the printer/parser round-trip is exact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Who produced this and under what identity.
    pub provenance: Provenance,
    /// The function's name.
    pub name: String,
    /// The optimized body, canonical IR text.
    pub ir_text: String,
}

impl Artifact {
    /// Serializes the artifact behind magic/version/checksum armor.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.u128(self.provenance.key.0);
        payload.u128(self.provenance.fn_ctx.0);
        payload.u128(self.provenance.pipeline.0);
        payload.u64(self.provenance.flags);
        payload.u32(self.provenance.backend);
        payload.str(&self.provenance.flag_repr);
        payload.str(&self.provenance.pipeline_repr);
        payload.str(&self.name);
        payload.str(&self.ir_text);
        let payload = payload.into_bytes();
        let mut out = Writer::new();
        out.raw(ARTIFACT_MAGIC);
        out.u32(ARTIFACT_VERSION);
        out.raw(&payload);
        out.u64(fnv64(&payload));
        out.into_bytes()
    }

    /// Deserializes an artifact; any malformed input fails (callers treat
    /// that as corruption and quarantine).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, version-skewed, or
    /// bit-flipped input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < ARTIFACT_MAGIC.len() || &bytes[..ARTIFACT_MAGIC.len()] != ARTIFACT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let mut r = Reader::new(&bytes[ARTIFACT_MAGIC.len()..]);
        let version = r.u32()?;
        if version != ARTIFACT_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let payload_start = bytes.len() - r.remaining();
        let art = Artifact {
            provenance: Provenance {
                key: Fingerprint(r.u128()?),
                fn_ctx: Fingerprint(r.u128()?),
                pipeline: Fingerprint(r.u128()?),
                flags: r.u64()?,
                backend: r.u32()?,
                flag_repr: r.str()?,
                pipeline_repr: r.str()?,
            },
            name: r.str()?,
            ir_text: r.str()?,
        };
        let payload_end = bytes.len() - r.remaining();
        let declared = r.u64()?;
        if !r.is_done() || fnv64(&bytes[payload_start..payload_end]) != declared {
            return Err(DecodeError::Corrupt);
        }
        Ok(art)
    }
}

/// The manifest's logical name for a key digest.
pub fn logical_name(key: Fingerprint) -> String {
    format!("a{:032x}", key.0)
}

/// Counters of one [`CasStore`] handle (per-handle, not per-directory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CasStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries this handle evicted under the size budget.
    pub evictions: u64,
    /// Artifacts this handle published.
    pub publishes: u64,
    /// Publish batches that failed with an I/O error (the store degrades
    /// to a miss, it never fails the build).
    pub publish_errors: u64,
    /// Artifact bytes read on hits.
    pub bytes_read: u64,
    /// Artifact bytes written by publishes.
    pub bytes_written: u64,
    /// Artifacts currently published (backend view).
    pub entries: u64,
    /// Total artifact bytes currently published (backend view).
    pub bytes: u64,
}

/// The stamps recorded for one served function, for the depcheck audit:
/// what provenance the artifact *claimed* vs. what an honest key
/// derivation demands right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedStamps {
    /// Folded digest of the served artifact's embedded provenance key.
    pub served: u64,
    /// Folded digest of the honest (no components dropped) key.
    pub honest: u64,
}

/// Storage backend of a [`CasStore`]: where published artifacts live and
/// how they become visible. The local [`DirBackend`] is the only
/// implementation today; a remote backend slots in behind the same trait.
///
/// Implementations must publish atomically (all-or-nothing visibility),
/// verify content on load (returning `None` — never wrong bytes — for
/// anything that fails validation), and route every durable operation
/// through `sfcc-faultfs` so crash/fault injection and task attribution
/// apply.
pub trait CasBackend: fmt::Debug + Send + Sync {
    /// A short human-readable identifier (e.g. the directory path).
    fn describe(&self) -> String;
    /// Currently published artifacts as `(logical name, byte length)`,
    /// internal sidecars excluded.
    fn entries(&self) -> Vec<(String, u64)>;
    /// Loads one published artifact's bytes, verified against the
    /// publish-time checksum; `None` on absence or any validation failure
    /// (corrupt entries are quarantined as a side effect). Marks the entry
    /// recently used.
    fn load(&self, logical: &str) -> Option<Vec<u8>>;
    /// Moves a published entry aside as corrupt (store-level validation
    /// failed after the byte-level checksum passed).
    fn quarantine(&self, logical: &str);
    /// Publishes a batch atomically and persists recency bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed publish leaves the previous
    /// generation fully intact.
    fn publish(&self, batch: &[(String, Vec<u8>)]) -> io::Result<()>;
    /// Evicts least-recently-used artifacts until the published total is
    /// within `budget` bytes. Returns how many were evicted.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from republishing the manifest.
    fn evict_to(&self, budget: u64) -> io::Result<u64>;
    /// Drops any cached view so the next operation observes commits made
    /// by other processes.
    fn refresh(&self);
}

/// Recency map carried in the manifest's `lru` sidecar: logical name →
/// the manifest generation at which it was last used.
fn lru_to_bytes(map: &HashMap<String, u64>) -> Vec<u8> {
    let mut items: Vec<(&String, &u64)> = map.iter().collect();
    items.sort();
    let mut w = Writer::new();
    w.usize(items.len());
    for (logical, tick) in items {
        w.str(logical);
        w.u64(*tick);
    }
    w.into_bytes()
}

fn lru_from_bytes(bytes: &[u8]) -> HashMap<String, u64> {
    // Best-effort: the manifest checksum already guards integrity, and a
    // lost recency map only degrades eviction order, never correctness.
    let mut r = Reader::new(bytes);
    let Ok(count) = r.usize() else {
        return HashMap::new();
    };
    let mut map = HashMap::new();
    for _ in 0..count {
        let (Ok(logical), Ok(tick)) = (r.str(), r.u64()) else {
            return HashMap::new();
        };
        map.insert(logical, tick);
    }
    map
}

/// The local directory backend: artifacts live beside a
/// [`CommitDir`]-managed manifest at `<dir>/.sfcc-cas.manifest`, each as
/// an immutable generation file. Visibility is a single manifest rename;
/// recency for LRU eviction rides in the same commit as an `lru` sidecar
/// entry, stamped with the manifest generation as a logical clock.
#[derive(Debug)]
pub struct DirBackend {
    cd: CommitDir,
    durability: Durability,
    /// Cached manifest view: `None` = not loaded yet.
    manifest: Mutex<Option<Option<Manifest>>>,
    /// Logical names used since the last publish (recency to persist).
    touched: Mutex<HashSet<String>>,
}

impl DirBackend {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path, durability: Durability) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(DirBackend {
            cd: CommitDir::new(&dir.join(CAS_BASE)),
            durability,
            manifest: Mutex::new(None),
            touched: Mutex::new(HashSet::new()),
        })
    }

    /// The current manifest, loading (and caching) it on first use. A
    /// corrupt manifest is quarantined and treated as absent; an
    /// unreadable one is treated as absent without caching the verdict.
    fn manifest(&self) -> Option<Manifest> {
        let mut cached = self.manifest.lock().unwrap();
        if let Some(view) = cached.as_ref() {
            return view.clone();
        }
        let view = match self.cd.read_manifest() {
            Ok(m) => m,
            Err(ManifestError::Corrupt(_)) => {
                let _ = ffs::quarantine(&self.cd.manifest_path());
                None
            }
            Err(ManifestError::Io(_)) => return None,
        };
        *cached = Some(view.clone());
        view
    }

    fn drop_from_cache(&self, logical: &str) {
        let mut cached = self.manifest.lock().unwrap();
        if let Some(Some(m)) = cached.as_mut() {
            m.entries.retain(|e| e.logical != logical);
        }
    }

    fn lru_map(&self, manifest: &Manifest) -> HashMap<String, u64> {
        manifest
            .entry(LRU_LOGICAL)
            .and_then(|e| self.cd.load_entry(e).ok())
            .map(|bytes| lru_from_bytes(&bytes))
            .unwrap_or_default()
    }
}

impl CasBackend for DirBackend {
    fn describe(&self) -> String {
        self.cd.base().display().to_string()
    }

    fn entries(&self) -> Vec<(String, u64)> {
        self.manifest()
            .map(|m| {
                m.entries
                    .iter()
                    .filter(|e| e.logical != LRU_LOGICAL)
                    .map(|e| (e.logical.clone(), e.len))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn load(&self, logical: &str) -> Option<Vec<u8>> {
        let manifest = self.manifest()?;
        let entry = manifest.entry(logical)?;
        match self.cd.load_entry(entry) {
            Ok(bytes) => {
                self.touched.lock().unwrap().insert(logical.to_string());
                Some(bytes)
            }
            Err(EntryError::Corrupt(_)) => {
                // Bit-flipped or truncated on disk: move it aside so the
                // next fsck sees the evidence, and miss.
                let _ = ffs::quarantine(&self.cd.entry_path(entry));
                self.drop_from_cache(logical);
                None
            }
            Err(EntryError::Io(_)) => None,
        }
    }

    fn quarantine(&self, logical: &str) {
        if let Some(manifest) = self.manifest() {
            if let Some(entry) = manifest.entry(logical) {
                let _ = ffs::quarantine(&self.cd.entry_path(entry));
            }
        }
        self.drop_from_cache(logical);
    }

    fn publish(&self, batch: &[(String, Vec<u8>)]) -> io::Result<()> {
        let old = self.manifest();
        let tick = old.as_ref().map(|m| m.generation).unwrap_or(0) + 1;
        let mut lru = old.as_ref().map(|m| self.lru_map(m)).unwrap_or_default();
        for logical in self.touched.lock().unwrap().drain() {
            lru.insert(logical, tick);
        }
        for (logical, _) in batch {
            lru.insert(logical.clone(), tick);
        }
        // Prune recency for logicals no longer (or not about to be)
        // published.
        let live: HashSet<&str> = old
            .iter()
            .flat_map(|m| m.entries.iter())
            .map(|e| e.logical.as_str())
            .chain(batch.iter().map(|(l, _)| l.as_str()))
            .collect();
        lru.retain(|logical, _| live.contains(logical.as_str()));
        let lru_bytes = lru_to_bytes(&lru);
        let mut files: Vec<(&str, &[u8])> = batch
            .iter()
            .map(|(logical, bytes)| (logical.as_str(), bytes.as_slice()))
            .collect();
        files.push((LRU_LOGICAL, &lru_bytes));
        // `commit_shared`: the store directory is shared by racing
        // processes, so replaced generation files must stay on disk — a
        // concurrent committer may carry them forward into the winning
        // manifest. fsck sweeps the debris.
        let manifest = self.cd.commit_shared(&files, self.durability)?;
        *self.manifest.lock().unwrap() = Some(Some(manifest));
        Ok(())
    }

    fn evict_to(&self, budget: u64) -> io::Result<u64> {
        let Some(manifest) = self.manifest() else {
            return Ok(0);
        };
        let mut total: u64 = manifest
            .entries
            .iter()
            .filter(|e| e.logical != LRU_LOGICAL)
            .map(|e| e.len)
            .sum();
        if total <= budget {
            return Ok(0);
        }
        let mut lru = self.lru_map(&manifest);
        // Oldest tick first; ties broken by name for determinism. Entries
        // with no recorded recency count as oldest.
        let mut candidates: Vec<_> = manifest
            .entries
            .iter()
            .filter(|e| e.logical != LRU_LOGICAL)
            .collect();
        candidates.sort_by_key(|e| (lru.get(&e.logical).copied().unwrap_or(0), e.logical.clone()));
        let mut evicted = Vec::new();
        for entry in candidates {
            if total <= budget {
                break;
            }
            total -= entry.len;
            evicted.push(entry.clone());
        }
        if evicted.is_empty() {
            return Ok(0);
        }
        for e in &evicted {
            lru.remove(&e.logical);
        }
        let lru_bytes = lru_to_bytes(&lru);
        let mut survivors: Vec<_> = manifest
            .entries
            .iter()
            .filter(|e| e.logical != LRU_LOGICAL && !evicted.iter().any(|v| v.logical == e.logical))
            .cloned()
            .collect();
        // Rewrite the recency sidecar as part of the same generation bump.
        let lru_file = format!(
            "{CAS_BASE}.{LRU_LOGICAL}.g{}-{}-{}",
            manifest.generation + 1,
            std::process::id(),
            ffs::unique_seq()
        );
        let lru_path = self.cd.base().with_file_name(&lru_file);
        ffs::write(&lru_path, &lru_bytes)?;
        survivors.push(sfcc_faultfs::ManifestEntry {
            logical: LRU_LOGICAL.to_string(),
            file: lru_file,
            len: lru_bytes.len() as u64,
            checksum: fnv64(&lru_bytes),
        });
        let old_lru = manifest.entry(LRU_LOGICAL).cloned();
        let new = self
            .cd
            .publish(manifest.generation + 1, survivors, self.durability)?;
        // The evicted generation files (and the replaced lru sidecar) are
        // garbage now that no manifest references them. A racing committer
        // in another process may still carry an evicted entry forward; its
        // manifest then points at a missing file, which degrades to a miss
        // (and an fsck manifest repair) — never to wrong bytes, since every
        // serve is checksum- and provenance-verified.
        for e in &evicted {
            let _ = ffs::remove_file(&self.cd.entry_path(e));
        }
        if let Some(old) = old_lru {
            let _ = ffs::remove_file(&self.cd.entry_path(&old));
        }
        *self.manifest.lock().unwrap() = Some(Some(new));
        Ok(evicted.len() as u64)
    }

    fn refresh(&self) {
        *self.manifest.lock().unwrap() = None;
    }
}

/// A scalar key component widened to the fingerprint domain.
fn word(n: impl Into<u128>) -> Fingerprint {
    Fingerprint(n.into())
}

/// The one key derivation: the values of [`KEY_COMPONENTS`], in that
/// order, folded over the format tag — each only where `keep` admits its
/// name (everything, except under [`CasStore::set_key_drops`]).
fn derive_key(parts: [Fingerprint; 4], keep: impl Fn(&str) -> bool) -> Fingerprint {
    KEY_COMPONENTS
        .iter()
        .zip(parts)
        .filter(|(name, _)| keep(name))
        .fold(Fingerprint::of_str("sfcc-cas/v1"), |key, (_, part)| {
            key.combine(part)
        })
}

/// A handle on a content-addressed artifact store. Shareable by `&self`
/// across threads; cross-process coordination is the backend's publish
/// discipline.
#[derive(Debug)]
pub struct CasStore {
    backend: Box<dyn CasBackend>,
    components: KeyComponents,
    budget: Option<u64>,
    /// Adversarial test hook: key components (by [`KEY_COMPONENTS`] name)
    /// to omit from derivation, seeding cross-identity collisions.
    drops: Mutex<BTreeSet<String>>,
    /// `module::function` → stamps of the artifact served this session.
    served: Mutex<HashMap<String, ServedStamps>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    publishes: AtomicU64,
    publish_errors: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl CasStore {
    /// Opens a store over the local directory backend.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_dir(
        dir: &Path,
        components: KeyComponents,
        durability: Durability,
    ) -> io::Result<Self> {
        let backend = DirBackend::open(dir, durability)?;
        Ok(Self::with_backend(Box::new(backend), components))
    }

    /// Wraps an arbitrary backend.
    pub fn with_backend(backend: Box<dyn CasBackend>, components: KeyComponents) -> Self {
        CasStore {
            backend,
            components,
            budget: None,
            drops: Mutex::new(BTreeSet::new()),
            served: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            publish_errors: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// Sets the size budget: publishes evict least-recently-used
    /// artifacts until the store fits. `None` (the default) never evicts.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// The backend's identifier (for reports and debugging).
    pub fn describe(&self) -> String {
        self.backend.describe()
    }

    /// The session-constant key components this handle derives with.
    pub fn components(&self) -> &KeyComponents {
        &self.components
    }

    /// Adversarial test hook: omit the named [`KEY_COMPONENTS`] from key
    /// derivation (both lookup and publish), seeding the
    /// cross-configuration collisions the depcheck soundness tests prove
    /// are caught. Unknown names are ignored. Honest builds never call
    /// this.
    pub fn set_key_drops(&self, components: &[String]) {
        let mut drops = self.drops.lock().unwrap();
        drops.clear();
        drops.extend(components.iter().cloned());
    }

    /// Starts a fresh build session: clears per-session serve records and
    /// drops cached backend views so other processes' commits become
    /// visible.
    pub fn begin_session(&self) {
        self.served.lock().unwrap().clear();
        self.backend.refresh();
    }

    fn derive(&self, fn_ctx: Fingerprint, drops: &BTreeSet<String>) -> Fingerprint {
        let c = &self.components;
        derive_key(
            [fn_ctx, c.pipeline, word(c.flags), word(c.backend)],
            |name| !drops.contains(name),
        )
    }

    /// The honest (no components dropped) key for a context fingerprint.
    pub fn honest_key(&self, fn_ctx: Fingerprint) -> Fingerprint {
        self.derive(fn_ctx, &BTreeSet::new())
    }

    /// The folded honest-key stamp depcheck audits serve records against.
    pub fn honest_stamp(&self, fn_ctx: Fingerprint) -> u64 {
        self.honest_key(fn_ctx).short()
    }

    /// Looks up the optimized body for `module::function` with context
    /// fingerprint `fn_ctx`. A hit records [`ServedStamps`] for the
    /// depcheck audit. Every validation failure (checksum, armor,
    /// provenance, parse) quarantines the entry and misses.
    pub fn lookup(&self, module: &str, function: &str, fn_ctx: Fingerprint) -> Option<Function> {
        let drops = self.drops.lock().unwrap().clone();
        let key = self.derive(fn_ctx, &drops);
        let honest = self.derive(fn_ctx, &BTreeSet::new());
        let logical = logical_name(key);
        let _scope = ffs::task_scope(CAS_TASK_LABEL);
        let Some(bytes) = self.backend.load(&logical) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let Ok(artifact) = Artifact::from_bytes(&bytes) else {
            self.backend.quarantine(&logical);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        // Defense in depth: with honest derivation, an artifact filed
        // under a key its provenance does not match is debris, never a
        // hit. (With adversarial drops active the mismatch is the seeded
        // lie itself; it is served so depcheck can prove it catches it.)
        if drops.is_empty() && artifact.provenance.key != key {
            self.backend.quarantine(&logical);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let Ok(mut func) = sfcc_ir::parse_function(&artifact.ir_text) else {
            self.backend.quarantine(&logical);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        // Serve the body under the *requested* name: the artifact's
        // recorded name is provenance, not identity — identical bodies
        // legitimately hit across differently-named functions.
        func.name = function.to_string();
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.served.lock().unwrap().insert(
            format!("{module}::{function}"),
            ServedStamps {
                served: artifact.provenance.key.short(),
                honest: honest.short(),
            },
        );
        Some(func)
    }

    /// The serve record for `module::function` from this session, if the
    /// store answered its lookup.
    pub fn served(&self, module: &str, function: &str) -> Option<ServedStamps> {
        self.served
            .lock()
            .unwrap()
            .get(&format!("{module}::{function}"))
            .copied()
    }

    /// Publishes freshly optimized functions. Keys already published (or
    /// duplicated within the batch) are skipped — the store is
    /// content-addressed, so racing publishers of one key write identical
    /// bytes and the first visible one wins. I/O errors degrade to a
    /// counted no-op: a cache must never fail the build.
    pub fn publish(&self, inserts: &[(Fingerprint, Function)]) {
        if inserts.is_empty() {
            return;
        }
        let drops = self.drops.lock().unwrap().clone();
        let _scope = ffs::task_scope(CAS_TASK_LABEL);
        let existing: HashSet<String> =
            self.backend.entries().into_iter().map(|(l, _)| l).collect();
        let mut batch: Vec<(String, Vec<u8>)> = Vec::new();
        let mut seen = HashSet::new();
        for (fn_ctx, func) in inserts {
            let key = self.derive(*fn_ctx, &drops);
            let logical = logical_name(key);
            if existing.contains(&logical) || !seen.insert(logical.clone()) {
                continue;
            }
            let artifact = Artifact {
                provenance: Provenance {
                    // Provenance always records the honest identity, even
                    // when an adversarial drop mis-files the artifact —
                    // that is what makes the lie auditable.
                    key: self.derive(*fn_ctx, &BTreeSet::new()),
                    fn_ctx: *fn_ctx,
                    pipeline: self.components.pipeline,
                    flags: self.components.flags,
                    backend: self.components.backend,
                    flag_repr: self.components.flag_repr.clone(),
                    pipeline_repr: self.components.pipeline_repr.clone(),
                },
                name: func.name.clone(),
                ir_text: sfcc_ir::function_to_string(func),
            };
            batch.push((logical, artifact.to_bytes()));
        }
        if batch.is_empty() {
            return;
        }
        let bytes: u64 = batch.iter().map(|(_, b)| b.len() as u64).sum();
        match self.backend.publish(&batch) {
            Ok(()) => {
                self.publishes
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(_) => {
                self.publish_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if let Some(budget) = self.budget {
            if let Ok(evicted) = self.backend.evict_to(budget) {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Current counters plus the backend's published entry/byte totals.
    pub fn stats(&self) -> CasStats {
        let entries = self.backend.entries();
        CasStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            publish_errors: self.publish_errors.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            entries: entries.len() as u64,
            bytes: entries.iter().map(|(_, len)| len).sum(),
        }
    }
}

/// The outcome of one store audit ([`fsck`]).
#[derive(Debug, Clone, Default)]
pub struct CasFsckReport {
    /// Manifest entries examined.
    pub checked: usize,
    /// Files moved aside as corrupt (`*.corrupt`), by path.
    pub quarantined: Vec<String>,
    /// Orphaned temp/generation files deleted.
    pub removed: usize,
    /// Whether a repaired manifest was published (entries dropped or the
    /// manifest itself replaced).
    pub repaired_manifest: bool,
}

impl CasFsckReport {
    /// Whether the store needed no repair at all.
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty() && self.removed == 0 && !self.repaired_manifest
    }
}

/// Validates an artifact's provenance: the armor decodes, the embedded
/// key digest equals a re-derivation from the embedded components, the
/// manifest filed it under that key, and the body parses.
fn artifact_is_sound(logical: &str, bytes: &[u8]) -> bool {
    let Ok(artifact) = Artifact::from_bytes(bytes) else {
        return false;
    };
    let p = &artifact.provenance;
    let parts = [p.fn_ctx, p.pipeline, word(p.flags), word(p.backend)];
    derive_key(parts, |_| true) == p.key
        && logical_name(p.key) == logical
        && sfcc_ir::parse_function(&artifact.ir_text).is_ok()
}

/// Audits and repairs a store directory: quarantines a corrupt manifest,
/// validates every published artifact's checksum *and* provenance record
/// (quarantining mismatches — including artifacts filed under a key their
/// provenance does not derive), republishes the surviving entries, and
/// deletes orphaned temp/generation debris. Never deletes evidence:
/// everything suspicious is moved aside, not removed.
///
/// # Errors
///
/// Propagates I/O failures from the repair itself (reads that merely fail
/// validation are handled, not propagated).
pub fn fsck(dir: &Path) -> io::Result<CasFsckReport> {
    let base = dir.join(CAS_BASE);
    let cd = CommitDir::new(&base);
    let mut report = CasFsckReport::default();
    let manifest = match cd.read_manifest() {
        Ok(m) => m,
        Err(ManifestError::Corrupt(_)) => {
            if let Some(q) = ffs::quarantine(&cd.manifest_path()) {
                report.quarantined.push(q.display().to_string());
            }
            report.repaired_manifest = true;
            None
        }
        Err(ManifestError::Io(e)) => return Err(e),
    };
    if let Some(manifest) = &manifest {
        let mut survivors = Vec::new();
        for entry in &manifest.entries {
            report.checked += 1;
            let sound = match cd.load_entry(entry) {
                Ok(bytes) => {
                    entry.logical == LRU_LOGICAL || artifact_is_sound(&entry.logical, &bytes)
                }
                Err(_) => false,
            };
            if sound {
                survivors.push(entry.clone());
            } else if let Some(q) = ffs::quarantine(&cd.entry_path(entry)) {
                report.quarantined.push(q.display().to_string());
            }
        }
        if survivors.len() != manifest.entries.len() {
            cd.publish(manifest.generation + 1, survivors, Durability::Fast)?;
            report.repaired_manifest = true;
        }
    }
    let current = cd.read_manifest().ok().flatten();
    for orphan in cd.orphans(current.as_ref())? {
        ffs::remove_file(&orphan)?;
        report.removed += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfcc-cas-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn components() -> KeyComponents {
        KeyComponents {
            pipeline: Fingerprint(0xabcd),
            flags: 0x1234,
            backend: DEFAULT_BACKEND_VERSION,
            flag_repr: "mode=test;opt=O2".to_string(),
            pipeline_repr: "ssa,fold".to_string(),
        }
    }

    fn sample_fn(name: &str, k: i64) -> Function {
        sfcc_ir::parse_function(&format!(
            "fn @{name}(i64) -> i64 {{\nbb0:\n  v0 = mul i64 p0, {k}\n  ret v0\n}}"
        ))
        .unwrap()
    }

    fn store(dir: &Path) -> CasStore {
        CasStore::open_dir(dir, components(), Durability::Fast).unwrap()
    }

    #[test]
    fn artifact_roundtrips_and_rejects_corruption() {
        let art = Artifact {
            provenance: Provenance {
                key: Fingerprint(7),
                fn_ctx: Fingerprint(8),
                pipeline: Fingerprint(9),
                flags: 10,
                backend: 1,
                flag_repr: "mode=x".to_string(),
                pipeline_repr: "p".to_string(),
            },
            name: "f".to_string(),
            ir_text: "fn @f() -> i64 {\nbb0:\n  v0 = const i64 1\n  ret v0\n}".to_string(),
        };
        let bytes = art.to_bytes();
        assert_eq!(Artifact::from_bytes(&bytes).unwrap(), art);
        for cut in 0..bytes.len() {
            assert!(Artifact::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(
                Artifact::from_bytes(&flipped).is_err(),
                "single bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn publish_then_lookup_hits_byte_identically() {
        let dir = tmpdir("roundtrip");
        let s = store(&dir);
        let f = sample_fn("helper", 3);
        let ctx = Fingerprint(42);
        s.publish(&[(ctx, f.clone())]);
        let got = s.lookup("m", "helper", ctx).expect("hit");
        assert_eq!(
            sfcc_ir::function_to_string(&got),
            sfcc_ir::function_to_string(&f)
        );
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses, stats.publishes), (1, 0, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        // A second handle on the same directory sees the entry (shared
        // across "processes").
        let other = store(&dir);
        assert!(other.lookup("m", "helper", ctx).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_key_component_forces_a_miss() {
        let dir = tmpdir("components");
        let s = store(&dir);
        let ctx = Fingerprint(42);
        s.publish(&[(ctx, sample_fn("f", 3))]);
        assert!(s.lookup("m", "f", ctx).is_some());

        // fn component: a different context fingerprint misses.
        assert!(s.lookup("m", "f", Fingerprint(43)).is_none());

        // pipeline / flags / backend: change one component, keep the rest.
        let variants = [
            KeyComponents {
                pipeline: Fingerprint(0xdead),
                ..components()
            },
            KeyComponents {
                flags: 0x9999,
                ..components()
            },
            KeyComponents {
                backend: DEFAULT_BACKEND_VERSION + 1,
                ..components()
            },
        ];
        for (i, comps) in variants.into_iter().enumerate() {
            let other = CasStore::open_dir(&dir, comps, Durability::Fast).unwrap();
            assert!(
                other.lookup("m", "f", ctx).is_none(),
                "variant {i} must miss"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_key_component_serves_cross_identity_and_is_auditable() {
        let dir = tmpdir("drops");
        let publisher = store(&dir);
        publisher.set_key_drops(&["flags".to_string()]);
        let ctx = Fingerprint(42);
        publisher.publish(&[(ctx, sample_fn("f", 3))]);

        let mut other_comps = components();
        other_comps.flags = 0x9999;
        let consumer = CasStore::open_dir(&dir, other_comps, Durability::Fast).unwrap();
        consumer.set_key_drops(&["flags".to_string()]);
        assert!(
            consumer.lookup("m", "f", ctx).is_some(),
            "dropped component collides across identities"
        );
        let stamps = consumer.served("m", "f").unwrap();
        assert_ne!(
            stamps.served, stamps.honest,
            "the lie is visible in the serve record"
        );
        // An honest consumer never hits the mis-filed entry.
        let honest = store(&dir);
        assert!(honest.lookup("m", "f", ctx).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflipped_entry_is_quarantined_and_missed() {
        let dir = tmpdir("bitflip");
        let s = store(&dir);
        let ctx = Fingerprint(42);
        s.publish(&[(ctx, sample_fn("f", 3))]);
        // Flip one bit in the artifact's generation file.
        let cd = CommitDir::new(&dir.join(CAS_BASE));
        let manifest = cd.read_manifest().unwrap().unwrap();
        let entry = manifest.entry(&logical_name(s.honest_key(ctx))).unwrap();
        let path = cd.entry_path(entry);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        let fresh = store(&dir);
        assert!(
            fresh.lookup("m", "f", ctx).is_none(),
            "corrupt entry missed"
        );
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .any(|e| ffs::is_quarantine_name(&e.file_name().to_string_lossy())),
            "corrupt entry quarantined"
        );
        let report = fsck(&dir).unwrap();
        assert!(report.repaired_manifest || report.checked > 0);
        assert!(fsck(&dir).unwrap().clean(), "second fsck is clean");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_respects_budget_and_never_serves_wrong_bytes() {
        let dir = tmpdir("evict");
        let mut s = store(&dir);
        // Budget fits roughly two artifacts.
        let one = Artifact {
            provenance: Provenance {
                key: Fingerprint(0),
                fn_ctx: Fingerprint(0),
                pipeline: components().pipeline,
                flags: components().flags,
                backend: components().backend,
                flag_repr: components().flag_repr,
                pipeline_repr: components().pipeline_repr,
            },
            name: "f0".to_string(),
            ir_text: sfcc_ir::function_to_string(&sample_fn("f0", 1)),
        }
        .to_bytes()
        .len() as u64;
        s.set_budget(Some(one * 2 + one / 2));
        for i in 0..6i64 {
            s.publish(&[(
                Fingerprint(100 + i as u128),
                sample_fn(&format!("f{i}"), i + 1),
            )]);
        }
        let stats = s.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.bytes <= one * 2 + one / 2, "{stats:?}");
        // Every surviving entry still serves exactly its own bytes.
        for i in 0..6i64 {
            if let Some(got) = s.lookup("m", &format!("f{i}"), Fingerprint(100 + i as u128)) {
                assert_eq!(
                    sfcc_ir::function_to_string(&got),
                    sfcc_ir::function_to_string(&sample_fn(&format!("f{i}"), i + 1)),
                    "evicting must never remap keys"
                );
            }
        }
        // Sound: nothing quarantined, manifest intact. Shared commits never
        // GC replaced generations, so the first pass may sweep debris.
        let report = fsck(&dir).unwrap();
        assert!(
            report.quarantined.is_empty() && !report.repaired_manifest,
            "{report:?}"
        );
        assert!(fsck(&dir).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_spares_recently_used_entries() {
        let dir = tmpdir("lru");
        let mut s = store(&dir);
        let f = sample_fn("f", 1);
        let art_len = {
            s.publish(&[(Fingerprint(1), f.clone())]);
            s.stats().bytes
        };
        s.set_budget(Some(art_len * 2 + art_len / 2));
        s.publish(&[(Fingerprint(2), f.clone())]);
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(s.lookup("m", "f", Fingerprint(1)).is_some());
        s.publish(&[(Fingerprint(3), f.clone())]);
        assert!(
            s.lookup("m", "f", Fingerprint(1)).is_some(),
            "recently used survives"
        );
        assert!(
            s.lookup("m", "f", Fingerprint(2)).is_none(),
            "LRU victim evicted"
        );
        assert!(
            s.lookup("m", "f", Fingerprint(3)).is_some(),
            "fresh entry survives"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_at_every_op_during_publish_leaves_store_fsck_clean() {
        let dir = tmpdir("crash");
        {
            let s = store(&dir);
            s.publish(&[(Fingerprint(1), sample_fn("f", 1))]);
        }
        // Count the ops of a second publish, then crash at each.
        let ops = {
            let rec = ffs::record();
            let s = store(&dir);
            s.publish(&[(Fingerprint(2), sample_fn("g", 2))]);
            rec.take().len()
        };
        assert!(ops >= 3, "publish must be multi-op ({ops})");
        for k in 1..=ops {
            let scratch = tmpdir(&format!("crash-{k}"));
            let warm = store(&scratch);
            warm.publish(&[(Fingerprint(1), sample_fn("f", 1))]);
            let guard = ffs::install(ffs::FaultPlan::parse(&format!("crash-at:{k}")).unwrap());
            let s = store(&scratch);
            s.publish(&[(Fingerprint(2), sample_fn("g", 2))]);
            drop(guard);
            let report = fsck(&scratch).unwrap();
            // fsck may reclaim debris; a second pass must find nothing.
            assert!(
                fsck(&scratch).unwrap().clean(),
                "crash at op {k}: {report:?}"
            );
            // The pre-crash entry still serves correct bytes.
            let s = store(&scratch);
            if let Some(got) = s.lookup("m", "f", Fingerprint(1)) {
                assert_eq!(
                    sfcc_ir::function_to_string(&got),
                    sfcc_ir::function_to_string(&sample_fn("f", 1))
                );
            }
            std::fs::remove_dir_all(&scratch).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_errors_degrade_gracefully() {
        // Find which op index the first durable write lands on, so the
        // injected ENOSPC hits the write (reads degrade differently).
        let first_write = {
            let probe = tmpdir("enospc-probe");
            let rec = ffs::record();
            store(&probe).publish(&[(Fingerprint(1), sample_fn("f", 1))]);
            let ops = rec.take();
            std::fs::remove_dir_all(&probe).unwrap();
            1 + ops
                .iter()
                .position(|op| op.kind == ffs::OpKind::Write)
                .expect("publish writes")
        };
        let dir = tmpdir("enospc");
        let s = store(&dir);
        let guard = ffs::install(ffs::FaultPlan::parse(&format!("enospc:{first_write}")).unwrap());
        s.publish(&[(Fingerprint(1), sample_fn("f", 1))]);
        drop(guard);
        let stats = s.stats();
        assert_eq!(stats.publish_errors, 1, "{stats:?}");
        assert_eq!(stats.publishes, 0);
        // The store still works afterwards.
        s.begin_session();
        s.publish(&[(Fingerprint(1), sample_fn("f", 1))]);
        assert!(s.lookup("m", "f", Fingerprint(1)).is_some());
        assert!(fsck(&dir).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_quarantines_misfiled_artifacts() {
        let dir = tmpdir("misfiled");
        let s = store(&dir);
        s.set_key_drops(&["flags".to_string()]);
        s.publish(&[(Fingerprint(1), sample_fn("f", 1))]);
        // The artifact is filed under a degraded key: its embedded
        // provenance cannot re-derive the logical name.
        let report = fsck(&dir).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{report:?}");
        assert!(report.repaired_manifest);
        assert!(fsck(&dir).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_ops_are_attributed_to_the_cas_scope() {
        let dir = tmpdir("attr");
        let rec = ffs::record();
        let s = store(&dir);
        s.publish(&[(Fingerprint(1), sample_fn("f", 1))]);
        s.lookup("m", "f", Fingerprint(1));
        let ops = rec.take();
        assert!(!ops.is_empty());
        for op in &ops {
            assert_eq!(
                op.task.as_deref(),
                Some(CAS_TASK_LABEL),
                "store op {op:?} must run under the cas scope"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
