//! Function-level IR caching — the reproduction's *extension* experiment.
//!
//! Pass skipping (the paper's mechanism) still walks every pass slot of
//! every function. With structural fingerprints there is a stronger move
//! available for functions that are **bit-identical** to a previous
//! compilation *including everything inlining could pull in*: reuse the
//! cached optimized IR and skip the pipeline entirely. This module
//! implements that cache; experiment E12 (`exp_fn_cache`) quantifies it
//! against plain pass skipping.
//!
//! # Cache key
//!
//! A function's optimized IR depends on (a) its own pre-optimization body,
//! (b) the bodies of every *module-local* function transitively reachable
//! through calls (the inliner may splice any of them in), and (c) the
//! pipeline itself. The key covers (a) and (b) as a *context fingerprint*:
//! the function's structural fingerprint combined with its callees' context
//! fingerprints in sorted order; cross-module callees contribute only their
//! qualified name (they are never inlined). Functions on call cycles are
//! conservatively uncacheable. (c) is constant for the lifetime of one
//! [`crate::Compiler`], so it is not part of every key: the cache carries
//! it once, as the *identity* it was filled under
//! ([`FunctionCache::identity`]), persisted inside the file so a session
//! with another pipeline or skip policy never adopts these entries.
//!
//! # Concurrency
//!
//! The cache is shared by function-level optimization tasks running on the
//! work-stealing pool, so the entry map is split into [`SHARD_COUNT`]
//! independently locked shards (keyed by the low bits of the fingerprint)
//! and the hit/miss/eviction counters are atomics. All operations take
//! `&self`; a `&FunctionCache` can cross threads freely.
//!
//! # Eviction
//!
//! Each shard holds at most `capacity / SHARD_COUNT` entries and evicts by
//! the *second-chance* (clock) policy: a hit sets the entry's referenced
//! bit; when the shard is full, the oldest entry is either evicted (bit
//! clear) or granted a second pass through the queue (bit set, which is
//! cleared). The referenced bit is set-semantics — concurrent lookups in
//! any order leave the same bit state — so parallel builds keep the
//! deterministic-output guarantee.
//!
//! # Entries as bytes
//!
//! An entry holds one of two forms, never both: the optimized [`Function`]
//! this process inserted, or its encoded record — key, name, IR text — as a
//! [`ValueBytes`] slice. [`FunctionCache::from_bytes`] checks the file's
//! armor and framing and parses no IR; a hit on a record parses it, and
//! does not keep the result. [`FunctionCache::to_bytes`] prints each
//! inserted function once and keeps the record instead, so encoding a cache
//! is a concatenation. A record whose text does not parse is a miss: it
//! leaves the cache and is counted in [`CacheStats::corrupt_entries`].
//!
//! # Segments
//!
//! A commit need not rewrite the file: `FunctionCache::segment_bytes`
//! encodes only the records inserted and the keys dropped since the last
//! encode, and `FunctionCache::apply_segment` folds such a segment onto a
//! loaded cache, which then equals the cache the whole file written at
//! that commit would load as.

use crate::depgraph::ValueBytes;
use sfcc_codec::{armor, unarmor, DecodeError, Reader, Writer};
use sfcc_ir::{fingerprint, Fingerprint, Function, Module, Op};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default maximum number of cached functions across all shards.
pub const CACHE_CAP: usize = 8192;

/// Number of independently locked shards (a power of two).
pub const SHARD_COUNT: usize = 16;

/// What a cache entry holds.
#[derive(Debug)]
enum Body {
    /// Inserted by this process and not yet encoded: the optimized body
    /// the build holds, shared.
    Ir(Arc<Function>),
    /// The encoded record: a slice of the file it was read from, or of its
    /// own encoding once [`FunctionCache::to_bytes`] printed it.
    Text(ValueBytes),
}

/// A cached function plus its second-chance referenced bit.
#[derive(Debug)]
struct Entry {
    body: Body,
    referenced: bool,
    /// Read from a committed file rather than inserted by this process.
    persisted: bool,
    /// Whether the last encode covered this body: only then is it in the
    /// committed file or its segments.
    encoded: bool,
}

/// One lock's worth of the cache: entries plus clock-queue order.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Fingerprint, Entry>,
    order: VecDeque<Fingerprint>,
}

/// The function-level IR cache. Concurrently shareable; see the module
/// docs for the sharding and eviction story.
#[derive(Debug)]
pub struct FunctionCache {
    /// Digest of the compiler identity the entries were optimized under.
    identity: u64,
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
    hits: AtomicU64,
    hits_persisted: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt_entries: AtomicU64,
    /// Whether the entries differ from what was last loaded or encoded.
    dirty: AtomicBool,
    /// Keys of encoded entries that left the cache since the last encode.
    dropped: Mutex<Vec<Fingerprint>>,
}

impl Default for FunctionCache {
    fn default() -> Self {
        Self::with_capacity(CACHE_CAP)
    }
}

/// Hit/miss counters of a [`FunctionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// The hits answered by entries read from a committed file: the only
    /// hits persisting the cache earns.
    pub hits_persisted: u64,
    /// Lookups that missed (and later populated the cache).
    pub misses: u64,
    /// Entries evicted by the second-chance policy.
    pub evictions: u64,
    /// Entries whose text did not parse when a lookup hit them: each was a
    /// miss and left the cache.
    pub corrupt_entries: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl FunctionCache {
    /// Creates an empty cache with the default capacity ([`CACHE_CAP`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` entries
    /// (rounded up to a multiple of [`SHARD_COUNT`]).
    pub fn with_capacity(capacity: usize) -> Self {
        FunctionCache {
            identity: 0,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_cap: capacity.div_ceil(SHARD_COUNT).max(1),
            hits: AtomicU64::new(0),
            hits_persisted: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_entries: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            dropped: Mutex::new(Vec::new()),
        }
    }

    /// An empty cache whose entries will be optimized under `identity`.
    pub(crate) fn for_identity(identity: u64) -> Self {
        FunctionCache {
            identity,
            ..Self::default()
        }
    }

    /// Digest of the compiler identity (pass pipeline, code-shaping flags,
    /// backend version) this cache's entries were optimized under; `0` for
    /// a cache built outside a [`crate::Compiler`]. A session adopts a
    /// loaded cache only when this equals its own identity.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    fn shard_of(key: Fingerprint) -> usize {
        key.0 as usize & (SHARD_COUNT - 1)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            hits_persisted: self.hits_persisted.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_entries: self.corrupt_entries.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().entries.len())
                .sum(),
        }
    }

    /// Whether the entries differ from what was last loaded or encoded: an
    /// insert or a dropped entry since [`FunctionCache::from_bytes`] or
    /// [`FunctionCache::to_bytes`].
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Marks the entries as differing from the committed file (an encode
    /// that did not land, a file that did not load).
    pub(crate) fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Looks up the optimized IR for a context fingerprint, marking the
    /// entry recently used. A hit on an encoded entry parses its text and
    /// keeps only the text; text that does not parse is a miss, and the
    /// entry leaves the cache. A hit on an inserted body shares it.
    pub fn lookup(&self, key: Fingerprint) -> Option<Arc<Function>> {
        let shard = &self.shards[Self::shard_of(key)];
        let (record, persisted) = {
            let mut shard = shard.lock().unwrap();
            let Some(e) = shard.entries.get_mut(&key) else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            e.referenced = true;
            match &e.body {
                Body::Ir(func) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(func));
                }
                Body::Text(record) => (record.clone(), e.persisted),
            }
        };
        // Parsed outside the lock, so the shard's other keys stay available.
        if let Some(func) = parse_record(&record) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if persisted {
                self.hits_persisted.fetch_add(1, Ordering::Relaxed);
            }
            return Some(Arc::new(func));
        }
        let mut guard = shard.lock().unwrap();
        let shard = &mut *guard;
        if let Some(Entry {
            body: Body::Text(_),
            ..
        }) = shard.entries.get(&key)
        {
            self.remove(shard, key);
            shard.order.retain(|k| *k != key);
            self.corrupt_entries.fetch_add(1, Ordering::Relaxed);
            self.mark_dirty();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores optimized IR under a context fingerprint, evicting by
    /// second chance when the target shard is full. An `Arc` is kept as it
    /// comes: the entry shares the body with the build that made it.
    pub fn insert(&self, key: Fingerprint, optimized: impl Into<Arc<Function>>) {
        let optimized = optimized.into();
        self.mark_dirty();
        let mut guard = self.shards[Self::shard_of(key)].lock().unwrap();
        let shard = &mut *guard;
        if let Some(e) = shard.entries.get_mut(&key) {
            e.body = Body::Ir(optimized);
            e.persisted = false;
            e.encoded = false;
            return;
        }
        while shard.entries.len() >= self.shard_cap {
            let Some(oldest) = shard.order.pop_front() else {
                break;
            };
            let e = shard
                .entries
                .get_mut(&oldest)
                .expect("order tracks entries");
            if e.referenced {
                e.referenced = false;
                shard.order.push_back(oldest);
            } else {
                self.remove(shard, oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(
            key,
            Entry {
                body: Body::Ir(optimized),
                referenced: false,
                persisted: false,
                encoded: false,
            },
        );
        shard.order.push_back(key);
    }

    /// Removes `key`'s entry from `shard` (its queue slot is the caller's),
    /// noting the drop when the committed file holds it.
    fn remove(&self, shard: &mut Shard, key: Fingerprint) {
        if shard.entries.remove(&key).is_some_and(|e| e.encoded) {
            self.dropped
                .lock()
                .expect("no cache user panicked")
                .push(key);
        }
    }

    /// Every entry's record, key-sorted, each inserted function printed
    /// once; `all == false` keeps only the entries the last encode did not
    /// cover. Marks them all encoded.
    fn records(&self, all: bool) -> Vec<(u128, ValueBytes)> {
        let mut records = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            for (key, e) in shard.entries.iter_mut() {
                if let Body::Ir(func) = &e.body {
                    e.body = Body::Text(encode_record(*key, func));
                }
                if let Body::Text(record) = &e.body {
                    if all || !e.encoded {
                        records.push((key.0, record.clone()));
                    }
                }
                e.encoded = true;
            }
        }
        records.sort_unstable_by_key(|(key, _)| *key);
        records
    }

    /// Serializes the cache: one record per entry — key, name, canonical IR
    /// text (the printer/parser round-trip is exact, see `sfcc-ir`'s
    /// property tests) — behind the usual magic/version/checksum armor. The
    /// on-disk format is key-sorted and shard-agnostic, so it is independent
    /// of both the shard layout and any concurrent access pattern. Inserted
    /// functions are printed here, once: each entry keeps its record, so the
    /// next encode copies it. Clears the dirty flag.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.dirty.store(false, Ordering::Relaxed);
        self.dropped.lock().expect("no cache user panicked").clear();
        let records = self.records(true);
        armor(CACHE_MAGIC, CACHE_VERSION, |out| {
            out.u64(self.identity);
            out.usize(records.len());
            for (_, record) in &records {
                out.raw(record);
            }
        })
    }

    /// Deserializes a cache whose entries are slices of one copy of
    /// `bytes`: the armor (magic, version, trailer checksum) and every
    /// record's framing are checked, no IR is parsed — a lookup parses the
    /// one it hits. Any malformed input fails (callers cold-start).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for corrupt or version-skewed input, and
    /// for records out of key order.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::from_vec(bytes.to_vec())
    }

    /// [`FunctionCache::from_bytes`] of a buffer it takes over, uncopied.
    pub(crate) fn from_vec(bytes: Vec<u8>) -> Result<Self, DecodeError> {
        Self::decode(Arc::new(bytes))
    }

    /// [`FunctionCache::from_bytes`] of a shared buffer.
    pub(crate) fn decode(buffer: Arc<Vec<u8>>) -> Result<Self, DecodeError> {
        unarmor(&buffer, CACHE_MAGIC, CACHE_VERSION, |r| {
            let mut cache = FunctionCache::for_identity(r.u64()?);
            cache.place(read_records(r, &buffer)?);
            Ok(cache)
        })
    }

    /// The changes since the last encode as a segment extending the file
    /// (or segment) whose manifest checksum is `parent`: the records
    /// inserted, key-sorted, then the keys of the encoded entries that left
    /// the cache, sorted — behind the usual armor. Clears the dirty flag,
    /// like [`FunctionCache::to_bytes`].
    pub(crate) fn segment_bytes(&self, parent: u64) -> Vec<u8> {
        self.dirty.store(false, Ordering::Relaxed);
        let mut dropped =
            std::mem::take(&mut *self.dropped.lock().expect("no cache user panicked"));
        dropped.sort_unstable();
        let records = self.records(false);
        armor(SEGMENT_MAGIC, SEGMENT_VERSION, |out| {
            out.u64(self.identity);
            out.u64(parent);
            out.usize(records.len());
            for (_, record) in &records {
                out.raw(record);
            }
            out.usize(dropped.len());
            for key in &dropped {
                out.u128(key.0);
            }
        })
    }

    /// Folds a segment ([`FunctionCache::segment_bytes`]) onto a cache
    /// loaded from its parent, whose manifest checksum is `parent`: the
    /// dropped keys leave, then the records join or replace, framed and
    /// unparsed like a loaded file's. The clock queues end in key order, as
    /// loading the whole file would leave them.
    ///
    /// # Errors
    ///
    /// A segment that does not decode, was recorded under another identity
    /// or against another parent, or drops a key the cache does not hold;
    /// the cache is then unusable (callers cold-start).
    pub(crate) fn apply_segment(
        &mut self,
        buffer: Arc<Vec<u8>>,
        parent: u64,
    ) -> Result<(), DecodeError> {
        let (records, dropped) = unarmor(&buffer, SEGMENT_MAGIC, SEGMENT_VERSION, |r| {
            if r.u64()? != self.identity || r.u64()? != parent {
                return Err(DecodeError::Corrupt);
            }
            let records = read_records(r, &buffer)?;
            let count = r.count()?;
            let mut dropped: Vec<u128> = Vec::with_capacity(count);
            for _ in 0..count {
                let key = r.u128()?;
                if dropped.last().is_some_and(|&p| key <= p) {
                    return Err(DecodeError::Corrupt);
                }
                dropped.push(key);
            }
            Ok((records, dropped))
        })?;
        for key in dropped.into_iter().map(Fingerprint) {
            let shard = self.shards[Self::shard_of(key)]
                .get_mut()
                .expect("no cache user panicked");
            shard.entries.remove(&key).ok_or(DecodeError::Corrupt)?;
            if let Ok(at) = shard.order.binary_search(&key) {
                shard.order.remove(at);
            }
        }
        self.place(records);
        Ok(())
    }

    /// Places loaded records, bypassing eviction: a saved cache already
    /// respects the capacity it was written with. The clock queues stay in
    /// key order, as a whole file loads them.
    fn place(&mut self, records: Vec<(Fingerprint, ValueBytes)>) {
        for (key, record) in records {
            let shard = self.shards[Self::shard_of(key)]
                .get_mut()
                .expect("no cache user panicked");
            let entry = Entry {
                body: Body::Text(record),
                referenced: false,
                persisted: true,
                encoded: true,
            };
            if shard.entries.insert(key, entry).is_none() {
                if let Err(at) = shard.order.binary_search(&key) {
                    shard.order.insert(at, key);
                }
            }
        }
    }

    /// The first record whose text does not parse: what a hit checks, for
    /// every entry at once (`fsck`).
    pub(crate) fn unparsable(&self) -> Option<ValueBytes> {
        self.shards.iter().find_map(|shard| {
            shard
                .lock()
                .unwrap()
                .entries
                .values()
                .find_map(|e| match &e.body {
                    Body::Text(record) if parse_record(record).is_none() => Some(record.clone()),
                    _ => None,
                })
        })
    }
}

/// A count, then that many records — key, name, IR text — key-sorted, each
/// key once; framed, not parsed, each a slice of `buffer`.
fn read_records(
    r: &mut Reader<'_>,
    buffer: &Arc<Vec<u8>>,
) -> Result<Vec<(Fingerprint, ValueBytes)>, DecodeError> {
    let offset = |r: &Reader<'_>| buffer.len() - r.remaining();
    let count = r.count()?;
    let mut records: Vec<(Fingerprint, ValueBytes)> = Vec::with_capacity(count);
    for _ in 0..count {
        let start = offset(r);
        let key = r.u128()?;
        if records.last().is_some_and(|(p, _)| key <= p.0) {
            return Err(DecodeError::Corrupt);
        }
        r.bytes()?; // name
        r.bytes()?; // IR text
        records.push((
            Fingerprint(key),
            ValueBytes::slice(buffer, start..offset(r)),
        ));
    }
    Ok(records)
}

/// One entry's record: key, function name, IR text.
fn encode_record(key: Fingerprint, func: &Function) -> ValueBytes {
    let mut w = Writer::new();
    w.u128(key.0);
    w.str(&func.name);
    w.str(&sfcc_ir::function_to_string(func));
    w.into_bytes().into()
}

/// The function a record holds; `None` when its name or text is not UTF-8
/// or its text does not parse.
fn parse_record(record: &[u8]) -> Option<Function> {
    let mut r = Reader::new(record);
    r.u128().ok()?;
    let name = r.str().ok()?;
    let text = std::str::from_utf8(r.bytes().ok()?).ok()?;
    let mut func = sfcc_ir::parse_function(text).ok()?;
    func.name = name;
    Some(func)
}

const CACHE_MAGIC: &[u8; 7] = b"SFCCIC\0";
/// Current cache-file format version.
pub const CACHE_VERSION: u32 = 2;

const SEGMENT_MAGIC: &[u8; 7] = b"SFCCIS\0";
/// Current cache-segment format version.
const SEGMENT_VERSION: u32 = 1;

/// Computes the context fingerprint of every cacheable function in a
/// pre-optimization module. Functions involved in (or depending on) local
/// call cycles are absent from the result.
pub fn context_fingerprints(module: &Module) -> HashMap<String, Fingerprint> {
    function_contexts(&module.name, &module.functions)
}

/// [`context_fingerprints`] of the module named `module` whose functions
/// are `functions`, owned or shared.
pub fn function_contexts<F: Borrow<Function>>(
    module: &str,
    functions: &[F],
) -> HashMap<String, Fingerprint> {
    let local_prefix = format!("{module}.");
    let functions: Vec<&Function> = functions.iter().map(Borrow::borrow).collect();
    let names: HashSet<&str> = functions.iter().map(|f| f.name.as_str()).collect();

    // Per function: sorted local callee names and sorted foreign targets.
    let mut local_callees: HashMap<&str, Vec<String>> = HashMap::new();
    let mut foreign_callees: HashMap<&str, Vec<String>> = HashMap::new();
    for f in &functions {
        let mut local: Vec<String> = Vec::new();
        let mut foreign: Vec<String> = Vec::new();
        for (_, iid) in f.iter_insts() {
            if let Op::Call(target) = &f.inst(iid).op {
                match target.strip_prefix(&local_prefix) {
                    Some(name) if names.contains(name) => local.push(name.to_string()),
                    _ => foreign.push(target.clone()),
                }
            }
        }
        local.sort();
        local.dedup();
        foreign.sort();
        foreign.dedup();
        local_callees.insert(&f.name, local);
        foreign_callees.insert(&f.name, foreign);
    }

    let body_fp: HashMap<&str, Fingerprint> = functions
        .iter()
        .map(|f| (f.name.as_str(), fingerprint(f)))
        .collect();

    // Fixpoint: a function resolves once all its local callees resolved.
    // Anything never resolved sits on (or behind) a call cycle — including
    // self-recursion — and is left out, i.e. uncacheable.
    let mut resolved: HashMap<String, Fingerprint> = HashMap::new();
    loop {
        let mut progressed = false;
        for f in &functions {
            if resolved.contains_key(&f.name) {
                continue;
            }
            let local = &local_callees[f.name.as_str()];
            if local.iter().any(|c| c == &f.name) {
                continue; // self-recursive
            }
            if !local.iter().all(|c| resolved.contains_key(c)) {
                continue;
            }
            // Own body, then sorted local callee contexts, then sorted
            // foreign callee names.
            let mut ctx = body_fp[f.name.as_str()];
            for c in local {
                ctx = ctx.combine(resolved[c]);
            }
            for t in &foreign_callees[f.name.as_str()] {
                ctx = ctx.combine(Fingerprint::of_str(t));
            }
            resolved.insert(f.name.clone(), ctx);
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv};

    fn lower(src: &str) -> Module {
        let mut d = Diagnostics::new();
        let checked = parse_and_check("m", src, &ModuleEnv::new(), &mut d).expect("valid");
        sfcc_ir::lower_module(&checked, &ModuleEnv::new())
    }

    #[test]
    fn leaf_functions_are_cacheable() {
        let m =
            lower("fn a(x: int) -> int { return x + 1; }\nfn b(x: int) -> int { return x * 2; }");
        let ctx = context_fingerprints(&m);
        assert_eq!(ctx.len(), 2);
        assert_ne!(ctx["a"], ctx["b"]);
    }

    #[test]
    fn context_covers_callee_bodies() {
        let v1 = lower("fn callee(x: int) -> int { return x + 1; }\nfn caller(x: int) -> int { return callee(x); }");
        let v2 = lower("fn callee(x: int) -> int { return x + 2; }\nfn caller(x: int) -> int { return callee(x); }");
        let c1 = context_fingerprints(&v1);
        let c2 = context_fingerprints(&v2);
        // The caller's own body is unchanged, but its context must change
        // with the callee's body (the inliner sees it).
        assert_ne!(
            c1["caller"], c2["caller"],
            "callee edit must invalidate caller"
        );
        assert_ne!(c1["callee"], c2["callee"]);
    }

    #[test]
    fn transitive_contexts_propagate() {
        let v1 = lower(
            "fn a(x: int) -> int { return x + 1; }\nfn b(x: int) -> int { return a(x); }\nfn c(x: int) -> int { return b(x); }",
        );
        let v2 = lower(
            "fn a(x: int) -> int { return x + 9; }\nfn b(x: int) -> int { return a(x); }\nfn c(x: int) -> int { return b(x); }",
        );
        let c1 = context_fingerprints(&v1);
        let c2 = context_fingerprints(&v2);
        assert_ne!(c1["c"], c2["c"], "edit two hops away must invalidate");
    }

    #[test]
    fn recursion_is_uncacheable() {
        let m = lower(
            "fn rec(n: int) -> int { if (n < 1) { return 0; } return rec(n - 1); }\nfn user(n: int) -> int { return rec(n); }\nfn free(n: int) -> int { return n; }",
        );
        let ctx = context_fingerprints(&m);
        assert!(!ctx.contains_key("rec"));
        assert!(
            !ctx.contains_key("user"),
            "dependents of cycles are uncacheable too"
        );
        assert!(ctx.contains_key("free"));
    }

    #[test]
    fn mutual_recursion_is_uncacheable() {
        let m = lower(
            "fn even(n: int) -> bool { if (n == 0) { return true; } return odd(n - 1); }\nfn odd(n: int) -> bool { if (n == 0) { return false; } return even(n - 1); }",
        );
        let ctx = context_fingerprints(&m);
        assert!(ctx.is_empty());
    }

    #[test]
    fn foreign_callee_names_matter() {
        let mut d = Diagnostics::new();
        let util_ast =
            sfcc_frontend::parser::parse("util", "fn go(x: int) -> int { return x; }", &mut d);
        let mut env = ModuleEnv::new();
        env.insert("util", sfcc_frontend::ModuleInterface::of(&util_ast));
        let src_a = "import util;\nfn f(x: int) -> int { return util::go(x); }";
        let mut d = Diagnostics::new();
        let checked = parse_and_check("m", src_a, &env, &mut d).expect("valid");
        let m = sfcc_ir::lower_module(&checked, &env);
        let ctx = context_fingerprints(&m);
        // A foreign call contributes the callee name; still cacheable.
        assert!(ctx.contains_key("f"));
    }

    #[test]
    fn cache_serialization_roundtrips() {
        let cache = FunctionCache::for_identity(9);
        let f = sfcc_ir::parse_function(
            "fn @helper(i64) -> i64 {\nbb0:\n  v0 = mul i64 p0, 3\n  ret v0\n}",
        )
        .unwrap();
        cache.insert(Fingerprint(5), f.clone());
        let bytes = cache.to_bytes();
        let back = FunctionCache::from_bytes(&bytes).unwrap();
        assert_eq!(back.identity(), 9, "the identity stamp travels in the file");
        let got = back.lookup(Fingerprint(5)).expect("entry survived");
        assert_eq!(got.name, "helper");
        assert_eq!(
            sfcc_ir::function_to_string(&got),
            sfcc_ir::function_to_string(&f)
        );
        assert!(FunctionCache::from_bytes(b"junk").is_err());
        let mut corrupt = cache.to_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        assert!(FunctionCache::from_bytes(&corrupt).is_err());
    }

    /// `(Ir, Text)` entry counts.
    fn forms(cache: &FunctionCache) -> (usize, usize) {
        let mut counts = (0, 0);
        for shard in &cache.shards {
            for e in shard.lock().unwrap().entries.values() {
                match e.body {
                    Body::Ir(_) => counts.0 += 1,
                    Body::Text(_) => counts.1 += 1,
                }
            }
        }
        counts
    }

    fn sample_functions() -> Vec<Function> {
        [
            "fn @a(i64) -> i64 {\nbb0:\n  v0 = mul i64 p0, 3\n  ret v0\n}",
            "fn @b(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}",
        ]
        .iter()
        .map(|text| sfcc_ir::parse_function(text).unwrap())
        .collect()
    }

    #[test]
    fn a_loaded_cache_encodes_to_its_own_bytes_without_parsing() {
        let cache = FunctionCache::for_identity(3);
        for (i, f) in sample_functions().into_iter().enumerate() {
            cache.insert(Fingerprint(i as u128 * 7 + 1), f);
        }
        assert_eq!(forms(&cache), (2, 0));
        let bytes = cache.to_bytes();
        assert_eq!(forms(&cache), (0, 2), "each insert printed once");
        assert_eq!(cache.to_bytes(), bytes, "re-encoding concatenates");
        let back = FunctionCache::from_bytes(&bytes).unwrap();
        assert_eq!(forms(&back), (0, 2), "a load keeps records, parses no IR");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(forms(&back), (0, 2));
        assert_eq!(back.stats().hits, 0);
    }

    #[test]
    fn an_insert_dirties_and_an_encode_cleans() {
        let cache = FunctionCache::new();
        assert!(!cache.is_dirty());
        cache.insert(Fingerprint(1), sample_functions().remove(0));
        assert!(cache.is_dirty());
        let bytes = cache.to_bytes();
        assert!(!cache.is_dirty());
        let back = FunctionCache::from_bytes(&bytes).unwrap();
        assert!(!back.is_dirty());
        assert!(back.lookup(Fingerprint(1)).is_some());
        assert!(!back.is_dirty(), "a hit changes nothing persisted");
    }

    #[test]
    fn a_text_hit_equals_the_printed_ir() {
        let cache = FunctionCache::new();
        let f = sample_functions().remove(1);
        cache.insert(Fingerprint(9), f.clone());
        let bytes = cache.to_bytes();
        let back = FunctionCache::from_bytes(&bytes).unwrap();
        for c in [&cache, &back] {
            let hit = c.lookup(Fingerprint(9)).expect("hit");
            assert_eq!(hit.name, f.name);
            assert_eq!(
                sfcc_ir::function_to_string(&hit),
                sfcc_ir::function_to_string(&f)
            );
            assert_eq!(forms(c), (0, 1), "a hit is not memoized");
        }
        let (local, loaded) = (cache.stats(), back.stats());
        assert_eq!((local.hits, local.hits_persisted), (1, 0));
        assert_eq!((loaded.hits, loaded.hits_persisted), (1, 1));
    }

    /// A cache file whose one record holds `text`, armor intact.
    fn file_with_text(key: u128, text: &[u8]) -> Vec<u8> {
        armor(CACHE_MAGIC, CACHE_VERSION, |payload| {
            payload.u64(0);
            payload.usize(1);
            payload.u128(key);
            payload.str("f");
            payload.bytes(text);
        })
    }

    #[test]
    fn an_entry_that_does_not_parse_is_a_dropped_miss() {
        for text in [&b"not ir"[..], &[0xff, 0xfe, 0x80]] {
            let cache = FunctionCache::from_bytes(&file_with_text(4, text)).unwrap();
            assert!(cache.unparsable().is_some(), "fsck parses every entry");
            assert!(cache.lookup(Fingerprint(4)).is_none());
            let stats = cache.stats();
            assert_eq!(
                (
                    stats.hits,
                    stats.misses,
                    stats.corrupt_entries,
                    stats.entries
                ),
                (0, 1, 1, 0)
            );
            assert!(cache.is_dirty(), "the commit drops it from the file");
            assert!(cache.lookup(Fingerprint(4)).is_none());
            assert_eq!(cache.stats().corrupt_entries, 1, "counted once");
            let rewritten = FunctionCache::from_bytes(&cache.to_bytes()).unwrap();
            assert_eq!(rewritten.stats().entries, 0);
        }
    }

    /// A segment carries what the last encode did not: the records
    /// inserted and the keys dropped since. Folded onto the file that
    /// encode wrote, it gives the cache the whole file would load as.
    #[test]
    fn a_segment_folds_to_the_whole_file() {
        let cache = FunctionCache::with_capacity(2 * SHARD_COUNT);
        let [a, b] = [0, 1].map(|i| sample_functions().remove(i));
        cache.insert(same_shard_key(0), a.clone());
        cache.insert(same_shard_key(1), b.clone());
        let base = cache.to_bytes();
        let parent = sfcc_codec::fnv64(&base);
        // Replace one entry, evict the other, add a third.
        cache.insert(same_shard_key(1), a.clone());
        cache.insert(same_shard_key(2), b.clone());
        assert_eq!(cache.stats().evictions, 1);
        let segment = cache.segment_bytes(parent);
        assert!(!cache.is_dirty());
        let mut folded = FunctionCache::from_bytes(&base).unwrap();
        folded
            .apply_segment(Arc::new(segment.clone()), parent)
            .unwrap();
        assert_eq!(folded.to_bytes(), cache.to_bytes());
        assert_eq!(
            folded.shards[0].lock().unwrap().order,
            [same_shard_key(1), same_shard_key(2)],
            "queues in key order, as a load leaves them"
        );
        let mut other = FunctionCache::from_bytes(&base).unwrap();
        assert!(other
            .apply_segment(Arc::new(segment.clone()), parent ^ 1)
            .is_err());
        // A segment dropping a key the cache lacks does not fold.
        let mut folded_twice = FunctionCache::from_bytes(&base).unwrap();
        folded_twice
            .apply_segment(Arc::new(segment.clone()), parent)
            .unwrap();
        assert!(folded_twice
            .apply_segment(Arc::new(segment), parent)
            .is_err());
    }

    #[test]
    fn records_out_of_key_order_do_not_decode() {
        let cache = FunctionCache::new();
        for (i, f) in sample_functions().into_iter().enumerate() {
            cache.insert(Fingerprint(i as u128 + 1), f);
        }
        let bytes = cache.to_bytes();
        // Swap the two records, re-checksummed.
        let mut r = Reader::new(&bytes[CACHE_MAGIC.len()..]);
        r.u32().unwrap();
        let payload_start = bytes.len() - r.remaining();
        r.u64().unwrap();
        r.usize().unwrap();
        let first = bytes.len() - r.remaining();
        let skip = |r: &mut Reader<'_>| {
            r.u128().unwrap();
            r.bytes().unwrap();
            r.bytes().unwrap();
            bytes.len() - r.remaining()
        };
        let second = skip(&mut r);
        let end = skip(&mut r);
        let mut payload = bytes[payload_start..first].to_vec();
        payload.extend_from_slice(&bytes[second..end]);
        payload.extend_from_slice(&bytes[first..second]);
        let out = armor(CACHE_MAGIC, CACHE_VERSION, |w| w.raw(&payload));
        assert_eq!(
            FunctionCache::from_bytes(&out).unwrap_err(),
            DecodeError::Corrupt
        );
    }

    #[test]
    fn cache_hit_miss_accounting() {
        let cache = FunctionCache::new();
        let f = Function::new("f", vec![], None);
        let key = Fingerprint(7);
        assert!(cache.lookup(key).is_none());
        cache.insert(key, f.clone());
        assert_eq!(cache.lookup(key).unwrap().name, "f");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    /// Keys that land in the same shard: the low 4 bits pick the shard, so
    /// multiples of [`SHARD_COUNT`] all collide on shard 0.
    fn same_shard_key(i: u128) -> Fingerprint {
        Fingerprint(i * SHARD_COUNT as u128)
    }

    #[test]
    fn full_shard_evicts_oldest_unreferenced() {
        // Per-shard capacity of 2.
        let cache = FunctionCache::with_capacity(2 * SHARD_COUNT);
        let f = Function::new("f", vec![], None);
        cache.insert(same_shard_key(0), f.clone());
        cache.insert(same_shard_key(1), f.clone());
        cache.insert(same_shard_key(2), f.clone());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.lookup(same_shard_key(0)).is_none(), "oldest evicted");
        assert!(cache.lookup(same_shard_key(1)).is_some());
        assert!(cache.lookup(same_shard_key(2)).is_some());
    }

    #[test]
    fn second_chance_spares_referenced_entries() {
        let cache = FunctionCache::with_capacity(2 * SHARD_COUNT);
        let f = Function::new("f", vec![], None);
        cache.insert(same_shard_key(0), f.clone());
        cache.insert(same_shard_key(1), f.clone());
        // Reference the oldest entry: it must survive the next eviction.
        assert!(cache.lookup(same_shard_key(0)).is_some());
        cache.insert(same_shard_key(2), f.clone());
        assert!(
            cache.lookup(same_shard_key(0)).is_some(),
            "referenced entry granted a second chance"
        );
        assert!(
            cache.lookup(same_shard_key(1)).is_none(),
            "unreferenced entry evicted instead"
        );
        assert!(cache.lookup(same_shard_key(2)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_in_place_without_eviction() {
        let cache = FunctionCache::with_capacity(SHARD_COUNT);
        let f = Function::new("f", vec![], None);
        let g = Function::new("g", vec![], None);
        let key = same_shard_key(3);
        cache.insert(key, f);
        cache.insert(key, g);
        assert_eq!(cache.lookup(key).unwrap().name, "g");
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (0, 1));
    }

    #[test]
    fn concurrent_access_is_safe_and_counts_add_up() {
        let cache = FunctionCache::new();
        let f = Function::new("f", vec![], None);
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let cache = &cache;
                let f = f.clone();
                s.spawn(move || {
                    for i in 0..64u128 {
                        let key = Fingerprint(t * 1000 + i);
                        cache.insert(key, f.clone());
                        assert!(cache.lookup(key).is_some());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 4 * 64);
        assert_eq!(stats.entries, 4 * 64);
    }
}
