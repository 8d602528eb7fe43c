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

use sfcc_codec::{fnv64, DecodeError, Reader, Writer};
use sfcc_ir::{fingerprint, Fingerprint, Function, Module, Op};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default maximum number of cached functions across all shards.
pub const CACHE_CAP: usize = 8192;

/// Number of independently locked shards (a power of two).
pub const SHARD_COUNT: usize = 16;

/// A cached function body plus its second-chance referenced bit.
#[derive(Debug)]
struct Entry {
    func: Function,
    referenced: bool,
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
    misses: AtomicU64,
    evictions: AtomicU64,
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
    /// Lookups that missed (and later populated the cache).
    pub misses: u64,
    /// Entries evicted by the second-chance policy.
    pub evictions: u64,
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
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
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
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().entries.len())
                .sum(),
        }
    }

    /// Looks up the optimized IR for a context fingerprint, marking the
    /// entry recently used.
    pub fn lookup(&self, key: Fingerprint) -> Option<Function> {
        let mut shard = self.shards[Self::shard_of(key)].lock().unwrap();
        match shard.entries.get_mut(&key) {
            Some(e) => {
                e.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.func.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores optimized IR under a context fingerprint, evicting by
    /// second chance when the target shard is full.
    pub fn insert(&self, key: Fingerprint, optimized: Function) {
        let mut guard = self.shards[Self::shard_of(key)].lock().unwrap();
        let shard = &mut *guard;
        if let Some(e) = shard.entries.get_mut(&key) {
            e.func = optimized;
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
                shard.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(
            key,
            Entry {
                func: optimized,
                referenced: false,
            },
        );
        shard.order.push_back(key);
    }

    /// Serializes the cache: entries are stored as canonical IR text (the
    /// printer/parser round-trip is exact, see `sfcc-ir`'s property tests),
    /// behind the usual magic/version/checksum armor. The on-disk format is
    /// key-sorted and shard-agnostic, so it is independent of both the
    /// shard layout and any concurrent access pattern.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut items: Vec<(u128, String, String)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for (key, e) in &shard.entries {
                items.push((
                    key.0,
                    e.func.name.clone(),
                    sfcc_ir::function_to_string(&e.func),
                ));
            }
        }
        items.sort();
        let mut payload = Writer::new();
        payload.u64(self.identity);
        payload.usize(items.len());
        for (key, name, text) in &items {
            payload.u128(*key);
            payload.str(name);
            payload.str(text);
        }
        let payload = payload.into_bytes();
        let mut out = Writer::new();
        out.raw(CACHE_MAGIC);
        out.u32(CACHE_VERSION);
        out.raw(&payload);
        out.u64(fnv64(&payload));
        out.into_bytes()
    }

    /// Deserializes a cache; any malformed input fails (callers cold-start).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for corrupt or version-skewed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < CACHE_MAGIC.len() || &bytes[..CACHE_MAGIC.len()] != CACHE_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let mut r = Reader::new(&bytes[CACHE_MAGIC.len()..]);
        let version = r.u32()?;
        if version != CACHE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let payload_start = bytes.len() - r.remaining();
        let cache = FunctionCache::for_identity(r.u64()?);
        let count = r.usize()?;
        if count > r.remaining() {
            return Err(DecodeError::BadLength);
        }
        for _ in 0..count {
            let key = Fingerprint(r.u128()?);
            let name = r.str()?;
            let text = r.str()?;
            let mut func = sfcc_ir::parse_function(&text).map_err(|_| DecodeError::Corrupt)?;
            func.name = name;
            // Place directly, bypassing eviction: a saved cache already
            // respects the capacity it was written with.
            let mut guard = cache.shards[Self::shard_of(key)].lock().unwrap();
            let shard = &mut *guard;
            shard.entries.insert(
                key,
                Entry {
                    func,
                    referenced: false,
                },
            );
            shard.order.push_back(key);
        }
        let payload_end = bytes.len() - r.remaining();
        let declared = r.u64()?;
        if !r.is_done() || fnv64(&bytes[payload_start..payload_end]) != declared {
            return Err(DecodeError::Corrupt);
        }
        Ok(cache)
    }
}

const CACHE_MAGIC: &[u8; 7] = b"SFCCIC\0";
/// Current cache-file format version.
pub const CACHE_VERSION: u32 = 2;

/// Computes the context fingerprint of every cacheable function in a
/// pre-optimization module. Functions involved in (or depending on) local
/// call cycles are absent from the result.
pub fn context_fingerprints(module: &Module) -> HashMap<String, Fingerprint> {
    let local_prefix = format!("{}.", module.name);

    // Per function: sorted local callee names and sorted foreign targets.
    let mut local_callees: HashMap<&str, Vec<String>> = HashMap::new();
    let mut foreign_callees: HashMap<&str, Vec<String>> = HashMap::new();
    for f in &module.functions {
        let mut local: Vec<String> = Vec::new();
        let mut foreign: Vec<String> = Vec::new();
        for (_, iid) in f.iter_insts() {
            if let Op::Call(target) = &f.inst(iid).op {
                match target.strip_prefix(&local_prefix) {
                    Some(name) if module.function(name).is_some() => local.push(name.to_string()),
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

    let body_fp: HashMap<&str, Fingerprint> = module
        .functions
        .iter()
        .map(|f| (f.name.as_str(), fingerprint(f)))
        .collect();

    // Fixpoint: a function resolves once all its local callees resolved.
    // Anything never resolved sits on (or behind) a call cycle — including
    // self-recursion — and is left out, i.e. uncacheable.
    let mut resolved: HashMap<String, Fingerprint> = HashMap::new();
    loop {
        let mut progressed = false;
        for f in &module.functions {
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
