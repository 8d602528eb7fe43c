//! `sfcc-query` — a demand-driven incremental computation engine.
//!
//! The build system, the compiler's phase pipeline, and the dormancy state
//! each used to carry their own hand-rolled invalidation logic. This crate
//! factors the mechanism out into one generic engine in the style of
//! PIE / salsa (see "Constructing Hybrid Incremental Compilers", Smits,
//! Konat & Visser): every computation step is a memoized **task** with
//! dynamically tracked dependencies, and incrementality falls out of two
//! complementary traversals:
//!
//! - **bottom-up invalidation** ([`Engine::begin_session`]): stamps of all
//!   previously read *inputs* are refreshed; tasks that read a changed input
//!   — and, transitively, their dependents — are marked dirty. Everything
//!   else is validated wholesale without touching a single dependency edge,
//!   so a no-op rebuild is O(inputs), not O(tasks × deps).
//! - **top-down demand** ([`Engine::require`]): a dirty task re-checks its
//!   recorded dependencies *in order* ("try-mark-green"): a dependency that
//!   validates is compared by fingerprint alone, one that does not executes
//!   first; a task only re-executes when an input stamp or a dependency's
//!   output **fingerprint** actually differs. An execution whose output
//!   fingerprint is unchanged terminates invalidation early ("early
//!   cutoff"): dependents validate against the fingerprint and never re-run.
//!
//! Dependencies are recorded *while a task executes* (through [`Ctx`]), so
//! the dependency graph always reflects the last execution — conditional
//! reads, changed import lists, and removed tasks all invalidate precisely.
//! Demand cycles are detected and reported as [`QueryError::Cycle`] rather
//! than hanging or overflowing the stack.
//!
//! A node's *value* is optional. What validation reads — output fingerprint
//! and dependency trace — can be [exported](Engine::export) and
//! [restored](Engine::restore) without any value, so a new process starts
//! from the graph the last one recorded. One rule covers such nodes:
//! **validation never needs a value; a demand of a valid node without one
//! [loads](TaskSpec::load) it, or else re-executes the task to
//! rematerialize it** — a hit, counted apart ([`SessionStats::loaded`],
//! [`SessionStats::rematerialized`]), unless the re-execution moved the
//! fingerprint validation vouched for, which is a miss.
//!
//! The engine is deliberately free of domain knowledge: keys, values,
//! errors, task bodies, fingerprints, and input stamps are all supplied by a
//! [`TaskSpec`] implementation (the compiler's lives in `sfcc-buildsys`).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// The domain a [`Engine`] computes over: task keys, their values, and how
/// to execute, fingerprint, and stamp them.
///
/// The spec is passed `&mut` into every engine call (rather than owned by
/// the engine) so task bodies can borrow build-wide context — source trees,
/// compiler sessions — without self-referential lifetimes.
pub trait TaskSpec {
    /// Identifies a task (e.g. "optimize module `lib`").
    type Key: Clone + Eq + Hash + fmt::Debug;
    /// What a task produces. Cloned on every cache hit, so implementations
    /// should be cheap to clone (`Arc` payloads).
    type Value: Clone;
    /// A task body's failure.
    type Error;

    /// Executes one task. Dependencies must be acquired through `ctx` (not
    /// read out-of-band) so the engine can record them.
    ///
    /// # Errors
    ///
    /// Domain failures are wrapped in [`QueryError::Task`]; dependency
    /// failures from [`Ctx::require`] propagate with `?`. A failed task is
    /// left un-memoized and will re-execute on next demand.
    fn execute(
        &mut self,
        key: &Self::Key,
        ctx: &mut Ctx<'_, Self>,
    ) -> Result<Self::Value, QueryError<Self::Key, Self::Error>>;

    /// A stable hash of a task's output, compared across builds to decide
    /// whether dependents must re-run (early cutoff). Two equal fingerprints
    /// must imply "dependents cannot observe a difference".
    fn fingerprint(&self, key: &Self::Key, value: &Self::Value) -> u64;

    /// The current stamp of a named input cell (a file's content hash, a
    /// state record's version). A changed stamp invalidates its readers.
    fn input_stamp(&mut self, input: &str) -> u64;

    /// The value of a task the store holds as valid but without a value (a
    /// node [restored](Engine::restore) from a persisted graph), when the
    /// domain kept it elsewhere. Asked once per demand of such a node;
    /// `None` — the default — makes the engine rematerialize the value by
    /// executing the task. A loaded value must be the one the node's
    /// fingerprint was taken of.
    fn load(&mut self, _key: &Self::Key) -> Option<Self::Value> {
        None
    }

    /// Observation hook: called exactly once per task per session, at the
    /// moment the engine accounts the demand as a hit (`hit == true`:
    /// validated without executing — its value served, loaded or
    /// rematerialized) or a miss (`hit == false`: executed). The calls
    /// mirror [`SessionStats`] one-for-one, in demand order. Default: no-op;
    /// domains use it to feed telemetry (trace events, metrics) without the
    /// engine knowing about either.
    fn observe(&mut self, _key: &Self::Key, _hit: bool) {}
}

/// One recorded dependency of a task, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dep<K> {
    /// A read of a named input cell, with the stamp observed then.
    Input {
        /// Input cell name (domain-defined, e.g. `src:lib`).
        name: String,
        /// Stamp at the time of the read.
        stamp: u64,
    },
    /// A demand of another task, with the output fingerprint observed then.
    Task {
        /// The demanded task.
        key: K,
        /// Its output fingerprint at the time of the demand.
        fingerprint: u64,
    },
}

/// Why a demand failed.
#[derive(Debug)]
pub enum QueryError<K, E> {
    /// The demand chain closed a cycle; the path repeats its first element
    /// at the end.
    Cycle(Vec<K>),
    /// A task body failed.
    Task(E),
}

impl<K: fmt::Debug, E: fmt::Display> fmt::Display for QueryError<K, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Cycle(path) => {
                write!(f, "task cycle: ")?;
                for (i, key) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{key:?}")?;
                }
                Ok(())
            }
            QueryError::Task(e) => write!(f, "{e}"),
        }
    }
}

/// A memoized task: its last output, fingerprint, and dependency trace.
#[derive(Debug)]
struct Node<K, V> {
    /// `None` for a node restored without its output ([`Engine::restore`]):
    /// it validates like any other, and is loaded or rematerialized when
    /// demanded.
    value: Option<V>,
    fingerprint: u64,
    /// Dependencies of the last execution, in the order they were acquired.
    deps: Vec<Dep<K>>,
    /// Session in which this node was last demanded-and-validated (counted
    /// in the hit/miss statistics).
    verified: u64,
    /// Session in which this node was last pre-validated (bottom-up phase
    /// found no changed input underneath it, or a demand-time dependency
    /// walk came up clean) without being demanded itself.
    clean: u64,
}

/// The `verified`/`clean` stamp of a node no session has validated yet (the
/// session counter never reaches it).
const NEVER: u64 = u64::MAX;

/// One memoized task as [`Engine::export`] hands it out: key, output
/// fingerprint, dependency trace, and the value when it is on hand.
pub type Exported<'e, K, V> = (&'e K, u64, &'e [Dep<K>], Option<&'e V>);

/// The execution context handed to [`TaskSpec::execute`]: records the
/// running task's dependencies as they are acquired.
pub struct Ctx<'e, S: TaskSpec + ?Sized> {
    engine: &'e mut Engine<S::Key, S::Value>,
    deps: &'e mut Vec<Dep<S::Key>>,
}

impl<S: TaskSpec + ?Sized> Ctx<'_, S> {
    /// Demands another task and records the edge (with the dependency's
    /// fingerprint) on the running task.
    ///
    /// # Errors
    ///
    /// Propagates the dependency's failure or a detected cycle.
    pub fn require(
        &mut self,
        spec: &mut S,
        key: &S::Key,
    ) -> Result<S::Value, QueryError<S::Key, S::Error>> {
        let value = self.engine.require(spec, key)?;
        let fingerprint = self
            .engine
            .fingerprint_of(key)
            .expect("a required task is memoized");
        self.deps.push(Dep::Task {
            key: key.clone(),
            fingerprint,
        });
        Ok(value)
    }

    /// Reads a named input cell, recording the dependency with its current
    /// stamp (session-cached, so each input is stamped once per build).
    pub fn input(&mut self, spec: &mut S, name: &str) -> u64 {
        let stamp = self.engine.stamp_of(spec, name);
        self.deps.push(Dep::Input {
            name: name.to_string(),
            stamp,
        });
        stamp
    }

    /// Records an input dependency with an explicitly supplied stamp, for
    /// inputs the running task itself just wrote (e.g. a state record it
    /// updated): the dependency must hold the *post*-write stamp, or the
    /// task would invalidate itself every session.
    pub fn record_input(&mut self, name: &str, stamp: u64) {
        self.engine.input_cache.insert(name.to_string(), stamp);
        self.deps.push(Dep::Input {
            name: name.to_string(),
            stamp,
        });
    }
}

/// Per-session demand statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Distinct tasks demanded and validated from the store without
    /// executing — their value served, loaded or rematerialized.
    pub hits: u64,
    /// Distinct tasks that (re-)executed.
    pub misses: u64,
    /// Hits whose value came from [`TaskSpec::load`].
    pub loaded: u64,
    /// Hits whose value was recomputed by executing the task, with the
    /// fingerprint validation vouched for: valid, nothing on hand, nothing
    /// to load. Not misses, and never in [`Engine::executed_keys`].
    pub rematerialized: u64,
}

/// The incremental engine: a persistent store of memoized task outputs and
/// their dependency traces, plus the session bookkeeping driving
/// invalidation and demand.
#[derive(Debug)]
pub struct Engine<K, V> {
    nodes: HashMap<K, Node<K, V>>,
    /// Monotonic build-session counter (see [`Engine::begin_session`]).
    session: u64,
    /// Demand stack, for cycle detection.
    stack: Vec<K>,
    /// Keys executed this session, in completion order.
    executed: Vec<K>,
    /// Keys rematerialized this session, in completion order.
    rematerialized: Vec<K>,
    /// Keys whose rematerialization this session moved their fingerprint.
    moved: Vec<K>,
    stats: SessionStats,
    /// Input stamps observed this session (one [`TaskSpec::input_stamp`]
    /// call per input per session).
    input_cache: HashMap<String, u64>,
}

impl<K, V> Default for Engine<K, V>
where
    K: Clone + Eq + Hash + fmt::Debug,
    V: Clone,
{
    fn default() -> Self {
        Engine::new()
    }
}

impl<K, V> Engine<K, V>
where
    K: Clone + Eq + Hash + fmt::Debug,
    V: Clone,
{
    /// An empty engine (every first demand will execute).
    pub fn new() -> Self {
        Engine {
            nodes: HashMap::new(),
            session: 0,
            stack: Vec::new(),
            executed: Vec::new(),
            rematerialized: Vec::new(),
            moved: Vec::new(),
            stats: SessionStats::default(),
            input_cache: HashMap::new(),
        }
    }

    /// Opens a build session: resets per-session statistics, re-stamps every
    /// previously read input, and performs **bottom-up invalidation** —
    /// tasks whose inputs changed (or whose dependency tasks were dropped
    /// from the store) and their transitive dependents are marked for
    /// demand-time re-verification; all other tasks are validated wholesale.
    pub fn begin_session<S>(&mut self, spec: &mut S)
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        self.session += 1;
        self.stats = SessionStats::default();
        self.executed.clear();
        self.rematerialized.clear();
        self.moved.clear();
        self.stack.clear();
        self.input_cache.clear();

        // Refresh every input stamp once.
        let mut names: Vec<&str> = self
            .nodes
            .values()
            .flat_map(|node| node.deps.iter())
            .filter_map(|dep| match dep {
                Dep::Input { name, .. } => Some(name.as_str()),
                Dep::Task { .. } => None,
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        let fresh: HashMap<String, u64> = names
            .iter()
            .map(|&name| (name.to_string(), spec.input_stamp(name)))
            .collect();
        self.input_cache = fresh;

        // Seed the dirty set with direct readers of changed inputs, tasks
        // whose dependency tasks no longer exist, and tasks whose recorded
        // dependency fingerprint disagrees with the store's current one.
        // The last case arises only after a *failed* build: a dependency
        // re-executed with a new fingerprint, then the session aborted
        // before this dependent could re-run, leaving a cross-session
        // inconsistency that input stamps no longer reflect.
        let mut dirty: HashSet<&K> = HashSet::new();
        for (key, node) in &self.nodes {
            let invalidated = node.deps.iter().any(|dep| match dep {
                Dep::Input { name, stamp } => self.input_cache[name] != *stamp,
                Dep::Task {
                    key: dep_key,
                    fingerprint,
                } => self
                    .nodes
                    .get(dep_key)
                    .is_none_or(|dep_node| dep_node.fingerprint != *fingerprint),
            });
            if invalidated {
                dirty.insert(key);
            }
        }

        // Propagate dirtiness along reverse dependency edges.
        let mut rdeps: HashMap<&K, Vec<&K>> = HashMap::new();
        for (key, node) in &self.nodes {
            for dep in &node.deps {
                if let Dep::Task { key: dep_key, .. } = dep {
                    rdeps.entry(dep_key).or_default().push(key);
                }
            }
        }
        let mut frontier: Vec<&K> = dirty.iter().copied().collect();
        while let Some(key) = frontier.pop() {
            for &dependent in rdeps.get(key).into_iter().flatten() {
                if dirty.insert(dependent) {
                    frontier.push(dependent);
                }
            }
        }

        // Everything untouched by a change is valid for the whole session.
        let session = self.session;
        let dirty: HashSet<K> = dirty.into_iter().cloned().collect();
        for (key, node) in &mut self.nodes {
            if !dirty.contains(key) {
                node.clean = session;
            }
        }
    }

    /// Demands a task: validates it against its recorded dependencies and
    /// returns the memoized value, executing only when an input stamp or a
    /// dependency fingerprint differs from what the last execution saw. A
    /// valid node without a value gets it from [`TaskSpec::load`], or else
    /// by executing the task again — a rematerialization, which is a miss
    /// only if it moves the fingerprint validation vouched for.
    ///
    /// # Errors
    ///
    /// [`QueryError::Cycle`] when the demand chain closes on itself,
    /// [`QueryError::Task`] when the task (or a transitive dependency)
    /// fails; failed tasks stay un-memoized.
    pub fn require<S>(&mut self, spec: &mut S, key: &K) -> Result<V, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        if !self.up_to_date(spec, key)? {
            let mut deps = Vec::new();
            let value = self.run(spec, key, &mut deps)?;
            let fingerprint = spec.fingerprint(key, &value);
            self.nodes.insert(
                key.clone(),
                Node {
                    value: Some(value.clone()),
                    fingerprint,
                    deps,
                    verified: self.session,
                    clean: self.session,
                },
            );
            self.count_miss(spec, key);
            return Ok(value);
        }

        let node = self.nodes.get_mut(key).expect("a valid task is memoized");
        if let Some(value) = &node.value {
            let value = value.clone();
            if node.verified != self.session {
                node.verified = self.session;
                self.stats.hits += 1;
                spec.observe(key, true);
            }
            return Ok(value);
        }

        // Valid, but its value is not on hand.
        let value = match spec.load(key) {
            Some(value) => {
                self.stats.loaded += 1;
                value
            }
            None => {
                let mut deps = Vec::new();
                let value = self.run(spec, key, &mut deps)?;
                let fingerprint = spec.fingerprint(key, &value);
                let node = self.nodes.get_mut(key).expect("a valid task is memoized");
                node.deps = deps;
                if fingerprint != node.fingerprint {
                    node.fingerprint = fingerprint;
                    node.value = Some(value.clone());
                    node.verified = self.session;
                    self.moved.push(key.clone());
                    self.count_miss(spec, key);
                    return Ok(value);
                }
                self.stats.rematerialized += 1;
                self.rematerialized.push(key.clone());
                value
            }
        };
        let node = self.nodes.get_mut(key).expect("a valid task is memoized");
        node.value = Some(value.clone());
        node.verified = self.session;
        self.stats.hits += 1;
        spec.observe(key, true);
        Ok(value)
    }

    /// Executes a task's body, recording its fresh dependencies into
    /// `deps`.
    fn run<S>(
        &mut self,
        spec: &mut S,
        key: &K,
        deps: &mut Vec<Dep<K>>,
    ) -> Result<V, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        self.stack.push(key.clone());
        let result = spec.execute(key, &mut Ctx { engine: self, deps });
        self.stack.pop();
        result
    }

    fn count_miss<S>(&mut self, spec: &mut S, key: &K)
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        self.stats.misses += 1;
        self.executed.push(key.clone());
        spec.observe(key, false);
    }

    /// Checks whether a demand of the task would be a hit, *without
    /// executing it*: the node is valid, whether or not its value is on
    /// hand. Dependency tasks that do not validate execute (they must be
    /// current for the answer to mean anything); a clean verdict is
    /// remembered so the follow-up [`Engine::require`] is O(1).
    ///
    /// Build drivers use this to plan: modules whose tasks are out of date
    /// can be pre-compiled in parallel before being demanded one by one.
    ///
    /// # Errors
    ///
    /// Propagates dependency failures and cycles.
    pub fn up_to_date<S>(&mut self, spec: &mut S, key: &K) -> Result<bool, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        if let Some(position) = self.stack.iter().position(|k| k == key) {
            let mut path: Vec<K> = self.stack[position..].to_vec();
            path.push(key.clone());
            return Err(QueryError::Cycle(path));
        }
        match self.nodes.get(key) {
            None => return Ok(false),
            Some(node) if node.verified == self.session || node.clean == self.session => {
                return Ok(true)
            }
            Some(_) => {}
        }
        // Demand-time verification of the recorded dependency trace, in
        // acquisition order, stopping at the first mismatch.
        self.stack.push(key.clone());
        let outcome = self.deps_hold(spec, key);
        self.stack.pop();
        let holds = outcome?;
        if holds {
            self.nodes.get_mut(key).expect("checked above").clean = self.session;
        }
        Ok(holds)
    }

    /// Whether every recorded dependency of `key` still holds — try-mark-
    /// green: a dependency that validates is compared by its fingerprint
    /// without touching its value; only one that does not is executed
    /// first. Requires the node to exist; the caller manages the cycle
    /// stack.
    fn deps_hold<S>(&mut self, spec: &mut S, key: &K) -> Result<bool, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        let deps = self.nodes[key].deps.clone();
        for dep in deps {
            match dep {
                Dep::Input { name, stamp } => {
                    if self.stamp_of(spec, &name) != stamp {
                        return Ok(false);
                    }
                }
                Dep::Task {
                    key: dep_key,
                    fingerprint,
                } => {
                    if !self.up_to_date(spec, &dep_key)? {
                        self.require(spec, &dep_key)?;
                    }
                    if self.fingerprint_of(&dep_key) != Some(fingerprint) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// The session-cached stamp of an input (stamping it now if unseen).
    fn stamp_of<S>(&mut self, spec: &mut S, name: &str) -> u64
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        if let Some(&stamp) = self.input_cache.get(name) {
            return stamp;
        }
        let stamp = spec.input_stamp(name);
        self.input_cache.insert(name.to_string(), stamp);
        stamp
    }

    /// The memoized value of a task, if present (no validation). `None` also
    /// for a restored task whose value has not been loaded or recomputed.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.nodes.get(key).and_then(|node| node.value.as_ref())
    }

    /// Whether `key` is known to be valid *right now*, without walking a
    /// dependency edge or executing anything: the session's bottom-up
    /// invalidation (or an earlier demand or probe) found the task current.
    /// Its value may still have to be loaded or rematerialized. Build
    /// drivers ask this to leave alone what no change reached — the root
    /// task of a no-op request, the modules an edit did not touch.
    pub fn is_valid(&self, key: &K) -> bool {
        self.nodes
            .get(key)
            .is_some_and(|node| node.verified == self.session || node.clean == self.session)
    }

    /// The memoized output fingerprint of a task, if present.
    pub fn fingerprint_of(&self, key: &K) -> Option<u64> {
        self.nodes.get(key).map(|node| node.fingerprint)
    }

    /// Everything validation reads, for persisting — each memoized task's
    /// key, output fingerprint and dependency trace — plus its value when on
    /// hand, in an order that depends on the store's content alone, so equal
    /// stores export equally whatever order they were filled in: by
    /// fingerprint (an integer compare settles almost every pair), then by
    /// key.
    pub fn export(&self) -> Vec<Exported<'_, K, V>>
    where
        K: Ord,
    {
        let mut nodes: Vec<Exported<'_, K, V>> = self
            .nodes
            .iter()
            .map(|(key, node)| {
                (
                    key,
                    node.fingerprint,
                    node.deps.as_slice(),
                    node.value.as_ref(),
                )
            })
            .collect();
        nodes.sort_unstable_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        nodes
    }

    /// Re-creates one task of an [exported](Engine::export) store, without
    /// its value. The next [`Engine::begin_session`] validates the node
    /// against its recorded inputs like any other; it then counts as current
    /// for its dependents, and a demand of it loads or rematerializes its
    /// value.
    pub fn restore(&mut self, key: K, fingerprint: u64, deps: Vec<Dep<K>>) {
        self.nodes.insert(
            key,
            Node {
                value: None,
                fingerprint,
                deps,
                verified: NEVER,
                clean: NEVER,
            },
        );
    }

    /// Drops memoized tasks whose key fails the predicate (e.g. tasks of
    /// modules that left the project). Dependents of a dropped task are
    /// invalidated on the next [`Engine::begin_session`].
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.nodes.retain(|key, _| keep(key));
    }

    /// Drops the entire store; the next build re-executes everything.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Number of memoized tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Hit/miss counters of the current session.
    pub fn session_stats(&self) -> SessionStats {
        self.stats
    }

    /// Keys executed this session, in completion order.
    pub fn executed_keys(&self) -> &[K] {
        &self.executed
    }

    /// Keys rematerialized this session (executed again for a value only,
    /// fingerprint unchanged), in completion order.
    pub fn rematerialized_keys(&self) -> &[K] {
        &self.rematerialized
    }

    /// Keys whose rematerialization this session produced a fingerprint
    /// other than the one validation had vouched for — counted as misses,
    /// and among [`Engine::executed_keys`]. Whatever spared them was wrong:
    /// a lying input stamp, or a task that is not a function of its deps.
    pub fn moved_keys(&self) -> &[K] {
        &self.moved
    }

    /// The dependency trace recorded for a memoized task, if present — the
    /// engine's *declared* view of what the task read, in declaration order.
    /// This is what the depcheck layer diffs against actual accesses.
    pub fn deps_of(&self, key: &K) -> Option<&[Dep<K>]> {
        self.nodes.get(key).map(|node| node.deps.as_slice())
    }

    /// Keys validated this session *without* executing — demanded cache
    /// hits (`verified`) and tasks the wholesale invalidation walk judged
    /// current (`clean`). For each, the recorded input stamps were judged
    /// unchanged — a depcheck staleness audit re-derives those stamps from
    /// the raw inputs and flags any divergence as a suppressed
    /// invalidation.
    pub fn verified_hit_keys(&self) -> Vec<K> {
        self.nodes
            .iter()
            .filter(|(key, node)| {
                (node.verified == self.session || node.clean == self.session)
                    && !self.executed.contains(key)
            })
            .map(|(key, _)| key.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy domain: integer input cells, `Get` tasks reading them, `Abs`
    /// of a cell (for cutoff tests), `Pair` of one cell's `Abs` and another
    /// cell, and `Sum` of all cells listed in the `cells` input. Executions
    /// are counted per key; `stored` values are what `load` hands out, and
    /// `bias` is a read `Dbl` does not declare.
    struct Calc {
        cells: HashMap<String, i64>,
        roster: Vec<&'static str>,
        runs: HashMap<Task, usize>,
        fail_on: Option<Task>,
        observed: Vec<(Task, bool)>,
        stored: HashMap<Task, i64>,
        bias: i64,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Task {
        Get(&'static str),
        Abs(&'static str),
        Dbl(&'static str),
        Pair(&'static str, &'static str),
        Sum,
        Selfish,
        Ping,
        Pong,
    }

    impl Calc {
        fn new(cells: &[(&'static str, i64)]) -> Calc {
            Calc {
                cells: cells.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                roster: cells.iter().map(|(k, _)| *k).collect(),
                runs: HashMap::new(),
                fail_on: None,
                observed: Vec::new(),
                stored: HashMap::new(),
                bias: 0,
            }
        }

        fn runs_of(&self, task: &Task) -> usize {
            self.runs.get(task).copied().unwrap_or(0)
        }
    }

    impl TaskSpec for Calc {
        type Key = Task;
        type Value = i64;
        type Error = String;

        fn execute(
            &mut self,
            key: &Task,
            ctx: &mut Ctx<'_, Self>,
        ) -> Result<i64, QueryError<Task, String>> {
            *self.runs.entry(key.clone()).or_insert(0) += 1;
            if self.fail_on.as_ref() == Some(key) {
                return Err(QueryError::Task(format!("{key:?} failed")));
            }
            match key {
                Task::Get(cell) => {
                    ctx.input(self, cell);
                    Ok(self.cells[*cell])
                }
                Task::Abs(cell) => Ok(ctx.require(self, &Task::Get(cell))?.abs()),
                Task::Dbl(cell) => Ok(ctx.require(self, &Task::Abs(cell))? * 2 + self.bias),
                Task::Pair(x, y) => {
                    Ok(ctx.require(self, &Task::Abs(x))? + ctx.require(self, &Task::Get(y))?)
                }
                Task::Sum => {
                    ctx.input(self, "roster");
                    let roster = self.roster.clone();
                    let mut total = 0;
                    for cell in roster {
                        total += ctx.require(self, &Task::Get(cell))?;
                    }
                    Ok(total)
                }
                Task::Selfish => ctx.require(self, &Task::Selfish),
                Task::Ping => ctx.require(self, &Task::Pong),
                Task::Pong => ctx.require(self, &Task::Ping),
            }
        }

        fn fingerprint(&self, _key: &Task, value: &i64) -> u64 {
            *value as u64
        }

        fn input_stamp(&mut self, input: &str) -> u64 {
            if input == "roster" {
                return self.roster.len() as u64;
            }
            self.cells.get(input).copied().unwrap_or(i64::MIN) as u64
        }

        fn load(&mut self, key: &Task) -> Option<i64> {
            self.stored.remove(key)
        }

        fn observe(&mut self, key: &Task, hit: bool) {
            self.observed.push((key.clone(), hit));
        }
    }

    fn session(engine: &mut Engine<Task, i64>, spec: &mut Calc) {
        engine.begin_session(spec);
    }

    #[test]
    fn memoizes_within_and_across_sessions() {
        let mut spec = Calc::new(&[("a", 2), ("b", 3)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Sum).unwrap(), 5);
        assert_eq!(engine.require(&mut spec, &Task::Sum).unwrap(), 5);
        assert_eq!(spec.runs_of(&Task::Sum), 1);
        assert_eq!(engine.session_stats().misses, 3); // Sum, Get(a), Get(b)

        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Sum).unwrap(), 5);
        assert_eq!(
            spec.runs_of(&Task::Sum),
            1,
            "no-op session must not re-execute"
        );
        assert_eq!(
            engine.session_stats(),
            SessionStats {
                hits: 1,
                ..SessionStats::default()
            }
        );
    }

    #[test]
    fn deps_of_and_verified_hits_expose_declared_view() {
        let mut spec = Calc::new(&[("a", 2), ("b", 3)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();
        let deps = engine.deps_of(&Task::Sum).unwrap();
        assert_eq!(
            deps,
            &[
                Dep::Input {
                    name: "roster".into(),
                    stamp: 2
                },
                Dep::Task {
                    key: Task::Get("a"),
                    fingerprint: 2
                },
                Dep::Task {
                    key: Task::Get("b"),
                    fingerprint: 3
                },
            ]
        );
        assert!(engine.deps_of(&Task::Abs("a")).is_none());
        assert!(engine.verified_hit_keys().is_empty(), "all executed");

        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();
        let mut hits = engine.verified_hit_keys();
        hits.sort_by_key(|k| format!("{k:?}"));
        assert_eq!(hits, vec![Task::Get("a"), Task::Get("b"), Task::Sum]);
    }

    #[test]
    fn changed_input_invalidates_bottom_up() {
        let mut spec = Calc::new(&[("a", 2), ("b", 3)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();

        spec.cells.insert("a".into(), 10);
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Sum).unwrap(), 13);
        assert_eq!(spec.runs_of(&Task::Sum), 2);
        assert_eq!(spec.runs_of(&Task::Get("a")), 2);
        assert_eq!(
            spec.runs_of(&Task::Get("b")),
            1,
            "untouched input stays memoized"
        );
    }

    #[test]
    fn unchanged_fingerprint_cuts_off_early() {
        let mut spec = Calc::new(&[("a", -4)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Dbl("a")).unwrap(), 8);

        // The input flips sign: Get and Abs re-execute, but Abs's
        // fingerprint (|−4| = |4|) is identical — Dbl must not re-run.
        spec.cells.insert("a".into(), 4);
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Dbl("a")).unwrap(), 8);
        assert_eq!(spec.runs_of(&Task::Get("a")), 2);
        assert_eq!(spec.runs_of(&Task::Abs("a")), 2);
        assert_eq!(spec.runs_of(&Task::Dbl("a")), 1, "cutoff failed");
        assert_eq!(
            engine.session_stats(),
            SessionStats {
                hits: 1,
                misses: 2,
                ..SessionStats::default()
            }
        );
    }

    #[test]
    fn self_cycle_is_reported() {
        let mut spec = Calc::new(&[]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        match engine.require(&mut spec, &Task::Selfish) {
            Err(QueryError::Cycle(path)) => {
                assert_eq!(path, vec![Task::Selfish, Task::Selfish]);
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn mutual_cycle_is_reported_with_path() {
        let mut spec = Calc::new(&[]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        match engine.require(&mut spec, &Task::Ping) {
            Err(QueryError::Cycle(path)) => {
                assert_eq!(path.first(), path.last());
                assert!(path.len() >= 3, "{path:?}");
                let rendered = format!("{}", QueryError::<Task, String>::Cycle(path));
                assert!(rendered.contains("->"), "{rendered}");
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn failed_tasks_stay_unmemoized() {
        let mut spec = Calc::new(&[("a", 1)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        spec.fail_on = Some(Task::Get("a"));
        assert!(engine.require(&mut spec, &Task::Abs("a")).is_err());
        assert!(engine.peek(&Task::Get("a")).is_none());
        assert!(engine.peek(&Task::Abs("a")).is_none());

        spec.fail_on = None;
        assert_eq!(engine.require(&mut spec, &Task::Abs("a")).unwrap(), 1);
    }

    #[test]
    fn retained_store_invalidates_dependents_of_dropped_tasks() {
        let mut spec = Calc::new(&[("a", -7)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Abs("a")).unwrap();
        assert_eq!(engine.len(), 2);

        engine.retain(|key| !matches!(key, Task::Get(_)));
        assert_eq!(engine.len(), 1);
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Abs("a")).unwrap(), 7);
        // The dropped dependency re-executed; Abs validated against its
        // (unchanged) fingerprint and was not re-run.
        assert_eq!(spec.runs_of(&Task::Get("a")), 2);
        assert_eq!(spec.runs_of(&Task::Abs("a")), 1);
    }

    #[test]
    fn up_to_date_plans_without_executing_the_task() {
        let mut spec = Calc::new(&[("a", -2)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        assert!(!engine.up_to_date(&mut spec, &Task::Abs("a")).unwrap());
        assert_eq!(
            spec.runs_of(&Task::Abs("a")),
            0,
            "planning must not execute"
        );

        engine.require(&mut spec, &Task::Abs("a")).unwrap();
        spec.cells.insert("a".into(), 5);
        session(&mut engine, &mut spec);
        assert!(!engine.up_to_date(&mut spec, &Task::Abs("a")).unwrap());
        assert_eq!(spec.runs_of(&Task::Abs("a")), 1);
        // Planning executed the *dependency* (it had to, to know).
        assert_eq!(spec.runs_of(&Task::Get("a")), 2);

        // And a clean verdict is remembered for the follow-up demand.
        spec.cells.insert("a".into(), -5);
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Abs("a")).unwrap();
        session(&mut engine, &mut spec);
        assert!(engine.up_to_date(&mut spec, &Task::Abs("a")).unwrap());
        assert_eq!(engine.require(&mut spec, &Task::Abs("a")).unwrap(), 5);
        assert_eq!(engine.session_stats().misses, 0);
    }

    #[test]
    fn observe_mirrors_session_stats_once_per_task() {
        let mut spec = Calc::new(&[("a", 2), ("b", 3)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();
        // Repeated demand in the same session: no second observation.
        engine.require(&mut spec, &Task::Sum).unwrap();
        assert_eq!(
            spec.observed,
            vec![
                (Task::Get("a"), false),
                (Task::Get("b"), false),
                (Task::Sum, false),
            ]
        );

        spec.observed.clear();
        spec.cells.insert("a".into(), 9);
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();
        let stats = engine.session_stats();
        let hits = spec.observed.iter().filter(|(_, h)| *h).count() as u64;
        let misses = spec.observed.iter().filter(|(_, h)| !*h).count() as u64;
        assert_eq!((hits, misses), (stats.hits, stats.misses));
    }

    #[test]
    fn clear_forces_full_recomputation() {
        let mut spec = Calc::new(&[("a", 1), ("b", 2)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();
        engine.clear();
        assert!(engine.is_empty());
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();
        assert_eq!(spec.runs_of(&Task::Sum), 2);
        assert_eq!(engine.executed_keys().len(), 3);
    }

    /// A second engine holding what `engine` exports — no values, as a new
    /// process restoring a persisted graph would.
    fn restored_from(engine: &Engine<Task, i64>) -> Engine<Task, i64> {
        let mut fresh = Engine::new();
        for (key, fingerprint, deps, _) in engine.export() {
            fresh.restore(key.clone(), fingerprint, deps.to_vec());
        }
        fresh
    }

    #[test]
    fn export_order_is_independent_of_fill_order() {
        let mut spec = Calc::new(&[("a", 2), ("b", -3)]);
        let mut forward = Engine::new();
        session(&mut forward, &mut spec);
        forward.require(&mut spec, &Task::Sum).unwrap();
        forward.require(&mut spec, &Task::Dbl("b")).unwrap();
        let mut backward = Engine::new();
        session(&mut backward, &mut spec);
        backward.require(&mut spec, &Task::Dbl("b")).unwrap();
        backward.require(&mut spec, &Task::Sum).unwrap();

        let exported = forward.export();
        assert_eq!(exported, backward.export());
        let order: Vec<(u64, &Task)> = exported.iter().map(|&(key, fp, _, _)| (fp, key)).collect();
        assert!(order.windows(2).all(|pair| pair[0] < pair[1]), "{order:?}");
        assert_eq!(order.len(), forward.len());
        assert!(exported.iter().all(|(_, _, _, value)| value.is_some()));
    }

    #[test]
    fn restored_nodes_validate_without_values_and_execute_on_demand() {
        let mut spec = Calc::new(&[("a", -4)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Dbl("a")).unwrap();

        let mut fresh = restored_from(&engine);
        assert!(
            !fresh.is_valid(&Task::Dbl("a")),
            "no session has validated it"
        );
        session(&mut fresh, &mut spec);
        // Nothing moved: the whole chain is judged current (and would be
        // stamp-audited as served) with no value anywhere and no execution.
        assert_eq!(fresh.verified_hit_keys().len(), 3);
        assert!(fresh.peek(&Task::Dbl("a")).is_none());
        assert_eq!(fresh.fingerprint_of(&Task::Dbl("a")), Some(8));
        assert!(fresh.is_valid(&Task::Dbl("a")));
        // With nothing to load, a demand executes the task — and its
        // value-less dependencies — to rematerialize the values: hits, not
        // misses, and not among the executed keys.
        assert_eq!(fresh.require(&mut spec, &Task::Dbl("a")).unwrap(), 8);
        assert_eq!(spec.runs_of(&Task::Dbl("a")), 2);
        assert_eq!(spec.runs_of(&Task::Get("a")), 2);
        assert_eq!(
            fresh.session_stats(),
            SessionStats {
                hits: 3,
                rematerialized: 3,
                ..SessionStats::default()
            }
        );
        assert!(fresh.executed_keys().is_empty());
        assert_eq!(
            fresh.rematerialized_keys(),
            [Task::Get("a"), Task::Abs("a"), Task::Dbl("a")]
        );
        assert_eq!(fresh.peek(&Task::Dbl("a")), Some(&8));
    }

    #[test]
    fn a_restored_value_is_served_while_its_inputs_hold() {
        let mut spec = Calc::new(&[("a", -4)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Dbl("a")).unwrap();

        let mut fresh = restored_from(&engine);
        spec.stored.insert(Task::Dbl("a"), 8);
        session(&mut fresh, &mut spec);
        assert!(fresh.is_valid(&Task::Dbl("a")));
        assert_eq!(fresh.require(&mut spec, &Task::Dbl("a")).unwrap(), 8);
        assert_eq!(
            fresh.session_stats(),
            SessionStats {
                hits: 1,
                loaded: 1,
                ..SessionStats::default()
            }
        );
        assert_eq!(spec.runs_of(&Task::Dbl("a")), 1, "served, not executed");
        assert!(spec.stored.is_empty(), "loaded once");
        // Loaded values are ordinary values from then on.
        assert_eq!(fresh.require(&mut spec, &Task::Dbl("a")).unwrap(), 8);
        assert_eq!(fresh.session_stats().loaded, 1);
    }

    #[test]
    fn restored_node_whose_input_stamp_moved_is_dirty() {
        let mut spec = Calc::new(&[("a", 2), ("b", 3)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();

        let mut fresh = restored_from(&engine);
        spec.stored.insert(Task::Sum, 5);
        spec.cells.insert("a".into(), 10);
        session(&mut fresh, &mut spec);
        // Get(a) read the moved input; Sum depends on it; Get(b) does not.
        assert_eq!(fresh.verified_hit_keys(), vec![Task::Get("b")]);
        assert!(!fresh.is_valid(&Task::Sum));
        assert_eq!(fresh.require(&mut spec, &Task::Sum).unwrap(), 13);
        assert_eq!(
            spec.stored.get(&Task::Sum),
            Some(&5),
            "a restored value must not outlive its inputs"
        );
    }

    #[test]
    fn retaining_away_a_dependency_invalidates_a_restored_dependent() {
        let mut spec = Calc::new(&[("a", -7)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Abs("a")).unwrap();

        let mut fresh = restored_from(&engine);
        spec.stored.insert(Task::Abs("a"), 7);
        fresh.retain(|key| !matches!(key, Task::Get(_)));
        session(&mut fresh, &mut spec);
        assert!(!fresh.is_valid(&Task::Abs("a")));
        // The dropped dependency re-executes; its fingerprint still matches
        // the recorded one, so the restored value is served after all.
        assert_eq!(fresh.require(&mut spec, &Task::Abs("a")).unwrap(), 7);
        assert_eq!(spec.runs_of(&Task::Get("a")), 2);
        assert_eq!(spec.runs_of(&Task::Abs("a")), 1);
    }

    #[test]
    fn a_dirty_node_validates_through_clean_valueless_dependencies() {
        let mut spec = Calc::new(&[("a", -4), ("b", 3)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Pair("a", "b")).unwrap();

        // `a` flips sign: Get(a) re-executes, Abs(a) re-executes to the same
        // fingerprint, and Pair validates against Get(b) — which is clean
        // and has no value — by fingerprint alone.
        let mut fresh = restored_from(&engine);
        spec.cells.insert("a".into(), 4);
        session(&mut fresh, &mut spec);
        assert!(!fresh.is_valid(&Task::Pair("a", "b")));
        assert!(fresh.up_to_date(&mut spec, &Task::Pair("a", "b")).unwrap());
        assert_eq!(spec.runs_of(&Task::Get("b")), 1, "validated, not run");
        assert!(fresh.peek(&Task::Get("b")).is_none());
        assert_eq!(spec.runs_of(&Task::Pair("a", "b")), 1);
        assert_eq!(
            fresh.executed_keys(),
            [Task::Get("a"), Task::Abs("a")],
            "only what the edit reached"
        );
        assert!(fresh.is_valid(&Task::Pair("a", "b")));
    }

    #[test]
    fn up_to_date_is_true_for_a_valid_node_without_a_value() {
        let mut spec = Calc::new(&[("a", -4)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Dbl("a")).unwrap();

        let mut fresh = restored_from(&engine);
        session(&mut fresh, &mut spec);
        assert!(fresh.up_to_date(&mut spec, &Task::Dbl("a")).unwrap());
        assert!(fresh.peek(&Task::Dbl("a")).is_none());
        assert_eq!(spec.runs_of(&Task::Dbl("a")), 1, "probing executes nothing");
        assert_eq!(fresh.session_stats(), SessionStats::default());
    }

    #[test]
    fn a_rematerialization_that_moves_its_fingerprint_is_a_miss() {
        let mut spec = Calc::new(&[("a", -4)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Dbl("a")).unwrap();

        // Dbl reads `bias` without declaring it: validation vouches for the
        // old fingerprint, the re-execution disagrees.
        let mut fresh = restored_from(&engine);
        spec.bias = 1;
        session(&mut fresh, &mut spec);
        assert_eq!(fresh.require(&mut spec, &Task::Dbl("a")).unwrap(), 9);
        let stats = fresh.session_stats();
        assert_eq!((stats.misses, stats.rematerialized), (1, 2), "{stats:?}");
        assert_eq!(fresh.executed_keys(), [Task::Dbl("a")]);
        assert_eq!(fresh.moved_keys(), [Task::Dbl("a")]);
        assert_eq!(fresh.fingerprint_of(&Task::Dbl("a")), Some(9));
        assert!(spec.observed.contains(&(Task::Dbl("a"), false)));
    }
}
