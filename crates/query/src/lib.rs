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
//!   previously read *inputs* are refreshed, and one pass over every
//!   recorded dependency — integer compares of interned ids and stamps, no
//!   key touched — finds the tasks that read a changed input; only those
//!   and, transitively, their dependents are marked dirty. Everything else
//!   is validated wholesale, so a no-op rebuild costs its input stamps plus
//!   O(tasks + deps) compares, with no task executed and no key parsed.
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
//! Tasks and inputs are **interned**: a task is a dense [`TaskId`] into the
//! store, named by its key's label (the key's `Display` text, which
//! [`TaskKey::parse`] reads back), and an input is a dense [`InputId`], so a
//! recorded dependency is a `Copy` pair of id and stamp or fingerprint
//! ([`Dep`]). The label table is what a persisted store carries: a
//! [restored](Engine::restore) node's key stays text until a driver names
//! the task or a red node must execute it.
//!
//! A node's *value* is optional. What validation reads — output fingerprint
//! and dependency trace — can be [exported](Engine::export) and
//! [restored](Engine::restore) without any value, so a new process starts
//! from the graph the last one recorded. One rule covers such nodes:
//! **validation never needs a value; a demand of a valid node without one
//! [loads](TaskSpec::load) it, or else re-executes the task to
//! rematerialize it** — a hit, counted apart ([`SessionStats::loaded`],
//! [`SessionStats::rematerialized`]), unless the re-execution moved the
//! fingerprint validation vouched for, which is a miss. A kept value that
//! fails the domain's check ([`Loaded::Corrupt`]) is never served: the task
//! executes, a miss.
//!
//! The engine is deliberately free of domain knowledge: keys, values,
//! errors, task bodies, fingerprints, and input stamps are all supplied by a
//! [`TaskSpec`] implementation (the compiler's lives in `sfcc-buildsys`).

use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// A task key: what a driver names a task by. Its `Display` text is the
/// task's *label*, the form the engine interns and a persisted store
/// carries; [`TaskKey::parse`] is the inverse.
pub trait TaskKey: Clone + Eq + fmt::Debug + fmt::Display {
    /// The key whose label is `label`; `None` for text no key displays as.
    fn parse(label: &str) -> Option<Self>;
}

/// The domain a [`Engine`] computes over: task keys, their values, and how
/// to execute, fingerprint, and stamp them.
///
/// The spec is passed `&mut` into every engine call (rather than owned by
/// the engine) so task bodies can borrow build-wide context — source trees,
/// compiler sessions — without self-referential lifetimes.
pub trait TaskSpec {
    /// Identifies a task (e.g. "optimize module `lib`").
    type Key: TaskKey;
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

    /// The value of task `id` (key `key`) the store holds as valid but
    /// without a value (a node [restored](Engine::restore) from a persisted
    /// graph), when the domain kept it elsewhere. Asked once per demand of
    /// such a node; [`Loaded::Absent`] — the default — makes the engine
    /// rematerialize the value by executing the task. A loaded value must
    /// be the one the node's fingerprint was taken of.
    fn load(&mut self, _id: TaskId, _key: &Self::Key) -> Loaded<Self::Value> {
        Loaded::Absent
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

/// What [`TaskSpec::load`] found for a valid node without a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Loaded<V> {
    /// The value the node's fingerprint was taken of: served, a hit.
    Value(V),
    /// Nothing kept: the task re-executes to rematerialize it, a hit.
    Absent,
    /// A kept value that failed its check: never served, the task
    /// executes, a miss.
    Corrupt,
}

/// A task's dense index into its [`Engine`]'s store. Ids are handed out in
/// interning order and never reused for another label while the store
/// lives ([`Engine::clear`] starts over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u32);

/// An input cell's dense index into its [`Engine`]'s input table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputId(u32);

impl TaskId {
    /// The id of the `index`-th label of a restored table
    /// ([`Engine::restore`]).
    pub fn new(index: u32) -> Self {
        TaskId(index)
    }

    /// The position in the label table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One recorded dependency of a task, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// A read of an input cell, with the stamp observed then.
    Input(InputId, u64),
    /// A demand of another task, with its output fingerprint observed then.
    Task(TaskId, u64),
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

/// An interned task: its label, its key once known, and — while it is
/// memoized — its last output, fingerprint, and dependency trace.
#[derive(Debug)]
struct Node<K, V> {
    label: Box<str>,
    /// `None` until a driver names the task or it must execute (a label
    /// restored from a persisted store is not parsed before then).
    key: Option<K>,
    /// Whether the task is memoized. An interned task that is not was named
    /// by a recorded dependency, dropped by [`Engine::retain`], or probed
    /// and never executed.
    present: bool,
    /// `None` for a node restored without its output ([`Engine::restore`]):
    /// it validates like any other, and is loaded or rematerialized when
    /// demanded.
    value: Option<V>,
    fingerprint: u64,
    /// Dependencies of the last execution, in the order they were acquired.
    deps: Vec<Dep>,
    /// Session in which this node was last demanded-and-validated (counted
    /// in the hit/miss statistics).
    verified: u64,
    /// Session in which this node was last pre-validated (bottom-up phase
    /// found no changed input underneath it, or a demand-time dependency
    /// walk came up clean) without being demanded itself.
    clean: u64,
    /// Session in which this node last executed (a miss).
    executed: u64,
    /// The store revision of its last execution ([`Engine::revision`]);
    /// `0` for a restored node.
    revision: u64,
}

impl<K, V> Node<K, V> {
    fn new(label: Box<str>) -> Self {
        Node {
            label,
            key: None,
            present: false,
            value: None,
            fingerprint: 0,
            deps: Vec::new(),
            verified: NEVER,
            clean: NEVER,
            executed: NEVER,
            revision: 0,
        }
    }

    fn valid_in(&self, session: u64) -> bool {
        self.present && (self.verified == session || self.clean == session)
    }
}

/// An interned input cell and its session-cached stamp.
#[derive(Debug)]
struct Input {
    name: Box<str>,
    stamp: u64,
    /// Session `stamp` was observed in.
    stamped: u64,
}

/// The `verified`/`clean` stamp of a node no session has validated yet (the
/// session counter never reaches it).
const NEVER: u64 = u64::MAX;

/// Reverse dependency edges in compressed-sparse-row form: the dependents
/// of task `t` are `dependents[start[t]..start[t + 1]]`.
#[derive(Debug)]
struct Dependents {
    start: Vec<u32>,
    dependents: Vec<TaskId>,
}

impl Dependents {
    fn of(&self, id: TaskId) -> &[TaskId] {
        let i = id.index();
        &self.dependents[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// One memoized task as [`Engine::export`] hands it out.
#[derive(Debug, PartialEq, Eq)]
pub struct Exported<'e, V> {
    /// The task's id.
    pub id: TaskId,
    /// Its label.
    pub label: &'e str,
    /// Its output fingerprint.
    pub fingerprint: u64,
    /// Its dependency trace.
    pub deps: &'e [Dep],
    /// Its value, when on hand.
    pub value: Option<&'e V>,
    /// The store revision its fingerprint and trace were recorded at
    /// ([`Engine::revision`]).
    pub revision: u64,
}

/// The execution context handed to [`TaskSpec::execute`]: records the
/// running task's dependencies as they are acquired.
pub struct Ctx<'e, S: TaskSpec + ?Sized> {
    engine: &'e mut Engine<S::Key, S::Value>,
    deps: &'e mut Vec<Dep>,
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
        let id = self.engine.intern(key);
        let value = self.engine.demand(spec, id, key)?;
        self.deps
            .push(Dep::Task(id, self.engine.nodes[id.index()].fingerprint));
        Ok(value)
    }

    /// [`Ctx::require`] without the edge: the task is demanded and memoized
    /// like any other, but a change of its fingerprint does not invalidate
    /// the running task. For values a task only uses to plan work that its
    /// recorded dependencies then vouch for.
    ///
    /// # Errors
    ///
    /// As [`Ctx::require`].
    pub fn prefetch(
        &mut self,
        spec: &mut S,
        key: &S::Key,
    ) -> Result<S::Value, QueryError<S::Key, S::Error>> {
        let id = self.engine.intern(key);
        self.engine.demand(spec, id, key)
    }

    /// [`Engine::up_to_date`] from inside a task: whether a demand of `key`
    /// would be a hit, recording no edge.
    ///
    /// # Errors
    ///
    /// As [`Engine::up_to_date`].
    pub fn up_to_date(
        &mut self,
        spec: &mut S,
        key: &S::Key,
    ) -> Result<bool, QueryError<S::Key, S::Error>> {
        self.engine.up_to_date(spec, key)
    }

    /// Reads a named input cell, recording the dependency with its current
    /// stamp (session-cached, so each input is stamped once per build).
    pub fn input(&mut self, spec: &mut S, name: &str) -> u64 {
        let id = self.engine.intern_input(name);
        let stamp = self.engine.stamp_of(spec, id);
        self.deps.push(Dep::Input(id, stamp));
        stamp
    }

    /// Records an input dependency with an explicitly supplied stamp, for
    /// inputs the running task itself just wrote (e.g. a state record it
    /// updated): the dependency must hold the *post*-write stamp, or the
    /// task would invalidate itself every session.
    pub fn record_input(&mut self, name: &str, stamp: u64) {
        let id = self.engine.intern_input(name);
        let input = &mut self.engine.inputs[id.0 as usize];
        input.stamp = stamp;
        input.stamped = self.engine.session;
        self.deps.push(Dep::Input(id, stamp));
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
    /// Every interned task, indexed by [`TaskId`].
    nodes: Vec<Node<K, V>>,
    /// Label → id.
    ids: HashMap<Box<str>, TaskId>,
    /// Memoized tasks (`present` nodes).
    present: usize,
    /// Every interned input, indexed by [`InputId`].
    inputs: Vec<Input>,
    /// Input name → id.
    input_ids: HashMap<Box<str>, InputId>,
    /// Reverse edges of the memoized tasks' dependency traces, while no
    /// task has executed or been dropped since they were built.
    dependents: Option<Dependents>,
    /// Monotonic build-session counter (see [`Engine::begin_session`]).
    session: u64,
    /// Demand stack, for cycle detection.
    stack: Vec<TaskId>,
    /// Keys executed this session, in completion order.
    executed: Vec<K>,
    /// Keys rematerialized this session, in completion order.
    rematerialized: Vec<K>,
    /// Keys whose rematerialization this session moved their fingerprint.
    moved: Vec<K>,
    stats: SessionStats,
    /// Labels read back into keys this session ([`Engine::key`]).
    keys_parsed: u64,
    /// Label rendering buffer for lookups by key.
    scratch: String,
    /// Executions recorded so far ([`Engine::revision`]).
    revision: u64,
}

impl<K, V> Default for Engine<K, V>
where
    K: TaskKey,
    V: Clone,
{
    fn default() -> Self {
        Engine::new()
    }
}

impl<K, V> Engine<K, V>
where
    K: TaskKey,
    V: Clone,
{
    /// An empty engine (every first demand will execute).
    pub fn new() -> Self {
        Engine {
            nodes: Vec::new(),
            ids: HashMap::new(),
            present: 0,
            inputs: Vec::new(),
            input_ids: HashMap::new(),
            dependents: None,
            session: 0,
            stack: Vec::new(),
            executed: Vec::new(),
            rematerialized: Vec::new(),
            moved: Vec::new(),
            stats: SessionStats::default(),
            keys_parsed: 0,
            scratch: String::new(),
            revision: 0,
        }
    }

    /// The id of `key`'s label, interning it (as a task not yet memoized)
    /// when new; the node learns its key either way.
    fn intern(&mut self, key: &K) -> TaskId {
        self.scratch.clear();
        write!(self.scratch, "{key}").expect("writing to a string");
        let id = match self.ids.get(self.scratch.as_str()) {
            Some(&id) => id,
            None => self.push_label(Box::from(self.scratch.as_str())),
        };
        let node = &mut self.nodes[id.index()];
        if node.key.is_none() {
            node.key = Some(key.clone());
        }
        id
    }

    /// Appends a new label to the table (the caller checked it is new).
    fn push_label(&mut self, label: Box<str>) -> TaskId {
        let id = TaskId(u32::try_from(self.nodes.len()).expect("fewer than 2^32 tasks"));
        self.ids.insert(label.clone(), id);
        self.nodes.push(Node::new(label));
        id
    }

    /// The id of input `name`, interning it when new.
    pub fn intern_input(&mut self, name: &str) -> InputId {
        if let Some(&id) = self.input_ids.get(name) {
            return id;
        }
        let id = InputId(u32::try_from(self.inputs.len()).expect("fewer than 2^32 inputs"));
        self.input_ids.insert(Box::from(name), id);
        self.inputs.push(Input {
            name: Box::from(name),
            stamp: 0,
            stamped: NEVER,
        });
        id
    }

    /// The id `key` is interned under, if it is.
    pub fn id_of(&self, key: &K) -> Option<TaskId> {
        self.ids.get(key.to_string().as_str()).copied()
    }

    /// The key of task `id`, read from its label the first time it is
    /// asked for (counted in [`Engine::keys_parsed`]); `None` when the label
    /// is no key's.
    pub fn key(&mut self, id: TaskId) -> Option<&K> {
        let node = &mut self.nodes[id.index()];
        if node.key.is_none() {
            node.key = K::parse(&node.label);
            self.keys_parsed += u64::from(node.key.is_some());
        }
        node.key.as_ref()
    }

    /// Task `id`'s label.
    pub fn label(&self, id: TaskId) -> &str {
        &self.nodes[id.index()].label
    }

    /// Input `id`'s name.
    pub fn input_name(&self, id: InputId) -> &str {
        &self.inputs[id.0 as usize].name
    }

    /// How many task labels are interned: every [`TaskId`] of this store
    /// indexes below it.
    pub fn interned(&self) -> usize {
        self.nodes.len()
    }

    /// Labels this session read back into keys: the tasks a driver reached
    /// only through recorded dependencies, and the red restored nodes that
    /// had to execute. A no-op over a restored store parses only what its
    /// driver asks for by id.
    pub fn keys_parsed(&self) -> u64 {
        self.keys_parsed
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
        self.keys_parsed = 0;
        self.executed.clear();
        self.rematerialized.clear();
        self.moved.clear();
        self.stack.clear();

        // Refresh the stamp of every input a memoized task read, once.
        let mut read = vec![false; self.inputs.len()];
        for node in self.nodes.iter().filter(|node| node.present) {
            for dep in &node.deps {
                if let Dep::Input(input, _) = *dep {
                    read[input.0 as usize] = true;
                }
            }
        }
        let session = self.session;
        for (input, _) in self.inputs.iter_mut().zip(read).filter(|(_, read)| *read) {
            input.stamp = spec.input_stamp(&input.name);
            input.stamped = session;
        }

        // Seed the dirty set with direct readers of changed inputs, tasks
        // whose dependency tasks no longer exist, and tasks whose recorded
        // dependency fingerprint disagrees with the store's current one.
        // The last case arises only after a *failed* build: a dependency
        // re-executed with a new fingerprint, then the session aborted
        // before this dependent could re-run, leaving a cross-session
        // inconsistency that input stamps no longer reflect.
        let mut dirty = vec![false; self.nodes.len()];
        let mut frontier = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let invalidated = node.present
                && node.deps.iter().any(|dep| match *dep {
                    Dep::Input(input, stamp) => self.inputs[input.0 as usize].stamp != stamp,
                    Dep::Task(id, fingerprint) => {
                        let dep = &self.nodes[id.index()];
                        !dep.present || dep.fingerprint != fingerprint
                    }
                });
            if invalidated {
                dirty[i] = true;
                frontier.push(TaskId(i as u32));
            }
        }

        // Propagate dirtiness along reverse dependency edges.
        if !frontier.is_empty() {
            let dependents = self.dependents();
            while let Some(id) = frontier.pop() {
                for &dependent in dependents.of(id) {
                    if !std::mem::replace(&mut dirty[dependent.index()], true) {
                        frontier.push(dependent);
                    }
                }
            }
        }

        // Everything untouched by a change is valid for the whole session.
        for (node, dirty) in self.nodes.iter_mut().zip(dirty) {
            if node.present && !dirty {
                node.clean = session;
            }
        }
    }

    /// The reverse edges of the memoized tasks' dependency traces, built
    /// when a task executed or was dropped since they last were.
    fn dependents(&mut self) -> &Dependents {
        let nodes = &self.nodes;
        self.dependents.get_or_insert_with(|| {
            let mut start = vec![0u32; nodes.len() + 1];
            let edges = || {
                nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, node)| node.present)
                    .flat_map(|(i, node)| {
                        node.deps.iter().filter_map(move |dep| match *dep {
                            Dep::Task(id, _) => Some((id, TaskId(i as u32))),
                            Dep::Input(..) => None,
                        })
                    })
            };
            for (id, _) in edges() {
                start[id.index() + 1] += 1;
            }
            for i in 1..start.len() {
                start[i] += start[i - 1];
            }
            let mut fill = start.clone();
            let mut dependents = vec![TaskId(0); start[nodes.len()] as usize];
            for (id, dependent) in edges() {
                dependents[fill[id.index()] as usize] = dependent;
                fill[id.index()] += 1;
            }
            Dependents { start, dependents }
        })
    }

    /// Demands a task: validates it against its recorded dependencies and
    /// returns the memoized value, executing only when an input stamp or a
    /// dependency fingerprint differs from what the last execution saw. A
    /// valid node without a value gets it from [`TaskSpec::load`], or else
    /// by executing the task again — a rematerialization, which is a miss
    /// only if it moves the fingerprint validation vouched for. A loaded
    /// value that is [`Loaded::Corrupt`] executes the task, a miss.
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
        let id = self.intern(key);
        self.demand(spec, id, key)
    }

    /// [`Engine::require`] of interned task `id`, whose key is `key`.
    fn demand<S>(&mut self, spec: &mut S, id: TaskId, key: &K) -> Result<V, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        // A node that must execute is `None`; a valid one returns the value
        // it has on hand, or says what loading found.
        let loaded = if self.fresh(spec, id)? {
            let node = &mut self.nodes[id.index()];
            if let Some(value) = &node.value {
                let value = value.clone();
                if node.verified != self.session {
                    node.verified = self.session;
                    self.stats.hits += 1;
                    spec.observe(key, true);
                }
                return Ok(value);
            }
            Some(spec.load(id, key))
        } else {
            None
        };
        let value = match loaded {
            None | Some(Loaded::Corrupt) => {
                let mut deps = Vec::new();
                let value = self.run(spec, id, key, &mut deps)?;
                let fingerprint = spec.fingerprint(key, &value);
                self.memoize(id, fingerprint, deps);
                let node = &mut self.nodes[id.index()];
                node.value = Some(value.clone());
                node.verified = self.session;
                node.clean = self.session;
                self.count_miss(spec, id, key);
                return Ok(value);
            }
            Some(Loaded::Value(value)) => {
                self.stats.loaded += 1;
                value
            }
            Some(Loaded::Absent) => {
                let mut deps = Vec::new();
                let value = self.run(spec, id, key, &mut deps)?;
                let fingerprint = spec.fingerprint(key, &value);
                let recorded = self.nodes[id.index()].fingerprint;
                self.memoize(id, recorded, deps);
                if fingerprint != recorded {
                    let node = &mut self.nodes[id.index()];
                    node.fingerprint = fingerprint;
                    node.value = Some(value.clone());
                    node.verified = self.session;
                    self.moved.push(key.clone());
                    self.count_miss(spec, id, key);
                    return Ok(value);
                }
                self.stats.rematerialized += 1;
                self.rematerialized.push(key.clone());
                value
            }
        };
        let node = &mut self.nodes[id.index()];
        node.value = Some(value.clone());
        node.verified = self.session;
        self.stats.hits += 1;
        spec.observe(key, true);
        Ok(value)
    }

    /// Records a fresh execution's fingerprint and dependency trace on
    /// task `id`, memoizing it.
    fn memoize(&mut self, id: TaskId, fingerprint: u64, deps: Vec<Dep>) {
        self.dependents = None;
        self.revision += 1;
        let node = &mut self.nodes[id.index()];
        node.revision = self.revision;
        if !node.present {
            node.present = true;
            self.present += 1;
        }
        node.fingerprint = fingerprint;
        node.deps = deps;
    }

    /// Executes a task's body, recording its fresh dependencies into
    /// `deps`.
    fn run<S>(
        &mut self,
        spec: &mut S,
        id: TaskId,
        key: &K,
        deps: &mut Vec<Dep>,
    ) -> Result<V, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        self.stack.push(id);
        let result = spec.execute(key, &mut Ctx { engine: self, deps });
        self.stack.pop();
        result
    }

    fn count_miss<S>(&mut self, spec: &mut S, id: TaskId, key: &K)
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        self.stats.misses += 1;
        self.nodes[id.index()].executed = self.session;
        spec.observe(key, false);
        self.executed.push(key.clone());
    }

    /// Checks whether a demand of the task would be a hit, *without
    /// executing it*: the node is valid, whether or not its value is on
    /// hand. Dependency tasks that do not validate execute (they must be
    /// current for the answer to mean anything); a clean verdict is
    /// remembered so the follow-up [`Engine::require`] is O(1).
    ///
    /// Tasks use this ([`Ctx::up_to_date`]) to plan: the dependencies that
    /// are out of date can be computed together before being demanded one
    /// by one.
    ///
    /// # Errors
    ///
    /// Propagates dependency failures and cycles.
    pub fn up_to_date<S>(&mut self, spec: &mut S, key: &K) -> Result<bool, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        let id = self.intern(key);
        self.fresh(spec, id)
    }

    /// [`Engine::up_to_date`] of an interned task.
    fn fresh<S>(&mut self, spec: &mut S, id: TaskId) -> Result<bool, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        if let Some(position) = self.stack.iter().position(|&k| k == id) {
            let mut path: Vec<TaskId> = self.stack[position..].to_vec();
            path.push(id);
            let path = path
                .into_iter()
                .filter_map(|id| self.key(id).cloned())
                .collect();
            return Err(QueryError::Cycle(path));
        }
        let node = &self.nodes[id.index()];
        if !node.present {
            return Ok(false);
        }
        if node.valid_in(self.session) {
            return Ok(true);
        }
        // Demand-time verification of the recorded dependency trace, in
        // acquisition order, stopping at the first mismatch.
        self.stack.push(id);
        let outcome = self.deps_hold(spec, id);
        self.stack.pop();
        let holds = outcome?;
        if holds {
            self.nodes[id.index()].clean = self.session;
        }
        Ok(holds)
    }

    /// Whether every recorded dependency of task `id` still holds — try-
    /// mark-green: a dependency that validates is compared by its
    /// fingerprint without touching its value; only one that does not is
    /// executed first (a dependency whose label is no key's cannot be, and
    /// does not hold). Requires the node to be memoized; the caller manages
    /// the cycle stack.
    fn deps_hold<S>(&mut self, spec: &mut S, id: TaskId) -> Result<bool, QueryError<K, S::Error>>
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        // A node on the stack cannot re-execute, so its trace stays put.
        for i in 0..self.nodes[id.index()].deps.len() {
            match self.nodes[id.index()].deps[i] {
                Dep::Input(input, stamp) => {
                    if self.stamp_of(spec, input) != stamp {
                        return Ok(false);
                    }
                }
                Dep::Task(dep, fingerprint) => {
                    if !self.fresh(spec, dep)? {
                        let Some(key) = self.key(dep).cloned() else {
                            return Ok(false);
                        };
                        self.demand(spec, dep, &key)?;
                    }
                    let node = &self.nodes[dep.index()];
                    if !node.present || node.fingerprint != fingerprint {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// The session-cached stamp of an input (stamping it now if unseen).
    fn stamp_of<S>(&mut self, spec: &mut S, id: InputId) -> u64
    where
        S: TaskSpec<Key = K, Value = V> + ?Sized,
    {
        let input = &mut self.inputs[id.0 as usize];
        if input.stamped != self.session {
            input.stamp = spec.input_stamp(&input.name);
            input.stamped = self.session;
        }
        input.stamp
    }

    /// The memoized node `key` names, if any.
    fn node(&self, key: &K) -> Option<&Node<K, V>> {
        let node = &self.nodes[self.id_of(key)?.index()];
        node.present.then_some(node)
    }

    /// The memoized value of a task, if present (no validation). `None` also
    /// for a restored task whose value has not been loaded or recomputed.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.node(key).and_then(|node| node.value.as_ref())
    }

    /// Whether `key` is known to be valid *right now*, without walking a
    /// dependency edge or executing anything: the session's bottom-up
    /// invalidation (or an earlier demand or probe) found the task current.
    /// Its value may still have to be loaded or rematerialized. Build
    /// drivers ask this to leave alone what no change reached — the root
    /// task of a no-op request, the modules an edit did not touch.
    pub fn is_valid(&self, key: &K) -> bool {
        self.node(key)
            .is_some_and(|node| node.valid_in(self.session))
    }

    /// The memoized output fingerprint of a task, if present.
    pub fn fingerprint_of(&self, key: &K) -> Option<u64> {
        self.node(key).map(|node| node.fingerprint)
    }

    /// Everything validation reads, for persisting — each memoized task's
    /// id, label, output fingerprint and dependency trace — plus its value
    /// when on hand, in an order that depends on the store's content alone,
    /// so equal stores export equally whatever order they were filled in:
    /// by fingerprint (an integer compare settles almost every pair), then
    /// by key — read from the label only for the tasks whose fingerprints
    /// tie.
    pub fn export(&self) -> Vec<Exported<'_, V>>
    where
        K: Ord,
    {
        let mut order: Vec<(u64, TaskId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.present)
            .map(|(i, node)| (node.fingerprint, TaskId(i as u32)))
            .collect();
        order.sort_unstable();
        let mut rest = order.as_mut_slice();
        while !rest.is_empty() {
            let tied = rest.iter().take_while(|(fp, _)| *fp == rest[0].0).count();
            let (run, tail) = rest.split_at_mut(tied);
            if run.len() > 1 {
                run.sort_by_cached_key(|&(_, id)| {
                    let node = &self.nodes[id.index()];
                    (
                        node.key.clone().or_else(|| K::parse(&node.label)),
                        node.label.clone(),
                    )
                });
            }
            rest = tail;
        }
        order
            .into_iter()
            .map(|(fingerprint, id)| {
                let node = &self.nodes[id.index()];
                Exported {
                    id,
                    label: &node.label,
                    fingerprint,
                    deps: &node.deps,
                    value: node.value.as_ref(),
                    revision: node.revision,
                }
            })
            .collect()
    }

    /// Re-creates an [exported](Engine::export) store in an engine whose
    /// store is empty, without values and without parsing a label: `labels`
    /// is the label table (`labels[i]` names `TaskId::new(i)`), `nodes[i]`
    /// the fingerprint and dependency trace of task `labels[i]`, and labels
    /// past the nodes name tasks a recorded dependency mentions though they
    /// had left the store. Dependency inputs are interned beforehand
    /// ([`Engine::intern_input`]).
    ///
    /// The next [`Engine::begin_session`] validates each node against its
    /// recorded inputs like any other; it then counts as current for its
    /// dependents, and a demand of it loads or rematerializes its value.
    /// Returns `false`, leaving the store empty, for a store that was not,
    /// and for a table no export produces: a repeated label, more nodes than labels, a dependency on
    /// a label past the table, or dependencies that close a cycle.
    pub fn restore(&mut self, labels: Vec<String>, nodes: Vec<(u64, Vec<Dep>)>) -> bool {
        if !self.nodes.is_empty() {
            return false;
        }
        let count = labels.len();
        let fits = nodes.len() <= count
            && nodes
                .iter()
                .flat_map(|(_, deps)| deps)
                .all(|dep| match *dep {
                    Dep::Task(id, _) => id.index() < count,
                    Dep::Input(input, _) => (input.0 as usize) < self.inputs.len(),
                });
        self.nodes.reserve(count);
        self.ids.reserve(count);
        for label in labels {
            let label = label.into_boxed_str();
            if self.ids.contains_key(&label) {
                break;
            }
            self.push_label(label);
        }
        if !fits || self.nodes.len() != count {
            self.clear();
            return false;
        }
        self.present = nodes.len();
        for (node, (fingerprint, deps)) in self.nodes.iter_mut().zip(nodes) {
            node.present = true;
            node.fingerprint = fingerprint;
            node.deps = deps;
        }
        if !self.acyclic() {
            self.clear();
            return false;
        }
        true
    }

    /// Whether the memoized tasks' dependencies form no cycle. No execution
    /// can record one, but a persisted file can claim one, and every build
    /// that walks it would answer with a cycle error instead of a cold
    /// start. Kahn's algorithm over the reverse edges.
    fn acyclic(&mut self) -> bool {
        let mut pending: Vec<u32> = self
            .nodes
            .iter()
            .map(|node| {
                node.deps
                    .iter()
                    .filter(|dep| matches!(dep, Dep::Task(..)))
                    .count() as u32
            })
            .collect();
        let mut ready: Vec<TaskId> = (0..pending.len())
            .filter(|&i| pending[i] == 0)
            .map(|i| TaskId(i as u32))
            .collect();
        let dependents = self.dependents();
        let mut done = 0;
        while let Some(id) = ready.pop() {
            done += 1;
            for &dependent in dependents.of(id) {
                pending[dependent.index()] -= 1;
                if pending[dependent.index()] == 0 {
                    ready.push(dependent);
                }
            }
        }
        done == pending.len()
    }

    /// Drops memoized tasks whose label fails the predicate (e.g. tasks of
    /// modules that left the project). Dependents of a dropped task are
    /// invalidated on the next [`Engine::begin_session`]; the label stays
    /// interned under its id.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        for node in &mut self.nodes {
            if node.present && !keep(&node.label) {
                node.present = false;
                node.value = None;
                node.deps = Vec::new();
                self.present -= 1;
                self.dependents = None;
            }
        }
    }

    /// Drops the entire store, label table included; the next build
    /// re-executes everything.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.ids.clear();
        self.present = 0;
        self.dependents = None;
        self.stack.clear();
    }

    /// The store's revision: how many executions it has recorded — each
    /// task executed or rematerialized bumps it, and the node keeps the
    /// revision it was recorded at ([`Exported::revision`]). What changed
    /// since a given revision is what a persisted store must add to the
    /// graph it saved then; a restored node counts as recorded at `0`.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of memoized tasks.
    pub fn len(&self) -> usize {
        self.present
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.present == 0
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
    pub fn deps_of(&self, key: &K) -> Option<&[Dep]> {
        self.node(key).map(|node| node.deps.as_slice())
    }

    /// [`Engine::deps_of`] by id.
    pub fn deps(&self, id: TaskId) -> &[Dep] {
        &self.nodes[id.index()].deps
    }

    /// Every input `key` transitively read — the input dependencies of the
    /// memoized tasks its recorded dependencies reach, itself included —
    /// with the stamp it recorded, once per input, in the order a walk
    /// from `key` first meets them (so equal stores list them equally).
    /// While `key` is valid these are the inputs whose stamps decide that
    /// it still is, and each recorded stamp is the current one.
    pub fn inputs_under(&self, key: &K) -> Vec<(&str, u64)> {
        let Some(root) = self.id_of(key) else {
            return Vec::new();
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut met = vec![false; self.inputs.len()];
        let (mut stack, mut inputs) = (vec![root], Vec::new());
        seen[root.index()] = true;
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id.index()];
            if !node.present {
                continue;
            }
            for dep in &node.deps {
                match *dep {
                    Dep::Input(input, stamp) => {
                        if !std::mem::replace(&mut met[input.0 as usize], true) {
                            inputs.push((self.input_name(input), stamp));
                        }
                    }
                    Dep::Task(id, _) => {
                        if !std::mem::replace(&mut seen[id.index()], true) {
                            stack.push(id);
                        }
                    }
                }
            }
        }
        inputs
    }

    /// Tasks validated this session *without* executing — demanded cache
    /// hits (`verified`) and tasks the wholesale invalidation walk judged
    /// current (`clean`). For each, the recorded input stamps were judged
    /// unchanged — a depcheck staleness audit re-derives those stamps from
    /// the raw inputs and flags any divergence as a suppressed
    /// invalidation. One pass over the store, in id order.
    pub fn verified_hits(&self) -> Vec<TaskId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.valid_in(self.session) && node.executed != self.session)
            .map(|(i, _)| TaskId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy domain: integer input cells, `Get` tasks reading them, `Abs`
    /// of a cell (for cutoff tests), `Pair` of one cell's `Abs` and another
    /// cell, `Sum` of all cells listed in the `cells` input, and `Plan` of a
    /// cell, which probes and prefetches before it requires the cell's
    /// `Abs`. Executions are counted per key; `stored` values are what
    /// `load` hands out, `bias` is a read `Dbl` does not declare, and
    /// `planned` collects `Plan`'s probe verdicts.
    struct Calc {
        cells: HashMap<String, i64>,
        roster: Vec<&'static str>,
        runs: HashMap<Task, usize>,
        fail_on: Option<Task>,
        observed: Vec<(Task, bool)>,
        stored: HashMap<Task, i64>,
        /// Tasks whose kept value fails its check.
        corrupt: Vec<Task>,
        bias: i64,
        planned: Vec<bool>,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub(super) enum Task {
        Get(&'static str),
        Abs(&'static str),
        Dbl(&'static str),
        Pair(&'static str, &'static str),
        Plan(&'static str),
        Sum,
        Selfish,
        Ping,
        Pong,
    }

    impl fmt::Display for Task {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Task::Get(c) => write!(f, "get({c})"),
                Task::Abs(c) => write!(f, "abs({c})"),
                Task::Dbl(c) => write!(f, "dbl({c})"),
                Task::Pair(x, y) => write!(f, "pair({x},{y})"),
                Task::Plan(c) => write!(f, "plan({c})"),
                Task::Sum => f.write_str("sum"),
                Task::Selfish => f.write_str("selfish"),
                Task::Ping => f.write_str("ping"),
                Task::Pong => f.write_str("pong"),
            }
        }
    }

    impl TaskKey for Task {
        fn parse(label: &str) -> Option<Task> {
            let cell = |c: &str| -> &'static str { Box::leak(c.to_string().into_boxed_str()) };
            let Some((kind, rest)) = label.split_once('(') else {
                return match label {
                    "sum" => Some(Task::Sum),
                    "selfish" => Some(Task::Selfish),
                    "ping" => Some(Task::Ping),
                    "pong" => Some(Task::Pong),
                    _ => None,
                };
            };
            let operand = rest.strip_suffix(')')?;
            Some(match kind {
                "get" => Task::Get(cell(operand)),
                "abs" => Task::Abs(cell(operand)),
                "dbl" => Task::Dbl(cell(operand)),
                "plan" => Task::Plan(cell(operand)),
                "pair" => {
                    let (x, y) = operand.split_once(',')?;
                    Task::Pair(cell(x), cell(y))
                }
                _ => return None,
            })
        }
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
                corrupt: Vec::new(),
                bias: 0,
                planned: Vec::new(),
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
                Task::Plan(cell) => {
                    let fresh = ctx.up_to_date(self, &Task::Abs(cell))?;
                    self.planned.push(fresh);
                    ctx.prefetch(self, &Task::Get(cell))?;
                    ctx.require(self, &Task::Abs(cell))
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

        fn load(&mut self, _id: TaskId, key: &Task) -> Loaded<i64> {
            match self.stored.remove(key) {
                Some(_) if self.corrupt.contains(key) => Loaded::Corrupt,
                Some(value) => Loaded::Value(value),
                None => Loaded::Absent,
            }
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
        assert_eq!(
            named_deps(&engine, &Task::Sum),
            ["roster=2", "get(a)#2", "get(b)#3"]
        );
        assert!(engine.deps_of(&Task::Abs("a")).is_none());
        assert!(engine.verified_hits().is_empty(), "all executed");

        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Sum).unwrap();
        let mut hits = verified_labels(&engine);
        hits.sort();
        assert_eq!(hits, ["get(a)", "get(b)", "sum"]);
    }

    /// A chain of `len` tasks, `link(i)` demanding `link(i - 1)`; the first
    /// reads input `base`. Demanded bottom-up, so no demand recurses.
    struct Chain {
        base: u64,
        runs: usize,
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Link(u32);

    impl fmt::Display for Link {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "link({})", self.0)
        }
    }

    impl TaskKey for Link {
        fn parse(label: &str) -> Option<Link> {
            let n = label.strip_prefix("link(")?.strip_suffix(')')?;
            n.parse().ok().map(Link)
        }
    }

    impl TaskSpec for Chain {
        type Key = Link;
        type Value = u64;
        type Error = String;

        fn execute(
            &mut self,
            key: &Link,
            ctx: &mut Ctx<'_, Self>,
        ) -> Result<u64, QueryError<Link, String>> {
            self.runs += 1;
            match key.0 {
                0 => Ok(ctx.input(self, "base")),
                i => Ok(ctx.require(self, &Link(i - 1))? + 1),
            }
        }

        fn fingerprint(&self, _key: &Link, value: &u64) -> u64 {
            *value
        }

        fn input_stamp(&mut self, _input: &str) -> u64 {
            self.base
        }
    }

    /// `verified_hits` marks what executed per node, not by searching the
    /// executed list per node: over a 5 000-task chain it is one pass
    /// whatever executed — none, all, or half the chain.
    #[test]
    fn verified_hits_over_a_long_chain_are_linear_and_exact() {
        const LEN: u32 = 5_000;
        let mut spec = Chain { base: 1, runs: 0 };
        let mut engine = Engine::new();
        let demand_all = |engine: &mut Engine<Link, u64>, spec: &mut Chain| {
            for i in 0..LEN {
                engine.require(spec, &Link(i)).unwrap();
            }
        };
        engine.begin_session(&mut spec);
        demand_all(&mut engine, &mut spec);
        assert_eq!(spec.runs, LEN as usize);
        assert!(engine.verified_hits().is_empty(), "everything executed");

        engine.begin_session(&mut spec);
        assert_eq!(engine.verified_hits().len(), LEN as usize, "all clean");
        demand_all(&mut engine, &mut spec);
        assert_eq!(engine.verified_hits().len(), LEN as usize, "all served");
        assert_eq!(spec.runs, LEN as usize);

        // A retained-away middle task dirties the upper half; it executes
        // again, to its old fingerprint, and the upper half validates.
        engine.retain(|label| label != "link(2500)");
        spec.base = 1;
        engine.begin_session(&mut spec);
        demand_all(&mut engine, &mut spec);
        assert_eq!(engine.session_stats().misses, 1, "cutoff above the gap");
        assert_eq!(engine.verified_hits().len(), LEN as usize - 1);
        assert_eq!(
            engine.executed_keys(),
            [Link(2500)],
            "the dropped task alone"
        );
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

        engine.retain(|label| !label.starts_with("get("));
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
    fn ctx_up_to_date_records_no_edge() {
        let mut spec = Calc::new(&[("a", -2)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Plan("a")).unwrap(), 2);
        assert_eq!(spec.planned, [false], "abs(a) was not memoized yet");
        assert_eq!(
            spec.runs_of(&Task::Abs("a")),
            1,
            "the probe executed nothing"
        );
        // One edge, the required one: neither the probe nor the prefetch
        // recorded theirs.
        let abs = engine.id_of(&Task::Abs("a")).unwrap();
        assert_eq!(
            engine.deps_of(&Task::Plan("a")).unwrap(),
            [Dep::Task(abs, 2)]
        );
        // After an edit, validating the plan's recorded edge executes the
        // stale abs(a) first; its moved fingerprint re-runs the plan, whose
        // probe then finds abs(a) current.
        spec.cells.insert("a".into(), -3);
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Plan("a")).unwrap(), 3);
        assert_eq!(spec.planned, [false, true]);
        assert_eq!(spec.runs_of(&Task::Abs("a")), 2);
    }

    #[test]
    fn a_prefetched_target_is_memoized_but_invalidates_nothing() {
        let mut spec = Calc::new(&[("a", -2)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Plan("a")).unwrap();
        // The prefetch executed and memoized get(a); the require under
        // abs(a) then hit it.
        assert_eq!(engine.peek(&Task::Get("a")), Some(&-2));
        assert_eq!(spec.runs_of(&Task::Get("a")), 1);

        // Only the prefetched target's fingerprint moves (-2 -> 2): abs(a)
        // re-executes and cuts off, and the planner does not run again.
        spec.cells.insert("a".into(), 2);
        session(&mut engine, &mut spec);
        assert_eq!(engine.require(&mut spec, &Task::Plan("a")).unwrap(), 2);
        assert_eq!(spec.runs_of(&Task::Get("a")), 2);
        assert_eq!(spec.runs_of(&Task::Abs("a")), 2);
        assert_eq!(spec.runs_of(&Task::Plan("a")), 1, "no edge to get(a)");
        assert_eq!(engine.peek(&Task::Get("a")), Some(&2));
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

    /// `key`'s recorded dependencies as text: `input=stamp`, `task#fp`.
    fn named_deps(engine: &Engine<Task, i64>, key: &Task) -> Vec<String> {
        let deps = engine.deps_of(key).unwrap();
        named(engine, deps)
    }

    fn named(engine: &Engine<Task, i64>, deps: &[Dep]) -> Vec<String> {
        deps.iter()
            .map(|dep| match *dep {
                Dep::Input(input, stamp) => format!("{}={stamp}", engine.input_name(input)),
                Dep::Task(id, fp) => format!("{}#{fp}", engine.label(id)),
            })
            .collect()
    }

    fn verified_labels(engine: &Engine<Task, i64>) -> Vec<&str> {
        engine
            .verified_hits()
            .into_iter()
            .map(|id| engine.label(id))
            .collect()
    }

    /// A second engine holding what `engine` exports — no values, as a new
    /// process restoring a persisted graph would: labels in export order,
    /// then those only a dependency names, and every dependency re-interned
    /// into the new tables.
    fn restored_from(engine: &Engine<Task, i64>) -> Engine<Task, i64> {
        let exported = engine.export();
        let mut slot = vec![None; engine.interned()];
        let mut labels = Vec::new();
        for e in &exported {
            slot[e.id.index()] = Some(labels.len() as u32);
            labels.push(e.label.to_string());
        }
        let mut fresh = Engine::new();
        let mut nodes = Vec::new();
        for e in &exported {
            let deps = e
                .deps
                .iter()
                .map(|dep| match *dep {
                    Dep::Input(input, stamp) => {
                        Dep::Input(fresh.intern_input(engine.input_name(input)), stamp)
                    }
                    Dep::Task(id, fp) => {
                        let index = *slot[id.index()].get_or_insert_with(|| {
                            labels.push(engine.label(id).to_string());
                            labels.len() as u32 - 1
                        });
                        Dep::Task(TaskId::new(index), fp)
                    }
                })
                .collect();
            nodes.push((e.fingerprint, deps));
        }
        assert!(fresh.restore(labels, nodes));
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

        let content = |engine: &Engine<Task, i64>| -> Vec<(u64, String, Vec<String>, Option<i64>)> {
            engine
                .export()
                .iter()
                .map(|e| {
                    let deps = named(engine, e.deps);
                    (e.fingerprint, e.label.to_string(), deps, e.value.copied())
                })
                .collect()
        };
        let exported = content(&forward);
        assert_eq!(exported, content(&backward));
        let order: Vec<(u64, Task)> = exported
            .iter()
            .map(|(fp, label, ..)| (*fp, Task::parse(label).unwrap()))
            .collect();
        assert!(order.windows(2).all(|pair| pair[0] < pair[1]), "{order:?}");
        assert_eq!(order.len(), forward.len());
        assert!(exported.iter().all(|(.., value)| value.is_some()));
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
        assert_eq!(fresh.verified_hits().len(), 3);
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

    /// A kept value that fails its check is never served: the task
    /// executes, a miss, and its dependents validate against the fresh
    /// fingerprint.
    #[test]
    fn a_corrupt_restored_value_executes_its_task() {
        let mut spec = Calc::new(&[("a", -4)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Dbl("a")).unwrap();

        let mut fresh = restored_from(&engine);
        spec.stored.insert(Task::Dbl("a"), 99);
        spec.corrupt.push(Task::Dbl("a"));
        session(&mut fresh, &mut spec);
        assert!(fresh.is_valid(&Task::Dbl("a")));
        assert_eq!(fresh.require(&mut spec, &Task::Dbl("a")).unwrap(), 8);
        let stats = fresh.session_stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.loaded),
            (1, 2, 0),
            "{stats:?}"
        );
        assert_eq!(fresh.executed_keys(), [Task::Dbl("a")]);
        assert!(spec.observed.contains(&(Task::Dbl("a"), false)));
        assert_eq!(spec.runs_of(&Task::Dbl("a")), 2);
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
        assert_eq!(verified_labels(&fresh), ["get(b)"]);
        assert!(!fresh.is_valid(&Task::Sum));
        assert_eq!(fresh.require(&mut spec, &Task::Sum).unwrap(), 13);
        assert_eq!(
            spec.stored.get(&Task::Sum),
            Some(&5),
            "a restored value must not outlive its inputs"
        );
    }

    /// The inputs under a task are the ones its validity rests on: each
    /// with the stamp it recorded, which is the current one while the task
    /// is valid.
    #[test]
    fn the_inputs_under_a_task_are_the_ones_its_validity_rests_on() {
        let mut spec = Calc::new(&[("a", 2), ("c", 4)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Abs("a")).unwrap();
        engine.require(&mut spec, &Task::Get("c")).unwrap();
        let under = engine.inputs_under(&Task::Abs("a"));
        let names: Vec<&str> = under.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            ["a"],
            "once, and not `c`, which `abs(a)` does not read"
        );
        for (name, stamp) in under {
            assert_eq!(spec.input_stamp(name), stamp, "{name}");
        }
        assert!(engine.inputs_under(&Task::Ping).is_empty());
    }

    #[test]
    fn retaining_away_a_dependency_invalidates_a_restored_dependent() {
        let mut spec = Calc::new(&[("a", -7)]);
        let mut engine = Engine::new();
        session(&mut engine, &mut spec);
        engine.require(&mut spec, &Task::Abs("a")).unwrap();

        let mut fresh = restored_from(&engine);
        spec.stored.insert(Task::Abs("a"), 7);
        fresh.retain(|label| !label.starts_with("get("));
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
