//! The query store, to and from the graph file a commit persists.
//!
//! [`encode`] reduces the engine's store to a graph file: every task's
//! output fingerprint and dependency trace, task keys in their display
//! form, and the values of exactly the kinds a red task demands from a
//! green one and that cannot be recomputed purely and cheaply:
//!
//! - `optimizefn(m::f)` — executing it ingests a pass trace into the
//!   dormancy state, so a new process loads it and never re-runs it; its
//!   bytes are the optimized IR text its fingerprint hashes;
//! - `codegen(m)` — `link` needs every module's object; its bytes are
//!   `sfcc_backend::object::to_bytes` of it;
//! - `link` — the image, what a no-op hands back;
//! - `graph` — `link` needs the module order; rematerializing it would
//!   re-parse every module for its imports. Its bytes are the
//!   [`graph_repr`] text, and a text whose relation
//!   [`crate::DepGraph::from_imports`] rejects (a cycle, a missing import)
//!   is never served.
//!
//! Every other value (parse trees, ASTs, signatures, module checks, lowered
//! IR) is rematerialized on demand from the sources.
//! [`encode_segment`] writes what changed since a committed graph instead:
//! the nodes executed since (see [`Committed`]) and the key table of the
//! whole file, which `sfcc::persist` folds onto that graph to give exactly
//! the file [`encode`] would write.
//! [`restore`] is the inverse, into an empty engine: the file's key table
//! becomes the engine's label table as it stands — no key is parsed, a
//! dependency's key index is its task id — nodes come without values, and
//! beside them a [`Stored`] of the value bytes by task id — slices of the
//! file, unhashed. A demand that loads one hashes it against its node's
//! fingerprint first and decodes it only if it holds; one that does not is
//! [`Loaded::Corrupt`]: the task executes (see `sfcc-query`). A value no
//! demand loads is hashed only if a new base copies it ([`encode`]).

use crate::depcheck::DepMutations;
use crate::graph::{graph_repr, parse_graph_repr};
use crate::tasks::{
    split_label, BuildTask, BuildValue, CodegenArtifact, LinkArtifact, OptimizeFnArtifact,
};
use sfcc::Compiler;
use sfcc::{GraphDep, GraphFile, GraphWriter, InputSection, SegmentWriter, ValueBytes};
use sfcc_query::{Dep, Engine, Exported, Loaded, TaskId};
use std::borrow::Cow;
use std::sync::Arc;

/// Whether the graph file carries the value of the task `label` names.
fn persists(label: &str) -> bool {
    split_label(label)
        .is_some_and(|(kind, ..)| matches!(kind, "optimizefn" | "codegen" | "link" | "graph"))
}

/// The bytes a persisted value is written as — the byte string its
/// fingerprint hashes; `None` for the kinds that are not persisted.
fn persisted_bytes(value: &BuildValue) -> Option<Cow<'_, [u8]>> {
    Some(match value {
        BuildValue::OptimizeFn(art) => Cow::Borrowed(art.text.as_bytes()),
        BuildValue::Codegen(art) => Cow::Borrowed(&art.bytes),
        BuildValue::Link(art) => Cow::Borrowed(&art.image),
        BuildValue::Graph(graph) => Cow::Owned(graph_repr(graph).into_bytes()),
        _ => return None,
    })
}

/// The values a restored graph carried that no demand has loaded yet, by
/// task id, with the fingerprint their bytes should hash to.
#[derive(Debug, Default)]
pub(crate) struct Stored {
    values: Vec<Option<(u64, ValueBytes)>>,
    /// Values hashed against their fingerprint since the last
    /// [`Stored::take_verified`].
    verified: u64,
    /// Values that did not hash to their fingerprint, by task, until
    /// [`Stored::report_rejected`].
    rejected: Vec<(TaskId, ValueBytes)>,
}

impl Stored {
    /// The stored value of task `id` (key `key`), handed over once: its
    /// bytes hashed against its node's fingerprint, then decoded.
    /// [`Loaded::Corrupt`] — the bytes rejected — when they do not hash to
    /// it; [`Loaded::Absent`] when there is no value, or it does not
    /// decode: the engine then rematerializes it.
    pub(crate) fn load(&mut self, id: TaskId, key: &BuildTask) -> Loaded<BuildValue> {
        let Some((fingerprint, bytes)) = self.values.get_mut(id.index()).and_then(Option::take)
        else {
            return Loaded::Absent;
        };
        if !self.verify(&bytes, fingerprint) {
            self.rejected.push((id, bytes));
            return Loaded::Corrupt;
        }
        Self::decode(key, &bytes).map_or(Loaded::Absent, Loaded::Value)
    }

    /// Whether `bytes` hash to `fingerprint`; every such check is counted.
    fn verify(&mut self, bytes: &ValueBytes, fingerprint: u64) -> bool {
        self.verified += 1;
        bytes.hashes_to(fingerprint)
    }

    /// The value of task `key` whose persisted bytes are `bytes`.
    fn decode(key: &BuildTask, bytes: &[u8]) -> Option<BuildValue> {
        Some(match key {
            BuildTask::OptimizeFn(..) => {
                let text = String::from_utf8(bytes.to_vec()).ok()?;
                let func = sfcc_ir::parse_function(&text).ok()?;
                BuildValue::OptimizeFn(Arc::new(OptimizeFnArtifact {
                    func: Arc::new(func),
                    text,
                }))
            }
            BuildTask::Codegen(_) => BuildValue::Codegen(Arc::new(CodegenArtifact {
                object: sfcc_backend::object::from_bytes(bytes).ok()?,
                bytes: bytes.to_vec(),
            })),
            // The image is what its fingerprint hashes, so it is what
            // `link` encoded: handed over as bytes, decoded by whoever runs
            // the program.
            BuildTask::Link => BuildValue::Link(Arc::new(LinkArtifact {
                image: bytes.to_vec(),
            })),
            BuildTask::Graph => BuildValue::Graph(Arc::new(parse_graph_repr(
                std::str::from_utf8(bytes).ok()?,
            )?)),
            _ => return None,
        })
    }

    /// How many values were hashed against their fingerprint since the
    /// last call.
    pub(crate) fn take_verified(&mut self) -> u64 {
        std::mem::take(&mut self.verified)
    }

    /// Hands the values rejected since the last call to `compiler`, one
    /// recovery event each; returns how many there were.
    pub(crate) fn report_rejected(
        &mut self,
        engine: &Engine<BuildTask, BuildValue>,
        compiler: &Compiler,
    ) -> usize {
        let rejected = std::mem::take(&mut self.rejected);
        for (id, bytes) in &rejected {
            compiler.reject_value(engine.label(*id), bytes);
        }
        rejected.len()
    }

    /// Task `id`'s undecoded bytes, if they are the value of fingerprint
    /// `fingerprint`, hashed against it as they are copied into a new
    /// file: bytes that do not hash to it are rejected, never to be copied
    /// or served.
    fn copy_of(&mut self, id: TaskId, fingerprint: u64) -> Option<&[u8]> {
        let slot = self.values.get_mut(id.index())?;
        if slot.as_ref()?.0 != fingerprint {
            return None;
        }
        let (stored, bytes) = slot.take()?;
        if !self.verify(&bytes, fingerprint) {
            self.rejected.push((id, bytes));
            return None;
        }
        Some(&self.values[id.index()].insert((stored, bytes)).1)
    }
}

/// A committed graph as the store that committed it sees it: each task's
/// index in the committed file's key table, by task id, and the store
/// revision the file was taken at — the nodes recorded since are what a
/// segment must carry.
#[derive(Debug, Clone)]
pub(crate) struct Committed {
    index: Vec<Option<u32>>,
    keys: u32,
    revision: u64,
}

impl Committed {
    /// The file's key table: the task each key index names.
    fn table(&self) -> Vec<TaskId> {
        let mut table = vec![TaskId::new(0); self.keys as usize];
        for (id, key) in self.index.iter().enumerate() {
            if let Some(key) = key {
                table[*key as usize] = TaskId::new(id as u32);
            }
        }
        table
    }

    /// The graph file a store was just restored from: its key table is the
    /// store's label table.
    pub(crate) fn restored(engine: &Engine<BuildTask, BuildValue>) -> Self {
        let keys = engine.interned() as u32;
        Committed {
            index: (0..keys).map(Some).collect(),
            keys,
            revision: engine.revision(),
        }
    }
}

/// The store's memoized tasks in file order, and the key table the file
/// lists them under: each node's key in node order, then every other task a
/// dependency names, in order of first mention.
fn layout<'e>(
    engine: &'e Engine<BuildTask, BuildValue>,
) -> (Vec<Exported<'e, BuildValue>>, Committed) {
    let exported = engine.export();
    let mut index = vec![None; engine.interned()];
    let mut keys = 0;
    let mut next = |slot: &mut Option<u32>| {
        *slot.get_or_insert_with(|| {
            keys += 1;
            keys - 1
        })
    };
    for node in &exported {
        next(&mut index[node.id.index()]);
    }
    for node in &exported {
        for dep in node.deps {
            if let Dep::Task(id, _) = dep {
                next(&mut index[id.index()]);
            }
        }
    }
    let committed = Committed {
        index,
        keys,
        revision: engine.revision(),
    };
    (exported, committed)
}

/// The bytes of `node`'s value the graph file carries: from the engine when
/// on hand, else from `stored` — still undecoded, hashed as it is copied
/// ([`Stored::copy_of`]).
fn value_bytes<'a>(
    node: &Exported<'a, BuildValue>,
    stored: &'a mut Stored,
) -> Option<Cow<'a, [u8]>> {
    match node.value {
        Some(value) => persisted_bytes(value),
        None => stored.copy_of(node.id, node.fingerprint).map(Cow::Borrowed),
    }
}

/// The `kind` dependencies task `of` recorded, in demand order, by the
/// last part of their operand — `link`'s `codegen` modules, a `codegen`'s
/// `optimizefn` functions — read off their labels, so no key is parsed.
pub(crate) fn recorded(
    engine: &Engine<BuildTask, BuildValue>,
    of: &BuildTask,
    kind: &str,
) -> Vec<String> {
    let deps = engine.deps_of(of).unwrap_or_default();
    deps.iter()
        .filter_map(|dep| match *dep {
            Dep::Task(id, _) => match split_label(engine.label(id))? {
                (k, Some(m), f) if k == kind => Some(f.unwrap_or(m).to_string()),
                _ => None,
            },
            Dep::Input(..) => None,
        })
        .collect()
}

/// The encoded input section the store's graph file leads with: every
/// input `link` transitively read with its recorded stamp, `link`'s
/// fingerprint and module order, sealed by `compiler` with the state it
/// commits beside them. Empty — no section — while the store holds no
/// `link`.
pub(crate) fn section(engine: &Engine<BuildTask, BuildValue>, compiler: &Compiler) -> Vec<u8> {
    let Some(link) = engine.fingerprint_of(&BuildTask::Link) else {
        return Vec::new();
    };
    let inputs = engine.inputs_under(&BuildTask::Link);
    compiler.seal_section(InputSection {
        inputs: inputs
            .into_iter()
            .map(|(name, stamp)| (name.to_string(), stamp))
            .collect(),
        link,
        order: recorded(engine, &BuildTask::Link, "codegen"),
        ..InputSection::default()
    })
}

/// The store as an encoded graph file led by the encoded input `section`,
/// and the file as the store sees it once committed. A stored value that
/// does not hash to its fingerprint is rejected and written without.
pub(crate) fn encode(
    engine: &Engine<BuildTask, BuildValue>,
    stored: &mut Stored,
    section: &[u8],
) -> (Vec<u8>, Committed) {
    let (exported, committed) = layout(engine);
    let mut w = GraphWriter::new(exported.len(), section);
    for id in committed.table() {
        w.key(engine.label(id));
    }
    let key = |id: TaskId| committed.index[id.index()].expect("laid out");
    for node in &exported {
        w.node(
            node.fingerprint,
            value_bytes(node, &mut *stored).as_deref(),
            node.deps.len(),
        );
        for &dep in node.deps {
            match dep {
                Dep::Input(input, stamp) => w.input(engine.input_name(input), stamp),
                Dep::Task(id, fingerprint) => w.task(key(id), fingerprint),
            }
        }
    }
    (w.finish(), committed)
}

/// What changed in the store since `since` was committed, as a segment of
/// the chain whose tip has manifest checksum `parent` — led by the encoded
/// input `section` of the whole file, the nodes recorded after `since` was
/// taken, whole, with the labels its key table lacks, and the key table of
/// the whole file — and the file the chain then folds to, as the store
/// sees it.
pub(crate) fn encode_segment(
    engine: &Engine<BuildTask, BuildValue>,
    stored: &mut Stored,
    parent: u64,
    since: &Committed,
    section: &[u8],
) -> (Vec<u8>, Committed) {
    let (exported, committed) = layout(engine);
    let changed: Vec<&Exported<'_, BuildValue>> = exported
        .iter()
        .filter(|node| {
            node.revision > since.revision
                || since.index.get(node.id.index()).is_none_or(Option::is_none)
        })
        .collect();
    let mut w = SegmentWriter::new(parent, since.keys, changed.len(), section);
    let mut index = since.index.clone();
    index.resize(engine.interned(), None);
    let mut key = |w: &mut SegmentWriter, id: TaskId| {
        *index[id.index()].get_or_insert_with(|| w.label(engine.label(id)))
    };
    for node in changed {
        let at = key(&mut w, node.id);
        w.node(
            at,
            node.fingerprint,
            value_bytes(node, &mut *stored).as_deref(),
            node.deps.len(),
        );
        for &dep in node.deps {
            match dep {
                Dep::Input(input, stamp) => w.input(engine.input_name(input), stamp),
                Dep::Task(id, fingerprint) => {
                    let at = key(&mut w, id);
                    w.task(at, fingerprint);
                }
            }
        }
    }
    let table: Vec<u32> = committed
        .table()
        .into_iter()
        .map(|id| key(&mut w, id))
        .collect();
    (w.finish(exported.len(), &table), committed)
}

/// Fills the (empty) engine from a graph file and returns the values of
/// the persisted kinds it carried. `None` — and an engine left empty — when
/// a key names two nodes or the dependencies close a cycle, neither of
/// which a file [`encode`] produced does. A key that does not parse is a
/// task no driver can name and no demand can execute: it never validates
/// a dependent that needs it re-run.
///
/// Frozen-stamp mutations ([`DepMutations::freeze_stamp`]) are primed with
/// the recorded stamps, so a seeded lie spans processes the way the graph
/// does: the frozen input keeps the stamp the *last* process saw.
pub(crate) fn restore(
    engine: &mut Engine<BuildTask, BuildValue>,
    graph: GraphFile,
    mutations: &DepMutations,
) -> Option<Stored> {
    let mut stored = Vec::with_capacity(graph.nodes.len());
    let mut nodes = Vec::with_capacity(graph.nodes.len());
    for (label, node) in graph.keys.iter().zip(graph.nodes) {
        let deps = node
            .deps
            .into_iter()
            .map(|dep| match dep {
                GraphDep::Input { name, stamp } => {
                    mutations.prime(&name, stamp);
                    Dep::Input(engine.intern_input(&name), stamp)
                }
                GraphDep::Task { key, fingerprint } => Dep::Task(TaskId::new(key), fingerprint),
            })
            .collect();
        stored.push(
            node.value
                .filter(|_| persists(label))
                .map(|bytes| (node.fingerprint, bytes)),
        );
        nodes.push((node.fingerprint, deps));
    }
    engine.restore(graph.keys, nodes).then_some(Stored {
        values: stored,
        ..Stored::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepGraph;
    use crate::project::Project;
    use crate::tasks::BuildSpec;
    use sfcc::{Compiler, Config};
    use sfcc_codec::fnv64;

    fn project() -> Project {
        let mut p = Project::new();
        for (name, src) in [
            ("base", "fn g(x: int) -> int { return x * 2; }"),
            (
                "lib",
                "import base;\nfn f(x: int) -> int { return base::g(x) + 1; }",
            ),
            (
                "main",
                "import base;\nimport lib;\nfn main(n: int) -> int { return lib::f(n) + base::g(n); }",
            ),
        ] {
            p.set_file(name.to_string(), src.to_string());
        }
        p
    }

    /// Demands `project`'s `graph` from `engine` (nodes restored from
    /// `stored`'s file, or none) and returns it.
    fn demand_graph(
        project: &Project,
        engine: &mut Engine<BuildTask, BuildValue>,
        stored: &mut Stored,
    ) -> Arc<DepGraph> {
        let mut compiler = Compiler::new(Config::stateless());
        let mut spec = BuildSpec::new(
            project,
            &mut compiler,
            stored,
            1,
            DepMutations::new(),
            false,
        );
        engine.begin_session(&mut spec);
        engine
            .require(&mut spec, &BuildTask::Graph)
            .unwrap()
            .expect_graph()
    }

    /// The graph file of a store that demanded `project`'s `graph`, and
    /// that graph.
    fn graph_file(project: &Project) -> (GraphFile, Arc<DepGraph>) {
        let mut engine = Engine::new();
        let graph = demand_graph(project, &mut engine, &mut Stored::default());
        let file = GraphFile::from_bytes(encode(&engine, &mut Stored::default(), &[]).0).unwrap();
        (file, graph)
    }

    /// The task id of `graph` in a store restored from `file`.
    fn graph_id(file: &GraphFile) -> TaskId {
        TaskId::new(file.keys.iter().position(|k| k == "graph").unwrap() as u32)
    }

    #[test]
    fn a_graph_value_round_trips() {
        let (file, graph) = graph_file(&project());
        let id = graph_id(&file);
        let mut stored = restore(&mut Engine::new(), file, &DepMutations::new()).unwrap();
        let Loaded::Value(loaded) = stored.load(id, &BuildTask::Graph) else {
            panic!("a stored graph loads");
        };
        let loaded = loaded.expect_graph();
        assert_eq!(loaded.topo_order(), graph.topo_order());
        assert!(
            matches!(stored.load(id, &BuildTask::Graph), Loaded::Absent),
            "handed over once"
        );
    }

    /// Graph text whose node fingerprint was recomputed to match passes the
    /// file decoder; a relation with a cycle or a missing import still never
    /// loads, and a demand rematerializes the true graph from the sources.
    #[test]
    fn a_graph_text_naming_a_cycle_or_a_missing_import_is_never_served() {
        let p = project();
        let (file, graph) = graph_file(&p);
        let at = file.keys.iter().position(|k| k == "graph").unwrap();
        assert_eq!(
            file.nodes[at].value.as_deref(),
            Some(graph_repr(&graph).as_bytes())
        );
        for text in [
            "base=;lib=base,main;main=base,lib;",
            "base=;lib=base;main=base,ghost,lib;",
        ] {
            let mut tampered = file.clone();
            tampered.nodes[at].fingerprint = fnv64(text.as_bytes());
            tampered.nodes[at].value = Some(text.as_bytes().to_vec().into());
            let tampered = GraphFile::from_bytes(tampered.to_bytes()).unwrap();
            let mutations = DepMutations::new();
            let mut stored = restore(&mut Engine::new(), tampered.clone(), &mutations).unwrap();
            assert!(
                matches!(
                    stored.load(graph_id(&tampered), &BuildTask::Graph),
                    Loaded::Absent
                ),
                "{text}"
            );

            let mut engine = Engine::new();
            let mut stored = restore(&mut engine, tampered, &mutations).unwrap();
            let served = demand_graph(&p, &mut engine, &mut stored);
            assert_eq!(served.topo_order(), graph.topo_order(), "{text}");
            assert_eq!(engine.moved_keys(), [BuildTask::Graph], "{text}");
        }
    }

    /// `file` with the value of task `key` one byte off: what a flipped bit
    /// inside a value leaves, which no trailer covers.
    fn flipped(mut file: GraphFile, key: &str) -> GraphFile {
        let at = file.keys.iter().position(|k| k == key).unwrap();
        let mut bytes = file.nodes[at].value.as_deref().unwrap().to_vec();
        bytes[0] ^= 0x20;
        file.nodes[at].value = Some(bytes.into());
        file
    }

    /// A stored value is hashed when a demand loads it; one that does not
    /// hash to its node's fingerprint is never decoded or served: the task
    /// executes, and the compiler session records a recovery event.
    #[test]
    fn a_stored_value_that_does_not_hash_is_a_miss() {
        let p = project();
        let (file, graph) = graph_file(&p);
        let mut engine = Engine::new();
        let mut stored =
            restore(&mut engine, flipped(file, "graph"), &DepMutations::new()).unwrap();
        let served = demand_graph(&p, &mut engine, &mut stored);
        assert_eq!(served.topo_order(), graph.topo_order());
        assert_eq!(engine.executed_keys(), [BuildTask::Graph]);
        assert_eq!(engine.session_stats().loaded, 0);
        assert_eq!(stored.take_verified(), 1);
        let compiler = Compiler::new(Config::stateless());
        assert_eq!(stored.report_rejected(&engine, &compiler), 1);
        let events = compiler.take_recovery_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].reason.contains("`graph`"), "{:?}", events[0]);
        assert!(events[0].quarantined_to.is_none());
    }

    /// A compaction never re-publishes an unverified value: a stored value
    /// no demand loaded is hashed as a new base copies it, and one that
    /// does not hash is dropped — the node is written without it — and
    /// rejected.
    #[test]
    fn a_new_base_drops_a_stored_value_that_does_not_hash() {
        let (file, _) = graph_file(&project());
        let mut engine = Engine::new();
        let flipped = flipped(file.clone(), "graph");
        let mut stored = restore(&mut engine, flipped, &DepMutations::new()).unwrap();
        let (bytes, _) = encode(&engine, &mut stored, &[]);
        let written = GraphFile::from_bytes(bytes).expect("every written value hashes");
        let at = graph_id(&written).index();
        assert_eq!(written.nodes[at].value, None);
        assert_eq!(written.nodes[at].fingerprint, file.nodes[at].fingerprint);
        assert_eq!(stored.take_verified(), 1);
        let compiler = Compiler::new(Config::stateless());
        assert_eq!(stored.report_rejected(&engine, &compiler), 1);
        assert_eq!(compiler.take_recovery_events().len(), 1);
        // Dropped, not kept: a later demand rematerializes the value.
        assert!(matches!(
            stored.load(graph_id(&written), &BuildTask::Graph),
            Loaded::Absent
        ));
        // An intact stored value is copied as it was read.
        let mut engine = Engine::new();
        let mut stored = restore(&mut engine, file.clone(), &DepMutations::new()).unwrap();
        assert_eq!(
            encode(&engine, &mut stored, &file.section).0,
            file.to_bytes()
        );
        assert_eq!(stored.take_verified(), 1);
    }
}
