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
//! file, each of which the decoder checked against its node's fingerprint,
//! decoded when a demand loads them (see `sfcc-query`).

use crate::depcheck::DepMutations;
use crate::graph::{graph_repr, parse_graph_repr};
use crate::tasks::{
    split_label, BuildTask, BuildValue, CodegenArtifact, LinkArtifact, OptimizeFnArtifact,
};
use sfcc::{GraphDep, GraphFile, GraphWriter, SegmentWriter, ValueBytes};
use sfcc_backend::Program;
use sfcc_query::{Dep, Engine, Exported, TaskId};
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
/// task id, with the fingerprint their bytes hash to.
#[derive(Debug, Default)]
pub(crate) struct Stored {
    values: Vec<Option<(u64, ValueBytes)>>,
    /// The program the load of `link` decoded, until a report takes it.
    program: Option<Program>,
}

impl Stored {
    /// Decodes the stored value of task `id` (key `key`), handing it over
    /// once. `None` when there is none or its bytes do not decode; the
    /// engine then rematerializes the value.
    pub(crate) fn load(&mut self, id: TaskId, key: &BuildTask) -> Option<BuildValue> {
        let (_, bytes) = self.values.get_mut(id.index())?.take()?;
        Some(match key {
            BuildTask::OptimizeFn(..) => {
                let text = String::from_utf8(bytes.to_vec()).ok()?;
                let func = sfcc_ir::parse_function(&text).ok()?;
                BuildValue::OptimizeFn(Arc::new(OptimizeFnArtifact {
                    func,
                    text,
                    ftrace: None,
                }))
            }
            BuildTask::Codegen(_) => BuildValue::Codegen(Arc::new(CodegenArtifact {
                object: sfcc_backend::object::from_bytes(&bytes).ok()?,
                bytes: bytes.to_vec(),
            })),
            BuildTask::Link => {
                // Decoding proves the image loads; the program waits for
                // the report of the build that demanded it.
                self.program = Some(sfcc_backend::image::from_bytes(&bytes).ok()?);
                BuildValue::Link(Arc::new(LinkArtifact {
                    program: None,
                    image: bytes.to_vec(),
                }))
            }
            BuildTask::Graph => BuildValue::Graph(Arc::new(parse_graph_repr(
                std::str::from_utf8(&bytes).ok()?,
            )?)),
            _ => return None,
        })
    }

    /// Hands over the program the load of `link` decoded, once.
    pub(crate) fn take_program(&mut self) -> Option<Program> {
        self.program.take()
    }

    /// Task `id`'s undecoded bytes, if they are the value of fingerprint
    /// `fingerprint`.
    fn bytes_of(&self, id: TaskId, fingerprint: u64) -> Option<&[u8]> {
        self.values
            .get(id.index())?
            .as_ref()
            .filter(|(stored, _)| *stored == fingerprint)
            .map(|(_, bytes)| &**bytes)
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
/// on hand, else from `stored` — still undecoded, copied as it was read.
fn value_bytes<'a>(node: &Exported<'a, BuildValue>, stored: &'a Stored) -> Option<Cow<'a, [u8]>> {
    match node.value {
        Some(value) => persisted_bytes(value),
        None => stored
            .bytes_of(node.id, node.fingerprint)
            .map(Cow::Borrowed),
    }
}

/// The store as an encoded graph file recorded under compiler `identity`,
/// and the file as the store sees it once committed.
pub(crate) fn encode(
    engine: &Engine<BuildTask, BuildValue>,
    stored: &Stored,
    identity: u64,
) -> (Vec<u8>, Committed) {
    let (exported, committed) = layout(engine);
    let mut w = GraphWriter::new(identity, exported.len());
    for id in committed.table() {
        w.key(engine.label(id));
    }
    let key = |id: TaskId| committed.index[id.index()].expect("laid out");
    for node in &exported {
        w.node(
            node.fingerprint,
            value_bytes(node, stored).as_deref(),
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
/// the chain whose tip has manifest checksum `parent`, recorded under
/// compiler `identity` — the nodes recorded after `since` was taken, whole,
/// with the labels its key table lacks, and the key table of the whole
/// file — and the file the chain then folds to, as the store sees it.
pub(crate) fn encode_segment(
    engine: &Engine<BuildTask, BuildValue>,
    stored: &Stored,
    identity: u64,
    parent: u64,
    since: &Committed,
) -> (Vec<u8>, Committed) {
    let (exported, committed) = layout(engine);
    let changed: Vec<&Exported<'_, BuildValue>> = exported
        .iter()
        .filter(|node| {
            node.revision > since.revision
                || since.index.get(node.id.index()).is_none_or(Option::is_none)
        })
        .collect();
    let mut w = SegmentWriter::new(identity, parent, since.keys, changed.len());
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
            value_bytes(node, stored).as_deref(),
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
        program: None,
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
        let file = GraphFile::from_bytes(encode(&engine, &Stored::default(), 0).0).unwrap();
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
        let loaded = stored.load(id, &BuildTask::Graph).unwrap().expect_graph();
        assert_eq!(loaded.waves(), graph.waves());
        assert_eq!(loaded.topo_order(), graph.topo_order());
        assert!(
            stored.load(id, &BuildTask::Graph).is_none(),
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
                stored
                    .load(graph_id(&tampered), &BuildTask::Graph)
                    .is_none(),
                "{text}"
            );

            let mut engine = Engine::new();
            let mut stored = restore(&mut engine, tampered, &mutations).unwrap();
            let served = demand_graph(&p, &mut engine, &mut stored);
            assert_eq!(served.waves(), graph.waves(), "{text}");
            assert_eq!(engine.moved_keys(), [BuildTask::Graph], "{text}");
        }
    }
}
