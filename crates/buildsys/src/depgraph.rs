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
//! - `link` — the image, what a no-op hands back.
//!
//! Every other value (parse trees, ASTs, signatures, module checks, lowered
//! IR, the import graph) is rematerialized on demand from the sources.
//! [`restore`] is the inverse, into an empty engine: nodes without values,
//! and beside them a [`Stored`] of the value bytes — slices of the file,
//! each of which the decoder checked against its node's fingerprint,
//! decoded when a demand loads them (see `sfcc-query`).

use crate::depcheck::DepMutations;
use crate::tasks::{BuildTask, BuildValue, CodegenArtifact, LinkArtifact, OptimizeFnArtifact};
use sfcc::{GraphDep, GraphFile, GraphWriter, ValueBytes};
use sfcc_query::{Dep, Engine};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Whether the graph file carries `key`'s value.
fn persists(key: &BuildTask) -> bool {
    matches!(
        key,
        BuildTask::OptimizeFn(..) | BuildTask::Codegen(_) | BuildTask::Link
    )
}

/// The bytes a persisted value is written as — the byte string its
/// fingerprint hashes; `None` for the kinds that are not persisted.
fn persisted_bytes(value: &BuildValue) -> Option<&[u8]> {
    match value {
        BuildValue::OptimizeFn(art) => Some(art.text.as_bytes()),
        BuildValue::Codegen(art) => Some(&art.bytes),
        BuildValue::Link(art) => Some(&art.image),
        _ => None,
    }
}

/// The values a restored graph carried that no demand has loaded yet, by
/// task, with the fingerprint their bytes hash to.
#[derive(Debug, Default)]
pub(crate) struct Stored(HashMap<BuildTask, (u64, ValueBytes)>);

impl Stored {
    /// Decodes `key`'s stored value, handing it over once. `None` when
    /// there is none or its bytes do not decode; the engine then
    /// rematerializes the value.
    pub(crate) fn load(&mut self, key: &BuildTask) -> Option<BuildValue> {
        let (_, bytes) = self.0.remove(key)?;
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
            BuildTask::Link => BuildValue::Link(Arc::new(LinkArtifact {
                program: sfcc_backend::image::from_bytes(&bytes).ok()?,
                image: bytes.to_vec(),
            })),
            _ => return None,
        })
    }

    /// `key`'s undecoded bytes, if they are the value of fingerprint
    /// `fingerprint`.
    fn bytes_of(&self, key: &BuildTask, fingerprint: u64) -> Option<&[u8]> {
        self.0
            .get(key)
            .filter(|(stored, _)| *stored == fingerprint)
            .map(|(_, bytes)| &**bytes)
    }
}

/// The store as an encoded graph file recorded under compiler `identity`.
/// A persisted kind's value comes from the engine when on hand and from
/// `stored` — still undecoded, copied as it was read — when not.
pub(crate) fn encode(
    engine: &Engine<BuildTask, BuildValue>,
    stored: &Stored,
    identity: u64,
) -> Vec<u8> {
    let exported = engine.export();
    let mut w = GraphWriter::new(identity, exported.len());
    let mut label = String::new();
    let mut key_of = |w: &mut GraphWriter, key: &BuildTask| {
        label.clear();
        write!(label, "{key}").expect("writing to a string");
        w.key(&label)
    };
    let mut index: HashMap<&BuildTask, u32> = exported
        .iter()
        .map(|&(key, ..)| (key, key_of(&mut w, key)))
        .collect();
    for &(key, fingerprint, deps, value) in &exported {
        let bytes = match value {
            Some(value) => persisted_bytes(value),
            None => stored.bytes_of(key, fingerprint),
        };
        w.node(fingerprint, bytes, deps.len());
        for dep in deps {
            match dep {
                Dep::Input { name, stamp } => w.input(name, *stamp),
                // A dependency on a task that has left the store still
                // needs a key to name: it joins the table behind the nodes'
                // keys, in order of first mention.
                Dep::Task { key, fingerprint } => {
                    let key = *index.entry(key).or_insert_with(|| key_of(&mut w, key));
                    w.task(key, *fingerprint);
                }
            }
        }
    }
    w.finish()
}

/// Fills the (empty) engine from a graph file and returns the values of
/// the persisted kinds it carried. `None` — and an engine left empty — when
/// a key does not parse, names two nodes, or the dependencies close a
/// cycle, none of which a file [`encode`] produced does.
///
/// Frozen-stamp mutations ([`DepMutations::freeze_stamp`]) are primed with
/// the recorded stamps, so a seeded lie spans processes the way the graph
/// does: the frozen input keeps the stamp the *last* process saw.
pub(crate) fn restore(
    engine: &mut Engine<BuildTask, BuildValue>,
    graph: GraphFile,
    mutations: &DepMutations,
) -> Option<Stored> {
    let keys = graph
        .keys
        .iter()
        .map(|label| BuildTask::parse(label))
        .collect::<Option<Vec<BuildTask>>>()?;
    if keys.iter().collect::<HashSet<_>>().len() != keys.len() || !acyclic(&graph) {
        return None;
    }
    let mut stored = Stored::default();
    for (key, node) in keys.iter().zip(graph.nodes) {
        let deps = node
            .deps
            .into_iter()
            .map(|dep| match dep {
                GraphDep::Input { name, stamp } => {
                    mutations.prime(&name, stamp);
                    Dep::Input { name, stamp }
                }
                GraphDep::Task { key, fingerprint } => Dep::Task {
                    key: keys[key as usize].clone(),
                    fingerprint,
                },
            })
            .collect();
        if let Some(bytes) = node.value.filter(|_| persists(key)) {
            stored.0.insert(key.clone(), (node.fingerprint, bytes));
        }
        engine.restore(key.clone(), node.fingerprint, deps);
    }
    Some(stored)
}

/// Whether the recorded task dependencies form no cycle. No execution can
/// record one, but a file can claim one, and the engine would answer every
/// build that walks it with a cycle error instead of a cold start.
fn acyclic(graph: &GraphFile) -> bool {
    let n = graph.nodes.len();
    let mut pending = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in graph.nodes.iter().enumerate() {
        for dep in &node.deps {
            if let GraphDep::Task { key, .. } = dep {
                // Keys past the nodes name tasks that left the store.
                if let Some(of) = dependents.get_mut(*key as usize) {
                    of.push(i);
                    pending[i] += 1;
                }
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
    let mut done = 0;
    while let Some(j) = ready.pop() {
        done += 1;
        for &i in &dependents[j] {
            pending[i] -= 1;
            if pending[i] == 0 {
                ready.push(i);
            }
        }
    }
    done == n
}
