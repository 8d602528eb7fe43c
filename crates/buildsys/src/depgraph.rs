//! The query store, to and from the graph file a commit persists.
//!
//! [`encode`] reduces the engine's store to a graph file: every task's
//! output fingerprint and dependency trace, task keys in their display
//! form, and one value — `link`'s image bytes, which is what a build that
//! finds nothing changed has to hand back. [`restore`] is the inverse, into
//! an empty engine: nodes without values, which validate like any other and
//! execute when demanded (see `sfcc-query`). Everything else a later build
//! needs it recomputes, exactly as it did before there was a graph file.

use crate::depcheck::DepMutations;
use crate::tasks::{BuildTask, BuildValue, LinkArtifact};
use sfcc::{GraphDep, GraphFile, GraphWriter};
use sfcc_codec::fnv64;
use sfcc_query::{Dep, Engine};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// The store as an encoded graph file recorded under compiler `identity`.
pub(crate) fn encode(engine: &Engine<BuildTask, BuildValue>, identity: u64) -> Vec<u8> {
    let exported = engine.export();
    let mut w = GraphWriter::new(identity);
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
    for &(_, fingerprint, deps) in &exported {
        w.node(fingerprint, deps.len());
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
    let image = engine.peek(&BuildTask::Link).map(BuildValue::expect_link);
    w.finish(image.as_ref().map_or(&[], |link| &link.image))
}

/// Fills the (empty) engine from a graph file; `false` — and an engine left
/// empty — when a key does not parse or names two nodes, which no file
/// [`encode`] produced does. `link` gets its value back when the image
/// bytes are the ones its fingerprint was taken of.
///
/// Frozen-stamp mutations ([`DepMutations::freeze_stamp`]) are primed with
/// the recorded stamps, so a seeded lie spans processes the way the graph
/// does: the frozen input keeps the stamp the *last* process saw.
pub(crate) fn restore(
    engine: &mut Engine<BuildTask, BuildValue>,
    graph: GraphFile,
    mutations: &DepMutations,
) -> bool {
    let Some(keys) = graph
        .keys
        .iter()
        .map(|label| BuildTask::parse(label))
        .collect::<Option<Vec<BuildTask>>>()
    else {
        return false;
    };
    if keys.iter().collect::<HashSet<_>>().len() != keys.len() {
        return false;
    }
    let mut root_value = graph.root_value;
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
        let is_root = *key == BuildTask::Link && fnv64(&root_value) == node.fingerprint;
        let value = is_root
            .then(|| sfcc_backend::image::from_bytes(&root_value).ok())
            .flatten()
            .map(|program| {
                let image = std::mem::take(&mut root_value);
                BuildValue::Link(Arc::new(LinkArtifact { program, image }))
            });
        engine.restore(key.clone(), node.fingerprint, deps, value);
    }
    true
}
