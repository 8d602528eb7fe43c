//! The persisted query graph: what an incremental engine needs to decide
//! that nothing changed, without the values that deciding does not read.
//!
//! A [`GraphFile`] is the container the build system's query store travels
//! in between processes: per task an output fingerprint and the dependency
//! trace of its last execution (input stamps, dependency fingerprints) —
//! and exactly one value, the root task's output. Task keys are opaque
//! strings here; `sfcc-buildsys` owns their meaning and the mapping to and
//! from its engine. The file is committed as the [`GRAPH_LOGICAL`] entry of
//! the same manifest as the dormancy state and the function cache (see
//! [`crate::persist`]), so the `state:` stamps it records are all-old or
//! all-new together with the state they describe.
//!
//! The header carries a format version and the compiler identity the graph
//! was recorded under. The identity is not this module's to judge: a graph
//! recorded under another identity is a cold start for the session that
//! reads it, not corruption ([`crate::Compiler::new`] drops it quietly).

use sfcc_codec::{fnv64, DecodeError, Reader, Writer};

/// Logical name of the query graph in the commit manifest.
pub const GRAPH_LOGICAL: &str = "depgraph";

const GRAPH_MAGIC: &[u8; 7] = b"SFCCDG\0";
/// Current graph-file format version.
pub const GRAPH_VERSION: u32 = 1;

/// One recorded dependency of a task, in acquisition order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphDep {
    /// A read of a named input cell, with the stamp observed then.
    Input {
        /// Input cell name (e.g. `src:lib`, `state:lib::f`).
        name: String,
        /// Stamp at the time of the read.
        stamp: u64,
    },
    /// A demand of another task, with the fingerprint observed then.
    Task {
        /// Index of the demanded task in [`GraphFile::keys`].
        key: u32,
        /// Its output fingerprint at the time of the demand.
        fingerprint: u64,
    },
}

/// One memoized task, without its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// The task's output fingerprint.
    pub fingerprint: u64,
    /// The dependency trace of its last execution.
    pub deps: Vec<GraphDep>,
}

/// A query store reduced to what validation reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphFile {
    /// The compiler identity the graph was recorded under.
    pub identity: u64,
    /// Task keys: `nodes[i]` is the task `keys[i]`; keys beyond
    /// `nodes.len()` are tasks a recorded dependency names although they had
    /// left the store.
    pub keys: Vec<String>,
    /// The memoized tasks, in the store's export order.
    pub nodes: Vec<GraphNode>,
    /// The one persisted value: the encoded output of the build's root task
    /// (the linked image). Empty when the root had none.
    pub root_value: Vec<u8>,
}

/// Writes a graph file piece by piece, for a store too large to copy into
/// a [`GraphFile`] first. Keys may be added at any time (a dependency can
/// name a task that is not a node); nodes in order, each followed by exactly
/// the dependencies it announced.
#[derive(Debug)]
pub struct GraphWriter {
    identity: u64,
    keys: Writer,
    key_count: u32,
    nodes: Writer,
    node_count: usize,
}

impl GraphWriter {
    /// An empty graph recorded under compiler `identity`.
    pub fn new(identity: u64) -> Self {
        GraphWriter {
            identity,
            keys: Writer::new(),
            key_count: 0,
            nodes: Writer::new(),
            node_count: 0,
        }
    }

    /// Appends a task key to the table and returns its index. The first
    /// keys are the nodes', in node order.
    pub fn key(&mut self, label: &str) -> u32 {
        self.keys.str(label);
        self.key_count += 1;
        self.key_count - 1
    }

    /// Starts the next node; `dep_count` dependencies follow.
    pub fn node(&mut self, fingerprint: u64, dep_count: usize) {
        self.nodes.u64(fingerprint);
        self.nodes.usize(dep_count);
        self.node_count += 1;
    }

    /// A [`GraphDep::Input`] of the node under way.
    pub fn input(&mut self, name: &str, stamp: u64) {
        self.nodes.u8(0);
        self.nodes.str(name);
        self.nodes.u64(stamp);
    }

    /// A [`GraphDep::Task`] of the node under way.
    pub fn task(&mut self, key: u32, fingerprint: u64) {
        self.nodes.u8(1);
        self.nodes.u32(key);
        self.nodes.u64(fingerprint);
    }

    /// The file: magic, version, payload, FNV-64 of the payload.
    pub fn finish(self, root_value: &[u8]) -> Vec<u8> {
        let mut out = Writer::new();
        out.raw(GRAPH_MAGIC);
        out.u32(GRAPH_VERSION);
        let payload_start = out.len();
        out.u64(self.identity);
        out.u32(self.key_count);
        out.raw(&self.keys.into_bytes());
        out.usize(self.node_count);
        out.raw(&self.nodes.into_bytes());
        out.bytes(root_value);
        let mut bytes = out.into_bytes();
        let mut trailer = Writer::new();
        trailer.u64(fnv64(&bytes[payload_start..]));
        bytes.extend(trailer.into_bytes());
        bytes
    }
}

impl GraphFile {
    /// Serializes the graph (see [`GraphWriter`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = GraphWriter::new(self.identity);
        for key in &self.keys {
            w.key(key);
        }
        for node in &self.nodes {
            w.node(node.fingerprint, node.deps.len());
            for dep in &node.deps {
                match dep {
                    GraphDep::Input { name, stamp } => w.input(name, *stamp),
                    GraphDep::Task { key, fingerprint } => w.task(*key, *fingerprint),
                }
            }
        }
        w.finish(&self.root_value)
    }

    /// Deserializes a graph. Every count is checked against the remaining
    /// input before anything is allocated for it, so hostile lengths cost a
    /// typed error, not memory.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, corrupt, structurally
    /// inconsistent or version-skewed input (callers cold-start).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < GRAPH_MAGIC.len() || &bytes[..GRAPH_MAGIC.len()] != GRAPH_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let mut r = Reader::new(&bytes[GRAPH_MAGIC.len()..]);
        let version = r.u32()?;
        if version != GRAPH_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let payload_start = bytes.len() - r.remaining();
        let identity = r.u64()?;
        let key_count = bounded(r.usize()?, &r)?;
        let mut keys = Vec::with_capacity(key_count);
        for _ in 0..key_count {
            keys.push(r.str()?);
        }
        let node_count = bounded(r.usize()?, &r)?;
        if node_count > key_count {
            return Err(DecodeError::Corrupt);
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let fingerprint = r.u64()?;
            let dep_count = bounded(r.usize()?, &r)?;
            let mut deps = Vec::with_capacity(dep_count);
            for _ in 0..dep_count {
                deps.push(match r.u8()? {
                    0 => GraphDep::Input {
                        name: r.str()?,
                        stamp: r.u64()?,
                    },
                    1 => {
                        let key = r.u32()?;
                        if key as usize >= key_count {
                            return Err(DecodeError::Corrupt);
                        }
                        GraphDep::Task {
                            key,
                            fingerprint: r.u64()?,
                        }
                    }
                    _ => return Err(DecodeError::Corrupt),
                });
            }
            nodes.push(GraphNode { fingerprint, deps });
        }
        let root_value = r.bytes()?.to_vec();
        let payload_end = bytes.len() - r.remaining();
        let declared = r.u64()?;
        if !r.is_done() || fnv64(&bytes[payload_start..payload_end]) != declared {
            return Err(DecodeError::Corrupt);
        }
        Ok(GraphFile {
            identity,
            keys,
            nodes,
            root_value,
        })
    }
}

/// A declared element count, rejected when the remaining input could not
/// hold that many elements (each takes at least one byte).
fn bounded(count: usize, r: &Reader<'_>) -> Result<usize, DecodeError> {
    if count > r.remaining() {
        return Err(DecodeError::BadLength);
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphFile {
        GraphFile {
            identity: 0xfeed_beef,
            keys: vec!["parse(a)".into(), "link".into(), "codegen(gone)".into()],
            nodes: vec![
                GraphNode {
                    fingerprint: u64::MAX,
                    deps: vec![GraphDep::Input {
                        name: "src:a".into(),
                        stamp: 7,
                    }],
                },
                GraphNode {
                    fingerprint: 42,
                    deps: vec![
                        GraphDep::Task {
                            key: 0,
                            fingerprint: u64::MAX,
                        },
                        GraphDep::Task {
                            key: 2,
                            fingerprint: 1,
                        },
                    ],
                },
            ],
            root_value: vec![0, 1, 2, 0xff],
        }
    }

    #[test]
    fn roundtrips_and_encodes_deterministically() {
        let graph = sample();
        let bytes = graph.to_bytes();
        assert_eq!(bytes, graph.clone().to_bytes());
        assert_eq!(GraphFile::from_bytes(&bytes).unwrap(), graph);
        let empty = GraphFile::default();
        assert_eq!(GraphFile::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn truncations_and_bitflips_never_decode() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(GraphFile::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[i] ^= 1 << bit;
                assert!(GraphFile::from_bytes(&b).is_err(), "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn version_skew_and_bad_magic_are_typed() {
        let mut bytes = sample().to_bytes();
        assert_eq!(GraphFile::from_bytes(b"junk"), Err(DecodeError::BadMagic));
        bytes[GRAPH_MAGIC.len()] = 9;
        assert_eq!(
            GraphFile::from_bytes(&bytes),
            Err(DecodeError::BadVersion(9))
        );
    }

    /// A well-checksummed file whose counts or indices lie is rejected
    /// before any allocation sized by the lie.
    #[test]
    fn hostile_counts_and_indices_are_rejected() {
        let reframe = |payload: Vec<u8>| {
            let mut out = Writer::new();
            out.raw(GRAPH_MAGIC);
            out.u32(GRAPH_VERSION);
            out.raw(&payload);
            out.u64(fnv64(&payload));
            out.into_bytes()
        };
        // A key count far beyond the input.
        let mut w = Writer::new();
        w.u64(1);
        w.u64(u64::MAX >> 1);
        assert_eq!(
            GraphFile::from_bytes(&reframe(w.into_bytes())),
            Err(DecodeError::BadLength)
        );
        // More nodes than keys.
        let mut w = Writer::new();
        w.u64(1);
        w.usize(0);
        w.usize(1);
        w.u64(5);
        w.usize(0);
        w.bytes(&[]);
        assert_eq!(
            GraphFile::from_bytes(&reframe(w.into_bytes())),
            Err(DecodeError::Corrupt)
        );
        // A dependency on a key that is not in the table.
        let mut graph = sample();
        graph.nodes[1].deps[0] = GraphDep::Task {
            key: 3,
            fingerprint: 0,
        };
        assert_eq!(
            GraphFile::from_bytes(&graph.to_bytes()),
            Err(DecodeError::Corrupt)
        );
    }
}
