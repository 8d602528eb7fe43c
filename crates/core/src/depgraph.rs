//! The persisted query graph: what an incremental engine needs to decide
//! that nothing changed, plus the values a red task needs from a green one.
//!
//! A [`GraphFile`] is the container the build system's query store travels
//! in between processes: per task an output fingerprint, the dependency
//! trace of its last execution (input stamps, dependency fingerprints) and,
//! for the tasks whose values are worth keeping, the value's bytes. One rule
//! covers every value: **a persisted value is the exact byte string its
//! node's fingerprint hashes** (FNV-64), so a value proves itself current
//! and intact — the trailer checksum covers everything else, and a file
//! whose value does not hash to its node's fingerprint does not decode.
//! Task keys and value encodings are opaque here; `sfcc-buildsys` owns
//! their meaning. The file is committed as the [`GRAPH_LOGICAL`] entry of
//! the same manifest as the dormancy state and the function cache (see
//! [`crate::persist`]), so the `state:` stamps and values it records are
//! all-old or all-new together with the state they describe.
//!
//! The header carries a format version and the compiler identity the graph
//! was recorded under. The identity is not this module's to judge: a graph
//! recorded under another identity is a cold start for the session that
//! reads it, not corruption ([`crate::Compiler::new`] drops it quietly).

use sfcc_codec::{fnv64, fnv64_continue, DecodeError, Reader, Writer};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Logical name of the query graph in the commit manifest.
pub const GRAPH_LOGICAL: &str = "depgraph";

const GRAPH_MAGIC: &[u8; 7] = b"SFCCDG\0";
/// Current graph-file format version (2: values beside any node; a
/// version-1 file is a version-skew cold start).
pub const GRAPH_VERSION: u32 = 2;

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

/// A byte string inside a shared buffer: the values of a decoded graph are
/// slices of the one file buffer, not copies of it.
#[derive(Clone)]
pub struct ValueBytes {
    buffer: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl From<Vec<u8>> for ValueBytes {
    fn from(bytes: Vec<u8>) -> Self {
        let range = 0..bytes.len();
        ValueBytes {
            buffer: Arc::new(bytes),
            range,
        }
    }
}

impl Deref for ValueBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buffer[self.range.clone()]
    }
}

impl PartialEq for ValueBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ValueBytes {}

impl fmt::Debug for ValueBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ValueBytes({} B)", self.len())
    }
}

/// One memoized task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// The task's output fingerprint.
    pub fingerprint: u64,
    /// The dependency trace of its last execution.
    pub deps: Vec<GraphDep>,
    /// The task's value, encoded: the byte string `fingerprint` hashes.
    pub value: Option<ValueBytes>,
}

/// A query store reduced to what validation reads, and the values worth
/// keeping.
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
}

/// Writes a graph file piece by piece into one buffer, for a store too
/// large to copy into a [`GraphFile`] first: value bytes are copied once,
/// straight into the output, and never hashed (their fingerprints are their
/// checksums). Keys may be added at any time (a dependency can name a task
/// that is not a node); nodes in order, each followed by exactly the
/// dependencies it announced.
#[derive(Debug)]
pub struct GraphWriter {
    out: Writer,
    /// The trailer checksum over `out[..hashed]`, value bytes left out.
    checksum: Checksum,
    keys: Writer,
    key_count: u32,
}

/// The trailer checksum: FNV-64 over the payload without its value bytes,
/// taken piece by piece.
#[derive(Debug)]
struct Checksum {
    state: u64,
    /// Offset up to which the payload has been hashed or skipped.
    hashed: usize,
}

impl Checksum {
    fn starting_at(offset: usize) -> Self {
        Checksum {
            state: fnv64(&[]),
            hashed: offset,
        }
    }

    /// Hashes `bytes[self.hashed..upto]`.
    fn take(&mut self, bytes: &[u8], upto: usize) {
        self.state = fnv64_continue(self.state, &bytes[self.hashed..upto]);
        self.hashed = upto;
    }

    /// Hashes everything before `value` and steps over it.
    fn skip(&mut self, bytes: &[u8], value: &Range<usize>) {
        self.take(bytes, value.start);
        self.hashed = value.end;
    }
}

impl GraphWriter {
    /// An empty graph of `node_count` nodes recorded under compiler
    /// `identity`.
    pub fn new(identity: u64, node_count: usize) -> Self {
        let mut out = Writer::new();
        out.raw(GRAPH_MAGIC);
        out.u32(GRAPH_VERSION);
        let checksum = Checksum::starting_at(out.len());
        out.u64(identity);
        out.usize(node_count);
        GraphWriter {
            out,
            checksum,
            keys: Writer::new(),
            key_count: 0,
        }
    }

    /// Appends a task key to the table and returns its index. The first
    /// keys are the nodes', in node order.
    pub fn key(&mut self, label: &str) -> u32 {
        self.keys.str(label);
        self.key_count += 1;
        self.key_count - 1
    }

    /// Starts the next node: its fingerprint, its value's bytes if it has a
    /// persisted value; `dep_count` dependencies follow.
    pub fn node(&mut self, fingerprint: u64, value: Option<&[u8]>, dep_count: usize) {
        self.out.u64(fingerprint);
        match value {
            Some(bytes) => {
                self.out.u8(1);
                self.out.usize(bytes.len());
                let start = self.out.len();
                self.out.raw(bytes);
                let written = start..self.out.len();
                self.checksum.skip(self.out.as_bytes(), &written);
            }
            None => self.out.u8(0),
        }
        self.out.usize(dep_count);
    }

    /// A [`GraphDep::Input`] of the node under way.
    pub fn input(&mut self, name: &str, stamp: u64) {
        self.out.u8(0);
        self.out.str(name);
        self.out.u64(stamp);
    }

    /// A [`GraphDep::Task`] of the node under way.
    pub fn task(&mut self, key: u32, fingerprint: u64) {
        self.out.u8(1);
        self.out.u32(key);
        self.out.u64(fingerprint);
    }

    /// The file: magic, version, payload (identity, nodes, key table),
    /// FNV-64 of the payload without its value bytes.
    pub fn finish(self) -> Vec<u8> {
        let GraphWriter {
            mut out,
            mut checksum,
            keys,
            key_count,
        } = self;
        out.u32(key_count);
        out.raw(&keys.into_bytes());
        checksum.take(out.as_bytes(), out.len());
        out.u64(checksum.state);
        out.into_bytes()
    }
}

impl GraphFile {
    /// Serializes the graph (see [`GraphWriter`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = GraphWriter::new(self.identity, self.nodes.len());
        for key in &self.keys {
            w.key(key);
        }
        for node in &self.nodes {
            w.node(node.fingerprint, node.value.as_deref(), node.deps.len());
            for dep in &node.deps {
                match dep {
                    GraphDep::Input { name, stamp } => w.input(name, *stamp),
                    GraphDep::Task { key, fingerprint } => w.task(*key, *fingerprint),
                }
            }
        }
        w.finish()
    }

    /// Deserializes a graph; the values stay slices of `bytes`. Every count
    /// is checked against the remaining input before anything is allocated
    /// for it, so hostile lengths cost a typed error, not memory. Each
    /// value byte is hashed once, against its node's fingerprint.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, corrupt, structurally
    /// inconsistent or version-skewed input, and for a value that does not
    /// hash to its node's fingerprint (callers cold-start).
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Result<Self, DecodeError> {
        let buffer = Arc::new(bytes.into());
        let bytes = buffer.as_slice();
        if bytes.len() < GRAPH_MAGIC.len() || &bytes[..GRAPH_MAGIC.len()] != GRAPH_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let mut r = Reader::new(&bytes[GRAPH_MAGIC.len()..]);
        let version = r.u32()?;
        if version != GRAPH_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let offset = |r: &Reader<'_>| bytes.len() - r.remaining();
        let mut checksum = Checksum::starting_at(offset(&r));
        let identity = r.u64()?;
        let node_count = bounded(r.usize()?, &r)?;
        let mut nodes = Vec::with_capacity(node_count);
        let mut max_key = None;
        for _ in 0..node_count {
            let fingerprint = r.u64()?;
            let value = match r.u8()? {
                0 => None,
                1 => {
                    let value = r.bytes()?;
                    if fnv64(value) != fingerprint {
                        return Err(DecodeError::Corrupt);
                    }
                    let end = offset(&r);
                    let range = end - value.len()..end;
                    checksum.skip(bytes, &range);
                    Some(ValueBytes {
                        buffer: Arc::clone(&buffer),
                        range,
                    })
                }
                _ => return Err(DecodeError::Corrupt),
            };
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
                        max_key = max_key.max(Some(key as usize));
                        GraphDep::Task {
                            key,
                            fingerprint: r.u64()?,
                        }
                    }
                    _ => return Err(DecodeError::Corrupt),
                });
            }
            nodes.push(GraphNode {
                fingerprint,
                deps,
                value,
            });
        }
        let key_count = bounded(r.usize()?, &r)?;
        if node_count > key_count || max_key.is_some_and(|key| key >= key_count) {
            return Err(DecodeError::Corrupt);
        }
        let mut keys = Vec::with_capacity(key_count);
        for _ in 0..key_count {
            keys.push(r.str()?);
        }
        checksum.take(bytes, offset(&r));
        let declared = r.u64()?;
        if !r.is_done() || checksum.state != declared {
            return Err(DecodeError::Corrupt);
        }
        Ok(GraphFile {
            identity,
            keys,
            nodes,
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
                    value: None,
                },
                GraphNode {
                    fingerprint: fnv64(&[0, 1, 2, 0xff]),
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
                    value: Some(vec![0, 1, 2, 0xff].into()),
                },
            ],
        }
    }

    #[test]
    fn roundtrips_and_encodes_deterministically() {
        let graph = sample();
        let bytes = graph.to_bytes();
        assert_eq!(bytes, graph.clone().to_bytes());
        let back = GraphFile::from_bytes(bytes.clone()).unwrap();
        assert_eq!(back, graph);
        assert_eq!(back.to_bytes(), bytes);
        let empty = GraphFile::default();
        assert_eq!(GraphFile::from_bytes(empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn values_are_slices_of_the_file_buffer() {
        let bytes = sample().to_bytes();
        let len = bytes.len();
        let graph = GraphFile::from_bytes(bytes).unwrap();
        let value = graph.nodes[1].value.as_ref().unwrap();
        assert_eq!(&**value, &[0, 1, 2, 0xff]);
        assert_eq!(value.buffer.len(), len, "a view of the file, not a copy");
    }

    /// A value is its own checksum: one that does not hash to its node's
    /// fingerprint — here, well-formed but another node's — refuses the
    /// whole file, however intact the trailer.
    #[test]
    fn a_value_that_is_not_its_fingerprints_never_decodes() {
        let mut graph = sample();
        graph.nodes[0].value = graph.nodes[1].value.take();
        assert_eq!(
            GraphFile::from_bytes(graph.to_bytes()),
            Err(DecodeError::Corrupt)
        );
        graph.nodes[1].value = Some(vec![0, 1, 2, 0xfe].into());
        graph.nodes[0].value = None;
        assert_eq!(
            GraphFile::from_bytes(graph.to_bytes()),
            Err(DecodeError::Corrupt)
        );
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
                assert!(GraphFile::from_bytes(b).is_err(), "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn version_skew_and_bad_magic_are_typed() {
        let mut bytes = sample().to_bytes();
        assert_eq!(GraphFile::from_bytes(b"junk"), Err(DecodeError::BadMagic));
        bytes[GRAPH_MAGIC.len()] = 1;
        assert_eq!(
            GraphFile::from_bytes(bytes),
            Err(DecodeError::BadVersion(1))
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
        // A node count far beyond the input.
        let mut w = Writer::new();
        w.u64(1);
        w.u64(u64::MAX >> 1);
        assert_eq!(
            GraphFile::from_bytes(reframe(w.into_bytes())),
            Err(DecodeError::BadLength)
        );
        // A value longer than the input.
        let mut w = Writer::new();
        w.u64(1);
        w.usize(1);
        w.u64(5);
        w.u8(1);
        w.usize(1 << 40);
        assert_eq!(
            GraphFile::from_bytes(reframe(w.into_bytes())),
            Err(DecodeError::BadLength)
        );
        // More nodes than keys.
        let mut w = Writer::new();
        w.u64(1);
        w.usize(1);
        w.u64(5);
        w.u8(0);
        w.usize(0);
        w.usize(0);
        assert_eq!(
            GraphFile::from_bytes(reframe(w.into_bytes())),
            Err(DecodeError::Corrupt)
        );
        // A dependency on a key that is not in the table.
        let mut graph = sample();
        graph.nodes[1].deps[0] = GraphDep::Task {
            key: 3,
            fingerprint: 0,
        };
        assert_eq!(
            GraphFile::from_bytes(graph.to_bytes()),
            Err(DecodeError::Corrupt)
        );
    }
}
