//! The persisted query graph: what an incremental engine needs to decide
//! that nothing changed, plus the values a red task needs from a green one.
//!
//! A [`GraphFile`] is the container the build system's query store travels
//! in between processes: per task an output fingerprint, the dependency
//! trace of its last execution (input stamps, dependency fingerprints) and,
//! for the tasks whose values are worth keeping, the value's bytes. One rule
//! covers every value: **a persisted value is the exact byte string its
//! node's fingerprint hashes** (FNV-64), so a value proves itself current
//! and intact — the trailer checksum covers everything else. A session
//! hashes a value when it first demands it, and one that does not hash to
//! its node's fingerprint is a miss and a recovery event, never a served
//! value; [`GraphFile::from_bytes`] and `fsck` hash every value.
//! Task keys and value encodings are opaque here; `sfcc-buildsys` owns
//! their meaning. The file is committed as the [`GRAPH_LOGICAL`] entry of
//! the same manifest as the dormancy state and the function cache (see
//! [`crate::persist`]), so the `state:` stamps and values it records are
//! all-old or all-new together with the state they describe.
//!
//! The header carries a format version and nothing else: flags reach the
//! graph only as tracked inputs. Every `optimizefn` records its `state:`
//! stamp, which hashes the mode and the pass pipeline, so a graph recorded
//! under other flags validates its front end and re-executes what the flags
//! shape ([`crate::Compiler::state_stamp_fn`]).
//!
//! Every file and segment leads with an [`InputSection`]: the inputs `link`
//! transitively read, with their stamps, and what a report of a build that
//! executes nothing needs. It is length-prefixed and carries its own
//! checksum, so a session reads a chain's tip up to the end of its section
//! ([`section_span`]) and decides whether anything changed before it reads
//! the rest; the trailer covers what follows the section.

use sfcc_codec::{fnv64, fnv64_continue, DecodeError, Reader, Writer};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, Weak};

/// Logical name of the query graph in the commit manifest.
pub const GRAPH_LOGICAL: &str = "depgraph";

const GRAPH_MAGIC: &[u8; 7] = b"SFCCDG\0";
/// Current graph-file format version (4: an input section leads; an
/// older file is a version-skew cold start).
pub const GRAPH_VERSION: u32 = 4;

const SEGMENT_MAGIC: &[u8; 7] = b"SFCCDS\0";
/// Current graph-segment format version (3: an input section leads).
const SEGMENT_VERSION: u32 = 3;

/// What a session needs to decide, before it reads a graph, that nothing
/// changed since the commit that wrote it — and to report the build that
/// then executes nothing. The builder fills in the inputs, `link`'s
/// fingerprint and its module order; the compiler session the state it
/// commits beside it ([`crate::Compiler::seal_section`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputSection {
    /// Every input `link` transitively read, with the stamp it was
    /// recorded with, once each.
    pub inputs: Vec<(String, u64)>,
    /// `link`'s output fingerprint: the FNV-64 of the image.
    pub link: u64,
    /// The modules whose `codegen` `link` demanded, in demand order.
    pub order: Vec<String>,
    /// The manifest checksum of the state committed beside the section,
    /// which every recorded `state:` stamp was taken of (`None` without one).
    pub state: Option<u64>,
    /// The hash of the flags' `state:` stamp prefix.
    pub prefix: u64,
    /// The committed state's `state.functions`, `state.dormant_slots` and
    /// `state.recorded_skips` gauges.
    pub gauges: [u64; 3],
}

impl InputSection {
    /// The section's bytes: its fields, then the FNV-64 of them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.inputs.len());
        for (name, stamp) in &self.inputs {
            w.str(name);
            w.u64(*stamp);
        }
        w.u64(self.link);
        w.usize(self.order.len());
        for module in &self.order {
            w.str(module);
        }
        match self.state {
            Some(checksum) => {
                w.u8(1);
                w.u64(checksum);
            }
            None => w.u8(0),
        }
        w.u64(self.prefix);
        for gauge in self.gauges {
            w.u64(gauge);
        }
        let checksum = fnv64(w.as_bytes());
        w.raw(&checksum.to_le_bytes());
        w.into_bytes()
    }

    /// Decodes a section. Every count is checked against the remaining
    /// input before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// A typed error for a section that is truncated, fails its checksum,
    /// or does not decode to exactly its bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let split = bytes
            .len()
            .checked_sub(8)
            .ok_or(DecodeError::UnexpectedEof)?;
        let (body, checksum) = bytes.split_at(split);
        if fnv64(body).to_le_bytes() != checksum {
            return Err(DecodeError::Corrupt);
        }
        let mut r = Reader::new(body);
        let count = r.count()?;
        let mut inputs = Vec::with_capacity(count);
        for _ in 0..count {
            inputs.push((r.str()?, r.u64()?));
        }
        let link = r.u64()?;
        let count = r.count()?;
        let mut order = Vec::with_capacity(count);
        for _ in 0..count {
            order.push(r.str()?);
        }
        let state = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return Err(DecodeError::Corrupt),
        };
        let prefix = r.u64()?;
        let gauges = [r.u64()?, r.u64()?, r.u64()?];
        if !r.is_done() {
            return Err(DecodeError::Corrupt);
        }
        Ok(InputSection {
            inputs,
            link,
            order,
            state,
            prefix,
            gauges,
        })
    }
}

/// Where the input section of a graph file (`segment` false) or segment
/// whose first bytes are `head` lies in it: its byte range, which `head`
/// need not reach.
///
/// # Errors
///
/// A typed error when `head` does not start with the kind's magic and
/// current version followed by the section's length.
pub fn section_span(head: &[u8], segment: bool) -> Result<Range<usize>, DecodeError> {
    let (magic, version) = match segment {
        false => (GRAPH_MAGIC, GRAPH_VERSION),
        true => (SEGMENT_MAGIC, SEGMENT_VERSION),
    };
    let mut r = sfcc_codec::open(head, magic, version)?;
    let len = r.usize()?;
    let start = head.len() - r.remaining();
    Ok(start..start.checked_add(len).ok_or(DecodeError::BadLength)?)
}

/// Reads the input section a file leads with, after its header, unchecked:
/// of a chain's links only the last one's is the folded file's, and that
/// one is checked ([`GraphFile::check_section`]).
fn read_section(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
    Ok(r.bytes()?.to_vec())
}

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

/// A byte string inside a shared buffer: the values of a decoded graph, and
/// the entries of a decoded function cache, are slices of the one file
/// buffer, not copies of it.
#[derive(Clone)]
pub struct ValueBytes {
    buffer: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl ValueBytes {
    /// The bytes `buffer[range]`, sharing the buffer.
    pub(crate) fn slice(buffer: &Arc<Vec<u8>>, range: Range<usize>) -> Self {
        ValueBytes {
            buffer: Arc::clone(buffer),
            range,
        }
    }
}

impl ValueBytes {
    /// Whether these bytes are a slice of `buffer`.
    pub(crate) fn shares(&self, buffer: &Arc<Vec<u8>>) -> bool {
        Arc::ptr_eq(&self.buffer, buffer)
    }

    /// Whether these bytes are a slice of the buffer `buffer` points to.
    pub(crate) fn lives_in(&self, buffer: &Weak<Vec<u8>>) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.buffer), buffer.as_ptr())
    }

    /// Whether these bytes are the value of a node whose fingerprint is
    /// `fingerprint`: the one check a persisted value needs.
    pub fn hashes_to(&self, fingerprint: u64) -> bool {
        fnv64(self) == fingerprint
    }
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
    /// Task keys: `nodes[i]` is the task `keys[i]`; keys beyond
    /// `nodes.len()` are tasks a recorded dependency names although they had
    /// left the store.
    pub keys: Vec<String>,
    /// The memoized tasks, in the store's export order.
    pub nodes: Vec<GraphNode>,
    /// The encoded [`InputSection`] the file leads with; empty for none.
    pub section: Vec<u8>,
}

/// Writes a graph file piece by piece into one buffer, for a store too
/// large to copy into a [`GraphFile`] first: value bytes are copied once,
/// straight into the output, and never hashed (their fingerprints are their
/// checksums). Keys may be added at any time (a dependency can name a task
/// that is not a node); nodes in order, each followed by exactly the
/// dependencies it announced.
#[derive(Debug)]
pub struct GraphWriter {
    nodes: NodeWriter,
    keys: Writer,
    key_count: u32,
}

/// The node records both file kinds share, and the trailer checksum over
/// everything written so far.
#[derive(Debug)]
struct NodeWriter {
    out: Writer,
    /// The trailer checksum over `out[..hashed]`, value bytes left out.
    checksum: Checksum,
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

impl NodeWriter {
    /// A file opened with `magic`, `version` and the encoded input
    /// `section`; the checksum starts after them.
    fn new(magic: &[u8], version: u32, section: &[u8]) -> Self {
        let mut out = Writer::new();
        out.raw(magic);
        out.u32(version);
        out.bytes(section);
        let checksum = Checksum::starting_at(out.len());
        NodeWriter { out, checksum }
    }

    fn node(&mut self, fingerprint: u64, value: Option<&[u8]>, dep_count: usize) {
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

    fn input(&mut self, name: &str, stamp: u64) {
        self.out.u8(0);
        self.out.str(name);
        self.out.u64(stamp);
    }

    fn task(&mut self, key: u32, fingerprint: u64) {
        self.out.u8(1);
        self.out.u32(key);
        self.out.u64(fingerprint);
    }

    /// The file, `tail` appended to the payload, then the trailer.
    fn finish(self, tail: &[u8]) -> Vec<u8> {
        let NodeWriter {
            mut out,
            mut checksum,
        } = self;
        out.raw(tail);
        checksum.take(out.as_bytes(), out.len());
        out.u64(checksum.state);
        out.into_bytes()
    }
}

impl GraphWriter {
    /// An empty graph of `node_count` nodes, led by the encoded input
    /// `section` (empty for none).
    pub fn new(node_count: usize, section: &[u8]) -> Self {
        let mut nodes = NodeWriter::new(GRAPH_MAGIC, GRAPH_VERSION, section);
        nodes.out.usize(node_count);
        GraphWriter {
            nodes,
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
        self.nodes.node(fingerprint, value, dep_count);
    }

    /// A [`GraphDep::Input`] of the node under way.
    pub fn input(&mut self, name: &str, stamp: u64) {
        self.nodes.input(name, stamp);
    }

    /// A [`GraphDep::Task`] of the node under way.
    pub fn task(&mut self, key: u32, fingerprint: u64) {
        self.nodes.task(key, fingerprint);
    }

    /// The file: magic, version, input section, payload (nodes, key
    /// table), FNV-64 of the payload without its value bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut tail = Writer::new();
        tail.u32(self.key_count);
        tail.raw(self.keys.as_bytes());
        self.nodes.finish(tail.as_bytes())
    }
}

/// Writes a graph *segment*: what changed in a store since the graph file
/// it extends — the *parent* — was committed. Its keys index the parent's
/// key table, extended by the labels the segment adds
/// ([`SegmentWriter::label`]); it carries the nodes that changed, whole, and
/// the key table of the file the store encodes to — its nodes' keys in
/// node order, then the keys only dependencies name — so
/// `GraphFile::fold` needs nothing else to produce that file.
#[derive(Debug)]
pub struct SegmentWriter {
    nodes: NodeWriter,
    labels: Writer,
    label_count: u32,
    parent_keys: u32,
}

impl SegmentWriter {
    /// An empty segment of `node_count` changed nodes, extending a graph
    /// file of `parent_keys` keys whose manifest checksum is `parent`, led
    /// by the encoded input `section` of the file it folds to.
    pub fn new(parent: u64, parent_keys: u32, node_count: usize, section: &[u8]) -> Self {
        let mut nodes = NodeWriter::new(SEGMENT_MAGIC, SEGMENT_VERSION, section);
        nodes.out.u64(parent);
        nodes.out.u32(parent_keys);
        nodes.out.usize(node_count);
        SegmentWriter {
            nodes,
            labels: Writer::new(),
            label_count: 0,
            parent_keys,
        }
    }

    /// Adds a label the parent's key table lacks and returns its index,
    /// past the parent's keys.
    pub fn label(&mut self, label: &str) -> u32 {
        self.labels.str(label);
        self.label_count += 1;
        self.parent_keys + self.label_count - 1
    }

    /// Starts the next changed node: its key, fingerprint and value;
    /// `dep_count` dependencies follow.
    pub fn node(&mut self, key: u32, fingerprint: u64, value: Option<&[u8]>, dep_count: usize) {
        self.nodes.out.u32(key);
        self.nodes.node(fingerprint, value, dep_count);
    }

    /// A [`GraphDep::Input`] of the node under way.
    pub fn input(&mut self, name: &str, stamp: u64) {
        self.nodes.input(name, stamp);
    }

    /// A [`GraphDep::Task`] of the node under way.
    pub fn task(&mut self, key: u32, fingerprint: u64) {
        self.nodes.task(key, fingerprint);
    }

    /// The segment: magic, version, input section, payload (parent, changed
    /// nodes, added labels, the file's key table `table` — its first
    /// `nodes` keys the nodes', in file order), FNV-64 of the payload
    /// without its value bytes.
    pub fn finish(self, nodes: usize, table: &[u32]) -> Vec<u8> {
        let mut tail = Writer::new();
        tail.u32(self.label_count);
        tail.raw(self.labels.as_bytes());
        tail.usize(nodes);
        tail.usize(table.len());
        for &key in table {
            tail.u32(key);
        }
        self.nodes.finish(tail.as_bytes())
    }
}

/// A decoded segment (see [`SegmentWriter`]), values unchecked.
struct GraphSegment {
    parent: u64,
    parent_keys: usize,
    nodes: Vec<(usize, GraphNode)>,
    labels: Vec<String>,
    /// How many of `table`'s keys are nodes'.
    placed: usize,
    table: Vec<usize>,
    section: Vec<u8>,
}

/// Reads one node record (see [`NodeWriter::node`]); its value stays a
/// slice of `buffer`, unchecked, and is stepped over by `checksum`. Raises
/// `max_key` to the largest dependency key it names.
fn read_node(
    r: &mut Reader<'_>,
    buffer: &Arc<Vec<u8>>,
    checksum: &mut Checksum,
    max_key: &mut Option<usize>,
) -> Result<GraphNode, DecodeError> {
    let offset = |r: &Reader<'_>| buffer.len() - r.remaining();
    let fingerprint = r.u64()?;
    let value = match r.u8()? {
        0 => None,
        1 => {
            let len = r.bytes()?.len();
            let end = offset(r);
            let range = end - len..end;
            checksum.skip(buffer, &range);
            Some(ValueBytes::slice(buffer, range))
        }
        _ => return Err(DecodeError::Corrupt),
    };
    let dep_count = r.count()?;
    let mut deps = Vec::with_capacity(dep_count);
    for _ in 0..dep_count {
        deps.push(match r.u8()? {
            0 => GraphDep::Input {
                name: r.str()?,
                stamp: r.u64()?,
            },
            1 => {
                let key = r.u32()?;
                *max_key = (*max_key).max(Some(key as usize));
                GraphDep::Task {
                    key,
                    fingerprint: r.u64()?,
                }
            }
            _ => return Err(DecodeError::Corrupt),
        });
    }
    Ok(GraphNode {
        fingerprint,
        deps,
        value,
    })
}

/// Checks the trailer: the checksum of everything up to it, and nothing
/// after it.
fn close(mut r: Reader<'_>, buffer: &[u8], mut checksum: Checksum) -> Result<(), DecodeError> {
    checksum.take(buffer, buffer.len() - r.remaining());
    let declared = r.u64()?;
    if !r.is_done() || checksum.state != declared {
        return Err(DecodeError::Corrupt);
    }
    Ok(())
}

impl GraphSegment {
    fn decode(buffer: Arc<Vec<u8>>) -> Result<Self, DecodeError> {
        let mut r = sfcc_codec::open(&buffer, SEGMENT_MAGIC, SEGMENT_VERSION)?;
        let section = read_section(&mut r)?;
        let mut checksum = Checksum::starting_at(buffer.len() - r.remaining());
        let parent = r.u64()?;
        let parent_keys = r.u32()? as usize;
        let node_count = r.count()?;
        let mut nodes = Vec::with_capacity(node_count);
        let mut max_key = None;
        for _ in 0..node_count {
            let key = r.u32()? as usize;
            max_key = max_key.max(Some(key));
            nodes.push((
                key,
                read_node(&mut r, &buffer, &mut checksum, &mut max_key)?,
            ));
        }
        let label_count = r.count()?;
        let mut labels = Vec::with_capacity(label_count);
        for _ in 0..label_count {
            labels.push(r.str()?);
        }
        let placed = r.usize()?;
        let table_len = r.count()?;
        let mut table = Vec::with_capacity(table_len);
        for _ in 0..table_len {
            let key = r.u32()? as usize;
            max_key = max_key.max(Some(key));
            table.push(key);
        }
        if placed > table_len {
            return Err(DecodeError::Corrupt);
        }
        if max_key.is_some_and(|key| key >= parent_keys + label_count) {
            return Err(DecodeError::Corrupt);
        }
        close(r, &buffer, checksum)?;
        Ok(GraphSegment {
            parent,
            parent_keys,
            nodes,
            labels,
            placed,
            table,
            section,
        })
    }
}

impl GraphFile {
    /// Serializes the graph (see [`GraphWriter`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = GraphWriter::new(self.nodes.len(), &self.section);
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
        let graph = Self::decode(Arc::new(bytes.into()))?;
        graph.check_section()?;
        graph.check_values().map_err(|_| DecodeError::Corrupt)?;
        Ok(graph)
    }

    /// Checks the input section the file leads with: an empty one is
    /// none, any other must decode.
    pub(crate) fn check_section(&self) -> Result<(), DecodeError> {
        if !self.section.is_empty() {
            InputSection::from_bytes(&self.section)?;
        }
        Ok(())
    }

    /// [`GraphFile::from_bytes`] of a shared buffer, values and input
    /// section unchecked.
    pub(crate) fn decode(buffer: Arc<Vec<u8>>) -> Result<Self, DecodeError> {
        let mut r = sfcc_codec::open(&buffer, GRAPH_MAGIC, GRAPH_VERSION)?;
        let section = read_section(&mut r)?;
        let mut checksum = Checksum::starting_at(buffer.len() - r.remaining());
        let node_count = r.count()?;
        let mut nodes = Vec::with_capacity(node_count);
        let mut max_key = None;
        for _ in 0..node_count {
            nodes.push(read_node(&mut r, &buffer, &mut checksum, &mut max_key)?);
        }
        let key_count = r.count()?;
        if node_count > key_count || max_key.is_some_and(|key| key >= key_count) {
            return Err(DecodeError::Corrupt);
        }
        let mut keys = Vec::with_capacity(key_count);
        for _ in 0..key_count {
            keys.push(r.str()?);
        }
        close(r, &buffer, checksum)?;
        Ok(GraphFile {
            keys,
            nodes,
            section,
        })
    }

    /// Hashes every value against its node's fingerprint; the first that
    /// does not match is the error.
    pub(crate) fn check_values(&self) -> Result<(), &ValueBytes> {
        let bad = self.nodes.iter().find_map(|node| {
            node.value
                .as_ref()
                .filter(|value| !value.hashes_to(node.fingerprint))
        });
        bad.map_or(Ok(()), Err)
    }

    /// The graph file the chain of `segments` describes, this file its
    /// base: each segment — with the manifest checksum of the link before
    /// it — replaces or adds the nodes that changed, names the key table
    /// of the file it describes, its nodes' keys first, and carries that
    /// file's input section. One pass: the nodes
    /// stay where they are, in an index space of every key the chain names,
    /// until the last segment's table places them. Values are not checked
    /// here: a session checks each when it first demands it, `fsck` all
    /// that remain ([`GraphFile::check_values`]).
    ///
    /// # Errors
    ///
    /// The index of a segment that does not decode, was recorded against
    /// another parent, or whose key table names
    /// a key twice, a node's key without a node, or misses a key a node's
    /// dependency names.
    pub(crate) fn fold(
        self,
        segments: impl IntoIterator<Item = (Arc<Vec<u8>>, u64)>,
    ) -> Result<GraphFile, (usize, DecodeError)> {
        let mut segments = segments.into_iter().enumerate().peekable();
        if segments.peek().is_none() {
            return Ok(self);
        }
        // Every key the chain names, by chain id: the base's, then each
        // segment's labels; each id's node, its dependencies naming ids.
        let mut keys = self.keys;
        let mut placed = self.nodes.len();
        let mut nodes: Vec<Option<GraphNode>> = self.nodes.into_iter().map(Some).collect();
        nodes.resize_with(keys.len(), || None);
        // The current file's key table by chain id; its first `placed`
        // keys are its nodes'.
        let mut table: Vec<u32> = (0..keys.len() as u32).collect();
        let (mut last, mut section) = (0, self.section);
        for (i, (buffer, parent)) in segments {
            let corrupt = (i, DecodeError::Corrupt);
            let segment = GraphSegment::decode(buffer).map_err(|e| (i, e))?;
            if segment.parent != parent || segment.parent_keys != table.len() {
                return Err(corrupt);
            }
            let (known, first_label) = (table.len(), keys.len());
            let id = |key: usize| match table.get(key) {
                Some(&id) => id,
                None => (first_label + key - known) as u32,
            };
            keys.extend(segment.labels);
            nodes.resize_with(keys.len(), || None);
            for (key, mut node) in segment.nodes {
                for dep in &mut node.deps {
                    if let GraphDep::Task { key, .. } = dep {
                        *key = id(*key as usize);
                    }
                }
                nodes[id(key) as usize] = Some(node);
            }
            let next: Vec<u32> = segment.table.iter().map(|&key| id(key)).collect();
            let mut listed = vec![false; nodes.len()];
            for &id in &next {
                if std::mem::replace(&mut listed[id as usize], true) {
                    return Err(corrupt);
                }
            }
            for &id in &next[segment.placed..] {
                listed[id as usize] = false;
            }
            if next[..segment.placed]
                .iter()
                .any(|&id| nodes[id as usize].is_none())
            {
                return Err(corrupt);
            }
            // A node the new table does not place is gone.
            for &id in &table[..placed] {
                if !listed[id as usize] {
                    nodes[id as usize] = None;
                }
            }
            (table, placed, last) = (next, segment.placed, i);
            section = segment.section;
        }
        const UNLISTED: u32 = u32::MAX;
        let mut index = vec![UNLISTED; keys.len()];
        for (at, &id) in table.iter().enumerate() {
            index[id as usize] = at as u32;
        }
        let mut placed_nodes = Vec::with_capacity(placed);
        for &id in &table[..placed] {
            let mut node = nodes[id as usize].take().expect("placed nodes are present");
            for dep in &mut node.deps {
                if let GraphDep::Task { key, .. } = dep {
                    *key = index[*key as usize];
                    if *key == UNLISTED {
                        return Err((last, DecodeError::Corrupt));
                    }
                }
            }
            placed_nodes.push(node);
        }
        Ok(GraphFile {
            keys: table
                .iter()
                .map(|&id| std::mem::take(&mut keys[id as usize]))
                .collect(),
            nodes: placed_nodes,
            section,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphFile {
        GraphFile {
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
            section: section(7).to_bytes(),
        }
    }

    /// A section over `src:a` at stamp `stamp`.
    fn section(stamp: u64) -> InputSection {
        InputSection {
            inputs: vec![("src:a".into(), stamp), ("state:a::f".into(), 3)],
            link: fnv64(&[0, 1, 2, 0xff]),
            order: vec!["a".into()],
            state: Some(11),
            prefix: 12,
            gauges: [1, 2, 3],
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

    /// A segment that replaces `link`, adds a node under a new label whose
    /// dependency names a third new label, and drops `parse(a)`.
    fn segment_of_sample(parent: u64, table: &[u32]) -> Vec<u8> {
        let mut w = SegmentWriter::new(parent, 3, 2, &section(8).to_bytes());
        let link = fnv64(b"image");
        w.node(1, link, Some(b"image"), 1);
        let codegen = w.label("codegen(b)");
        w.task(codegen, 9);
        w.node(codegen, 9, None, 1);
        let gone = w.label("parse(b)");
        w.task(gone, 4);
        w.finish(2, table)
    }

    /// Folding a segment gives the file the changed store encodes to: its
    /// key table decides which nodes remain and where, and which keys only
    /// dependencies name.
    #[test]
    fn a_segment_folds_to_the_file_of_the_store_it_describes() {
        let parent = fnv64(&sample().to_bytes());
        let bytes = segment_of_sample(parent, &[3, 1, 4]);
        let buffer = Arc::new(bytes.clone());
        let folded = sample().fold([(Arc::clone(&buffer), parent)]).unwrap();
        let want = GraphFile {
            keys: vec!["codegen(b)".into(), "link".into(), "parse(b)".into()],
            nodes: vec![
                GraphNode {
                    fingerprint: 9,
                    deps: vec![GraphDep::Task {
                        key: 2,
                        fingerprint: 4,
                    }],
                    value: None,
                },
                GraphNode {
                    fingerprint: fnv64(b"image"),
                    deps: vec![GraphDep::Task {
                        key: 0,
                        fingerprint: 9,
                    }],
                    value: Some(b"image".to_vec().into()),
                },
            ],
            section: section(8).to_bytes(),
        };
        assert_eq!(folded, want);
        assert_eq!(folded.check_values(), Ok(()));
        // A folded value is a slice of the segment, not a copy.
        assert!(folded.nodes[1].value.as_ref().unwrap().shares(&buffer));
        // A second segment, written against the folded file: `codegen(b)`
        // moves, `link` stays, and `parse(b)`, named by nothing now, leaves
        // the key table.
        let mut w = SegmentWriter::new(5, 3, 1, &[]);
        w.node(0, 10, None, 0);
        let second = w.finish(2, &[0, 1]);
        let mut want = folded.clone();
        want.keys.pop();
        want.section = Vec::new();
        want.nodes[0] = GraphNode {
            fingerprint: 10,
            deps: Vec::new(),
            value: None,
        };
        let chain = [
            (Arc::new(bytes.clone()), parent),
            (Arc::new(second.clone()), 5),
        ];
        assert_eq!(sample().fold(chain), Ok(want.clone()));
        assert_eq!(folded.fold([(Arc::new(second), 5)]), Ok(want));
        for cut in 0..segment_of_sample(parent, &[3, 1, 4]).len() {
            let cut = segment_of_sample(parent, &[3, 1, 4])[..cut].to_vec();
            assert!(sample().fold([(Arc::new(cut), parent)]).is_err());
        }
    }

    /// A segment folds onto its own parent only, and its key table names
    /// each key once, a node's key only with a node, and every key a
    /// dependency names.
    #[test]
    fn a_segment_off_its_parent_or_naming_no_node_never_folds() {
        let parent = fnv64(&sample().to_bytes());
        for (segment, onto) in [
            (segment_of_sample(parent, &[3, 1, 4]), parent ^ 1),
            (segment_of_sample(parent, &[3, 1, 4, 1]), parent),
            (segment_of_sample(parent, &[3, 1]), parent),
            (segment_of_sample(parent, &[3, 4, 1]), parent),
            (segment_of_sample(parent, &[3, 5, 4]), parent),
        ] {
            assert_eq!(
                sample().fold([(Arc::new(segment), onto)]),
                Err((0, DecodeError::Corrupt))
            );
        }
        let mut other = sample();
        other.keys.push("extra".into());
        let segment = Arc::new(segment_of_sample(parent, &[3, 1, 4]));
        assert!(other.fold([(segment, parent)]).is_err());
    }

    /// A well-checksummed file whose counts or indices lie is rejected
    /// before any allocation sized by the lie.
    #[test]
    fn hostile_counts_and_indices_are_rejected() {
        let reframe =
            |payload: Vec<u8>| sfcc_codec::armor(GRAPH_MAGIC, GRAPH_VERSION, |w| w.raw(&payload));
        // A node count far beyond the input, after an empty section.
        let mut w = Writer::new();
        w.usize(0);
        w.u64(u64::MAX >> 1);
        assert_eq!(
            GraphFile::from_bytes(reframe(w.into_bytes())),
            Err(DecodeError::BadLength)
        );
        // A value longer than the input.
        let mut w = Writer::new();
        w.usize(0);
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
        w.usize(0);
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

    /// A section round-trips, and every cut and every bit flip of it is a
    /// typed error.
    #[test]
    fn a_section_round_trips_and_checks_itself() {
        let bytes = section(7).to_bytes();
        assert_eq!(InputSection::from_bytes(&bytes), Ok(section(7)));
        let none = InputSection::default();
        assert_eq!(InputSection::from_bytes(&none.to_bytes()), Ok(none));
        for cut in 0..bytes.len() {
            assert!(
                InputSection::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[i] ^= 1 << bit;
                assert!(InputSection::from_bytes(&b).is_err(), "byte {i} bit {bit}");
            }
        }
    }

    /// A well-checksummed section whose input count lies is refused before
    /// anything is allocated for the count.
    #[test]
    fn a_section_with_a_hostile_count_is_a_typed_error() {
        let mut w = Writer::new();
        w.u64(u64::MAX >> 1);
        w.str("src:a");
        let checksum = fnv64(w.as_bytes());
        w.raw(&checksum.to_le_bytes());
        assert_eq!(
            InputSection::from_bytes(w.as_bytes()),
            Err(DecodeError::BadLength)
        );
    }

    /// The section's span is read off a file's first bytes, however few of
    /// the section's own they hold, for a file and a segment alike.
    #[test]
    fn the_section_span_is_read_off_the_head() {
        let file = sample().to_bytes();
        let span = section_span(&file[..12], false).unwrap();
        assert_eq!(InputSection::from_bytes(&file[span]), Ok(section(7)));
        let segment = segment_of_sample(1, &[3, 1, 4]);
        let span = section_span(&segment, true).unwrap();
        assert_eq!(InputSection::from_bytes(&segment[span]), Ok(section(8)));
        assert!(
            section_span(&segment, false).is_err(),
            "a segment is no file"
        );
        assert!(section_span(&file[..7], false).is_err());
    }
}
