//! [`GraphHandle`]: the store's unit of hot-swap.
//!
//! A [`crate::shared::SharedStore`] serves either representation of the
//! taxonomy — the pointer-rich mutable [`ConceptGraph`] (write/fold
//! path) or the contiguous mmap-backed [`PackedGraph`] (read path after
//! recovery from a packed snapshot). `GraphHandle` wraps the two behind
//! the full read API so serve-path closures don't care which one is
//! installed, and thaws packed → mutable in place the moment a write
//! arrives.

use crate::graph::{ConceptGraph, EdgeData, NodeId};
use crate::packed::PackedGraph;
use crate::view::{Either, GraphView};

/// A taxonomy graph in either mutable or packed form.
///
/// Cloning a `Packed` handle is O(1) (the buffer is shared); cloning a
/// `Mutable` handle deep-copies, exactly like cloning the graph itself.
#[derive(Debug, Clone)]
pub enum GraphHandle {
    /// Pointer-rich, writable representation.
    Mutable(ConceptGraph),
    /// Immutable zero-copy representation.
    Packed(PackedGraph),
}

impl Default for GraphHandle {
    fn default() -> Self {
        GraphHandle::Mutable(ConceptGraph::new())
    }
}

impl From<ConceptGraph> for GraphHandle {
    fn from(g: ConceptGraph) -> Self {
        GraphHandle::Mutable(g)
    }
}

impl From<PackedGraph> for GraphHandle {
    fn from(p: PackedGraph) -> Self {
        GraphHandle::Packed(p)
    }
}

macro_rules! dispatch {
    ($self:expr, $g:ident => $body:expr) => {
        match $self {
            GraphHandle::Mutable($g) => $body,
            GraphHandle::Packed($g) => $body,
        }
    };
}

impl GraphHandle {
    /// True when the packed representation is installed.
    pub fn is_packed(&self) -> bool {
        matches!(self, GraphHandle::Packed(_))
    }

    /// The mutable graph, if that is the current representation.
    pub fn as_mutable(&self) -> Option<&ConceptGraph> {
        match self {
            GraphHandle::Mutable(g) => Some(g),
            GraphHandle::Packed(_) => None,
        }
    }

    /// An owned mutable [`ConceptGraph`] equivalent to this handle —
    /// a clone for `Mutable`, a thaw ([`PackedGraph::unpack`]) for
    /// `Packed`. Either way the result is structurally identical to the
    /// graph the handle was built from.
    pub fn materialize(&self) -> ConceptGraph {
        match self {
            GraphHandle::Mutable(g) => g.clone(),
            GraphHandle::Packed(p) => p.unpack(),
        }
    }

    /// Thaw in place if packed and return the mutable graph. The write
    /// path calls this on first mutation; subsequent calls are free.
    /// Returns `(graph, thawed_now)`.
    pub fn make_mutable(&mut self) -> (&mut ConceptGraph, bool) {
        let thawed = if let GraphHandle::Packed(p) = self {
            *self = GraphHandle::Mutable(p.unpack());
            true
        } else {
            false
        };
        match self {
            GraphHandle::Mutable(g) => (g, thawed),
            GraphHandle::Packed(_) => unreachable!("just thawed"),
        }
    }

    /// Packed snapshot bytes for this handle: the packed buffer verbatim
    /// (no re-encode — byte-identical to the file it was opened from),
    /// or a fresh [`crate::packed::pack`] of the mutable graph.
    pub fn to_packed_bytes(&self) -> Result<bytes::Bytes, crate::packed::SnapshotError> {
        match self {
            GraphHandle::Mutable(g) => crate::packed::pack(g),
            GraphHandle::Packed(p) => Ok(p.to_bytes()),
        }
    }

    // ------------------------------------------------------------------
    // Read API, mirroring `ConceptGraph` so existing `store.read(|g| …)`
    // closures keep compiling against a handle.
    // ------------------------------------------------------------------

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        dispatch!(self, g => g.node_count())
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        dispatch!(self, g => g.edge_count())
    }

    /// Find the node for `(label, sense)` without creating it.
    pub fn find_node(&self, label: &str, sense: u32) -> Option<NodeId> {
        dispatch!(self, g => g.find_node(label, sense))
    }

    /// All senses of `label` present in the graph, ascending by sense.
    pub fn senses_of(&self, label: &str) -> Vec<NodeId> {
        dispatch!(self, g => g.senses_of(label))
    }

    /// Edge data for `from → to`.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeData> {
        match self {
            GraphHandle::Mutable(g) => g.edge(from, to).copied(),
            GraphHandle::Packed(p) => p.edge(from, to),
        }
    }

    /// Children of `n` with edge data, in adjacency insertion order.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        match self {
            GraphHandle::Mutable(g) => Either::Left(g.children(n).map(|(c, d)| (c, *d))),
            GraphHandle::Packed(p) => Either::Right(p.children(n)),
        }
    }

    /// Parents of `n` with edge data, in adjacency insertion order.
    pub fn parents(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        match self {
            GraphHandle::Mutable(g) => Either::Left(g.parents(n).map(|(p, d)| (p, *d))),
            GraphHandle::Packed(p) => Either::Right(p.parents(n)),
        }
    }

    /// Out-degree of `n`.
    pub fn child_count(&self, n: NodeId) -> usize {
        dispatch!(self, g => g.child_count(n))
    }

    /// In-degree of `n`.
    pub fn parent_count(&self, n: NodeId) -> usize {
        dispatch!(self, g => g.parent_count(n))
    }

    /// A node with no out-edges is an instance (leaf).
    pub fn is_instance(&self, n: NodeId) -> bool {
        dispatch!(self, g => g.is_instance(n))
    }

    /// Label string of a node.
    pub fn label(&self, n: NodeId) -> &str {
        dispatch!(self, g => g.label(n))
    }

    /// Sense number of a node.
    pub fn sense(&self, n: NodeId) -> u32 {
        dispatch!(self, g => g.sense(n))
    }

    /// Display form: `label` for sense 0, `label#k` otherwise.
    pub fn display(&self, n: NodeId) -> String {
        dispatch!(self, g => g.display(n))
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterate all edges `(from, to, data)` in global insertion order,
    /// on both representations.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeData)> + '_ {
        match self {
            GraphHandle::Mutable(g) => {
                Either::Left(ConceptGraph::edges(g).map(|(f, t, d)| (f, t, *d)))
            }
            GraphHandle::Packed(p) => Either::Right(p.edges()),
        }
    }

    /// Concept nodes (non-leaves).
    pub fn concepts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| !self.is_instance(n))
    }

    /// Instance nodes (leaves).
    pub fn instances(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| self.is_instance(n))
    }
}

impl GraphView for GraphHandle {
    fn node_count(&self) -> usize {
        GraphHandle::node_count(self)
    }

    fn edge_count(&self) -> usize {
        GraphHandle::edge_count(self)
    }

    fn find_node(&self, label: &str, sense: u32) -> Option<NodeId> {
        GraphHandle::find_node(self, label, sense)
    }

    fn senses_of(&self, label: &str) -> Vec<NodeId> {
        GraphHandle::senses_of(self, label)
    }

    fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeData> {
        GraphHandle::edge(self, from, to)
    }

    fn children(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        GraphHandle::children(self, n)
    }

    fn parents(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        GraphHandle::parents(self, n)
    }

    fn child_count(&self, n: NodeId) -> usize {
        GraphHandle::child_count(self, n)
    }

    fn parent_count(&self, n: NodeId) -> usize {
        GraphHandle::parent_count(self, n)
    }

    fn is_instance(&self, n: NodeId) -> bool {
        GraphHandle::is_instance(self, n)
    }

    fn label(&self, n: NodeId) -> &str {
        GraphHandle::label(self, n)
    }

    fn sense(&self, n: NodeId) -> u32 {
        GraphHandle::sense(self, n)
    }

    fn display(&self, n: NodeId) -> String {
        GraphHandle::display(self, n)
    }

    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeData)> + '_ {
        GraphHandle::edges(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::pack;

    fn sample() -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let animal = g.ensure_node("animal", 0);
        let dom = g.ensure_node("domestic animal", 0);
        let cat = g.ensure_node("cat", 0);
        g.add_evidence(animal, dom, 5);
        g.add_evidence(animal, cat, 10);
        g.add_evidence(dom, cat, 3);
        g.set_plausibility(animal, cat, 0.9);
        g
    }

    fn packed_handle() -> GraphHandle {
        GraphHandle::Packed(PackedGraph::from_bytes(pack(&sample()).unwrap()).unwrap())
    }

    #[test]
    fn both_representations_answer_identically() {
        let mutable = GraphHandle::from(sample());
        let packed = packed_handle();
        assert!(!mutable.is_packed());
        assert!(packed.is_packed());
        for h in [&mutable, &packed] {
            assert_eq!(h.node_count(), 3);
            assert_eq!(h.edge_count(), 3);
            let animal = h.find_node("animal", 0).unwrap();
            let cat = h.find_node("cat", 0).unwrap();
            assert_eq!(h.edge(animal, cat).unwrap().count, 10);
            let kids: Vec<NodeId> = h.children(animal).map(|(n, _)| n).collect();
            assert_eq!(kids.len(), 2);
            let parents: Vec<NodeId> = h.parents(cat).map(|(n, _)| n).collect();
            assert_eq!(parents.len(), 2);
            assert_eq!(h.concepts().count(), 2);
            assert_eq!(h.instances().count(), 1);
            assert_eq!(h.label(cat), "cat");
        }
    }

    #[test]
    fn make_mutable_thaws_once() {
        let mut h = packed_handle();
        let (g, thawed) = h.make_mutable();
        assert!(thawed);
        let animal = g.find_node("animal", 0).unwrap();
        let extra = g.ensure_node("extra", 0);
        g.add_evidence(animal, extra, 1);
        let (g2, thawed2) = h.make_mutable();
        assert!(!thawed2);
        assert_eq!(g2.node_count(), 4);
    }

    #[test]
    fn materialize_matches_source() {
        let g = sample();
        let packed = packed_handle();
        let thawed = packed.materialize();
        assert_eq!(pack(&thawed).unwrap(), pack(&g).unwrap());
    }

    #[test]
    fn to_packed_bytes_is_stable_across_representations() {
        let bytes = pack(&sample()).unwrap();
        let mutable = GraphHandle::from(sample());
        let packed = GraphHandle::Packed(PackedGraph::from_bytes(bytes.clone()).unwrap());
        assert_eq!(mutable.to_packed_bytes().unwrap(), bytes);
        assert_eq!(packed.to_packed_bytes().unwrap(), bytes);
    }
}
