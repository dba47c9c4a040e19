//! Read-only graph abstraction shared by the mutable and packed stores.
//!
//! Queries, the probabilistic layer, and the serve read path only ever
//! *walk* the taxonomy; they never care whether the bytes behind it live
//! in a pointer-rich [`ConceptGraph`](crate::graph::ConceptGraph) or in a
//! contiguous mmap-backed [`PackedGraph`](crate::packed::PackedGraph).
//! [`GraphView`] captures that read surface so both can serve it.
//!
//! Edge-order contract, the same on every representation: `children` and
//! `parents` yield edges in adjacency insertion order, and `edges` yields
//! them in global insertion order — the order the `ConceptGraph` that
//! produced the view first saw each edge. Several downstream computations
//! accumulate `f64` values while iterating, so a reordering — even one
//! that is set-equivalent — would change low bits of served answers and
//! break the byte-identity guarantees the snapshot and response-cache
//! layers rely on. Every graph copy walks `edges`
//! ([`copy_graph`](crate::component::copy_graph)), so a copy keeps both
//! orders too.

use crate::graph::{EdgeData, NodeId};

/// Read-only view of a taxonomy graph.
///
/// Edge payloads are returned by value ([`EdgeData`] is `Copy`) so packed
/// implementations can decode them from flat bytes without handing out
/// references into a decode buffer.
pub trait GraphView {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of distinct edges.
    fn edge_count(&self) -> usize;

    /// Find the node for `(label, sense)` without creating it.
    fn find_node(&self, label: &str, sense: u32) -> Option<NodeId>;

    /// All senses of `label` present in the graph, ascending by sense.
    fn senses_of(&self, label: &str) -> Vec<NodeId>;

    /// Edge data for `from → to`.
    fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeData>;

    /// Children of `n` (nodes it is a super-concept of), with edge data,
    /// in adjacency insertion order.
    fn children(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_;

    /// Parents of `n` (its super-concepts), with edge data, in adjacency
    /// insertion order.
    fn parents(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_;

    /// Out-degree of `n`.
    fn child_count(&self, n: NodeId) -> usize;

    /// In-degree of `n`.
    fn parent_count(&self, n: NodeId) -> usize;

    /// A node with no out-edges is an instance (leaf); others are
    /// concepts (paper §3.1).
    fn is_instance(&self, n: NodeId) -> bool {
        self.child_count(n) == 0
    }

    /// Label string of a node.
    fn label(&self, n: NodeId) -> &str;

    /// Sense number of a node.
    fn sense(&self, n: NodeId) -> u32;

    /// Display form: `label` for sense 0, `label#k` otherwise.
    fn display(&self, n: NodeId) -> String {
        let sense = self.sense(n);
        if sense == 0 {
            self.label(n).to_string()
        } else {
            format!("{}#{}", self.label(n), sense)
        }
    }

    /// Iterate all node ids.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterate all edges as `(from, to, data)` in global insertion order.
    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeData)> + '_;

    /// Concept nodes (non-leaves).
    fn concepts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| !self.is_instance(n))
    }

    /// Instance nodes (leaves).
    fn instances(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| self.is_instance(n))
    }
}

impl GraphView for crate::graph::ConceptGraph {
    fn node_count(&self) -> usize {
        crate::graph::ConceptGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        crate::graph::ConceptGraph::edge_count(self)
    }

    fn find_node(&self, label: &str, sense: u32) -> Option<NodeId> {
        crate::graph::ConceptGraph::find_node(self, label, sense)
    }

    fn senses_of(&self, label: &str) -> Vec<NodeId> {
        crate::graph::ConceptGraph::senses_of(self, label)
    }

    fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeData> {
        crate::graph::ConceptGraph::edge(self, from, to).copied()
    }

    fn children(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        crate::graph::ConceptGraph::children(self, n).map(|(c, d)| (c, *d))
    }

    fn parents(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        crate::graph::ConceptGraph::parents(self, n).map(|(p, d)| (p, *d))
    }

    fn child_count(&self, n: NodeId) -> usize {
        crate::graph::ConceptGraph::child_count(self, n)
    }

    fn parent_count(&self, n: NodeId) -> usize {
        crate::graph::ConceptGraph::parent_count(self, n)
    }

    fn is_instance(&self, n: NodeId) -> bool {
        crate::graph::ConceptGraph::is_instance(self, n)
    }

    fn label(&self, n: NodeId) -> &str {
        crate::graph::ConceptGraph::label(self, n)
    }

    fn sense(&self, n: NodeId) -> u32 {
        crate::graph::ConceptGraph::sense(self, n)
    }

    fn display(&self, n: NodeId) -> String {
        crate::graph::ConceptGraph::display(self, n)
    }

    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeData)> + '_ {
        crate::graph::ConceptGraph::edges(self).map(|(f, t, d)| (f, t, *d))
    }
}

/// Iterator that is one of two concrete iterator types. Lets
/// [`crate::handle::GraphHandle`] return a single `impl Iterator` from a
/// `match` over its two backing representations.
#[derive(Debug, Clone)]
pub enum Either<L, R> {
    /// The left alternative.
    Left(L),
    /// The right alternative.
    Right(R),
}

impl<T, L: Iterator<Item = T>, R: Iterator<Item = T>> Iterator for Either<L, R> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Either::Left(it) => it.next(),
            Either::Right(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Either::Left(it) => it.size_hint(),
            Either::Right(it) => it.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConceptGraph;

    fn sample() -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let animal = g.ensure_node("animal", 0);
        let dom = g.ensure_node("domestic animal", 0);
        let cat = g.ensure_node("cat", 0);
        g.add_evidence(animal, dom, 5);
        g.add_evidence(animal, cat, 10);
        g.add_evidence(dom, cat, 3);
        g
    }

    /// Exercise the trait surface through a generic function, proving the
    /// view methods agree with the inherent ones on `ConceptGraph`.
    fn summarize<G: GraphView>(g: &G) -> (usize, usize, usize, usize) {
        let concepts = g.concepts().count();
        let instances = g.instances().count();
        (g.node_count(), g.edge_count(), concepts, instances)
    }

    #[test]
    fn concept_graph_implements_view() {
        let g = sample();
        assert_eq!(summarize(&g), (3, 3, 2, 1));
        let animal = GraphView::find_node(&g, "animal", 0).unwrap();
        let cat = GraphView::find_node(&g, "cat", 0).unwrap();
        let kids: Vec<NodeId> = GraphView::children(&g, animal).map(|(n, _)| n).collect();
        assert_eq!(kids.len(), 2);
        let e = GraphView::edge(&g, animal, cat).unwrap();
        assert_eq!(e.count, 10);
        assert_eq!(GraphView::display(&g, cat), "cat");
    }

    #[test]
    fn either_iterates_both_arms() {
        let l: Either<std::vec::IntoIter<u32>, std::iter::Empty<u32>> =
            Either::Left(vec![1, 2].into_iter());
        assert_eq!(l.collect::<Vec<_>>(), [1, 2]);
        let r: Either<std::vec::IntoIter<u32>, _> = Either::Right(std::iter::once(9));
        assert_eq!(r.collect::<Vec<_>>(), [9]);
    }
}
