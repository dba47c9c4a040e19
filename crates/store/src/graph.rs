//! The concept graph.
//!
//! A [`ConceptGraph`] is the taxonomy DAG of paper §3.1: nodes are
//! sense-disambiguated labels ("plant" sense 0 and "plant" sense 1 are two
//! nodes), edges `(u, v)` mean *u is a super-concept of v*, each edge
//! carries the evidence count `n(x, y)` (paper Table 3) and, after the
//! probabilistic layer runs, a plausibility in `[0, 1]`. Nodes without
//! out-edges are instances; all others are concepts (§3.1).

use crate::hash::FxHashMap;
use crate::intern::{Interner, Symbol};

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the graph's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Evidence and belief attached to an isA edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeData {
    /// Number of times the pair was discovered in the corpus, `n(x, y)`.
    pub count: u32,
    /// Plausibility `P(x, y)` of the claim (Eq. 1). `1.0` until the
    /// probabilistic layer assigns real values.
    pub plausibility: f64,
}

impl Default for EdgeData {
    fn default() -> Self {
        Self {
            count: 0,
            plausibility: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Edge {
    from: NodeId,
    to: NodeId,
    data: EdgeData,
}

/// A node: an interned label plus a sense number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeKey {
    /// Interned label.
    pub label: Symbol,
    /// Sense number among nodes sharing the label.
    pub sense: u32,
}

/// The taxonomy graph. Append-only for nodes; edges accumulate evidence.
///
/// ```
/// use probase_store::ConceptGraph;
/// let mut g = ConceptGraph::new();
/// let animal = g.ensure_node("animal", 0);
/// let cat = g.ensure_node("cat", 0);
/// g.add_evidence(animal, cat, 3);
/// assert_eq!(g.edge(animal, cat).unwrap().count, 3);
/// assert!(g.is_instance(cat) && !g.is_instance(animal));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConceptGraph {
    interner: Interner,
    keys: Vec<NodeKey>,
    edges: Vec<Edge>,
    out: Vec<Vec<u32>>,
    incoming: Vec<Vec<u32>>,
    by_key: FxHashMap<NodeKey, NodeId>,
    edge_index: FxHashMap<(NodeId, NodeId), u32>,
}

impl ConceptGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the node for `(label, sense)`.
    pub fn ensure_node(&mut self, label: &str, sense: u32) -> NodeId {
        let sym = self.interner.intern(label);
        let key = NodeKey { label: sym, sense };
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = NodeId(self.keys.len() as u32);
        self.keys.push(key);
        self.out.push(Vec::new());
        self.incoming.push(Vec::new());
        self.by_key.insert(key, id);
        id
    }

    /// Find the node for `(label, sense)` without creating it.
    pub fn find_node(&self, label: &str, sense: u32) -> Option<NodeId> {
        let sym = self.interner.get(label)?;
        self.by_key.get(&NodeKey { label: sym, sense }).copied()
    }

    /// All senses of `label` present in the graph, in ascending sense order.
    pub fn senses_of(&self, label: &str) -> Vec<NodeId> {
        let Some(sym) = self.interner.get(label) else {
            return Vec::new();
        };
        let mut v: Vec<NodeId> = self
            .keys
            .iter()
            .enumerate()
            .filter(|(_, k)| k.label == sym)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        v.sort_by_key(|id| self.keys[id.index()].sense);
        v
    }

    /// Add `count` pieces of evidence to the edge `from → to`, creating it
    /// if needed. Returns the edge's accumulated count.
    pub fn add_evidence(&mut self, from: NodeId, to: NodeId, count: u32) -> u32 {
        debug_assert_ne!(from, to, "self loops are not isA edges");
        match self.edge_index.get(&(from, to)) {
            Some(&ei) => {
                let e = &mut self.edges[ei as usize];
                e.data.count += count;
                e.data.count
            }
            None => {
                let ei = self.edges.len() as u32;
                self.edges.push(Edge {
                    from,
                    to,
                    data: EdgeData {
                        count,
                        plausibility: 1.0,
                    },
                });
                self.out[from.index()].push(ei);
                self.incoming[to.index()].push(ei);
                self.edge_index.insert((from, to), ei);
                count
            }
        }
    }

    /// Set the plausibility of an existing edge. Returns `false` when the
    /// edge does not exist.
    pub fn set_plausibility(&mut self, from: NodeId, to: NodeId, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "plausibility out of range: {p}");
        match self.edge_index.get(&(from, to)) {
            Some(&ei) => {
                self.edges[ei as usize].data.plausibility = p;
                true
            }
            None => false,
        }
    }

    /// Edge data for `from → to`.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<&EdgeData> {
        self.edge_index
            .get(&(from, to))
            .map(|&ei| &self.edges[ei as usize].data)
    }

    /// Children of `n` (nodes it is a super-concept of), with edge data.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = (NodeId, &EdgeData)> {
        self.out[n.index()].iter().map(move |&ei| {
            let e = &self.edges[ei as usize];
            (e.to, &e.data)
        })
    }

    /// Parents of `n` (its super-concepts), with edge data.
    pub fn parents(&self, n: NodeId) -> impl Iterator<Item = (NodeId, &EdgeData)> {
        self.incoming[n.index()].iter().map(move |&ei| {
            let e = &self.edges[ei as usize];
            (e.from, &e.data)
        })
    }

    /// Out-degree of `n`.
    pub fn child_count(&self, n: NodeId) -> usize {
        self.out[n.index()].len()
    }

    /// In-degree of `n`.
    pub fn parent_count(&self, n: NodeId) -> usize {
        self.incoming[n.index()].len()
    }

    /// A node with no out-edges is an instance (leaf); others are concepts
    /// (paper §3.1).
    pub fn is_instance(&self, n: NodeId) -> bool {
        self.out[n.index()].is_empty()
    }

    /// Label string of a node.
    pub fn label(&self, n: NodeId) -> &str {
        self.interner.resolve(self.keys[n.index()].label)
    }

    /// Sense number of a node.
    pub fn sense(&self, n: NodeId) -> u32 {
        self.keys[n.index()].sense
    }

    /// Display form: `label` for sense 0, `label#k` otherwise.
    pub fn display(&self, n: NodeId) -> String {
        let k = self.keys[n.index()];
        if k.sense == 0 {
            self.interner.resolve(k.label).to_string()
        } else {
            format!("{}#{}", self.interner.resolve(k.label), k.sense)
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.keys.len() as u32).map(NodeId)
    }

    /// Iterate all edges as `(from, to, data)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &EdgeData)> {
        self.edges.iter().map(|e| (e.from, e.to, &e.data))
    }

    /// Concept nodes (non-leaves).
    pub fn concepts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| !self.is_instance(n))
    }

    /// Instance nodes (leaves).
    pub fn instances(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.is_instance(n))
    }

    /// Access the interner (read-only).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let animal = g.ensure_node("animal", 0);
        let dom = g.ensure_node("domestic animal", 0);
        let cat = g.ensure_node("cat", 0);
        let dog = g.ensure_node("dog", 0);
        g.add_evidence(animal, dom, 5);
        g.add_evidence(animal, cat, 10);
        g.add_evidence(dom, cat, 3);
        g.add_evidence(dom, dog, 2);
        g
    }

    #[test]
    fn ensure_node_is_idempotent() {
        let mut g = ConceptGraph::new();
        let a = g.ensure_node("x", 0);
        let b = g.ensure_node("x", 0);
        let c = g.ensure_node("x", 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn evidence_accumulates() {
        let mut g = ConceptGraph::new();
        let a = g.ensure_node("a", 0);
        let b = g.ensure_node("b", 0);
        assert_eq!(g.add_evidence(a, b, 2), 2);
        assert_eq!(g.add_evidence(a, b, 3), 5);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(a, b).unwrap().count, 5);
    }

    #[test]
    fn instances_are_leaves() {
        let g = sample();
        let cat = g.find_node("cat", 0).unwrap();
        let animal = g.find_node("animal", 0).unwrap();
        assert!(g.is_instance(cat));
        assert!(!g.is_instance(animal));
        assert_eq!(g.instances().count(), 2); // cat, dog
        assert_eq!(g.concepts().count(), 2); // animal, domestic animal
    }

    #[test]
    fn children_and_parents() {
        let g = sample();
        let animal = g.find_node("animal", 0).unwrap();
        let cat = g.find_node("cat", 0).unwrap();
        let kids: Vec<&str> = g.children(animal).map(|(n, _)| g.label(n)).collect();
        assert_eq!(kids, ["domestic animal", "cat"]);
        let ps: Vec<&str> = g.parents(cat).map(|(n, _)| g.label(n)).collect();
        assert_eq!(ps, ["animal", "domestic animal"]);
        assert_eq!(g.parent_count(cat), 2);
        assert_eq!(g.child_count(animal), 2);
    }

    #[test]
    fn plausibility_set_and_read() {
        let mut g = sample();
        let a = g.find_node("animal", 0).unwrap();
        let c = g.find_node("cat", 0).unwrap();
        assert!(g.set_plausibility(a, c, 0.9));
        assert!((g.edge(a, c).unwrap().plausibility - 0.9).abs() < 1e-12);
        let dog = g.find_node("dog", 0).unwrap();
        assert!(!g.set_plausibility(a, dog, 0.5)); // edge absent
    }

    #[test]
    fn senses_of_lists_all() {
        let mut g = ConceptGraph::new();
        g.ensure_node("plant", 1);
        g.ensure_node("plant", 0);
        let senses = g.senses_of("plant");
        assert_eq!(senses.len(), 2);
        assert_eq!(g.sense(senses[0]), 0);
        assert_eq!(g.sense(senses[1]), 1);
        assert!(g.senses_of("unknown").is_empty());
    }

    #[test]
    fn display_marks_nonzero_senses() {
        let mut g = ConceptGraph::new();
        let p0 = g.ensure_node("plant", 0);
        let p1 = g.ensure_node("plant", 1);
        assert_eq!(g.display(p0), "plant");
        assert_eq!(g.display(p1), "plant#1");
    }
}
