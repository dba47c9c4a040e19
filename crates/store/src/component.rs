//! Graph surgery: the one way to copy a graph and the one way to find
//! a label component.
//!
//! The router's partitioner places whole weakly-connected components of
//! the *label* graph on one shard (all senses of a label travel
//! together — see `probase-router`'s `partition`). When a write bridges
//! two components that live on different shards, the smaller one has to
//! move over the wire. Every piece of that, and every other place a
//! graph is copied, goes through two functions here:
//!
//! * [`copy_graph`] — copies nodes in id order and edges in
//!   [`GraphView::edges`] order (the recorded global insertion order, on
//!   every representation) into the graph a per-node assignment picks.
//!   [`export_component`], [`remove_labels`], [`merge_subgraph`],
//!   `PackedGraph::unpack` and the partitioner's shard fill are all
//!   calls to it, so a component answers byte-identically wherever it
//!   is copied to: children/parents iterate in edge order, and the
//!   paper's typicality and plausibility sums (§4.2) follow that order.
//! * [`LabelComponents::expand`] — the connectivity rule: all senses of
//!   a label are one unit, and every edge connects its endpoints'
//!   labels, in both directions. [`component_summary`] seeds it once; the
//!   partitioner seeds it from each unvisited node in id order.
//!
//! Invariant (property-tested in `probase-router`'s
//! `partition_prop.rs`): `merge_subgraph(remove_labels(g, C), export(g,
//! C))` over any component C reproduces `g` up to node renumbering —
//! the canonical-bytes union of the shards never changes under a
//! migration.

use crate::graph::{ConceptGraph, NodeId};
use crate::view::GraphView;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Copy `src` into the graphs of `dst`: node `n` goes to `dst[i]` when
/// `assign(n)` is `Some(i)` and is left out on `None`. Nodes are ensured
/// in id order and edges re-added in `src.edges()` order with exact
/// counts and plausibility bits; an edge is copied when both endpoints
/// go to the same graph. A label already in a destination merges into
/// its existing node, and evidence accumulates on an existing edge.
pub fn copy_graph<G: GraphView>(
    src: &G,
    dst: &mut [ConceptGraph],
    mut assign: impl FnMut(NodeId) -> Option<usize>,
) {
    let map: Vec<Option<(usize, NodeId)>> = src
        .nodes()
        .map(|n| assign(n).map(|i| (i, dst[i].ensure_node(src.label(n), src.sense(n)))))
        .collect();
    for (from, to, data) in src.edges() {
        if let (Some((i, f)), Some((j, t))) = (map[from.index()], map[to.index()]) {
            if i == j {
                dst[i].add_evidence(f, t, data.count);
                dst[i].set_plausibility(f, t, data.plausibility);
            }
        }
    }
}

/// Label connectivity over one graph. Each node belongs to exactly one
/// component; [`LabelComponents::expand`] returns it the first time any
/// of its nodes is asked for.
pub struct LabelComponents<'g, G> {
    graph: &'g G,
    senses: HashMap<&'g str, Vec<NodeId>>,
    seen: Vec<bool>,
}

impl<'g, G: GraphView> LabelComponents<'g, G> {
    /// Index `graph`'s nodes by label; no component is expanded yet.
    pub fn new(graph: &'g G) -> Self {
        let mut senses: HashMap<&'g str, Vec<NodeId>> = HashMap::new();
        for n in graph.nodes() {
            senses.entry(graph.label(n)).or_default().push(n);
        }
        LabelComponents {
            graph,
            senses,
            seen: vec![false; graph.node_count()],
        }
    }

    /// Every node of the label component containing `seed`: all senses
    /// of a label together, plus both directions of every edge. Empty
    /// when an earlier call already returned `seed`'s component.
    pub fn expand(&mut self, seed: NodeId) -> Vec<NodeId> {
        let mut members: Vec<NodeId> = Vec::new();
        self.visit(seed, &mut members);
        let mut next = 0;
        while next < members.len() {
            let n = members[next];
            next += 1;
            let g = self.graph;
            for (other, _) in g.children(n).chain(g.parents(n)) {
                self.visit(other, &mut members);
            }
        }
        members
    }

    /// Add every sense of `n`'s label to `members`, unless already seen.
    fn visit(&mut self, n: NodeId, members: &mut Vec<NodeId>) {
        if self.seen[n.index()] {
            return;
        }
        for &s in &self.senses[self.graph.label(n)] {
            self.seen[s.index()] = true;
            members.push(s);
        }
    }
}

/// Every label in the weakly-connected label component containing
/// `label`, sorted by label bytes, and the component's edge count — the
/// out-degree sum of its nodes, since a component is closed under
/// edges, so it equals the [`export_component`] copy's `edge_count()`
/// without building that copy. Empty and 0 when the label has no node.
pub fn component_summary<G: GraphView>(g: &G, label: &str) -> (Vec<String>, usize) {
    let Some(&seed) = g.senses_of(label).first() else {
        return (Vec::new(), 0);
    };
    let members = LabelComponents::new(g).expand(seed);
    let edges = members.iter().map(|&n| g.child_count(n)).sum();
    let labels: BTreeSet<&str> = members.into_iter().map(|n| g.label(n)).collect();
    (labels.into_iter().map(str::to_string).collect(), edges)
}

/// The labels in `labels` as a standalone graph, in the source's node
/// and edge order. Edges with only one endpoint inside the set are *not*
/// copied — callers pass a closed component, where that case cannot
/// arise.
pub fn export_component<G: GraphView>(g: &G, labels: &HashSet<String>) -> ConceptGraph {
    let mut sub = ConceptGraph::new();
    copy_graph(g, std::slice::from_mut(&mut sub), |n| {
        labels.contains(g.label(n)).then_some(0)
    });
    sub
}

/// Graft `sub` onto `dst` in `sub`'s node and edge order. Labels already
/// present in `dst` merge into their existing nodes (evidence
/// accumulates), so importing is tolerant of a half-completed earlier
/// import.
pub fn merge_subgraph<G: GraphView>(dst: &mut ConceptGraph, sub: &G) {
    copy_graph(sub, std::slice::from_mut(dst), |_| Some(0));
}

/// A copy of `g` without any node whose label is in `labels` (and
/// without their edges). Remaining nodes and edges keep their relative
/// order, so untouched components answer byte-identically afterwards.
pub fn remove_labels<G: GraphView>(g: &G, labels: &HashSet<String>) -> ConceptGraph {
    let mut out = ConceptGraph::new();
    copy_graph(g, std::slice::from_mut(&mut out), |n| {
        (!labels.contains(g.label(n))).then_some(0)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{pack, PackedGraph};

    /// Two components (fruit/apple/pear and animal/cat) plus a
    /// multi-sense label ("bank") joined to the fruit component.
    fn fixture() -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let fruit = g.ensure_node("fruit", 0);
        let apple = g.ensure_node("apple", 0);
        let pear = g.ensure_node("pear", 0);
        g.add_evidence(fruit, apple, 5);
        g.add_evidence(fruit, pear, 2);
        let animal = g.ensure_node("animal", 0);
        let cat = g.ensure_node("cat", 0);
        g.add_evidence(animal, cat, 7);
        let bank0 = g.ensure_node("bank", 0);
        let bank1 = g.ensure_node("bank", 1);
        g.add_evidence(fruit, bank0, 1);
        let vault = g.ensure_node("vault", 0);
        g.add_evidence(bank1, vault, 3);
        g.set_plausibility(fruit, apple, 0.75);
        g
    }

    fn canon(g: &ConceptGraph) -> Vec<(String, u32, String, u32, u32, u64)> {
        let mut v: Vec<_> = g
            .edges()
            .map(|(f, t, e)| {
                (
                    g.label(f).to_string(),
                    g.sense(f),
                    g.label(t).to_string(),
                    g.sense(t),
                    e.count,
                    e.plausibility.to_bits(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn component_spans_senses_and_edges() {
        let g = fixture();
        // "bank" sense 0 hangs off fruit; sense 1 drags vault in too.
        let (c, edges) = component_summary(&g, "apple");
        assert_eq!(c, vec!["apple", "bank", "fruit", "pear", "vault"]);
        assert_eq!(
            component_summary(&g, "vault"),
            (c.clone(), edges),
            "same component from any member"
        );
        // The edge count spans both "bank" senses and equals the
        // exported copy's.
        let set: HashSet<String> = c.into_iter().collect();
        assert_eq!(edges, 4);
        assert_eq!(edges, export_component(&g, &set).edge_count());
        assert_eq!(component_summary(&g, "cat").0, vec!["animal", "cat"]);
        assert_eq!(component_summary(&g, "nope"), (Vec::new(), 0));
    }

    #[test]
    fn export_then_remove_partitions_the_graph() {
        let g = fixture();
        let labels: HashSet<String> = component_summary(&g, "cat").0.into_iter().collect();
        let sub = export_component(&g, &labels);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        let rest = remove_labels(&g, &labels);
        assert_eq!(rest.node_count(), g.node_count() - 2);
        assert_eq!(rest.edge_count(), g.edge_count() - 1);

        // Re-merging reproduces the original graph up to renumbering.
        let mut rebuilt = rest.clone();
        merge_subgraph(&mut rebuilt, &sub);
        assert_eq!(canon(&rebuilt), canon(&g));
    }

    #[test]
    fn export_preserves_plausibility_bits_and_counts() {
        let g = fixture();
        let labels: HashSet<String> = component_summary(&g, "apple").0.into_iter().collect();
        let sub = export_component(&g, &labels);
        let f = sub.find_node("fruit", 0).unwrap();
        let a = sub.find_node("apple", 0).unwrap();
        let e = sub.edge(f, a).unwrap();
        assert_eq!(e.count, 5);
        assert_eq!(e.plausibility.to_bits(), 0.75f64.to_bits());
    }

    #[test]
    fn merge_accumulates_into_existing_nodes() {
        let mut dst = ConceptGraph::new();
        let fruit = dst.ensure_node("fruit", 0);
        let apple = dst.ensure_node("apple", 0);
        dst.add_evidence(fruit, apple, 2);
        let mut sub = ConceptGraph::new();
        let f = sub.ensure_node("fruit", 0);
        let a = sub.ensure_node("apple", 0);
        sub.add_evidence(f, a, 3);
        merge_subgraph(&mut dst, &sub);
        let e = dst.edge(fruit, apple).unwrap();
        assert_eq!(e.count, 5, "evidence accumulates on re-import");
    }

    #[test]
    fn untouched_component_keeps_adjacency_order() {
        let g = fixture();
        let gone: HashSet<String> = component_summary(&g, "cat").0.into_iter().collect();
        let rest = remove_labels(&g, &gone);
        let fruit = rest.find_node("fruit", 0).unwrap();
        let kids: Vec<&str> = rest.children(fruit).map(|(c, _)| rest.label(c)).collect();
        assert_eq!(kids, vec!["apple", "pear", "bank"], "edge order preserved");
    }

    #[test]
    fn roundtrips_through_snapshot_encoding() {
        let g = fixture();
        let labels: HashSet<String> = component_summary(&g, "apple").0.into_iter().collect();
        let sub = export_component(&g, &labels);
        let back = PackedGraph::from_bytes(pack(&sub).unwrap())
            .unwrap()
            .unpack();
        assert_eq!(canon(&back), canon(&sub));
    }
}
