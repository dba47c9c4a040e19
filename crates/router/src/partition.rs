//! Deterministic label-hash partitioning of Γ.
//!
//! The partitioner splits a [`ConceptGraph`] into `n` shard graphs such
//! that a shard can answer every query about the labels it owns *exactly*
//! as the unsharded graph would. Two facts make that possible:
//!
//! 1. **Same-label senses co-locate.** Horizontal merge (Property 2)
//!    already guarantees all senses of a label live behind one label key;
//!    the partitioner treats the label, not the node, as the unit of
//!    placement, so `senses_of(label)` is always complete on one shard.
//! 2. **Components travel whole.** Typicality, isa, levels and the
//!    conceptualize priors are all functions of the weakly-connected
//!    component around a label (reachability with Bayes normalization).
//!    Assigning whole components keeps every such computation shard-local
//!    and bit-identical to the single-node answer. The components are
//!    the ones `probase_store::component` defines; this module owns no
//!    connectivity or graph-copy code of its own, so a shard copy keeps
//!    the edge order every representation promises (`GraphView`).
//!
//! Placement is pure hashing: a component lands on
//! `shard_of(min label in component)`. For most labels
//! `shard_of(label) == owning shard` already; the few labels whose hash
//! disagrees with their component's canonical label are recorded in an
//! *exceptions* map (see `RoutingTable`), which is all the routing state
//! a front-end needs. The hash itself is a frozen FNV-1a so a restarted
//! deployment re-derives the identical placement from the same graph.

use probase_store::{
    copy_graph, merge_subgraph, pack, ConceptGraph, GraphView, LabelComponents, NodeId,
};
use std::collections::HashMap;

/// Frozen 64-bit FNV-1a over the label bytes. This function is part of
/// the on-disk shard layout contract: changing it would silently re-home
/// every label, so it must stay byte-for-byte stable across releases
/// (pinned by `hash_values_are_frozen`).
pub fn stable_hash(label: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Default shard for a label under an `n`-way split.
pub fn shard_of(label: &str, shards: usize) -> usize {
    (stable_hash(label) % shards.max(1) as u64) as usize
}

/// The result of splitting Γ into `n` shards.
#[derive(Debug)]
pub struct Partition {
    /// One graph per shard, in shard order. Every node and edge of the
    /// input appears in exactly one shard.
    pub shards: Vec<ConceptGraph>,
    /// Labels whose owning shard differs from `shard_of(label)` —
    /// the label rode along with a component whose canonical label
    /// hashed elsewhere.
    pub exceptions: HashMap<String, usize>,
}

/// Split `graph` into `n` component-closed shards (see module docs).
///
/// Components come from [`LabelComponents::expand`], seeded from each
/// unvisited node in id order; the shards are filled by [`copy_graph`]
/// (nodes in `NodeId` order, edges in global insertion order). So the
/// same graph and `n` always produce byte-identical shard graphs, a
/// restart that rebuilds the partition from the same snapshot re-creates
/// the exact same layout, and a packed snapshot partitions — without
/// being thawed — into the same bytes as its thawed graph.
pub fn partition<G: GraphView>(graph: &G, n: usize) -> Partition {
    let n = n.max(1);
    let mut components = LabelComponents::new(graph);
    let mut home: Vec<usize> = vec![0; graph.node_count()];
    let mut exceptions: HashMap<String, usize> = HashMap::new();
    for node in graph.nodes() {
        let members = components.expand(node);
        // Canonical label per component: lexicographically smallest.
        let Some(canonical) = members.iter().map(|&m| graph.label(m)).min() else {
            continue;
        };
        let shard = shard_of(canonical, n);
        for &m in &members {
            home[m.index()] = shard;
            let label = graph.label(m);
            if shard_of(label, n) != shard {
                exceptions.insert(label.to_string(), shard);
            }
        }
    }
    let mut shards: Vec<ConceptGraph> = (0..n).map(|_| ConceptGraph::new()).collect();
    copy_graph(graph, &mut shards, |node| Some(home[node.index()]));
    Partition { shards, exceptions }
}

/// Re-assemble shard graphs into one graph (shard order, then node
/// order). The inverse of [`partition`] up to insertion order; compare
/// via [`canonical_bytes`].
pub fn merge_shards(shards: &[ConceptGraph]) -> ConceptGraph {
    let mut out = ConceptGraph::new();
    for shard in shards {
        merge_subgraph(&mut out, shard);
    }
    out
}

/// Insertion-order-independent snapshot bytes: rebuild the graph with
/// nodes sorted by `(label, sense)` and edges sorted by endpoint keys,
/// then serialize. Two graphs with the same node/edge *sets* canonicalize
/// to identical bytes even if they were assembled in different orders.
pub fn canonical_bytes(graph: &ConceptGraph) -> Vec<u8> {
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.sort_by(|&a, &b| {
        graph
            .label(a)
            .cmp(graph.label(b))
            .then(graph.sense(a).cmp(&graph.sense(b)))
    });
    let mut canon = ConceptGraph::new();
    let mut mapped: HashMap<NodeId, NodeId> = HashMap::new();
    for &node in &nodes {
        mapped.insert(
            node,
            canon.ensure_node(graph.label(node), graph.sense(node)),
        );
    }
    let key = |n: NodeId| (graph.label(n).to_string(), graph.sense(n));
    let mut edges: Vec<(NodeId, NodeId, u32, f64)> = graph
        .edges()
        .map(|(f, t, d)| (f, t, d.count, d.plausibility))
        .collect();
    edges.sort_by_key(|&(f, t, _, _)| (key(f), key(t)));
    for (from, to, count, plausibility) in edges {
        let (f, t) = (mapped[&from], mapped[&to]);
        canon.add_evidence(f, t, count);
        canon.set_plausibility(f, t, plausibility);
    }
    pack(&canon).expect("canonical graph encodes").to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three disjoint components plus a multi-sense label, so any
    /// shard count from 1 to 8 exercises real splits.
    fn sample() -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let country = g.ensure_node("country", 0);
        for name in ["China", "India", "Brazil", "Russia"] {
            let n = g.ensure_node(name, 0);
            g.add_evidence(country, n, 5);
            g.set_plausibility(country, n, 0.9);
        }
        let animal = g.ensure_node("animal", 0);
        let plant0 = g.ensure_node("plant", 0);
        let plant1 = g.ensure_node("plant", 1);
        let cat = g.ensure_node("cat", 0);
        let fern = g.ensure_node("fern", 0);
        let factory = g.ensure_node("factory-unit", 0);
        g.add_evidence(animal, cat, 3);
        g.add_evidence(plant0, fern, 7);
        g.add_evidence(plant1, factory, 2);
        g.set_plausibility(plant0, fern, 0.8);
        let conf = g.ensure_node("conference", 0);
        let sigmod = g.ensure_node("SIGMOD", 0);
        g.add_evidence(conf, sigmod, 9);
        g
    }

    #[test]
    fn hash_values_are_frozen() {
        // Golden values pin the placement function; a change here means
        // every existing sharded deployment re-homes its labels.
        assert_eq!(stable_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_hash("country"), stable_hash("country"));
        assert_ne!(stable_hash("country"), stable_hash("countrz"));
    }

    #[test]
    fn same_label_same_shard_across_runs() {
        for label in ["country", "China", "plant", "SIGMOD", "数据库"] {
            for n in [1usize, 2, 4, 8] {
                let first = shard_of(label, n);
                for _ in 0..3 {
                    assert_eq!(shard_of(label, n), first, "{label} n={n}");
                }
                assert!(first < n);
            }
        }
    }

    #[test]
    fn partition_is_deterministic_across_restarts() {
        let g = sample();
        for n in [1usize, 2, 4, 8] {
            let a = partition(&g, n);
            let b = partition(&g, n);
            assert_eq!(a.exceptions, b.exceptions, "n={n}");
            for (x, y) in a.shards.iter().zip(&b.shards) {
                assert_eq!(
                    pack(x).unwrap(),
                    pack(y).unwrap(),
                    "shard bytes must be identical at n={n}"
                );
            }
        }
    }

    #[test]
    fn senses_co_locate_and_components_travel_whole() {
        let g = sample();
        for n in [2usize, 4, 8] {
            let p = partition(&g, n);
            // All senses of "plant" (and the instances of both senses)
            // must land on a single shard.
            let holders: Vec<usize> = p
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.senses_of("plant").is_empty())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holders.len(), 1, "plant split across shards at n={n}");
            let home = holders[0];
            for rider in ["fern", "factory-unit"] {
                assert!(
                    !p.shards[home].senses_of(rider).is_empty(),
                    "{rider} must ride with its component at n={n}"
                );
            }
            // No node is duplicated: totals add up exactly.
            let nodes: usize = p.shards.iter().map(|s| s.node_count()).sum();
            let edges: usize = p.shards.iter().map(|s| s.edge_count()).sum();
            assert_eq!(nodes, g.node_count());
            assert_eq!(edges, g.edge_count());
        }
    }

    #[test]
    fn exceptions_cover_exactly_the_hash_disagreements() {
        let g = sample();
        for n in [1usize, 2, 4, 8] {
            let p = partition(&g, n);
            for (i, shard) in p.shards.iter().enumerate() {
                for node in shard.nodes() {
                    let label = shard.label(node);
                    let routed = p
                        .exceptions
                        .get(label)
                        .copied()
                        .unwrap_or_else(|| shard_of(label, n));
                    assert_eq!(routed, i, "label {label} routes to its shard at n={n}");
                }
            }
        }
    }

    #[test]
    fn shard_union_is_byte_identical_to_input() {
        let g = sample();
        let want = canonical_bytes(&g);
        for n in [1usize, 2, 4, 8] {
            let p = partition(&g, n);
            let merged = merge_shards(&p.shards);
            assert_eq!(canonical_bytes(&merged), want, "union mismatch at n={n}");
        }
    }

    #[test]
    fn single_shard_partition_is_the_whole_graph() {
        let g = sample();
        let p = partition(&g, 1);
        assert_eq!(p.shards.len(), 1);
        assert!(p.exceptions.is_empty());
        assert_eq!(canonical_bytes(&p.shards[0]), canonical_bytes(&g));
    }

    #[test]
    fn empty_graph_partitions_to_empty_shards() {
        let p = partition(&ConceptGraph::new(), 4);
        assert_eq!(p.shards.len(), 4);
        assert!(p.shards.iter().all(|s| s.node_count() == 0));
        assert!(p.exceptions.is_empty());
    }
}
