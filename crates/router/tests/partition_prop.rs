//! Property tests for the partitioner: on *arbitrary* graphs — not just
//! hand-built fixtures — the shard union must be byte-for-byte the
//! unsharded graph, placement must be component-closed, and the routing
//! hash must never drift.

use probase_router::{
    canonical_bytes, merge_shards, partition, shard_of, Router, RouterConfig, RouterServer,
    RoutingTable,
};
use probase_serve::{Client, Request, ServeConfig, Server};
use probase_store::{pack, ConceptGraph, PackedGraph, SharedStore};
use probase_testkit::prop::{check, check_with, int, string_of, vec_of};
use probase_testkit::XorShift;
use std::sync::Arc;
use std::time::Duration;

/// Build a graph from a generated edge list over a small label universe.
/// Labels collide on purpose (many edges share endpoints) so generated
/// graphs get multi-edge components, diamonds, and isolated islands.
fn graph_from_edges(edges: &[(u8, u8, u8)]) -> ConceptGraph {
    let mut g = ConceptGraph::new();
    for &(from, to, count) in edges {
        if from == to {
            continue; // self-loops are not taxonomy edges
        }
        let f = g.ensure_node(&format!("c{from}"), 0);
        let t = g.ensure_node(&format!("c{to}"), 0);
        g.add_evidence(f, t, u32::from(count) + 1);
    }
    g
}

/// Edges `(from, to, count)` over 24 labels, as many as `len` allows.
fn edges(r: &mut XorShift, len: std::ops::Range<usize>) -> Vec<(u8, u8, u8)> {
    vec_of(r, len, |r| {
        (
            int(r, 0..24) as u8,
            int(r, 0..24) as u8,
            int(r, 0..16) as u8,
        )
    })
}

/// The acceptance property: for every generated graph and every
/// shard count, merging the shards back together reproduces the
/// unsharded graph byte-for-byte in canonical form. A packed snapshot
/// partitions into exactly the shard bytes of its thawed graph, and
/// one shard is the input itself, insertion order included.
#[test]
fn shard_union_is_the_unsharded_graph() {
    // Insertion order c0→c1, c2→c3, c0→c3 is not the packed row order.
    let explicit = vec![vec![(0, 1, 0), (2, 3, 0), (0, 3, 0)]];
    check_with(
        explicit,
        64,
        |r| edges(r, 0..96),
        |edges| {
            let g = graph_from_edges(&edges);
            let expected = canonical_bytes(&g);
            let input = pack(&g).expect("encode");
            let packed = PackedGraph::from_bytes(input.clone()).expect("validate");
            let thawed = packed.unpack();
            for n in [1usize, 2, 4, 8] {
                let p = partition(&g, n);
                assert_eq!(p.shards.len(), n, "n={}", n);
                let merged = merge_shards(&p.shards);
                assert_eq!(
                    &canonical_bytes(&merged),
                    &expected,
                    "shard union diverges from the unsharded graph at n={}",
                    n
                );
                let from_packed = partition(&packed, n);
                let from_thawed = partition(&thawed, n);
                for (a, b) in from_packed.shards.iter().zip(&from_thawed.shards) {
                    assert_eq!(pack(a).unwrap(), pack(b).unwrap(), "n={}", n);
                }
                if n == 1 {
                    assert_eq!(pack(&from_packed.shards[0]).unwrap(), input);
                }
            }
        },
    );
}

/// Every label of a shard's graph routes back to that shard — the
/// partition is component-closed and the table agrees with it.
#[test]
fn placement_is_component_closed() {
    check(
        64,
        |r| (edges(r, 1..96), int(r, 1..9) as usize),
        |(edges, n)| {
            let g = graph_from_edges(&edges);
            let p = partition(&g, n);
            let table = RoutingTable::from_partition(&p);
            for (i, shard) in p.shards.iter().enumerate() {
                for node in shard.nodes() {
                    let label = shard.label(node);
                    assert_eq!(
                        table.shard_for(label),
                        i,
                        "label {} lives on shard {} but routes elsewhere (n={})",
                        label,
                        i,
                        n
                    );
                }
            }
        },
    );
}

/// Partitioning is a function of the graph alone: a second run (and
/// a table rebuilt from the shard graphs, the restart path) places
/// every label identically.
#[test]
fn placement_is_deterministic_across_rebuilds() {
    check(
        64,
        |r| (edges(r, 1..96), int(r, 1..9) as usize),
        |(edges, n)| {
            let g = graph_from_edges(&edges);
            let a = partition(&g, n);
            let b = partition(&g, n);
            for (sa, sb) in a.shards.iter().zip(&b.shards) {
                assert_eq!(&canonical_bytes(sa), &canonical_bytes(sb));
            }
            let from_partition = RoutingTable::from_partition(&a);
            let from_graphs = RoutingTable::from_shard_graphs(&b.shards);
            for node in g.nodes() {
                let label = g.label(node);
                assert_eq!(
                    from_partition.shard_for(label),
                    from_graphs.shard_for(label),
                    "restart path re-places label {} (n={})",
                    label,
                    n
                );
            }
        },
    );
}

/// The frozen routing hash: exception-free labels route by
/// `stable_hash % n` no matter which table answers.
#[test]
fn hash_routing_is_stable() {
    check(
        64,
        |r| {
            (
                string_of(r, "abcdefghijklmnopqrstuvwxyz", 1..13),
                int(r, 1..9) as usize,
            )
        },
        |(label, n)| {
            assert_eq!(shard_of(&label, n), shard_of(&label, n));
            let empty = RoutingTable::new(n);
            assert_eq!(empty.shard_for(&label), shard_of(&label, n));
        },
    );
}

// --- online migration property: live fleets, fewer cases -------------
//
// These cases boot a real 2-shard fleet (three servers + router) per
// input, so the case count is deliberately small; the cheap structural
// properties above keep their 64-case budget.

/// The migration acceptance property on *arbitrary* write
/// sequences: starting from an empty taxonomy, a randomized stream
/// of `add-evidence` writes — most of which bridge components
/// across shards, forcing online migrations — leaves the union of
/// the live shard graphs byte-for-byte equal to a single node that
/// absorbed the same stream. Both deployments must also agree
/// write-by-write on acceptance (cycle rejections included).
#[test]
fn bridge_write_streams_keep_the_shard_union_exact() {
    let writes = |r: &mut XorShift| {
        vec_of(r, 1..24, |r| {
            (int(r, 0..12) as u8, int(r, 0..12) as u8, int(r, 0..4) as u8)
        })
    };
    check(8, writes, |writes| {
        let serve_config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 32,
            cache_capacity: 64,
            cache_shards: 1,
            deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let single = Server::start(SharedStore::new(ConceptGraph::new()), &serve_config)
            .expect("single-node server");
        let p = partition(&ConceptGraph::new(), 2);
        let table = RoutingTable::from_partition(&p);
        let shards: Vec<Server> = p
            .shards
            .into_iter()
            .map(|g| Server::start(SharedStore::new(g), &serve_config).expect("shard binds"))
            .collect();
        let config = RouterConfig {
            shard_addrs: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            deadline: Duration::from_secs(5),
            ..RouterConfig::default()
        };
        let router =
            Router::new(config, table, &probase_obs::Registry::new()).expect("router builds");
        let front = RouterServer::start(Arc::new(router), "127.0.0.1:0").expect("router binds");
        let mut single_client = Client::connect(single.local_addr()).expect("connect single");
        let mut routed_client = Client::connect(front.local_addr()).expect("connect router");

        for &(from, to, count) in &writes {
            if from == to {
                continue;
            }
            let req = Request::AddEvidence {
                parent: format!("c{from}"),
                child: format!("c{to}"),
                count: u32::from(count) + 1,
            };
            let a = single_client.call(&req).expect("single answers");
            let b = routed_client.call(&req).expect("router answers");
            match (&a.error, &b.error) {
                (None, None) => {}
                (Some((code_a, _)), Some((code_b, _))) => {
                    assert_eq!(code_a, code_b, "rejection codes diverge");
                }
                _ => panic!(
                    "deployments disagree on {:?}: single {:?}, routed {:?}",
                    req, a.error, b.error
                ),
            }
        }

        let expected = canonical_bytes(&single.state().store().clone_graph());
        let shard_graphs: Vec<ConceptGraph> = shards
            .iter()
            .map(|s| s.state().store().clone_graph())
            .collect();
        let merged = merge_shards(&shard_graphs);
        assert_eq!(
            &canonical_bytes(&merged),
            &expected,
            "shard union diverged from the single node after bridge writes"
        );

        front.shutdown();
        for s in shards {
            s.shutdown();
        }
        single.shutdown();
    });
}
