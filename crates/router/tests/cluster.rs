//! Single-node vs sharded equivalence: a 4-shard deployment behind the
//! router must answer every serve endpoint with the same payload as one
//! unsharded server over the same taxonomy.
//!
//! Versions are compared only where the contract promises them (the
//! router reports the *sum* of shard versions on scatters), so the
//! assertions are on `data` — which the sharding design promises
//! bit-for-bit, not approximately.

use probase_router::{
    canonical_bytes, merge_shards, partition, Router, RouterConfig, RouterServer, RoutingTable,
};
use probase_serve::{
    Client, Direction, DurabilityConfig, Json, LabelKind, Request, ServeConfig, Server,
};
use probase_store::{pack, provision_shard_dirs, ConceptGraph, SharedStore};
use std::sync::Arc;
use std::time::Duration;

/// A taxonomy with several disconnected components, a label shared by
/// two parents (joining their components), multi-level chains, and
/// explicit plausibility — enough structure that every endpoint has
/// something nontrivial to say.
fn fixture_graph() -> ConceptGraph {
    let mut g = ConceptGraph::new();
    let country = g.ensure_node("country", 0);
    let bric = g.ensure_node("bric", 0);
    g.add_evidence(country, bric, 6);
    for (label, count) in [
        ("China", 8u32),
        ("India", 5),
        ("Japan", 3),
        ("USA", 2),
        ("Brazil", 2),
        ("Russia", 4),
    ] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(country, n, count);
    }
    for label in ["China", "India", "Brazil", "Russia"] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(bric, n, 2);
    }

    // "apple" under both company and fruit joins the two components.
    let company = g.ensure_node("company", 0);
    for (label, count) in [("Microsoft", 9u32), ("Google", 4), ("apple", 6)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(company, n, count);
    }
    let fruit = g.ensure_node("fruit", 0);
    for (label, count) in [("apple", 5u32), ("banana", 3)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(fruit, n, count);
    }

    let animal = g.ensure_node("animal", 0);
    let mammal = g.ensure_node("mammal", 0);
    g.add_evidence(animal, mammal, 6);
    for (label, count) in [("cat", 5u32), ("dog", 4)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(mammal, n, count);
    }
    let bird = g.ensure_node("bird", 0);
    g.add_evidence(animal, bird, 4);

    let conference = g.ensure_node("conference", 0);
    for (label, count) in [("SIGMOD", 3u32), ("VLDB", 2)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(conference, n, count);
    }

    let china = g.ensure_node("China", 0);
    g.set_plausibility(country, china, 0.97);
    g.set_plausibility(animal, mammal, 0.9);
    g
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 256,
        cache_shards: 4,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

/// One unsharded server and an N-shard deployment over the same graph,
/// with clients on both front doors.
struct Deployments {
    single: Server,
    shards: Vec<Server>,
    front: RouterServer,
}

fn deploy(graph: &ConceptGraph, n: usize) -> Deployments {
    let single = Server::start(SharedStore::new(graph.clone()), &serve_config())
        .expect("single-node server");
    let p = partition(graph, n);
    let table = RoutingTable::from_partition(&p);
    let mut shards = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for shard_graph in p.shards {
        let s =
            Server::start(SharedStore::new(shard_graph), &serve_config()).expect("shard server");
        addrs.push(s.local_addr().to_string());
        shards.push(s);
    }
    let config = RouterConfig {
        shard_addrs: addrs,
        deadline: Duration::from_secs(5),
        ..RouterConfig::default()
    };
    let router = Router::new(config, table, &probase_obs::Registry::new()).expect("router builds");
    let front = RouterServer::start(Arc::new(router), "127.0.0.1:0").expect("router binds");
    Deployments {
        single,
        shards,
        front,
    }
}

impl Deployments {
    fn clients(&self) -> (Client, Client) {
        (
            Client::connect(self.single.local_addr()).expect("connect single"),
            Client::connect(self.front.local_addr()).expect("connect router"),
        )
    }

    fn shutdown(self) {
        self.front.shutdown();
        for s in self.shards {
            s.shutdown();
        }
        self.single.shutdown();
    }
}

/// Ask both deployments and return the two data payloads.
fn both(single: &mut Client, routed: &mut Client, req: &Request) -> (Json, Json) {
    let (_, a) = single.call_ok(req).expect("single-node answers");
    let (_, b) = routed.call_ok(req).expect("router answers");
    (a, b)
}

/// Assert both deployments produce byte-identical payloads.
fn assert_same(single: &mut Client, routed: &mut Client, req: &Request) {
    let (a, b) = both(single, routed, req);
    assert_eq!(a.to_string(), b.to_string(), "payloads diverge for {req:?}");
}

/// A tiny deterministic generator (splitmix-ish) so the randomized
/// bridge-write sequence replays identically on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.next() as usize % pool.len()]
    }
}

#[test]
fn four_shards_answer_every_endpoint_identically() {
    let graph = fixture_graph();
    let d = deploy(&graph, 4);
    let (mut single, mut routed) = d.clients();

    // ping
    let (a, b) = both(&mut single, &mut routed, &Request::Ping);
    assert_eq!(a.to_string(), b.to_string(), "ping payloads");

    // isa — positive, negative, and cross-component pairs.
    for (parent, child) in [
        ("country", "China"),
        ("bric", "Russia"),
        ("country", "cat"),
        ("animal", "mammal"),
        ("mammal", "cat"),
        ("company", "apple"),
        ("fruit", "apple"),
        ("conference", "SIGMOD"),
        ("nosuch", "China"),
    ] {
        assert_same(
            &mut single,
            &mut routed,
            &Request::Isa {
                parent: parent.to_string(),
                child: child.to_string(),
            },
        );
    }

    // typicality — both directions, every component.
    for term in [
        "country",
        "bric",
        "China",
        "apple",
        "company",
        "fruit",
        "animal",
        "mammal",
        "cat",
        "conference",
        "SIGMOD",
        "nosuch",
    ] {
        for direction in [Direction::Instances, Direction::Concepts] {
            assert_same(
                &mut single,
                &mut routed,
                &Request::Typicality {
                    term: term.to_string(),
                    direction,
                    k: 10,
                },
            );
        }
    }

    // plausibility
    for (parent, child) in [
        ("country", "China"),
        ("animal", "mammal"),
        ("fruit", "banana"),
    ] {
        assert_same(
            &mut single,
            &mut routed,
            &Request::Plausibility {
                parent: parent.to_string(),
                child: child.to_string(),
            },
        );
    }

    // levels — per-term and the whole-graph summary.
    for term in ["country", "mammal", "apple", "SIGMOD", "nosuch"] {
        assert_same(
            &mut single,
            &mut routed,
            &Request::Levels {
                term: Some(term.to_string()),
            },
        );
    }
    assert_same(&mut single, &mut routed, &Request::Levels { term: None });

    // stats — the router wraps the merged graph section and adds its
    // own telemetry section; the graph section must match exactly.
    let (a, b) = both(&mut single, &mut routed, &Request::Stats);
    let merged = b.get("graph").expect("router stats carry a graph section");
    assert_eq!(
        a.get("graph").expect("graph section").to_string(),
        merged.to_string(),
        "merged graph stats must equal single-node stats"
    );
    assert!(
        b.get("router").is_some(),
        "router stats carry a router section"
    );

    // labels — byte-identical *sequences*, not just sets: both sides
    // now sort by label bytes, and the per-shard k cap still covers the
    // global byte-order prefix (each global minimum is some shard's
    // minimum), so even truncated answers must match exactly.
    for kind in [LabelKind::Concepts, LabelKind::Instances] {
        assert_same(&mut single, &mut routed, &Request::Labels { kind, k: 100 });
        assert_same(&mut single, &mut routed, &Request::Labels { kind, k: 3 });
    }

    // conceptualize — terms sharing a home shard and terms that force
    // the cross-shard naive-Bayes combination.
    for terms in [
        vec!["China", "India"],
        vec!["China", "Brazil", "Russia"],
        vec!["apple", "banana"],
        vec!["China", "cat"],
        vec!["apple", "cat", "SIGMOD"],
    ] {
        assert_same(
            &mut single,
            &mut routed,
            &Request::Conceptualize {
                terms: terms.iter().map(|t| t.to_string()).collect(),
                k: 8,
            },
        );
    }

    // search-rewrite
    for query in ["China conference", "apple", "animal cat", "nosuch words"] {
        assert_same(
            &mut single,
            &mut routed,
            &Request::SearchRewrite {
                query: query.to_string(),
                k: 5,
            },
        );
    }

    d.shutdown();
}

#[test]
fn writes_keep_shards_equivalent_to_single_node() {
    let graph = fixture_graph();
    let d = deploy(&graph, 4);
    let (mut single, mut routed) = d.clients();

    // Same writes to both deployments: bump an existing edge, add a new
    // child under an existing parent (the router learns its placement).
    let writes = [
        ("country", "China", 3u32),
        ("country", "Mongolia", 2),
        ("mammal", "otter", 4),
        ("conference", "ICDE", 1),
    ];
    for (parent, child, count) in &writes {
        let req = Request::AddEvidence {
            parent: parent.to_string(),
            child: child.to_string(),
            count: *count,
        };
        let (_, a) = single.call_ok(&req).expect("single-node accepts write");
        let (_, b) = routed.call_ok(&req).expect("router accepts write");
        // The ack's `nodes` field is store-local (shard-sized behind the
        // router — a documented limit); the edge count must agree.
        assert_eq!(
            a.get("count").expect("ack count").to_string(),
            b.get("count").expect("ack count").to_string(),
            "ack counts for {req:?}"
        );
    }

    // Every written label must now answer identically — including the
    // new children, whose placement only the routing exception map
    // knows.
    for (parent, child, _) in &writes {
        assert_same(
            &mut single,
            &mut routed,
            &Request::Isa {
                parent: parent.to_string(),
                child: child.to_string(),
            },
        );
        for term in [parent, child] {
            for direction in [Direction::Instances, Direction::Concepts] {
                assert_same(
                    &mut single,
                    &mut routed,
                    &Request::Typicality {
                        term: term.to_string(),
                        direction,
                        k: 10,
                    },
                );
            }
        }
    }

    // The merged graph stats still agree after the writes.
    let (a, b) = both(&mut single, &mut routed, &Request::Stats);
    assert_eq!(
        a.get("graph").expect("graph section").to_string(),
        b.get("graph").expect("graph section").to_string(),
        "stats diverge after writes"
    );

    d.shutdown();
}

/// The headline migration property: a 4-shard fleet absorbs a
/// *randomized* sequence of bridge writes — writes whose parent and
/// child start on different shards, which historically either
/// diverged (edge applied on the parent's shard while the child's
/// component kept serving stale answers elsewhere) or required a full
/// repartition restart — and afterwards answers every endpoint
/// byte-identically to a single node that absorbed the same sequence.
/// The fleet is never restarted or repartitioned: components move
/// between shards online, via export/import, while serving.
#[test]
fn randomized_bridge_writes_stay_byte_identical_without_repartition() {
    let graph = fixture_graph();
    let d = deploy(&graph, 4);
    let (mut single, mut routed) = d.clients();

    // Labels from every component of the fixture plus fresh ones, so
    // the generated pairs bridge shards, extend components, create new
    // components, and re-bridge components that already migrated.
    let pool = [
        "country",
        "China",
        "bric",
        "company",
        "apple",
        "fruit",
        "banana",
        "animal",
        "mammal",
        "cat",
        "bird",
        "conference",
        "SIGMOD",
        "planet",
        "Mars",
        "tool",
        "hammer",
    ];
    let mut rng = Rng(0x5EED_CAFE);
    let mut attempts = Vec::new();
    while attempts.len() < 40 {
        let parent = *rng.pick(&pool);
        let child = *rng.pick(&pool);
        if parent == child {
            continue;
        }
        attempts.push((parent, child, (rng.next() % 5 + 1) as u32));
    }
    // Both deployments must agree write-for-write: same acks with the
    // same counts, and the *same rejections* (cycle-creating pairs are
    // refused by the single node, so the routed fleet — whose migrated
    // merged component sees the identical topology — must refuse them
    // too, not half-apply them on one shard).
    let mut writes = Vec::new();
    for (parent, child, count) in attempts {
        let req = Request::AddEvidence {
            parent: parent.to_string(),
            child: child.to_string(),
            count,
        };
        let a = single.call(&req).expect("single-node answers write");
        let b = routed.call(&req).expect("router answers write");
        match (&a.error, &b.error) {
            (None, None) => {
                assert_eq!(
                    a.data.get("count").expect("ack count").to_string(),
                    b.data.get("count").expect("ack count").to_string(),
                    "ack counts for {req:?}"
                );
                writes.push((parent, child));
            }
            (Some((code_a, _)), Some((code_b, _))) => {
                assert_eq!(code_a, code_b, "rejection codes for {req:?}");
            }
            _ => panic!(
                "deployments disagree on accepting {req:?}: single {:?}, routed {:?}",
                a.error, b.error
            ),
        }
    }
    assert!(
        writes.len() >= 20,
        "fixture too cyclic: only {} of 40 writes accepted",
        writes.len()
    );

    // Full endpoint sweep over every label the writes touched.
    for term in pool {
        for direction in [Direction::Instances, Direction::Concepts] {
            assert_same(
                &mut single,
                &mut routed,
                &Request::Typicality {
                    term: term.to_string(),
                    direction,
                    k: 10,
                },
            );
        }
        assert_same(
            &mut single,
            &mut routed,
            &Request::Levels {
                term: Some(term.to_string()),
            },
        );
    }
    for (parent, child) in &writes {
        assert_same(
            &mut single,
            &mut routed,
            &Request::Isa {
                parent: parent.to_string(),
                child: child.to_string(),
            },
        );
        assert_same(
            &mut single,
            &mut routed,
            &Request::Plausibility {
                parent: parent.to_string(),
                child: child.to_string(),
            },
        );
    }
    for terms in [
        vec!["China", "Mars"],
        vec!["apple", "cat", "hammer"],
        vec!["country", "planet", "SIGMOD"],
    ] {
        assert_same(
            &mut single,
            &mut routed,
            &Request::Conceptualize {
                terms: terms.iter().map(|t| t.to_string()).collect(),
                k: 8,
            },
        );
    }
    assert_same(&mut single, &mut routed, &Request::Levels { term: None });
    for kind in [LabelKind::Concepts, LabelKind::Instances] {
        assert_same(&mut single, &mut routed, &Request::Labels { kind, k: 1000 });
    }
    let (a, b) = both(&mut single, &mut routed, &Request::Stats);
    assert_eq!(
        a.get("graph").expect("graph section").to_string(),
        b.get("graph").expect("graph section").to_string(),
        "stats diverge after bridge writes"
    );

    d.shutdown();
}

/// Replica failover: with one op-shipped replica per shard, killing a
/// shard primary degrades nothing — idempotent reads fail over to the
/// replica via the hedge path and every envelope stays clean.
#[test]
fn replicated_shards_survive_a_primary_kill_without_degrading() {
    let graph = fixture_graph();
    let p = partition(&graph, 2);
    let table = RoutingTable::from_partition(&p);
    let mut primaries = Vec::new();
    let mut replicas = Vec::new();
    let mut addrs = Vec::new();
    let mut groups = Vec::new();
    for shard_graph in p.shards {
        let replica = Server::start(SharedStore::new(shard_graph.clone()), &serve_config())
            .expect("replica server");
        let primary_config = ServeConfig {
            replica_addrs: vec![replica.local_addr()],
            ..serve_config()
        };
        let primary =
            Server::start(SharedStore::new(shard_graph), &primary_config).expect("primary server");
        addrs.push(primary.local_addr().to_string());
        groups.push(vec![replica.local_addr().to_string()]);
        replicas.push(replica);
        primaries.push(primary);
    }
    let config = RouterConfig {
        shard_addrs: addrs,
        replica_addrs: groups,
        deadline: Duration::from_secs(5),
        ..RouterConfig::default()
    };
    let router = Router::new(config, table, &probase_obs::Registry::new()).expect("router builds");
    let front = RouterServer::start(Arc::new(router), "127.0.0.1:0").expect("router binds");
    let mut client = Client::connect(front.local_addr()).expect("connect router");

    // A write through the router is shipped to the replica before the
    // ack, so the surviving copy must already have it.
    client
        .call_ok(&Request::AddEvidence {
            parent: "country".to_string(),
            child: "Mongolia".to_string(),
            count: 2,
        })
        .expect("write accepted");

    // Kill shard 0's primary outright.
    primaries.remove(0).shutdown();

    let reads = [
        Request::Typicality {
            term: "country".to_string(),
            direction: Direction::Instances,
            k: 10,
        },
        Request::Typicality {
            term: "animal".to_string(),
            direction: Direction::Instances,
            k: 10,
        },
        Request::Isa {
            parent: "country".to_string(),
            child: "Mongolia".to_string(),
        },
        Request::Levels { term: None },
        Request::Labels {
            kind: LabelKind::Concepts,
            k: 100,
        },
        Request::Stats,
        Request::Ping,
    ];
    for req in &reads {
        let env = client.call(req).expect("read answers after primary kill");
        assert!(env.error.is_none(), "error for {req:?}: {:?}", env.error);
        assert!(!env.degraded, "degraded envelope for {req:?}");
    }
    // The shipped write is visible on the surviving copy.
    let env = client
        .call(&Request::Isa {
            parent: "country".to_string(),
            child: "Mongolia".to_string(),
        })
        .expect("isa answers");
    assert_eq!(env.data.get("isa").and_then(Json::as_bool), Some(true));

    front.shutdown();
    for s in primaries {
        s.shutdown();
    }
    for s in replicas {
        s.shutdown();
    }
}

/// Satellite regression: a term under more than `MAX_K` concepts can
/// lose tail candidates to the per-term slice cap in the cross-shard
/// conceptualize combination. The envelope must say `truncated: true`
/// instead of silently presenting a clipped ranking as exact.
#[test]
fn cross_shard_conceptualize_flags_the_max_k_slice_cap() {
    use probase_serve::proto::MAX_K;
    let mut g = ConceptGraph::new();
    let item = g.ensure_node("item", 0);
    for i in 0..=MAX_K {
        let c = g.ensure_node(&format!("concept-{i:04}"), 0);
        g.add_evidence(c, item, 1 + (i % 3) as u32);
    }
    // Small separate components so at least one lands on the other
    // shard from "item"'s giant component.
    for (parent, child) in [
        ("pet", "cat"),
        ("tool", "hammer"),
        ("color", "red"),
        ("metal", "iron"),
        ("planet", "Mars"),
        ("river", "Nile"),
    ] {
        let p = g.ensure_node(parent, 0);
        let c = g.ensure_node(child, 0);
        g.add_evidence(p, c, 2);
    }

    let p = partition(&g, 2);
    let table = RoutingTable::from_partition(&p);
    let item_home = table.shard_for("item");
    let other = ["cat", "hammer", "red", "iron", "Mars", "Nile"]
        .into_iter()
        .find(|t| table.shard_for(t) != item_home)
        .expect("some small component lands on the other shard");

    let d = deploy(&g, 2);
    let (_, mut routed) = d.clients();
    let env = routed
        .call(&Request::Conceptualize {
            terms: vec!["item".to_string(), other.to_string()],
            k: 8,
        })
        .expect("conceptualize answers");
    assert!(env.error.is_none(), "unexpected error: {:?}", env.error);
    assert!(
        env.truncated,
        "a MAX_K-clipped per-term slice must flag the envelope"
    );
    // The single-shard fast path is exact and must stay unflagged.
    let env = routed
        .call(&Request::Conceptualize {
            terms: vec!["item".to_string()],
            k: 8,
        })
        .expect("conceptualize answers");
    assert!(env.error.is_none());
    assert!(!env.truncated, "whole-shard forwarding is exact");
    d.shutdown();
}

/// Satellite regression: a router restarted *without* its routing
/// table (the `routing-table.json` was lost, or went stale across
/// migrations) rebuilds placement by querying the shards' label
/// inventories instead of misrouting learned/migrated labels.
#[test]
fn router_restarted_without_a_table_rebuilds_placement_from_shards() {
    let graph = fixture_graph();
    let d = deploy(&graph, 4);
    let (mut single, mut routed) = d.clients();

    // Writes that only the first router's learned exceptions know how
    // to route: a brand-new child pinned off its hash home, and a
    // bridge write that migrates a whole component.
    for (parent, child, count) in [
        ("country", "Mongolia", 2u32),
        ("country", "Laos", 1),
        ("mammal", "apple", 1), // bridges the animal and company/fruit components
    ] {
        let req = Request::AddEvidence {
            parent: parent.to_string(),
            child: child.to_string(),
            count,
        };
        single.call_ok(&req).expect("single-node accepts write");
        routed.call_ok(&req).expect("router accepts write");
    }

    // A second router over the same (still running) shards, with no
    // table file to load: it must rebuild placement from the fleet.
    let config = RouterConfig {
        shard_addrs: d
            .shards
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect(),
        deadline: Duration::from_secs(5),
        ..RouterConfig::default()
    };
    let router2 = Router::new(
        config,
        RoutingTable::new(d.shards.len()),
        &probase_obs::Registry::new(),
    )
    .expect("second router builds");
    router2
        .rebuild_table_from_shards()
        .expect("table rebuilds from live shards");
    let front2 = RouterServer::start(Arc::new(router2), "127.0.0.1:0").expect("binds");
    let mut routed2 = Client::connect(front2.local_addr()).expect("connect rebuilt router");

    for term in ["Mongolia", "Laos", "apple", "mammal", "country", "cat"] {
        for direction in [Direction::Instances, Direction::Concepts] {
            assert_same(
                &mut single,
                &mut routed2,
                &Request::Typicality {
                    term: term.to_string(),
                    direction,
                    k: 10,
                },
            );
        }
    }
    front2.shutdown();
    d.shutdown();
}

#[test]
fn shard_counts_one_two_and_eight_also_match() {
    // The 4-shard case gets the full sweep above; here the same spot
    // checks across other shard counts guard the partitioner's edges
    // (n=1 trivial placement, n > components).
    let graph = fixture_graph();
    for n in [1usize, 2, 8] {
        let d = deploy(&graph, n);
        let (mut single, mut routed) = d.clients();
        for term in ["country", "apple", "cat", "SIGMOD"] {
            assert_same(
                &mut single,
                &mut routed,
                &Request::Typicality {
                    term: term.to_string(),
                    direction: Direction::Instances,
                    k: 10,
                },
            );
        }
        assert_same(&mut single, &mut routed, &Request::Levels { term: None });
        let (a, b) = both(&mut single, &mut routed, &Request::Stats);
        assert_eq!(
            a.get("graph").expect("graph section").to_string(),
            b.get("graph").expect("graph section").to_string(),
            "stats diverge at {n} shards"
        );
        d.shutdown();
    }
}

/// The router front door loads the format the system itself writes: a
/// packed snapshot under the router's root is partitioned, staged to
/// each shard's sandbox as packed files, and loaded there — after which
/// the shards' union is exactly the input graph.
#[test]
fn router_snapshot_load_accepts_packed_files() {
    let root = std::env::temp_dir().join(format!("probase-router-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut stores = Vec::new();
    let mut shards = Vec::new();
    let dirs = provision_shard_dirs(&root, 2).expect("shard dirs");
    for dir in dirs.clone() {
        let store = SharedStore::new(ConceptGraph::new());
        let config = ServeConfig {
            durability: Some(DurabilityConfig::new(dir)),
            ..serve_config()
        };
        shards.push(Server::start(store.clone(), &config).expect("durable shard"));
        stores.push(store);
    }
    let config = RouterConfig {
        shard_addrs: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        deadline: Duration::from_secs(5),
        snapshot_root: Some(root.clone()),
        ..RouterConfig::default()
    };
    let router = Router::new(config, RoutingTable::new(2), &probase_obs::Registry::new())
        .expect("router builds");
    let front = RouterServer::start(Arc::new(router), "127.0.0.1:0").expect("router binds");

    let input = fixture_graph();
    std::fs::write(root.join("fresh.pb"), pack(&input).expect("encode")).unwrap();
    let mut routed = Client::connect(front.local_addr()).expect("connect router");
    let (_, data) = routed
        .call_ok(&Request::SnapshotLoad {
            path: "fresh.pb".into(),
        })
        .expect("router loads a packed snapshot");
    assert_eq!(
        data.get("nodes").and_then(Json::as_u64),
        Some(input.node_count() as u64)
    );
    let loaded: Vec<ConceptGraph> = stores.iter().map(SharedStore::clone_graph).collect();
    assert_eq!(
        canonical_bytes(&merge_shards(&loaded)),
        canonical_bytes(&input),
        "shard union after the load is the input graph"
    );
    let (_, isa) = routed
        .call_ok(&Request::Isa {
            parent: "country".into(),
            child: "China".into(),
        })
        .expect("routed read after load");
    assert_eq!(isa.get("isa").and_then(Json::as_bool), Some(true));
    let staged = |dirs: &[std::path::PathBuf]| -> Vec<String> {
        dirs.iter()
            .flat_map(|d| std::fs::read_dir(d).expect("shard dir lists"))
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("incoming-"))
            .collect()
    };
    assert_eq!(
        staged(&dirs),
        Vec::<String>::new(),
        "a load leaves no staged files"
    );

    // A load that fails on one shard removes its staged files too.
    shards.pop().expect("two shards").shutdown();
    routed
        .call_ok(&Request::SnapshotLoad {
            path: "fresh.pb".into(),
        })
        .expect_err("a load with a shard down fails");
    assert_eq!(
        staged(&dirs),
        Vec::<String>::new(),
        "a failed load leaves no staged files"
    );

    front.shutdown();
    for s in shards {
        s.shutdown();
    }
    std::fs::remove_dir_all(&root).ok();
}
