//! Router fault-injection suite: a real shard fleet behind per-shard
//! chaos proxies ([`probase_testkit::ProxyFleet`]). Every seeded
//! schedule derives from `PROBASE_CHAOS_SEED`, so a CI failure replays
//! exactly: set the env var to the seed printed in the assertion
//! message and rerun `cargo test -p probase-router --test chaos`.
//!
//! The headline contracts under test:
//!
//! * killing one shard degrades exactly the labels that shard owns —
//!   everything else keeps answering, scatters carry `degraded: true`;
//! * an acked write to a surviving shard is durable across an abrupt
//!   kill (-9 style) and restart of the whole fleet;
//! * a slow-loris straggler loses to a hedged retry, not to the
//!   deadline.

use probase_router::{partition, Router, RouterConfig, RouterServer, RoutingTable};
use probase_serve::{
    Client, ClientConfig, DurabilityConfig, Json, Request, ServeConfig, Server, WalSync,
};
use probase_store::{shard_dir, ConceptGraph, SharedStore};
use probase_testkit::{Fault, FaultPlan, FaultProxy, ProxyFleet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SEED_VAR: &str = "PROBASE_CHAOS_SEED";
const DEFAULT_SEED: u64 = 0xCAFE_BABE;

fn chaos_seed() -> u64 {
    FaultPlan::from_env(SEED_VAR, DEFAULT_SEED).seed()
}

/// Three disconnected components, so a 4-way partition spreads them
/// over at least two shards and killing one leaves real survivors.
fn fixture_graph() -> ConceptGraph {
    let mut g = ConceptGraph::new();
    let country = g.ensure_node("country", 0);
    for (label, count) in [("China", 8u32), ("India", 5), ("Japan", 3)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(country, n, count);
    }
    let conference = g.ensure_node("conference", 0);
    for (label, count) in [("SIGMOD", 3u32), ("VLDB", 2)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(conference, n, count);
    }
    let animal = g.ensure_node("animal", 0);
    for (label, count) in [("cat", 5u32), ("dog", 4)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(animal, n, count);
    }
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

/// The shard config plus a durable write path rooted at `dir`, with
/// background rebuild off so the WAL is the only thing that can save an
/// acked write across the abrupt kill below.
fn durable_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        durability: Some(DurabilityConfig {
            snapshot_dir: dir.to_path_buf(),
            wal_sync: WalSync::Always,
            rebuild_after_writes: 0,
            rebuild_interval: None,
        }),
        ..serve_config()
    }
}

/// A fresh per-test durability root under the system temp dir.
fn chaos_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "probase-router-chaos-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Fast-failing dial config for the router's shard connections, seeded
/// so retry jitter replays with the fault schedule.
fn shard_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        max_retries: 1,
        retry_budget: 32,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
        jitter: 0.5,
        seed,
        read_timeout: Some(Duration::from_millis(400)),
        ..ClientConfig::default()
    }
}

fn start_router(addrs: Vec<String>, table: RoutingTable, config: RouterConfig) -> RouterServer {
    let config = RouterConfig {
        shard_addrs: addrs,
        ..config
    };
    let router = Router::new(config, table, &probase_obs::Registry::new()).expect("router builds");
    RouterServer::start(Arc::new(router), "127.0.0.1:0").expect("router binds")
}

/// Two component roots living on different shards, or a panic if the
/// fixture ever stops spanning shards (that would defeat every scenario
/// here, so fail loudly rather than vacuously pass).
fn split_roots(table: &RoutingTable) -> (&'static str, &'static str) {
    let roots = ["country", "conference", "animal"];
    for a in roots {
        for b in roots {
            if table.shard_for(a) != table.shard_for(b) {
                return (a, b);
            }
        }
    }
    panic!("fixture components all hash to one shard; change a label");
}

fn typicality(term: &str) -> Request {
    Request::Typicality {
        term: term.to_string(),
        direction: probase_serve::Direction::Instances,
        k: 10,
    }
}

// --- kill one shard: its labels degrade, nothing else does -----------

#[test]
fn killed_shard_degrades_only_its_labels() {
    let seed = chaos_seed();
    let graph = fixture_graph();
    let p = partition(&graph, 4);
    let table = RoutingTable::from_partition(&p);
    let (dead_root, live_root) = split_roots(&table);
    let dead_home = table.shard_for(dead_root);

    let servers: Vec<Server> = p
        .shards
        .into_iter()
        .map(|g| Server::start(SharedStore::new(g), &serve_config()).expect("shard binds"))
        .collect();
    let upstreams: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    // Clean pass-through plans: the only fault in this scenario is the
    // kill itself.
    let plans = vec![FaultPlan::scripted(vec![Fault::None]); upstreams.len()];
    let mut fleet = ProxyFleet::start_scripted(&upstreams, plans).expect("fleet starts");

    let front = start_router(
        fleet.addrs().iter().map(SocketAddr::to_string).collect(),
        table,
        RouterConfig {
            deadline: Duration::from_millis(800),
            client: shard_client_config(seed),
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect(front.local_addr()).expect("connect router");

    // Sanity: both components answer through the proxies before the kill.
    for root in [dead_root, live_root] {
        let envelope = client.call(&typicality(root)).expect("pre-kill call");
        assert!(envelope.error.is_none(), "seed {seed:#x}: pre-kill {root}");
        assert!(!envelope.degraded, "seed {seed:#x}: pre-kill degraded");
    }

    fleet.kill(dead_home);

    // Single-shard queries for the dead shard's labels fail...
    let envelope = client.call(&typicality(dead_root)).expect("transport ok");
    assert!(
        envelope.error.is_some(),
        "seed {seed:#x}: {dead_root} lives on the killed shard {dead_home} and must error"
    );
    // ...while the same endpoint for a surviving shard's labels is
    // untouched — not even degraded.
    let envelope = client.call(&typicality(live_root)).expect("transport ok");
    assert!(
        envelope.error.is_none(),
        "seed {seed:#x}: survivor label {live_root} must answer"
    );
    assert!(!envelope.degraded, "seed {seed:#x}: survivor degraded");

    // Scatters keep working on the survivor subset and say so.
    let envelope = client
        .call(&Request::Labels {
            kind: probase_serve::LabelKind::Concepts,
            k: 100,
        })
        .expect("transport ok");
    assert!(envelope.error.is_none(), "seed {seed:#x}: scatter errored");
    assert!(
        envelope.degraded,
        "seed {seed:#x}: partial scatter must be flagged degraded"
    );
    let labels: Vec<&str> = envelope
        .data
        .get("labels")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    assert!(
        labels.contains(&live_root),
        "seed {seed:#x}: survivor labels missing from degraded scatter"
    );
    assert!(
        !labels.contains(&dead_root),
        "seed {seed:#x}: dead shard's labels cannot appear in a degraded scatter"
    );

    let envelope = client
        .call(&Request::Levels { term: None })
        .expect("transport ok");
    assert!(
        envelope.error.is_none() && envelope.degraded,
        "seed {seed:#x}: levels scatter"
    );

    let router = front.router();
    let telemetry = router.telemetry();
    assert!(
        telemetry.degraded.get() >= 2,
        "seed {seed:#x}: degraded counter should cover both scatters"
    );
    assert!(
        telemetry.shard_failures.get() >= 1,
        "seed {seed:#x}: shard failures must be counted"
    );

    front.shutdown();
    fleet.shutdown();
    for s in servers {
        s.shutdown();
    }
}

// --- durability: acked survivor writes outlive an abrupt fleet kill --

#[test]
fn acked_survivor_writes_survive_abrupt_restart() {
    let seed = chaos_seed();
    let root = chaos_root("durable");
    let graph = fixture_graph();
    let p = partition(&graph, 4);
    let table = RoutingTable::from_partition(&p);
    let (dead_root, live_root) = split_roots(&table);
    let dead_home = table.shard_for(dead_root);

    let servers: Vec<Server> = p
        .shards
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            let dir = shard_dir(&root, i);
            std::fs::create_dir_all(&dir).expect("shard dir");
            Server::start(SharedStore::new(g), &durable_config(&dir)).expect("shard binds")
        })
        .collect();
    let upstreams: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let plans = vec![FaultPlan::scripted(vec![Fault::None]); upstreams.len()];
    let mut fleet = ProxyFleet::start_scripted(&upstreams, plans).expect("fleet starts");

    let front = start_router(
        fleet.addrs().iter().map(SocketAddr::to_string).collect(),
        table,
        RouterConfig {
            deadline: Duration::from_millis(800),
            client: shard_client_config(seed),
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect(front.local_addr()).expect("connect router");

    // One acked write to each component while everything is healthy.
    for (parent, child, count) in [(dead_root, "early", 2u32), (live_root, "steady", 3)] {
        client
            .call_ok(&Request::AddEvidence {
                parent: parent.to_string(),
                child: child.to_string(),
                count,
            })
            .unwrap_or_else(|e| panic!("seed {seed:#x}: healthy write {parent}/{child}: {e}"));
    }

    // Kill one shard; acked writes must keep landing on the survivors.
    fleet.kill(dead_home);
    client
        .call_ok(&Request::AddEvidence {
            parent: live_root.to_string(),
            child: "after-outage".to_string(),
            count: 7,
        })
        .unwrap_or_else(|e| panic!("seed {seed:#x}: survivor write after outage: {e}"));

    // Abrupt kill of the whole fleet: leak every shard server so no
    // thread drains and nothing flushes beyond what each ack already
    // fsynced.
    front.shutdown();
    fleet.shutdown();
    for s in servers {
        std::mem::forget(s);
    }

    // Restart every shard over the same directories from the pre-crash
    // seed graphs; recovery replays each shard's WAL.
    let p2 = partition(&fixture_graph(), 4);
    let servers2: Vec<Server> = p2
        .shards
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            Server::start(SharedStore::new(g), &durable_config(&shard_dir(&root, i)))
                .expect("shard recovers")
        })
        .collect();
    // Rebuild the routing table from the *recovered* graphs, the same
    // way `serve --shards` does after restart — the exception entries
    // for the new children must come back from the replayed WALs.
    let recovered: Vec<ConceptGraph> = servers2
        .iter()
        .map(|s| s.state().store().clone_graph())
        .collect();
    let table2 = RoutingTable::from_shard_graphs(&recovered);
    let front2 = start_router(
        servers2
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect(),
        table2,
        RouterConfig {
            deadline: Duration::from_millis(800),
            client: shard_client_config(seed),
            ..RouterConfig::default()
        },
    );
    let mut client2 = Client::connect(front2.local_addr()).expect("reconnect router");

    for (parent, child, count) in [
        (dead_root, "early", 2u64),
        (live_root, "steady", 3),
        (live_root, "after-outage", 7),
    ] {
        let (_, found) = client2
            .call_ok(&Request::Plausibility {
                parent: parent.to_string(),
                child: child.to_string(),
            })
            .unwrap_or_else(|e| {
                panic!("seed {seed:#x}: read {parent}/{child} after recovery: {e}")
            });
        assert_eq!(
            found.get("found").and_then(Json::as_bool),
            Some(true),
            "seed {seed:#x}: acked write {parent}/{child} lost in restart"
        );
        assert_eq!(
            found.get("count").and_then(Json::as_u64),
            Some(count),
            "seed {seed:#x}: acked count for {parent}/{child} wrong after replay"
        );
    }

    front2.shutdown();
    for s in servers2 {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

// --- hedging: a slow-loris straggler loses to the hedge --------------

#[test]
fn hedged_retry_beats_slow_loris_straggler() {
    let seed = chaos_seed();
    let graph = fixture_graph();
    let p = partition(&graph, 2);
    let table = RoutingTable::from_partition(&p);
    let home = table.shard_for("country");

    let servers: Vec<Server> = p
        .shards
        .into_iter()
        .map(|g| Server::start(SharedStore::new(g), &serve_config()).expect("shard binds"))
        .collect();
    let upstreams: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    // The home shard's first connection drips one byte per 150 ms; every
    // later connection (the script is exhausted) is clean, so the hedge
    // lands on a healthy stream.
    let plans: Vec<FaultPlan> = (0..upstreams.len())
        .map(|i| {
            if i == home {
                FaultPlan::scripted(vec![Fault::SlowLoris {
                    chunk: 1,
                    delay_ms: 150,
                }])
            } else {
                FaultPlan::scripted(vec![Fault::None])
            }
        })
        .collect();
    let fleet = ProxyFleet::start_scripted(&upstreams, plans).expect("fleet starts");

    let front = start_router(
        fleet.addrs().iter().map(SocketAddr::to_string).collect(),
        table,
        RouterConfig {
            deadline: Duration::from_secs(5),
            hedge_after: Duration::from_millis(40),
            client: ClientConfig {
                // No client-level retries: the router's hedge, not the
                // client, must win this race.
                max_retries: 0,
                seed,
                read_timeout: Some(Duration::from_secs(2)),
                ..ClientConfig::default()
            },
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect(front.local_addr()).expect("connect router");

    let start = std::time::Instant::now();
    let (_, data) = client
        .call_ok(&typicality("country"))
        .unwrap_or_else(|e| panic!("seed {seed:#x}: hedged call failed: {e}"));
    let elapsed = start.elapsed();
    assert!(
        data.get("items")
            .and_then(Json::as_arr)
            .is_some_and(|items| !items.is_empty()),
        "seed {seed:#x}: hedged answer carries results"
    );
    // The slow-loris stream needs 150 ms per byte — a full envelope that
    // way takes tens of seconds. Winning well under the deadline proves
    // the hedge answered, and the counters must agree.
    assert!(
        elapsed < Duration::from_secs(4),
        "seed {seed:#x}: answer took {elapsed:?}, straggler was not hedged"
    );
    let router = front.router();
    let telemetry = router.telemetry();
    assert!(
        telemetry.hedges.get() >= 1,
        "seed {seed:#x}: no hedge was launched"
    );
    assert!(
        telemetry.hedge_wins.get() >= 1,
        "seed {seed:#x}: hedge launched but did not win"
    );

    front.shutdown();
    fleet.shutdown();
    for s in servers {
        s.shutdown();
    }
}

// --- migration vs chaos: shard death mid-protocol stays consistent ---

/// Every label of the chaos fixture, for full-fleet equivalence sweeps.
const ALL_LABELS: [&str; 10] = [
    "country",
    "China",
    "India",
    "Japan",
    "conference",
    "SIGMOD",
    "VLDB",
    "animal",
    "cat",
    "dog",
];

/// Assert both deployments answer `req` with byte-identical payloads.
fn assert_matches_single(single: &mut Client, routed: &mut Client, req: &Request) {
    let (_, a) = single.call_ok(req).expect("single-node answers");
    let (_, b) = routed.call_ok(req).expect("routed fleet answers");
    assert_eq!(a.to_string(), b.to_string(), "payloads diverge for {req:?}");
}

/// A bridge write whose migration hits a dead shard must fail *clean*
/// — an error envelope with nothing half-applied anywhere — and once
/// the fleet is reachable again the retried write migrates for real,
/// leaving the union byte-identical to a single node.
#[test]
fn bridge_write_to_a_dead_shard_fails_clean_then_recovers() {
    let seed = chaos_seed();
    let graph = fixture_graph();
    let p = partition(&graph, 2);
    let table = RoutingTable::from_partition(&p);
    let (live_root, dead_root) = split_roots(&table);
    let dead_home = table.shard_for(dead_root);

    let servers: Vec<Server> = p
        .shards
        .into_iter()
        .map(|g| Server::start(SharedStore::new(g), &serve_config()).expect("shard binds"))
        .collect();
    let upstreams: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let plans = vec![FaultPlan::scripted(vec![Fault::None]); upstreams.len()];
    let mut fleet = ProxyFleet::start_scripted(&upstreams, plans).expect("fleet starts");
    let front = start_router(
        fleet.addrs().iter().map(SocketAddr::to_string).collect(),
        table,
        RouterConfig {
            deadline: Duration::from_millis(800),
            client: shard_client_config(seed),
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect(front.local_addr()).expect("connect router");

    // The child's shard dies; the bridge write cannot colocate and must
    // be refused outright — not applied on the parent's side only.
    fleet.kill(dead_home);
    let write = Request::AddEvidence {
        parent: live_root.to_string(),
        child: dead_root.to_string(),
        count: 4,
    };
    let envelope = client.call(&write).expect("transport ok");
    assert!(
        envelope.error.is_some(),
        "seed {seed:#x}: bridge write with a dead shard must fail, got {:?}",
        envelope.data
    );
    // Nothing was half-applied: neither shard knows the edge.
    for s in &servers {
        let mut direct = Client::connect(s.local_addr()).expect("direct connect");
        let (_, found) = direct
            .call_ok(&Request::Plausibility {
                parent: live_root.to_string(),
                child: dead_root.to_string(),
            })
            .expect("direct plausibility");
        assert_eq!(
            found.get("found").and_then(Json::as_bool),
            Some(false),
            "seed {seed:#x}: failed bridge write left a partial edge behind"
        );
    }
    front.shutdown();
    fleet.shutdown();

    // Recovery: a fresh front straight onto the (always alive) shards.
    // The retried write now migrates the component and succeeds.
    let table2 = RoutingTable::from_partition(&partition(&fixture_graph(), 2));
    let front2 = start_router(
        servers.iter().map(|s| s.local_addr().to_string()).collect(),
        table2,
        RouterConfig {
            deadline: Duration::from_secs(5),
            client: shard_client_config(seed),
            ..RouterConfig::default()
        },
    );
    let mut client2 = Client::connect(front2.local_addr()).expect("reconnect router");
    client2
        .call_ok(&write)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: retried bridge write failed: {e}"));
    let router = front2.router();
    assert!(
        router.telemetry().migrations.get() >= 1,
        "seed {seed:#x}: the retried bridge write should have migrated"
    );

    // The fleet union is byte-identical to a single node that took the
    // same (single, successful) write.
    let single = Server::start(SharedStore::new(fixture_graph()), &serve_config())
        .expect("single-node server");
    let mut single_client = Client::connect(single.local_addr()).expect("connect single");
    single_client.call_ok(&write).expect("single-node write");
    for term in ALL_LABELS {
        for direction in [
            probase_serve::Direction::Instances,
            probase_serve::Direction::Concepts,
        ] {
            assert_matches_single(
                &mut single_client,
                &mut client2,
                &Request::Typicality {
                    term: term.to_string(),
                    direction,
                    k: 10,
                },
            );
        }
    }
    assert_matches_single(
        &mut single_client,
        &mut client2,
        &Request::Isa {
            parent: live_root.to_string(),
            child: dead_root.to_string(),
        },
    );
    for kind in [
        probase_serve::LabelKind::Concepts,
        probase_serve::LabelKind::Instances,
    ] {
        assert_matches_single(
            &mut single_client,
            &mut client2,
            &Request::Labels { kind, k: 100 },
        );
    }
    front2.shutdown();
    single.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// Chaos on the replica set: the destination's replica dies before the
/// migration ships into it, then the *source primary* dies after. The
/// bridge write still acks (replication is best-effort), ship failures
/// are counted, and afterwards every read — served by the surviving
/// members, including the drained source's replica — answers clean and
/// byte-identical to a single node.
#[test]
fn migration_survives_a_dead_replica_then_a_primary_kill() {
    let seed = chaos_seed();
    let graph = fixture_graph();
    let p = partition(&graph, 2);
    let table = RoutingTable::from_partition(&p);
    let (root_a, root_b) = split_roots(&table);
    // The moving side is the smaller (ties: the child's) component, so
    // the merged owner is always the parent's shard here.
    let dst_home = table.shard_for(root_a);
    let src_home = 1 - dst_home;

    let mut primaries: Vec<Option<Server>> = Vec::new();
    let mut replicas = Vec::new();
    let mut replica_proxies: Vec<Option<FaultProxy>> = Vec::new();
    let mut addrs = Vec::new();
    let mut groups = Vec::new();
    for shard_graph in p.shards {
        let replica = Server::start(SharedStore::new(shard_graph.clone()), &serve_config())
            .expect("replica binds");
        // The primary ships through the proxy, and the router reads
        // replicas through it too — killing it is killing the replica.
        let proxy = FaultProxy::start(replica.local_addr(), FaultPlan::scripted(vec![Fault::None]))
            .expect("replica proxy");
        let primary = Server::start(
            SharedStore::new(shard_graph),
            &ServeConfig {
                replica_addrs: vec![proxy.local_addr()],
                ..serve_config()
            },
        )
        .expect("primary binds");
        addrs.push(primary.local_addr().to_string());
        groups.push(vec![proxy.local_addr().to_string()]);
        replica_proxies.push(Some(proxy));
        replicas.push(replica);
        primaries.push(Some(primary));
    }
    let front = start_router(
        addrs,
        table,
        RouterConfig {
            replica_addrs: groups,
            deadline: Duration::from_secs(5),
            client: shard_client_config(seed),
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect(front.local_addr()).expect("connect router");

    // The destination's replica dies first: the import and the write
    // itself will ship into a dead socket mid-migration.
    replica_proxies[dst_home]
        .take()
        .expect("dst replica proxy")
        .shutdown();

    let write = Request::AddEvidence {
        parent: root_a.to_string(),
        child: root_b.to_string(),
        count: 4,
    };
    client.call_ok(&write).unwrap_or_else(|e| {
        panic!("seed {seed:#x}: bridge write must survive a dead replica: {e}")
    });
    let router = front.router();
    assert!(
        router.telemetry().migrations.get() >= 1,
        "seed {seed:#x}: the bridge write should have migrated a component"
    );
    let dst_state = primaries[dst_home]
        .as_ref()
        .expect("dst primary alive")
        .state();
    let dst_replicator = dst_state.replicator().expect("dst replicates");
    assert!(
        dst_replicator.failures_total() >= 1,
        "seed {seed:#x}: ships into the dead replica must be counted as failures"
    );
    let src_state = primaries[src_home]
        .as_ref()
        .expect("src primary alive")
        .state();
    let src_replicator = src_state.replicator().expect("src replicates");
    assert!(
        src_replicator.shipped_total() >= 1,
        "seed {seed:#x}: the drain must have shipped to the source's live replica"
    );

    // Now the *source primary* dies. Moved labels redirect to the
    // destination; everything still owned by the source fails over to
    // its (drained, tombstoned) replica. Nothing degrades.
    primaries[src_home].take().expect("src primary").shutdown();

    let single = Server::start(SharedStore::new(fixture_graph()), &serve_config())
        .expect("single-node server");
    let mut single_client = Client::connect(single.local_addr()).expect("connect single");
    single_client.call_ok(&write).expect("single-node write");
    for term in ALL_LABELS {
        let req = typicality(term);
        let envelope = client
            .call(&req)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: read {term} after primary kill: {e}"));
        assert!(
            envelope.error.is_none(),
            "seed {seed:#x}: {term} errored after primary kill: {:?}",
            envelope.error
        );
        assert!(
            !envelope.degraded,
            "seed {seed:#x}: {term} degraded despite a live replica"
        );
        assert_matches_single(&mut single_client, &mut client, &req);
    }
    for kind in [
        probase_serve::LabelKind::Concepts,
        probase_serve::LabelKind::Instances,
    ] {
        let req = Request::Labels { kind, k: 100 };
        let envelope = client.call(&req).expect("labels scatter");
        assert!(
            envelope.error.is_none() && !envelope.degraded,
            "seed {seed:#x}: labels scatter must be clean over the failover set"
        );
        assert_matches_single(&mut single_client, &mut client, &req);
    }

    front.shutdown();
    single.shutdown();
    for p in replica_proxies.into_iter().flatten() {
        p.shutdown();
    }
    for s in primaries.into_iter().flatten() {
        s.shutdown();
    }
    for s in replicas {
        s.shutdown();
    }
}

// --- seeded storm: random per-shard faults, fleet stays coherent -----

#[test]
fn seeded_fault_storm_leaves_fleet_healthy() {
    let seed = chaos_seed();
    let graph = fixture_graph();
    let p = partition(&graph, 4);
    let table = RoutingTable::from_partition(&p);

    let servers: Vec<Server> = p
        .shards
        .into_iter()
        .map(|g| Server::start(SharedStore::new(g), &serve_config()).expect("shard binds"))
        .collect();
    let upstreams: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    // One seeded plan per shard, all derived from the master seed —
    // `ProxyFleet::start` splits the streams.
    let fleet = ProxyFleet::start(&upstreams, seed).expect("fleet starts");

    let front = start_router(
        fleet.addrs().iter().map(SocketAddr::to_string).collect(),
        table,
        RouterConfig {
            deadline: Duration::from_millis(800),
            hedge_after: Duration::from_millis(50),
            client: ClientConfig {
                max_retries: 2,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(10),
                seed,
                read_timeout: Some(Duration::from_millis(200)),
                ..ClientConfig::default()
            },
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect(front.local_addr()).expect("connect router");

    let terms = ["country", "China", "conference", "SIGMOD", "animal", "cat"];
    let mut succeeded = 0usize;
    let mut outcomes = Vec::new();
    for i in 0..12 {
        let envelope = client
            .call(&typicality(terms[i % terms.len()]))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: front-door transport broke: {e}"));
        let ok = envelope.error.is_none();
        succeeded += usize::from(ok);
        outcomes.push(ok);
    }
    // Faults sit between router and shards, so individual queries may
    // fail — but retries and hedges must get *some* answers through.
    assert!(
        succeeded >= 1,
        "seed {seed:#x}: every storm query failed; outcomes {outcomes:?}"
    );

    // The shards themselves took no damage: a direct (proxy-bypassing)
    // client gets a clean answer from every one.
    for (i, s) in servers.iter().enumerate() {
        let mut direct = Client::connect(s.local_addr()).expect("direct connect");
        direct
            .call_ok(&Request::Ping)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: shard {i} unhealthy after storm: {e}"));
    }

    front.shutdown();
    fleet.shutdown();
    for s in servers {
        s.shutdown();
    }
}
