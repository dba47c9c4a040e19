//! End-to-end concurrency smoke test: a real in-process server, eight
//! concurrent reader connections, and a writer mutating the store
//! through the wire protocol — asserting the versioned cache never
//! serves a stale response and the server shuts down cleanly.

use probase_serve::{
    json, Client, Direction, DurabilityConfig, Json, Request, ServeConfig, Server, WalSync,
};
use probase_store::{ConceptGraph, SharedStore};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn seeded_store() -> SharedStore {
    let mut g = ConceptGraph::new();
    let country = g.ensure_node("country", 0);
    for (label, count) in [("China", 8u32), ("India", 5), ("Japan", 3)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(country, n, count);
    }
    let company = g.ensure_node("company", 0);
    for (label, count) in [("Microsoft", 9u32), ("Apple", 6)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(company, n, count);
    }
    SharedStore::new(g)
}

fn start_server() -> Server {
    // Always an ephemeral port — a fixed port makes parallel test
    // binaries race for the bind and flake.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 1024,
        cache_shards: 8,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    Server::start(seeded_store(), &config).expect("server binds an ephemeral port")
}

#[test]
fn repeated_identical_queries_hit_the_cache() {
    let server = start_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let req = Request::Typicality {
        term: "country".to_string(),
        direction: Direction::Instances,
        k: 10,
    };
    let (v1, d1) = client.call_ok(&req).expect("first call");
    let hits_before = server.state().metrics().cache_hits_total();
    let (v2, d2) = client.call_ok(&req).expect("second call");
    assert_eq!((v1, &d1), (v2, &d2), "same version, same answer");
    assert!(
        server.state().metrics().cache_hits_total() > hits_before,
        "second identical query must be served from the cache"
    );
    server.shutdown();
}

#[test]
fn concurrent_readers_and_writer_never_see_stale_responses() {
    let server = start_server();
    let addr = server.local_addr();
    const READERS: usize = 8;
    const ITERS: usize = 50;
    const WRITES: u64 = 20;

    let barrier = Arc::new(std::sync::Barrier::new(READERS + 1));
    let mut handles = Vec::new();
    for reader in 0..READERS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connects");
            barrier.wait();
            let mut last_version = 0u64;
            for i in 0..ITERS {
                let req = match (reader + i) % 4 {
                    0 => Request::Ping,
                    1 => Request::Typicality {
                        term: "country".to_string(),
                        direction: Direction::Instances,
                        k: 10,
                    },
                    2 => Request::Isa {
                        parent: "company".to_string(),
                        child: "Apple".to_string(),
                    },
                    _ => Request::Conceptualize {
                        terms: vec!["China".to_string(), "India".to_string()],
                        k: 5,
                    },
                };
                let (version, _data) = client.call_ok(&req).expect("read succeeds");
                // The staleness invariant: once this connection has seen
                // version v, no later answer may come from an older graph.
                // A stale cache entry would violate exactly this.
                assert!(
                    version >= last_version,
                    "stale response: saw version {version} after {last_version}"
                );
                last_version = version;
            }
        }));
    }

    let writer = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            barrier.wait();
            let mut last_version = 0u64;
            for n in 0..WRITES {
                let (version, data) = client
                    .call_ok(&Request::AddEvidence {
                        parent: "country".to_string(),
                        child: format!("smoke-{n}"),
                        count: 1,
                    })
                    .expect("write succeeds");
                assert!(version > last_version, "each write must bump the version");
                last_version = version;
                assert!(
                    data.get("count").is_some(),
                    "write ack carries the new edge count"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    for h in handles {
        h.join().expect("reader thread clean");
    }
    writer.join().expect("writer thread clean");

    // After all writes: fresh queries must reflect the final graph (the
    // version in every cache key changed, so nothing stale can surface).
    let mut client = Client::connect(addr).expect("post connect");
    let (version, data) = client
        .call_ok(&Request::Isa {
            parent: "country".to_string(),
            child: format!("smoke-{}", WRITES - 1),
        })
        .expect("post-write isa");
    assert_eq!(version, WRITES, "exactly one bump per write");
    assert_eq!(data.get("isa").and_then(|v| v.as_bool()), Some(true));

    let state = server.state();
    assert_eq!(
        state.metrics().requests_total(),
        (READERS * ITERS) as u64 + WRITES + 1,
        "every request accounted for"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_are_matched_by_id() {
    // Fire a burst of requests down one raw socket without reading any
    // responses, then drain. With a multi-worker pool the responses may
    // come back in any order; the protocol contract is that each carries
    // the `id` of the request it answers, so a pipelining client can
    // match them up. Odd ids ask `isa`, even ids ping — the payload
    // shape proves each response really belongs to its id.
    let server = start_server();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    const N: u64 = 16;
    let mut batch = String::new();
    for id in 1..=N {
        let req = if id % 2 == 1 {
            Request::Isa {
                parent: "country".to_string(),
                child: "China".to_string(),
            }
        } else {
            Request::Ping
        };
        batch.push_str(&req.to_json(id).to_string());
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).expect("write burst");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut arrival = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..N {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read response") > 0,
            "server closed before answering the whole burst"
        );
        let v = json::parse(line.trim()).expect("valid envelope");
        let id = v.get("id").and_then(Json::as_u64).expect("envelope id");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "pipelined request {id} failed: {line}"
        );
        if id % 2 == 1 {
            assert_eq!(
                v.get("data")
                    .and_then(|d| d.get("isa"))
                    .and_then(Json::as_bool),
                Some(true),
                "response for id {id} must answer the isa request, got {line}"
            );
        }
        assert!(seen.insert(id), "duplicate response for id {id}");
        arrival.push(id);
    }
    assert!(
        (1..=N).all(|id| seen.contains(&id)),
        "every pipelined request answered exactly once (arrival order {arrival:?})"
    );
    server.shutdown();
}

/// Continuous ingestion end-to-end: an `add-evidence` write that
/// introduces a brand-new concept is queryable at ack time (the write
/// path applies it structurally), and after the next background
/// incremental fold — no restart, no full rebuild — the new edge
/// carries a plausibility score, ranks in `typicality`, and shows up
/// in `levels`.
#[test]
fn new_concept_is_served_after_the_next_incremental_fold() {
    let dir = std::env::temp_dir().join(format!("probase-smoke-fold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 256,
        cache_shards: 4,
        deadline: Duration::from_secs(5),
        durability: Some(DurabilityConfig {
            snapshot_dir: dir.clone(),
            wal_sync: WalSync::Always,
            rebuild_after_writes: 2,
            rebuild_interval: None,
        }),
        ..ServeConfig::default()
    };
    let server = Server::start(seeded_store(), &config).expect("server binds");
    let d = server.state().durability().expect("configured").clone();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // "vehicle" and both children are brand-new labels.
    for (child, count) in [("hovercraft", 4u32), ("gyrocopter", 2)] {
        client
            .call_ok(&Request::AddEvidence {
                parent: "vehicle".to_string(),
                child: child.to_string(),
                count,
            })
            .expect("write acked");
    }
    // Ack-time visibility: the edge exists before any fold ran.
    let (_, isa) = client
        .call_ok(&Request::Isa {
            parent: "vehicle".to_string(),
            child: "hovercraft".to_string(),
        })
        .expect("isa after ack");
    assert_eq!(isa.get("isa").and_then(Json::as_bool), Some(true));

    // Two writes hit the fold trigger; wait for the worker's cycle and
    // the model refresh that follows it.
    let runs_deadline = Instant::now() + Duration::from_secs(10);
    while d.rebuild_runs_total() == 0 {
        assert!(
            Instant::now() < runs_deadline,
            "incremental fold worker never ran"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let typ_req = Request::Typicality {
        term: "vehicle".to_string(),
        direction: Direction::Instances,
        k: 5,
    };
    let items = loop {
        let (_, t) = client.call_ok(&typ_req).expect("typicality");
        let items: Vec<String> = t
            .get("items")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|i| Some(i.as_arr()?.first()?.as_str()?.to_string()))
                    .collect()
            })
            .unwrap_or_default();
        if !items.is_empty() {
            break items;
        }
        assert!(
            Instant::now() < runs_deadline,
            "model never refreshed after the fold"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        items.contains(&"hovercraft".to_string()),
        "new concept ranks its instances after the fold: {items:?}"
    );

    // The folded edge carries a plausibility score from the refit model.
    let (_, p) = client
        .call_ok(&Request::Plausibility {
            parent: "vehicle".to_string(),
            child: "hovercraft".to_string(),
        })
        .expect("plausibility after fold");
    assert_eq!(p.get("found").and_then(Json::as_bool), Some(true));
    assert!(
        p.get("plausibility").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
        "fold annotated the new edge: {p}"
    );

    // `levels` sees the new concept too.
    let (_, l) = client
        .call_ok(&Request::Levels {
            term: Some("vehicle".to_string()),
        })
        .expect("levels after fold");
    let senses = l.get("senses").and_then(Json::as_arr).expect("senses");
    assert!(
        !senses.is_empty(),
        "new concept has a level without a restart: {l}"
    );

    // All of that happened in one process: nothing was replayed.
    assert_eq!(d.wal_replayed_total(), 0, "no restart occurred");
    assert!(d.incremental_folds_total() >= 1, "a fold ran");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_clean_and_stops_accepting() {
    let server = start_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.call_ok(&Request::Ping).expect("ping");
    server.shutdown();

    // The listener is gone: either the connect fails outright or the
    // accepted-then-closed socket yields no response.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(
                c.call(&Request::Ping).is_err(),
                "server must not answer after shutdown"
            );
        }
    }
    // The old connection is closed too.
    assert!(client.call(&Request::Ping).is_err());
}
