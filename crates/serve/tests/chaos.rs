//! Fault-injection suite: a real [`Server`] behind a
//! [`probase_testkit::FaultProxy`], plus direct-to-server abuse of the
//! wire protocol. Every fault schedule derives from a seed, so a failure
//! replays exactly: set `PROBASE_CHAOS_SEED` to the seed printed in the
//! assertion message and rerun
//! `cargo test -p probase-serve --test chaos`.
//!
//! The invariant every scenario ends on: the server is still answering
//! clean requests, and the telemetry counters account for every shed,
//! rejected, or malformed event the scenario provoked.

use probase_serve::{
    json, Client, ClientConfig, ClientError, DurabilityConfig, Json, Request, ServeConfig, Server,
    WalSync,
};
use probase_store::{ConceptGraph, SharedStore};
use probase_testkit::{Fault, FaultPlan, FaultProxy};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Env var naming the chaos seed; defaults to a pinned value so CI runs
/// are reproducible without any setup.
const SEED_VAR: &str = "PROBASE_CHAOS_SEED";
const DEFAULT_SEED: u64 = 0xCAFE_BABE;

fn chaos_seed() -> u64 {
    FaultPlan::from_env(SEED_VAR, DEFAULT_SEED).seed()
}

fn seeded_store() -> SharedStore {
    let mut g = ConceptGraph::new();
    let country = g.ensure_node("country", 0);
    for (label, count) in [("China", 8u32), ("India", 5), ("Japan", 3)] {
        let n = g.ensure_node(label, 0);
        g.add_evidence(country, n, count);
    }
    SharedStore::new(g)
}

fn start_server(config: ServeConfig) -> Server {
    Server::start(seeded_store(), &config).expect("server binds an ephemeral port")
}

fn default_test_config() -> ServeConfig {
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

/// A fresh per-test durability directory under the system temp dir.
fn chaos_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("probase-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The default config plus a durable write path rooted at `dir`, with
/// background rebuild off — the durability scenarios drive rebuilds
/// explicitly or not at all.
fn durable_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        durability: Some(DurabilityConfig {
            snapshot_dir: dir.to_path_buf(),
            wal_sync: WalSync::Always,
            rebuild_after_writes: 0,
            rebuild_interval: None,
        }),
        ..default_test_config()
    }
}

/// A client config tuned for the fault scenarios: quick, bounded,
/// seeded so backoff jitter replays with the fault schedule.
fn retrying_config(seed: u64) -> ClientConfig {
    ClientConfig {
        max_retries: 4,
        retry_budget: 32,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
        jitter: 0.5,
        seed,
        read_timeout: Some(Duration::from_millis(400)),
        ..ClientConfig::default()
    }
}

/// Read envelopes off a raw socket until EOF or `n` lines.
fn read_envelopes(reader: &mut impl BufRead, n: usize) -> Vec<Json> {
    let mut out = Vec::new();
    for _ in 0..n {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => out.push(json::parse(line.trim()).expect("server lines are valid JSON")),
        }
    }
    out
}

fn error_code(envelope: &Json) -> Option<&str> {
    envelope.get("error").and_then(Json::as_str)
}

// --- determinism of the harness itself -------------------------------

#[test]
fn fault_schedules_replay_from_seed() {
    let seed = chaos_seed();
    let a = FaultPlan::seeded(seed).schedule(64);
    let b = FaultPlan::seeded(seed).schedule(64);
    assert_eq!(
        a, b,
        "seed {seed:#x}: same seed must give the same schedule"
    );
    let c = FaultPlan::seeded(seed ^ 1).schedule(64);
    assert_ne!(
        a, c,
        "seed {seed:#x}: flipping the seed must change the schedule"
    );
}

// --- scripted single-fault scenarios through the proxy ---------------

#[test]
fn client_retries_through_dropped_connection() {
    let server = start_server(default_test_config());
    let plan = FaultPlan::scripted(vec![Fault::DropMidRequest { after_bytes: 4 }]);
    let proxy = FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    let mut client = Client::connect_with(proxy.local_addr(), retrying_config(chaos_seed()))
        .expect("connect through proxy");
    let envelope = client.call(&Request::Ping).expect("retry must recover");
    assert!(envelope.error.is_none(), "recovered call answers cleanly");
    assert!(
        client.retries_spent() >= 1,
        "the drop must have cost a retry"
    );
    assert!(
        client.telemetry().reconnects_total() >= 1,
        "a dropped connection forces a reconnect"
    );
    assert!(proxy.accepted() >= 2, "retry arrived on a fresh connection");
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn client_retries_through_truncated_response() {
    let server = start_server(default_test_config());
    let plan = FaultPlan::scripted(vec![Fault::TruncateResponse { after_bytes: 5 }]);
    let proxy = FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    let mut client = Client::connect_with(proxy.local_addr(), retrying_config(chaos_seed()))
        .expect("connect through proxy");
    let (version, _) = client
        .call_ok(&Request::Isa {
            parent: "country".to_string(),
            child: "China".to_string(),
        })
        .expect("retry past the truncated response");
    assert_eq!(version, 0, "clean answer reflects the unmutated store");
    assert!(client.retries_spent() >= 1);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn client_retries_through_garbage_response() {
    let server = start_server(default_test_config());
    let plan = FaultPlan::scripted(vec![Fault::GarbageResponse { lines: 2 }]);
    let proxy = FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    let mut client = Client::connect_with(proxy.local_addr(), retrying_config(chaos_seed()))
        .expect("connect through proxy");
    let envelope = client
        .call(&Request::Ping)
        .expect("retry past garbage bytes");
    assert!(envelope.error.is_none());
    assert!(
        client.retries_spent() >= 1,
        "garbage must surface as a retry"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn client_retries_through_blackholed_request() {
    let server = start_server(default_test_config());
    let plan = FaultPlan::scripted(vec![Fault::BlackholeRequest]);
    let proxy = FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    let mut client = Client::connect_with(proxy.local_addr(), retrying_config(chaos_seed()))
        .expect("connect through proxy");
    let envelope = client
        .call(&Request::Ping)
        .expect("read timeout + retry must recover from a blackhole");
    assert!(envelope.error.is_none());
    assert!(client.retries_spent() >= 1);
    assert!(client.telemetry().retries_total() >= 1);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn writes_never_retry() {
    // A dropped write must fail fast — retrying a non-idempotent
    // add-evidence could double-count evidence.
    let server = start_server(default_test_config());
    let plan = FaultPlan::scripted(vec![Fault::DropMidRequest { after_bytes: 4 }]);
    let proxy = FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    let mut client = Client::connect_with(proxy.local_addr(), retrying_config(chaos_seed()))
        .expect("connect through proxy");
    let err = client
        .call(&Request::AddEvidence {
            parent: "country".to_string(),
            child: "Brazil".to_string(),
            count: 1,
        })
        .expect_err("dropped write must not silently retry");
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::Protocol(_)),
        "write fails with the transport error, got {err}"
    );
    assert_eq!(
        client.retries_spent(),
        0,
        "no retry budget spent on a write"
    );
    assert_eq!(
        server.state().store().version(),
        0,
        "the write must not have been applied twice — or at all"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn slow_loris_connection_does_not_stall_others() {
    let server = start_server(default_test_config());
    let plan = FaultPlan::scripted(vec![Fault::SlowLoris {
        chunk: 2,
        delay_ms: 10,
    }]);
    let proxy = FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    // The victim drips through the proxy on its own thread…
    let proxy_addr = proxy.local_addr();
    let victim = std::thread::spawn(move || {
        let mut client = Client::connect_with(
            proxy_addr,
            ClientConfig {
                read_timeout: Some(Duration::from_secs(10)),
                ..ClientConfig::default()
            },
        )
        .expect("victim connects");
        client.call(&Request::Ping)
    });

    // …while a direct client gets quick answers throughout.
    let mut direct = Client::connect(server.local_addr()).expect("direct connect");
    for i in 0..20 {
        let started = Instant::now();
        direct
            .call_ok(&Request::Ping)
            .unwrap_or_else(|e| panic!("direct ping {i} failed during slow-loris: {e}"));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "direct ping {i} stalled behind the slow connection"
        );
    }

    let slow = victim.join().expect("victim thread clean");
    let envelope = slow.expect("the dripped response still arrives intact");
    assert!(envelope.error.is_none());
    proxy.shutdown();
    server.shutdown();
}

// --- direct-to-server robustness -------------------------------------

#[test]
fn garbage_flood_is_shed_with_envelopes_and_counted() {
    let config = ServeConfig {
        max_line_strikes: 3,
        ..default_test_config()
    };
    let server = start_server(config);
    let plan = FaultPlan::seeded(chaos_seed());

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    for line in 0..3u64 {
        stream
            .write_all(&plan.garbage_line(0, line))
            .expect("write garbage");
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // Three bad-request envelopes for the garbage lines, then the shed
    // notice, then EOF.
    let envelopes = read_envelopes(&mut reader, 8);
    assert_eq!(
        envelopes.len(),
        4,
        "seed {:#x}: 3 garbage envelopes + 1 shed notice, got {envelopes:?}",
        plan.seed()
    );
    for e in &envelopes {
        assert_eq!(error_code(e), Some("bad-request"), "envelope {e}");
    }
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).expect("EOF after shed"),
        0,
        "connection must be closed after the strike limit"
    );

    assert_eq!(
        server.state().metrics().malformed_lines_total(),
        3,
        "every garbage line counted"
    );

    // The server is unharmed: a clean client still gets answers.
    let mut clean = Client::connect(server.local_addr()).expect("clean connect");
    clean.call_ok(&Request::Ping).expect("ping after the flood");
    server.shutdown();
}

#[test]
fn oversize_line_rejected_but_connection_survives() {
    let config = ServeConfig {
        max_line_bytes: 256,
        ..default_test_config()
    };
    let server = start_server(config);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let huge = format!("{}\n", "x".repeat(1024));
    stream
        .write_all(huge.as_bytes())
        .expect("write oversize line");
    let ping = Request::Ping.to_json(7).to_string();
    stream
        .write_all(format!("{ping}\n").as_bytes())
        .expect("write valid request");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let envelopes = read_envelopes(&mut reader, 2);
    assert_eq!(
        envelopes.len(),
        2,
        "rejection then answer, got {envelopes:?}"
    );
    assert_eq!(
        error_code(&envelopes[0]),
        Some("line-too-large"),
        "oversize line rejected with the proper code: {}",
        envelopes[0]
    );
    assert_eq!(
        envelopes[1].get("id").and_then(Json::as_u64),
        Some(7),
        "the same connection still serves the next valid request"
    );
    assert_eq!(envelopes[1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(server.state().metrics().oversize_lines_total(), 1);
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn backpressure_sheds_with_overloaded_envelope() {
    use std::os::unix::fs::OpenOptionsExt;

    // One worker, a tiny queue, and a worker deterministically wedged on
    // a FIFO that blocks `snapshot-load` until we write to it — so queue
    // overflow is exact, not a timing accident. `snapshot-load` requires
    // (and is sandboxed to) a durability directory, so the FIFO lives in
    // one and the request names it relative.
    let dir = chaos_dir("wedge");
    let fifo = dir.join("wedge.fifo");
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo failed");

    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..durable_config(&dir)
    };
    let server = start_server(config);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let wedge = Request::SnapshotLoad {
        path: "wedge.fifo".to_string(),
    };
    stream
        .write_all(format!("{}\n", wedge.to_json(1)).as_bytes())
        .expect("send wedge");

    // A non-blocking write-open of a FIFO fails with ENXIO until some
    // reader holds it open — so the first success proves the worker has
    // dequeued the wedge and is blocked inside `snapshot-load`. Holding
    // this write end open also guarantees the worker unwedges (EOF on
    // drop) even if an assertion below fails, so the test can never
    // deadlock the join in `Server`'s drop.
    const O_NONBLOCK: i32 = 0o4000;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut wedge_writer = loop {
        match std::fs::OpenOptions::new()
            .write(true)
            .custom_flags(O_NONBLOCK)
            .open(&fifo)
        {
            Ok(f) => break f,
            Err(_) => {
                assert!(Instant::now() < deadline, "worker never opened the FIFO");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };

    // queue_capacity pings fit; the next 3 must shed immediately.
    let mut batch = String::new();
    for id in 2..=6u64 {
        batch.push_str(&Request::Ping.to_json(id).to_string());
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).expect("send burst");

    // The overloaded envelopes are written by the reader thread without
    // touching the wedged worker, so they arrive first.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let shed = read_envelopes(&mut reader, 3);
    assert_eq!(
        shed.len(),
        3,
        "exactly 3 pings overflow the queue: {shed:?}"
    );
    for e in &shed {
        assert_eq!(error_code(e), Some("overloaded"), "envelope {e}");
    }
    assert_eq!(server.state().metrics().rejected_total(), 3);

    // Unwedge: feeding the FIFO garbage fails the snapshot decode (an
    // internal error envelope) and frees the worker for the queued pings.
    wedge_writer
        .write_all(b"definitely not a snapshot")
        .expect("unwedge");
    drop(wedge_writer);
    let tail = read_envelopes(&mut reader, 3);
    assert_eq!(tail.len(), 3, "wedge answer + 2 queued pings: {tail:?}");
    let mut ids: Vec<u64> = tail
        .iter()
        .map(|e| e.get("id").and_then(Json::as_u64).expect("id"))
        .collect();
    ids.sort_unstable();
    let wedge_answer = tail
        .iter()
        .find(|e| e.get("id").and_then(Json::as_u64) == Some(1))
        .expect("the wedged request is answered");
    assert_eq!(error_code(wedge_answer), Some("internal"));
    assert_eq!(ids.len(), 3, "wedge + both queued pings answered: {ids:?}");
    assert!(ids.contains(&1));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_deadline_sheds_every_request_and_counts_them() {
    let config = ServeConfig {
        deadline: Duration::ZERO,
        ..default_test_config()
    };
    let server = start_server(config);

    // Non-retrying client: every call comes back `deadline-exceeded`.
    let mut plain = Client::connect(server.local_addr()).expect("connect");
    for i in 0..5 {
        let envelope = plain.call(&Request::Ping).expect("transport stays healthy");
        assert_eq!(
            envelope.error.as_ref().map(|(c, _)| c.as_str()),
            Some("deadline-exceeded"),
            "call {i}"
        );
    }
    assert_eq!(server.state().metrics().deadline_expired_total(), 5);

    // Retrying client: deadline-exceeded is retryable, so the budget is
    // spent in full and the caller still sees the server's verdict.
    let mut retrier =
        Client::connect_with(server.local_addr(), retrying_config(chaos_seed())).expect("connect");
    let err = retrier
        .call_ok(&Request::Ping)
        .expect_err("all retries shed");
    assert!(
        matches!(err, ClientError::Server(ref code, _) if code == "deadline-exceeded"),
        "got {err}"
    );
    assert_eq!(
        retrier.retries_spent(),
        4,
        "the full per-call retry allowance was spent"
    );
    assert_eq!(retrier.telemetry().retries_total(), 4);
    server.shutdown();
}

#[test]
fn max_connections_guard_rejects_with_envelope() {
    let config = ServeConfig {
        max_connections: 2,
        ..default_test_config()
    };
    let server = start_server(config);
    let addr = server.local_addr();

    let mut a = Client::connect(addr).expect("first connect");
    let mut b = Client::connect(addr).expect("second connect");
    a.call_ok(&Request::Ping).expect("a pings");
    b.call_ok(&Request::Ping).expect("b pings");

    // The third connection is turned away with a proper envelope + EOF.
    let third = TcpStream::connect(addr).expect("tcp connect still accepted");
    let mut reader = BufReader::new(third);
    let envelopes = read_envelopes(&mut reader, 2);
    assert_eq!(envelopes.len(), 1, "one rejection envelope: {envelopes:?}");
    assert_eq!(error_code(&envelopes[0]), Some("too-many-connections"));
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).expect("read"),
        0,
        "rejected connection is closed"
    );
    assert_eq!(server.state().metrics().connections_rejected_total(), 1);

    // Capacity frees when a client leaves; a newcomer then gets in.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if c.call_ok(&Request::Ping).is_ok() {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "slot never freed after the first client left"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    b.call_ok(&Request::Ping)
        .expect("surviving client unaffected");
    server.shutdown();
}

// --- the seeded sweep -------------------------------------------------

#[test]
fn seeded_fault_sweep_leaves_server_healthy_and_books_balanced() {
    let seed = chaos_seed();
    let plan = FaultPlan::seeded(seed);
    let server = start_server(default_test_config());
    let proxy = FaultProxy::start(server.local_addr(), plan).expect("proxy starts");

    // Walk a window of the seeded schedule: one client per planned
    // connection, each attempting a read through whatever fault its
    // connection draws (retries may land on later connections with their
    // own faults). Individual outcomes depend on the seed; the suite's
    // contract is bounded failure + a healthy server afterwards.
    let schedule = FaultPlan::seeded(seed).schedule(8);
    let mut outcomes = Vec::new();
    for conn in 0..8u64 {
        let mut client = Client::connect_with(proxy.local_addr(), retrying_config(seed ^ conn))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: connect {conn} failed: {e}"));
        let result = client.call(&Request::Isa {
            parent: "country".to_string(),
            child: "India".to_string(),
        });
        outcomes.push((conn, result.is_ok(), client.retries_spent()));
    }
    let succeeded = outcomes.iter().filter(|(_, ok, _)| *ok).count();
    assert!(
        succeeded >= 1,
        "seed {seed:#x}: every client failed despite retries; \
         schedule {schedule:?}, outcomes {outcomes:?}"
    );

    // The server took all of that without degrading: a direct client
    // gets a clean answer and a coherent stats dump.
    let mut direct = Client::connect(server.local_addr()).expect("direct connect");
    let (version, _) = direct
        .call_ok(&Request::Ping)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: server unhealthy after sweep: {e}"));
    assert_eq!(
        version, 0,
        "seed {seed:#x}: reads must not have mutated the store"
    );

    let (_, stats) = direct
        .call_ok(&Request::Stats)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: stats failed: {e}"));
    let serving = stats.get("serve").expect("stats carries the metrics dump");
    let isa_requests = serving
        .get("endpoints")
        .and_then(|e| e.get("isa"))
        .and_then(|e| e.get("requests"))
        .and_then(Json::as_u64)
        .expect("isa requests in dump");
    assert!(
        isa_requests >= succeeded as u64,
        "seed {seed:#x}: {isa_requests} isa requests served < {succeeded} successful calls"
    );

    assert_eq!(
        server.state().metrics().connections_rejected_total(),
        0,
        "seed {seed:#x}: no admission pressure in this sweep"
    );
    proxy.shutdown();
    server.shutdown();
}

// --- durable write path: kill -9, recovery, rebuild -------------------

/// The headline durability contract: an acked `add-evidence` survives an
/// abrupt kill (no drain, no shutdown hook, no final fsync pass) and a
/// restart over the same directory.
#[test]
fn acked_write_survives_abrupt_kill_and_restart() {
    let dir = chaos_dir("kill");
    let server = Server::start(seeded_store(), &durable_config(&dir)).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (v, _) = client
        .call_ok(&Request::AddEvidence {
            parent: "country".to_string(),
            child: "Brazil".to_string(),
            count: 7,
        })
        .expect("write acked");
    assert!(v > 0, "ack carries the post-write version");
    drop(client);
    // Abrupt kill: leak the whole server — none of its threads drain,
    // nothing flushes, no checkpoint is written. The acked write now
    // exists on disk only as a WAL record.
    std::mem::forget(server);

    // Restart: a fresh process image (pre-crash seed graph) over the
    // same directory. Recovery must replay the acked write.
    let server2 = Server::start(seeded_store(), &durable_config(&dir)).expect("recovery succeeds");
    let d = server2.state().durability().expect("configured").clone();
    assert_eq!(d.wal_replayed_total(), 1, "the acked write was replayed");
    let mut client2 = Client::connect(server2.local_addr()).expect("reconnect");
    let (_, found) = client2
        .call_ok(&Request::Plausibility {
            parent: "country".to_string(),
            child: "Brazil".to_string(),
        })
        .expect("read after recovery");
    assert_eq!(found.get("found").and_then(Json::as_bool), Some(true));
    assert_eq!(found.get("count").and_then(Json::as_u64), Some(7));
    drop(client2);
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay determinism: two byte-identical crash images (checkpoint +
/// WAL) must recover to byte-identical consolidated checkpoints — the
/// log fully determines the recovered state.
#[test]
fn wal_replay_is_deterministic() {
    let dir_a = chaos_dir("replay-a");
    let server = Server::start(seeded_store(), &durable_config(&dir_a)).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (child, count) in [("Brazil", 7u32), ("Russia", 4), ("Atlantis", 1)] {
        client
            .call_ok(&Request::AddEvidence {
                parent: "country".to_string(),
                child: child.to_string(),
                count,
            })
            .expect("write acked");
    }
    drop(client);
    std::mem::forget(server); // crash with all three writes WAL-only

    // Duplicate the crash image byte-for-byte.
    let dir_b = chaos_dir("replay-b");
    for entry in std::fs::read_dir(&dir_a).expect("read dir").flatten() {
        std::fs::copy(entry.path(), dir_b.join(entry.file_name())).expect("copy crash image");
    }

    // Recover both images; recovery consolidates each into exactly one
    // fresh checkpoint (older generations are pruned).
    Server::start(seeded_store(), &durable_config(&dir_a))
        .expect("recover a")
        .shutdown();
    Server::start(seeded_store(), &durable_config(&dir_b))
        .expect("recover b")
        .shutdown();
    let checkpoint = |dir: &Path| -> PathBuf {
        let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("snapshot-") && name.ends_with(".pb")
            })
            .collect();
        assert_eq!(snaps.len(), 1, "recovery leaves one checkpoint: {snaps:?}");
        snaps.pop().unwrap()
    };
    let (path_a, path_b) = (checkpoint(&dir_a), checkpoint(&dir_b));
    assert_eq!(
        path_a.file_name(),
        path_b.file_name(),
        "same generation and write coverage"
    );
    let bytes_a = std::fs::read(&path_a).expect("read a");
    let bytes_b = std::fs::read(&path_b).expect("read b");
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a, bytes_b,
        "identical logs must recover to byte-identical checkpoints"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Seeded xorshift-style mixer so chaos scenarios can derive write
/// streams from `PROBASE_CHAOS_SEED` without a rand dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The newest (highest-generation) checkpoint file in a durability dir.
/// After a rebuild has pruned, exactly one remains.
fn sole_checkpoint(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("snapshot-") && name.ends_with(".pb")
        })
        .collect();
    assert_eq!(snaps.len(), 1, "pruning leaves one checkpoint: {snaps:?}");
    snaps.pop().unwrap()
}

/// Kill -9 in the middle of incremental maintenance: a server whose
/// background worker is folding the WAL after every few writes is
/// abruptly leaked mid-stream, restarted over the same directory, and
/// fed the rest of the stream. The contract (DESIGN.md §16): every
/// acked write is present after recovery, and the final consolidated
/// checkpoint is **byte-identical** to one from an uninterrupted run of
/// the same stream — the fold cursor and histogram are rebuilt from
/// disk, so a crash can lose no maintenance state that matters.
#[test]
fn crash_mid_incremental_fold_converges_to_uninterrupted_bytes() {
    let seed = chaos_seed();
    let mut s = seed;
    // 10 writes over two parents ("metal" is brand-new) and a small
    // child pool, so the stream mixes new edges with count bumps —
    // both fold paths (insert + histogram shift) get exercised.
    let writes: Vec<(String, String, u32)> = (0..10)
        .map(|_| {
            let r = splitmix(&mut s);
            let parent = if r.is_multiple_of(2) {
                "country"
            } else {
                "metal"
            };
            let child = format!("inc-{}", (r >> 4) % 6);
            let count = ((r >> 8) % 4 + 1) as u32;
            (parent.to_string(), child, count)
        })
        .collect();
    let crash_at = 2 + (splitmix(&mut s) % 7) as usize; // 2..=8 of 10

    // Interrupted run: background folds every 3 writes, crash at a
    // seed-chosen point in the stream.
    let dir_a = chaos_dir("inc-crash-a");
    let mut config = durable_config(&dir_a);
    config
        .durability
        .as_mut()
        .expect("durable config")
        .rebuild_after_writes = 3;
    let server = Server::start(seeded_store(), &config).expect("server binds");
    let d = server.state().durability().expect("configured").clone();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (parent, child, count) in &writes[..crash_at] {
        client
            .call_ok(&Request::AddEvidence {
                parent: parent.clone(),
                child: child.clone(),
                count: *count,
            })
            .unwrap_or_else(|e| panic!("seed {seed:#x}: pre-crash write failed: {e}"));
    }
    drop(client);
    // Let any in-flight fold/checkpoint cycle commit before a second
    // server opens the same directory — the leaked worker threads keep
    // running in-process, so an overlapping cycle would be two writers
    // on one dir, which a real kill -9 cannot produce. Where the crash
    // lands *between* cycles still varies with the seed via `crash_at`.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let runs = d.rebuild_runs_total();
        std::thread::sleep(Duration::from_millis(80));
        if d.rebuild_runs_total() == runs && d.pending_writes() < 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed:#x}: rebuild worker never quiesced"
        );
    }
    std::mem::forget(server); // kill -9: no drain, no flush, no checkpoint

    // Recovery over the crash image, then the rest of the stream.
    let server2 = Server::start(seeded_store(), &durable_config(&dir_a))
        .unwrap_or_else(|e| panic!("seed {seed:#x}: recovery failed: {e}"));
    let d2 = server2.state().durability().expect("configured").clone();
    let mut client2 = Client::connect(server2.local_addr()).expect("reconnect");
    for (parent, child, count) in &writes[crash_at..] {
        client2
            .call_ok(&Request::AddEvidence {
                parent: parent.clone(),
                child: child.clone(),
                count: *count,
            })
            .unwrap_or_else(|e| panic!("seed {seed:#x}: post-crash write failed: {e}"));
    }
    // Every acked write of the whole stream is present with its full
    // accumulated count — nothing the crash could have eaten.
    let mut expected: std::collections::BTreeMap<(String, String), u64> = Default::default();
    for (parent, child, count) in &writes {
        *expected.entry((parent.clone(), child.clone())).or_default() += u64::from(*count);
    }
    for ((parent, child), total) in &expected {
        let (_, p) = client2
            .call_ok(&Request::Plausibility {
                parent: parent.clone(),
                child: child.clone(),
            })
            .unwrap_or_else(|e| panic!("seed {seed:#x}: read failed: {e}"));
        assert_eq!(
            p.get("found").and_then(Json::as_bool),
            Some(true),
            "seed {seed:#x}: acked edge {parent}->{child} lost"
        );
        assert_eq!(
            p.get("count").and_then(Json::as_u64),
            Some(*total),
            "seed {seed:#x}: {parent}->{child} count drifted"
        );
    }
    d2.rebuild(server2.state().store())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: final rebuild failed: {e}"))
        .expect("no writer racing the final rebuild");
    drop(client2);
    server2.shutdown();
    let bytes_interrupted = std::fs::read(sole_checkpoint(&dir_a)).expect("read checkpoint");

    // Uninterrupted reference: same seed graph, same stream, one
    // process, one explicit consolidation at the end.
    let dir_b = chaos_dir("inc-crash-b");
    let server_b = Server::start(seeded_store(), &durable_config(&dir_b)).expect("server binds");
    let db = server_b.state().durability().expect("configured").clone();
    let mut client_b = Client::connect(server_b.local_addr()).expect("connect");
    for (parent, child, count) in &writes {
        client_b
            .call_ok(&Request::AddEvidence {
                parent: parent.clone(),
                child: child.clone(),
                count: *count,
            })
            .expect("write acked");
    }
    db.rebuild(server_b.state().store())
        .expect("rebuild")
        .expect("committed");
    drop(client_b);
    server_b.shutdown();
    let bytes_reference = std::fs::read(sole_checkpoint(&dir_b)).expect("read checkpoint");

    assert!(!bytes_reference.is_empty());
    assert_eq!(
        bytes_interrupted, bytes_reference,
        "seed {seed:#x}, crash at {crash_at}: interrupted maintenance must \
         converge to the uninterrupted checkpoint bytes"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The background rebuild worker hot-swaps a freshly annotated graph
/// while a reader hammers the server — no read ever fails or blocks on
/// the rebuild, and afterwards the new edges carry plausibility scores
/// and the WAL has been checkpointed away.
#[test]
fn background_rebuild_hot_swaps_under_concurrent_reads() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = chaos_dir("rebuild");
    let mut config = durable_config(&dir);
    config
        .durability
        .as_mut()
        .expect("durable config")
        .rebuild_after_writes = 4;
    let server = Server::start(seeded_store(), &config).expect("server binds");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let stop_reader = stop.clone();
    let reader = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("reader connects");
        let mut answered = 0u64;
        while !stop_reader.load(Ordering::Relaxed) {
            client
                .call_ok(&Request::Isa {
                    parent: "country".to_string(),
                    child: "China".to_string(),
                })
                .expect("reads never fail during a rebuild");
            answered += 1;
        }
        answered
    });

    let mut writer = Client::connect(addr).expect("writer connects");
    for (i, child) in ["Brazil", "Russia", "Mexico", "Kenya"].iter().enumerate() {
        writer
            .call_ok(&Request::AddEvidence {
                parent: "country".to_string(),
                child: child.to_string(),
                count: i as u32 + 1,
            })
            .expect("write acked");
    }

    // Four writes hit the trigger; wait for the worker's cycle.
    let d = server.state().durability().expect("configured").clone();
    let deadline = Instant::now() + Duration::from_secs(10);
    while d.rebuild_runs_total() == 0 {
        assert!(Instant::now() < deadline, "rebuild worker never ran");
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let answered = reader.join().expect("reader thread clean");
    assert!(answered > 0, "the reader made progress throughout");

    // The swapped graph carries fresh plausibility for the new edge…
    let (_, p) = writer
        .call_ok(&Request::Plausibility {
            parent: "country".to_string(),
            child: "Brazil".to_string(),
        })
        .expect("read after the hot swap");
    assert_eq!(p.get("found").and_then(Json::as_bool), Some(true));
    assert!(
        p.get("plausibility").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
        "rebuild annotated the new edge: {p}"
    );
    // …and the cycle checkpointed the writes away and shows in stats.
    assert_eq!(d.pending_writes(), 0, "writes were checkpointed");
    let (_, stats) = writer.call_ok(&Request::Stats).expect("stats");
    let rebuild = stats
        .get("durability")
        .and_then(|s| s.get("rebuild"))
        .expect("durability section in stats");
    assert!(
        rebuild.get("runs").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "stats count the rebuild: {rebuild}"
    );
    drop(writer);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
