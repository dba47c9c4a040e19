//! The booted `probase-cli serve` binary, on one node and on a sharded,
//! replicated fleet: a fixed seeded stream of `mixed`-profile requests
//! over the wire gets an ok, non-degraded answer every time, and covers
//! every endpoint the profile draws and both sides of the router's
//! fan-out rule.

use probase::loadgen::profile::query_class;
use probase::loadgen::{Profile, SeededRng, Vocab, Zipf};
use probase::serve::{Client, Json, LabelKind, Request};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Requests per target: enough for the mix's rarest endpoint (5%) to
/// occur under the fixed seed.
const REQUESTS: usize = 300;

/// Labels fetched per kind to build the key set.
const KEYS: usize = 256;

/// A running server process, killed and reaped on drop — also when an
/// assertion panics — so no process outlives the test.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `probase-cli serve` on an ephemeral port with `extra` flags and
/// read the bound address from its "listening on" stderr line.
fn boot(extra: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_probase-cli"))
        .args(["serve", "--addr", "127.0.0.1:0", "--sentences", "6000"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn probase-cli");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut server = Server {
        child,
        addr: String::new(),
    };
    let mut lines = BufReader::new(stderr).lines();
    for line in lines.by_ref() {
        let line = line.expect("read server stderr");
        if let Some((_, rest)) = line.split_once("listening on ") {
            server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
            break;
        }
    }
    assert!(!server.addr.is_empty(), "server exited before listening");
    // Keep draining stderr so the server never blocks on a full pipe.
    std::thread::spawn(move || lines.for_each(drop));
    server
}

fn labels(client: &mut Client, kind: LabelKind) -> Vec<String> {
    let (_, data) = client
        .call_ok(&Request::Labels { kind, k: KEYS })
        .expect("labels");
    data.get("labels")
        .and_then(Json::as_arr)
        .expect("labels array")
        .iter()
        .filter_map(Json::as_str)
        .map(str::to_string)
        .collect()
}

/// Drive the seeded stream against `server` and check every answer and
/// the coverage.
fn drive(server: &Server) {
    let mut client = Client::connect(&server.addr).expect("connect");
    let vocab = Vocab {
        concepts: labels(&mut client, LabelKind::Concepts),
        instances: labels(&mut client, LabelKind::Instances),
    };
    assert!(!vocab.concepts.is_empty() && !vocab.instances.is_empty());
    let zipf = Zipf::new(vocab.concepts.len(), 1.0);
    let mut rng = SeededRng::new(42);
    let mut write_seq = 0;
    let mut endpoints = BTreeSet::new();
    for i in 0..REQUESTS {
        let (name, req) = Profile::Mixed.sample(&mut rng, &zipf, &vocab, "t", &mut write_seq);
        let env = client
            .call(&req)
            .unwrap_or_else(|e| panic!("request {i} ({name}): {e}"));
        assert!(env.error.is_none(), "request {i} ({name}): {:?}", env.error);
        assert!(!env.degraded, "request {i} ({name}) answered degraded");
        endpoints.insert(name);
    }
    assert_eq!(
        endpoints.iter().copied().collect::<Vec<_>>(),
        [
            "add-evidence",
            "conceptualize",
            "isa",
            "levels",
            "plausibility",
            "search-rewrite",
            "typicality"
        ]
    );
    let classes: BTreeSet<&str> = endpoints.iter().map(|e| query_class(e)).collect();
    assert_eq!(
        classes.into_iter().collect::<Vec<_>>(),
        ["scatter-gather", "single-shard"]
    );
}

#[test]
fn single_node_answers_every_mixed_endpoint() {
    drive(&boot(&[]));
}

#[test]
fn replicated_shards_answer_every_mixed_endpoint() {
    drive(&boot(&["--shards", "2", "--replicas", "2"]));
}
