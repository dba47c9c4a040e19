//! Representation-equivalence sweep: a [`ServeState`] over the packed
//! zero-copy graph must answer every one of the 11 protocol endpoints
//! byte-identically to one over the pointer-rich mutable graph — the
//! acceptance bar for serving straight off an mmap'd checkpoint.
//!
//! The sweep runs over several seeded random DAGs (no fixed fixture
//! bias) and also drives a write through both states, verifying the
//! packed side thaws and converges to the same post-write answers.

use probase_serve::{Direction, LabelKind, Request, ServeState};
use probase_store::{pack, ConceptGraph, GraphHandle, NodeId, PackedGraph, SharedStore};

/// Deterministic LCG so the sweep needs no RNG dependency and replays
/// identically on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A random DAG with multi-sense labels; edges go from lower to higher
/// index so acyclicity holds by construction.
fn random_graph(seed: u64) -> ConceptGraph {
    let mut rng = Lcg(seed);
    let mut g = ConceptGraph::new();
    let n = 8 + (rng.next() % 16) as usize;
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| g.ensure_node(&format!("term{i}"), (i % 3) as u32))
        .collect();
    for _ in 0..(n * 3) {
        let i = (rng.next() as usize) % n;
        let j = (rng.next() as usize) % n;
        if i < j {
            g.add_evidence(nodes[i], nodes[j], 1 + (rng.next() % 9) as u32);
            g.set_plausibility(nodes[i], nodes[j], 0.25 + (rng.next() % 70) as f64 / 100.0);
        }
    }
    g
}

/// One request per protocol endpoint, parameterized over labels that
/// exist in the sweep graphs (plus unknown terms for the empty paths).
fn endpoint_battery() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Isa {
            parent: "term0".into(),
            child: "term7".into(),
        },
        Request::Typicality {
            term: "term0".into(),
            direction: Direction::Instances,
            k: 10,
        },
        Request::Typicality {
            term: "term7".into(),
            direction: Direction::Concepts,
            k: 10,
        },
        Request::Plausibility {
            parent: "term0".into(),
            child: "term3".into(),
        },
        Request::Conceptualize {
            terms: vec!["term5".into(), "term7".into()],
            k: 5,
        },
        Request::SearchRewrite {
            query: "term0 exports".into(),
            k: 4,
        },
        Request::Stats,
        Request::Levels { term: None },
        Request::Levels {
            term: Some("term1".into()),
        },
        Request::Labels {
            kind: LabelKind::Concepts,
            k: 32,
        },
        Request::Labels {
            kind: LabelKind::Instances,
            k: 32,
        },
        Request::Isa {
            parent: "wombat".into(),
            child: "term0".into(),
        },
        Request::SnapshotLoad {
            path: "x.pb".into(),
        },
    ]
}

fn states(g: &ConceptGraph) -> (ServeState, ServeState) {
    let mutable = ServeState::new(SharedStore::new(g.clone()), 64, 2);
    let p = PackedGraph::from_bytes(pack(g).expect("encode")).expect("validate");
    let packed = ServeState::new(SharedStore::new(GraphHandle::Packed(p)), 64, 2);
    assert!(packed.store().is_packed());
    (mutable, packed)
}

/// Serialize a handler outcome (success or error envelope) so error
/// paths are compared byte-for-byte too.
fn rendered(state: &ServeState, req: &Request) -> String {
    match state.handle(req) {
        (v, Ok(json)) => format!("v{v} ok {json}"),
        (v, Err((code, detail))) => format!("v{v} err {code:?} {detail}"),
    }
}

#[test]
fn all_endpoints_answer_byte_identically() {
    for seed in [3, 17, 42, 101, 2024] {
        let g = random_graph(seed);
        let (mutable, packed) = states(&g);
        for req in endpoint_battery() {
            let a = rendered(&mutable, &req);
            let b = rendered(&packed, &req);
            if matches!(req, Request::Stats) {
                // Stats mixes graph-derived numbers with server-local
                // telemetry (cache occupancy, uptime); only the graph
                // section is a function of the representation.
                let a = a.split("\"serve\"").next().unwrap();
                let b = b.split("\"serve\"").next().unwrap();
                assert_eq!(a, b, "stats graph section diverged (seed {seed})");
            } else {
                assert_eq!(a, b, "endpoint diverged (seed {seed}): {req:?}");
            }
        }
    }
}

#[test]
fn writes_thaw_the_packed_store_and_converge() {
    let g = random_graph(7);
    let (mutable, packed) = states(&g);
    let write = Request::AddEvidence {
        parent: "term0".into(),
        child: "brand-new".into(),
        count: 6,
    };
    assert_eq!(rendered(&mutable, &write), rendered(&packed, &write));
    assert!(
        !packed.store().is_packed(),
        "first write thaws the packed representation"
    );
    // Post-write reads agree again, including the typicality tables
    // derived from the rebuilt model.
    for req in endpoint_battery() {
        if matches!(req, Request::Stats) {
            continue;
        }
        assert_eq!(
            rendered(&mutable, &req),
            rendered(&packed, &req),
            "post-write divergence: {req:?}"
        );
    }
}
