//! Property tests for the zero-copy packed snapshot format: packed and
//! pointer representations answer every [`GraphView`] query identically
//! on random DAGs, the encoding is byte-deterministic and survives a
//! thaw/re-pack cycle bit-for-bit, and the validator rejects truncation
//! and corruption without ever panicking.

use probase_store::query::{ancestors, descendants, LevelMap};
use probase_store::{
    pack, ConceptGraph, EdgeData, GraphHandle, GraphStats, GraphView, NodeId, PackedGraph,
};
use probase_testkit::prop::{check, check_with, float, int, vec_of, DEFAULT_CASES};
use probase_testkit::XorShift;

/// A random DAG with multi-sense labels and non-trivial plausibilities;
/// edges only go from lower to higher node index, so acyclicity holds by
/// construction.
fn dag(r: &mut XorShift) -> ConceptGraph {
    let n = int(r, 2..30) as usize;
    let raw_edges = vec_of(r, 0..80, |r| {
        (
            r.next_u64() as u16,
            r.next_u64() as u16,
            int(r, 1..9) as u32,
            float(r, 0.0..1.0),
        )
    });
    let mut g = ConceptGraph::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| g.ensure_node(&format!("n{i}"), (i % 3) as u32))
        .collect();
    for (a, b, w, p) in raw_edges {
        let i = a as usize % n;
        let j = b as usize % n;
        if i < j {
            g.add_evidence(nodes[i], nodes[j], w);
            g.set_plausibility(nodes[i], nodes[j], p);
        }
    }
    g
}

/// Edges `b→t` then `a→t` with `a` < `b` by id: global insertion order
/// differs from the packed rows' order, so a row-major `edges()` walk
/// would put `a→t` first.
fn insertion_order_differs_from_rows() -> ConceptGraph {
    let mut g = ConceptGraph::new();
    let a = g.ensure_node("a", 0);
    let b = g.ensure_node("b", 0);
    let t = g.ensure_node("t", 0);
    g.add_evidence(b, t, 2);
    g.add_evidence(a, t, 3);
    g
}

fn packed(g: &ConceptGraph) -> PackedGraph {
    PackedGraph::from_bytes(pack(g).expect("encode")).expect("validate")
}

/// A graph and a position drawn independently of its size.
fn dag_and_position(r: &mut XorShift) -> (ConceptGraph, u64) {
    (dag(r), r.next_u64())
}

/// The packed representation answers every read query exactly like
/// the pointer graph it was packed from — same ids, same adjacency
/// order, the same global edge order as its thaw, and bit-identical
/// floats.
#[test]
fn packed_view_is_equivalent() {
    let explicit = vec![insertion_order_differs_from_rows()];
    check_with(explicit, DEFAULT_CASES, dag, |g| {
        let p = packed(&g);
        assert_eq!(p.node_count(), g.node_count());
        assert_eq!(p.edge_count(), g.edge_count());
        for n in g.nodes() {
            assert_eq!(p.label(n), g.label(n));
            assert_eq!(p.sense(n), g.sense(n));
            assert_eq!(p.is_instance(n), g.is_instance(n));
            assert_eq!(p.find_node(g.label(n), g.sense(n)), Some(n));
            assert_eq!(p.senses_of(g.label(n)), g.senses_of(g.label(n)));
            let gk: Vec<(NodeId, u32, u64)> = g
                .children(n)
                .map(|(c, d)| (c, d.count, d.plausibility.to_bits()))
                .collect();
            let pk: Vec<(NodeId, u32, u64)> = p
                .children(n)
                .map(|(c, d)| (c, d.count, d.plausibility.to_bits()))
                .collect();
            assert_eq!(gk, pk, "children order/payload must match");
            let gp: Vec<NodeId> = g.parents(n).map(|(q, _)| q).collect();
            let pp: Vec<NodeId> = p.parents(n).map(|(q, _)| q).collect();
            assert_eq!(gp, pp, "parent order must match");
        }
        for (from, to, d) in g.edges() {
            let pd = p.edge(from, to).expect("edge present");
            assert_eq!(pd.count, d.count);
            assert_eq!(pd.plausibility.to_bits(), d.plausibility.to_bits());
        }
        let key = |(f, t, d): (NodeId, NodeId, EdgeData)| (f, t, d.count, d.plausibility.to_bits());
        let thawed = p.unpack();
        let packed_order: Vec<_> = p.edges().map(key).collect();
        let thawed_order: Vec<_> = GraphView::edges(&thawed).map(key).collect();
        assert_eq!(
            packed_order, thawed_order,
            "packed edges() walks the thaw's global insertion order"
        );
    });
}

/// Derived structures (levels, stats, reachability) computed over
/// the packed view agree with the pointer graph.
#[test]
fn derived_queries_agree() {
    check(DEFAULT_CASES, dag, |g| {
        let p = packed(&g);
        let gl = LevelMap::compute(&g);
        let pl = LevelMap::compute(&p);
        for n in g.nodes() {
            assert_eq!(gl.level(n), pl.level(n));
        }
        let gs = GraphStats::compute(&g);
        let ps = GraphStats::compute(&p);
        assert_eq!(gs, ps);
        for n in g.nodes() {
            assert_eq!(ancestors(&g, n), ancestors(&p, n));
            assert_eq!(descendants(&g, n), descendants(&p, n));
        }
    });
}

/// Packing is byte-deterministic: the same graph always encodes to
/// the identical buffer (sharded serving and the differential test
/// harness both compare checkpoints byte-for-byte).
#[test]
fn packing_is_deterministic() {
    check(DEFAULT_CASES, dag, |g| {
        assert_eq!(pack(&g).expect("encode"), pack(&g).expect("encode"));
    });
}

/// Thawing a packed graph and re-packing reproduces the exact same
/// bytes: `edge_order` preserves global insertion order, so the
/// cycle loses nothing.
#[test]
fn thaw_repack_roundtrip_is_byte_identical() {
    check(DEFAULT_CASES, dag, |g| {
        let bytes = pack(&g).expect("encode");
        let thawed = PackedGraph::from_bytes(bytes.clone())
            .expect("validate")
            .unpack();
        assert_eq!(pack(&thawed).expect("re-encode"), bytes);
        // And the handle-level shortcut returns the buffer verbatim.
        let handle = GraphHandle::Packed(PackedGraph::from_bytes(bytes.clone()).expect("validate"));
        assert_eq!(handle.to_packed_bytes().expect("verbatim"), bytes);
    });
}

/// Every strict prefix of a valid packed snapshot is rejected — the
/// header records the exact buffer length, so truncation can never
/// validate.
#[test]
fn truncated_packed_is_rejected() {
    check(DEFAULT_CASES, dag_and_position, |(g, cut)| {
        let bytes = pack(&g).expect("encode");
        let cut = (cut % bytes.len() as u64) as usize;
        assert!(PackedGraph::from_bytes(bytes.slice(..cut)).is_err());
    });
}

/// Single-bit corruption anywhere in the buffer is caught by the
/// checksum/validators and never panics.
#[test]
fn bit_flips_never_panic() {
    check(
        DEFAULT_CASES,
        |r| (dag_and_position(r), int(r, 0..8)),
        |((g, pos), bit)| {
            let bytes = pack(&g).expect("encode");
            let mut corrupt = bytes.to_vec();
            let pos = (pos % corrupt.len() as u64) as usize;
            corrupt[pos] ^= 1 << bit;
            if corrupt != bytes.as_ref() {
                assert!(
                    PackedGraph::from_bytes(bytes::Bytes::from(corrupt)).is_err(),
                    "flipped bit {bit} at byte {pos} must be rejected"
                );
            }
        },
    );
}

/// Arbitrary garbage never panics the packed validator.
#[test]
fn validator_survives_garbage() {
    check(
        DEFAULT_CASES,
        |r| vec_of(r, 0..512, |r| r.next_u64() as u8),
        |bytes| {
            let _ = PackedGraph::from_bytes(bytes::Bytes::from(bytes));
        },
    );
}
