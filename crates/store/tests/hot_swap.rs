//! Snapshot hot-swap: the serving-side maintenance path (paper §5.3's
//! "taxonomy refresh" shape). A new taxonomy build is serialized with
//! [`pack`], shipped, validated, and swapped into a live
//! [`SharedStore`] under the write lock — readers either see the old
//! graph or the new one, never a mix, and the version counter tells
//! caches which.

use probase_store::{pack, query, ConceptGraph, PackedGraph, SharedStore};

fn decode(bytes: &bytes::Bytes) -> ConceptGraph {
    PackedGraph::from_bytes(bytes.clone())
        .expect("snapshot validates")
        .unpack()
}

fn old_world() -> ConceptGraph {
    let mut g = ConceptGraph::new();
    let country = g.ensure_node("country", 0);
    let china = g.ensure_node("China", 0);
    let india = g.ensure_node("India", 0);
    g.add_evidence(country, china, 8);
    g.add_evidence(country, india, 3);
    g
}

fn new_world() -> ConceptGraph {
    let mut g = ConceptGraph::new();
    let company = g.ensure_node("company", 0);
    let msft = g.ensure_node("Microsoft", 0);
    let apple = g.ensure_node("Apple", 0);
    let fruit = g.ensure_node("fruit", 0);
    let apple_fruit = g.ensure_node("Apple", 1);
    g.add_evidence(company, msft, 10);
    g.add_evidence(company, apple, 7);
    g.add_evidence(fruit, apple_fruit, 4);
    g
}

#[test]
fn snapshot_round_trip_preserves_structure() {
    let original = new_world();
    let bytes = pack(&original).expect("encode");
    let decoded = decode(&bytes);

    assert_eq!(decoded.node_count(), original.node_count());
    assert_eq!(decoded.edge_count(), original.edge_count());
    let company = decoded.find_node("company", 0).expect("company survives");
    let msft = decoded
        .find_node("Microsoft", 0)
        .expect("Microsoft survives");
    let edge = decoded.edge(company, msft).expect("edge survives");
    assert_eq!(edge.count, 10);
    // Both senses of "Apple" must come back, in ascending sense order.
    assert_eq!(decoded.senses_of("Apple").len(), 2);
}

#[test]
fn hot_swap_through_shared_store_bumps_version_and_serves_new_graph() {
    let store = SharedStore::new(old_world());
    let v0 = store.version();
    assert!(store.read(|g| g.find_node("country", 0).is_some()));
    assert!(store.read(|g| g.find_node("company", 0).is_none()));

    // Ship the new build through the snapshot wire format, exactly as a
    // `snapshot-load` request does.
    let incoming = decode(&pack(&new_world()).expect("encode"));
    let (nodes, v1) = store.update_versioned(move |g| {
        *g = incoming;
        g.node_count()
    });

    assert_eq!(v1, v0 + 1, "a swap is one write: exactly one version bump");
    assert_eq!(store.version(), v1);
    assert_eq!(nodes, 5);

    // Queries now resolve against the new graph only.
    let ((old_gone, company), v_read) = store.read_versioned(|g| {
        (
            g.find_node("country", 0),
            g.find_node("company", 0).expect("new concept queryable"),
        )
    });
    assert!(old_gone.is_none(), "old taxonomy fully replaced");
    assert_eq!(v_read, v1);

    // The rebuilt indexes work through the store: reachability queries
    // see the new edges.
    store.read(|g| {
        let msft = g.find_node("Microsoft", 0).expect("new instance queryable");
        assert!(query::ancestors(g, msft).contains(&company));
        assert_eq!(g.children(company).count(), 2);
    });
}

#[test]
fn swap_is_atomic_under_concurrent_readers() {
    let store = SharedStore::new(old_world());
    let bytes = pack(&new_world()).expect("encode");

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let store = store.clone();
            scope.spawn(move || {
                for _ in 0..500 {
                    // Readers must see exactly one world, never a blend.
                    let (consistent, _v) = store.read_versioned(|g| {
                        let old = g.find_node("country", 0).is_some();
                        let new = g.find_node("company", 0).is_some();
                        old != new
                    });
                    assert!(consistent, "reader observed a half-swapped graph");
                }
            });
        }
        let store = store.clone();
        let bytes = bytes.clone();
        scope.spawn(move || {
            let incoming = decode(&bytes);
            store.update(move |g| *g = incoming);
        });
    });

    assert_eq!(store.version(), 1);
    assert!(store.read(|g| g.find_node("company", 0).is_some()));
}
