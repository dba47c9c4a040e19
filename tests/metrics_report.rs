//! End-to-end observability: a pipeline run handed the process-global
//! registry records into it, and its snapshot — exactly what
//! `probase-cli --metrics-out` writes — carries the per-iteration extract
//! spans, all three taxonomy merge phases, the store swap count, and a
//! parsed-sentence count equal to the corpus size.

use probase::corpus::{CorpusConfig, WorldConfig};
use probase::obs::{global, Json};
use probase::store::SharedStore;
use probase::{ProbaseConfig, Simulation};

#[test]
fn global_snapshot_carries_every_stage_and_the_sentence_count() {
    let sim = Simulation::run(
        &WorldConfig::small(7),
        &CorpusConfig {
            seed: 7,
            sentences: 2_000,
            ..CorpusConfig::default()
        },
        &ProbaseConfig::paper(),
        global(),
    );
    // The CLI hosts the graph in the shared store before reporting.
    let store = SharedStore::new(sim.probase.model.graph().clone());
    store.read(|g| g.node_count());

    let text = global().snapshot().to_string();
    let report = probase::obs::json::parse(&text).expect("snapshot is valid JSON");

    let stages = report.get("stages").expect("stages section");
    for name in [
        "pipeline.extract",
        "pipeline.taxonomy",
        "pipeline.plausibility",
        "extract.iteration",
        "taxonomy.local_build",
        "taxonomy.horizontal_merge",
        "taxonomy.vertical_merge",
    ] {
        let stage = stages.get(name).unwrap_or_else(|| panic!("missing {name}"));
        assert!(
            stage.get("calls").and_then(Json::as_u64) >= Some(1),
            "{name} has no recorded spans"
        );
        assert!(
            stage
                .get("spans_us")
                .and_then(Json::as_arr)
                .is_some_and(|s| !s.is_empty()),
            "{name} has no span samples"
        );
    }

    let counters = report.get("counters").expect("counters section");
    // The pipeline saw exactly the corpus it was given.
    assert_eq!(
        counters
            .get("extract.sentences_parsed")
            .and_then(Json::as_u64),
        Some(2_000)
    );
    for name in [
        "extract.sentences_parsed",
        "extract.pairs_committed",
        "prob.evidence_scored",
        "prob.noisyor_evaluations",
        "taxonomy.similarity_calls",
        "store.queries",
        "store.snapshot_swaps",
    ] {
        assert!(
            counters.get(name).and_then(Json::as_u64) >= Some(1),
            "counter {name} missing or zero"
        );
    }
}
