//! # probase
//!
//! A complete, from-scratch Rust reproduction of **"Probase: A
//! Probabilistic Taxonomy for Text Understanding"** (Wu, Li, Wang, Zhu —
//! SIGMOD 2012): iterative semantic isA extraction from Hearst-pattern
//! sentences, sense-disambiguating taxonomy construction, and the
//! plausibility/typicality probabilistic layer — plus every substrate the
//! evaluation needs (synthetic web corpus, graph store, rival-taxonomy
//! simulators, application workloads).
//!
//! This crate is the facade: it re-exports the component crates and the
//! one-call pipeline. Start with [`Simulation`]:
//!
//! ```
//! use probase::{ProbaseConfig, Simulation};
//! use probase::corpus::{CorpusConfig, WorldConfig};
//!
//! let sim = Simulation::run(
//!     &WorldConfig::small(1),
//!     &CorpusConfig { seed: 1, sentences: 2_000, ..CorpusConfig::default() },
//!     &ProbaseConfig::paper(),
//!     probase::obs::global(),
//! );
//! let companies = sim.probase.model.typical_instances("company", 3);
//! assert!(!companies.is_empty());
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper-to-module map, and `EXPERIMENTS.md` for the reproduced tables
//! and figures.

/// Seeded request streams for load generation: Poisson arrival
/// schedules and named workload profiles, drawn from by perfbench's
/// open-loop driver.
pub mod loadgen;

pub use probase_core::{
    build_probase_observed, seed_from_world, PlausibilityKind, Probase, ProbaseConfig, Simulation,
};

/// Observability substrate: counters, histograms, stage timers, registry.
pub use probase_obs as obs;

/// Shallow NLP substrate: tokenizer, morphology, tagger, NP chunker.
pub use probase_text as text;

/// Ground-truth world model and web-corpus simulator.
pub use probase_corpus as corpus;

/// Iterative semantic extraction (paper §2, Algorithm 1).
pub use probase_extract as extract;

/// Taxonomy construction (paper §3, Algorithm 2).
pub use probase_taxonomy as taxonomy;

/// Plausibility and typicality (paper §4, Algorithm 3).
pub use probase_prob as prob;

/// Concept-graph store (Trinity stand-in).
pub use probase_store as store;

/// Syntactic-iteration baselines and rival taxonomy simulators.
pub use probase_baselines as baselines;

/// Text-understanding applications (paper §5.3).
pub use probase_apps as apps;

/// Evaluation harness: judge, query log, workloads, metrics.
pub use probase_eval as eval;

/// Query-serving subsystem: TCP server, response cache, metrics (§5.3).
pub use probase_serve as serve;

/// Shard router: deterministic label-hash partitioning, scatter-gather,
/// hedged retries, graceful degradation (§5.3 at Trinity scale).
pub use probase_router as router;
