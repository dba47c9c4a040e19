//! # probase-serve
//!
//! The concurrent query-serving subsystem: what turns the reproduction
//! from a library into a system. The paper hosts Probase in the Trinity
//! graph engine and serves many applications concurrently (§5.3);
//! [`SharedStore`](probase_store::SharedStore) already reproduces the
//! many-readers/one-writer shape, and this crate puts a network front
//! end on it:
//!
//! * a **multi-threaded TCP server** ([`server::Server`]) speaking
//!   newline-delimited JSON — std::net listener, per-connection reader
//!   threads, a bounded job queue with backpressure, a worker
//!   pool, per-request deadlines, and graceful draining shutdown;
//! * a **typed protocol** ([`proto::Request`]) covering the existing
//!   query surface: `isa`, `typicality`, `plausibility`,
//!   `conceptualize`, `search-rewrite`, `stats`, `levels`, `labels`,
//!   plus the writes `add-evidence` and `snapshot-load` (hot-swapping a
//!   whole graph);
//! * a **sharded LRU response cache** ([`cache::ResponseCache`]) keyed
//!   on `(endpoint, args, store version)` so writes invalidate
//!   implicitly through the store's version counter;
//! * **telemetry** ([`telemetry::ServeTelemetry`]) — per-endpoint
//!   request counts and latency histograms, cache hit rate, queue depth,
//!   backpressure rejections — all registered as `serve.*` metrics in a
//!   [`probase_obs::Registry`] and dumped by the `stats` endpoint;
//! * a **blocking client** ([`client::Client`]) used by the benches and
//!   the tests — with configurable retries (exponential backoff, jitter,
//!   a lifetime retry budget, idempotent-reads-only; see
//!   [`client::ClientConfig`]).
//!
//! The server side is hardened against hostile or broken peers: a
//! max-connections admission guard, per-connection oversize-line limits,
//! and strike-based shedding of garbage-spewing connections — each shed
//! or malformed event is counted in telemetry and answered with a proper
//! error envelope. `crates/testkit` plus `tests/chaos.rs` replay seeded
//! fault schedules against all of it; see DESIGN.md §11.
//!
//! When started with a snapshot directory, the write path becomes
//! **durable** ([`durability::Durability`]): every `add-evidence` is
//! appended to a checksummed write-ahead log before it is acked, crash
//! recovery replays the log over the newest checkpoint at startup, and a
//! background worker consumes the log as a real-time evidence stream —
//! incrementally folding the un-consumed suffix (histogram shift, urns
//! refit, changed-edge annotation) behind a fold cursor so each record
//! is processed once, then checkpointing. `snapshot-load` paths are
//! then sandboxed to that directory. See DESIGN.md §13 and §16.
//!
//! The dependency-free JSON codec lives in [`probase_obs::json`]
//! (re-exported here as [`json`], where it originally lived); see its
//! docs for why the workspace carries no `serde_json`.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod durability;
pub mod proto;
pub mod router;
pub mod server;
pub mod telemetry;

pub use probase_obs::json;

pub use cache::ResponseCache;
pub use client::{Client, ClientConfig, ClientError, Envelope};
pub use durability::{Durability, DurabilityConfig, FoldReport};
pub use json::Json;
pub use probase_store::WalSync;
pub use proto::{Direction, ErrorCode, LabelKind, Request, ENDPOINTS};
pub use router::ServeState;
pub use server::{ServeConfig, Server};
pub use telemetry::{ClientTelemetry, ServeTelemetry};
