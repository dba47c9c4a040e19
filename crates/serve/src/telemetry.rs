//! Serving telemetry: the server's view onto the shared
//! [`probase_obs`] registry.
//!
//! Every number the server tracks — per-endpoint request counts and
//! latency histograms, cache hit/miss rates, queue depth, backpressure
//! rejections — is an ordinary [`probase_obs`] metric registered under
//! `serve.*`. That means one registry (and one `--metrics-out` report)
//! covers the pipeline *and* the serving layer when `probase-cli serve`
//! passes the process-global registry in; tests construct servers with
//! isolated registries instead and read exact deltas.
//!
//! [`ServeTelemetry`] pre-resolves every handle at construction so the
//! hot path never touches the registry's name map — recording is a
//! handful of relaxed atomic stores, same cost as the hand-rolled
//! registry this module replaced. The `stats` endpoint dump
//! ([`ServeTelemetry::to_json`]) keeps its original shape.

use crate::json::Json;
use crate::proto::ENDPOINTS;
use probase_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Pre-resolved handles for one endpoint.
#[derive(Debug)]
struct EndpointHandles {
    /// Completed requests (including errored ones).
    requests: Arc<Counter>,
    /// Requests that produced an error envelope.
    errors: Arc<Counter>,
    /// End-to-end handler latency in microseconds (queue wait excluded).
    latency: Arc<Histogram>,
}

/// The server's metric handles, all registered in one
/// [`probase_obs::Registry`]. See the module docs.
#[derive(Debug)]
pub struct ServeTelemetry {
    registry: Arc<Registry>,
    endpoints: Vec<EndpointHandles>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    rejected: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    bad_requests: Arc<Counter>,
    malformed_lines: Arc<Counter>,
    oversize_lines: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    connections_open: Arc<Gauge>,
    connections_total: Arc<Counter>,
    connections_rejected: Arc<Counter>,
}

impl ServeTelemetry {
    /// Telemetry recording into `registry` — `probase-cli` passes
    /// [`probase_obs::global`] so endpoint metrics land in the same
    /// `--metrics-out` report as the pipeline stages; tests pass a fresh
    /// registry to read exact counter deltas.
    pub fn new(registry: Arc<Registry>) -> Self {
        let endpoints = ENDPOINTS
            .iter()
            .map(|name| EndpointHandles {
                requests: registry.counter(&format!("serve.{name}.requests")),
                errors: registry.counter(&format!("serve.{name}.errors")),
                latency: registry.histogram(&format!("serve.{name}.latency_us")),
            })
            .collect();
        Self {
            endpoints,
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            rejected: registry.counter("serve.queue.rejected"),
            deadline_expired: registry.counter("serve.queue.deadline_expired"),
            bad_requests: registry.counter("serve.bad_requests"),
            malformed_lines: registry.counter("serve.malformed_lines"),
            oversize_lines: registry.counter("serve.oversize_lines"),
            queue_depth: registry.gauge("serve.queue.depth"),
            connections_open: registry.gauge("serve.connections.open"),
            connections_total: registry.counter("serve.connections.total"),
            connections_rejected: registry.counter("serve.connections.rejected"),
            registry,
        }
    }

    /// The backing registry (snapshot it for a full report).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record a completed request for endpoint `idx`.
    pub fn record_request(&self, idx: usize, latency: Duration, errored: bool) {
        let e = &self.endpoints[idx];
        e.requests.inc();
        if errored {
            e.errors.inc();
        }
        e.latency.record_duration(latency);
    }

    /// Response served from the cache.
    pub fn cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Response had to be computed.
    pub fn cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Request rejected because the bounded queue was full.
    pub fn rejected(&self) {
        self.rejected.inc();
    }

    /// Request expired in the queue before a worker picked it up.
    pub fn deadline_expired(&self) {
        self.deadline_expired.inc();
    }

    /// Unparseable line or invalid parameters.
    pub fn bad_request(&self) {
        self.bad_requests.inc();
    }

    /// A line that never became a request: unparseable JSON or invalid
    /// UTF-8 (a strict subset of [`ServeTelemetry::bad_request`], which
    /// also counts well-formed JSON with bad parameters).
    pub fn malformed_line(&self) {
        self.malformed_lines.inc();
    }

    /// A request line exceeded the per-line byte limit and was dropped.
    pub fn oversize_line(&self) {
        self.oversize_lines.inc();
    }

    /// A connection was shed at accept time (connection limit reached).
    pub fn connection_rejected(&self) {
        self.connections_rejected.inc();
    }

    /// Malformed lines so far.
    pub fn malformed_lines_total(&self) -> u64 {
        self.malformed_lines.get()
    }

    /// Oversize lines so far.
    pub fn oversize_lines_total(&self) -> u64 {
        self.oversize_lines.get()
    }

    /// Connections shed at accept time so far.
    pub fn connections_rejected_total(&self) -> u64 {
        self.connections_rejected.get()
    }

    /// Requests shed because the queue was full, so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.get()
    }

    /// Requests shed because they expired in the queue, so far.
    pub fn deadline_expired_total(&self) -> u64 {
        self.deadline_expired.get()
    }

    /// A job entered the queue.
    pub fn enqueued(&self) {
        self.queue_depth.inc();
    }

    /// A worker took a job off the queue.
    pub fn dequeued(&self) {
        self.queue_depth.dec();
    }

    /// Current queue depth (floored at 0 — racy reads can transiently
    /// observe inc/dec out of order).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.get().max(0) as u64
    }

    /// A client connected.
    pub fn connection_opened(&self) {
        self.connections_open.inc();
        self.connections_total.inc();
    }

    /// A client disconnected.
    pub fn connection_closed(&self) {
        self.connections_open.dec();
    }

    /// Cache hits so far.
    pub fn cache_hits_total(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Completed requests summed over all endpoints.
    pub fn requests_total(&self) -> u64 {
        self.endpoints.iter().map(|e| e.requests.get()).sum()
    }

    /// Dump the serving metrics as JSON (`cache_entries` is supplied by
    /// the caller because the cache is a sibling object).
    pub fn to_json(&self, cache_entries: usize) -> Json {
        let mut per_endpoint = Vec::new();
        for (name, e) in ENDPOINTS.iter().zip(&self.endpoints) {
            let requests = e.requests.get();
            if requests == 0 {
                continue;
            }
            per_endpoint.push((
                name.to_string(),
                Json::obj(vec![
                    ("requests", Json::num(requests as f64)),
                    ("errors", Json::num(e.errors.get() as f64)),
                    ("p50_us", Json::num(e.latency.quantile(0.50) as f64)),
                    ("p99_us", Json::num(e.latency.quantile(0.99) as f64)),
                    ("p999_us", Json::num(e.latency.quantile(0.999) as f64)),
                    ("max_us", Json::num(e.latency.max() as f64)),
                    (
                        "mean_us",
                        Json::num((e.latency.mean() * 10.0).round() / 10.0),
                    ),
                ]),
            ));
        }
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        Json::obj(vec![
            ("endpoints", Json::Obj(per_endpoint)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::num(hits as f64)),
                    ("misses", Json::num(misses as f64)),
                    ("hit_rate", Json::num(hit_rate)),
                    ("entries", Json::num(cache_entries as f64)),
                ]),
            ),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::num(self.queue_depth() as f64)),
                    ("rejected", Json::num(self.rejected.get() as f64)),
                    (
                        "deadline_expired",
                        Json::num(self.deadline_expired.get() as f64),
                    ),
                ]),
            ),
            (
                "connections",
                Json::obj(vec![
                    ("open", Json::num(self.connections_open.get().max(0) as f64)),
                    ("total", Json::num(self.connections_total.get() as f64)),
                    (
                        "rejected",
                        Json::num(self.connections_rejected.get() as f64),
                    ),
                ]),
            ),
            ("bad_requests", Json::num(self.bad_requests.get() as f64)),
            (
                "malformed_lines",
                Json::num(self.malformed_lines.get() as f64),
            ),
            (
                "oversize_lines",
                Json::num(self.oversize_lines.get() as f64),
            ),
        ])
    }
}

/// Client-side retry telemetry: counters for retries attempted,
/// reconnects performed, and calls that exhausted their retry budget,
/// registered as `serve.client.*`. A `Client` keeps them in a private
/// registry and exposes them through `Client::telemetry`.
#[derive(Debug)]
pub struct ClientTelemetry {
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    exhausted: Arc<Counter>,
}

impl Default for ClientTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ClientTelemetry {
    /// Telemetry backed by a fresh, private registry.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new())
    }

    /// Telemetry recording into an existing registry.
    pub fn with_registry(registry: &Registry) -> Self {
        Self {
            retries: registry.counter("serve.client.retries"),
            reconnects: registry.counter("serve.client.reconnects"),
            exhausted: registry.counter("serve.client.retries_exhausted"),
        }
    }

    /// A request attempt is being retried.
    pub fn retry(&self) {
        self.retries.inc();
    }

    /// The client re-established its connection.
    pub fn reconnect(&self) {
        self.reconnects.inc();
    }

    /// A call gave up after exhausting its retries or budget.
    pub fn exhausted(&self) {
        self.exhausted.inc();
    }

    /// Retries attempted so far.
    pub fn retries_total(&self) -> u64 {
        self.retries.get()
    }

    /// Reconnects performed so far.
    pub fn reconnects_total(&self) -> u64 {
        self.reconnects.get()
    }

    /// Calls that exhausted retries so far.
    pub fn exhausted_total(&self) -> u64 {
        self.exhausted.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_flow_into_dump() {
        let m = ServeTelemetry::new(Arc::new(Registry::new()));
        m.record_request(1, Duration::from_micros(5), false); // isa
        m.record_request(1, Duration::from_micros(7), true);
        m.cache_hit();
        m.cache_hit();
        m.cache_miss();
        m.rejected();
        m.deadline_expired();
        m.bad_request();
        m.enqueued();
        m.connection_opened();
        let dump = m.to_json(3);
        let isa = dump
            .get("endpoints")
            .and_then(|e| e.get("isa"))
            .expect("isa present");
        assert_eq!(isa.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(isa.get("errors").and_then(Json::as_u64), Some(1));
        assert!(isa.get("p50_us").and_then(Json::as_u64).unwrap() >= 5);
        assert!(isa.get("p99_us").is_some());
        let cache = dump.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(2));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        assert!((cache.get("hit_rate").and_then(Json::as_f64).unwrap() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(3));
        let queue = dump.get("queue").unwrap();
        assert_eq!(queue.get("depth").and_then(Json::as_u64), Some(1));
        assert_eq!(queue.get("rejected").and_then(Json::as_u64), Some(1));
        assert_eq!(
            queue.get("deadline_expired").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(dump.get("bad_requests").and_then(Json::as_u64), Some(1));
        // Endpoints with zero traffic are omitted from the dump.
        assert!(dump.get("endpoints").unwrap().get("stats").is_none());
        assert_eq!(m.requests_total(), 2);
    }

    #[test]
    fn queue_depth_never_negative() {
        let m = ServeTelemetry::new(Arc::new(Registry::new()));
        m.dequeued();
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn metrics_surface_in_the_registry_snapshot() {
        let m = ServeTelemetry::new(Arc::new(Registry::new()));
        m.record_request(1, Duration::from_micros(5), false); // isa
        m.cache_hit();
        let snap = m.registry().snapshot();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("serve.isa.requests"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("serve.cache.hits"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let lat = snap
            .get("histograms")
            .and_then(|h| h.get("serve.isa.latency_us"))
            .expect("latency histogram registered");
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn robustness_counters_flow_into_dump() {
        let m = ServeTelemetry::new(Arc::new(Registry::new()));
        m.malformed_line();
        m.malformed_line();
        m.oversize_line();
        m.connection_rejected();
        let dump = m.to_json(0);
        assert_eq!(dump.get("malformed_lines").and_then(Json::as_u64), Some(2));
        assert_eq!(dump.get("oversize_lines").and_then(Json::as_u64), Some(1));
        assert_eq!(
            dump.get("connections")
                .and_then(|c| c.get("rejected"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(m.malformed_lines_total(), 2);
        assert_eq!(m.oversize_lines_total(), 1);
        assert_eq!(m.connections_rejected_total(), 1);
    }

    #[test]
    fn client_telemetry_shares_the_registry() {
        let registry = Arc::new(Registry::new());
        let c = ClientTelemetry::with_registry(&registry);
        c.retry();
        c.retry();
        c.reconnect();
        c.exhausted();
        assert_eq!(c.retries_total(), 2);
        assert_eq!(c.reconnects_total(), 1);
        assert_eq!(c.exhausted_total(), 1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("serve.client.retries"))
                .and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn shared_registry_is_observed_by_both_handles() {
        let registry = Arc::new(Registry::new());
        let a = ServeTelemetry::new(registry.clone());
        let b = ServeTelemetry::new(registry);
        a.cache_hit();
        b.cache_hit();
        assert_eq!(a.cache_hits_total(), 2);
        assert_eq!(b.cache_hits_total(), 2);
    }
}
