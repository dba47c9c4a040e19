//! Request dispatch: typed [`Request`]s → JSON payloads over a
//! [`SharedStore`].
//!
//! The router owns three things the worker pool shares:
//!
//! * a **versioned model cache** — `ProbaseModel` (reach + typicality
//!   tables) is derived data; it is rebuilt lazily whenever the store
//!   version moves, and every read request is answered from a model
//!   pinned to one exact version;
//! * the **response cache** ([`ResponseCache`]) keyed on
//!   `(endpoint, args, version)`, so writes invalidate implicitly;
//! * the **telemetry handles** ([`ServeTelemetry`]) recording into a
//!   [`probase_obs::Registry`] — private by default, shared when the
//!   caller wants server metrics in a process-wide report.
//!
//! Reads never take the store's write lock; writes (`add-evidence`,
//! `snapshot-load`) go through [`SharedStore::update_versioned`] and
//! report the post-write version, which is what makes the smoke test's
//! "no stale responses" assertion meaningful: response versions are
//! monotone per connection.

use crate::cache::ResponseCache;
use crate::client::{Client, ClientConfig};
use crate::durability::Durability;
use crate::json::Json;
use crate::proto::{b64_decode, b64_encode, Direction, ErrorCode, LabelKind, Request};
use crate::telemetry::ServeTelemetry;
use probase_apps::{rewrite_query, Association};
use probase_obs::{Counter, Registry};
use probase_prob::ProbaseModel;
use probase_store::query::ancestors;
use probase_store::sync::{Mutex, RwLock};
use probase_store::wal::WalOp;
use probase_store::{
    component_labels, export_component, pack, ConceptGraph, GraphHandle, GraphStats, LevelMap,
    NodeId, PackedGraph, SharedStore,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;

/// Largest packed component the `export-component` endpoint will put on
/// the wire. Base64 inflates by 4/3 and the request line budget is
/// `ServeConfig::max_line_bytes` (256 KiB by default), so 160 KiB of
/// packed bytes keeps the resulting `import-component` line comfortably
/// under the cap (and well under the WAL's 1 MiB record cap). A
/// component too large to migrate fails the bridge write cleanly; the
/// operator repartitions offline.
pub const MAX_MIGRATION_PAYLOAD: usize = 160 * 1024;

/// A model pinned to the store version it was built from.
struct VersionedModel {
    version: u64,
    model: ProbaseModel,
}

/// Everything a worker needs to answer requests. Shared via `Arc`.
pub struct ServeState {
    store: SharedStore,
    cache: ResponseCache,
    metrics: ServeTelemetry,
    model: RwLock<Arc<VersionedModel>>,
    /// Co-occurrence association for `search-rewrite`. The server fronts
    /// a store, not a corpus, so this is empty unless a future endpoint
    /// feeds it; rewrites then rank purely by typicality.
    assoc: Association,
    /// The durable write path, when the server was started with a
    /// snapshot directory. `None` keeps writes memory-only (and disables
    /// `snapshot-load`, which would otherwise read arbitrary files).
    durability: Option<Arc<Durability>>,
    /// Migration tombstones: labels whose component was drained off this
    /// shard, mapped to the shard that owns them now. Label-keyed reads
    /// on a tombstoned label answer [`ErrorCode::Moved`] with the new
    /// owner in the detail, so a stale routing table redirects instead
    /// of silently serving pre-migration data.
    moved: RwLock<HashMap<String, u32>>,
    /// Write replication to this shard's replica set, when configured.
    replicator: RwLock<Option<Arc<Replicator>>>,
}

/// Ships acked writes to a shard's replicas, synchronously and
/// best-effort: a dead replica costs a reconnect attempt per write (and
/// a `serve.replication.ship_failures` tick), never the primary's ack.
/// Connections are cached per replica and re-dialed once on failure.
pub struct Replicator {
    addrs: Vec<SocketAddr>,
    clients: Mutex<Vec<Option<Client>>>,
    shipped: Arc<Counter>,
    failures: Arc<Counter>,
}

impl Replicator {
    fn new(addrs: Vec<SocketAddr>, registry: &Registry) -> Self {
        let n = addrs.len();
        Self {
            addrs,
            clients: Mutex::new((0..n).map(|_| None).collect()),
            shipped: registry.counter("serve.replication.shipped"),
            failures: registry.counter("serve.replication.ship_failures"),
        }
    }

    /// The replica addresses this shard ships to.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Writes successfully acknowledged by a replica.
    pub fn shipped_total(&self) -> u64 {
        self.shipped.get()
    }

    /// Ship attempts that failed (replica down or rejected the write).
    pub fn failures_total(&self) -> u64 {
        self.failures.get()
    }

    /// Forward one already-acked write to every replica. Holding the
    /// mutex across the calls keeps the ship order equal to the local
    /// ack order for callers that ship immediately after their store
    /// update.
    fn ship(&self, req: &Request) {
        let mut clients = self.clients.lock();
        for (i, addr) in self.addrs.iter().enumerate() {
            let attempt = |slot: &mut Option<Client>| -> bool {
                if slot.is_none() {
                    *slot = Client::connect_with(*addr, ClientConfig::default()).ok();
                }
                let Some(client) = slot.as_mut() else {
                    return false;
                };
                // Default config = one wire attempt, no internal retry.
                match client.call(req) {
                    Ok(env) if env.error.is_none() => true,
                    _ => {
                        *slot = None;
                        false
                    }
                }
            };
            // One retry on a fresh connection: the common failure is a
            // replica restart having closed the cached socket.
            if attempt(&mut clients[i]) || attempt(&mut clients[i]) {
                self.shipped.inc();
            } else {
                self.failures.inc();
            }
        }
    }
}

/// A handler failure to be wrapped in an error envelope.
pub type HandlerError = (ErrorCode, String);

impl ServeState {
    /// Build the state with a private metric registry (tests want exact
    /// counter deltas), eagerly deriving the model at the current
    /// version so the first request does not pay the rebuild.
    pub fn new(store: SharedStore, cache_capacity: usize, cache_shards: usize) -> Self {
        Self::with_registry(
            store,
            cache_capacity,
            cache_shards,
            Arc::new(Registry::new()),
        )
    }

    /// Like [`ServeState::new`] but recording `serve.*` metrics into an
    /// existing registry — `probase-cli serve` passes the process-global
    /// one so endpoint metrics join the pipeline's `--metrics-out` report.
    pub fn with_registry(
        store: SharedStore,
        cache_capacity: usize,
        cache_shards: usize,
        registry: Arc<Registry>,
    ) -> Self {
        Self::with_durability(store, cache_capacity, cache_shards, registry, None)
    }

    /// Like [`ServeState::with_registry`] plus a durable write path:
    /// `add-evidence` then logs before acking and `snapshot-load` is
    /// enabled, sandboxed to the durability directory.
    pub fn with_durability(
        store: SharedStore,
        cache_capacity: usize,
        cache_shards: usize,
        registry: Arc<Registry>,
        durability: Option<Arc<Durability>>,
    ) -> Self {
        let (graph, version) = store.read_versioned(GraphHandle::clone);
        let model = RwLock::new(Arc::new(VersionedModel {
            version,
            model: ProbaseModel::new(graph),
        }));
        // Re-arm migration tombstones from the WAL's surviving drop
        // records, so a restarted shard keeps redirecting stale readers.
        let moved = durability
            .as_ref()
            .map(|d| d.dropped_labels())
            .unwrap_or_default();
        Self {
            store,
            cache: ResponseCache::new(cache_capacity, cache_shards),
            metrics: ServeTelemetry::with_registry(registry),
            model,
            assoc: Association::default(),
            durability,
            moved: RwLock::new(moved),
            replicator: RwLock::new(None),
        }
    }

    /// The underlying store (tests use this to write out-of-band).
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The durable write path, if one is configured.
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.durability.as_ref()
    }

    /// Configure write replication: every acked write is forwarded to
    /// these replicas (best-effort, after the local ack). Counters land
    /// in `registry` as `serve.replication.*`.
    pub fn set_replicas(&self, addrs: Vec<SocketAddr>, registry: &Registry) {
        *self.replicator.write() = Some(Arc::new(Replicator::new(addrs, registry)));
    }

    /// The replica shipper, when replication is configured.
    pub fn replicator(&self) -> Option<Arc<Replicator>> {
        self.replicator.read().clone()
    }

    /// Current migration tombstones: drained label → owning shard.
    pub fn tombstones(&self) -> HashMap<String, u32> {
        self.moved.read().clone()
    }

    /// Forward one acked write to the replica set, if one is configured.
    fn ship_to_replicas(&self, req: &Request) {
        if let Some(r) = self.replicator.read().clone() {
            r.ship(req);
        }
    }

    /// Eagerly re-derive the model at the current store version. The
    /// background rebuild worker calls this right after hot-swapping an
    /// annotated graph so the first post-swap reader does not pay the
    /// model rebuild on the request path.
    pub fn refresh_model(&self) {
        let _ = self.current_model();
    }

    /// The telemetry handles.
    pub fn metrics(&self) -> &ServeTelemetry {
        &self.metrics
    }

    /// The model for the store's *current* version, rebuilding if a
    /// write moved the version since the last rebuild.
    fn current_model(&self) -> Arc<VersionedModel> {
        let current = self.store.version();
        {
            let guard = self.model.read();
            if guard.version == current {
                return guard.clone();
            }
        }
        let mut guard = self.model.write();
        // Double-check: another worker may have rebuilt while we waited,
        // and the version may have moved again — always rebuild to the
        // version captured atomically with the graph clone.
        if guard.version != self.store.version() {
            let (graph, version) = self.store.read_versioned(GraphHandle::clone);
            *guard = Arc::new(VersionedModel {
                version,
                model: ProbaseModel::new(graph),
            });
        }
        guard.clone()
    }

    /// Handle one request. Returns the store version the answer reflects
    /// plus the payload (or an error to wrap in an error envelope).
    pub fn handle(&self, req: &Request) -> (u64, Result<Json, HandlerError>) {
        match req {
            Request::Ping => (
                self.store.version(),
                Ok(Json::obj(vec![("pong", Json::Bool(true))])),
            ),
            Request::AddEvidence {
                parent,
                child,
                count,
            } => self.add_evidence(parent, child, *count),
            Request::SnapshotLoad { path } => self.snapshot_load(path),
            Request::ExportComponent {
                label,
                drain,
                target,
                labels_only,
            } => self.export_component(label, *drain, *target, *labels_only),
            Request::ImportComponent { source, payload } => self.import_component(*source, payload),
            _ => {
                // A label-keyed read on a migrated-away component must
                // redirect, not answer from pre-migration leftovers. The
                // error is never cached, so lifting the tombstone (a
                // later import back) un-blocks the label immediately.
                if let Some((label, shard)) = self.moved_to(req) {
                    return (
                        self.store.version(),
                        Err((
                            ErrorCode::Moved,
                            format!("{label:?} moved to shard {shard}"),
                        )),
                    );
                }
                let vm = self.current_model();
                let key = req.cache_key();
                if let Some(k) = &key {
                    if let Some(hit) = self.cache.get(k, vm.version) {
                        self.metrics.cache_hit();
                        return (vm.version, Ok(hit));
                    }
                    self.metrics.cache_miss();
                }
                let payload = self.answer(&vm.model, req);
                if let (Some(k), Ok(data)) = (key, &payload) {
                    self.cache.insert(k, vm.version, data.clone());
                }
                (vm.version, payload)
            }
        }
    }

    /// Pure read dispatch against a pinned model.
    fn answer(&self, model: &ProbaseModel, req: &Request) -> Result<Json, HandlerError> {
        let g = model.graph();
        match req {
            Request::Isa { parent, child } => Ok(isa(g, parent, child)),
            Request::Typicality { term, direction, k } => {
                let items = match direction {
                    Direction::Instances => model.typical_instances(term, *k),
                    Direction::Concepts => model.typical_concepts(term, *k),
                };
                Ok(Json::obj(vec![("items", ranked(items))]))
            }
            Request::Plausibility { parent, child } => Ok(direct_edge(g, parent, child)),
            Request::Conceptualize { terms, k } => {
                let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
                Ok(Json::obj(vec![(
                    "items",
                    ranked(model.conceptualize(&refs, *k)),
                )]))
            }
            Request::SearchRewrite { query, k } => {
                let rewrites = rewrite_query(model, &self.assoc, query, 4, *k);
                let arr = rewrites
                    .into_iter()
                    .map(|rw| {
                        Json::obj(vec![
                            ("text", Json::str(rw.text)),
                            (
                                "substitutions",
                                Json::Arr(rw.substitutions.into_iter().map(Json::Str).collect()),
                            ),
                            ("score", Json::num(rw.score)),
                        ])
                    })
                    .collect();
                Ok(Json::obj(vec![("rewrites", Json::Arr(arr))]))
            }
            Request::Stats => {
                let s = GraphStats::compute(g);
                let mut pairs = vec![
                    (
                        "graph",
                        Json::obj(vec![
                            ("concepts", Json::num(s.concepts as f64)),
                            ("instances", Json::num(s.instances as f64)),
                            (
                                "concept_subconcept_pairs",
                                Json::num(s.concept_subconcept_pairs as f64),
                            ),
                            (
                                "concept_instance_pairs",
                                Json::num(s.concept_instance_pairs as f64),
                            ),
                            ("avg_children", Json::num(s.avg_children)),
                            ("avg_parents", Json::num(s.avg_parents)),
                            ("avg_level", Json::num(s.avg_level)),
                            ("max_level", Json::num(s.max_level as f64)),
                        ]),
                    ),
                    ("serve", self.metrics.to_json(self.cache.len())),
                ];
                if let Some(d) = &self.durability {
                    pairs.push(("durability", d.to_json()));
                }
                Ok(Json::obj(pairs))
            }
            Request::Levels { term } => Ok(levels(g, term.as_deref())),
            Request::Labels { kind, k } => Ok(labels(g, *kind, *k)),
            // Handled in `handle`; unreachable here.
            Request::Ping
            | Request::AddEvidence { .. }
            | Request::SnapshotLoad { .. }
            | Request::ExportComponent { .. }
            | Request::ImportComponent { .. } => Err((
                ErrorCode::Internal,
                "write endpoint routed as read".to_string(),
            )),
        }
    }

    fn add_evidence(
        &self,
        parent: &str,
        child: &str,
        count: u32,
    ) -> (u64, Result<Json, HandlerError>) {
        if parent == child {
            return (
                self.store.version(),
                Err((
                    ErrorCode::BadRequest,
                    "parent and child must differ".to_string(),
                )),
            );
        }
        let op = WalOp::AddEvidence {
            parent: parent.to_string(),
            child: child.to_string(),
            count,
        };
        let (result, version) = self.store.update_versioned(|g| {
            // Reject cycles while holding the write lock (a cyclic
            // taxonomy would make `isa` answer true in both directions).
            if creates_label_cycle(g, parent, child) {
                return Err((
                    ErrorCode::BadRequest,
                    format!("edge {parent:?} -> {child:?} would create a cycle"),
                ));
            }
            // Log before mutating: an append failure means the write is
            // not durable, so it must not be acked or applied. Still
            // under the store write lock, so replay order == apply order.
            if let Some(d) = &self.durability {
                if let Err(e) = d.append_op(&op) {
                    return Err((ErrorCode::Internal, e));
                }
            }
            op.apply(g);
            let total = match (g.find_node(parent, 0), g.find_node(child, 0)) {
                (Some(p), Some(c)) => g.edge(p, c).map_or(0, |e| e.count),
                _ => 0,
            };
            Ok(Json::obj(vec![
                ("count", Json::num(total as f64)),
                ("nodes", Json::num(g.node_count() as f64)),
            ]))
        });
        if result.is_ok() {
            self.ship_to_replicas(&Request::AddEvidence {
                parent: parent.to_string(),
                child: child.to_string(),
                count,
            });
        }
        (version, result)
    }

    /// Which shard owns `req`'s label, when that label was drained away.
    fn moved_to(&self, req: &Request) -> Option<(String, u32)> {
        let moved = self.moved.read();
        if moved.is_empty() {
            return None;
        }
        let hit = |l: &String| moved.get(l).map(|&s| (l.clone(), s));
        match req {
            Request::Isa { parent, child } | Request::Plausibility { parent, child } => {
                hit(parent).or_else(|| hit(child))
            }
            Request::Typicality { term, .. } => hit(term),
            Request::Levels { term: Some(term) } => hit(term),
            _ => None,
        }
    }

    /// The `export-component` endpoint. Peek mode (`drain: false`) is an
    /// idempotent read: the connected component of `label` as a sorted
    /// label list, its edge count, and — unless `labels_only` — the
    /// packed (v2) subgraph bytes, base64-encoded for the wire. Drain
    /// mode (`drain: true`, `target` required) journals a drop record,
    /// removes the component from the graph, and tombstones every
    /// removed label so stale readers redirect to `target`. An unknown
    /// label is an empty component, not an error — the router probes
    /// both sides of a bridge write with peeks.
    fn export_component(
        &self,
        label: &str,
        drain: bool,
        target: Option<u32>,
        labels_only: bool,
    ) -> (u64, Result<Json, HandlerError>) {
        if drain {
            let Some(target) = target else {
                return (
                    self.store.version(),
                    Err((
                        ErrorCode::BadRequest,
                        "drain requires a target shard".to_string(),
                    )),
                );
            };
            let labels = self.store.read(|g| component_labels(g, label));
            let (version, result) = self.drain_labels(labels, target);
            if result.is_ok() {
                self.ship_to_replicas(&Request::ExportComponent {
                    label: label.to_string(),
                    drain: true,
                    target: Some(target),
                    labels_only: false,
                });
            }
            return (version, result);
        }
        let (result, version) = self.store.read_versioned(|g| {
            let labels = component_labels(g, label);
            let set: HashSet<String> = labels.iter().cloned().collect();
            let sub = export_component(g, &set);
            let edges = sub.edge_count();
            let mut pairs = vec![
                ("labels", Json::Arr(labels.iter().map(Json::str).collect())),
                ("edges", Json::num(edges as f64)),
            ];
            if !labels_only && !labels.is_empty() {
                let bytes = match pack(&sub) {
                    Ok(b) => b,
                    Err(e) => {
                        return Err((
                            ErrorCode::Internal,
                            format!("cannot pack component of {label:?}: {e}"),
                        ))
                    }
                };
                if bytes.len() > MAX_MIGRATION_PAYLOAD {
                    return Err((
                        ErrorCode::Internal,
                        format!(
                            "component of {label:?} is {} bytes packed, over the {} byte \
                             migration cap — repartition offline instead",
                            bytes.len(),
                            MAX_MIGRATION_PAYLOAD
                        ),
                    ));
                }
                pairs.push(("payload", Json::str(b64_encode(&bytes))));
            }
            Ok(Json::obj(pairs))
        });
        (version, result)
    }

    /// Remove `labels` from this shard: journal a drop record (when
    /// durable), rebuild the graph without them, and tombstone each
    /// label → `target`. Shared by the drain path and the fleet
    /// reconciler ([`ServeState::drop_labels`]).
    fn drain_labels(&self, labels: Vec<String>, target: u32) -> (u64, Result<Json, HandlerError>) {
        if labels.is_empty() {
            // Nothing to drain — idempotent success (a crashed retry may
            // re-ask for a component the first attempt already removed).
            return (
                self.store.version(),
                Ok(Json::obj(vec![
                    ("labels", Json::Arr(Vec::new())),
                    ("dropped_edges", Json::num(0.0)),
                    ("target", Json::num(target as f64)),
                ])),
            );
        }
        let op = WalOp::DropComponent {
            target,
            labels: labels.clone(),
        };
        let (result, version) = self.store.update_versioned(|g| {
            // Log before mutating, same contract as add-evidence: an
            // append failure acks nothing and applies nothing.
            if let Some(d) = &self.durability {
                if let Err(e) = d.append_op(&op) {
                    return Err((ErrorCode::Internal, e));
                }
            }
            let before = g.edge_count();
            op.apply(g);
            Ok(Json::obj(vec![
                ("labels", Json::Arr(labels.iter().map(Json::str).collect())),
                ("dropped_edges", Json::num((before - g.edge_count()) as f64)),
                ("target", Json::num(target as f64)),
            ]))
        });
        if result.is_ok() {
            let mut moved = self.moved.write();
            for l in &labels {
                moved.insert(l.clone(), target);
            }
        }
        (version, result)
    }

    /// Drop `labels` from this shard in favor of `target` — the fleet
    /// reconciler's entry point for healing a crash that left a
    /// component on two shards. Journals and tombstones exactly like a
    /// drain, and ships the drop to replicas.
    pub fn drop_labels(&self, labels: Vec<String>, target: u32) -> Result<(), String> {
        if labels.is_empty() {
            return Ok(());
        }
        let seed = labels[0].clone();
        let (_, result) = self.drain_labels(labels, target);
        match result {
            Ok(_) => {
                self.ship_to_replicas(&Request::ExportComponent {
                    label: seed,
                    drain: true,
                    target: Some(target),
                    labels_only: false,
                });
                Ok(())
            }
            Err((_, detail)) => Err(detail),
        }
    }

    /// The `import-component` endpoint: validate the base64 packed
    /// payload, journal it (when durable — the import record is the
    /// migration's commit point, written *before* the graft so a crash
    /// replays it), and merge the subgraph into this shard's graph with
    /// [`WalOp::apply`], the path WAL replay takes, so a restart rebuilds
    /// the same insertion order. Tombstones on the imported labels are
    /// lifted — the component is home again.
    fn import_component(&self, source: u32, payload: &str) -> (u64, Result<Json, HandlerError>) {
        let Some(bytes) = b64_decode(payload) else {
            return (
                self.store.version(),
                Err((
                    ErrorCode::BadRequest,
                    "payload is not valid base64".to_string(),
                )),
            );
        };
        let packed = match PackedGraph::from_vec(bytes.clone()) {
            Ok(p) => p,
            Err(e) => {
                return (
                    self.store.version(),
                    Err((
                        ErrorCode::BadRequest,
                        format!("payload is not a packed snapshot: {e}"),
                    )),
                )
            }
        };
        let labels: Vec<String> = packed
            .nodes()
            .map(|n| packed.label(n).to_string())
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        let op = WalOp::ImportComponent {
            source,
            labels: labels.clone(),
            payload: bytes,
        };
        let (result, version) = self.store.update_versioned(|g| {
            if let Some(d) = &self.durability {
                if let Err(e) = d.append_op(&op) {
                    return Err((ErrorCode::Internal, e));
                }
            }
            op.apply(g);
            Ok(Json::obj(vec![
                ("merged_nodes", Json::num(packed.node_count() as f64)),
                ("merged_edges", Json::num(packed.edge_count() as f64)),
                ("nodes", Json::num(g.node_count() as f64)),
            ]))
        });
        if result.is_ok() {
            {
                let mut moved = self.moved.write();
                for l in &labels {
                    moved.remove(l);
                }
            }
            self.ship_to_replicas(&Request::ImportComponent {
                source,
                payload: payload.to_string(),
            });
        }
        (version, result)
    }

    fn snapshot_load(&self, path: &str) -> (u64, Result<Json, HandlerError>) {
        // A replicated shard must not wholesale-replace its graph out
        // from under the ship stream: replicas would silently diverge
        // from the primary on every later write.
        if self.replicator.read().is_some() {
            return (
                self.store.version(),
                Err((
                    ErrorCode::BadRequest,
                    "snapshot-load is disabled on a replicated shard".to_string(),
                )),
            );
        }
        // Without a durability directory there is no sandbox root, and a
        // network endpoint that reads whatever path a client names is an
        // arbitrary-file oracle — so the endpoint is simply off.
        let Some(d) = &self.durability else {
            return (
                self.store.version(),
                Err((
                    ErrorCode::BadRequest,
                    "snapshot-load is disabled: server started without a snapshot directory"
                        .to_string(),
                )),
            );
        };
        let resolved = match d.resolve(path) {
            Ok(p) => p,
            Err(e) => return (self.store.version(), Err((ErrorCode::BadRequest, e))),
        };
        let bytes = match std::fs::read(&resolved) {
            Ok(b) => b,
            Err(e) => {
                return (
                    self.store.version(),
                    Err((ErrorCode::Internal, format!("cannot read {path:?}: {e}"))),
                )
            }
        };
        // Validate the bytes already read rather than reopening the
        // path: a FIFO cannot be read twice, and a file replaced between
        // two opens would load a different graph than the one read.
        let graph = match PackedGraph::from_vec(bytes) {
            Ok(p) => p,
            Err(e) => {
                return (
                    self.store.version(),
                    Err((ErrorCode::Internal, format!("cannot decode {path:?}: {e}"))),
                )
            }
        };
        let nodes = graph.node_count();
        let edges = graph.edge_count();
        // Rebase: checkpoint the loaded bytes unchanged and rotate the
        // log inside the swap, so stale pre-load WAL entries can never
        // replay over the loaded state after a crash. The store serves
        // the graph packed until a write thaws it.
        match d.rebase(&self.store, graph) {
            Ok(version) => (
                version,
                Ok(Json::obj(vec![
                    ("nodes", Json::num(nodes as f64)),
                    ("edges", Json::num(edges as f64)),
                ])),
            ),
            Err(e) => (self.store.version(), Err((ErrorCode::Internal, e))),
        }
    }
}

/// Would adding `parent -> child` create a cycle at the *label* level?
///
/// A node-level ancestor check is not enough once a label has several
/// senses: with `a#0 → b#0` and `b#1 → c#0`, adding `c → a` closes the
/// label cycle a ⊐ b ⊐ c ⊐ a even though no NodeId path does — and the
/// `isa` endpoint, which unions senses, would then answer true in both
/// directions. Walk the label graph upward from `parent`, collapsing
/// every sense of each label reached; reject when `child` shows up.
fn creates_label_cycle(g: &ConceptGraph, parent: &str, child: &str) -> bool {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut stack: Vec<NodeId> = g.senses_of(parent);
    seen.insert(parent);
    while let Some(n) = stack.pop() {
        for (p, _) in g.parents(n) {
            let label = g.label(p);
            if label == child {
                return true;
            }
            if seen.insert(label) {
                stack.extend(g.senses_of(label));
            }
        }
    }
    false
}

fn ranked(items: Vec<(String, f64)>) -> Json {
    Json::Arr(
        items
            .into_iter()
            .map(|(label, score)| Json::Arr(vec![Json::Str(label), Json::num(score)]))
            .collect(),
    )
}

/// Transitive isA over all sense pairs, plus the best direct edge.
fn isa(g: &GraphHandle, parent: &str, child: &str) -> Json {
    let parents: Vec<NodeId> = g.senses_of(parent);
    let children: Vec<NodeId> = g.senses_of(child);
    let mut is_a = false;
    let mut direct = false;
    let mut count = 0u32;
    let mut plausibility = 0.0f64;
    if !parents.is_empty() && !children.is_empty() {
        let parent_set: HashSet<NodeId> = parents.iter().copied().collect();
        for &c in &children {
            if ancestors(g, c).iter().any(|a| parent_set.contains(a)) {
                is_a = true;
                break;
            }
        }
        for &p in &parents {
            for &c in &children {
                if let Some(e) = g.edge(p, c) {
                    direct = true;
                    is_a = true;
                    if e.count > count {
                        count = e.count;
                        plausibility = e.plausibility;
                    }
                }
            }
        }
    }
    Json::obj(vec![
        ("isa", Json::Bool(is_a)),
        ("direct", Json::Bool(direct)),
        ("count", Json::num(count as f64)),
        ("plausibility", Json::num(plausibility)),
    ])
}

/// The best direct edge between any sense pair.
fn direct_edge(g: &GraphHandle, parent: &str, child: &str) -> Json {
    let mut found = false;
    let mut count = 0u32;
    let mut plausibility = 0.0f64;
    for &p in &g.senses_of(parent) {
        for &c in &g.senses_of(child) {
            if let Some(e) = g.edge(p, c) {
                if !found || e.count > count {
                    count = e.count;
                    plausibility = e.plausibility;
                }
                found = true;
            }
        }
    }
    Json::obj(vec![
        ("found", Json::Bool(found)),
        ("count", Json::num(count as f64)),
        ("plausibility", Json::num(plausibility)),
    ])
}

fn levels(g: &GraphHandle, term: Option<&str>) -> Json {
    let map = LevelMap::compute(g);
    match term {
        None => {
            let concepts: Vec<NodeId> = g.concepts().collect();
            let avg = if concepts.is_empty() {
                0.0
            } else {
                concepts.iter().map(|&c| map.level(c) as f64).sum::<f64>() / concepts.len() as f64
            };
            Json::obj(vec![
                ("max_level", Json::num(map.max_level() as f64)),
                ("avg_level", Json::num(avg)),
                ("concepts", Json::num(concepts.len() as f64)),
                (
                    "instances",
                    Json::num((g.node_count() - concepts.len()) as f64),
                ),
            ])
        }
        Some(t) => {
            let senses = g
                .senses_of(t)
                .into_iter()
                .map(|n| {
                    Json::obj(vec![
                        ("sense", Json::num(g.sense(n) as f64)),
                        ("level", Json::num(map.level(n) as f64)),
                        ("is_instance", Json::Bool(g.is_instance(n))),
                    ])
                })
                .collect();
            Json::obj(vec![("term", Json::str(t)), ("senses", Json::Arr(senses))])
        }
    }
}

/// Deduplicated labels in byte order, truncated to `k`. Sorting before
/// truncating (rather than emitting the first `k` in node order) makes
/// the answer independent of insertion history — and therefore
/// shardable: the sorted-merge of per-shard top-`k` slices equals the
/// global top-`k`, which node order can never guarantee.
fn labels(g: &GraphHandle, kind: LabelKind, k: usize) -> Json {
    let mut seen = HashSet::new();
    let mut all: Vec<&str> = Vec::new();
    let nodes: Vec<NodeId> = match kind {
        LabelKind::Concepts => g.concepts().collect(),
        LabelKind::Instances => g.instances().collect(),
    };
    for n in nodes {
        let label = g.label(n);
        if seen.insert(label) {
            all.push(label);
        }
    }
    all.sort_unstable();
    all.truncate(k);
    Json::obj(vec![(
        "labels",
        Json::Arr(all.into_iter().map(Json::str).collect()),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityConfig;
    use probase_store::WalSync;
    use std::path::{Path, PathBuf};

    /// country ⊃ {bric country ⊃ {China, India, Brazil, Russia}}, plus USA.
    fn seeded_graph() -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let country = g.ensure_node("country", 0);
        let bric = g.ensure_node("bric country", 0);
        let china = g.ensure_node("China", 0);
        let india = g.ensure_node("India", 0);
        let brazil = g.ensure_node("Brazil", 0);
        let russia = g.ensure_node("Russia", 0);
        let usa = g.ensure_node("USA", 0);
        g.add_evidence(country, bric, 3);
        g.add_evidence(country, china, 20);
        g.add_evidence(country, india, 15);
        g.add_evidence(country, brazil, 10);
        g.add_evidence(country, usa, 30);
        g.add_evidence(bric, china, 5);
        g.add_evidence(bric, india, 5);
        g.add_evidence(bric, brazil, 5);
        g.add_evidence(bric, russia, 5);
        g
    }

    fn seeded_state() -> ServeState {
        ServeState::new(SharedStore::new(seeded_graph()), 256, 4)
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("probase-router-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A seeded state with the durable write path enabled (no background
    /// triggers — these tests drive everything synchronously).
    fn durable_state(dir: &Path) -> ServeState {
        let store = SharedStore::new(seeded_graph());
        let registry = Arc::new(Registry::new());
        let cfg = DurabilityConfig {
            snapshot_dir: dir.to_path_buf(),
            wal_sync: WalSync::Always,
            rebuild_after_writes: 0,
            rebuild_interval: None,
        };
        let d = Durability::open(&cfg, &store, &registry).expect("durability opens");
        ServeState::with_durability(store, 256, 4, registry, Some(Arc::new(d)))
    }

    fn ok(state: &ServeState, req: Request) -> (u64, Json) {
        let (v, r) = state.handle(&req);
        (v, r.expect("handler succeeds"))
    }

    #[test]
    fn ping_reports_version() {
        let s = seeded_state();
        let (v, data) = ok(&s, Request::Ping);
        assert_eq!(v, 0);
        assert_eq!(data.get("pong").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn isa_direct_and_transitive() {
        let s = seeded_state();
        let (_, d) = ok(
            &s,
            Request::Isa {
                parent: "country".into(),
                child: "China".into(),
            },
        );
        assert_eq!(d.get("isa").and_then(Json::as_bool), Some(true));
        assert_eq!(d.get("direct").and_then(Json::as_bool), Some(true));
        assert_eq!(d.get("count").and_then(Json::as_u64), Some(20));
        // Russia is under country only via bric country.
        let (_, d) = ok(
            &s,
            Request::Isa {
                parent: "country".into(),
                child: "Russia".into(),
            },
        );
        assert_eq!(d.get("isa").and_then(Json::as_bool), Some(true));
        assert_eq!(d.get("direct").and_then(Json::as_bool), Some(false));
        let (_, d) = ok(
            &s,
            Request::Isa {
                parent: "China".into(),
                child: "country".into(),
            },
        );
        assert_eq!(d.get("isa").and_then(Json::as_bool), Some(false));
        let (_, d) = ok(
            &s,
            Request::Isa {
                parent: "country".into(),
                child: "wombat".into(),
            },
        );
        assert_eq!(d.get("isa").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn typicality_both_directions() {
        let s = seeded_state();
        let (_, d) = ok(
            &s,
            Request::Typicality {
                term: "country".into(),
                direction: Direction::Instances,
                k: 3,
            },
        );
        let items = d.get("items").and_then(Json::as_arr).unwrap();
        assert_eq!(items[0].as_arr().unwrap()[0].as_str(), Some("USA"));
        let (_, d) = ok(
            &s,
            Request::Typicality {
                term: "China".into(),
                direction: Direction::Concepts,
                k: 5,
            },
        );
        let items = d.get("items").and_then(Json::as_arr).unwrap();
        assert!(!items.is_empty());
        // Unknown terms are an empty answer, not a protocol error.
        let (_, d) = ok(
            &s,
            Request::Typicality {
                term: "wombat".into(),
                direction: Direction::Instances,
                k: 5,
            },
        );
        assert_eq!(
            d.get("items").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn conceptualize_and_stats_and_levels_and_labels() {
        let s = seeded_state();
        let (_, d) = ok(
            &s,
            Request::Conceptualize {
                terms: vec!["China".into(), "India".into()],
                k: 3,
            },
        );
        assert!(!d.get("items").and_then(Json::as_arr).unwrap().is_empty());

        let (_, d) = ok(&s, Request::Stats);
        assert_eq!(
            d.get("graph")
                .unwrap()
                .get("concepts")
                .and_then(Json::as_u64),
            Some(2)
        );
        assert!(d.get("serve").unwrap().get("cache").is_some());

        let (_, d) = ok(&s, Request::Levels { term: None });
        assert_eq!(d.get("max_level").and_then(Json::as_u64), Some(2));
        let (_, d) = ok(
            &s,
            Request::Levels {
                term: Some("bric country".into()),
            },
        );
        let senses = d.get("senses").and_then(Json::as_arr).unwrap();
        assert_eq!(senses[0].get("level").and_then(Json::as_u64), Some(1));

        let (_, d) = ok(
            &s,
            Request::Labels {
                kind: LabelKind::Concepts,
                k: 10,
            },
        );
        let labels = d.get("labels").and_then(Json::as_arr).unwrap();
        assert_eq!(labels.len(), 2);
        let (_, d) = ok(
            &s,
            Request::Labels {
                kind: LabelKind::Instances,
                k: 3,
            },
        );
        assert_eq!(
            d.get("labels").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn plausibility_direct_edge_only() {
        let s = seeded_state();
        let (_, d) = ok(
            &s,
            Request::Plausibility {
                parent: "country".into(),
                child: "USA".into(),
            },
        );
        assert_eq!(d.get("found").and_then(Json::as_bool), Some(true));
        assert_eq!(d.get("count").and_then(Json::as_u64), Some(30));
        let (_, d) = ok(
            &s,
            Request::Plausibility {
                parent: "country".into(),
                child: "Russia".into(),
            },
        );
        assert_eq!(d.get("found").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn search_rewrite_substitutes_instances() {
        let s = seeded_state();
        let (_, d) = ok(
            &s,
            Request::SearchRewrite {
                query: "country exports".into(),
                k: 4,
            },
        );
        let rewrites = d.get("rewrites").and_then(Json::as_arr).unwrap();
        assert!(!rewrites.is_empty());
        let first = rewrites[0].get("text").and_then(Json::as_str).unwrap();
        assert!(first.contains("exports"), "{first:?}");
        assert!(
            !first.contains("country"),
            "concept should be substituted: {first:?}"
        );
    }

    #[test]
    fn write_bumps_version_and_invalidates() {
        let s = seeded_state();
        let req = Request::Typicality {
            term: "country".into(),
            direction: Direction::Instances,
            k: 10,
        };
        let (v0, first) = ok(&s, req.clone());
        assert_eq!(v0, 0);
        // Second identical request is a cache hit at the same version.
        let hits_before = s.metrics().cache_hits_total();
        let (_, second) = ok(&s, req.clone());
        assert_eq!(first, second);
        assert_eq!(s.metrics().cache_hits_total(), hits_before + 1);

        // A write moves the version; the next read reflects the new edge.
        let (v1, d) = ok(
            &s,
            Request::AddEvidence {
                parent: "country".into(),
                child: "Atlantis".into(),
                count: 999,
            },
        );
        assert_eq!(v1, 1);
        assert_eq!(d.get("nodes").and_then(Json::as_u64), Some(8));
        let (v2, after) = ok(&s, req);
        assert_eq!(v2, 1);
        let items = after.get("items").and_then(Json::as_arr).unwrap();
        assert_eq!(
            items[0].as_arr().unwrap()[0].as_str(),
            Some("Atlantis"),
            "{items:?}"
        );
    }

    #[test]
    fn add_evidence_rejects_cycles_and_self_edges() {
        let s = seeded_state();
        let (_, r) = s.handle(&Request::AddEvidence {
            parent: "China".into(),
            child: "country".into(),
            count: 1,
        });
        let (code, _) = r.expect_err("cycle must be rejected");
        assert_eq!(code, ErrorCode::BadRequest);
        let (_, r) = s.handle(&Request::AddEvidence {
            parent: "country".into(),
            child: "country".into(),
            count: 1,
        });
        assert!(r.is_err());
        // The graph still answers levels (no cycle crept in).
        let (_, r) = s.handle(&Request::Levels { term: None });
        assert!(r.is_ok());
    }

    /// Regression: a node-level ancestor walk misses cycles that only
    /// close once senses are collapsed (a#0 → b#0, b#1 → c#0: no NodeId
    /// path from c up to a, but `isa` would report a ⊐ c *and* c ⊐ a).
    #[test]
    fn add_evidence_rejects_cross_sense_label_cycles() {
        let mut g = ConceptGraph::new();
        let a0 = g.ensure_node("a", 0);
        let b0 = g.ensure_node("b", 0);
        let b1 = g.ensure_node("b", 1);
        let c0 = g.ensure_node("c", 0);
        g.add_evidence(a0, b0, 1);
        g.add_evidence(b1, c0, 1);
        let s = ServeState::new(SharedStore::new(g), 16, 1);
        let (_, r) = s.handle(&Request::AddEvidence {
            parent: "c".into(),
            child: "a".into(),
            count: 1,
        });
        let (code, _) = r.expect_err("label-level cycle must be rejected");
        assert_eq!(code, ErrorCode::BadRequest);
        // The safe direction is still writable.
        let (_, r) = s.handle(&Request::AddEvidence {
            parent: "a".into(),
            child: "c".into(),
            count: 1,
        });
        assert!(r.is_ok(), "forward edge is not a cycle: {r:?}");
    }

    #[test]
    fn snapshot_load_without_durability_is_disabled() {
        let s = seeded_state();
        let (_, r) = s.handle(&Request::SnapshotLoad {
            path: "x.pb".into(),
        });
        let (code, detail) = r.expect_err("endpoint must be off");
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("disabled"), "{detail:?}");
        assert_eq!(
            s.store().version(),
            0,
            "rejected load must not bump the version"
        );
    }

    #[test]
    fn snapshot_load_is_sandboxed_to_the_snapshot_dir() {
        let dir = tempdir("sandbox");
        let s = durable_state(&dir);
        for path in ["/etc/passwd", "../escape.pb", "sub/../../escape.pb"] {
            let (_, r) = s.handle(&Request::SnapshotLoad { path: path.into() });
            let (code, _) = r.expect_err("escaping path must be rejected");
            assert_eq!(code, ErrorCode::BadRequest, "{path:?}");
        }
        // A relative path that stays inside but does not exist is an
        // internal error (the old missing-file contract, sandboxed).
        let (_, r) = s.handle(&Request::SnapshotLoad {
            path: "nonexistent.pb".into(),
        });
        let (code, detail) = r.expect_err("missing file");
        assert_eq!(code, ErrorCode::Internal);
        assert!(detail.contains("cannot read"), "{detail:?}");
    }

    #[test]
    fn snapshot_load_round_trips_through_the_sandbox() {
        let dir = tempdir("load");
        let s = durable_state(&dir);
        let mut g = ConceptGraph::new();
        let animal = g.ensure_node("animal", 0);
        let cat = g.ensure_node("cat", 0);
        g.add_evidence(animal, cat, 4);
        std::fs::write(dir.join("fresh.pb"), pack(&g).unwrap()).unwrap();
        let (v, r) = s.handle(&Request::SnapshotLoad {
            path: "fresh.pb".into(),
        });
        let data = r.expect("load succeeds");
        assert!(v > 0, "load bumps the version");
        assert_eq!(data.get("nodes").and_then(Json::as_u64), Some(2));
        let (_, d) = s.handle(&Request::Isa {
            parent: "animal".into(),
            child: "cat".into(),
        });
        let d = d.unwrap();
        assert_eq!(d.get("isa").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn snapshot_load_serves_packed_and_checkpoints_the_file_unchanged() {
        let dir = tempdir("load-packed");
        let s = durable_state(&dir);
        let mut g = ConceptGraph::new();
        let animal = g.ensure_node("animal", 0);
        for (child, n) in [("cat", 4), ("dog", 2)] {
            let c = g.ensure_node(child, 0);
            g.add_evidence(animal, c, n);
        }
        let file = pack(&g).unwrap().to_vec();
        std::fs::write(dir.join("fresh.pb"), &file).unwrap();
        let (_, r) = s.handle(&Request::SnapshotLoad {
            path: "fresh.pb".into(),
        });
        r.expect("load succeeds");
        assert!(s.store().is_packed(), "the load must not thaw the graph");

        let checkpoints: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("snapshot-") && name.ends_with(".pb")
            })
            .collect();
        assert_eq!(checkpoints.len(), 1, "{checkpoints:?}");
        assert_eq!(std::fs::read(&checkpoints[0]).unwrap(), file);

        let queries = [
            Request::Typicality {
                term: "animal".into(),
                direction: Direction::Instances,
                k: 5,
            },
            Request::Isa {
                parent: "animal".into(),
                child: "dog".into(),
            },
        ];
        let before: Vec<Json> = queries.iter().map(|q| ok(&s, q.clone()).1).collect();
        drop(s);
        let restarted = durable_state(&dir);
        let after: Vec<Json> = queries
            .iter()
            .map(|q| ok(&restarted, q.clone()).1)
            .collect();
        assert_eq!(before, after, "a restart answers as the loaded graph did");
    }

    fn label_list(d: &Json) -> Vec<String> {
        d.get("labels")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|l| l.as_str().map(str::to_string))
            .collect()
    }

    /// Satellite regression: `labels` answers in byte order with the
    /// truncation applied *after* the sort, so the answer no longer
    /// depends on node-insertion history (and per-shard top-k slices
    /// merge to the global top-k).
    #[test]
    fn labels_answer_in_byte_order_regardless_of_insertion() {
        let mut g = ConceptGraph::new();
        let zebra = g.ensure_node("zebra", 0);
        let animal = g.ensure_node("animal", 0);
        let mammal = g.ensure_node("mammal", 0);
        let cat = g.ensure_node("cat", 0);
        g.add_evidence(animal, mammal, 1);
        g.add_evidence(mammal, cat, 1);
        g.add_evidence(animal, zebra, 1);
        let s = ServeState::new(SharedStore::new(g), 16, 1);
        let (_, d) = ok(
            &s,
            Request::Labels {
                kind: LabelKind::Concepts,
                k: 10,
            },
        );
        assert_eq!(label_list(&d), ["animal", "mammal"]);
        // "zebra" was inserted first, but "cat" sorts first — the k=1
        // slice must be the sorted prefix, not the insertion prefix.
        let (_, d) = ok(
            &s,
            Request::Labels {
                kind: LabelKind::Instances,
                k: 1,
            },
        );
        assert_eq!(label_list(&d), ["cat"]);
    }

    #[test]
    fn export_drain_import_round_trips_a_component() {
        let s = seeded_state();
        // Peek: idempotent read of the component, labels byte-sorted.
        let (_, d) = ok(
            &s,
            Request::ExportComponent {
                label: "country".into(),
                drain: false,
                target: None,
                labels_only: false,
            },
        );
        assert_eq!(
            label_list(&d),
            [
                "Brazil",
                "China",
                "India",
                "Russia",
                "USA",
                "bric country",
                "country"
            ]
        );
        assert_eq!(d.get("edges").and_then(Json::as_u64), Some(9));
        let payload = d.get("payload").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(s.store().version(), 0, "peek is a read");
        // labels_only skips the packing work.
        let (_, d) = ok(
            &s,
            Request::ExportComponent {
                label: "country".into(),
                drain: false,
                target: None,
                labels_only: true,
            },
        );
        assert!(d.get("payload").is_none());
        // An unknown label is an empty component, not an error.
        let (_, d) = ok(
            &s,
            Request::ExportComponent {
                label: "wombat".into(),
                drain: false,
                target: None,
                labels_only: false,
            },
        );
        assert!(label_list(&d).is_empty());
        assert!(d.get("payload").is_none());

        // Import into a fresh shard: the component comes up whole.
        let dst = ServeState::new(SharedStore::new(ConceptGraph::new()), 16, 1);
        let (_, d) = ok(
            &dst,
            Request::ImportComponent {
                source: 0,
                payload: payload.clone(),
            },
        );
        assert_eq!(d.get("merged_nodes").and_then(Json::as_u64), Some(7));
        assert_eq!(d.get("merged_edges").and_then(Json::as_u64), Some(9));
        let (_, d) = ok(
            &dst,
            Request::Isa {
                parent: "country".into(),
                child: "Russia".into(),
            },
        );
        assert_eq!(d.get("isa").and_then(Json::as_bool), Some(true));

        // Drain the source: the component is gone and label reads
        // redirect to the new owner instead of answering empty.
        let (_, d) = ok(
            &s,
            Request::ExportComponent {
                label: "country".into(),
                drain: true,
                target: Some(2),
                labels_only: false,
            },
        );
        assert_eq!(d.get("dropped_edges").and_then(Json::as_u64), Some(9));
        let redirected = [
            Request::Typicality {
                term: "country".into(),
                direction: Direction::Instances,
                k: 3,
            },
            Request::Isa {
                parent: "country".into(),
                child: "Russia".into(),
            },
            Request::Plausibility {
                parent: "bric country".into(),
                child: "China".into(),
            },
            Request::Levels {
                term: Some("USA".into()),
            },
        ];
        for req in &redirected {
            let (_, r) = s.handle(req);
            let (code, detail) = r.expect_err("tombstoned label must redirect");
            assert_eq!(code, ErrorCode::Moved);
            assert!(detail.ends_with("moved to shard 2"), "{detail:?}");
        }
        // Whole-graph reads still answer (they see the drained graph).
        let (_, r) = s.handle(&Request::Levels { term: None });
        assert!(r.is_ok());
        // A second drain of the same label is an idempotent no-op.
        let (_, d) = ok(
            &s,
            Request::ExportComponent {
                label: "country".into(),
                drain: true,
                target: Some(2),
                labels_only: false,
            },
        );
        assert_eq!(d.get("dropped_edges").and_then(Json::as_u64), Some(0));

        // Importing the component back lifts the tombstones.
        let (_, _) = ok(&s, Request::ImportComponent { source: 2, payload });
        let (_, d) = ok(
            &s,
            Request::Typicality {
                term: "country".into(),
                direction: Direction::Instances,
                k: 3,
            },
        );
        let items = d.get("items").and_then(Json::as_arr).unwrap();
        assert_eq!(items[0].as_arr().unwrap()[0].as_str(), Some("USA"));
        assert!(s.tombstones().is_empty());
    }

    #[test]
    fn import_rejects_garbage_payloads() {
        let s = seeded_state();
        let (_, r) = s.handle(&Request::ImportComponent {
            source: 1,
            payload: "!!!not base64!!!".into(),
        });
        assert_eq!(r.expect_err("bad base64").0, ErrorCode::BadRequest);
        let (_, r) = s.handle(&Request::ImportComponent {
            source: 1,
            payload: crate::proto::b64_encode(b"not a packed snapshot"),
        });
        assert_eq!(r.expect_err("bad snapshot").0, ErrorCode::BadRequest);
        assert_eq!(s.store().version(), 0, "rejected imports apply nothing");
    }

    /// Crash-consistency of the migration records: an import replays
    /// after a restart, a drain replays *and re-arms its tombstones*,
    /// and the durability bookkeeping (`imported_labels`) survives for
    /// the fleet reconciler.
    #[test]
    fn migration_ops_replay_and_reseed_tombstones_after_restart() {
        let dir = tempdir("migrate");
        let (payload, before) = {
            let s = durable_state(&dir);
            // pet→cat is journaled before animal→cat, but animal has the
            // lower id: the packed payload's rows list animal→cat first.
            let mut g = ConceptGraph::new();
            let animal = g.ensure_node("animal", 0);
            let pet = g.ensure_node("pet", 0);
            let cat = g.ensure_node("cat", 0);
            g.add_evidence(pet, cat, 2);
            g.add_evidence(animal, cat, 4);
            let payload = crate::proto::b64_encode(&pack(&g).unwrap());
            ok(
                &s,
                Request::ImportComponent {
                    source: 3,
                    payload: payload.clone(),
                },
            );
            let imported = s.durability().unwrap().imported_labels();
            assert!(imported.contains_key("animal") && imported.contains_key("cat"));
            let before = s.store().read(|g| g.to_packed_bytes().unwrap());
            (payload, before)
            // Drop without a checkpoint: the import must replay.
        };
        {
            let s = durable_state(&dir);
            assert_eq!(
                s.store().read(|g| g.to_packed_bytes().unwrap()),
                before,
                "replaying the import rebuilds the live graph byte for byte"
            );
            let (_, d) = ok(
                &s,
                Request::Isa {
                    parent: "animal".into(),
                    child: "cat".into(),
                },
            );
            assert_eq!(d.get("isa").and_then(Json::as_bool), Some(true));
            assert!(
                s.durability()
                    .unwrap()
                    .imported_labels()
                    .contains_key("cat"),
                "import record survives the restart"
            );
            // Drain it away again, then "crash".
            ok(
                &s,
                Request::ExportComponent {
                    label: "cat".into(),
                    drain: true,
                    target: Some(1),
                    labels_only: false,
                },
            );
            let (_, r) = s.handle(&Request::Typicality {
                term: "cat".into(),
                direction: Direction::Concepts,
                k: 3,
            });
            assert_eq!(r.expect_err("drained").0, ErrorCode::Moved);
        }
        {
            let s = durable_state(&dir);
            // The drop replayed: the component is gone and the tombstone
            // is re-armed from the WAL, so stale readers still redirect.
            let (_, r) = s.handle(&Request::Typicality {
                term: "cat".into(),
                direction: Direction::Concepts,
                k: 3,
            });
            let (code, detail) = r.expect_err("tombstone survives restart");
            assert_eq!(code, ErrorCode::Moved);
            assert!(detail.ends_with("moved to shard 1"), "{detail:?}");
            assert!(s.durability().unwrap().imported_labels().is_empty());
            // The original data is untouched.
            let (_, d) = ok(
                &s,
                Request::Isa {
                    parent: "country".into(),
                    child: "China".into(),
                },
            );
            assert_eq!(d.get("isa").and_then(Json::as_bool), Some(true));
            // And the component can come home: import lifts everything.
            ok(&s, Request::ImportComponent { source: 1, payload });
            let (_, r) = s.handle(&Request::Typicality {
                term: "cat".into(),
                direction: Direction::Concepts,
                k: 3,
            });
            assert!(r.is_ok());
        }
    }

    #[test]
    fn durable_add_evidence_appends_to_the_wal() {
        let dir = tempdir("wal");
        let s = durable_state(&dir);
        let d = s.durability().expect("configured").clone();
        assert_eq!(d.wal_appends_total(), 0);
        let (_, r) = s.handle(&Request::AddEvidence {
            parent: "country".into(),
            child: "Atlantis".into(),
            count: 2,
        });
        r.expect("write succeeds");
        assert_eq!(d.wal_appends_total(), 1);
        assert_eq!(d.pending_writes(), 1);
        // Rejected writes must not reach the log.
        let (_, r) = s.handle(&Request::AddEvidence {
            parent: "China".into(),
            child: "country".into(),
            count: 1,
        });
        assert!(r.is_err());
        assert_eq!(d.wal_appends_total(), 1, "rejected write not logged");
        // The stats dump now carries the durability section.
        let (_, stats) = s.handle(&Request::Stats);
        let stats = stats.unwrap();
        let wal = stats.get("durability").unwrap().get("wal").unwrap();
        assert_eq!(wal.get("appends").and_then(Json::as_u64), Some(1));
    }
}
