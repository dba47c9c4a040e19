//! Durable write path: evidence WAL, crash recovery, and background
//! rebuild.
//!
//! The paper's taxonomy is persistent — §2's iterative extraction grows
//! Γ across runs, and the serving layer of §5.3 fronts a store that
//! survives restarts. Before this module, `add-evidence` mutated the
//! in-memory [`SharedStore`] only: a crash threw away every acked write.
//! Durability closes that hole with a classic snapshot + write-ahead-log
//! protocol built on [`probase_store::wal`]:
//!
//! * **Logging.** Every `add-evidence` appends a [`WalEntry`] (with a
//!   *global monotone index*) to the current log generation before the
//!   store mutation is acked. The fsync policy is a [`WalSync`] knob:
//!   `Always` makes an ack imply the record is on disk, `EveryN`
//!   amortizes the fsync over batches, `Os` leaves it to the page cache.
//! * **Checkpoints.** Snapshot files are named
//!   `snapshot-<seq>-<upto>.pb`: generation `seq`, covering every write
//!   with index < `upto`. Log files are `wal-<seq>.log`. Checkpoints
//!   are in the **packed (v2)** zero-copy format
//!   ([`probase_store::packed`]), the only graph encoding. A checkpoint
//!   in the retired v1 format makes open fail with an error naming the
//!   file and the upgrade path, rather than being skipped as torn.
//! * **Recovery.** On open: load the newest valid snapshot — it is
//!   validated and `mmap`ed straight into a [`GraphHandle::Packed`] with
//!   **no per-edge decode**, so restart cost is page-cache population
//!   rather than deserialization (and sibling shards of one host share
//!   those pages) — then union the records of *all* log
//!   generations, deduplicate by index, and replay exactly the suffix
//!   the snapshot does not already contain (stopping at a gap). The
//!   first replayed record thaws a packed base into the mutable
//!   representation; a clean restart (empty WAL suffix) never pays that
//!   cost. A crash anywhere between checkpoint persist and log rotation
//!   therefore neither loses nor double-applies a write. Recovery
//!   finishes by writing a fresh checkpoint and rotating to a new log
//!   generation, so the directory is always one snapshot + one active
//!   log plus whatever a crash left behind. `serve.startup.*` metrics
//!   (packed_open counter, recovery_ms / snapshot_bytes gauges) record
//!   whether a checkpoint was opened and what recovery cost.
//! * **Incremental rebuild.** Acked writes carry raw counts only; the
//!   derived plausibility annotations go stale. The rebuild worker
//!   (triggered after N writes or T seconds — see [`DurabilityConfig`])
//!   treats the WAL as a real-time evidence stream: a **fold cursor**
//!   marks how far the stream has been consumed, and each cycle folds
//!   only the un-consumed suffix — shifting a persistent edge-count
//!   histogram ([`probase_taxonomy::shift_count_histogram`]), refitting
//!   the urns model from that histogram
//!   ([`UrnsModel::fit_histogram`]), and rewriting only the edges whose
//!   plausibility actually changed
//!   ([`probase_prob::annotate_graph_urns_touched`]). Each WAL record is
//!   decoded into the fold exactly once; records an earlier cycle
//!   already consumed are counted as skips, never re-read. A checkpoint
//!   (snapshot encode under the read lock, rotation under the WAL
//!   mutex) then bounds replay. The old path cloned the graph, refit
//!   over every edge count, and re-annotated every edge on every
//!   trigger — O(graph) per cycle instead of O(delta).
//!
//! Lock order everywhere is **store lock → WAL mutex**; the WAL mutex is
//! never held while acquiring a store lock (taking it alone is fine).

use crate::json::Json;
use probase_obs::{Counter, Gauge, Histogram, Registry};
use probase_prob::{annotate_graph_urns_touched, UrnsModel};
use probase_store::sync::Mutex;
use probase_store::wal::{read_wal, WalEntry, WalOp, WalSync, WalWriter};
use probase_store::{
    GraphHandle, NodeId, PackedGraph, PackedOpenError, SharedStore, SnapshotError,
};
use probase_taxonomy::{count_histogram, shift_count_histogram};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::Write;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for the durable write path (`ServeConfig::durability`).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding checkpoints and log generations. Created on
    /// open; also the sandbox root for `snapshot-load` paths.
    pub snapshot_dir: PathBuf,
    /// When WAL appends reach disk (see [`WalSync`]).
    pub wal_sync: WalSync,
    /// Rebuild after this many acked writes; `0` disables the
    /// write-count trigger.
    pub rebuild_after_writes: u64,
    /// Rebuild when the oldest un-checkpointed write is this old;
    /// `None` disables the timer trigger.
    pub rebuild_interval: Option<Duration>,
}

impl DurabilityConfig {
    /// Defaults for a directory: fsync every ack, rebuild after 1024
    /// writes or once a minute.
    pub fn new(snapshot_dir: impl Into<PathBuf>) -> Self {
        Self {
            snapshot_dir: snapshot_dir.into(),
            wal_sync: WalSync::Always,
            rebuild_after_writes: 1024,
            rebuild_interval: Some(Duration::from_secs(60)),
        }
    }
}

/// Append-side state, guarded by one mutex (acquired *after* the store
/// lock, never before).
#[derive(Debug)]
struct WalInner {
    writer: WalWriter,
    /// Current log generation.
    seq: u64,
    /// Index the next record will carry (global, never reused).
    next_index: u64,
    /// In-memory copy of the current generation's records (plus any
    /// older records the fold cursor has not consumed yet), so the
    /// incremental fold never re-reads a log file.
    mirror: Vec<WalEntry>,
    /// Index of the next record the incremental fold will consume.
    /// Everything below it is already reflected in `hist` and in the
    /// graph's plausibility annotations.
    fold_cursor: u64,
    /// Edge-count histogram of the store's graph (`count → edges`),
    /// maintained by [`shift_count_histogram`] as folds consume the
    /// stream. Sufficient statistic for the urns refit — the model is
    /// refit from here without rescanning the graph.
    hist: BTreeMap<u32, u64>,
    /// Set after an append error: the file may hold a torn record, so
    /// further writes are refused until a restart re-runs recovery.
    poisoned: bool,
}

/// What one incremental fold pass did (see [`Durability::fold_incremental`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldReport {
    /// WAL records consumed (the cursor advanced past them).
    pub records: u64,
    /// Mirror records passed over because an earlier fold already
    /// consumed them.
    pub skipped: u64,
    /// Edges whose plausibility changed bitwise under the refit model.
    pub edges_refit: u64,
}

/// The durable write path: owns the WAL, the checkpoint files, and the
/// rebuild bookkeeping. One per server; shared via `Arc` with the
/// router (append path) and the rebuild worker.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    sync: WalSync,
    rebuild_after_writes: u64,
    rebuild_interval: Option<Duration>,
    wal: Mutex<WalInner>,
    /// Labels this shard imported via component migration, mapped to the
    /// WAL index of the import record — populated both at replay and at
    /// ack time, erased when a later drop drains the label away. The
    /// fleet reconciler uses this to decide which shard won a component
    /// when a crash interrupted a migration between import and drain.
    migrations: Mutex<HashMap<String, u64>>,
    /// Labels a drop record drained *off* this shard, mapped to the
    /// shard that received them — the durable side of the serving
    /// layer's migration tombstones. Re-populated from the WAL at
    /// replay so a restarted shard keeps redirecting stale readers
    /// instead of answering empty.
    dropped: Mutex<HashMap<String, u32>>,
    /// Acked writes not yet covered by a checkpoint.
    pending: AtomicU64,
    last_rebuild: Mutex<Instant>,
    wal_appends: Arc<Counter>,
    wal_syncs: Arc<Counter>,
    wal_replayed: Arc<Counter>,
    wal_rotations: Arc<Counter>,
    wal_append_errors: Arc<Counter>,
    rebuild_runs: Arc<Counter>,
    rebuild_failures: Arc<Counter>,
    rebuild_folded: Arc<Counter>,
    rebuild_snapshots: Arc<Counter>,
    rebuild_skipped: Arc<Counter>,
    rebuild_duration: Arc<Histogram>,
    inc_folds: Arc<Counter>,
    inc_records: Arc<Counter>,
    inc_edges_refit: Arc<Counter>,
    inc_model_refits: Arc<Counter>,
    startup_packed_open: Arc<Counter>,
    startup_recovery_ms: Arc<Gauge>,
    startup_snapshot_bytes: Arc<Gauge>,
}

fn parse_snapshot_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("snapshot-")?.strip_suffix(".pb")?;
    let (seq, upto) = rest.split_once('-')?;
    Some((seq.parse().ok()?, upto.parse().ok()?))
}

fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Write a checkpoint durably: temp file, fsync, rename, fsync the
/// directory. Returns the final path.
fn write_snapshot_file(dir: &Path, seq: u64, upto: u64, bytes: &[u8]) -> Result<PathBuf, String> {
    let tmp = dir.join(format!("snapshot-{seq}-{upto}.pb.tmp"));
    let fin = dir.join(format!("snapshot-{seq}-{upto}.pb"));
    let io = (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &fin)?;
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    io.map_err(|e| format!("cannot write snapshot {}: {e}", fin.display()))?;
    Ok(fin)
}

/// Best-effort removal of generations older than `keep_seq` (and stray
/// temp files). Only called after a newer checkpoint is durably in
/// place, so losing these files can no longer lose a write.
fn prune(dir: &Path, keep_seq: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match (parse_snapshot_name(name), parse_wal_name(name)) {
            (Some((seq, _)), _) => seq < keep_seq,
            (_, Some(seq)) => seq < keep_seq,
            _ => name.ends_with(".pb.tmp"),
        };
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl Durability {
    /// Open (creating if necessary) the durability directory, run crash
    /// recovery, and install the recovered graph into `store`.
    ///
    /// Recovery: newest decodable checkpoint → base graph; union of all
    /// log generations, deduplicated by index, replayed in order from
    /// the checkpoint's coverage up to the first gap. Finishes with a
    /// fresh checkpoint + log rotation so acked state is consolidated.
    pub fn open(
        cfg: &DurabilityConfig,
        store: &SharedStore,
        registry: &Registry,
    ) -> Result<Self, String> {
        let started = Instant::now();
        let dir = cfg.snapshot_dir.clone();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create snapshot dir {}: {e}", dir.display()))?;

        // Scan the directory for checkpoint and log generations.
        let mut snaps: Vec<(u64, u64, PathBuf)> = Vec::new();
        let mut wals: Vec<PathBuf> = Vec::new();
        let mut max_seq = 0u64;
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read snapshot dir {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((seq, upto)) = parse_snapshot_name(name) {
                max_seq = max_seq.max(seq);
                snaps.push((seq, upto, entry.path()));
            } else if let Some(seq) = parse_wal_name(name) {
                max_seq = max_seq.max(seq);
                wals.push(entry.path());
            }
        }

        // Newest valid checkpoint wins; corrupt ones are skipped so a
        // torn checkpoint degrades to replaying a longer log suffix. The
        // winner is validated and mmapped in place: the node table, CSR
        // adjacency, and string arena are then served straight from the
        // page cache — no per-edge decode, and sibling shards on one host
        // share the cached pages of their region files.
        snaps.sort_by_key(|&(seq, upto, _)| std::cmp::Reverse((upto, seq)));
        let mut base: Option<(GraphHandle, u64)> = None;
        for (_, upto, path) in &snaps {
            match PackedGraph::open(path) {
                Ok(p) => {
                    base = Some((GraphHandle::Packed(p), *upto));
                    break;
                }
                // Skipping a v1 checkpoint as torn would fall back to an
                // empty base plus a WAL that gap-stops: silent data loss.
                Err(PackedOpenError::Snapshot(SnapshotError::LegacyNotPacked)) => {
                    return Err(format!(
                        "checkpoint {} is in the retired v1 snapshot format, which this \
                         build no longer reads; start a release that still reads v1 once \
                         on {} (its recovery re-checkpoints the directory as packed), \
                         then restart this build",
                        path.display(),
                        dir.display()
                    ));
                }
                Err(_) => {}
            }
        }
        let recovered_snapshot = base.is_some();
        let (mut handle, upto) = base.unwrap_or_else(|| (store.clone_handle(), 0));

        // Union every log generation's records; dedup + gap-stop below.
        let mut all: Vec<WalEntry> = Vec::new();
        for path in &wals {
            if let Ok(read) = read_wal(path) {
                all.extend(read.entries);
            }
        }
        all.sort_by_key(|e| e.index);
        let mut expected = upto;
        let mut replayed = 0u64;
        let mut migrations: HashMap<String, u64> = HashMap::new();
        let mut dropped: HashMap<String, u32> = HashMap::new();
        for e in &all {
            if e.index < expected {
                continue; // covered by the checkpoint, or a duplicate
            }
            if e.index > expected {
                break; // gap: the log holding this range is gone
            }
            // The first un-covered record thaws a packed base; a clean
            // packed restart (empty suffix) never reaches this line.
            let (g, _) = handle.make_mutable();
            e.op.apply(g);
            match &e.op {
                WalOp::ImportComponent { labels, .. } => {
                    for l in labels {
                        migrations.insert(l.clone(), e.index);
                        dropped.remove(l);
                    }
                }
                WalOp::DropComponent { target, labels } => {
                    for l in labels {
                        migrations.remove(l);
                        dropped.insert(l.clone(), *target);
                    }
                }
                WalOp::AddEvidence { .. } => {}
            }
            expected += 1;
            replayed += 1;
        }

        // Consolidate: one fresh checkpoint + one fresh log generation,
        // in the packed format. For an unreplayed packed base this is a
        // verbatim byte copy of the validated snapshot, not a re-encode.
        let newseq = max_seq + 1;
        let bytes = handle
            .to_packed_bytes()
            .map_err(|e| format!("cannot encode recovery snapshot: {e}"))?;
        write_snapshot_file(&dir, newseq, expected, &bytes)?;
        let wal_path = dir.join(format!("wal-{newseq}.log"));
        let writer = WalWriter::create(&wal_path, newseq, cfg.wal_sync)
            .map_err(|e| format!("cannot create wal {}: {e}", wal_path.display()))?;
        prune(&dir, newseq);

        // Seed the fold state from the recovered graph: the histogram is
        // the graph's current edge counts (a contiguous CSR walk on a
        // packed base), the cursor sits at the end of the replayed
        // stream.
        let hist = count_histogram(&handle);
        let snapshot_bytes = bytes.len();
        if recovered_snapshot || replayed > 0 {
            store.swap_snapshot(handle);
        }

        let d = Self {
            dir,
            sync: cfg.wal_sync,
            rebuild_after_writes: cfg.rebuild_after_writes,
            rebuild_interval: cfg.rebuild_interval,
            wal: Mutex::new(WalInner {
                writer,
                seq: newseq,
                next_index: expected,
                mirror: Vec::new(),
                fold_cursor: expected,
                hist,
                poisoned: false,
            }),
            migrations: Mutex::new(migrations),
            dropped: Mutex::new(dropped),
            pending: AtomicU64::new(0),
            last_rebuild: Mutex::new(Instant::now()),
            wal_appends: registry.counter("serve.wal.appends"),
            wal_syncs: registry.counter("serve.wal.syncs"),
            wal_replayed: registry.counter("serve.wal.replayed"),
            wal_rotations: registry.counter("serve.wal.rotations"),
            wal_append_errors: registry.counter("serve.wal.append_errors"),
            rebuild_runs: registry.counter("serve.rebuild.runs"),
            rebuild_failures: registry.counter("serve.rebuild.failures"),
            rebuild_folded: registry.counter("serve.rebuild.folded_writes"),
            rebuild_snapshots: registry.counter("serve.rebuild.snapshots_written"),
            rebuild_skipped: registry.counter("serve.rebuild.skipped_records"),
            rebuild_duration: registry.histogram("serve.rebuild.duration_us"),
            inc_folds: registry.counter("serve.rebuild.incremental.folds"),
            inc_records: registry.counter("serve.rebuild.incremental.records_folded"),
            inc_edges_refit: registry.counter("serve.rebuild.incremental.edges_refit"),
            inc_model_refits: registry.counter("serve.rebuild.incremental.model_refits"),
            startup_packed_open: registry.counter("serve.startup.packed_open"),
            startup_recovery_ms: registry.gauge("serve.startup.recovery_ms"),
            startup_snapshot_bytes: registry.gauge("serve.startup.snapshot_bytes"),
        };
        d.wal_replayed.add(replayed);
        d.wal_rotations.inc();
        d.rebuild_snapshots.inc();
        if recovered_snapshot {
            d.startup_packed_open.inc();
        }
        d.startup_recovery_ms
            .set(started.elapsed().as_millis() as i64);
        d.startup_snapshot_bytes.set(snapshot_bytes as i64);
        Ok(d)
    }

    /// The sandbox root for `snapshot-load` and home of the log files.
    pub fn snapshot_dir(&self) -> &Path {
        &self.dir
    }

    /// Resolve a client-supplied `snapshot-load` path inside the
    /// sandbox. Absolute paths and any non-plain component (`..`, `.`,
    /// prefixes) are rejected — the serving layer must not become an
    /// arbitrary-file read oracle.
    pub fn resolve(&self, requested: &str) -> Result<PathBuf, String> {
        let path = Path::new(requested);
        if requested.is_empty() || path.is_absolute() {
            return Err(format!(
                "snapshot path {requested:?} must be relative to the snapshot directory"
            ));
        }
        for component in path.components() {
            match component {
                Component::Normal(_) => {}
                _ => {
                    return Err(format!(
                        "snapshot path {requested:?} escapes the snapshot directory"
                    ))
                }
            }
        }
        Ok(self.dir.join(path))
    }

    /// Append one durable operation to the log, returning the WAL index
    /// it was assigned. Called by the router *while holding the store
    /// write lock*, before the caller applies the same op with
    /// [`WalOp::apply`]: an `Err` means nothing was acked and nothing
    /// may be applied. Migration records additionally maintain the
    /// imported-labels map the fleet reconciler consults after a crash.
    pub fn append_op(&self, op: &WalOp) -> Result<u64, String> {
        let mut inner = self.wal.lock();
        if inner.poisoned {
            return Err(
                "write-ahead log failed earlier; writes disabled until restart".to_string(),
            );
        }
        let entry = WalEntry {
            index: inner.next_index,
            op: op.clone(),
        };
        match inner.writer.append(&entry) {
            Ok(synced) => {
                let index = entry.index;
                inner.next_index += 1;
                match &entry.op {
                    WalOp::ImportComponent { labels, .. } => {
                        let mut m = self.migrations.lock();
                        let mut dr = self.dropped.lock();
                        for l in labels {
                            m.insert(l.clone(), index);
                            dr.remove(l);
                        }
                    }
                    WalOp::DropComponent { target, labels } => {
                        let mut m = self.migrations.lock();
                        let mut dr = self.dropped.lock();
                        for l in labels {
                            m.remove(l);
                            dr.insert(l.clone(), *target);
                        }
                    }
                    WalOp::AddEvidence { .. } => {}
                }
                inner.mirror.push(entry);
                self.wal_appends.inc();
                if synced {
                    self.wal_syncs.inc();
                }
                self.pending.fetch_add(1, Ordering::Relaxed);
                Ok(index)
            }
            Err(e) => {
                // The file may now hold a torn record; appending past it
                // would corrupt the scan for everything after. Fail
                // stop: recovery on restart truncates the torn tail.
                inner.poisoned = true;
                self.wal_append_errors.inc();
                Err(format!("wal append failed: {e}"))
            }
        }
    }

    /// Whether a rebuild is due (write-count or timer trigger).
    pub fn should_rebuild(&self) -> bool {
        let pending = self.pending.load(Ordering::Relaxed);
        if pending == 0 {
            return false;
        }
        if self.rebuild_after_writes > 0 && pending >= self.rebuild_after_writes {
            return true;
        }
        match self.rebuild_interval {
            Some(interval) => self.last_rebuild.lock().elapsed() >= interval,
            None => false,
        }
    }

    /// Whether any background trigger is configured (the server only
    /// spawns the rebuild worker when one is).
    pub fn has_background_trigger(&self) -> bool {
        self.rebuild_after_writes > 0 || self.rebuild_interval.is_some()
    }

    /// Fold the un-consumed WAL suffix into the live graph, in place:
    /// shift the edge-count histogram by the delta each record added,
    /// refit the urns model from the histogram, and rewrite only the
    /// edges whose plausibility changed bitwise. Advances the fold
    /// cursor so every record is consumed exactly once; records an
    /// earlier pass already consumed are counted as skips, never
    /// re-decoded.
    ///
    /// Runs under the store write lock (readers wait for the O(delta)
    /// shift + O(edges) changed-bits scan, not for a clone or an
    /// encode); a no-op when the cursor is already at the stream head —
    /// then the store version is not bumped and caches stay warm.
    pub fn fold_incremental(&self, store: &SharedStore) -> FoldReport {
        // Cheap emptiness probe off the store lock (taking the WAL mutex
        // alone respects the store → WAL order).
        {
            let inner = self.wal.lock();
            if inner.fold_cursor >= inner.next_index {
                return FoldReport::default();
            }
        }
        store.update(|g| {
            let mut inner = self.wal.lock();
            let cursor = inner.fold_cursor;
            if cursor >= inner.next_index {
                return FoldReport::default(); // raced with another fold
            }
            // The mirror is index-sorted; the prefix below the cursor
            // was folded by an earlier pass and is only retained until
            // the next rotation.
            let start = inner.mirror.partition_point(|e| e.index < cursor);
            let skipped = start as u64;
            // Migration records restructure the graph wholesale (grafts
            // and removals were applied to the store at ack time, not
            // deferred to the fold), so an incremental histogram shift
            // cannot describe them. When the suffix holds one, consume
            // the whole suffix and re-derive the histogram from the live
            // graph instead of shifting — same O(edges) as the refit
            // scan that follows, and bit-identical to a fresh restart.
            let structural = inner.mirror[start..]
                .iter()
                .any(|e| !matches!(e.op, WalOp::AddEvidence { .. }));
            let mut records = 0u64;
            if structural {
                records = inner.mirror[start..].len() as u64;
                inner.hist = count_histogram(&*g);
            } else {
                // Group the suffix by edge so a multi-record burst on one
                // edge shifts its histogram bucket once, by the total
                // delta.
                let mut by_edge: BTreeMap<(String, String), u32> = BTreeMap::new();
                for e in &inner.mirror[start..] {
                    if let WalOp::AddEvidence {
                        parent,
                        child,
                        count,
                    } = &e.op
                    {
                        *by_edge.entry((parent.clone(), child.clone())).or_insert(0) += *count;
                    }
                    records += 1;
                }
                let touched: Vec<((NodeId, NodeId), u32)> = by_edge
                    .iter()
                    .filter_map(|((p, c), &delta)| {
                        let pn = g.find_node(p, 0)?;
                        let cn = g.find_node(c, 0)?;
                        Some(((pn, cn), delta))
                    })
                    .collect();
                shift_count_histogram(g, touched, &mut inner.hist);
            }
            let next = inner.next_index;
            let edges_refit = if inner.hist.values().any(|&w| w > 0) {
                let model = UrnsModel::fit_histogram(&inner.hist, 200);
                self.inc_model_refits.inc();
                annotate_graph_urns_touched(g, &model) as u64
            } else {
                0
            };
            inner.fold_cursor = next;
            self.inc_folds.inc();
            self.inc_records.add(records);
            self.inc_edges_refit.add(edges_refit);
            self.rebuild_skipped.add(skipped);
            FoldReport {
                records,
                skipped,
                edges_refit,
            }
        })
    }

    /// One rebuild cycle: incrementally fold the pending WAL suffix into
    /// the live graph (histogram shift + urns refit + changed-edge
    /// annotation — see [`Durability::fold_incremental`]), then
    /// checkpoint and rotate the log. Returns the number of writes that
    /// raced past the checkpoint capture (carried into the new
    /// generation), or `Ok(None)` when a concurrent `snapshot-load`
    /// superseded the captured state.
    pub fn rebuild(&self, store: &SharedStore) -> Result<Option<u64>, String> {
        let started = Instant::now();
        // Phase A: consume the evidence stream. The graph is annotated
        // in place and the store version bumps, so the serving model
        // refreshes without a snapshot swap.
        self.fold_incremental(store);

        // Phase B: checkpoint. Capture bytes + coverage atomically
        // (store read lock, then the WAL mutex — the canonical order);
        // writers wait for the encode, readers do not. Checkpoints are
        // packed (v2): the next open mmaps them with no per-edge decode.
        let (encoded, upto, cap_seq) = store.read(|g| {
            let inner = self.wal.lock();
            (g.to_packed_bytes(), inner.next_index, inner.seq)
        });
        let bytes = encoded.map_err(|e| {
            self.rebuild_failures.inc();
            format!("cannot encode rebuild snapshot: {e}")
        })?;
        let newseq = cap_seq + 1;
        let tmp = self.dir.join(format!("snapshot-{newseq}-{upto}.pb.tmp"));
        let fin = self.dir.join(format!("snapshot-{newseq}-{upto}.pb"));
        if let Err(e) = std::fs::write(&tmp, &bytes).and_then(|()| File::open(&tmp)?.sync_all()) {
            self.rebuild_failures.inc();
            return Err(format!("cannot write {}: {e}", tmp.display()));
        }

        // Commit: rotate the log under the WAL mutex alone — the fold
        // already applied every record to the graph, so no store lock is
        // needed. The checkpoint rename happens *after* — safe, because
        // until the old generations are pruned the union of old
        // checkpoint + old log + new log still reconstructs every write.
        let raced = {
            let mut inner = self.wal.lock();
            if inner.seq != cap_seq {
                drop(inner);
                let _ = std::fs::remove_file(&tmp);
                return Ok(None); // superseded; the rebase checkpointed for us
            }
            // Records the checkpoint covers but the fold has not
            // consumed yet must stay in the mirror (they still owe a
            // histogram shift); only records past the checkpoint also
            // go into the new log generation.
            let keep_from = inner.fold_cursor.min(upto);
            let mirror: Vec<WalEntry> = inner
                .mirror
                .iter()
                .filter(|e| e.index >= keep_from)
                .cloned()
                .collect();
            let wal_path = self.dir.join(format!("wal-{newseq}.log"));
            let commit = (|| -> Result<WalWriter, String> {
                let mut writer = WalWriter::create(&wal_path, newseq, self.sync)
                    .map_err(|e| format!("cannot rotate wal: {e}"))?;
                for e in mirror.iter().filter(|e| e.index >= upto) {
                    writer
                        .append(e)
                        .map_err(|e2| format!("cannot carry delta into new wal: {e2}"))?;
                }
                writer
                    .sync()
                    .map_err(|e2| format!("cannot sync rotated wal: {e2}"))?;
                Ok(writer)
            })();
            let writer = match commit {
                Ok(w) => w,
                Err(err) => {
                    drop(inner);
                    self.rebuild_failures.inc();
                    let _ = std::fs::remove_file(&tmp);
                    let _ = std::fs::remove_file(&wal_path);
                    return Err(err);
                }
            };
            let raced = mirror.iter().filter(|e| e.index >= upto).count() as u64;
            inner.writer = writer;
            inner.seq = newseq;
            inner.mirror = mirror;
            self.pending.store(0, Ordering::Relaxed);
            raced
        };

        if let Err(e) = std::fs::rename(&tmp, &fin) {
            // The rotation already happened; the write set is still
            // fully recoverable from the previous checkpoint plus both
            // log generations, so just report and skip the prune.
            self.rebuild_failures.inc();
            return Err(format!("cannot publish {}: {e}", fin.display()));
        }
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        prune(&self.dir, newseq);
        *self.last_rebuild.lock() = Instant::now();
        self.rebuild_runs.inc();
        self.rebuild_folded.add(raced);
        self.rebuild_snapshots.inc();
        self.wal_rotations.inc();
        self.rebuild_duration.record_duration(started.elapsed());
        Ok(Some(raced))
    }

    /// Durably replace the whole taxonomy (the `snapshot-load`
    /// endpoint) with a validated packed graph: write its bytes unchanged
    /// as the checkpoint and rotate to an empty log *inside* the store
    /// write lock, so the ack implies the loaded state survives a crash
    /// and stale log entries can never be replayed over it. The store
    /// serves the graph packed. Returns the post-swap store version.
    pub fn rebase(&self, store: &SharedStore, graph: PackedGraph) -> Result<u64, String> {
        let mut err: Option<String> = None;
        let version = store.swap_snapshot_if(graph, |g| {
            let mut inner = self.wal.lock();
            if inner.poisoned {
                err = Some("write-ahead log failed earlier; writes disabled".to_string());
                return false;
            }
            let newseq = inner.seq + 1;
            let upto = inner.next_index;
            // Rotate the log before publishing the checkpoint: if the
            // rename below fails, disk still reconstructs the *old*
            // state, matching the store we are about to leave untouched.
            let wal_path = self.dir.join(format!("wal-{newseq}.log"));
            let writer = match WalWriter::create(&wal_path, newseq, self.sync) {
                Ok(w) => w,
                Err(e) => {
                    err = Some(format!("cannot rotate wal: {e}"));
                    return false;
                }
            };
            match write_snapshot_file(&self.dir, newseq, upto, g.as_bytes()) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    let _ = std::fs::remove_file(&wal_path);
                    return false;
                }
            }
            inner.writer = writer;
            inner.seq = newseq;
            inner.mirror.clear();
            // The loaded graph replaces everything the fold state
            // described: rebuild the histogram from it and park the
            // cursor at the stream head.
            inner.hist = count_histogram(g);
            inner.fold_cursor = inner.next_index;
            self.pending.store(0, Ordering::Relaxed);
            true
        });
        match version {
            Some(v) => {
                // The loaded snapshot supersedes any half-finished
                // migration bookkeeping along with the graph itself.
                self.migrations.lock().clear();
                self.dropped.lock().clear();
                let keep = self.wal.lock().seq;
                prune(&self.dir, keep);
                *self.last_rebuild.lock() = Instant::now();
                self.wal_rotations.inc();
                self.rebuild_snapshots.inc();
                Ok(v)
            }
            None => Err(err.unwrap_or_else(|| "snapshot rebase aborted".to_string())),
        }
    }

    /// Flush batched appends (rotation and shutdown call this so
    /// `WalSync::EveryN` never leaves acked records unsynced at exit).
    pub fn sync_all(&self) {
        let mut inner = self.wal.lock();
        if !inner.poisoned {
            let _ = inner.writer.sync();
        }
    }

    /// Acked writes not yet covered by a checkpoint.
    pub fn pending_writes(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Labels this shard imported via component migration that have not
    /// since been drained away, with the WAL index of the import record.
    /// The fleet reconciler treats an entry here as proof this shard
    /// won the component (the importer journals before the drainer
    /// drops, so after a crash between the two, exactly the importing
    /// side still holds a record).
    pub fn imported_labels(&self) -> HashMap<String, u64> {
        self.migrations.lock().clone()
    }

    /// Labels drained off this shard by drop records still present in
    /// the replayable WAL suffix, with the shard that received them.
    /// The serving layer seeds its migration tombstones from this at
    /// startup so redirects survive a restart (until a checkpoint
    /// retires the drop record — by then the routing layer has
    /// converged on the new owner).
    pub fn dropped_labels(&self) -> HashMap<String, u32> {
        self.dropped.lock().clone()
    }

    /// WAL appends so far.
    pub fn wal_appends_total(&self) -> u64 {
        self.wal_appends.get()
    }

    /// WAL fsyncs so far.
    pub fn wal_syncs_total(&self) -> u64 {
        self.wal_syncs.get()
    }

    /// Records replayed by recovery at open.
    pub fn wal_replayed_total(&self) -> u64 {
        self.wal_replayed.get()
    }

    /// Completed background rebuilds.
    pub fn rebuild_runs_total(&self) -> u64 {
        self.rebuild_runs.get()
    }

    /// Failed rebuild attempts.
    pub fn rebuild_failures_total(&self) -> u64 {
        self.rebuild_failures.get()
    }

    /// Incremental fold passes that consumed at least the cursor check.
    pub fn incremental_folds_total(&self) -> u64 {
        self.inc_folds.get()
    }

    /// WAL records consumed by incremental folds (each exactly once).
    pub fn incremental_records_total(&self) -> u64 {
        self.inc_records.get()
    }

    /// Already-consumed mirror records passed over by later folds.
    pub fn skipped_records_total(&self) -> u64 {
        self.rebuild_skipped.get()
    }

    /// Packed (v2) checkpoints opened zero-copy by recovery (0 or 1).
    pub fn packed_opens_total(&self) -> u64 {
        self.startup_packed_open.get()
    }

    /// Wall-clock milliseconds recovery took at open.
    pub fn recovery_ms(&self) -> i64 {
        self.startup_recovery_ms.get()
    }

    /// Size in bytes of the consolidated checkpoint recovery wrote.
    pub fn startup_snapshot_bytes(&self) -> i64 {
        self.startup_snapshot_bytes.get()
    }

    /// The durability section of the `stats` endpoint dump.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "wal",
                Json::obj(vec![
                    ("appends", Json::num(self.wal_appends.get() as f64)),
                    ("syncs", Json::num(self.wal_syncs.get() as f64)),
                    ("replayed", Json::num(self.wal_replayed.get() as f64)),
                    ("rotations", Json::num(self.wal_rotations.get() as f64)),
                    (
                        "append_errors",
                        Json::num(self.wal_append_errors.get() as f64),
                    ),
                    ("pending", Json::num(self.pending_writes() as f64)),
                ]),
            ),
            (
                "rebuild",
                Json::obj(vec![
                    ("runs", Json::num(self.rebuild_runs.get() as f64)),
                    ("failures", Json::num(self.rebuild_failures.get() as f64)),
                    ("folded_writes", Json::num(self.rebuild_folded.get() as f64)),
                    (
                        "snapshots_written",
                        Json::num(self.rebuild_snapshots.get() as f64),
                    ),
                    (
                        "skipped_records",
                        Json::num(self.rebuild_skipped.get() as f64),
                    ),
                    ("mean_duration_us", Json::num(self.rebuild_duration.mean())),
                ]),
            ),
            (
                "incremental",
                Json::obj(vec![
                    ("folds", Json::num(self.inc_folds.get() as f64)),
                    ("records_folded", Json::num(self.inc_records.get() as f64)),
                    ("edges_refit", Json::num(self.inc_edges_refit.get() as f64)),
                    (
                        "model_refits",
                        Json::num(self.inc_model_refits.get() as f64),
                    ),
                ]),
            ),
            (
                "startup",
                Json::obj(vec![
                    (
                        "packed_open",
                        Json::num(self.startup_packed_open.get() as f64),
                    ),
                    (
                        "recovery_ms",
                        Json::num(self.startup_recovery_ms.get() as f64),
                    ),
                    (
                        "snapshot_bytes",
                        Json::num(self.startup_snapshot_bytes.get() as f64),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probase_store::{pack, ConceptGraph};

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("probase-dur-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seeded_store() -> SharedStore {
        let mut g = ConceptGraph::new();
        let country = g.ensure_node("country", 0);
        for (label, count) in [("China", 8u32), ("India", 5)] {
            let n = g.ensure_node(label, 0);
            g.add_evidence(country, n, count);
        }
        SharedStore::new(g)
    }

    fn cfg(dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            snapshot_dir: dir.to_path_buf(),
            wal_sync: WalSync::Always,
            rebuild_after_writes: 0,
            rebuild_interval: None,
        }
    }

    /// Mimic the router's write path: log first, then mutate the store.
    fn write_through(d: &Durability, store: &SharedStore, parent: &str, child: &str, count: u32) {
        let op = WalOp::AddEvidence {
            parent: parent.to_string(),
            child: child.to_string(),
            count,
        };
        d.append_op(&op).expect("append");
        store.update(|g| op.apply(g));
    }

    fn edge_count(store: &SharedStore, parent: &str, child: &str) -> Option<u32> {
        store.read(|g| {
            let p = g.find_node(parent, 0)?;
            let c = g.find_node(child, 0)?;
            g.edge(p, c).map(|e| e.count)
        })
    }

    #[test]
    fn fresh_open_checkpoints_the_seed_graph() {
        let dir = tempdir("fresh");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        assert_eq!(store.version(), 0, "nothing recovered, no swap");
        assert_eq!(d.wal_replayed_total(), 0);
        assert!(dir.join("snapshot-1-0.pb").exists());
        assert!(dir.join("wal-1.log").exists());
    }

    #[test]
    fn acked_writes_replay_after_reopen() {
        let dir = tempdir("replay");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        write_through(&d, &store, "country", "Brazil", 7);
        write_through(&d, &store, "country", "Japan", 2);
        assert_eq!(d.wal_appends_total(), 2);
        assert_eq!(d.pending_writes(), 2);
        drop((d, store)); // no checkpoint — simulates an abrupt exit

        let store2 = seeded_store();
        let d2 = Durability::open(&cfg(&dir), &store2, &Registry::new()).unwrap();
        assert_eq!(d2.wal_replayed_total(), 2);
        assert_eq!(edge_count(&store2, "country", "Brazil"), Some(7));
        assert_eq!(edge_count(&store2, "country", "Japan"), Some(2));
        // Recovery consolidated into generation 2 covering both writes.
        assert!(dir.join("snapshot-2-2.pb").exists());
        assert!(dir.join("wal-2.log").exists());
        assert!(!dir.join("wal-1.log").exists(), "old generation pruned");
    }

    #[test]
    fn snapshot_coverage_is_not_double_applied() {
        let dir = tempdir("dedup");
        // Hand-craft a crash between checkpoint persist and log
        // rotation: the checkpoint covers entries 0 and 1, and the only
        // log generation still holds entries 0..4.
        let mut covered = ConceptGraph::new();
        let a = covered.ensure_node("a", 0);
        let b = covered.ensure_node("b", 0);
        covered.add_evidence(a, b, 2); // entries 0 and 1, one count each
        let bytes = pack(&covered).unwrap();
        std::fs::write(dir.join("snapshot-2-2.pb"), &bytes).unwrap();
        let mut w = WalWriter::create(&dir.join("wal-1.log"), 1, WalSync::Always).unwrap();
        for index in 0..4u64 {
            w.append(&WalEntry {
                index,
                op: WalOp::AddEvidence {
                    parent: "a".to_string(),
                    child: "b".to_string(),
                    count: 1,
                },
            })
            .unwrap();
        }
        drop(w);

        let store = SharedStore::new(ConceptGraph::new());
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        assert_eq!(d.wal_replayed_total(), 2, "only the uncovered suffix");
        assert_eq!(
            edge_count(&store, "a", "b"),
            Some(4),
            "2 covered + 2 replayed"
        );
    }

    #[test]
    fn a_gap_stops_replay() {
        let dir = tempdir("gap");
        let mut w = WalWriter::create(&dir.join("wal-1.log"), 1, WalSync::Always).unwrap();
        for index in [0u64, 1, 3] {
            w.append(&WalEntry {
                index,
                op: WalOp::AddEvidence {
                    parent: "a".to_string(),
                    child: "b".to_string(),
                    count: 1,
                },
            })
            .unwrap();
        }
        drop(w);
        let store = SharedStore::new(ConceptGraph::new());
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        assert_eq!(d.wal_replayed_total(), 2, "stop before the missing index 2");
        assert_eq!(edge_count(&store, "a", "b"), Some(2));
    }

    #[test]
    fn resolve_sandboxes_snapshot_paths() {
        let dir = tempdir("sandbox");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        assert_eq!(d.resolve("x.pb").unwrap(), dir.join("x.pb"));
        assert_eq!(d.resolve("sub/x.pb").unwrap(), dir.join("sub/x.pb"));
        assert!(d.resolve("/etc/passwd").is_err());
        assert!(d.resolve("../x.pb").is_err());
        assert!(d.resolve("sub/../../x.pb").is_err());
        assert!(d.resolve("").is_err());
    }

    #[test]
    fn rebuild_checkpoints_annotates_and_rotates() {
        let dir = tempdir("rebuild");
        let store = seeded_store();
        let registry = Registry::new();
        let d = Durability::open(&cfg(&dir), &store, &registry).unwrap();
        write_through(&d, &store, "country", "Brazil", 7);
        write_through(&d, &store, "country", "Japan", 2);
        let v_before = store.version();

        let folded = d.rebuild(&store).expect("rebuild succeeds");
        assert_eq!(folded, Some(0), "no writes landed during the rebuild");
        assert!(store.version() > v_before, "hot swap bumps the version");
        assert_eq!(d.pending_writes(), 0);
        assert_eq!(d.rebuild_runs_total(), 1);
        assert!(dir.join("snapshot-2-2.pb").exists());
        assert!(dir.join("wal-2.log").exists());
        assert!(!dir.join("wal-1.log").exists(), "old generation pruned");
        // The swapped graph carries fresh plausibility annotations.
        let annotated = store.read(|g| {
            let p = g.find_node("country", 0).unwrap();
            let c = g.find_node("Brazil", 0).unwrap();
            g.edge(p, c).unwrap().plausibility
        });
        assert!(annotated > 0.0, "urns model annotated the new edge");

        // The checkpoint alone now reconstructs everything.
        let store2 = seeded_store();
        let d2 = Durability::open(&cfg(&dir), &store2, &Registry::new()).unwrap();
        assert_eq!(d2.wal_replayed_total(), 0, "log was empty after rotation");
        assert_eq!(edge_count(&store2, "country", "Brazil"), Some(7));
    }

    #[test]
    fn rebase_rotates_and_supersedes_old_log() {
        let dir = tempdir("rebase");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        write_through(&d, &store, "country", "Brazil", 7);

        let mut fresh = ConceptGraph::new();
        let animal = fresh.ensure_node("animal", 0);
        let cat = fresh.ensure_node("cat", 0);
        fresh.add_evidence(animal, cat, 3);
        let fresh = PackedGraph::from_bytes(pack(&fresh).unwrap()).unwrap();
        let v = d.rebase(&store, fresh).expect("rebase succeeds");
        assert!(v > 0);
        assert_eq!(edge_count(&store, "animal", "cat"), Some(3));
        assert_eq!(edge_count(&store, "country", "Brazil"), None);

        // Reopen: the rebased state is what recovers; the pre-rebase
        // write must NOT leak back in.
        let store2 = SharedStore::new(ConceptGraph::new());
        let d2 = Durability::open(&cfg(&dir), &store2, &Registry::new()).unwrap();
        assert_eq!(d2.wal_replayed_total(), 0);
        assert_eq!(edge_count(&store2, "animal", "cat"), Some(3));
        assert_eq!(edge_count(&store2, "country", "Brazil"), None);
    }

    #[test]
    fn writes_after_rebuild_keep_their_global_indices() {
        let dir = tempdir("monotone");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        write_through(&d, &store, "country", "Brazil", 1);
        d.rebuild(&store).unwrap();
        write_through(&d, &store, "country", "Japan", 1);
        drop((d, store));

        // The post-rebuild write sits in generation 2 with index 1; the
        // generation-2 checkpoint covers index < 1. Recovery must apply
        // exactly the one record.
        let store2 = seeded_store();
        let d2 = Durability::open(&cfg(&dir), &store2, &Registry::new()).unwrap();
        assert_eq!(d2.wal_replayed_total(), 1);
        assert_eq!(edge_count(&store2, "country", "Brazil"), Some(1));
        assert_eq!(edge_count(&store2, "country", "Japan"), Some(1));
    }

    #[test]
    fn should_rebuild_honors_both_triggers() {
        let dir = tempdir("triggers");
        let store = seeded_store();
        let mut c = cfg(&dir);
        c.rebuild_after_writes = 2;
        c.rebuild_interval = None;
        let d = Durability::open(&c, &store, &Registry::new()).unwrap();
        assert!(!d.should_rebuild(), "nothing pending");
        write_through(&d, &store, "country", "Brazil", 1);
        assert!(!d.should_rebuild(), "below the write threshold");
        write_through(&d, &store, "country", "Japan", 1);
        assert!(d.should_rebuild(), "write threshold reached");
        d.rebuild(&store).unwrap();
        assert!(!d.should_rebuild(), "pending reset by the rebuild");

        let mut c2 = cfg(&dir);
        c2.rebuild_after_writes = 0;
        c2.rebuild_interval = Some(Duration::ZERO);
        let store2 = seeded_store();
        let d2 = Durability::open(&c2, &store2, &Registry::new()).unwrap();
        assert!(
            !d2.should_rebuild(),
            "timer alone never fires with no writes"
        );
        write_through(&d2, &store2, "country", "Brazil", 1);
        assert!(d2.should_rebuild(), "elapsed timer with pending writes");
    }

    #[test]
    fn fold_cursor_consumes_each_record_once() {
        let dir = tempdir("cursor");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        write_through(&d, &store, "country", "Brazil", 7);
        write_through(&d, &store, "country", "Japan", 2);
        write_through(&d, &store, "country", "Brazil", 1);

        let first = d.fold_incremental(&store);
        assert_eq!(first.records, 3, "all three records consumed");
        assert_eq!(first.skipped, 0);
        assert!(first.edges_refit > 0, "stale annotations rewritten");

        // Nothing new: the cheap probe returns without touching the
        // store (no version bump, caches stay warm).
        let v = store.version();
        assert_eq!(d.fold_incremental(&store), FoldReport::default());
        assert_eq!(store.version(), v, "no-op fold must not bump the version");

        // One more write: the mirror still holds the three consumed
        // records (no rotation yet) — they are skipped, not re-folded.
        write_through(&d, &store, "country", "India", 4);
        let second = d.fold_incremental(&store);
        assert_eq!(second.records, 1, "only the new record");
        assert_eq!(second.skipped, 3, "consumed prefix passed over");
        assert_eq!(d.incremental_records_total(), 4);
        assert_eq!(d.skipped_records_total(), 3);
        assert_eq!(d.incremental_folds_total(), 2);
    }

    #[test]
    fn fold_histogram_matches_full_rescan() {
        let dir = tempdir("hist");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        // Mix of new edges and repeat bumps on existing edges.
        write_through(&d, &store, "country", "Brazil", 7);
        write_through(&d, &store, "country", "China", 2); // 8 -> 10
        write_through(&d, &store, "country", "Brazil", 1); // 7 -> 8
        write_through(&d, &store, "fruit", "apple", 3);
        d.fold_incremental(&store);
        let maintained = d.wal.lock().hist.clone();
        let rescanned = store.read(count_histogram);
        assert_eq!(maintained, rescanned, "shifted histogram drifted");

        // Rebuild rotates; a later fold over fresh writes still agrees.
        d.rebuild(&store).unwrap();
        write_through(&d, &store, "fruit", "pear", 1);
        d.fold_incremental(&store);
        assert_eq!(d.wal.lock().hist.clone(), store.read(count_histogram));
    }

    #[test]
    fn fold_annotations_match_histogram_model() {
        let dir = tempdir("foldfit");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        write_through(&d, &store, "country", "Brazil", 7);
        write_through(&d, &store, "country", "Japan", 2);
        let v_before = store.version();
        d.fold_incremental(&store);
        assert!(
            store.version() > v_before,
            "in-place fold bumps the version"
        );
        let hist = d.wal.lock().hist.clone();
        let model = UrnsModel::fit_histogram(&hist, 200);
        store.read(|g| {
            for (f, t, e) in g.edges() {
                assert_eq!(
                    e.plausibility.to_bits(),
                    model.plausibility(e.count).to_bits(),
                    "edge {}->{} not annotated from the maintained histogram",
                    g.label(f),
                    g.label(t),
                );
            }
        });
        // A second rebuild cycle with nothing pending changes no edges.
        let again = d.fold_incremental(&store);
        assert_eq!(again.edges_refit, 0);
    }

    #[test]
    fn rebuild_keeps_unfolded_records_for_the_next_fold() {
        let dir = tempdir("carry");
        let store = seeded_store();
        let registry = Registry::new();
        let d = Durability::open(&cfg(&dir), &store, &registry).unwrap();
        write_through(&d, &store, "country", "Brazil", 7);
        // rebuild = fold + checkpoint: the record is consumed exactly
        // once even though it is also checkpointed.
        d.rebuild(&store).unwrap();
        assert_eq!(d.incremental_records_total(), 1);
        write_through(&d, &store, "country", "Japan", 2);
        d.rebuild(&store).unwrap();
        assert_eq!(d.incremental_records_total(), 2);
        assert_eq!(d.wal.lock().hist.clone(), store.read(count_histogram));

        // Recovery from the final checkpoint alone sees both writes.
        drop((d, store));
        let store2 = seeded_store();
        let d2 = Durability::open(&cfg(&dir), &store2, &Registry::new()).unwrap();
        assert_eq!(d2.wal_replayed_total(), 0, "log empty after rotation");
        assert_eq!(edge_count(&store2, "country", "Brazil"), Some(7));
        assert_eq!(edge_count(&store2, "country", "Japan"), Some(2));
    }

    /// The acceptance check of the packed-snapshot work: a restart from
    /// a packed checkpoint with an empty WAL must mmap the file and skip
    /// the per-edge decode entirely, observable through the
    /// `serve.startup.*` counters and the installed representation.
    #[test]
    fn packed_checkpoint_recovers_without_per_edge_decode() {
        let dir = tempdir("packedopen");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        // Fresh open wrote a packed consolidation checkpoint.
        assert_eq!(d.packed_opens_total(), 0, "nothing recovered yet");
        assert!(d.startup_snapshot_bytes() > 0, "checkpoint size recorded");
        drop((d, store));

        let store2 = SharedStore::new(ConceptGraph::new());
        let d2 = Durability::open(&cfg(&dir), &store2, &Registry::new()).unwrap();
        assert_eq!(d2.packed_opens_total(), 1, "base opened zero-copy");
        assert_eq!(d2.wal_replayed_total(), 0);
        assert!(
            store2.is_packed(),
            "the mmap-backed representation is what serves"
        );
        assert!(d2.recovery_ms() >= 0);
        assert!(d2.startup_snapshot_bytes() > 0);
        assert_eq!(edge_count(&store2, "country", "China"), Some(8));
        assert_eq!(edge_count(&store2, "country", "India"), Some(5));
    }

    /// A checkpoint in the retired v1 format is refused by name, not
    /// skipped as torn: skipping it would recover an empty base and
    /// gap-stop the WAL, silently dropping every acked write.
    #[test]
    fn legacy_checkpoint_is_refused_with_upgrade_path() {
        let dir = tempdir("legacyrefuse");
        // Hand-written v1 bytes: magic, version 1, zero strings, nodes
        // and edges.
        let mut v1 = Vec::new();
        for word in [probase_store::packed::LEGACY_MAGIC, 1, 0, 0, 0] {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        let path = dir.join("snapshot-1-3.pb");
        std::fs::write(&path, &v1).unwrap();
        drop(WalWriter::create(&dir.join("wal-1.log"), 1, WalSync::Always).unwrap());

        let store = SharedStore::new(ConceptGraph::new());
        let err = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap_err();
        assert!(
            err.contains(&path.display().to_string()),
            "names the file: {err}"
        );
        assert!(err.contains("v1"), "names the format: {err}");
        assert!(
            err.contains("re-checkpoints"),
            "gives the upgrade path: {err}"
        );
        // Nothing was consolidated over the old checkpoint.
        assert_eq!(std::fs::read(&path).unwrap(), v1);
        assert!(!dir.join("snapshot-2-3.pb").exists());
    }

    /// A packed base with a non-empty WAL suffix thaws exactly once and
    /// replays on the mutable representation.
    #[test]
    fn packed_base_with_wal_suffix_thaws_and_replays() {
        let dir = tempdir("thawreplay");
        let store = seeded_store();
        let d = Durability::open(&cfg(&dir), &store, &Registry::new()).unwrap();
        write_through(&d, &store, "country", "Brazil", 7);
        drop((d, store)); // crash before any checkpoint of the write

        let store2 = seeded_store();
        let d2 = Durability::open(&cfg(&dir), &store2, &Registry::new()).unwrap();
        assert_eq!(d2.packed_opens_total(), 1, "base still opened packed");
        assert_eq!(d2.wal_replayed_total(), 1);
        assert!(
            !store2.is_packed(),
            "replay thaws to the mutable representation"
        );
        assert_eq!(edge_count(&store2, "country", "Brazil"), Some(7));
        assert_eq!(edge_count(&store2, "country", "China"), Some(8));
    }
}
