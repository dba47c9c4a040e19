//! Write-ahead log for serve-path evidence writes.
//!
//! The paper's taxonomy is persistent and continuously grown (§2's
//! iterative extraction accumulates Γ across runs); an in-memory-only
//! write path loses every acked mutation on a crash. This module gives
//! the serving layer a durable append log in the same zero-dependency
//! style as [`crate::packed`]: a small binary format, explicit
//! checksums, and torn-tail tolerance instead of a framework.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! header:  magic u32 = 0x5042574C ("PBWL"), version u32 = 1, seq u64
//! record:  payload_len u32, crc32 u32 (over payload), payload
//! payload: index u64, op u8, op-specific body
//!   op 1 (add-evidence):    parent_len u32 + utf8, child_len u32 + utf8,
//!                           count u32
//!   op 2 (import-component): source_shard u32, label_count u32,
//!                           (len u32 + utf8)*, payload_len u32 + packed
//!                           snapshot bytes of the imported subgraph
//!   op 3 (drop-component):  target_shard u32, label_count u32,
//!                           (len u32 + utf8)*
//! ```
//!
//! Ops 2 and 3 journal the two sides of an online component migration
//! (see `probase-router`): the importing shard logs the whole transfer
//! payload *before* applying it, the draining shard logs the drop before
//! removing, so either side's crash recovery replays a consistent half
//! that the fleet-level reconciler can finish. Live writes and replay
//! apply a record through the same function, [`WalOp::apply`].
//!
//! Every record carries a *global* monotone `index` assigned by the
//! writer. Snapshots record the index they cover through, so recovery
//! can union records from any number of log generations, deduplicate by
//! index, and replay exactly the suffix a snapshot does not already
//! contain — crashes between snapshot persist and log rotation neither
//! lose nor double-apply a write.
//!
//! A torn tail (partial record from a crash mid-append) is expected, not
//! an error: [`read_wal`] stops at the first record whose length prefix
//! overruns the file or whose checksum mismatches, and reports the byte
//! offset of the valid prefix so the caller can truncate before
//! re-opening the file for append.

use crate::component::{merge_subgraph, remove_labels};
use crate::graph::ConceptGraph;
use crate::packed::PackedGraph;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: u32 = 0x5042_574C;
const VERSION: u32 = 1;
/// Fixed byte length of the file header.
pub const HEADER_LEN: u64 = 16;
/// Upper bound on a single record payload; anything larger is treated
/// as corruption on read and refused on append. Evidence records are two
/// labels and a count; import-component records carry a whole packed
/// component, so this also caps how large a component can migrate
/// through the WAL (the wire line cap is tighter in practice).
pub const MAX_PAYLOAD: u32 = 1 << 20;

const OP_ADD_EVIDENCE: u8 = 1;
const OP_IMPORT_COMPONENT: u8 = 2;
const OP_DROP_COMPONENT: u8 = 3;

/// One durable write-path operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `AddEvidence { parent, child, count }` as acked by the server.
    AddEvidence {
        /// Parent (concept) label.
        parent: String,
        /// Child (sub-concept or instance) label.
        child: String,
        /// Evidence count added to the edge.
        count: u32,
    },
    /// A migrated component grafted onto this shard. Logged *before* the
    /// graft is applied, so recovery re-imports it idempotently (the
    /// graft merges by label) and the fleet reconciler can tell this
    /// shard won the component.
    ImportComponent {
        /// Shard index the component came from.
        source: u32,
        /// Labels of the component, sorted by label bytes.
        labels: Vec<String>,
        /// Packed (v2) snapshot bytes of the component subgraph.
        payload: Vec<u8>,
    },
    /// A component drained off this shard after a successful import on
    /// `target`. Logged before the removal; replay re-removes.
    DropComponent {
        /// Shard index that now owns the component.
        target: u32,
        /// Labels removed, sorted by label bytes.
        labels: Vec<String>,
    },
}

impl WalOp {
    /// Apply this operation to `g`: the one path that live writes (after
    /// their append) and WAL replay share, so a restarted node holds the
    /// same graph, in the same insertion order, as before the crash.
    /// Evidence goes to sense 0, the only sense the serve write path
    /// touches. An import merges the journaled payload with
    /// [`merge_subgraph`]; a drop rebuilds the graph without its labels.
    /// An import payload that fails to validate (callers validate before
    /// journaling, so only a targeted CRC collision could get one into
    /// the log) changes nothing.
    pub fn apply(&self, g: &mut ConceptGraph) {
        match self {
            WalOp::AddEvidence {
                parent,
                child,
                count,
            } => {
                let p = g.ensure_node(parent, 0);
                let c = g.ensure_node(child, 0);
                g.add_evidence(p, c, *count);
            }
            WalOp::ImportComponent { payload, .. } => {
                if let Ok(packed) = PackedGraph::from_vec(payload.clone()) {
                    merge_subgraph(g, &packed);
                }
            }
            WalOp::DropComponent { labels, .. } => {
                let set: HashSet<String> = labels.iter().cloned().collect();
                *g = remove_labels(g, &set);
            }
        }
    }
}

/// A decoded log record: a global index plus the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Global monotone record index (never reused across rotations).
    pub index: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// When the writer calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// Fsync after every append — an ack implies the record is on disk.
    Always,
    /// Fsync every N appends (and on rotation/shutdown); a crash can
    /// lose up to N-1 acked writes. `EveryN(0)` behaves like `EveryN(1)`.
    EveryN(u32),
    /// Never fsync explicitly; leave flushing to the OS page cache.
    Os,
}

impl WalSync {
    /// Parse a CLI-style spec: `always`, `os`/`none`, or `batch:N`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "always" => Ok(WalSync::Always),
            "os" | "none" => Ok(WalSync::Os),
            _ => match spec.strip_prefix("batch:") {
                Some(n) => n
                    .parse::<u32>()
                    .map(WalSync::EveryN)
                    .map_err(|_| format!("bad --wal-sync batch size {n:?}")),
                None => Err(format!(
                    "bad --wal-sync {spec:?} (expected always, os, or batch:N)"
                )),
            },
        }
    }
}

/// Result of scanning a log file.
#[derive(Debug)]
pub struct WalRead {
    /// Sequence number from the file header (the log generation).
    pub seq: u64,
    /// All records with valid checksums, in file order.
    pub entries: Vec<WalEntry>,
    /// Byte length of the valid prefix (header + whole records).
    pub valid_len: u64,
    /// True when trailing bytes past `valid_len` were ignored.
    pub torn: bool,
}

/// Errors reading a log file. Torn tails are *not* errors — only a
/// header that identifies the file as something else entirely.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Header magic mismatch — not a Probase WAL.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BadMagic => write!(f, "bad wal magic"),
            WalError::BadVersion(v) => write!(f, "unsupported wal version {v}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

// CRC-32 (IEEE 802.3 polynomial, reflected). Hand-rolled so the store
// stays dependency-free; the table is built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn put_str(p: &mut Vec<u8>, s: &str) {
    p.extend_from_slice(&(s.len() as u32).to_le_bytes());
    p.extend_from_slice(s.as_bytes());
}

fn put_labels(p: &mut Vec<u8>, labels: &[String]) {
    p.extend_from_slice(&(labels.len() as u32).to_le_bytes());
    for l in labels {
        put_str(p, l);
    }
}

fn encode_payload(entry: &WalEntry) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    p.extend_from_slice(&entry.index.to_le_bytes());
    match &entry.op {
        WalOp::AddEvidence {
            parent,
            child,
            count,
        } => {
            p.push(OP_ADD_EVIDENCE);
            put_str(&mut p, parent);
            put_str(&mut p, child);
            p.extend_from_slice(&count.to_le_bytes());
        }
        WalOp::ImportComponent {
            source,
            labels,
            payload,
        } => {
            p.push(OP_IMPORT_COMPONENT);
            p.extend_from_slice(&source.to_le_bytes());
            put_labels(&mut p, labels);
            p.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            p.extend_from_slice(payload);
        }
        WalOp::DropComponent { target, labels } => {
            p.push(OP_DROP_COMPONENT);
            p.extend_from_slice(&target.to_le_bytes());
            put_labels(&mut p, labels);
        }
    }
    p
}

/// Encode one record (length prefix + checksum + payload) as written to
/// the file. Exposed for tests that craft corrupt logs.
pub fn encode_record(entry: &WalEntry) -> Vec<u8> {
    let payload = encode_payload(entry);
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

fn decode_payload(payload: &[u8]) -> Option<WalEntry> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let s = payload.get(*at..*at + n)?;
        *at += n;
        Some(s)
    };
    let take_u32 = |at: &mut usize| -> Option<u32> {
        let s = payload.get(*at..*at + 4)?;
        *at += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    };
    let take_str = |at: &mut usize| -> Option<String> {
        let len = take_u32(at)? as usize;
        let s = payload.get(*at..*at + len)?;
        *at += len;
        String::from_utf8(s.to_vec()).ok()
    };
    let take_labels = |at: &mut usize| -> Option<Vec<String>> {
        let n = take_u32(at)? as usize;
        // A label is at least 4 bytes of length prefix; bound n so a
        // corrupt count cannot trigger a huge allocation.
        if n > payload.len() / 4 {
            return None;
        }
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(take_str(at)?);
        }
        Some(labels)
    };
    let index = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
    let op = match take(&mut at, 1)?[0] {
        OP_ADD_EVIDENCE => {
            let parent = take_str(&mut at)?;
            let child = take_str(&mut at)?;
            let count = take_u32(&mut at)?;
            WalOp::AddEvidence {
                parent,
                child,
                count,
            }
        }
        OP_IMPORT_COMPONENT => {
            let source = take_u32(&mut at)?;
            let labels = take_labels(&mut at)?;
            let plen = take_u32(&mut at)? as usize;
            let bytes = take(&mut at, plen)?.to_vec();
            WalOp::ImportComponent {
                source,
                labels,
                payload: bytes,
            }
        }
        OP_DROP_COMPONENT => {
            let target = take_u32(&mut at)?;
            let labels = take_labels(&mut at)?;
            WalOp::DropComponent { target, labels }
        }
        _ => return None,
    };
    if at != payload.len() {
        return None;
    }
    Some(WalEntry { index, op })
}

/// Scan a log file, returning every record in its valid prefix.
pub fn read_wal(path: &Path) -> Result<WalRead, WalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize {
        return Err(WalError::BadMagic);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(WalError::BadVersion(version));
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());

    let mut entries = Vec::new();
    let mut at = HEADER_LEN as usize;
    loop {
        if at == bytes.len() {
            return Ok(WalRead {
                seq,
                entries,
                valid_len: at as u64,
                torn: false,
            });
        }
        let valid_len = at as u64;
        let torn = |entries| {
            Ok(WalRead {
                seq,
                entries,
                valid_len,
                torn: true,
            })
        };
        if bytes.len() - at < 8 {
            return torn(entries);
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if len > MAX_PAYLOAD || bytes.len() - at - 8 < len as usize {
            return torn(entries);
        }
        let payload = &bytes[at + 8..at + 8 + len as usize];
        if crc32(payload) != crc {
            return torn(entries);
        }
        match decode_payload(payload) {
            Some(e) => entries.push(e),
            // Checksum held but the payload does not parse: a future op
            // or corruption that collided with the CRC. Stop here.
            None => return torn(entries),
        }
        at += 8 + len as usize;
    }
}

/// Append-side handle on a log file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    sync: WalSync,
    unsynced: u32,
}

impl WalWriter {
    /// Create a fresh log file at `path` with generation `seq`. The
    /// header is written and fsynced before returning, so an empty log
    /// is already a valid file.
    pub fn create(path: &Path, seq: u64, sync: WalSync) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&seq.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(Self {
            file,
            sync,
            unsynced: 0,
        })
    }

    /// Re-open an existing log for append, truncating anything past
    /// `valid_len` (the torn tail reported by [`read_wal`]).
    pub fn open_append(path: &Path, valid_len: u64, sync: WalSync) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut w = Self {
            file,
            sync,
            unsynced: 0,
        };
        use std::io::Seek;
        w.file.seek(io::SeekFrom::End(0))?;
        Ok(w)
    }

    /// Append one record; returns `true` when the append was fsynced.
    /// Records whose payload exceeds [`MAX_PAYLOAD`] are refused (the
    /// read side would treat them as corruption), so an oversized
    /// component migration fails cleanly before any bytes are written.
    pub fn append(&mut self, entry: &WalEntry) -> io::Result<bool> {
        let rec = encode_record(entry);
        if rec.len() - 8 > MAX_PAYLOAD as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "wal record payload {} exceeds cap {}",
                    rec.len() - 8,
                    MAX_PAYLOAD
                ),
            ));
        }
        self.file.write_all(&rec)?;
        let due = match self.sync {
            WalSync::Always => true,
            WalSync::EveryN(n) => {
                self.unsynced += 1;
                self.unsynced >= n.max(1)
            }
            WalSync::Os => false,
        };
        if due {
            self.file.sync_all()?;
            self.unsynced = 0;
        }
        Ok(due)
    }

    /// Fsync any batched appends (used on rotation and shutdown).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(index: u64, parent: &str, child: &str, count: u32) -> WalEntry {
        WalEntry {
            index,
            op: WalOp::AddEvidence {
                parent: parent.to_string(),
                child: child.to_string(),
                count,
            },
        }
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_then_read_roundtrips() {
        let dir = tempdir("roundtrip");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path, 7, WalSync::Always).unwrap();
        let entries = vec![
            entry(0, "country", "China", 5),
            entry(1, "animal", "ostrich", 1),
            entry(2, "animal", "robin", 3),
        ];
        for e in &entries {
            assert!(w.append(e).unwrap());
        }
        let r = read_wal(&path).unwrap();
        assert_eq!(r.seq, 7);
        assert_eq!(r.entries, entries);
        assert!(!r.torn);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncatable() {
        let dir = tempdir("torn");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        w.append(&entry(0, "a", "b", 1)).unwrap();
        w.append(&entry(1, "a", "c", 2)).unwrap();
        drop(w);
        // Simulate a crash mid-append: half a record at the tail.
        let rec = encode_record(&entry(2, "a", "d", 3));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&rec[..rec.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let r = read_wal(&path).unwrap();
        assert_eq!(r.entries.len(), 2);
        assert!(r.torn);

        // Truncate and keep appending; the log reads back whole.
        let mut w = WalWriter::open_append(&path, r.valid_len, WalSync::Always).unwrap();
        w.append(&entry(2, "a", "d", 3)).unwrap();
        let r = read_wal(&path).unwrap();
        assert_eq!(r.entries.len(), 3);
        assert!(!r.torn);
        assert_eq!(r.entries[2], entry(2, "a", "d", 3));
    }

    #[test]
    fn migration_ops_roundtrip() {
        let dir = tempdir("migration");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path, 3, WalSync::Always).unwrap();
        let entries = vec![
            entry(0, "country", "China", 5),
            WalEntry {
                index: 1,
                op: WalOp::ImportComponent {
                    source: 2,
                    labels: vec!["apple".into(), "fruit".into()],
                    payload: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00],
                },
            },
            WalEntry {
                index: 2,
                op: WalOp::DropComponent {
                    target: 0,
                    labels: vec!["apple".into(), "fruit".into()],
                },
            },
            entry(3, "fruit", "apple", 1),
        ];
        for e in &entries {
            assert!(w.append(e).unwrap());
        }
        let r = read_wal(&path).unwrap();
        assert_eq!(r.seq, 3);
        assert_eq!(r.entries, entries);
        assert!(!r.torn);
    }

    #[test]
    fn unknown_op_stops_the_scan() {
        let dir = tempdir("unknown-op");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        w.append(&entry(0, "a", "b", 1)).unwrap();
        drop(w);
        // Craft a record with a future op code and a valid CRC.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(99);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        let r = read_wal(&path).unwrap();
        assert_eq!(r.entries.len(), 1, "scan keeps the prefix, drops the op");
        assert!(r.torn);
    }

    #[test]
    fn oversized_payload_is_refused_on_append() {
        let dir = tempdir("oversized");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        let big = WalEntry {
            index: 0,
            op: WalOp::ImportComponent {
                source: 1,
                labels: vec!["x".into()],
                payload: vec![0u8; MAX_PAYLOAD as usize + 1],
            },
        };
        assert!(w.append(&big).is_err());
        // The file is untouched: still a valid, empty log.
        let r = read_wal(&path).unwrap();
        assert!(r.entries.is_empty());
        assert!(!r.torn);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let dir = tempdir("crc");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path, 0, WalSync::Always).unwrap();
        w.append(&entry(0, "a", "b", 1)).unwrap();
        w.append(&entry(1, "a", "c", 2)).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's payload.
        let at = HEADER_LEN as usize + 10;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = read_wal(&path).unwrap();
        assert!(r.entries.is_empty(), "scan must stop at the bad record");
        assert!(r.torn);
        assert_eq!(r.valid_len, HEADER_LEN);
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let dir = tempdir("notawal");
        let path = dir.join("not-a-wal");
        std::fs::write(&path, b"hello world, definitely not a wal").unwrap();
        assert!(matches!(read_wal(&path), Err(WalError::BadMagic)));
        std::fs::write(&path, b"tiny").unwrap();
        assert!(matches!(read_wal(&path), Err(WalError::BadMagic)));
    }

    #[test]
    fn batched_sync_policy_syncs_every_n() {
        let dir = tempdir("batch");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path, 0, WalSync::EveryN(3)).unwrap();
        assert!(!w.append(&entry(0, "a", "b", 1)).unwrap());
        assert!(!w.append(&entry(1, "a", "c", 1)).unwrap());
        assert!(w.append(&entry(2, "a", "d", 1)).unwrap());
        assert!(!w.append(&entry(3, "a", "e", 1)).unwrap());
        // EveryN(0) degrades to every append.
        let mut w0 = WalWriter::create(&dir.join("wal-1.log"), 1, WalSync::EveryN(0)).unwrap();
        assert!(w0.append(&entry(0, "a", "b", 1)).unwrap());
    }

    #[test]
    fn wal_sync_parses_cli_specs() {
        assert_eq!(WalSync::parse("always"), Ok(WalSync::Always));
        assert_eq!(WalSync::parse("os"), Ok(WalSync::Os));
        assert_eq!(WalSync::parse("none"), Ok(WalSync::Os));
        assert_eq!(WalSync::parse("batch:16"), Ok(WalSync::EveryN(16)));
        assert!(WalSync::parse("batch:x").is_err());
        assert!(WalSync::parse("sometimes").is_err());
    }

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("probase-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
