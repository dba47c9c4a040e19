//! Zero-copy packed snapshots: the mmap-able CSR graph format.
//!
//! A [`PackedGraph`] is an immutable taxonomy whose in-memory layout *is*
//! the on-disk snapshot: one contiguous buffer holding a validated
//! header, a packed string arena, the node table, CSR adjacency for both
//! directions, fixed-width edge payloads, and sorted indexes for name and
//! edge lookup. Opening a snapshot is `open + mmap + validate` — no
//! per-edge decode, no per-string allocation — and sibling shard
//! processes mapping the same file share page cache.
//!
//! Format v2 (all integers little-endian, sections 8-byte aligned):
//!
//! ```text
//! header (64 B):
//!   0  magic      u32 = 0x50425350 ("PSBP" on disk; a file carrying
//!                       the retired v1 magic is refused by name, see
//!                       [`SnapshotError::LegacyNotPacked`])
//!   4  version    u32 = 2
//!   8  n_strings  u32
//!   12 n_nodes    u32
//!   16 n_edges    u32
//!   20 arena_len  u32
//!   24 total_len  u64   (must equal the length derived from the counts)
//!   32 crc32      u32   (over bytes[36..total_len])
//!   36 zeros to 64
//! sections, in order:
//!   arena        arena_len bytes, all interned strings concatenated in
//!                symbol order
//!   str_off      (n_strings+1) × u32, arena byte offsets (monotone)
//!   node_tab     n_nodes × {label_sym u32, sense u32}
//!   out_off      (n_nodes+1) × u32, CSR row offsets into out_edges
//!   out_edges    n_edges × {to u32, count u32, plausibility f64},
//!                row-major, each row in adjacency *insertion* order
//!   in_off       (n_nodes+1) × u32, CSR row offsets into in_refs
//!   in_refs      n_edges × {from u32, edge_idx u32}, each row in
//!                adjacency insertion order; edge_idx points into
//!                out_edges so payloads are stored once
//!   name_idx     n_nodes × u32 node ids sorted by (label bytes, sense) —
//!                binary-searchable name lookup and prefix scans
//!   edge_sorted  n_edges × u32; positions out_off[f]..out_off[f+1] hold
//!                row f's edge indices sorted by `to` — binary-searchable
//!                edge(from, to) lookup
//!   edge_order   n_edges × u32 edge indices in the original graph's
//!                global insertion order, so thawing reconstructs the
//!                mutable graph bit-for-bit
//! ```
//!
//! CSR rows deliberately preserve the `ConceptGraph` adjacency insertion
//! order rather than sorting by target: downstream float accumulations
//! (reachability Eq. 7, typicality mass sums) iterate `children`/`parents`
//! and must see edges in the same order to produce byte-identical
//! answers. Sorted-order lookup is provided by the separate `edge_sorted`
//! permutation instead.
//!
//! Every section is validated once at open (see [`PackedGraph::from_bytes`]);
//! a truncated or bit-flipped file is rejected — the whole-body CRC plus
//! the count/total cross-check catch any single-bit corruption — and the
//! structural pass rejects files that are internally inconsistent, so a
//! corrupt snapshot can never silently mis-answer.

use crate::component::copy_graph;
use crate::graph::{ConceptGraph, EdgeData, NodeId};
use crate::hash::FxHashMap;
use crate::view::GraphView;
use crate::wal::crc32;
use bytes::Bytes;
use std::path::Path;
use std::sync::Arc;

/// Magic number of packed (v2) snapshots.
pub const PACKED_MAGIC: u32 = 0x5042_5350;
/// Magic number of the retired length-prefixed (v1) format. Nothing
/// reads or writes v1 any more; the constant exists so such a file is
/// refused as [`SnapshotError::LegacyNotPacked`] rather than reported as
/// garbage.
pub const LEGACY_MAGIC: u32 = 0x5042_5353;
/// Format version of packed snapshots.
pub const PACKED_VERSION: u32 = 2;
const HEADER_LEN: usize = 64;
/// CRC coverage starts right after the crc field itself.
const CRC_START: usize = 36;

/// Errors encoding or validating a packed snapshot.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// Magic number mismatch — not a Probase snapshot.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An index pointed outside its table.
    BadIndex,
    /// A table or string is too large for the u32 length prefixes —
    /// encoding would silently truncate, so it is refused instead.
    TooLarge(&'static str),
    /// The buffer is a retired v1 snapshot. This build reads only the
    /// packed format; a build that still reads v1 converts it (see the
    /// README's upgrade note).
    LegacyNotPacked,
    /// Structural validation failed (checksum, offsets, or
    /// cross-section consistency).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "bad magic number"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadUtf8 => write!(f, "invalid utf-8 in snapshot"),
            SnapshotError::BadIndex => write!(f, "index out of range in snapshot"),
            SnapshotError::TooLarge(what) => {
                write!(f, "{what} exceeds the u32 snapshot length limit")
            }
            SnapshotError::LegacyNotPacked => write!(
                f,
                "this is a retired v1 snapshot; only the packed (v2) format is read"
            ),
            SnapshotError::Corrupt(what) => write!(f, "packed snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Errors opening a packed snapshot file (I/O or format).
#[derive(Debug)]
pub enum PackedOpenError {
    /// The file could not be opened, read, or mapped.
    Io(std::io::Error),
    /// The bytes failed format validation.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for PackedOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedOpenError::Io(e) => write!(f, "packed snapshot io error: {e}"),
            PackedOpenError::Snapshot(e) => write!(f, "packed snapshot invalid: {e}"),
        }
    }
}

impl std::error::Error for PackedOpenError {}

impl From<std::io::Error> for PackedOpenError {
    fn from(e: std::io::Error) -> Self {
        PackedOpenError::Io(e)
    }
}

impl From<SnapshotError> for PackedOpenError {
    fn from(e: SnapshotError) -> Self {
        PackedOpenError::Snapshot(e)
    }
}

/// Read-only, file-backed memory mapping (hand-rolled `mmap` binding —
/// the workspace carries no libc-style dependency).
#[cfg(unix)]
mod mapped {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A `PROT_READ`/`MAP_PRIVATE` mapping of a whole file. Read-only
    /// private mappings are never copied, so every process mapping the
    /// same snapshot shares the kernel page cache.
    #[derive(Debug)]
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only for its whole lifetime.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub fn map(file: &File) -> io::Result<Mmap> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
            if len == 0 {
                // mmap(len = 0) is EINVAL; an empty file maps to an
                // empty slice (validation rejects it as truncated).
                return Ok(Mmap {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: requesting a fresh read-only mapping of a file we
            // hold open; the kernel picks the address.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                &[]
            } else {
                // SAFETY: ptr/len describe a live PROT_READ mapping.
                unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
            }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: unmapping exactly what map() created.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

/// The buffer behind a [`PackedGraph`]: an owned heap buffer or a shared
/// file mapping. Cloning is O(1) either way.
#[derive(Clone)]
enum PackedBuf {
    Heap(Bytes),
    #[cfg(unix)]
    Mapped(Arc<mapped::Mmap>),
}

impl PackedBuf {
    fn as_slice(&self) -> &[u8] {
        match self {
            PackedBuf::Heap(b) => b,
            #[cfg(unix)]
            PackedBuf::Mapped(m) => m.as_slice(),
        }
    }
}

/// Byte offsets of every section, derived from the header counts.
#[derive(Debug, Clone, Copy)]
struct Layout {
    n_strings: usize,
    n_nodes: usize,
    n_edges: usize,
    arena: usize,
    arena_len: usize,
    str_off: usize,
    node_tab: usize,
    out_off: usize,
    out_edges: usize,
    in_off: usize,
    in_refs: usize,
    name_idx: usize,
    edge_sorted: usize,
    edge_order: usize,
    total_len: usize,
}

fn align8(x: u64) -> u64 {
    (x + 7) & !7
}

impl Layout {
    /// Compute section offsets. Inputs come from u32 header fields, so
    /// all intermediate sums fit comfortably in u64; `None` only when the
    /// derived total does not fit the platform's `usize`.
    fn new(n_strings: u32, n_nodes: u32, n_edges: u32, arena_len: u32) -> Option<Layout> {
        let (s, n, e, a) = (
            n_strings as u64,
            n_nodes as u64,
            n_edges as u64,
            arena_len as u64,
        );
        let arena = HEADER_LEN as u64;
        let str_off = align8(arena + a);
        let node_tab = align8(str_off + 4 * (s + 1));
        let out_off = align8(node_tab + 8 * n);
        let out_edges = align8(out_off + 4 * (n + 1));
        let in_off = align8(out_edges + 16 * e);
        let in_refs = align8(in_off + 4 * (n + 1));
        let name_idx = align8(in_refs + 8 * e);
        let edge_sorted = align8(name_idx + 4 * n);
        let edge_order = align8(edge_sorted + 4 * e);
        let total_len = align8(edge_order + 4 * e);
        if usize::try_from(total_len).is_err() {
            return None;
        }
        Some(Layout {
            n_strings: s as usize,
            n_nodes: n as usize,
            n_edges: e as usize,
            arena: arena as usize,
            arena_len: a as usize,
            str_off: str_off as usize,
            node_tab: node_tab as usize,
            out_off: out_off as usize,
            out_edges: out_edges as usize,
            in_off: in_off as usize,
            in_refs: in_refs as usize,
            name_idx: name_idx as usize,
            edge_sorted: edge_sorted as usize,
            edge_order: edge_order as usize,
            total_len: total_len as usize,
        })
    }
}

#[inline]
fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

#[inline]
fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

#[inline]
fn f64_at(b: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

#[inline]
fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(b: &mut [u8], off: usize, v: u64) {
    b[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_f64(b: &mut [u8], off: usize, v: f64) {
    b[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn len_u32(n: usize, what: &'static str) -> Result<u32, SnapshotError> {
    u32::try_from(n).map_err(|_| SnapshotError::TooLarge(what))
}

/// Encode `graph` into the packed v2 format. Byte-deterministic: the
/// same graph (same node/edge insertion history) always yields the same
/// bytes, extending the PR 4/8 byte-identity contracts to packed
/// snapshots. Plausibility is clamped to `[0, 1]` (NaN → 0), so the
/// output always re-validates.
pub fn pack(graph: &ConceptGraph) -> Result<Bytes, SnapshotError> {
    let interner = graph.interner();
    let n_strings = len_u32(interner.len(), "string table")?;
    let n_nodes = len_u32(graph.node_count(), "node table")?;
    let n_edges = len_u32(graph.edge_count(), "edge table")?;
    let arena_len_usize: usize = interner.iter().map(|(_, s)| s.len()).sum();
    let arena_len = len_u32(arena_len_usize, "string arena")?;
    let layout = Layout::new(n_strings, n_nodes, n_edges, arena_len)
        .ok_or(SnapshotError::TooLarge("packed snapshot"))?;

    let mut buf = vec![0u8; layout.total_len];
    put_u32(&mut buf, 0, PACKED_MAGIC);
    put_u32(&mut buf, 4, PACKED_VERSION);
    put_u32(&mut buf, 8, n_strings);
    put_u32(&mut buf, 12, n_nodes);
    put_u32(&mut buf, 16, n_edges);
    put_u32(&mut buf, 20, arena_len);
    put_u64(&mut buf, 24, layout.total_len as u64);

    // Arena + string offsets, in symbol (insertion) order.
    let mut cursor = 0usize;
    for (sym, s) in interner.iter() {
        put_u32(&mut buf, layout.str_off + 4 * sym.index(), cursor as u32);
        buf[layout.arena + cursor..layout.arena + cursor + s.len()].copy_from_slice(s.as_bytes());
        cursor += s.len();
    }
    put_u32(&mut buf, layout.str_off + 4 * layout.n_strings, arena_len);

    // Node table.
    for n in graph.nodes() {
        let sym = interner.get(graph.label(n)).expect("node label interned");
        put_u32(&mut buf, layout.node_tab + 8 * n.index(), sym.0);
        put_u32(
            &mut buf,
            layout.node_tab + 8 * n.index() + 4,
            graph.sense(n),
        );
    }

    // Out-CSR + payloads, rows in node order, each row in adjacency
    // insertion order. Remember each edge's packed index for the in-refs
    // and edge-order sections.
    let mut edge_pos: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut next = 0u32;
    for n in graph.nodes() {
        put_u32(&mut buf, layout.out_off + 4 * n.index(), next);
        for (to, data) in graph.children(n) {
            let off = layout.out_edges + 16 * next as usize;
            put_u32(&mut buf, off, to.0);
            put_u32(&mut buf, off + 4, data.count);
            let p = if data.plausibility.is_nan() {
                0.0
            } else {
                data.plausibility.clamp(0.0, 1.0)
            };
            put_f64(&mut buf, off + 8, p);
            edge_pos.insert((n.0, to.0), next);
            next += 1;
        }
    }
    put_u32(&mut buf, layout.out_off + 4 * layout.n_nodes, n_edges);

    // In-CSR + refs, rows in node order, each row in adjacency insertion
    // order.
    let mut next_in = 0u32;
    for n in graph.nodes() {
        put_u32(&mut buf, layout.in_off + 4 * n.index(), next_in);
        for (from, _) in graph.parents(n) {
            let off = layout.in_refs + 8 * next_in as usize;
            put_u32(&mut buf, off, from.0);
            put_u32(&mut buf, off + 4, edge_pos[&(from.0, n.0)]);
            next_in += 1;
        }
    }
    put_u32(&mut buf, layout.in_off + 4 * layout.n_nodes, n_edges);

    // Name index: node ids sorted by (label bytes, sense).
    let mut by_name: Vec<u32> = (0..n_nodes).collect();
    by_name.sort_unstable_by(|&a, &b| {
        let (na, nb) = (NodeId(a), NodeId(b));
        graph
            .label(na)
            .as_bytes()
            .cmp(graph.label(nb).as_bytes())
            .then(graph.sense(na).cmp(&graph.sense(nb)))
    });
    for (i, id) in by_name.iter().enumerate() {
        put_u32(&mut buf, layout.name_idx + 4 * i, *id);
    }

    // Per-row edge indices sorted by target node.
    for n in graph.nodes() {
        let start = u32_at(&buf, layout.out_off + 4 * n.index());
        let end = u32_at(&buf, layout.out_off + 4 * (n.index() + 1));
        let mut row: Vec<u32> = (start..end).collect();
        row.sort_unstable_by_key(|&e| u32_at(&buf, layout.out_edges + 16 * e as usize));
        for (i, e) in row.iter().enumerate() {
            put_u32(&mut buf, layout.edge_sorted + 4 * (start as usize + i), *e);
        }
    }

    // Global insertion order, so thawing replays edges exactly as the
    // original graph accumulated them.
    for (i, (from, to, _)) in graph.edges().enumerate() {
        put_u32(
            &mut buf,
            layout.edge_order + 4 * i,
            edge_pos[&(from.0, to.0)],
        );
    }

    let crc = crc32(&buf[CRC_START..]);
    put_u32(&mut buf, 32, crc);
    Ok(Bytes::from(buf))
}

/// Full open-time validation. Returns the trusted layout; after this,
/// every accessor read is in bounds and every string is valid UTF-8.
fn validate(b: &[u8]) -> Result<Layout, SnapshotError> {
    // Checked before the header length: a v1 file can be shorter than a
    // packed header and must still be named, not called truncated.
    if b.len() >= 4 && u32_at(b, 0) == LEGACY_MAGIC {
        return Err(SnapshotError::LegacyNotPacked);
    }
    if b.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if u32_at(b, 0) != PACKED_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32_at(b, 4);
    if version != PACKED_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let layout = Layout::new(u32_at(b, 8), u32_at(b, 12), u32_at(b, 16), u32_at(b, 20))
        .ok_or(SnapshotError::TooLarge("packed snapshot"))?;
    // The stored total cross-checks the counts: corrupting either side
    // breaks the equality.
    if u64_at(b, 24) != layout.total_len as u64 {
        return Err(SnapshotError::Corrupt("header length mismatch"));
    }
    if b.len() < layout.total_len {
        return Err(SnapshotError::Truncated);
    }
    if b.len() > layout.total_len {
        return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
    }
    if u32_at(b, 32) != crc32(&b[CRC_START..]) {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }

    // String offsets: monotone, spanning the arena exactly; every string
    // valid UTF-8 (checked once here so accessors can skip it).
    if u32_at(b, layout.str_off) != 0 {
        return Err(SnapshotError::Corrupt("string offsets must start at 0"));
    }
    let mut prev = 0u32;
    for i in 1..=layout.n_strings {
        let off = u32_at(b, layout.str_off + 4 * i);
        if off < prev || off as usize > layout.arena_len {
            return Err(SnapshotError::Corrupt("string offsets not monotone"));
        }
        let s = &b[layout.arena + prev as usize..layout.arena + off as usize];
        if std::str::from_utf8(s).is_err() {
            return Err(SnapshotError::BadUtf8);
        }
        prev = off;
    }
    if prev as usize != layout.arena_len {
        return Err(SnapshotError::Corrupt("string offsets do not span arena"));
    }

    // Node table: label symbols in range.
    for i in 0..layout.n_nodes {
        if u32_at(b, layout.node_tab + 8 * i) as usize >= layout.n_strings {
            return Err(SnapshotError::BadIndex);
        }
    }

    // Out-CSR: offsets monotone and spanning; edges well-formed. Builds
    // the edge → owning-row table the later passes need.
    let read_offsets = |base: usize| -> Result<(), SnapshotError> {
        if u32_at(b, base) != 0 {
            return Err(SnapshotError::Corrupt("csr offsets must start at 0"));
        }
        let mut prev = 0u32;
        for i in 1..=layout.n_nodes {
            let off = u32_at(b, base + 4 * i);
            if off < prev || off as usize > layout.n_edges {
                return Err(SnapshotError::Corrupt("csr offsets not monotone"));
            }
            prev = off;
        }
        if prev as usize != layout.n_edges {
            return Err(SnapshotError::Corrupt("csr offsets do not span edges"));
        }
        Ok(())
    };
    read_offsets(layout.out_off)?;
    read_offsets(layout.in_off)?;

    let mut owner = vec![0u32; layout.n_edges];
    for f in 0..layout.n_nodes {
        let start = u32_at(b, layout.out_off + 4 * f) as usize;
        let end = u32_at(b, layout.out_off + 4 * (f + 1)) as usize;
        for (e, own) in owner.iter_mut().enumerate().take(end).skip(start) {
            *own = f as u32;
            let off = layout.out_edges + 16 * e;
            let to = u32_at(b, off) as usize;
            if to >= layout.n_nodes {
                return Err(SnapshotError::BadIndex);
            }
            if to == f {
                return Err(SnapshotError::Corrupt("self loop"));
            }
            let p = f64_at(b, off + 8);
            if !(0.0..=1.0).contains(&p) {
                return Err(SnapshotError::Corrupt("plausibility out of range"));
            }
        }
    }

    // In-refs: every ref points into the out row of its claimed source,
    // and that edge really targets this row's node.
    for t in 0..layout.n_nodes {
        let start = u32_at(b, layout.in_off + 4 * t) as usize;
        let end = u32_at(b, layout.in_off + 4 * (t + 1)) as usize;
        for i in start..end {
            let off = layout.in_refs + 8 * i;
            let from = u32_at(b, off) as usize;
            let e = u32_at(b, off + 4) as usize;
            if from >= layout.n_nodes || e >= layout.n_edges {
                return Err(SnapshotError::BadIndex);
            }
            if owner[e] as usize != from {
                return Err(SnapshotError::Corrupt("in-ref source mismatch"));
            }
            if u32_at(b, layout.out_edges + 16 * e) as usize != t {
                return Err(SnapshotError::Corrupt("in-ref target mismatch"));
            }
        }
    }

    // Name index: a permutation of node ids with strictly increasing
    // (label, sense) keys — strictness also proves (label, sense) is
    // unique across nodes, which binary search and thawing rely on.
    let str_bounds = |sym: u32| -> (usize, usize) {
        let lo = u32_at(b, layout.str_off + 4 * sym as usize) as usize;
        let hi = u32_at(b, layout.str_off + 4 * (sym as usize + 1)) as usize;
        (layout.arena + lo, layout.arena + hi)
    };
    let node_key = |id: usize| -> (&[u8], u32) {
        let sym = u32_at(b, layout.node_tab + 8 * id);
        let sense = u32_at(b, layout.node_tab + 8 * id + 4);
        let (lo, hi) = str_bounds(sym);
        (&b[lo..hi], sense)
    };
    let mut prev_key: Option<(&[u8], u32)> = None;
    let mut seen_node = vec![false; layout.n_nodes];
    for i in 0..layout.n_nodes {
        let id = u32_at(b, layout.name_idx + 4 * i) as usize;
        if id >= layout.n_nodes {
            return Err(SnapshotError::BadIndex);
        }
        if std::mem::replace(&mut seen_node[id], true) {
            return Err(SnapshotError::Corrupt("name index not a permutation"));
        }
        let key = node_key(id);
        if let Some(p) = prev_key {
            if p >= key {
                return Err(SnapshotError::Corrupt("name index not strictly sorted"));
            }
        }
        prev_key = Some(key);
    }

    // Sorted edge index: each row span stays inside its row and is
    // strictly increasing by target.
    for f in 0..layout.n_nodes {
        let start = u32_at(b, layout.out_off + 4 * f) as usize;
        let end = u32_at(b, layout.out_off + 4 * (f + 1)) as usize;
        let mut prev_to: Option<u32> = None;
        for i in start..end {
            let e = u32_at(b, layout.edge_sorted + 4 * i) as usize;
            if e < start || e >= end {
                return Err(SnapshotError::Corrupt("sorted edge index out of row"));
            }
            let to = u32_at(b, layout.out_edges + 16 * e);
            if let Some(p) = prev_to {
                if p >= to {
                    return Err(SnapshotError::Corrupt("sorted edge index not sorted"));
                }
            }
            prev_to = Some(to);
        }
    }

    // Edge order: a permutation consistent with both adjacency
    // directions — replaying it must walk every out row and every in row
    // front to back. This is what makes thaw(pack(g)) reproduce g's
    // adjacency lists exactly.
    let mut seen_edge = vec![false; layout.n_edges];
    let mut out_cursor: Vec<u32> = (0..layout.n_nodes)
        .map(|f| u32_at(b, layout.out_off + 4 * f))
        .collect();
    let mut in_cursor: Vec<u32> = (0..layout.n_nodes)
        .map(|t| u32_at(b, layout.in_off + 4 * t))
        .collect();
    for i in 0..layout.n_edges {
        let e = u32_at(b, layout.edge_order + 4 * i) as usize;
        if e >= layout.n_edges {
            return Err(SnapshotError::BadIndex);
        }
        if std::mem::replace(&mut seen_edge[e], true) {
            return Err(SnapshotError::Corrupt("edge order not a permutation"));
        }
        let f = owner[e] as usize;
        if out_cursor[f] as usize != e {
            return Err(SnapshotError::Corrupt("edge order breaks out-row order"));
        }
        out_cursor[f] += 1;
        let t = u32_at(b, layout.out_edges + 16 * e) as usize;
        let in_end = u32_at(b, layout.in_off + 4 * (t + 1));
        if in_cursor[t] >= in_end {
            return Err(SnapshotError::Corrupt("in row shorter than edge order"));
        }
        if u32_at(b, layout.in_refs + 8 * in_cursor[t] as usize + 4) as usize != e {
            return Err(SnapshotError::Corrupt("edge order breaks in-row order"));
        }
        in_cursor[t] += 1;
    }

    Ok(layout)
}

/// An immutable, contiguous, mmap-able taxonomy graph. Cloning shares
/// the underlying buffer (O(1)).
#[derive(Clone)]
pub struct PackedGraph {
    buf: PackedBuf,
    layout: Layout,
}

impl std::fmt::Debug for PackedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedGraph")
            .field("nodes", &self.layout.n_nodes)
            .field("edges", &self.layout.n_edges)
            .field("bytes", &self.layout.total_len)
            .finish()
    }
}

impl PackedGraph {
    /// Validate and adopt an in-memory packed snapshot.
    pub fn from_bytes(bytes: Bytes) -> Result<Self, SnapshotError> {
        let layout = validate(&bytes)?;
        Ok(Self {
            buf: PackedBuf::Heap(bytes),
            layout,
        })
    }

    /// Validate and adopt owned packed bytes (convenience over
    /// [`PackedGraph::from_bytes`] for callers that do not hold a
    /// `Bytes` handle, e.g. WAL replay of a migration payload).
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        Self::from_bytes(Bytes::from(bytes))
    }

    /// Open a packed snapshot file. On unix the file is memory-mapped
    /// (zero-copy, page cache shared across processes); elsewhere it is
    /// read into memory. Either way the bytes are fully validated.
    pub fn open(path: &Path) -> Result<Self, PackedOpenError> {
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            let map = mapped::Mmap::map(&file)?;
            let layout = validate(map.as_slice())?;
            Ok(Self {
                buf: PackedBuf::Mapped(Arc::new(map)),
                layout,
            })
        }
        #[cfg(not(unix))]
        {
            let bytes = std::fs::read(path)?;
            Ok(Self::from_bytes(Bytes::from(bytes))?)
        }
    }

    /// The raw snapshot bytes (exactly what [`pack`] produced).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf.as_slice()[..self.layout.total_len]
    }

    /// Owned copy of the snapshot bytes — O(1) for heap-backed graphs,
    /// one memcpy for mapped ones. Checkpointing a still-packed store
    /// writes these bytes verbatim, preserving byte-identity without any
    /// re-encode.
    pub fn to_bytes(&self) -> Bytes {
        match &self.buf {
            PackedBuf::Heap(b) => b.clone(),
            #[cfg(unix)]
            PackedBuf::Mapped(_) => Bytes::copy_from_slice(self.as_bytes()),
        }
    }

    /// True when the buffer is a file mapping rather than heap memory.
    pub fn is_mapped(&self) -> bool {
        match &self.buf {
            PackedBuf::Heap(_) => false,
            #[cfg(unix)]
            PackedBuf::Mapped(_) => true,
        }
    }

    #[inline]
    fn b(&self) -> &[u8] {
        self.buf.as_slice()
    }

    fn string(&self, sym: u32) -> &str {
        let lo = u32_at(self.b(), self.layout.str_off + 4 * sym as usize) as usize;
        let hi = u32_at(self.b(), self.layout.str_off + 4 * (sym as usize + 1)) as usize;
        let bytes = &self.b()[self.layout.arena + lo..self.layout.arena + hi];
        // SAFETY: validated as UTF-8 once at open.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.layout.n_nodes
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.layout.n_edges
    }

    /// Label string of a node.
    pub fn label(&self, n: NodeId) -> &str {
        self.string(u32_at(self.b(), self.layout.node_tab + 8 * n.index()))
    }

    /// Sense number of a node.
    pub fn sense(&self, n: NodeId) -> u32 {
        u32_at(self.b(), self.layout.node_tab + 8 * n.index() + 4)
    }

    /// Display form: `label` for sense 0, `label#k` otherwise.
    pub fn display(&self, n: NodeId) -> String {
        let sense = self.sense(n);
        if sense == 0 {
            self.label(n).to_string()
        } else {
            format!("{}#{}", self.label(n), sense)
        }
    }

    #[inline]
    fn out_range(&self, n: NodeId) -> (usize, usize) {
        (
            u32_at(self.b(), self.layout.out_off + 4 * n.index()) as usize,
            u32_at(self.b(), self.layout.out_off + 4 * (n.index() + 1)) as usize,
        )
    }

    #[inline]
    fn in_range(&self, n: NodeId) -> (usize, usize) {
        (
            u32_at(self.b(), self.layout.in_off + 4 * n.index()) as usize,
            u32_at(self.b(), self.layout.in_off + 4 * (n.index() + 1)) as usize,
        )
    }

    #[inline]
    fn edge_at(&self, e: usize) -> (NodeId, EdgeData) {
        let off = self.layout.out_edges + 16 * e;
        (
            NodeId(u32_at(self.b(), off)),
            EdgeData {
                count: u32_at(self.b(), off + 4),
                plausibility: f64_at(self.b(), off + 8),
            },
        )
    }

    /// Children of `n` with edge data, in adjacency insertion order.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        let (start, end) = self.out_range(n);
        (start..end).map(move |e| self.edge_at(e))
    }

    /// Parents of `n` with edge data, in adjacency insertion order.
    pub fn parents(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        let (start, end) = self.in_range(n);
        (start..end).map(move |i| {
            let off = self.layout.in_refs + 8 * i;
            let from = NodeId(u32_at(self.b(), off));
            let e = u32_at(self.b(), off + 4) as usize;
            (from, self.edge_at(e).1)
        })
    }

    /// Out-degree of `n`.
    pub fn child_count(&self, n: NodeId) -> usize {
        let (start, end) = self.out_range(n);
        end - start
    }

    /// In-degree of `n`.
    pub fn parent_count(&self, n: NodeId) -> usize {
        let (start, end) = self.in_range(n);
        end - start
    }

    /// A node with no out-edges is an instance (leaf).
    pub fn is_instance(&self, n: NodeId) -> bool {
        self.child_count(n) == 0
    }

    /// Edge data for `from → to` via binary search of the row's sorted
    /// index — O(log deg) instead of the mutable graph's hash probe.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeData> {
        if from.index() >= self.layout.n_nodes {
            return None;
        }
        let (start, end) = self.out_range(from);
        let (mut lo, mut hi) = (start, end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = u32_at(self.b(), self.layout.edge_sorted + 4 * mid) as usize;
            let (t, data) = self.edge_at(e);
            match t.cmp(&to) {
                std::cmp::Ordering::Equal => return Some(data),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    #[inline]
    fn name_entry(&self, i: usize) -> NodeId {
        NodeId(u32_at(self.b(), self.layout.name_idx + 4 * i))
    }

    /// First name-index position whose (label, sense) key is ≥ the probe.
    fn name_lower_bound(&self, label: &[u8], sense: u32) -> usize {
        let (mut lo, mut hi) = (0usize, self.layout.n_nodes);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let id = self.name_entry(mid);
            let key = (self.label(id).as_bytes(), self.sense(id));
            if key < (label, sense) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Find the node for `(label, sense)`.
    pub fn find_node(&self, label: &str, sense: u32) -> Option<NodeId> {
        let i = self.name_lower_bound(label.as_bytes(), sense);
        if i >= self.layout.n_nodes {
            return None;
        }
        let id = self.name_entry(i);
        (self.label(id) == label && self.sense(id) == sense).then_some(id)
    }

    /// All senses of `label`, ascending by sense (a contiguous run of the
    /// sorted name index).
    pub fn senses_of(&self, label: &str) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut i = self.name_lower_bound(label.as_bytes(), 0);
        while i < self.layout.n_nodes {
            let id = self.name_entry(i);
            if self.label(id) != label {
                break;
            }
            out.push(id);
            i += 1;
        }
        out
    }

    /// Nodes whose label starts with `prefix`, in (label, sense) order —
    /// a range scan over the sorted name index.
    pub fn nodes_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        let start = self.name_lower_bound(prefix.as_bytes(), 0);
        (start..self.layout.n_nodes)
            .map(move |i| self.name_entry(i))
            .take_while(move |&id| self.label(id).as_bytes().starts_with(prefix.as_bytes()))
    }

    /// Iterate all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.layout.n_nodes as u32).map(NodeId)
    }

    /// Iterate all edges `(from, to, data)` in the recorded global
    /// insertion order (the `edge_order` section) — the order
    /// `ConceptGraph::edges` yields for the graph [`pack`] encoded.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeData)> + '_ {
        let mut owner = vec![0u32; self.layout.n_edges];
        for f in self.nodes() {
            let (start, end) = self.out_range(f);
            owner[start..end].fill(f.0);
        }
        (0..self.layout.n_edges).map(move |i| {
            let e = u32_at(self.b(), self.layout.edge_order + 4 * i) as usize;
            let (to, data) = self.edge_at(e);
            (NodeId(owner[e]), to, data)
        })
    }

    /// Concept nodes (non-leaves).
    pub fn concepts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| !self.is_instance(n))
    }

    /// Instance nodes (leaves).
    pub fn instances(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&n| self.is_instance(n))
    }

    /// Thaw into a mutable [`ConceptGraph`] with [`copy_graph`]: nodes
    /// are re-ensured in id order (reproducing the original interner
    /// exactly, since every symbol is first interned by `ensure_node`)
    /// and edges are replayed in the recorded global insertion order, so
    /// the result is structurally identical to the graph [`pack`]
    /// encoded — `pack(&packed.unpack()) == packed.as_bytes()`.
    pub fn unpack(&self) -> ConceptGraph {
        let mut g = ConceptGraph::new();
        copy_graph(self, std::slice::from_mut(&mut g), |_| Some(0));
        g
    }
}

impl GraphView for PackedGraph {
    fn node_count(&self) -> usize {
        PackedGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        PackedGraph::edge_count(self)
    }

    fn find_node(&self, label: &str, sense: u32) -> Option<NodeId> {
        PackedGraph::find_node(self, label, sense)
    }

    fn senses_of(&self, label: &str) -> Vec<NodeId> {
        PackedGraph::senses_of(self, label)
    }

    fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeData> {
        PackedGraph::edge(self, from, to)
    }

    fn children(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        PackedGraph::children(self, n)
    }

    fn parents(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeData)> + '_ {
        PackedGraph::parents(self, n)
    }

    fn child_count(&self, n: NodeId) -> usize {
        PackedGraph::child_count(self, n)
    }

    fn parent_count(&self, n: NodeId) -> usize {
        PackedGraph::parent_count(self, n)
    }

    fn is_instance(&self, n: NodeId) -> bool {
        PackedGraph::is_instance(self, n)
    }

    fn label(&self, n: NodeId) -> &str {
        PackedGraph::label(self, n)
    }

    fn sense(&self, n: NodeId) -> u32 {
        PackedGraph::sense(self, n)
    }

    fn display(&self, n: NodeId) -> String {
        PackedGraph::display(self, n)
    }

    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeData)> + '_ {
        PackedGraph::edges(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConceptGraph {
        let mut g = ConceptGraph::new();
        let animal = g.ensure_node("animal", 0);
        let dom = g.ensure_node("domestic animal", 0);
        let p0 = g.ensure_node("plant", 0);
        let p1 = g.ensure_node("plant", 1);
        let cat = g.ensure_node("cat", 0);
        let tree = g.ensure_node("tree", 0);
        // Interleave rows so global insertion order differs from
        // row-major order — the case edge_order exists for.
        g.add_evidence(dom, cat, 3);
        g.add_evidence(animal, dom, 5);
        g.add_evidence(p0, tree, 7);
        g.add_evidence(animal, cat, 10);
        g.add_evidence(p1, tree, 2);
        g.set_plausibility(animal, cat, 0.97);
        g.set_plausibility(dom, cat, 0.5);
        g
    }

    #[test]
    fn pack_roundtrip_preserves_reads() {
        let g = sample();
        let p = PackedGraph::from_bytes(pack(&g).expect("packs")).expect("validates");
        assert_eq!(p.node_count(), g.node_count());
        assert_eq!(p.edge_count(), g.edge_count());
        for n in g.nodes() {
            assert_eq!(p.label(n), g.label(n));
            assert_eq!(p.sense(n), g.sense(n));
            let gc: Vec<(NodeId, EdgeData)> = g.children(n).map(|(c, d)| (c, *d)).collect();
            let pc: Vec<(NodeId, EdgeData)> = p.children(n).collect();
            assert_eq!(gc, pc, "children of {n:?}");
            let gp: Vec<(NodeId, EdgeData)> = g.parents(n).map(|(c, d)| (c, *d)).collect();
            let pp: Vec<(NodeId, EdgeData)> = p.parents(n).collect();
            assert_eq!(gp, pp, "parents of {n:?}");
        }
        let animal = g.find_node("animal", 0).unwrap();
        let cat = g.find_node("cat", 0).unwrap();
        assert_eq!(p.find_node("animal", 0), Some(animal));
        assert_eq!(p.find_node("animal", 1), None);
        assert_eq!(p.find_node("missing", 0), None);
        assert_eq!(p.senses_of("plant"), g.senses_of("plant"));
        assert_eq!(p.edge(animal, cat), g.edge(animal, cat).copied());
        assert_eq!(p.edge(cat, animal), None);
    }

    #[test]
    fn pack_is_byte_deterministic() {
        let a = pack(&sample()).unwrap();
        let b = pack(&sample()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unpack_is_exact_inverse() {
        let g = sample();
        let bytes = pack(&g).unwrap();
        let p = PackedGraph::from_bytes(bytes.clone()).unwrap();
        let thawed = p.unpack();
        // Structural identity: repacking reproduces the bytes.
        assert_eq!(pack(&thawed).unwrap(), bytes);
        // Global edge order survived the trip.
        let orig: Vec<(NodeId, NodeId)> = g.edges().map(|(f, t, _)| (f, t)).collect();
        let back: Vec<(NodeId, NodeId)> = thawed.edges().map(|(f, t, _)| (f, t)).collect();
        assert_eq!(orig, back);
    }

    #[test]
    fn empty_graph_packs() {
        let g = ConceptGraph::new();
        let p = PackedGraph::from_bytes(pack(&g).unwrap()).unwrap();
        assert_eq!(p.node_count(), 0);
        assert_eq!(p.edge_count(), 0);
        assert_eq!(p.find_node("x", 0), None);
        assert!(p.senses_of("x").is_empty());
        assert_eq!(p.unpack().node_count(), 0);
    }

    #[test]
    fn legacy_bytes_rejected_with_clear_error() {
        // An empty v1 graph: magic, version 1, zero strings/nodes/edges —
        // shorter than a packed header, still named as v1.
        let mut legacy = Vec::new();
        for word in [LEGACY_MAGIC, 1, 0, 0, 0] {
            legacy.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(
            PackedGraph::from_vec(legacy).unwrap_err(),
            SnapshotError::LegacyNotPacked
        );
    }

    #[test]
    fn garbage_magic_rejected() {
        let mut b = pack(&sample()).unwrap().to_vec();
        b[0] ^= 0xFF;
        assert_eq!(
            PackedGraph::from_bytes(Bytes::from(b)).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn future_version_rejected() {
        let mut b = pack(&sample()).unwrap().to_vec();
        b[4] = 9;
        // Re-stamp the checksum so the version check is what fires.
        let crc = crc32(&b[CRC_START..]);
        put_u32(&mut b, 32, crc);
        assert_eq!(
            PackedGraph::from_bytes(Bytes::from(b)).unwrap_err(),
            SnapshotError::BadVersion(9)
        );
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let bytes = pack(&sample()).unwrap();
        for cut in 0..bytes.len() {
            let r = PackedGraph::from_bytes(bytes.slice(..cut));
            assert!(r.is_err(), "no error at cut {cut}");
        }
    }

    #[test]
    fn single_bit_flips_rejected() {
        let bytes = pack(&sample()).unwrap();
        // Every byte, one flipped bit — the crc/count cross-checks must
        // catch all of them.
        for i in 0..bytes.len() {
            let mut b = bytes.to_vec();
            b[i] ^= 1 << (i % 8);
            assert!(
                PackedGraph::from_bytes(Bytes::from(b)).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn open_maps_file_and_reads_identically() {
        let g = sample();
        let bytes = pack(&g).unwrap();
        let dir = std::env::temp_dir().join(format!("probase-packed-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pbp");
        std::fs::write(&path, &bytes).unwrap();
        let p = PackedGraph::open(&path).unwrap();
        #[cfg(unix)]
        assert!(p.is_mapped());
        assert_eq!(p.as_bytes(), &bytes[..]);
        assert_eq!(p.node_count(), g.node_count());
        let animal = g.find_node("animal", 0).unwrap();
        let cat = g.find_node("cat", 0).unwrap();
        assert_eq!(p.edge(animal, cat).unwrap().count, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefix_scan_walks_sorted_names() {
        let mut g = ConceptGraph::new();
        g.ensure_node("planet", 0);
        g.ensure_node("plant", 1);
        g.ensure_node("plant", 0);
        g.ensure_node("animal", 0);
        let p = PackedGraph::from_bytes(pack(&g).unwrap()).unwrap();
        let hits: Vec<String> = p.nodes_with_prefix("plan").map(|n| p.display(n)).collect();
        assert_eq!(hits, ["planet", "plant", "plant#1"]);
        assert_eq!(p.nodes_with_prefix("z").count(), 0);
    }

    #[test]
    fn edge_lookup_binary_search_covers_large_rows() {
        let mut g = ConceptGraph::new();
        let hub = g.ensure_node("hub", 0);
        let ids: Vec<NodeId> = (0..200)
            .map(|i| g.ensure_node(&format!("leaf {i:03}"), 0))
            .collect();
        // Insert in a scrambled order so the sorted index differs from
        // row order.
        for (k, &id) in ids.iter().enumerate().rev() {
            g.add_evidence(hub, id, k as u32 + 1);
        }
        let p = PackedGraph::from_bytes(pack(&g).unwrap()).unwrap();
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(p.edge(hub, id).unwrap().count, k as u32 + 1);
        }
        assert_eq!(p.edge(ids[0], hub), None);
    }
}
