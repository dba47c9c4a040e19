//! # probase-store
//!
//! In-memory concept-graph store: the reproduction's stand-in for the
//! Trinity graph engine that hosts Probase in the paper (§5, [29, 30]).
//!
//! The store holds the taxonomy DAG produced by `probase-taxonomy` and
//! annotated by `probase-prob`: interned labels, sense-disambiguated
//! nodes, counted and weighted isA edges, plus the queries every
//! downstream application needs — instances-of, concepts-of, level
//! computation, degree statistics (paper Table 4), and snapshot
//! persistence.
//!
//! ## Layout
//!
//! * [`intern`] — string interning ([`intern::Symbol`], [`intern::Interner`]).
//! * [`hash`] — the FxHash-style fast hasher used by every hot map.
//! * [`graph`] — the [`graph::ConceptGraph`] itself.
//! * [`query`] — levels, statistics, reachability (generic over [`view::GraphView`]).
//! * [`packed`] — snapshot persistence: the zero-copy packed (v2) format,
//!   the mmap-able CSR [`packed::PackedGraph`] whose in-memory layout is
//!   the on-disk format. It is the only graph encoding.
//! * [`view`] — the [`view::GraphView`] read abstraction both graph
//!   representations implement.
//! * [`handle`] — [`handle::GraphHandle`], the mutable-or-packed unit of
//!   hot swap.
//! * [`dot`] — GraphViz export for eyeballing sense separation.
//! * [`shared`] — concurrent serving wrapper (many readers, one writer).
//! * [`sync`] — `Mutex`/`RwLock` over std's that ignore lock poisoning.
//! * [`wal`] — checksummed write-ahead log for durable serve-path writes.
//! * [`shard`] — partitioned `shard-N/` durability layout for sharded serving.
//! * [`component`] — graph surgery: the one graph-copy routine and the
//!   one label-connectivity rule, behind partitioning, migration and thaw.

#![warn(missing_docs)]

pub mod component;
pub mod dot;
pub mod graph;
pub mod handle;
pub mod hash;
pub mod intern;
pub mod packed;
pub mod query;
pub mod shard;
pub mod shared;
pub mod sync;
pub mod view;
pub mod wal;

pub use component::{
    component_summary, copy_graph, export_component, merge_subgraph, remove_labels, LabelComponents,
};
pub use dot::{to_dot, DotOptions};
pub use graph::{ConceptGraph, EdgeData, NodeId};
pub use handle::GraphHandle;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::{Interner, Symbol};
pub use packed::{pack, PackedGraph, PackedOpenError, SnapshotError};
pub use query::{GraphStats, LevelMap};
pub use shard::{discover_shard_dirs, provision_shard_dirs, shard_dir};
pub use shared::SharedStore;
pub use view::GraphView;
pub use wal::{WalEntry, WalOp, WalSync};
