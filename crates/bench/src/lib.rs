//! # probase-bench
//!
//! The benchmark harness: one `exp_*` binary per table and figure of the
//! paper (see DESIGN.md §5 for the index), plus Criterion
//! micro-benchmarks per pipeline stage in `benches/`.
//!
//! `cargo run --release -p probase-bench --bin exp_all` regenerates every
//! experiment into one report.

pub mod common;
pub mod exp_ablation;
pub mod exp_apps;
pub mod exp_precision;
pub mod exp_scale;
