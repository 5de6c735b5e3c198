#![warn(missing_docs)]

//! # flash-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) over
//! the synthetic Table III stand-ins (see DESIGN.md §3 for the full
//! experiment index):
//!
//! | Binary                 | Reproduces |
//! |------------------------|------------|
//! | `table1_lloc`          | Table I (logical lines of code) |
//! | `table3_datasets`      | Table III (dataset characteristics) |
//! | `table5_runtime`       | Table V (first eight applications) |
//! | `table6_runtime`       | Table VI (last six applications) |
//! | `fig1_heatmap`         | Figure 1 (slowdown heat map) |
//! | `fig3_bfs_modes`       | Figure 3 (push/pull/adaptive BFS) |
//! | `fig4a_mm_frontier`    | Figure 4a (MM frontier sizes) |
//! | `fig4b_scaling_cores`  | Figure 4b (intra-node scaling) |
//! | `fig4cd_scaling_nodes` | Figure 4c/d (inter-node scaling) |
//! | `fig5_breakdown`       | §V-E (time breakdown) |
//! | `summary_verdicts`     | §V-B headline claims |
//! | `bench_flash`          | aggregate `BENCH_flash.json` snapshot, plus the exact `--baseline` regression gate ([`baseline`]) |
//! | `fig_robust`           | the five fault-family bit-identity suites ([`robust`]) |
//! | `flash_trace`          | critical-path analyzer over `--trace` JSONL files, with Chrome trace export ([`trace`]) |
//!
//! Every binary writes a machine-readable JSON artifact via [`jsonio`]
//! alongside its text table.

pub mod baseline;
pub mod cli;
pub mod harness;
pub mod jsonio;
pub mod lloc;
pub mod report;
pub mod robust;
pub mod serve;
pub mod trace;

pub use harness::{App, Framework, RunResult, Scale};
