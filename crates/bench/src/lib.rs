#![warn(missing_docs)]

//! # flash-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) over
//! the synthetic Table III stand-ins (see DESIGN.md §3 for the full
//! experiment index):
//!
//! | Binary                 | Reproduces |
//! |------------------------|------------|
//! | `paper <name>…`        | Tables I and III; Tables V/VI, Figure 1 and the §V-B verdicts from one evaluation matrix ([`harness::run`], `results/matrix.json`); Figures 3, 4(a), 4(b), 4(c,d), the §V-E breakdown and the PageRank ns/arc ladder (`cost`; `paper` alone runs all) |
//! | `flash`                | the command-line runner: one algorithm on one dataset or edge list ([`cli`]) |
//! | `flash_trace`          | critical-path analyzer over `--trace` JSONL files, with Chrome trace export ([`trace`]) |
//!
//! Every algorithm they run is a row of [`catalogue::CATALOGUE`]. Every
//! `paper` section writes a machine-readable JSON artifact via
//! [`jsonio`] alongside its text table.

pub mod catalogue;
pub mod cli;
pub mod harness;
pub mod jsonio;
pub mod lloc;
pub mod report;
pub mod trace;
