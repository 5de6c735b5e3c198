//! # flash-obs
//!
//! Dependency-free structured tracing and machine-readable metrics for the
//! FLASH framework. Four pieces:
//!
//! * [`json`] — a hand-rolled JSON value type with a compact/pretty writer
//!   and a parser (the workspace builds offline, so there is no
//!   `serde_json`);
//! * [`event`] — the [`Event`]/[`EventKind`] model the runtime emits:
//!   run/superstep spans, per-worker phase timings, barrier skew,
//!   message/byte counts, sync-plan and adaptive-kernel decisions;
//! * [`sink`] — the [`Sink`] trait plus [`NullSink`], [`CollectSink`],
//!   [`JsonLinesSink`], and [`TextSink`];
//! * [`metrics`] — the deterministic log2-bucketed [`Histogram`] with
//!   p50/p90/p99/max that serving latency and the stats JSON's `metrics`
//!   block render.
//!
//! The runtime (`flash-runtime`) owns the emission sites; this crate only
//! defines the vocabulary, so it stays a leaf with zero dependencies.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{Event, EventKind, Field, SCHEMA};
pub use json::Json;
pub use metrics::Histogram;
pub use sink::{CollectSink, JsonLinesSink, NullSink, Sink, TextSink};

/// Version of the JSONL trace schema. Bumped whenever an event's JSON
/// shape changes incompatibly; the `run_meta` header event carries it so
/// analyzers (`flash_trace`) can refuse traces they do not understand.
pub const TRACE_SCHEMA_VERSION: u64 = 9;
