//! Per-layer metrics: the fixed name list, and the fold of `RunStats` public
//! fields into it. Phase durations inside `algos.run` carry no timestamps,
//! so they are aggregates read from the returned stats, not spans.

use flash_runtime::{RunStats, StepKind};
use std::collections::BTreeMap;

/// Every per-layer metric, in `BENCHMARK.json` order. A metric that does not
/// apply to a workload is reported as 0 there.
pub const NAMES: &[&str] = &[
    "graph.gen_s",
    "graph.vertices",
    "graph.arcs",
    "graph.partition_build_s",
    "graph.replication_factor",
    "graph.blocks_write_s",
    "graph.blocks_open_s",
    "graph.streamed_bytes",
    "graph.streamed_blocks",
    "graph.block_cache_hit_frac",
    "graph.heap_bytes",
    "graph.mapped_bytes",
    "graph.overlay_apply_s",
    "core.context_build_s",
    "core.steps_vmap",
    "core.steps_dense",
    "core.steps_sparse",
    "core.steps_global",
    "core.dense_s",
    "core.sparse_s",
    "core.vmap_s",
    "core.global_s",
    "core.active_sum",
    "runtime.supersteps",
    "runtime.compute_s",
    "runtime.compute_max_s",
    "runtime.barrier_skew_s",
    "runtime.serialize_s",
    "runtime.communicate_s",
    "runtime.delivery_s",
    "runtime.upd_bytes",
    "runtime.sync_bytes",
    "runtime.upd_messages",
    "runtime.sync_messages",
    "runtime.resident_state_bytes",
    "runtime.residual_s",
    "runtime.step_overhead_s",
    "runtime.per_step_us",
    "runtime.ckpt_generations",
    "runtime.ckpt_delta_frames",
    "runtime.ckpt_bytes_fsynced",
    "runtime.ckpt_bytes",
    "runtime.ckpt_s",
    "runtime.session_new_s",
    "runtime.pool_reuse_frac",
    "algos.q_bfs_p50_ms",
    "algos.q_sssp_p50_ms",
    "algos.q_cc_p50_ms",
    "algos.q_pagerank_p50_ms",
    "algos.update_p50_ms",
    "algos.cc_repair_s",
    "algos.pr_repair_s",
    "algos.pr_repair_sweeps",
    "obs.events",
    "obs.trace_overhead_frac",
    "obs.metrics_overhead_frac",
    "bench.rep_spread_frac",
    "bench.span_overhead_frac",
    "bench.oracle_s",
];

/// Per-layer counters that must repeat exactly for one seed, across reps and
/// across processes; `run.sh --aa` compares them.
pub const EXACT: &[&str] = &[
    "graph.vertices",
    "graph.arcs",
    "graph.streamed_bytes",
    "graph.streamed_blocks",
    "core.steps_vmap",
    "core.steps_dense",
    "core.steps_sparse",
    "core.steps_global",
    "core.active_sum",
    "runtime.supersteps",
    "runtime.upd_bytes",
    "runtime.sync_bytes",
    "runtime.upd_messages",
    "runtime.sync_messages",
    "runtime.ckpt_generations",
    "runtime.ckpt_delta_frames",
    "runtime.ckpt_bytes_fsynced",
    "runtime.ckpt_bytes",
    "algos.pr_repair_sweeps",
    "obs.events",
];

/// The unit follows from the name's suffix, so the two cannot drift apart.
pub fn unit(name: &str) -> &'static str {
    match name.rsplit('_').next() {
        Some("s") => "s",
        Some("ms") => "ms",
        Some("us") => "us",
        Some("bytes") | Some("fsynced") => "B",
        Some("frac") => "frac",
        Some("factor") => "ratio",
        _ => "count",
    }
}

pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Block touches served from cache; `finish` turns them into a fraction.
    cache_hits: f64,
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            values: NAMES.iter().map(|&n| (n, 0.0)).collect(),
            cache_hits: 0.0,
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        self.values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(name, value)` in `NAMES` order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        NAMES.iter().map(|&n| (n, self.values[n]))
    }

    /// Adds one run's counters and phase times. A batch workload absorbs one
    /// rep; `serve_mix` absorbs every query of the traced stream.
    pub fn absorb(&mut self, stats: &RunStats) {
        for s in stats.steps() {
            let (count, time) = match s.kind {
                StepKind::VertexMap => ("core.steps_vmap", "core.vmap_s"),
                StepKind::EdgeMapDense => ("core.steps_dense", "core.dense_s"),
                StepKind::EdgeMapSparse => ("core.steps_sparse", "core.sparse_s"),
                StepKind::Global => ("core.steps_global", "core.global_s"),
            };
            let phases = s.compute + s.serialize + s.communicate + s.delivery;
            self.add(count, 1.0);
            self.add(time, phases.as_secs_f64());
            self.add("core.active_sum", s.active as f64);
            self.add("runtime.supersteps", 1.0);
            self.add("runtime.compute_s", s.compute.as_secs_f64());
            self.add("runtime.compute_max_s", s.compute_max.as_secs_f64());
            self.add("runtime.barrier_skew_s", s.barrier_skew().as_secs_f64());
            self.add("runtime.serialize_s", s.serialize.as_secs_f64());
            self.add("runtime.communicate_s", s.communicate.as_secs_f64());
            self.add("runtime.delivery_s", s.delivery.as_secs_f64());
            self.add("runtime.upd_bytes", s.upd_bytes as f64);
            self.add("runtime.sync_bytes", s.sync_bytes as f64);
            self.add("runtime.upd_messages", s.upd_messages as f64);
            self.add("runtime.sync_messages", s.sync_messages as f64);
            self.add("graph.streamed_bytes", s.streamed_bytes as f64);
            self.add("graph.streamed_blocks", s.streamed_blocks as f64);
            self.cache_hits += s.block_cache_hits as f64;
        }
        let d = &stats.durability;
        self.add("runtime.ckpt_generations", d.generations_written as f64);
        self.add("runtime.ckpt_delta_frames", d.delta_frames as f64);
        self.add("runtime.ckpt_bytes_fsynced", d.bytes_fsynced as f64);
        self.add("runtime.ckpt_bytes", stats.recovery.checkpoint_bytes as f64);
        let st = &stats.storage;
        for (name, v) in [
            ("runtime.resident_state_bytes", st.resident_state_bytes),
            ("graph.heap_bytes", st.graph_heap_bytes),
            ("graph.mapped_bytes", st.graph_mapped_bytes),
        ] {
            let slot = self.slot(name);
            *slot = slot.max(v as f64);
        }
    }

    /// Derives the metrics that need the wall clock of the absorbed runs:
    /// `residual_s` is that wall minus every reported phase, so phases plus
    /// residual equal the wall by construction. `build_s` is the part of the
    /// residual spent building partitions and contexts, timed on its own;
    /// what remains is per-superstep overhead.
    pub fn finish(&mut self, wall_s: f64, build_s: f64) {
        let phases = ["compute_s", "serialize_s", "communicate_s", "delivery_s"]
            .iter()
            .map(|p| self.get(&format!("runtime.{p}")))
            .sum::<f64>();
        let residual = wall_s - phases;
        self.set("runtime.residual_s", residual);
        self.set("runtime.step_overhead_s", residual - build_s);
        let steps = self.get("runtime.supersteps");
        if steps > 0.0 {
            self.set("runtime.per_step_us", wall_s * 1e6 / steps);
        }
        // `streamed_blocks` counts misses only.
        let touches = self.cache_hits + self.get("graph.streamed_blocks");
        if touches > 0.0 {
            self.set("graph.block_cache_hit_frac", self.cache_hits / touches);
        }
    }
}
