//! Per-superstep execution statistics.
//!
//! The §V-E time breakdown divides execution into computation,
//! communication and serialization; every superstep records those buckets
//! plus exact message/byte counts, which also back Fig. 4(a)'s frontier
//! sizes. [`RunStats`] is the only in-process record of a run: its totals
//! and its `metrics` histograms are folds over the same [`StepStats`].

use flash_obs::{Histogram, Json};
use std::time::Duration;

/// Renders a duration in nanoseconds (saturating at `u64::MAX`, ~584
/// years — unreachable for measured phases).
pub fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Which kernel a superstep ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// `VERTEXMAP` (local compute + mirror sync).
    VertexMap,
    /// `EDGEMAPDENSE` (pull).
    EdgeMapDense,
    /// `EDGEMAPSPARSE` (push, two message rounds).
    EdgeMapSparse,
    /// A global auxiliary operator (`REDUCE`, gather, fold).
    Global,
}

impl StepKind {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            StepKind::VertexMap => "vmap",
            StepKind::EdgeMapDense => "dense",
            StepKind::EdgeMapSparse => "sparse",
            StepKind::Global => "global",
        }
    }
}

/// Statistics of one superstep.
#[derive(Clone, Debug)]
pub struct StepStats {
    /// Kernel kind.
    pub kind: StepKind,
    /// Size of the input active set (frontier), when the kernel has one.
    pub active: usize,
    /// Mirror→master messages (sparse phase 2) crossing workers.
    pub upd_messages: u64,
    /// Bytes of mirror→master messages crossing workers.
    pub upd_bytes: u64,
    /// Master→mirror synchronization messages crossing workers.
    pub sync_messages: u64,
    /// Bytes of master→mirror synchronization crossing workers.
    pub sync_bytes: u64,
    /// Wall time of the compute phase (on a single-core host, the *sum*
    /// of all workers' compute time, since threads timeshare).
    pub compute: Duration,
    /// Maximum per-worker compute time — what the phase would cost on a
    /// cluster with one core per worker (the BSP parallel makespan).
    pub compute_max: Duration,
    /// Minimum per-worker compute time. The gap to [`StepStats::compute_max`]
    /// is the *barrier skew*: how long the fastest worker idles at the BSP
    /// barrier waiting for the slowest (§V-E load-balance discussion).
    pub compute_min: Duration,
    /// Wall time spent materializing and routing message buffers.
    pub serialize: Duration,
    /// Serialization makespan on an ideal one-core-per-worker cluster: the
    /// slowest bucketing lane's time (equal to [`StepStats::serialize`]
    /// when bucketing ran on one lane). The serialize-phase analogue of
    /// [`StepStats::compute_max`], and what
    /// [`RunStats::simulated_parallel_time`] charges.
    pub serialize_max: Duration,
    /// Wall time of folding staged updates into masters and of the serial
    /// mirror-sync pass that copies and counts each written master's
    /// payload.
    pub communicate: Duration,
    /// Wall time of the reliable-delivery protocol (ack/retransmit rounds
    /// run by [`crate::transport::Transport`]); zero without channel
    /// faults.
    pub delivery: Duration,
    /// Simulated network time (see [`crate::netmodel::NetworkModel`]).
    pub simulated_net: Duration,
    /// Block bytes streamed from out-of-core storage this superstep
    /// (zero outside [`StorageMode::Block`](crate::StorageMode) runs).
    pub streamed_bytes: u64,
    /// Edge blocks streamed from out-of-core storage this superstep.
    pub streamed_blocks: u64,
    /// Block touches served from a worker's dense-block cache.
    pub block_cache_hits: u64,
}

impl StepStats {
    pub(crate) fn new(kind: StepKind, active: usize) -> Self {
        StepStats {
            kind,
            active,
            upd_messages: 0,
            upd_bytes: 0,
            sync_messages: 0,
            sync_bytes: 0,
            compute: Duration::ZERO,
            compute_max: Duration::ZERO,
            compute_min: Duration::ZERO,
            serialize: Duration::ZERO,
            serialize_max: Duration::ZERO,
            communicate: Duration::ZERO,
            delivery: Duration::ZERO,
            simulated_net: Duration::ZERO,
            streamed_bytes: 0,
            streamed_blocks: 0,
            block_cache_hits: 0,
        }
    }

    /// Total cross-worker bytes this superstep.
    pub fn total_bytes(&self) -> u64 {
        self.upd_bytes + self.sync_bytes
    }

    /// Total cross-worker messages this superstep.
    pub fn total_messages(&self) -> u64 {
        self.upd_messages + self.sync_messages
    }

    /// Barrier skew: `compute_max − compute_min`, the idle time the fastest
    /// worker spends waiting at the superstep barrier.
    pub fn barrier_skew(&self) -> Duration {
        self.compute_max.saturating_sub(self.compute_min)
    }

    /// Machine-readable rendering of this superstep. Every phase is an
    /// exact ns field, so sub-µs steps never flatten to zero.
    pub fn to_json(&self) -> Json {
        let mut j = Json::object()
            .set("kind", self.kind.label())
            .set("active", self.active)
            .set("upd_messages", self.upd_messages)
            .set("upd_bytes", self.upd_bytes)
            .set("sync_messages", self.sync_messages)
            .set("sync_bytes", self.sync_bytes)
            .set("compute_ns", ns_u64(self.compute))
            .set("compute_max_ns", ns_u64(self.compute_max))
            .set("compute_min_ns", ns_u64(self.compute_min))
            .set("barrier_skew_ns", ns_u64(self.barrier_skew()))
            .set("serialize_ns", ns_u64(self.serialize))
            .set("serialize_max_ns", ns_u64(self.serialize_max))
            .set("communicate_ns", ns_u64(self.communicate))
            .set("delivery_ns", ns_u64(self.delivery))
            .set("simulated_net_ns", ns_u64(self.simulated_net));
        // Streaming counters appear only on block-storage supersteps, so
        // in-memory stats JSON stays byte-for-byte what it always was.
        if self.streamed_bytes + self.streamed_blocks + self.block_cache_hits > 0 {
            j = j
                .set("streamed_bytes", self.streamed_bytes)
                .set("streamed_blocks", self.streamed_blocks)
                .set("block_cache_hits", self.block_cache_hits);
        }
        j
    }
}

/// Fault-tolerance counters of a run: checkpoint, fault-injection and
/// rollback/replay activity (all zero on fault-free runs). See
/// [`crate::fault`] and [`crate::checkpoint`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints taken at superstep boundaries.
    pub checkpoints: u64,
    /// Serialized bytes of all checkpoints (masters only).
    pub checkpoint_bytes: u64,
    /// Simulated time spent persisting checkpoints.
    pub checkpoint_time: Duration,
    /// Crash/corrupted-sync faults injected (each detected at a barrier).
    pub faults_injected: u64,
    /// Straggler delays injected.
    pub stragglers: u64,
    /// Total compute delay charged to stragglers.
    pub straggler_delay: Duration,
    /// Rollbacks performed (one per recovery retry).
    pub rollbacks: u64,
    /// Supersteps replayed from the redo log across all rollbacks.
    pub replayed_supersteps: u64,
    /// Accumulated capped exponential retry backoff (simulated, not slept).
    pub retry_backoff: Duration,
    /// Simulated network time of checkpoint restores and delta replays.
    pub replay_net: Duration,
    /// Membership epochs entered (one per rebalance or rejoin; zero on a
    /// run with stable membership).
    pub membership_epochs: u64,
    /// Workers declared permanently dead (by an exhausted `die` fault or a
    /// failure-detector deadline).
    pub workers_lost: u64,
    /// Previously dead workers that rejoined the cluster.
    pub workers_rejoined: u64,
    /// Master vertices migrated between hosts by membership changes.
    pub vertices_migrated: u64,
    /// Serialized bytes of migrated master state.
    pub migrated_bytes: u64,
    /// Simulated network time of state migration (transfer bytes plus one
    /// routing-rebuild round per moved partition).
    pub migration_net: Duration,
}

impl RecoveryStats {
    /// Total simulated recovery overhead added to the parallel runtime:
    /// checkpoint persistence + retry backoff + rollback/replay traffic +
    /// membership-change migration traffic. Straggler delay is *not*
    /// included — it is already charged into the affected superstep's
    /// `compute_max`.
    pub fn overhead(&self) -> Duration {
        self.checkpoint_time + self.retry_backoff + self.replay_net + self.migration_net
    }

    /// Machine-readable rendering (durations in exact ns).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("checkpoints", self.checkpoints)
            .set("checkpoint_bytes", self.checkpoint_bytes)
            .set("checkpoint_ns", ns_u64(self.checkpoint_time))
            .set("faults_injected", self.faults_injected)
            .set("stragglers", self.stragglers)
            .set("straggler_delay_ns", ns_u64(self.straggler_delay))
            .set("rollbacks", self.rollbacks)
            .set("replayed_supersteps", self.replayed_supersteps)
            .set("retry_backoff_ns", ns_u64(self.retry_backoff))
            .set("replay_net_ns", ns_u64(self.replay_net))
            .set("membership_epochs", self.membership_epochs)
            .set("workers_lost", self.workers_lost)
            .set("workers_rejoined", self.workers_rejoined)
            .set("vertices_migrated", self.vertices_migrated)
            .set("migrated_bytes", self.migrated_bytes)
            .set("migration_net_ns", ns_u64(self.migration_net))
            .set("overhead_ns", ns_u64(self.overhead()))
    }
}

/// Reliable-delivery counters of a run: lossy-channel activity and the
/// ack/retransmit protocol's work (all zero on runs without channel
/// faults). See [`crate::transport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Cross-host batches handed to the transport (one per
    /// (sender-host, receiver-host) pair per message round).
    pub batches_sent: u64,
    /// Transmission attempts lost on the wire (scripted `drop@` or
    /// probabilistic `loss=`).
    pub batches_dropped: u64,
    /// Batches delivered more than once by the channel (scripted `dup@` or
    /// probabilistic `dupRate=`).
    pub batches_duplicated: u64,
    /// Batches delayed past the ack deadline by a scripted `reorder@`,
    /// arriving a round late alongside their own retransmission.
    pub batches_reordered: u64,
    /// Retransmissions performed after a missed ack.
    pub retransmits: u64,
    /// Payload bytes re-shipped by retransmissions.
    pub retransmitted_bytes: u64,
    /// Batch copies discarded by the receive-side dedup window.
    pub dedup_hits: u64,
    /// Batch copies rejected for a wire-checksum mismatch (each nacked and
    /// retransmitted).
    pub checksum_failures: u64,
    /// Simulated network time of all retransmissions (one ack-deadline
    /// round of latency plus the re-shipped bytes, per retransmit).
    pub retransmit_net: Duration,
}

impl DeliveryStats {
    /// Total simulated delivery overhead added to the parallel runtime:
    /// the retransmission traffic charged through the network model.
    pub fn overhead(&self) -> Duration {
        self.retransmit_net
    }

    /// Machine-readable rendering (durations in exact ns).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("batches_sent", self.batches_sent)
            .set("batches_dropped", self.batches_dropped)
            .set("batches_duplicated", self.batches_duplicated)
            .set("batches_reordered", self.batches_reordered)
            .set("retransmits", self.retransmits)
            .set("retransmitted_bytes", self.retransmitted_bytes)
            .set("dedup_hits", self.dedup_hits)
            .set("checksum_failures", self.checksum_failures)
            .set("retransmit_net_ns", ns_u64(self.retransmit_net))
            .set("overhead_ns", ns_u64(self.overhead()))
    }
}

/// Replicated control-plane counters of a run: elections held, log
/// entries committed by majority, and byzantine accusations (all zero on
/// runs without a fault plan). See [`crate::consensus`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsensusStats {
    /// Elections held: the initial election plus every re-election after a
    /// leader crash.
    pub elections: u64,
    /// Leader hosts crashed by `leader@` faults.
    pub leader_crashes: u64,
    /// Entries appended to the replicated decision log.
    pub entries_appended: u64,
    /// Entries committed by a majority of live hosts (and only then
    /// applied).
    pub entries_committed: u64,
    /// Workers accused of lying by the checksum quorum and escalated to a
    /// death declaration.
    pub accusations: u64,
    /// Simulated network time of election rounds (vote request and grant
    /// per live host).
    pub election_net: Duration,
    /// Simulated network time of log replication (append and ack per live
    /// host, per committed entry).
    pub commit_net: Duration,
}

impl ConsensusStats {
    /// Total simulated control-plane overhead added to the parallel
    /// runtime: election traffic plus log-replication traffic.
    pub fn overhead(&self) -> Duration {
        self.election_net + self.commit_net
    }

    /// Machine-readable rendering (durations in exact ns).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("elections", self.elections)
            .set("leader_crashes", self.leader_crashes)
            .set("entries_appended", self.entries_appended)
            .set("entries_committed", self.entries_committed)
            .set("accusations", self.accusations)
            .set("election_net_ns", ns_u64(self.election_net))
            .set("commit_net_ns", ns_u64(self.commit_net))
            .set("overhead_ns", ns_u64(self.overhead()))
    }
}

/// Durable-checkpoint-store counters of a run: generations committed to
/// disk, bytes fsynced, and the scrub pass's damage accounting (all zero
/// on runs without a durable directory). See [`crate::durable`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Checkpoint generations committed to disk (tmp + fsync + rename +
    /// directory fsync).
    pub generations_written: u64,
    /// Bytes written and synced: each generation file (header and
    /// checkpoint frame) once.
    pub bytes_fsynced: u64,
    /// Always 0: the store writes checkpoint frames only (DESIGN.md §15).
    /// Kept because readers of the stats, such as the benchmark's
    /// per-layer table, still report it.
    pub delta_frames: u64,
    /// Generations the scrub pass condemned (and skipped) at open.
    pub scrub_repairs: u64,
    /// Times the scrub pass fell back to an older generation because a
    /// newer one was damaged.
    pub fallbacks: u64,
    /// Generation commits that failed — an injected `ioerr@` fault or a
    /// real I/O error. Each is retried at the next superstep; until one
    /// lands, a resume recomputes from the previous generation.
    pub io_errors: u64,
    /// On a resumed run, the step of the loaded checkpoint: the
    /// supersteps whose state the disk vouched for. Later supersteps are
    /// recomputed.
    pub resumed_steps: u64,
}

impl DurabilityStats {
    /// Machine-readable rendering.
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("generations_written", self.generations_written)
            .set("bytes_fsynced", self.bytes_fsynced)
            .set("delta_frames", self.delta_frames)
            .set("scrub_repairs", self.scrub_repairs)
            .set("fallbacks", self.fallbacks)
            .set("io_errors", self.io_errors)
            .set("resumed_steps", self.resumed_steps)
    }
}

/// Storage-engine facts of a run: which engine served the adjacency and
/// how much state stayed resident. All-defaults on in-memory runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageInfo {
    /// Engine label: `"in-memory"` (default) or `"block"`.
    pub mode: &'static str,
    /// Peak resident vertex-state bytes across all workers (replicated
    /// master+mirror arrays) — the state that must fit in memory when the
    /// adjacency streams from disk.
    pub resident_state_bytes: u64,
    /// Graph bytes on the owned heap (adjacency arrays, in-memory mode).
    pub graph_heap_bytes: u64,
    /// Graph bytes served from the mapped block file.
    pub graph_mapped_bytes: u64,
    /// Non-empty dense blocks in the M-Flash grid (0 when in-memory).
    pub dense_blocks: u64,
    /// Non-empty sparse blocks in the M-Flash grid (0 when in-memory).
    pub sparse_blocks: u64,
}

impl Default for StorageInfo {
    fn default() -> Self {
        StorageInfo {
            mode: "in-memory",
            resident_state_bytes: 0,
            graph_heap_bytes: 0,
            graph_mapped_bytes: 0,
            dense_blocks: 0,
            sparse_blocks: 0,
        }
    }
}

impl StorageInfo {
    /// Machine-readable rendering (the `storage` object of the summary).
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("mode", self.mode)
            .set("peak_resident_state_bytes", self.resident_state_bytes)
            .set("graph_heap_bytes", self.graph_heap_bytes)
            .set("graph_mapped_bytes", self.graph_mapped_bytes)
            .set("dense_blocks", self.dense_blocks)
            .set("sparse_blocks", self.sparse_blocks)
    }
}

/// One [`StepStats`] duration, as the `metrics` block samples it.
type Phase = fn(&StepStats) -> Duration;

/// The `metrics` block's histograms, one per [`StepStats`] duration.
const PHASES: [(&str, Phase); 8] = [
    ("step/compute_ns", |s| s.compute),
    ("step/compute_max_ns", |s| s.compute_max),
    ("step/barrier_skew_ns", StepStats::barrier_skew),
    ("step/serialize_ns", |s| s.serialize),
    ("step/serialize_max_ns", |s| s.serialize_max),
    ("step/communicate_ns", |s| s.communicate),
    ("step/delivery_ns", |s| s.delivery),
    ("step/simulated_net_ns", |s| s.simulated_net),
];

/// The rendered [`Histogram`] of `samples`.
fn histogram(samples: impl Iterator<Item = u64>) -> Json {
    let mut h = Histogram::new();
    samples.for_each(|v| h.record(v));
    h.to_json()
}

/// Accumulated statistics of a run (a sequence of supersteps).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    steps: Vec<StepStats>,
    /// Fault-tolerance activity of the run (zeros when no fault plan or
    /// checkpointing was configured).
    pub recovery: RecoveryStats,
    /// Reliable-delivery activity of the run (zeros when the plan has no
    /// channel faults).
    pub delivery: DeliveryStats,
    /// Replicated control-plane activity of the run (zeros when no fault
    /// plan was configured — fault-free runs skip the consensus layer).
    pub consensus: ConsensusStats,
    /// Durable-checkpoint-store activity of the run (zeros when no
    /// durable directory was configured — the store is fully inert).
    pub durability: DurabilityStats,
    /// Whether the JSON renderings carry the `metrics` block: per-phase
    /// histograms folded from [`RunStats::steps`]. Set from
    /// [`ClusterConfig::metrics`](crate::ClusterConfig::metrics) when the
    /// cluster hands its stats out.
    pub metrics: bool,
    /// Storage-engine facts (mode, resident state, block counts).
    pub storage: StorageInfo,
}

impl RunStats {
    /// Appends one superstep's record.
    pub(crate) fn push(&mut self, s: StepStats) {
        self.steps.push(s);
    }

    /// All recorded supersteps, in execution order.
    pub fn steps(&self) -> &[StepStats] {
        &self.steps
    }

    /// Number of supersteps recorded.
    pub fn num_supersteps(&self) -> usize {
        self.steps.len()
    }

    /// Clears all records, including recovery/delivery counters and the
    /// `metrics` flag.
    pub fn clear(&mut self) {
        *self = RunStats::default();
    }

    /// Total block bytes streamed from out-of-core storage over the run.
    pub fn bytes_streamed(&self) -> u64 {
        self.steps.iter().map(|s| s.streamed_bytes).sum()
    }

    /// Total edge blocks streamed from out-of-core storage over the run.
    pub fn blocks_streamed(&self) -> u64 {
        self.steps.iter().map(|s| s.streamed_blocks).sum()
    }

    /// Total block touches served from dense-block caches over the run.
    pub fn block_cache_hits(&self) -> u64 {
        self.steps.iter().map(|s| s.block_cache_hits).sum()
    }

    /// Total cross-worker bytes over the run.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(StepStats::total_bytes).sum()
    }

    /// Total cross-worker messages over the run.
    pub fn total_messages(&self) -> u64 {
        self.steps.iter().map(StepStats::total_messages).sum()
    }

    /// Summed compute time (wall; a sum over workers on single-core hosts).
    pub fn compute_time(&self) -> Duration {
        self.steps.iter().map(|s| s.compute).sum()
    }

    /// Summed per-superstep *maximum* worker compute time: the compute
    /// makespan of an ideal one-core-per-worker cluster. This is what the
    /// scaling experiments report, because wall-clock parallel speedups
    /// are unobservable on a single-core host.
    pub fn parallel_compute_time(&self) -> Duration {
        self.steps.iter().map(|s| s.compute_max).sum()
    }

    /// The simulated end-to-end parallel runtime: per-superstep worker
    /// makespans (compute and serialization) + measured communication and
    /// delivery-protocol time + the simulated network charge, plus the
    /// recovery overhead (checkpointing, retry backoff and rollback/replay
    /// traffic), the reliable-delivery overhead (retransmission traffic)
    /// and the control-plane overhead (election and log-replication
    /// traffic).
    pub fn simulated_parallel_time(&self) -> Duration {
        self.steps
            .iter()
            .map(|s| s.compute_max + s.serialize_max + s.communicate + s.delivery + s.simulated_net)
            .sum::<Duration>()
            + self.recovery.overhead()
            + self.delivery.overhead()
            + self.consensus.overhead()
    }

    /// Summed serialization time.
    pub fn serialize_time(&self) -> Duration {
        self.steps.iter().map(|s| s.serialize).sum()
    }

    /// Summed per-superstep serialization *makespan* (slowest bucketing
    /// thread): the serialize-phase analogue of
    /// [`RunStats::parallel_compute_time`] — the number the hot-path
    /// scaling experiments report, because wall-clock parallel speedups are
    /// unobservable on a single-core host.
    pub fn parallel_serialize_time(&self) -> Duration {
        self.steps.iter().map(|s| s.serialize_max).sum()
    }

    /// Summed reliable-delivery protocol wall time.
    pub fn delivery_time(&self) -> Duration {
        self.steps.iter().map(|s| s.delivery).sum()
    }

    /// Summed communication time (measured, excluding simulated network).
    pub fn communicate_time(&self) -> Duration {
        self.steps.iter().map(|s| s.communicate).sum()
    }

    /// Summed simulated network time.
    pub fn simulated_net_time(&self) -> Duration {
        self.steps.iter().map(|s| s.simulated_net).sum()
    }

    /// Frontier size per superstep, for Fig. 4(a)-style plots; only
    /// kernels with a frontier (`vmap`/`dense`/`sparse`) are included.
    pub fn frontier_sizes(&self) -> Vec<usize> {
        self.steps
            .iter()
            .filter(|s| s.kind != StepKind::Global)
            .map(|s| s.active)
            .collect()
    }

    /// Counts supersteps per kernel kind: `(vmap, dense, sparse, global)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for s in &self.steps {
            match s.kind {
                StepKind::VertexMap => c.0 += 1,
                StepKind::EdgeMapDense => c.1 += 1,
                StepKind::EdgeMapSparse => c.2 += 1,
                StepKind::Global => c.3 += 1,
            }
        }
        c
    }

    /// Summed per-superstep barrier skew: total worker idle time at
    /// barriers on an ideal one-core-per-worker cluster.
    pub fn barrier_skew_time(&self) -> Duration {
        self.steps.iter().map(StepStats::barrier_skew).sum()
    }

    /// The largest single-superstep barrier skew of the run.
    pub fn max_barrier_skew(&self) -> Duration {
        self.steps
            .iter()
            .map(StepStats::barrier_skew)
            .max()
            .unwrap_or_default()
    }

    /// The `metrics` block: `{"histograms": {name: {count, sum, min, max,
    /// p50, p90, p99}}}` with one histogram per [`StepStats`] duration and
    /// one sample per superstep, plus `step/streamed_bytes` on a run that
    /// streamed blocks. A fold over [`RunStats::steps`], so it always
    /// agrees with the per-step records.
    fn metrics_json(&self) -> Json {
        let mut histograms = Json::object();
        for (name, phase) in PHASES {
            let samples = self.steps.iter().map(|s| ns_u64(phase(s)));
            histograms = histograms.set(name, histogram(samples));
        }
        if self.bytes_streamed() > 0 {
            let samples = self.steps.iter().map(|s| s.streamed_bytes);
            histograms = histograms.set("step/streamed_bytes", histogram(samples));
        }
        Json::object().set("histograms", histograms)
    }

    /// Aggregate totals as JSON, without the per-step array — the payload
    /// of `results/*.json` summaries. Durations come in exact ns; the
    /// `metrics` block appears only when [`RunStats::metrics`] is set.
    pub fn summary_json(&self) -> Json {
        let (vmap, dense, sparse, global) = self.kind_counts();
        let summary = Json::object()
            .set("supersteps", self.num_supersteps())
            .set("total_bytes", self.total_bytes())
            .set("total_messages", self.total_messages())
            .set("compute_ns", ns_u64(self.compute_time()))
            .set("parallel_compute_ns", ns_u64(self.parallel_compute_time()))
            .set("serialize_ns", ns_u64(self.serialize_time()))
            .set(
                "parallel_serialize_ns",
                ns_u64(self.parallel_serialize_time()),
            )
            .set("communicate_ns", ns_u64(self.communicate_time()))
            .set("delivery_ns", ns_u64(self.delivery_time()))
            .set("simulated_net_ns", ns_u64(self.simulated_net_time()))
            .set(
                "simulated_parallel_ns",
                ns_u64(self.simulated_parallel_time()),
            )
            .set("barrier_skew_ns", ns_u64(self.barrier_skew_time()))
            .set(
                "kind_counts",
                Json::object()
                    .set("vmap", vmap)
                    .set("dense", dense)
                    .set("sparse", sparse)
                    .set("global", global),
            )
            .set("recovery", self.recovery.to_json())
            .set("delivery", self.delivery.to_json())
            .set("consensus", self.consensus.to_json())
            .set("durability", self.durability.to_json())
            .set(
                "storage",
                self.storage
                    .to_json()
                    .set("bytes_streamed", self.bytes_streamed())
                    .set("blocks_streamed", self.blocks_streamed())
                    .set("cache_hits", self.block_cache_hits()),
            );
        if self.metrics {
            summary.set("metrics", self.metrics_json())
        } else {
            summary
        }
    }

    /// Full machine-readable rendering: the summary plus every superstep.
    pub fn to_json(&self) -> Json {
        self.summary_json().set(
            "steps",
            Json::Arr(self.steps.iter().map(StepStats::to_json).collect()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(kind: StepKind, active: usize, upd: u64, sync: u64) -> StepStats {
        let mut s = StepStats::new(kind, active);
        s.upd_bytes = upd;
        s.upd_messages = upd / 8;
        s.sync_bytes = sync;
        s.sync_messages = sync / 8;
        s
    }

    #[test]
    fn totals_accumulate() {
        let mut r = RunStats::default();
        r.push(step(StepKind::EdgeMapSparse, 10, 80, 40));
        r.push(step(StepKind::EdgeMapDense, 100, 0, 160));
        assert_eq!(r.num_supersteps(), 2);
        assert_eq!(r.total_bytes(), 280);
        assert_eq!(r.total_messages(), 10 + 5 + 20);
    }

    #[test]
    fn frontier_sizes_skip_global() {
        let mut r = RunStats::default();
        r.push(step(StepKind::VertexMap, 5, 0, 0));
        r.push(step(StepKind::Global, 0, 0, 0));
        r.push(step(StepKind::EdgeMapSparse, 3, 0, 0));
        assert_eq!(r.frontier_sizes(), vec![5, 3]);
    }

    #[test]
    fn kind_counts() {
        let mut r = RunStats::default();
        r.push(step(StepKind::VertexMap, 1, 0, 0));
        r.push(step(StepKind::EdgeMapSparse, 1, 0, 0));
        r.push(step(StepKind::EdgeMapSparse, 1, 0, 0));
        assert_eq!(r.kind_counts(), (1, 0, 2, 0));
    }

    #[test]
    fn clear_resets() {
        let mut r = RunStats::default();
        r.push(step(StepKind::VertexMap, 1, 1, 1));
        r.storage.mode = "block";
        r.storage.resident_state_bytes = 64;
        r.clear();
        assert_eq!(r.num_supersteps(), 0);
        assert_eq!(r.total_bytes(), 0);
        assert_eq!(r.storage, StorageInfo::default(), "clear resets storage");
    }

    #[test]
    fn streaming_counters_accumulate_and_render() {
        let mut r = RunStats::default();
        let mut s = step(StepKind::EdgeMapSparse, 10, 80, 40);
        s.streamed_bytes = 1024;
        s.streamed_blocks = 3;
        s.block_cache_hits = 2;
        r.push(s);
        r.push(step(StepKind::VertexMap, 10, 0, 0));
        r.storage.mode = "block";
        r.storage.resident_state_bytes = 4096;
        r.storage.dense_blocks = 5;
        assert_eq!(r.bytes_streamed(), 1024);
        assert_eq!(r.blocks_streamed(), 3);
        assert_eq!(r.block_cache_hits(), 2);
        let j = r.to_json();
        let storage = j.get("storage").expect("storage object");
        assert_eq!(storage.get("mode").and_then(Json::as_str), Some("block"));
        assert_eq!(
            storage
                .get("peak_resident_state_bytes")
                .and_then(Json::as_u64),
            Some(4096)
        );
        assert_eq!(
            storage.get("bytes_streamed").and_then(Json::as_u64),
            Some(1024)
        );
        assert_eq!(storage.get("cache_hits").and_then(Json::as_u64), Some(2));
        let steps = j.get("steps").and_then(Json::as_array).unwrap();
        assert_eq!(
            steps[0].get("streamed_bytes").and_then(Json::as_u64),
            Some(1024)
        );
        // In-memory steps carry no streaming keys at all.
        assert_eq!(steps[1].get("streamed_bytes"), None);
    }

    #[test]
    fn barrier_skew_is_max_minus_min() {
        let mut s = StepStats::new(StepKind::EdgeMapSparse, 4);
        s.compute_max = Duration::from_micros(500);
        s.compute_min = Duration::from_micros(380);
        assert_eq!(s.barrier_skew(), Duration::from_micros(120));

        let mut r = RunStats::default();
        r.push(s.clone());
        s.compute_max = Duration::from_micros(50);
        s.compute_min = Duration::from_micros(50);
        r.push(s);
        assert_eq!(r.barrier_skew_time(), Duration::from_micros(120));
        assert_eq!(r.max_barrier_skew(), Duration::from_micros(120));
    }

    #[test]
    fn json_matches_accessors() {
        let mut r = RunStats::default();
        r.push(step(StepKind::EdgeMapSparse, 10, 80, 40));
        r.push(step(StepKind::EdgeMapDense, 100, 0, 160));
        let j = r.to_json();
        assert_eq!(j.get("supersteps").and_then(Json::as_u64), Some(2));
        assert_eq!(
            j.get("total_bytes").and_then(Json::as_u64),
            Some(r.total_bytes())
        );
        assert_eq!(
            j.get("total_messages").and_then(Json::as_u64),
            Some(r.total_messages())
        );
        let kinds = j.get("kind_counts").unwrap();
        assert_eq!(kinds.get("sparse").and_then(Json::as_u64), Some(1));
        assert_eq!(kinds.get("dense").and_then(Json::as_u64), Some(1));
        let steps = j.get("steps").and_then(Json::as_array).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].get("upd_bytes").and_then(Json::as_u64), Some(80));
        // The rendering round-trips through the flash-obs parser.
        let back = flash_obs::json::parse(&j.to_pretty_string()).unwrap();
        assert_eq!(back, j);
        // summary_json is to_json minus the steps array.
        assert_eq!(r.summary_json().get("steps"), None);
    }

    #[test]
    fn recovery_overhead_feeds_simulated_time() {
        let mut r = RunStats::default();
        let mut s = StepStats::new(StepKind::VertexMap, 1);
        s.compute_max = Duration::from_micros(100);
        r.push(s);
        let base = r.simulated_parallel_time();
        r.recovery.retry_backoff = Duration::from_micros(40);
        r.recovery.replay_net = Duration::from_micros(10);
        r.recovery.checkpoint_time = Duration::from_micros(5);
        r.recovery.migration_net = Duration::from_micros(25);
        assert_eq!(r.recovery.overhead(), Duration::from_micros(80));
        assert_eq!(
            r.simulated_parallel_time(),
            base + Duration::from_micros(80)
        );
        r.clear();
        assert_eq!(
            r.recovery,
            RecoveryStats::default(),
            "clear resets recovery"
        );
    }

    #[test]
    fn recovery_json_reports_counters() {
        let mut r = RunStats::default();
        r.recovery.checkpoints = 2;
        r.recovery.rollbacks = 3;
        r.recovery.replayed_supersteps = 5;
        r.recovery.membership_epochs = 2;
        r.recovery.workers_lost = 1;
        r.recovery.workers_rejoined = 1;
        r.recovery.vertices_migrated = 40;
        r.recovery.migrated_bytes = 320;
        let j = r.summary_json();
        let rec = j.get("recovery").expect("summary carries recovery");
        assert_eq!(rec.get("checkpoints").and_then(Json::as_u64), Some(2));
        assert_eq!(rec.get("rollbacks").and_then(Json::as_u64), Some(3));
        assert_eq!(
            rec.get("replayed_supersteps").and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(rec.get("membership_epochs").and_then(Json::as_u64), Some(2));
        assert_eq!(rec.get("workers_lost").and_then(Json::as_u64), Some(1));
        assert_eq!(rec.get("workers_rejoined").and_then(Json::as_u64), Some(1));
        assert_eq!(
            rec.get("vertices_migrated").and_then(Json::as_u64),
            Some(40)
        );
        assert_eq!(rec.get("migrated_bytes").and_then(Json::as_u64), Some(320));
    }

    #[test]
    fn delivery_overhead_feeds_simulated_time_and_json() {
        let mut r = RunStats::default();
        let mut s = StepStats::new(StepKind::VertexMap, 1);
        s.compute_max = Duration::from_micros(100);
        r.push(s);
        let base = r.simulated_parallel_time();
        r.delivery.batches_sent = 12;
        r.delivery.batches_dropped = 2;
        r.delivery.batches_duplicated = 1;
        r.delivery.batches_reordered = 1;
        r.delivery.retransmits = 2;
        r.delivery.retransmitted_bytes = 256;
        r.delivery.dedup_hits = 2;
        r.delivery.checksum_failures = 1;
        r.delivery.retransmit_net = Duration::from_micros(60);
        assert_eq!(r.delivery.overhead(), Duration::from_micros(60));
        assert_eq!(
            r.simulated_parallel_time(),
            base + Duration::from_micros(60)
        );
        let j = r.summary_json();
        let d = j.get("delivery").expect("summary carries delivery");
        assert_eq!(d.get("batches_sent").and_then(Json::as_u64), Some(12));
        assert_eq!(d.get("batches_dropped").and_then(Json::as_u64), Some(2));
        assert_eq!(d.get("batches_duplicated").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("batches_reordered").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("retransmits").and_then(Json::as_u64), Some(2));
        assert_eq!(
            d.get("retransmitted_bytes").and_then(Json::as_u64),
            Some(256)
        );
        assert_eq!(d.get("dedup_hits").and_then(Json::as_u64), Some(2));
        assert_eq!(d.get("checksum_failures").and_then(Json::as_u64), Some(1));
        assert_eq!(
            d.get("retransmit_net_ns").and_then(Json::as_u64),
            Some(60_000)
        );
        r.clear();
        assert_eq!(
            r.delivery,
            DeliveryStats::default(),
            "clear resets delivery"
        );
    }

    #[test]
    fn consensus_overhead_feeds_simulated_time_and_json() {
        let mut r = RunStats::default();
        let mut s = StepStats::new(StepKind::VertexMap, 1);
        s.compute_max = Duration::from_micros(100);
        r.push(s);
        let base = r.simulated_parallel_time();
        r.consensus.elections = 2;
        r.consensus.leader_crashes = 1;
        r.consensus.entries_appended = 5;
        r.consensus.entries_committed = 5;
        r.consensus.accusations = 1;
        r.consensus.election_net = Duration::from_micros(30);
        r.consensus.commit_net = Duration::from_micros(20);
        assert_eq!(r.consensus.overhead(), Duration::from_micros(50));
        assert_eq!(
            r.simulated_parallel_time(),
            base + Duration::from_micros(50)
        );
        let j = r.summary_json();
        let c = j.get("consensus").expect("summary carries consensus");
        assert_eq!(c.get("elections").and_then(Json::as_u64), Some(2));
        assert_eq!(c.get("leader_crashes").and_then(Json::as_u64), Some(1));
        assert_eq!(c.get("entries_appended").and_then(Json::as_u64), Some(5));
        assert_eq!(c.get("entries_committed").and_then(Json::as_u64), Some(5));
        assert_eq!(c.get("accusations").and_then(Json::as_u64), Some(1));
        assert_eq!(
            c.get("election_net_ns").and_then(Json::as_u64),
            Some(30_000)
        );
        assert_eq!(c.get("commit_net_ns").and_then(Json::as_u64), Some(20_000));
        assert_eq!(c.get("overhead_ns").and_then(Json::as_u64), Some(50_000));
        r.clear();
        assert_eq!(
            r.consensus,
            ConsensusStats::default(),
            "clear resets consensus"
        );
    }

    #[test]
    fn durability_stats_render_and_clear() {
        let mut r = RunStats::default();
        r.durability.generations_written = 3;
        r.durability.bytes_fsynced = 4096;
        r.durability.delta_frames = 11;
        r.durability.scrub_repairs = 1;
        r.durability.fallbacks = 1;
        r.durability.io_errors = 2;
        r.durability.resumed_steps = 7;
        let j = r.summary_json();
        let d = j.get("durability").expect("summary carries durability");
        assert_eq!(d.get("generations_written").and_then(Json::as_u64), Some(3));
        assert_eq!(d.get("bytes_fsynced").and_then(Json::as_u64), Some(4096));
        assert_eq!(d.get("delta_frames").and_then(Json::as_u64), Some(11));
        assert_eq!(d.get("scrub_repairs").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("fallbacks").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("io_errors").and_then(Json::as_u64), Some(2));
        assert_eq!(d.get("resumed_steps").and_then(Json::as_u64), Some(7));
        r.clear();
        assert_eq!(
            r.durability,
            DurabilityStats::default(),
            "clear resets durability"
        );
    }

    #[test]
    fn ns_fields_are_exact() {
        assert_eq!(ns_u64(Duration::from_nanos(600)), 600);
        // Sub-µs phases are visible in step JSON; floored to µs they read 0.
        let mut s = StepStats::new(StepKind::EdgeMapSparse, 1);
        s.serialize = Duration::from_nanos(700);
        s.delivery = Duration::from_nanos(900);
        let j = s.to_json();
        assert_eq!(j.get("serialize_ns").and_then(Json::as_u64), Some(700));
        assert_eq!(j.get("delivery_ns").and_then(Json::as_u64), Some(900));
        assert!(j.get("delivery_us").is_none(), "one rendering per duration");
    }

    #[test]
    fn serialize_max_and_delivery_feed_simulated_time() {
        let mut r = RunStats::default();
        let mut s = StepStats::new(StepKind::EdgeMapSparse, 4);
        s.compute_max = Duration::from_micros(100);
        s.serialize = Duration::from_micros(80); // wall: sum over threads
        s.serialize_max = Duration::from_micros(20); // makespan: slowest thread
        s.communicate = Duration::from_micros(10);
        s.delivery = Duration::from_micros(7);
        r.push(s);
        assert_eq!(r.serialize_time(), Duration::from_micros(80));
        assert_eq!(r.parallel_serialize_time(), Duration::from_micros(20));
        assert_eq!(r.delivery_time(), Duration::from_micros(7));
        // Simulated parallel time charges the makespan, not the wall sum.
        assert_eq!(
            r.simulated_parallel_time(),
            Duration::from_micros(100 + 20 + 10 + 7)
        );
        let j = r.summary_json();
        assert_eq!(j.get("delivery_ns").and_then(Json::as_u64), Some(7_000));
        assert_eq!(
            j.get("parallel_serialize_ns").and_then(Json::as_u64),
            Some(20_000)
        );
    }

    #[test]
    fn sub_microsecond_charges_render_exactly_and_add_up() {
        // A 900 ns charge in each overhead block: floored to µs it read 0,
        // and the blocks no longer summed to simulated_parallel_ns.
        let mut r = RunStats::default();
        let charge = Duration::from_nanos(900);
        r.recovery.checkpoint_time = charge;
        r.delivery.retransmit_net = charge;
        r.consensus.commit_net = charge;
        let j = r.summary_json();
        let ns =
            |block: &str, key: &str| j.get(block).and_then(|b| b.get(key)).and_then(Json::as_u64);
        assert_eq!(ns("recovery", "checkpoint_ns"), Some(900));
        assert_eq!(ns("delivery", "retransmit_net_ns"), Some(900));
        assert_eq!(ns("consensus", "commit_net_ns"), Some(900));
        let overheads: u64 = ["recovery", "delivery", "consensus"]
            .iter()
            .filter_map(|b| ns(b, "overhead_ns"))
            .sum();
        assert_eq!(
            j.get("simulated_parallel_ns").and_then(Json::as_u64),
            Some(overheads)
        );
        assert_eq!(overheads, 2_700);
    }

    #[test]
    fn metrics_block_renders_and_clears() {
        let mut r = RunStats::default();
        for (compute_max, streamed) in [(1000, 0), (3000, 4096)] {
            let mut s = StepStats::new(StepKind::EdgeMapDense, 1);
            s.compute_max = Duration::from_nanos(compute_max);
            s.streamed_bytes = streamed;
            r.push(s);
        }
        assert!(r.summary_json().get("metrics").is_none(), "off by default");
        r.metrics = true;
        let j = r.summary_json();
        let hists = j
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .expect("summary carries metrics");
        let Json::Obj(map) = hists else {
            panic!("histograms must be an object")
        };
        assert_eq!(map.len(), 9, "eight phases plus step/streamed_bytes");
        for (name, h) in map {
            assert_eq!(h.get("count").and_then(Json::as_u64), Some(2), "{name}");
        }
        let h = &map["step/compute_max_ns"];
        assert_eq!(h.get("max").and_then(Json::as_u64), Some(3000));
        assert_eq!(h.get("sum").and_then(Json::as_u64), Some(4000));
        assert!(h.get("p50").is_some() && h.get("p90").is_some() && h.get("p99").is_some());
        assert_eq!(
            map["step/streamed_bytes"].get("max").and_then(Json::as_u64),
            Some(4096)
        );
        r.clear();
        assert!(!r.metrics, "clear resets the metrics flag");
    }

    #[test]
    fn labels() {
        assert_eq!(StepKind::VertexMap.label(), "vmap");
        assert_eq!(StepKind::EdgeMapDense.label(), "dense");
        assert_eq!(StepKind::EdgeMapSparse.label(), "sparse");
        assert_eq!(StepKind::Global.label(), "global");
    }
}
