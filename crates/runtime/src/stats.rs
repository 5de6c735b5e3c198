//! Per-superstep execution statistics.
//!
//! The §V-E time breakdown divides execution into computation,
//! communication and serialization; every superstep records those buckets
//! plus exact message/byte counts, which also back Fig. 4(a)'s frontier
//! sizes. [`RunStats`] is the only in-process record of a run: its totals
//! and its `metrics` histograms are folds over the same [`StepStats`].
//!
//! Every counter is declared once, in a `step_counters!` table below: its
//! field, type, JSON key and doc. The structs, their zero, `to_json`,
//! [`StepStats::from_json`] and the `metrics` histograms are generated from
//! it.

use flash_obs::event::read;
use flash_obs::{Field, Histogram, Json};
use std::collections::BTreeMap;
use std::time::Duration;

/// Renders a duration in nanoseconds (saturating at `u64::MAX`, ~584
/// years — unreachable for measured phases).
pub fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Which kernel a superstep ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepKind {
    /// `VERTEXMAP` (local compute + mirror sync); the kind of a zeroed
    /// [`StepStats`].
    #[default]
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

/// The kind's report label.
impl From<StepKind> for Json {
    fn from(kind: StepKind) -> Json {
        kind.label().into()
    }
}

impl Field for StepKind {
    fn from_json(value: &Json) -> Option<Self> {
        use StepKind::*;
        let label = value.as_str()?;
        [VertexMap, EdgeMapDense, EdgeMapSparse, Global]
            .into_iter()
            .find(|k| k.label() == label)
    }
}

/// Declares counter structs, one line per field:
/// `field: Type => "json key",` under its doc comment, with `histogram`
/// after the key for a duration the `metrics` block samples. The fields of
/// a struct's `optional` group render only when one of them is nonzero; a
/// `derived` key renders a method's value. Each struct gets its `pub`
/// fields, `to_json` and `visit`, which the `metrics` block folds. A struct
/// whose entry ends in `decode as "tag";` also gets `from_json`, which reads
/// `to_json`'s keys back (an absent `optional` key as zero, a `derived` one
/// not at all) and names `tag` in its errors.
macro_rules! step_counters {
    (@sample $value:expr,) => {
        None
    };
    (@sample $value:expr, histogram) => {
        Some(ns_u64($value))
    };
    (@decode [] $($rest:tt)*) => {};
    (@decode [$tag:literal] $name:ident [$($field:ident $key:literal)*] [$($ofield:ident $okey:literal)*]) => {
        impl $name {
            /// Reads back what `to_json` wrote. Refuses a missing key or
            /// a value of the wrong type.
            pub fn from_json(obj: &Json) -> Result<Self, String> {
                Ok($name {
                    $( $field: read(obj, $tag, $key)?, )*
                    $( $ofield: match obj.get($okey) {
                        Some(_) => read(obj, $tag, $okey)?,
                        None => 0,
                    }, )*
                })
            }
        }
    };
    ($(
        $(#[$attr:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $field:ident: $ty:ty => $key:literal $($hist:ident)?, )*
        }
        $( optional {
            $( $(#[$odoc:meta])* $ofield:ident: u64 => $okey:literal, )*
        } )?
        $( derived { $( $dkey:literal => $method:ident $($dhist:ident)?, )* } )?
        $( decode as $tag:literal; )?
    )*) => {$(
        $(#[$attr])*
        pub struct $name {
            $( $(#[$doc])* pub $field: $ty, )*
            $($( $(#[$odoc])* pub $ofield: u64, )*)?
        }

        impl $name {
            /// Calls `f` with the key and value of every counter
            /// `to_json` renders, in table order, and its `metrics`
            /// sample if it has a histogram.
            fn visit(&self, f: &mut dyn FnMut(&'static str, Json, Option<u64>)) {
                $( f($key, self.$field.into(), step_counters!(@sample self.$field, $($hist)?)); )*
                $( if (0 $(| self.$ofield)*) != 0 {
                    $( f($okey, self.$ofield.into(), None); )*
                } )?
                $($( f($dkey, self.$method().into(), step_counters!(@sample self.$method(), $($dhist)?)); )*)?
            }

            /// Machine-readable rendering, one key per counter (durations
            /// in exact ns).
            pub fn to_json(&self) -> Json {
                let mut obj = BTreeMap::new();
                self.visit(&mut |key, value, _| {
                    obj.insert(key.to_string(), value);
                });
                Json::Obj(obj)
            }
        }

        step_counters!(@decode [$($tag)?] $name [$($field $key)*] [$($($ofield $okey)*)?]);
    )*};
}

step_counters! {
    /// Statistics of one superstep.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StepStats {
        /// Kernel kind.
        kind: StepKind => "kind",
        /// Size of the input active set (frontier), when the kernel has one.
        active: usize => "active",
        /// Mirror→master messages (sparse phase 2) crossing workers.
        upd_messages: u64 => "upd_messages",
        /// Bytes of mirror→master messages crossing workers.
        upd_bytes: u64 => "upd_bytes",
        /// Master→mirror synchronization messages crossing workers.
        sync_messages: u64 => "sync_messages",
        /// Bytes of master→mirror synchronization crossing workers.
        sync_bytes: u64 => "sync_bytes",
        /// Updates compute staged, summed over workers: pending
        /// temporaries on a reduce step, written and directly staged
        /// masters on a direct one.
        staged: usize => "staged",
        /// Wall time of the compute phase (on a single-core host, the *sum*
        /// of all workers' compute time, since threads timeshare).
        compute: Duration => "compute_ns" histogram,
        /// Maximum per-worker compute time — what the phase would cost on a
        /// cluster with one core per worker (the BSP parallel makespan).
        compute_max: Duration => "compute_max_ns" histogram,
        /// Minimum per-worker compute time. The gap to [`StepStats::compute_max`]
        /// is the *barrier skew*: how long the fastest worker idles at the BSP
        /// barrier waiting for the slowest (§V-E load-balance discussion).
        compute_min: Duration => "compute_min_ns",
        /// Wall time spent materializing and routing message buffers.
        serialize: Duration => "serialize_ns" histogram,
        /// Serialization makespan on an ideal one-core-per-worker cluster: the
        /// slowest lane's bucketing time, whether the lanes ran on the pool or
        /// one after another on the caller. The serialize-phase analogue of
        /// [`StepStats::compute_max`], and what
        /// [`StepStats::critical_path`] charges.
        serialize_max: Duration => "serialize_max_ns" histogram,
        /// Wall time of folding staged updates into masters and of the mirror
        /// sync that applies and counts each written master's payload — the
        /// post-compute round after bucketing.
        communicate: Duration => "communicate_ns" histogram,
        /// Wall time of the reliable-delivery protocol (ack/retransmit rounds
        /// run by [`crate::transport::Transport`]); zero without channel
        /// faults.
        delivery: Duration => "delivery_ns" histogram,
        /// Simulated network time (see [`crate::netmodel::NetworkModel`]).
        simulated_net: Duration => "simulated_net_ns" histogram,
    }
    // Streaming counters appear only on block-storage supersteps, so
    // in-memory stats JSON carries no streaming keys.
    optional {
        /// Block bytes streamed from out-of-core storage this superstep
        /// (zero outside [`StorageMode::Block`](crate::StorageMode) runs).
        streamed_bytes: u64 => "streamed_bytes",
        /// Edge blocks streamed from out-of-core storage this superstep.
        streamed_blocks: u64 => "streamed_blocks",
        /// Block touches served from a worker's dense-block cache.
        block_cache_hits: u64 => "block_cache_hits",
    }
    derived {
        "barrier_skew_ns" => barrier_skew histogram,
    }
    // A `step_end` event nests a step's counters under `stats`.
    decode as "stats";
}

/// One phase of a superstep's critical path: its report label, its Chrome
/// trace category, and its duration.
pub type PathPhase = (&'static str, &'static str, fn(&StepStats) -> Duration);

impl StepStats {
    /// The phases the simulated parallel clock charges a superstep, in the
    /// order it charges them: the slowest worker's compute, the slowest
    /// lane's bucketing, then the serial delivery, network and mirror-sync
    /// phases.
    pub const CRITICAL_PATH: [PathPhase; 5] = [
        ("compute", "compute", |s| s.compute_max),
        ("bucketing", "serialize", |s| s.serialize_max),
        ("delivery", "transport", |s| s.delivery),
        ("network", "network", |s| s.simulated_net),
        ("mirror-sync", "sync", |s| s.communicate),
    ];

    pub(crate) fn new(kind: StepKind, active: usize) -> Self {
        StepStats {
            kind,
            active,
            ..StepStats::default()
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

    /// This superstep's charge to the simulated parallel clock: the sum of
    /// [`StepStats::CRITICAL_PATH`].
    pub fn critical_path(&self) -> Duration {
        Self::CRITICAL_PATH
            .iter()
            .map(|(_, _, phase)| phase(self))
            .sum()
    }
}

step_counters! {
    /// Fault-tolerance counters of a run: checkpoint, fault-injection and
    /// rollback/replay activity (all zero on fault-free runs). See
    /// [`crate::fault`] and [`crate::checkpoint`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct RecoveryStats {
        /// Checkpoints taken at superstep boundaries.
        checkpoints: u64 => "checkpoints",
        /// Serialized bytes of all checkpoints (masters only).
        checkpoint_bytes: u64 => "checkpoint_bytes",
        /// Simulated time spent persisting checkpoints.
        checkpoint_time: Duration => "checkpoint_ns",
        /// Crash/corrupted-sync faults injected (each detected at a barrier).
        faults_injected: u64 => "faults_injected",
        /// Straggler delays injected.
        stragglers: u64 => "stragglers",
        /// Total compute delay charged to stragglers.
        straggler_delay: Duration => "straggler_delay_ns",
        /// Rollbacks performed (one per recovery retry).
        rollbacks: u64 => "rollbacks",
        /// Supersteps replayed from the redo log across all rollbacks.
        replayed_supersteps: u64 => "replayed_supersteps",
        /// Accumulated capped exponential retry backoff (simulated, not slept).
        retry_backoff: Duration => "retry_backoff_ns",
        /// Simulated network time of checkpoint restores and delta replays.
        replay_net: Duration => "replay_net_ns",
        /// Membership epochs entered (one per rebalance or rejoin; zero on a
        /// run with stable membership).
        membership_epochs: u64 => "membership_epochs",
        /// Workers declared permanently dead (by an exhausted `die` fault or a
        /// failure-detector deadline).
        workers_lost: u64 => "workers_lost",
        /// Previously dead workers that rejoined the cluster.
        workers_rejoined: u64 => "workers_rejoined",
        /// Master vertices migrated between hosts by membership changes.
        vertices_migrated: u64 => "vertices_migrated",
        /// Serialized bytes of migrated master state.
        migrated_bytes: u64 => "migrated_bytes",
        /// Simulated network time of state migration (transfer bytes plus one
        /// routing-rebuild round per moved partition).
        migration_net: Duration => "migration_net_ns",
    }
    derived {
        "overhead_ns" => overhead,
    }

    /// Reliable-delivery counters of a run: lossy-channel activity and the
    /// ack/retransmit protocol's work (all zero on runs without channel
    /// faults). See [`crate::transport`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct DeliveryStats {
        /// Cross-host batches handed to the transport (one per
        /// (sender-host, receiver-host) pair per message round).
        batches_sent: u64 => "batches_sent",
        /// Transmission attempts lost on the wire (scripted `drop@` or
        /// probabilistic `loss=`).
        batches_dropped: u64 => "batches_dropped",
        /// Batches delivered more than once by the channel (scripted `dup@` or
        /// probabilistic `dupRate=`).
        batches_duplicated: u64 => "batches_duplicated",
        /// Batches delayed past the ack deadline by a scripted `reorder@`,
        /// arriving a round late alongside their own retransmission.
        batches_reordered: u64 => "batches_reordered",
        /// Retransmissions performed after a missed ack.
        retransmits: u64 => "retransmits",
        /// Payload bytes re-shipped by retransmissions.
        retransmitted_bytes: u64 => "retransmitted_bytes",
        /// Batch copies discarded by the receive-side dedup window.
        dedup_hits: u64 => "dedup_hits",
        /// Batch copies rejected for a wire-checksum mismatch (each nacked and
        /// retransmitted).
        checksum_failures: u64 => "checksum_failures",
        /// Simulated network time of all retransmissions (one ack-deadline
        /// round of latency plus the re-shipped bytes, per retransmit).
        retransmit_net: Duration => "retransmit_net_ns",
    }
    derived {
        "overhead_ns" => overhead,
    }

    /// Replicated control-plane counters of a run: elections held, log
    /// entries committed by majority, and byzantine accusations (all zero on
    /// runs without a fault plan). See [`crate::consensus`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ConsensusStats {
        /// Elections held: the initial election plus every re-election after a
        /// leader crash.
        elections: u64 => "elections",
        /// Leader hosts crashed by `leader@` faults.
        leader_crashes: u64 => "leader_crashes",
        /// Entries appended to the replicated decision log.
        entries_appended: u64 => "entries_appended",
        /// Entries committed by a majority of live hosts (and only then
        /// applied).
        entries_committed: u64 => "entries_committed",
        /// Workers accused of lying by the checksum quorum and escalated to a
        /// death declaration.
        accusations: u64 => "accusations",
        /// Simulated network time of election rounds (vote request and grant
        /// per live host).
        election_net: Duration => "election_net_ns",
        /// Simulated network time of log replication (append and ack per live
        /// host, per committed entry).
        commit_net: Duration => "commit_net_ns",
    }
    derived {
        "overhead_ns" => overhead,
    }

    /// Durable-checkpoint-store counters of a run: generations committed to
    /// disk, bytes fsynced, and the scrub pass's damage accounting (all zero
    /// on runs without a durable directory). See [`crate::durable`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct DurabilityStats {
        /// Checkpoint generations committed to disk (tmp + fsync + rename +
        /// directory fsync).
        generations_written: u64 => "generations_written",
        /// Bytes written and synced: each generation file once.
        bytes_fsynced: u64 => "bytes_fsynced",
        /// Always 0: the store writes whole generations only (DESIGN.md
        /// §15). Kept because readers of the stats, such as the benchmark's
        /// per-layer table, still report it.
        delta_frames: u64 => "delta_frames",
        /// Generations the scrub pass condemned at open, each a fallback to
        /// an older one.
        fallbacks: u64 => "fallbacks",
        /// Generation commits that failed — an injected `ioerr@` fault or a
        /// real I/O error. Each is retried at the next superstep; until one
        /// lands, a resume is verified against the previous generation.
        io_errors: u64 => "io_errors",
        /// On a resumed run, the step whose re-executed state the loaded
        /// generation's digest confirmed. A resume re-executes every
        /// superstep; this counts none of them as skipped.
        resumed_steps: u64 => "resumed_steps",
    }
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
}

impl DeliveryStats {
    /// Total simulated delivery overhead added to the parallel runtime:
    /// the retransmission traffic charged through the network model.
    pub fn overhead(&self) -> Duration {
        self.retransmit_net
    }
}

impl ConsensusStats {
    /// Total simulated control-plane overhead added to the parallel
    /// runtime: election traffic plus log-replication traffic.
    pub fn overhead(&self) -> Duration {
        self.election_net + self.commit_net
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

    /// The simulated end-to-end parallel runtime: every superstep's
    /// [`StepStats::critical_path`], plus the recovery overhead
    /// (checkpointing, retry backoff and rollback/replay traffic), the
    /// reliable-delivery overhead (retransmission traffic) and the
    /// control-plane overhead (election and log-replication traffic).
    pub fn simulated_parallel_time(&self) -> Duration {
        self.steps
            .iter()
            .map(StepStats::critical_path)
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
    /// p50, p90, p99}}}` with one histogram per [`StepStats`] duration
    /// (barrier skew included) and one sample per superstep, plus `step/streamed_bytes` on a run that
    /// streamed blocks. A fold over [`RunStats::steps`], so it always
    /// agrees with the per-step records.
    fn metrics_json(&self) -> Json {
        // A zeroed step names every sampled counter, so a run without
        // supersteps still renders each histogram, empty.
        let mut sampled = BTreeMap::new();
        StepStats::default().visit(&mut |key, _, sample| {
            if sample.is_some() {
                sampled.insert(key, Histogram::new());
            }
        });
        if self.bytes_streamed() > 0 {
            sampled.insert("streamed_bytes", Histogram::new());
        }
        for s in &self.steps {
            s.visit(&mut |key, _, sample| {
                if let (Some(v), Some(h)) = (sample, sampled.get_mut(key)) {
                    h.record(v);
                }
            });
            if let Some(h) = sampled.get_mut("streamed_bytes") {
                h.record(s.streamed_bytes);
            }
        }
        let mut histograms = Json::object();
        for (key, h) in sampled {
            histograms = histograms.set(&format!("step/{key}"), h.to_json());
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

    /// The summary's `name` block.
    fn block(r: &RunStats, name: &str) -> Json {
        r.summary_json()
            .get(name)
            .cloned()
            .expect("summary carries the block")
    }

    /// The object holding exactly `keys`, each with its value.
    fn object(keys: &[(&str, u64)]) -> Json {
        keys.iter()
            .fold(Json::object(), |obj, &(key, value)| obj.set(key, value))
    }

    #[test]
    fn recovery_json_reports_counters() {
        let r = RunStats {
            recovery: RecoveryStats {
                checkpoints: 1,
                checkpoint_bytes: 2,
                checkpoint_time: Duration::from_nanos(3),
                faults_injected: 4,
                stragglers: 5,
                straggler_delay: Duration::from_nanos(6),
                rollbacks: 7,
                replayed_supersteps: 8,
                retry_backoff: Duration::from_nanos(9),
                replay_net: Duration::from_nanos(10),
                membership_epochs: 11,
                workers_lost: 12,
                workers_rejoined: 13,
                vertices_migrated: 14,
                migrated_bytes: 15,
                migration_net: Duration::from_nanos(16),
            },
            ..RunStats::default()
        };
        assert_eq!(
            block(&r, "recovery"),
            object(&[
                ("checkpoints", 1),
                ("checkpoint_bytes", 2),
                ("checkpoint_ns", 3),
                ("faults_injected", 4),
                ("stragglers", 5),
                ("straggler_delay_ns", 6),
                ("rollbacks", 7),
                ("replayed_supersteps", 8),
                ("retry_backoff_ns", 9),
                ("replay_net_ns", 10),
                ("membership_epochs", 11),
                ("workers_lost", 12),
                ("workers_rejoined", 13),
                ("vertices_migrated", 14),
                ("migrated_bytes", 15),
                ("migration_net_ns", 16),
                ("overhead_ns", 3 + 9 + 10 + 16),
            ])
        );
    }

    #[test]
    fn delivery_overhead_feeds_simulated_time_and_json() {
        let mut r = RunStats::default();
        let mut s = StepStats::new(StepKind::VertexMap, 1);
        s.compute_max = Duration::from_micros(100);
        r.push(s);
        let base = r.simulated_parallel_time();
        r.delivery = DeliveryStats {
            batches_sent: 12,
            batches_dropped: 2,
            batches_duplicated: 1,
            batches_reordered: 3,
            retransmits: 4,
            retransmitted_bytes: 256,
            dedup_hits: 5,
            checksum_failures: 6,
            retransmit_net: Duration::from_micros(60),
        };
        assert_eq!(r.delivery.overhead(), Duration::from_micros(60));
        assert_eq!(
            r.simulated_parallel_time(),
            base + Duration::from_micros(60)
        );
        assert_eq!(
            block(&r, "delivery"),
            object(&[
                ("batches_sent", 12),
                ("batches_dropped", 2),
                ("batches_duplicated", 1),
                ("batches_reordered", 3),
                ("retransmits", 4),
                ("retransmitted_bytes", 256),
                ("dedup_hits", 5),
                ("checksum_failures", 6),
                ("retransmit_net_ns", 60_000),
                ("overhead_ns", 60_000),
            ])
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
        r.consensus = ConsensusStats {
            elections: 2,
            leader_crashes: 1,
            entries_appended: 6,
            entries_committed: 5,
            accusations: 3,
            election_net: Duration::from_micros(30),
            commit_net: Duration::from_micros(20),
        };
        assert_eq!(r.consensus.overhead(), Duration::from_micros(50));
        assert_eq!(
            r.simulated_parallel_time(),
            base + Duration::from_micros(50)
        );
        assert_eq!(
            block(&r, "consensus"),
            object(&[
                ("elections", 2),
                ("leader_crashes", 1),
                ("entries_appended", 6),
                ("entries_committed", 5),
                ("accusations", 3),
                ("election_net_ns", 30_000),
                ("commit_net_ns", 20_000),
                ("overhead_ns", 50_000),
            ])
        );
        r.clear();
        assert_eq!(
            r.consensus,
            ConsensusStats::default(),
            "clear resets consensus"
        );
    }

    #[test]
    fn durability_stats_render_and_clear() {
        let mut r = RunStats {
            durability: DurabilityStats {
                generations_written: 3,
                bytes_fsynced: 4096,
                delta_frames: 11,
                fallbacks: 1,
                io_errors: 2,
                resumed_steps: 7,
            },
            ..RunStats::default()
        };
        assert_eq!(
            block(&r, "durability"),
            object(&[
                ("generations_written", 3),
                ("bytes_fsynced", 4096),
                ("delta_frames", 11),
                ("fallbacks", 1),
                ("io_errors", 2),
                ("resumed_steps", 7),
            ])
        );
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
    fn from_json_refuses_a_missing_key_and_a_wrong_type() {
        let mut s = step(StepKind::EdgeMapSparse, 10, 80, 40);
        s.compute = Duration::from_nanos(900);
        let j = s.to_json();
        let edited = |key: &str, value: Option<Json>| {
            let Json::Obj(mut map) = j.clone() else {
                panic!("a step renders as an object")
            };
            map.remove(key);
            map.extend(value.map(|v| (key.to_string(), v)));
            StepStats::from_json(&Json::Obj(map))
        };
        for key in ["kind", "compute_ns", "staged"] {
            assert_eq!(
                edited(key, None),
                Err(format!("stats: missing field {key:?}"))
            );
        }
        // A derived key is not read back, and an absent streaming key
        // reads as zero.
        assert_eq!(edited("barrier_skew_ns", None), Ok(s.clone()));
        assert_eq!(edited("streamed_bytes", None), Ok(s));
        for (key, value) in [
            ("upd_bytes", Json::from("80")),
            ("active", Json::from(-1i64)),
            ("compute_ns", Json::from(4.5)),
            ("kind", Json::from("warp")),
            ("streamed_bytes", Json::Null),
        ] {
            let err = edited(key, Some(value)).unwrap_err();
            assert!(
                err.starts_with(&format!("stats: field {key:?} has the wrong type")),
                "{err}"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(StepKind::VertexMap.label(), "vmap");
        assert_eq!(StepKind::EdgeMapDense.label(), "dense");
        assert_eq!(StepKind::EdgeMapSparse.label(), "sparse");
        assert_eq!(StepKind::Global.label(), "global");
    }
}
