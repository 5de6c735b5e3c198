//! Cluster configuration knobs.

use crate::fault::FaultPlan;
use crate::netmodel::NetworkModel;
use crate::session::BufferPool;
use flash_graph::PartitionMap;
use flash_obs::Sink;
use std::fmt;
use std::sync::Arc;

/// Checkpoint interval (in supersteps) used when a fault plan is present
/// but no explicit interval was configured: rollback needs a checkpoint to
/// roll back to, so fault injection forces checkpointing on.
pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 4;

/// How the adaptive `EDGEMAP` dispatch (paper Algorithm 4) picks a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ModePolicy {
    /// Pick dense (pull) when the active set's out-edge mass exceeds
    /// [`ClusterConfig::dense_threshold`] — the paper's default behaviour.
    #[default]
    Adaptive,
    /// Always run the sparse (push) kernel, as in Fig. 3's "sparse" series.
    ForceSparse,
    /// Always run the dense (pull) kernel, as in Fig. 3's "dense" series.
    ForceDense,
}

/// What a master ships to its mirrors after an update (§IV-C,
/// "synchronize critical properties only").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Ship only the critical projection (`V::Critical`) — the optimized
    /// default matching the paper's static analysis.
    #[default]
    CriticalOnly,
    /// Ship the whole vertex value — the unoptimized ablation baseline.
    Full,
}

/// Which mirrors receive a master's update (§IV-C, "communicate with
/// necessary mirrors only").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncScope {
    /// Only workers holding at least one edge incident to the vertex.
    /// Correct whenever messages flow along original graph edges.
    #[default]
    Necessary,
    /// Every worker. Required when the step used *virtual edges* (an edge
    /// set beyond `E`), since any worker may read the vertex next.
    All,
}

/// Where the adjacency a cluster iterates lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// Whole graph resident on the heap — the default, used by every
    /// existing test and benchmark.
    #[default]
    InMemory,
    /// Out-of-core block engine: adjacency served from a mapped `.fgb`
    /// file ([`flash_graph::blocks`]), streamable EDGEMAP kernels charge
    /// the M-Flash block grid, and per-step bytes-streamed / cache-hit
    /// counters land in the stats. Requires a graph opened with
    /// [`flash_graph::blocks::open_blocks`].
    Block,
}

/// Configuration of a simulated FLASH cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of workers (the paper's `m`; one partition each).
    pub workers: usize,
    /// Run workers on real OS threads. `false` executes workers
    /// sequentially on the driver thread (deterministic debugging).
    pub parallel_workers: bool,
    /// Dense/sparse switch threshold as a fraction of `|E|`: an active set
    /// whose `|U| + outEdges(U)` exceeds `threshold * |E|` is *dense*.
    /// Ligra's classic value is 1/20.
    pub dense_threshold: f64,
    /// Kernel selection policy.
    pub mode: ModePolicy,
    /// Mirror synchronization payload.
    pub sync_mode: SyncMode,
    /// Simulated network for inter-node experiments; `None` records zero
    /// simulated network time.
    pub network: Option<NetworkModel>,
    /// Structured-trace sink receiving [`flash_obs::Event`]s from the
    /// cluster; `None` disables tracing (the emission sites reduce to one
    /// `Option` check).
    pub sink: Option<Arc<dyn Sink>>,
    /// Scripted fault-injection plan (see [`crate::fault`]); `None` runs
    /// fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Checkpoint interval in supersteps; `0` disables periodic
    /// checkpointing (unless a fault plan is present, in which case
    /// [`DEFAULT_CHECKPOINT_INTERVAL`] applies).
    pub checkpoint_every: usize,
    /// Explicitly disables checkpointing even when a fault plan is
    /// present (see [`ClusterConfig::checkpoint_off`]). A permanent worker
    /// loss then degrades to [`RuntimeError::WorkerLost`](crate::RuntimeError)
    /// instead of recovering elastically.
    pub checkpoint_disabled: bool,
    /// Render the `metrics` block — per-phase histograms folded from the
    /// run's supersteps — in the stats JSON (see
    /// [`RunStats::metrics`](crate::stats::RunStats::metrics)). Off by
    /// default, so the stats JSON stays lean unless asked for.
    pub metrics: bool,
    /// Adjacency storage engine (see [`StorageMode`]). `Block` is opt-in
    /// and requires a block-backed graph.
    pub storage: StorageMode,
    /// Directory for the durable checkpoint store ([`crate::durable`]);
    /// `None` keeps the store fully inert (the default — no durable code
    /// runs at all). Requires constructing the cluster through the
    /// durable-aware constructors, because the vertex type must implement
    /// [`crate::durable::DurableValue`].
    pub durable_dir: Option<std::path::PathBuf>,
    /// Resume from the durable store instead of starting fresh: the
    /// schedule re-executes from step 0, and at the step of the newest
    /// valid generation in [`durable_dir`](Self::durable_dir) the
    /// re-executed state is verified against that generation's digest
    /// (a mismatch is [`RuntimeError::DurabilityLost`](crate::RuntimeError)).
    /// From there the run commits like the killed one. Ignored without a
    /// durable directory.
    pub durable_resume: bool,
    /// Scripted cold-restart kill switch: durable persistence freezes at
    /// the first superstep `>= N` and the run degrades to
    /// [`RuntimeError::Halted`](crate::RuntimeError) — simulating a
    /// whole-process kill whose in-memory result is lost. Ignored without
    /// a durable directory.
    pub durable_halt_after: Option<u64>,
    /// Pre-built partition the context constructors reuse instead of
    /// hashing the graph again. Serving sessions set it so every query
    /// cluster over one snapshot shares a single `Arc<PartitionMap>`
    /// (crate::session). Must match the graph and `workers`.
    pub shared_partition: Option<Arc<PartitionMap>>,
    /// Shared [`BufferPool`] the cluster checks its `StepBuffers` out of
    /// at construction and back into at drop, so back-to-back query runs
    /// reuse superstep scratch allocations instead of reallocating.
    /// `None` (the default) keeps buffers cluster-private.
    pub buffer_pool: Option<Arc<BufferPool>>,
    /// Serving-session id this cluster executes under, if any; stamps
    /// session-scoped trace events. `None` outside a serving session.
    pub session_id: Option<u64>,
}

impl fmt::Debug for ClusterConfig {
    // Manual impl: `dyn Sink` has no Debug bound.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("workers", &self.workers)
            .field("parallel_workers", &self.parallel_workers)
            .field("dense_threshold", &self.dense_threshold)
            .field("mode", &self.mode)
            .field("sync_mode", &self.sync_mode)
            .field("network", &self.network)
            .field("sink", &self.sink.as_ref().map(|_| "<dyn Sink>"))
            .field("fault_plan", &self.fault_plan)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("checkpoint_disabled", &self.checkpoint_disabled)
            .field("metrics", &self.metrics)
            .field("storage", &self.storage)
            .field("durable_dir", &self.durable_dir)
            .field("durable_resume", &self.durable_resume)
            .field("durable_halt_after", &self.durable_halt_after)
            .field(
                "shared_partition",
                &self.shared_partition.as_ref().map(|_| "<PartitionMap>"),
            )
            .field(
                "buffer_pool",
                &self.buffer_pool.as_ref().map(|_| "<BufferPool>"),
            )
            .field("session_id", &self.session_id)
            .finish()
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            parallel_workers: true,
            dense_threshold: 0.05,
            mode: ModePolicy::Adaptive,
            sync_mode: SyncMode::CriticalOnly,
            network: None,
            sink: None,
            fault_plan: None,
            checkpoint_every: 0,
            checkpoint_disabled: false,
            metrics: false,
            storage: StorageMode::default(),
            durable_dir: None,
            durable_resume: false,
            durable_halt_after: None,
            shared_partition: None,
            buffer_pool: None,
            session_id: None,
        }
    }
}

impl ClusterConfig {
    /// A convenience constructor for an `m`-worker cluster with defaults.
    pub fn with_workers(workers: usize) -> Self {
        ClusterConfig {
            workers,
            ..Default::default()
        }
    }

    /// Sets the kernel-selection policy (builder style).
    pub fn mode(mut self, mode: ModePolicy) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the mirror-sync payload policy (builder style).
    pub fn sync_mode(mut self, sync: SyncMode) -> Self {
        self.sync_mode = sync;
        self
    }

    /// Attaches a simulated network model (builder style).
    pub fn network(mut self, net: NetworkModel) -> Self {
        self.network = Some(net);
        self
    }

    /// Disables real worker threads for deterministic single-threaded runs.
    pub fn sequential(mut self) -> Self {
        self.parallel_workers = false;
        self
    }

    /// Attaches a structured-trace sink (builder style). All superstep,
    /// worker-phase, sync-plan and kernel-decision events flow to it.
    pub fn sink(mut self, sink: Arc<dyn Sink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a fault-injection plan (builder style). Checkpointing is
    /// forced on (at [`DEFAULT_CHECKPOINT_INTERVAL`]) unless an interval
    /// was already configured, because recovery rolls back to checkpoints.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        if self.checkpoint_every == 0 {
            self.checkpoint_every = DEFAULT_CHECKPOINT_INTERVAL;
        }
        self
    }

    /// Sets the checkpoint interval in supersteps (builder style); `0`
    /// disables periodic checkpointing on fault-free runs. To disable
    /// checkpointing on a *faulted* run, use
    /// [`checkpoint_off`](Self::checkpoint_off) — it is an explicit opt-out
    /// rather than an ambiguous zero.
    pub fn checkpoint_every(mut self, interval: usize) -> Self {
        self.checkpoint_every = interval;
        self
    }

    /// Disables checkpointing outright (builder style), overriding the
    /// force-on that a fault plan normally applies. With faults injected
    /// and no checkpoints, a transient fault still replays from nothing,
    /// but a permanent worker loss — or a fault on a `VERTEXMAP` step,
    /// whose in-place writes nothing can undo — has no state to recover
    /// and surfaces as a clean [`RuntimeError::WorkerLost`](crate::RuntimeError).
    pub fn checkpoint_off(mut self) -> Self {
        self.checkpoint_disabled = true;
        self.checkpoint_every = 0;
        self
    }

    /// Enables the `metrics` block (builder style): one p50/p90/p99/max
    /// histogram per superstep phase in the stats JSON. Nothing extra is
    /// timed, so results cannot change; the catalogue bit-identity test
    /// runs every algorithm with metrics on and off.
    pub fn metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Selects the adjacency storage engine (builder style).
    /// [`StorageMode::Block`] turns on the out-of-core streaming path;
    /// the cluster then requires a graph opened via
    /// [`flash_graph::blocks::open_blocks`].
    pub fn storage(mut self, s: StorageMode) -> Self {
        self.storage = s;
        self
    }

    /// Points the durable checkpoint store at `dir` (builder style).
    /// Checkpointing is forced on (at [`DEFAULT_CHECKPOINT_INTERVAL`])
    /// unless an interval was already configured, because the store
    /// persists at checkpoint boundaries.
    pub fn durable_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        if self.checkpoint_every == 0 {
            self.checkpoint_every = DEFAULT_CHECKPOINT_INTERVAL;
        }
        self
    }

    /// Resumes from the durable store instead of starting fresh (builder
    /// style). Ignored without [`durable_dir`](Self::durable_dir).
    pub fn resume(mut self) -> Self {
        self.durable_resume = true;
        self
    }

    /// Arms the scripted cold-restart kill switch (builder style):
    /// durable persistence freezes at the first superstep `>= n` and the
    /// run degrades to [`RuntimeError::Halted`](crate::RuntimeError).
    pub fn halt_after(mut self, n: u64) -> Self {
        self.durable_halt_after = Some(n);
        self
    }

    /// Reuses a pre-built partition (builder style): the context
    /// constructors skip hashing the graph and share this map. The map's
    /// worker count must equal `workers` and its vertex count must match
    /// the graph handed to the constructor.
    pub fn shared_partition(mut self, partition: Arc<PartitionMap>) -> Self {
        self.shared_partition = Some(partition);
        self
    }

    /// Attaches a shared superstep [`BufferPool`] (builder style): the
    /// cluster checks scratch buffers out at construction and back in at
    /// drop, so consecutive query runs reuse allocations.
    pub fn buffer_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.buffer_pool = Some(pool);
        self
    }

    /// Tags this cluster with a serving-session id (builder style).
    pub fn session_id(mut self, id: u64) -> Self {
        self.session_id = Some(id);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ClusterConfig::default();
        assert_eq!(c.workers, 4);
        assert_eq!(c.mode, ModePolicy::Adaptive);
        assert_eq!(c.sync_mode, SyncMode::CriticalOnly);
        assert!(c.network.is_none());
        assert!(c.dense_threshold > 0.0 && c.dense_threshold < 1.0);
    }

    #[test]
    fn builder_chains() {
        let c = ClusterConfig::with_workers(8)
            .mode(ModePolicy::ForceDense)
            .sync_mode(SyncMode::Full)
            .sequential();
        assert_eq!(c.workers, 8);
        assert_eq!(c.mode, ModePolicy::ForceDense);
        assert_eq!(c.sync_mode, SyncMode::Full);
        assert!(!c.parallel_workers);
    }

    #[test]
    fn sink_attaches_and_debug_does_not_explode() {
        let c = ClusterConfig::default().sink(Arc::new(flash_obs::NullSink));
        assert!(c.sink.is_some());
        let dbg = format!("{c:?}");
        assert!(dbg.contains("dyn Sink"), "{dbg}");
        #[allow(clippy::redundant_clone)] // the clone IS the behaviour under test
        let c2 = c.clone(); // Arc clone, not a deep sink copy
        assert!(c2.sink.is_some());
    }

    #[test]
    fn faults_builder_forces_checkpointing_on() {
        let c = ClusterConfig::default().faults(FaultPlan::default());
        assert!(c.fault_plan.is_some());
        assert_eq!(c.checkpoint_every, DEFAULT_CHECKPOINT_INTERVAL);

        let c2 = ClusterConfig::default()
            .checkpoint_every(7)
            .faults(FaultPlan::default());
        assert_eq!(c2.checkpoint_every, 7, "explicit interval wins");

        let c3 = ClusterConfig::default().checkpoint_every(3);
        assert!(c3.fault_plan.is_none());
        assert_eq!(c3.checkpoint_every, 3, "checkpointing works fault-free");
    }

    #[test]
    fn checkpoint_off_wins_over_the_faults_force_on() {
        let c = ClusterConfig::default()
            .checkpoint_off()
            .faults(FaultPlan::default());
        assert!(c.checkpoint_disabled, "explicit opt-out survives faults()");
        let c2 = ClusterConfig::default()
            .faults(FaultPlan::default())
            .checkpoint_off();
        assert!(c2.checkpoint_disabled);
        assert_eq!(c2.checkpoint_every, 0);
        assert!(!ClusterConfig::default().checkpoint_disabled);
    }

    #[test]
    fn storage_defaults_to_in_memory() {
        assert_eq!(ClusterConfig::default().storage, StorageMode::InMemory);
        let c = ClusterConfig::default().storage(StorageMode::Block);
        assert_eq!(c.storage, StorageMode::Block);
        assert!(format!("{c:?}").contains("Block"));
    }

    #[test]
    fn durable_builders_wire_the_store() {
        let c = ClusterConfig::default();
        assert!(c.durable_dir.is_none());
        assert!(!c.durable_resume);
        assert!(c.durable_halt_after.is_none());

        let c = ClusterConfig::default().durable_dir("/tmp/x");
        assert_eq!(
            c.durable_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(
            c.checkpoint_every, DEFAULT_CHECKPOINT_INTERVAL,
            "durable store forces checkpointing on"
        );
        let c = ClusterConfig::default()
            .checkpoint_every(7)
            .durable_dir("/tmp/x");
        assert_eq!(c.checkpoint_every, 7, "explicit interval wins");

        let c = ClusterConfig::default()
            .durable_dir("/tmp/x")
            .resume()
            .halt_after(9);
        assert!(c.durable_resume);
        assert_eq!(c.durable_halt_after, Some(9));
        let dbg = format!("{c:?}");
        assert!(
            dbg.contains("durable_dir") && dbg.contains("halt_after"),
            "{dbg}"
        );
    }
}
