//! Cluster configuration knobs.

use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::netmodel::NetworkModel;
use crate::session::BufferPool;
use flash_graph::{Graph, PartitionMap};
use flash_obs::Sink;
use std::fmt;
use std::sync::Arc;

/// Checkpoint interval (in supersteps) used when a fault plan or a durable
/// directory is attached but no interval was configured: rollback needs a
/// checkpoint to roll back to, and the durable store persists at
/// checkpoint boundaries, so either turns checkpointing on.
pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 4;

/// The dense/sparse switch of the adaptive `EDGEMAP` dispatch, as a
/// fraction of `|E|`: an active set whose `|U|` plus push-row arcs exceed
/// `DENSE_THRESHOLD · |E|` is *dense*. Ligra's value, which the paper
/// takes as a constant.
pub const DENSE_THRESHOLD: f64 = 0.05;

/// How the adaptive `EDGEMAP` dispatch (paper Algorithm 4) picks a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ModePolicy {
    /// Pick dense (pull) when the active set's out-edge mass exceeds
    /// [`DENSE_THRESHOLD`] — the paper's default behaviour.
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

/// Configuration of a simulated FLASH cluster: the one description of a
/// run. The `flash` CLI parses straight into it, and every entry point
/// reads its settings from here.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of workers (the paper's `m`; one partition each).
    pub workers: usize,
    /// Run workers on real OS threads. `false` executes workers
    /// sequentially on the driver thread (deterministic debugging).
    pub parallel_workers: bool,
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
    /// Checkpoint interval in supersteps. `None` (the default) leaves it
    /// to the cluster: [`DEFAULT_CHECKPOINT_INTERVAL`] under a fault plan
    /// or a durable directory, no checkpoints otherwise. `Some(n)` is an
    /// explicit interval, and `Some(0)` turns checkpointing off (see
    /// [`ClusterConfig::checkpoint_off`]).
    pub checkpoint_every: Option<usize>,
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
    /// Pre-built partition the context constructors reuse instead of
    /// building the default map again (see
    /// [`ClusterConfig::partition_for`]). Serving sessions set it so every
    /// query cluster over one snapshot shares a single `Arc<PartitionMap>`
    /// (crate::session); it is also how a run takes an explicit map. Must
    /// match the graph and `workers`.
    pub shared_partition: Option<Arc<PartitionMap>>,
    /// Shared [`BufferPool`] the cluster checks its `StepBuffers` out of
    /// at construction and back into at drop, so back-to-back query runs
    /// reuse superstep scratch allocations instead of reallocating.
    /// `None` (the default) keeps buffers cluster-private.
    pub buffer_pool: Option<Arc<BufferPool>>,
}

impl fmt::Debug for ClusterConfig {
    // Manual impl: `dyn Sink` has no Debug bound.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("workers", &self.workers)
            .field("parallel_workers", &self.parallel_workers)
            .field("mode", &self.mode)
            .field("sync_mode", &self.sync_mode)
            .field("network", &self.network)
            .field("sink", &self.sink.as_ref().map(|_| "<dyn Sink>"))
            .field("fault_plan", &self.fault_plan)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("metrics", &self.metrics)
            .field("storage", &self.storage)
            .field("durable_dir", &self.durable_dir)
            .field("durable_resume", &self.durable_resume)
            .field(
                "shared_partition",
                &self.shared_partition.as_ref().map(|_| "<PartitionMap>"),
            )
            .field(
                "buffer_pool",
                &self.buffer_pool.as_ref().map(|_| "<BufferPool>"),
            )
            .finish()
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            parallel_workers: true,
            mode: ModePolicy::Adaptive,
            sync_mode: SyncMode::CriticalOnly,
            network: None,
            sink: None,
            fault_plan: None,
            checkpoint_every: None,
            metrics: false,
            storage: StorageMode::default(),
            durable_dir: None,
            durable_resume: false,
            shared_partition: None,
            buffer_pool: None,
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

    /// Attaches a fault-injection plan (builder style). Unless an
    /// interval is configured, the cluster then checkpoints every
    /// [`DEFAULT_CHECKPOINT_INTERVAL`] supersteps, because recovery rolls
    /// back to checkpoints.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the checkpoint interval in supersteps (builder style). It
    /// wins over the default a fault plan or a durable directory implies;
    /// `0` is the same as [`checkpoint_off`](Self::checkpoint_off).
    pub fn checkpoint_every(mut self, interval: usize) -> Self {
        self.checkpoint_every = Some(interval);
        self
    }

    /// Disables checkpointing outright (builder style), in either order
    /// with [`faults`](Self::faults). With faults injected and no
    /// checkpoints, a transient fault still replays from nothing, but a
    /// permanent worker loss — or a fault on a `VERTEXMAP` step, whose
    /// in-place writes nothing can undo — has no state to recover and
    /// surfaces as a clean [`RuntimeError::WorkerLost`](crate::RuntimeError).
    /// A durable directory refuses it: the store persists at checkpoints.
    pub fn checkpoint_off(self) -> Self {
        self.checkpoint_every(0)
    }

    /// The checkpoint interval a cluster built from this config runs
    /// with; `0` is off. An explicit interval wins (`Some(0)` is off).
    /// Otherwise rollback needs a checkpoint to roll back to, and the
    /// durable store persists at checkpoint boundaries, so a fault plan or
    /// a durable directory turns checkpointing on at
    /// [`DEFAULT_CHECKPOINT_INTERVAL`].
    pub fn checkpoint_interval(&self) -> usize {
        match self.checkpoint_every {
            Some(n) => n,
            None if self.fault_plan.is_some() || self.durable_dir.is_some() => {
                DEFAULT_CHECKPOINT_INTERVAL
            }
            None => 0,
        }
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
    /// Unless an interval is configured, the cluster then checkpoints
    /// every [`DEFAULT_CHECKPOINT_INTERVAL`] supersteps, because the store
    /// persists at checkpoint boundaries.
    pub fn durable_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Resumes from the durable store instead of starting fresh (builder
    /// style). Ignored without [`durable_dir`](Self::durable_dir).
    pub fn resume(mut self) -> Self {
        self.durable_resume = true;
        self
    }

    /// Reuses a pre-built partition (builder style): the context
    /// constructors skip building the default map and share this one. The
    /// map's worker count must equal `workers` and its vertex count must
    /// match the graph handed to the constructor.
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

    /// The partition a run of this config over `graph` uses: the shared
    /// map when one is attached, else a fresh [`PartitionMap::for_graph`]
    /// map on `workers`. A map that cannot be built (no workers, more
    /// workers than `u16` owners address, a mirror table too large) is
    /// [`RuntimeError::Partition`] with its cause.
    pub fn partition_for(&self, graph: &Graph) -> Result<Arc<PartitionMap>, RuntimeError> {
        match &self.shared_partition {
            Some(p) => Ok(Arc::clone(p)),
            None => PartitionMap::for_graph(graph, self.workers)
                .map(Arc::new)
                .map_err(RuntimeError::Partition),
        }
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
        assert_eq!(c.checkpoint_every, None, "the cluster decides the interval");
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
        assert_eq!(c.checkpoint_interval(), DEFAULT_CHECKPOINT_INTERVAL);

        let c2 = ClusterConfig::default()
            .checkpoint_every(7)
            .faults(FaultPlan::default());
        assert_eq!(c2.checkpoint_interval(), 7, "explicit interval wins");

        let c3 = ClusterConfig::default().checkpoint_every(3);
        assert!(c3.fault_plan.is_none());
        assert_eq!(
            c3.checkpoint_interval(),
            3,
            "checkpointing works fault-free"
        );
        assert_eq!(ClusterConfig::default().checkpoint_interval(), 0);
    }

    #[test]
    fn checkpoint_off_wins_over_the_faults_force_on() {
        let c = ClusterConfig::default()
            .checkpoint_off()
            .faults(FaultPlan::default());
        assert_eq!(
            c.checkpoint_interval(),
            0,
            "explicit opt-out survives faults()"
        );
        let c2 = ClusterConfig::default()
            .faults(FaultPlan::default())
            .checkpoint_off();
        assert_eq!(c2.checkpoint_every, Some(0));
        assert_eq!(c2.checkpoint_interval(), 0);
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

        let c = ClusterConfig::default().durable_dir("/tmp/x");
        assert_eq!(
            c.durable_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(c.checkpoint_every, None, "the builder leaves the interval");
        assert_eq!(
            c.checkpoint_interval(),
            DEFAULT_CHECKPOINT_INTERVAL,
            "durable store turns checkpointing on"
        );
        let c = ClusterConfig::default()
            .checkpoint_every(7)
            .durable_dir("/tmp/x");
        assert_eq!(c.checkpoint_interval(), 7, "explicit interval wins");

        let c = ClusterConfig::default().durable_dir("/tmp/x").resume();
        assert!(c.durable_resume);
        let dbg = format!("{c:?}");
        assert!(
            dbg.contains("durable_dir") && dbg.contains("durable_resume"),
            "{dbg}"
        );
    }

    #[test]
    fn a_partition_that_cannot_be_built_names_its_cause() {
        let g = flash_graph::generators::path(8, true);
        for workers in [70_000, 0] {
            let cfg = ClusterConfig::with_workers(workers);
            let err = cfg.partition_for(&g).expect_err("no such partition");
            assert!(matches!(err, RuntimeError::Partition(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains("65535") && msg.contains("partition"), "{msg}");
            if workers > 0 {
                assert!(msg.contains("70000"), "{msg}");
            }
            let session = crate::Session::new(0, Arc::new(g.clone()), cfg);
            assert_eq!(
                session.err(),
                Some(err),
                "Session::new shares the map build"
            );
        }
        let shared = ClusterConfig::with_workers(2).partition_for(&g).unwrap();
        let cfg = ClusterConfig::with_workers(2).shared_partition(Arc::clone(&shared));
        assert!(Arc::ptr_eq(&cfg.partition_for(&g).unwrap(), &shared));
    }
}
