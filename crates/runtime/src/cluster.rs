//! The simulated cluster: superstep orchestration, message exchange and
//! mirror synchronization.

use crate::checkpoint::{Checkpoint, RecoveryLog, StepDelta};
use crate::config::{ClusterConfig, StorageMode, SyncMode, SyncScope, DEFAULT_CHECKPOINT_INTERVAL};
use crate::consensus::{checksum_quorum, Consensus, LogEntryKind};
use crate::ctx::WorkerCtx;
use crate::durable::{DiskWrite, DurableSession, DurableValue, ScrubReport};
use crate::error::RuntimeError;
use crate::fault::{payload_checksum, FaultInjector, FaultKind, FaultSpec};
use crate::netmodel::NetworkModel;
use crate::par::parallel_scratch_chunks;
use crate::pool::WorkerPool;
use crate::state::{StepBuffers, WorkerState};
use crate::stats::{ns_u64, us_half_up, RunStats, StepKind, StepStats, StorageInfo};
use crate::transport::{RoundBatches, ScriptedChannelFault, Transport};
use crate::VertexData;
use flash_graph::{Graph, PartitionMap, RebalanceReport, StreamScope, StreamSnapshot, VertexId};
use flash_obs::{Event, EventKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of one superstep.
#[derive(Debug)]
pub struct StepOutput<Out> {
    /// Each worker's compute-closure return value, indexed by worker id.
    pub per_worker: Vec<Out>,
    /// Per *owner* worker: the sorted, deduplicated master vertices whose
    /// state changed this superstep (the candidates for the output
    /// vertexSubset of `EDGEMAP`).
    pub updated: Vec<Vec<VertexId>>,
}

impl<Out> StepOutput<Out> {
    /// Flattens the updated-master lists of all workers (already disjoint
    /// because masters are).
    pub fn updated_flat(self) -> Vec<VertexId> {
        let mut all: Vec<VertexId> = self.updated.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }
}

/// A FLASH cluster: `m` workers over a partitioned graph, executing BSP
/// supersteps (§IV). See the crate docs for the simulation model.
pub struct Cluster<V: VertexData> {
    graph: Arc<Graph>,
    partition: Arc<PartitionMap>,
    config: ClusterConfig,
    states: Vec<WorkerState<V>>,
    stats: RunStats,
    /// Monotonic superstep counter for trace events. Unlike `stats`, it is
    /// *not* reset by [`Cluster::take_stats`], so step ids in a trace stay
    /// unique across multiple measured phases of one program.
    next_step: u64,
    /// Monotonic sequence number for trace events.
    next_seq: u64,
    /// Scripted fault injector, present only when the config carries a
    /// [`FaultPlan`](crate::fault::FaultPlan).
    injector: Option<FaultInjector>,
    /// Reliable-delivery transport, present only when the fault plan has
    /// channel faults (scripted or probabilistic).
    transport: Option<Transport>,
    /// Replicated control plane, present whenever a fault plan is attached
    /// (same condition as `injector`): control-plane decisions — epoch
    /// bumps, checkpoint commits, death declarations — replicate through
    /// its majority-committed log under an elected leader. Fault-free runs
    /// skip the layer entirely.
    consensus: Option<Consensus>,
    /// Last checkpoint plus the redo log of supersteps published since.
    recovery: RecoveryLog<V>,
    /// Effective checkpoint interval in supersteps (0 = disabled).
    checkpoint_every: u64,
    /// Terminal recovery failure: set once the retry budget of some
    /// superstep is exhausted, surfaced via [`Cluster::fault_error`].
    failed: Option<RuntimeError>,
    /// Durable checkpoint store session, present only when the cluster was
    /// built through [`Cluster::new_durable`] / [`Cluster::resume`] with a
    /// `durable_dir` configured. `None` keeps every durable hook inert —
    /// runs without the store execute byte-identically to before it
    /// existed (DESIGN.md §15).
    durable: Option<DurableSession<V>>,
    /// Whether an `ioerr@` disk fault fired for the current superstep: a
    /// generation commit due at this step fails and is skipped.
    disk_ioerr: bool,
    /// At-rest damage (`torn@`/`bitrot@`) to apply to the newest committed
    /// generation at this superstep's end: `(kind, byte offset, mask)`.
    disk_damage: Vec<(FaultKind, u64, u8)>,
    /// Pooled per-superstep scratch buffers, reused clear-don't-drop across
    /// supersteps (DESIGN.md §11).
    buffers: StepBuffers<V>,
    /// The persistent threads every parallel phase of a superstep fans out
    /// over (DESIGN.md §11). Spawned — or checked out of
    /// `config.buffer_pool` — by the first superstep that runs a parallel
    /// phase, so `.sequential()` clusters never own a thread.
    pool: Option<WorkerPool>,
    /// This cluster's private block-streaming scope: counters and FIFO
    /// caches for replays of this run's block touches. Owned per cluster
    /// (not per graph) so concurrent runs over one shared block-backed
    /// graph never charge each other's deltas.
    stream_scope: Arc<StreamScope>,
    /// Cumulative block-streaming counters already attributed to finished
    /// supersteps: `finish_step` charges each step the *delta* between the
    /// [`StreamScope`] snapshot and this mark.
    stream_mark: StreamSnapshot,
}

impl<V: VertexData> Cluster<V> {
    /// Builds a cluster whose every replica is initialized by `init`.
    ///
    /// `partition.num_workers()` must equal `config.workers`, and the
    /// partition must cover exactly the graph's vertices.
    pub fn new(
        graph: Arc<Graph>,
        partition: Arc<PartitionMap>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError> {
        if config.durable_dir.is_some() {
            return Err(RuntimeError::Storage(
                "durable_dir is configured but this constructor cannot serialize vertex \
                 state; build the cluster through Cluster::new_durable (the vertex type \
                 must implement DurableValue)"
                    .into(),
            ));
        }
        Self::new_inner(graph, partition, config, init, None, Vec::new())
    }

    /// Builds a cluster with the durable checkpoint store attached
    /// (`config.durable_dir` must be set): every checkpoint is committed
    /// as a generation file through a crash-consistent two-phase commit,
    /// so a killed run can be resumed bit-identically by
    /// [`Cluster::resume`].
    /// With `config.durable_resume` set, this *opens* the store instead of
    /// starting it fresh.
    pub fn new_durable(
        graph: Arc<Graph>,
        partition: Arc<PartitionMap>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError>
    where
        V: DurableValue,
    {
        let Some(dir) = config.durable_dir.clone() else {
            return Err(RuntimeError::Storage(
                "Cluster::new_durable requires config.durable_dir".into(),
            ));
        };
        if config.checkpoint_disabled {
            return Err(RuntimeError::Storage(
                "the durable store persists at checkpoint boundaries; checkpoint_off \
                 conflicts with durable_dir"
                    .into(),
            ));
        }
        let workers = config.workers;
        let vertices = graph.num_vertices();
        let halt = config.durable_halt_after;
        let (session, scrubs) = if config.durable_resume {
            DurableSession::open(&dir, workers, vertices, halt, V::encode, V::decode)?
        } else {
            (
                DurableSession::create(&dir, workers, vertices, halt, V::encode, V::decode)?,
                Vec::new(),
            )
        };
        Self::new_inner(graph, partition, config, init, Some(session), scrubs)
    }

    /// Resumes a killed run from the durable checkpoint store in
    /// `config.durable_dir`: the scrub pass loads the newest valid
    /// generation (falling back past condemned ones), the driver
    /// re-executes the schedule, the loaded checkpoint is authoritative
    /// at its step, and the run continues bit-identically to an
    /// uninterrupted one.
    pub fn resume(
        graph: Arc<Graph>,
        partition: Arc<PartitionMap>,
        mut config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError>
    where
        V: DurableValue,
    {
        config.durable_resume = true;
        Self::new_durable(graph, partition, config, init)
    }

    fn new_inner(
        graph: Arc<Graph>,
        partition: Arc<PartitionMap>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
        durable: Option<DurableSession<V>>,
        scrubs: Vec<ScrubReport>,
    ) -> Result<Self, RuntimeError> {
        if config.workers == 0 {
            return Err(RuntimeError::NoWorkers);
        }
        if partition.num_workers() != config.workers {
            return Err(RuntimeError::PartitionMismatch {
                config: config.workers,
                partition: partition.num_workers(),
            });
        }
        if partition.num_vertices() != graph.num_vertices() {
            return Err(RuntimeError::GraphMismatch {
                graph: graph.num_vertices(),
                partition: partition.num_vertices(),
            });
        }
        if let Some(plan) = &config.fault_plan {
            plan.validate(config.workers)
                .map_err(RuntimeError::InvalidFaultPlan)?;
        }
        if config.storage == StorageMode::Block && graph.block_handle().is_none() {
            return Err(RuntimeError::Storage(
                "block storage requires a block-backed graph (open it via \
                 flash_graph::blocks::open_blocks)"
                    .into(),
            ));
        }
        let n = graph.num_vertices();
        let states = (0..config.workers)
            .map(|_| WorkerState::new(n, &init))
            .collect();
        let workers = config.workers;
        let transport = config
            .fault_plan
            .as_ref()
            .filter(|p| p.has_channel_faults())
            .map(|p| Transport::new(p, workers));
        let injector = config
            .fault_plan
            .clone()
            .map(|p| FaultInjector::new(p, workers));
        let consensus = injector.as_ref().map(|_| Consensus::new());
        // Rollback needs a checkpoint to roll back to, so a fault plan
        // forces periodic checkpointing on even if the config left the
        // interval at 0 (the `faults` builder normally sets it already) —
        // unless the config explicitly opted out via `checkpoint_off`.
        // (The durable store likewise persists at checkpoint boundaries,
        // so it forces the interval on the same way.)
        let checkpoint_every = if config.checkpoint_disabled {
            0
        } else if config.checkpoint_every == 0 && (injector.is_some() || durable.is_some()) {
            DEFAULT_CHECKPOINT_INTERVAL as u64
        } else {
            config.checkpoint_every as u64
        };
        // Scratch buffers come from the config's shared pool when one is
        // attached (serving sessions), else start fresh. Pooled buffers
        // are handed out pristine and returned at drop.
        let buffers = match &config.buffer_pool {
            Some(pool) => pool.checkout(),
            None => StepBuffers::new(),
        };
        let mut cluster = Cluster {
            graph,
            partition,
            config,
            states,
            stats: RunStats::default(),
            next_step: 0,
            next_seq: 0,
            injector,
            transport,
            consensus,
            recovery: RecoveryLog::new(),
            checkpoint_every,
            failed: None,
            durable,
            disk_ioerr: false,
            disk_damage: Vec::new(),
            buffers,
            pool: None,
            // A fresh scope per cluster: counters start at zero and the
            // FIFO caches are cold, regardless of how many other clusters
            // already streamed from the same graph.
            stream_scope: Arc::new(StreamScope::new()),
            stream_mark: StreamSnapshot::default(),
        };
        cluster.stats.storage = cluster.storage_info();
        // The run_meta header is always the first trace line: analyzers
        // (flash_trace) validate its schema version before reading on.
        let (seed, fault_plan) = match &cluster.config.fault_plan {
            None => (0, "none".to_string()),
            Some(p) => (
                p.seed,
                format!(
                    "specs={} loss={} dup={} corrupt={} retries={}",
                    p.specs.len(),
                    p.loss,
                    p.dup_rate,
                    p.corrupt_rate,
                    p.max_retries
                ),
            ),
        };
        cluster.emit(EventKind::RunMeta {
            schema: flash_obs::TRACE_SCHEMA_VERSION,
            seed,
            workers: cluster.config.workers,
            hosts: cluster.partition.num_live_hosts(),
            fault_plan,
        });
        let (net_latency_us, net_bandwidth_bps) = match &cluster.config.network {
            Some(net) => (
                net.latency.as_micros() as u64,
                net.bandwidth_bytes_per_sec as u64,
            ),
            None => (0, 0),
        };
        cluster.emit(EventKind::RunStart {
            workers: cluster.config.workers,
            vertices: cluster.graph.num_vertices(),
            edges: cluster.graph.num_edges(),
            net_latency_us,
            net_bandwidth_bps,
        });
        // A cluster under a fault plan seats its coordinator before the
        // first superstep, so every later decision has a leader to commit
        // it — and `leader@0` has someone to crash.
        let live = cluster.partition.live_hosts();
        cluster.elect_leader(0, &live);
        // Surface what the resume-time scrub pass repaired: each
        // condemned generation is one event and one fallback hop to an
        // older generation.
        for report in scrubs {
            cluster.stats.durability.scrub_repairs += 1;
            cluster.stats.durability.fallbacks += 1;
            cluster.emit(EventKind::CheckpointScrubbed {
                generation: report.generation,
                reason: report.reason,
                fallback: true,
            });
        }
        // Scripted faults wholly before the loaded checkpoint already
        // fired in the killed run; spending them keeps a resumed run from
        // re-firing them *after* it (where `step <= now` would otherwise
        // match). Up to that step the loaded checkpoint is authoritative
        // anyway.
        if let Some(frontier) = cluster
            .durable
            .as_ref()
            .and_then(DurableSession::pending_step)
        {
            if let Some(inj) = &mut cluster.injector {
                inj.drain_through(frontier);
            }
        }
        Ok(cluster)
    }

    /// The shared graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared graph, by owning handle.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// The partition map.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Mutable configuration access (e.g. to flip the mode policy between
    /// runs of a mode-ablation benchmark).
    pub fn config_mut(&mut self) -> &mut ClusterConfig {
        &mut self.config
    }

    /// Number of workers `m`.
    pub fn num_workers(&self) -> usize {
        self.config.workers
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Statistics recorded so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// A fresh snapshot of the storage footprint: the configured mode,
    /// the resident vertex-state bytes (every worker holds a full replica
    /// of the `n`-slot state array — the only per-vertex data a streaming
    /// run keeps in memory), the graph's owned-heap vs memory-mapped
    /// split, and the dense/sparse block census when block-backed.
    fn storage_info(&self) -> StorageInfo {
        let mut info = StorageInfo {
            mode: match self.config.storage {
                StorageMode::InMemory => "in-memory",
                StorageMode::Block => "block",
            },
            resident_state_bytes: (self.states.len() as u64)
                .saturating_mul(self.graph.num_vertices() as u64)
                .saturating_mul(std::mem::size_of::<V>() as u64),
            graph_heap_bytes: self.graph.heap_bytes() as u64,
            graph_mapped_bytes: self.graph.mapped_bytes() as u64,
            dense_blocks: 0,
            sparse_blocks: 0,
        };
        if let Some(h) = self.graph.block_handle() {
            info.dense_blocks = h.grid().num_dense() as u64;
            info.sparse_blocks = h.grid().num_sparse() as u64;
        }
        info
    }

    /// Takes and resets the recorded statistics, emitting a `run_end`
    /// trace event summarizing them.
    pub fn take_stats(&mut self) -> RunStats {
        self.stats.storage = self.storage_info();
        let stats = std::mem::take(&mut self.stats);
        let simulated = stats.simulated_parallel_time();
        self.emit(EventKind::RunEnd {
            supersteps: stats.num_supersteps(),
            total_bytes: stats.total_bytes(),
            total_messages: stats.total_messages(),
            simulated_parallel_us: us_half_up(simulated),
            simulated_parallel_ns: ns_u64(simulated),
        });
        self.stats.storage = self.storage_info();
        stats
    }

    /// The id the next superstep will carry in trace events. Layered
    /// operators (the adaptive `EDGEMAP` dispatch) use it to tag decision
    /// events with the step they decide for.
    pub fn next_step_id(&self) -> u64 {
        self.next_step
    }

    /// This cluster's private block-streaming scope. Streamed kernels
    /// replay their block-touch lists against it so storage accounting
    /// stays per run even when several clusters share one graph.
    pub fn stream_scope(&self) -> &Arc<StreamScope> {
        &self.stream_scope
    }

    /// The terminal fault-recovery error, if some superstep exhausted its
    /// retry budget — or the reliable-delivery transport exhausted its
    /// retransmit budget for a batch. After exhaustion the failing layer
    /// (injector or transport) is disabled and the rest of the program
    /// executes normally (the simulation stays deterministic), so
    /// converged values remain well-defined — but the run must be
    /// reported as failed. Drivers check this once when finishing a run.
    pub fn fault_error(&self) -> Option<RuntimeError> {
        self.failed.clone()
    }

    /// Captures a consistent snapshot of every worker's replica — the same
    /// machinery the periodic checkpoint hook uses. Only valid at a
    /// superstep boundary (nothing staged), which is the only place driver
    /// code can call it.
    pub fn checkpoint(&self) -> Checkpoint<V> {
        Checkpoint::capture(self.next_step, &self.states, &self.partition)
    }

    /// Restores a snapshot taken by [`Cluster::checkpoint`], overwriting
    /// every replica and discarding staged writes. The superstep counter
    /// is *not* rewound: trace step ids stay unique across restores.
    pub fn restore(&mut self, cp: &Checkpoint<V>) {
        cp.restore(&mut self.states);
    }

    /// Emits a trace event to the configured sink (a no-op without one).
    /// Public so higher layers — kernel dispatch in `flash-core`, driver
    /// operators — can contribute events to the same ordered stream.
    pub fn emit(&mut self, kind: EventKind) {
        if let Some(sink) = &self.config.sink {
            let event = Event {
                seq: self.next_seq,
                kind,
            };
            self.next_seq += 1;
            sink.emit(&event);
        }
    }

    /// Emits the `fault_injected` event of one scripted fault firing.
    fn emit_fault(&mut self, step: u64, worker: usize, kind: FaultKind, attempt: u64) {
        self.emit(EventKind::FaultInjected {
            step,
            worker,
            kind: kind.label().to_string(),
            attempt,
        });
    }

    /// Records the run's terminal error; only the first one sticks (see
    /// [`Cluster::fault_error`]).
    fn fail(&mut self, e: RuntimeError) {
        self.failed.get_or_insert(e);
    }

    /// Prices a recovery or control-plane transfer on the simulated
    /// network — zero without one — and records it under `metric`.
    fn charge(
        &mut self,
        metric: &'static str,
        price: impl FnOnce(NetworkModel) -> Duration,
    ) -> Duration {
        let Some(net) = self.config.network else {
            return Duration::ZERO;
        };
        let cost = price(net);
        self.record_cost(metric, cost);
        cost
    }

    /// Adds one recovery/control-plane duration to the `metric` histogram
    /// when metrics are on.
    fn record_cost(&mut self, metric: &'static str, cost: Duration) {
        if self.config.metrics {
            self.stats.metrics.record_duration(metric, cost);
        }
    }

    /// The authoritative (master) value of vertex `v`.
    pub fn value(&self, v: VertexId) -> &V {
        self.states[self.partition.owner(v)].current(v)
    }

    /// Extracts a result per vertex from the authoritative replicas.
    pub fn collect<T>(&self, f: impl Fn(VertexId, &V) -> T) -> Vec<T> {
        (0..self.graph.num_vertices() as VertexId)
            .map(|v| f(v, self.value(v)))
            .collect()
    }

    /// Overwrites `v`'s value on **all** replicas, outside any superstep.
    ///
    /// This is the escape hatch global/auxiliary operators (the paper's
    /// `REDUCE`, `dsu` reconciliation) use to install driver-computed
    /// results; callers account for its traffic via
    /// [`Cluster::record_global`].
    pub fn set_value_global(&mut self, v: VertexId, val: V) {
        if self.injector.is_some() {
            // Driver-side writes must be in the redo log too, or a later
            // rollback would replay past them and lose their effect.
            self.recovery
                .record(StepDelta::global(v, &val, self.states.len()));
        }
        // Clone into all replicas but the last, which takes ownership.
        if let Some((last, rest)) = self.states.split_last_mut() {
            for st in rest {
                st.current[v as usize].clone_from(&val);
            }
            last.current[v as usize] = val;
        }
    }

    /// The pool parallel phases run on, created on first use: checked out
    /// of the config's shared [`BufferPool`](crate::session::BufferPool)
    /// when one is attached (serving sessions), else spawned. `None` — run
    /// the phase serially on the caller — when the cluster is
    /// `.sequential()` or has a single worker.
    ///
    /// Takes the fields it needs rather than `&mut self` so callers can
    /// keep borrowing the worker states the phase runs over.
    fn lane_pool<'p>(
        slot: &'p mut Option<WorkerPool>,
        config: &ClusterConfig,
        lanes: usize,
    ) -> Option<&'p mut WorkerPool> {
        if !config.parallel_workers || lanes <= 1 {
            return None;
        }
        Some(slot.get_or_insert_with(|| match &config.buffer_pool {
            Some(shared) => shared.checkout_workers(lanes),
            None => WorkerPool::new(lanes),
        }))
    }

    /// Returns a consumed [`StepOutput::updated`] buffer to the pool so the
    /// next superstep reuses its allocations. Optional — skipping it just
    /// drops the buffer.
    pub fn recycle_updated(&mut self, updated: Vec<Vec<VertexId>>) {
        self.buffers.recycle_updated(updated);
    }

    /// Records a driver-side global operation (gather/broadcast) in the
    /// statistics: `messages`/`bytes` of cross-worker traffic taking
    /// `elapsed` of wall time.
    pub fn record_global(&mut self, messages: u64, bytes: u64, elapsed: Duration) {
        // A global operation is a BSP barrier too: scripted rejoins land
        // here as well, so a program whose tail is all driver-side
        // reductions (TC, MSF, RC, CL) can still re-grow the cluster.
        self.maybe_rejoin();
        self.emit(EventKind::StepStart {
            step: self.next_step,
            kind: StepKind::Global.label().to_string(),
            active: 0,
        });
        let mut s = StepStats::new(StepKind::Global, 0);
        s.upd_messages = messages;
        s.upd_bytes = bytes;
        s.communicate = elapsed;
        self.finish_step(s);
    }

    /// Runs a *direct* superstep: compute on every worker, publish
    /// whole-value master writes, then synchronize mirrors. Backs
    /// `VERTEXMAP` and `EDGEMAPDENSE`, which update masters without a
    /// reduce function — in place ([`WorkerCtx::update_masters`]) or staged
    /// ([`WorkerCtx::write_master`]).
    pub fn step_direct<Out: Send>(
        &mut self,
        kind: StepKind,
        active: usize,
        scope: SyncScope,
        f: impl Fn(&mut WorkerCtx<'_, V>) -> Out + Sync,
    ) -> StepOutput<Out> {
        self.superstep(kind, active, scope, f, |this, _, _, updated| {
            debug_assert!(
                this.states.iter().all(|s| s.pending.is_empty()),
                "direct superstep must not stage reduce-updates; use step_reduce"
            );
            // Direct writes are master-local: no cross-worker traffic.
            // In-place writes are already in `current`: only their ids move
            // to the owner's `updated` list; staged values move in behind.
            let publishing = Instant::now();
            for (st, upd) in this.states.iter_mut().zip(updated) {
                upd.append(&mut st.written);
                upd.reserve(st.direct.len());
                for (v, val) in st.direct.drain(..) {
                    st.current[v as usize] = val;
                    upd.push(v);
                }
            }
            publishing
        })
    }

    /// Runs a *reduce* superstep: compute on every worker, combine staged
    /// `put` temporaries into masters via `reduce` (mirror→master round),
    /// then synchronize mirrors (master→mirror round). Backs
    /// `EDGEMAPSPARSE` — the paper's three-phase procedure with "two rounds
    /// of message-passing".
    pub fn step_reduce<Out: Send>(
        &mut self,
        active: usize,
        scope: SyncScope,
        reduce: impl Fn(&V, &mut V) + Sync,
        f: impl Fn(&mut WorkerCtx<'_, V>) -> Out + Sync,
    ) -> StepOutput<Out> {
        let kind = StepKind::EdgeMapSparse;
        self.superstep(kind, active, scope, f, |this, step_id, stats, updated| {
            debug_assert!(
                this.states
                    .iter()
                    .all(|s| s.direct.is_empty() && s.written.is_empty()),
                "reduce superstep must not stage direct writes; use step_direct"
            );
            // Serialization: route mirror-side accumulated temporaries to
            // the owners of their target vertices.
            let upd_batches = this.route_updates(stats);
            stats.delivery += this.deliver_round(step_id, "upd", &upd_batches);
            this.buffers.put_upd_batches(upd_batches);

            // Communication round 1: masters merge incoming temporaries
            // into their current value (d_new = R(t, d) per Algorithm 6).
            let merging = Instant::now();
            let masters = this.states.iter_mut().zip(updated);
            for ((st, upd), bucket) in masters.zip(&mut this.buffers.buckets) {
                upd.reserve(bucket.len());
                for (v, temp) in bucket.drain(..) {
                    reduce(&temp, &mut st.current[v as usize]);
                    upd.push(v);
                }
            }
            merging
        })
    }

    /// The one superstep pipeline behind [`Cluster::step_direct`] and
    /// [`Cluster::step_reduce`] — FLASHWARE's three phases: compute, the
    /// mirror→master round (`publish`), the master→mirror round.
    ///
    /// `publish` folds what the compute phase staged into the masters and
    /// pushes every written master onto its owner's `updated` list (any
    /// order, duplicates allowed). It returns the instant that folding
    /// began: everything from there to the sorted lists is the step's
    /// `communicate` time, what `publish` did before it (routing,
    /// delivery) is charged by `publish` itself.
    fn superstep<Out: Send>(
        &mut self,
        kind: StepKind,
        active: usize,
        scope: SyncScope,
        f: impl Fn(&mut WorkerCtx<'_, V>) -> Out + Sync,
        publish: impl FnOnce(&mut Self, u64, &mut StepStats, &mut [Vec<VertexId>]) -> Instant,
    ) -> StepOutput<Out> {
        self.maybe_rejoin();
        self.poll_disk_faults();
        self.maybe_checkpoint();
        let step_id = self.next_step;
        self.emit(EventKind::StepStart {
            step: step_id,
            kind: kind.label().to_string(),
            active,
        });
        self.emit_sync_plan(step_id, scope);
        let mut stats = StepStats::new(kind, active);

        let t0 = Instant::now();
        let (per_worker, durations) = self.compute_with_recovery(step_id, &f);
        stats.compute = t0.elapsed();
        let (host_max, host_min) = self.host_makespan(&durations);
        stats.compute_max = host_max;
        stats.compute_min = host_min;
        self.emit_worker_phases(step_id, &durations);

        let mut updated = self.buffers.take_updated(self.states.len());
        let publishing = publish(self, step_id, &mut stats, &mut updated);
        for list in &mut updated {
            // Direct-step kernels write in master order, so their lists
            // arrive sorted and duplicate-free; only the others pay a sort.
            if !list.windows(2).all(|p| p[0] < p[1]) {
                list.sort_unstable();
                list.dedup();
            }
        }
        stats.communicate = publishing.elapsed();

        self.sync_mirrors(&updated, scope, &mut stats);
        self.record_delta(&updated);
        self.finish_step(stats);
        StepOutput {
            per_worker,
            updated,
        }
    }

    /// Serialization of a reduce superstep: each lane drains a contiguous
    /// chunk of workers' `pending` accumulators into its own (pooled)
    /// bucket set, and the sets are merged in chunk — i.e.
    /// ascending-worker — order into `buffers.buckets`, one per owner,
    /// where the master fold drains them. Returns the upd round's
    /// cross-host batches.
    ///
    /// That merged order does not depend on how many lanes ran: each
    /// accumulator is drained exactly once by exactly one lane, so its
    /// internal drain order is fixed, and concatenating per-chunk buckets
    /// in chunk order is the front-to-back worker order a single lane
    /// (`.sequential()`, the serial reference in `tests/hotpath.rs`)
    /// produces. Message/byte counters and cross-host batch maps are
    /// commutative sums, merged in the same order for good measure
    /// (DESIGN.md §11).
    fn route_updates(&mut self, stats: &mut StepStats) -> RoundBatches {
        let t1 = Instant::now();
        let m = self.states.len();
        let mut buckets = self.buffers.take_buckets(m);
        let mut upd_batches = self.buffers.take_upd_batches();
        let mut bucket_sets = std::mem::take(&mut self.buffers.bucket_sets);
        let track_batches = self.transport.is_some();
        let partition = Arc::clone(&self.partition);
        let pool = Self::lane_pool(&mut self.pool, &self.config, m);
        let serial = pool.is_none();
        let partials = parallel_scratch_chunks(
            pool,
            &mut self.states,
            &mut bucket_sets,
            Vec::new,
            |base, chunk, set: &mut Vec<Vec<(VertexId, V)>>| {
                if set.len() != m {
                    set.resize_with(m, Vec::new);
                }
                let t = Instant::now();
                let mut messages = 0u64;
                let mut bytes_total = 0u64;
                let mut batches = RoundBatches::new();
                for (i, st) in chunk.iter_mut().enumerate() {
                    let sender_host = partition.host_of_worker(base + i);
                    for (v, temp) in st.pending.drain() {
                        let owner = partition.owner(v);
                        // Traffic crosses the wire only between distinct
                        // physical hosts: after an elastic rebalance several
                        // logical workers may share a host, and their
                        // exchanges become local moves.
                        let owner_host = partition.host_of_worker(owner);
                        if owner_host != sender_host {
                            let bytes = (4 + temp.bytes()) as u64;
                            messages += 1;
                            bytes_total += bytes;
                            if track_batches {
                                bump(&mut batches, (sender_host, owner_host), 1, bytes);
                            }
                        }
                        set[owner].push((v, temp));
                    }
                }
                (messages, bytes_total, batches, t.elapsed())
            },
        );
        let used_sets = partials.len();
        for (messages, bytes, batches, elapsed) in partials {
            stats.upd_messages += messages;
            stats.upd_bytes += bytes;
            for (key, (bm, bb)) in batches {
                bump(&mut upd_batches, key, bm, bb);
            }
            // Simulated makespan of the phase: the slowest lane, the
            // analogue of `compute_max` for the compute phase.
            stats.serialize_max = stats.serialize_max.max(elapsed);
        }
        for set in bucket_sets.iter_mut().take(used_sets) {
            for (owner, local) in set.iter_mut().enumerate() {
                buckets[owner].append(local);
            }
        }
        self.buffers.bucket_sets = bucket_sets;
        stats.serialize = t1.elapsed();
        if serial {
            // One lane did everything: the makespan is the total.
            stats.serialize_max = stats.serialize;
        }
        self.buffers.put_buckets(buckets);
        upd_batches
    }

    /// Takes a periodic checkpoint when one is due: at the first superstep
    /// after checkpointing is enabled, then every `checkpoint_every`
    /// supersteps. Called at step entry, where nothing is staged — the BSP
    /// barrier is exactly where consistent snapshots are cheap.
    fn maybe_checkpoint(&mut self) {
        if self.checkpoint_every == 0 {
            return;
        }
        // A resumed run checkpoints exactly at the loaded generation's
        // step — a failed commit may have moved it off the interval grid
        // — and keeps the interval from there, as the killed run did.
        let loaded = self.durable.as_ref().and_then(DurableSession::pending_step);
        let due = match (loaded, self.recovery.checkpoint_step()) {
            (Some(loaded), _) => self.next_step == loaded,
            (None, None) => true,
            (None, Some(at)) => self.next_step.saturating_sub(at) >= self.checkpoint_every,
        };
        if !due {
            return;
        }
        // Durable store first: on a resumed run the loaded checkpoint is
        // authoritative (it overwrites the re-executed state before the
        // snapshot below captures it), and on a live run the two-phase
        // commit (rename *and* directory fsync) must land *before* the
        // consensus CheckpointCommit — the replicated log never commits a
        // generation whose bytes are not durable. A failed write skips
        // the whole checkpoint (install, stats, consensus): the interval
        // logic then retries at the very next superstep.
        if let Some(d) = self.durable.as_mut() {
            let step = self.next_step;
            let outcome = d.on_checkpoint(
                step,
                &mut self.states,
                self.disk_ioerr,
                &mut self.stats.durability,
            );
            debug_assert!(
                d.last_apply_matched,
                "resumed re-execution diverged from the durable checkpoint at step {step}"
            );
            match outcome {
                Ok(DiskWrite::None) => {}
                Ok(DiskWrite::Committed { generation, bytes }) => {
                    self.emit(EventKind::CheckpointDurable {
                        generation,
                        step,
                        frames: 1,
                        bytes,
                    });
                }
                Ok(DiskWrite::Failed) => {
                    self.emit(EventKind::DurableIoError {
                        step,
                        op: "checkpoint".to_string(),
                    });
                    return;
                }
                Err(e) => {
                    self.fail(e);
                    return;
                }
            }
        }
        let cp = Checkpoint::capture(self.next_step, &self.states, &self.partition);
        self.stats.recovery.checkpoints += 1;
        self.stats.recovery.checkpoint_bytes += cp.bytes;
        // Persisting a checkpoint costs one round of shipping the master
        // state off-worker.
        let cost = self.charge("recovery/checkpoint_ns", |net| net.cost(1, cp.bytes));
        self.stats.recovery.checkpoint_time += cost;
        self.emit(EventKind::CheckpointTaken {
            step: self.next_step,
            bytes: cp.bytes,
            interval: self.checkpoint_every,
        });
        // The snapshot becomes the durable recovery point only once a
        // majority of the live hosts commits it to the replicated log —
        // otherwise a survivor could roll back to a checkpoint the rest of
        // the cluster never heard about.
        let voters = self.partition.num_live_hosts();
        self.commit_decision(
            self.next_step,
            LogEntryKind::CheckpointCommit { bytes: cp.bytes },
            voters,
        );
        self.recovery.install(cp);
    }

    /// Consumes the disk-fault specs armed for the superstep about to run
    /// (`ioerr@`/`torn@`/`bitrot@`), splitting them into the flag that
    /// fails this step's generation commit, if one is due, and the
    /// at-rest damage [`Cluster::record_delta`] applies at the step's
    /// end. Inert without a durable store — the specs would have nothing
    /// to hit.
    fn poll_disk_faults(&mut self) {
        self.disk_ioerr = false;
        if self.durable.is_none() {
            return;
        }
        let step = self.next_step;
        let specs = match &mut self.injector {
            Some(inj) => inj.disk_faults(step),
            None => Vec::new(),
        };
        for spec in specs {
            self.emit_fault(step, spec.worker, spec.kind, 0);
            if spec.kind == FaultKind::Ioerr {
                self.disk_ioerr = true;
            } else {
                // The mask is a seeded nonzero byte, so a bitrot flip is
                // guaranteed to actually change the file.
                let mask = match &mut self.injector {
                    Some(inj) => (inj.corruption_nonce() % 255 + 1) as u8,
                    None => 1,
                };
                self.disk_damage.push((spec.kind, spec.byte, mask));
            }
        }
    }

    /// Appends the superstep's published writes to the redo log (only
    /// while a fault plan is active — fault-free runs pay nothing), after
    /// the durable store's per-step work: scripted at-rest damage and the
    /// kill switch. The store writes nothing between checkpoints.
    fn record_delta(&mut self, updated: &[Vec<VertexId>]) {
        if let Some(d) = self.durable.as_mut() {
            // At-rest damage lands at the end of the step, after the
            // commit it is scripted to corrupt, and wedges the store so
            // no later write masks it.
            for (kind, byte, mask) in self.disk_damage.drain(..) {
                d.damage(kind, byte, mask);
            }
            // The scripted kill switch: persistence froze at this step, so
            // the in-memory run from here on is doomed work a real kill
            // would lose — the run degrades to a clean `Halted` while
            // compute continues deterministically (the QuorumLost
            // degradation pattern).
            if let Some(k) = d.halt_check(self.next_step) {
                self.fail(RuntimeError::Halted { step: k });
            }
        }
        if self.injector.is_some() {
            self.recovery
                .record(StepDelta::capture(&self.states, updated));
        }
    }

    /// Runs the compute phase under the fault injector: detected failures
    /// (crashes, corrupted sync payloads) roll all workers back to the
    /// last checkpoint, replay the redo log, charge backoff, and retry;
    /// permanent losses re-home the lost partitions and retry with a fresh
    /// budget. A fault nothing can recover from — `max_retries` failed
    /// retries, a loss without a checkpoint or a quorum — degrades the run
    /// gracefully: the first such error is kept for
    /// [`Cluster::fault_error`], the injector is disabled, and the final
    /// attempt's output stands (keeping the simulation deterministic).
    fn compute_with_recovery<Out: Send>(
        &mut self,
        step_id: u64,
        f: &(impl Fn(&mut WorkerCtx<'_, V>) -> Out + Sync),
    ) -> (Vec<Out>, Vec<Duration>) {
        if self.injector.is_none() {
            return self.run_compute(f);
        }
        let mut attempt: u64 = 0;
        loop {
            let (outs, mut durations) = self.run_compute(f);
            match self.judge_attempt(step_id, attempt, &mut durations) {
                Ok(None) => return (outs, durations),
                Ok(Some(retry)) => attempt = retry,
                Err(e) => {
                    self.fail(e);
                    if let Some(inj) = &mut self.injector {
                        inj.active = false;
                    }
                    return (outs, durations);
                }
            }
        }
    }

    /// Fires the faults scripted for this attempt of `step_id`, in barrier
    /// order: stragglers (and the deadline detector), a coordinator crash,
    /// byzantine lies, then crashes and corruption. The first stage that
    /// loses a host for good ends the attempt — the stages after it fire
    /// on the re-run.
    ///
    /// `Ok(None)`: nothing failed and the attempt's output stands.
    /// `Ok(Some(n))`: re-run the superstep as attempt `n` — `attempt + 1`
    /// after a rollback, `0` (a fresh retry budget) once lost hosts'
    /// partitions were re-homed onto the survivors.
    fn judge_attempt(
        &mut self,
        step_id: u64,
        attempt: u64,
        durations: &mut [Duration],
    ) -> Result<Option<u64>, RuntimeError> {
        if self.miss_deadlines(step_id, attempt, durations)?
            || self.crash_leader(step_id, attempt)?
            || self.expose_liars(step_id, attempt)?
        {
            return Ok(Some(0));
        }
        let detected = self.detect_failures(step_id);
        if detected.is_empty() {
            return Ok(None);
        }
        for spec in &detected {
            self.stats.recovery.faults_injected += 1;
            self.emit_fault(step_id, spec.worker, spec.kind, attempt);
        }
        let budget = self
            .injector
            .as_ref()
            .map_or(0, |i| u64::from(i.plan().max_retries));
        if attempt < budget {
            // Without a checkpoint a retry re-runs on the replicas as they
            // are: safe for staged writes, which are discarded, but masters
            // updated in place have no pre-step value left to restore.
            let wrote_in_place = self.states.iter().any(|st| !st.written.is_empty());
            if wrote_in_place && self.recovery.checkpoint_step().is_none() {
                return Err(RuntimeError::WorkerLost {
                    worker: detected[0].worker,
                    step: step_id,
                });
            }
            self.rollback(step_id, attempt);
            return Ok(Some(attempt + 1));
        }
        // Failure detector, retry half: a `die` fault re-fires on every
        // attempt, so an exhausted budget on one distinguishes a permanent
        // loss from a transient fault that merely kept recurring. The dead
        // worker's partition re-homes onto the survivors and the superstep
        // retries with a fresh budget.
        let mut dead: Vec<usize> = detected
            .iter()
            .filter(|s| s.kind == FaultKind::Die)
            .map(|s| s.worker)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        if dead.is_empty() {
            return Err(RuntimeError::RecoveryExhausted {
                step: step_id,
                attempts: (attempt + 1) as u32,
            });
        }
        self.declare_dead(step_id, &dead, "die", attempt)?;
        Ok(Some(0))
    }

    /// Stragglers: charges each scripted delay into the worker's compute
    /// time (it shows up as barrier skew; no recovery needed) — unless the
    /// delay reaches the failure detector's deadline, in which case the
    /// worker missed the barrier for good and is declared dead right away
    /// (`Ok(true)`). A config-level override (`--detector-timeout`) wins
    /// over the plan's `detector=` option.
    fn miss_deadlines(
        &mut self,
        step_id: u64,
        attempt: u64,
        durations: &mut [Duration],
    ) -> Result<bool, RuntimeError> {
        let Some(inj) = &mut self.injector else {
            return Ok(false);
        };
        let stragglers = inj.stragglers(step_id);
        let detector = self
            .config
            .detector_timeout
            .unwrap_or(inj.plan().detector_timeout);
        for s in &stragglers {
            if let Some(d) = durations.get_mut(s.worker) {
                *d += s.delay;
            }
            self.stats.recovery.stragglers += 1;
            self.stats.recovery.straggler_delay += s.delay;
            self.emit_fault(step_id, s.worker, s.kind, attempt);
        }
        let mut dead: Vec<usize> = stragglers
            .iter()
            .filter(|s| s.delay >= detector)
            .map(|s| s.worker)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        if dead.is_empty() {
            return Ok(false);
        }
        self.declare_dead(step_id, &dead, "deadline", attempt)?;
        Ok(true)
    }

    /// Coordinator crash: a `leader@` fault kills whichever host currently
    /// leads the control plane. The survivors elect a new leader, the
    /// death declaration commits under the new term, and the superstep
    /// retries from the checkpoint like any other permanent loss — so
    /// results stay bit-identical. `Ok(true)` when a leader went down.
    fn crash_leader(&mut self, step_id: u64, attempt: u64) -> Result<bool, RuntimeError> {
        let fires = self
            .injector
            .as_mut()
            .map_or(0, |inj| inj.leader_crashes(step_id));
        let mut crashed = false;
        for _ in 0..fires {
            let Some(leader) = self.consensus.as_ref().and_then(|c| c.leader()) else {
                break;
            };
            crashed = true;
            self.stats.consensus.leader_crashes += 1;
            self.stats.recovery.faults_injected += 1;
            self.emit_fault(step_id, leader, FaultKind::Leader, attempt);
            if let Some(cons) = &mut self.consensus {
                cons.vacate();
            }
            self.declare_dead(step_id, &[leader], "leader", attempt)?;
        }
        Ok(crashed)
    }

    /// Byzantine workers: a `lie@` fault makes a worker report a
    /// checksum-mismatched sync payload. Every live host recomputes the
    /// payload checksum independently; a strict majority agreeing on the
    /// true value pins the lie on the worker, and the accusation escalates
    /// to a committed death declaration (`Ok(true)`). Without enough
    /// honest replicas to form that majority the run degrades to
    /// [`RuntimeError::QuorumLost`].
    fn expose_liars(&mut self, step_id: u64, attempt: u64) -> Result<bool, RuntimeError> {
        let liars = match &mut self.injector {
            Some(inj) => inj.liars(step_id),
            None => Vec::new(),
        };
        let mut accused = false;
        for w in liars {
            let expected = self.staged_checksum(w);
            let nonce = self
                .injector
                .as_mut()
                .map_or(1, |inj| inj.corruption_nonce());
            let observed = expected ^ nonce;
            let liar_host = self.partition.host_of_worker(w);
            let votes: Vec<(usize, u64)> = self
                .partition
                .live_hosts()
                .into_iter()
                .map(|h| (h, if h == liar_host { observed } else { expected }))
                .collect();
            self.stats.recovery.faults_injected += 1;
            self.emit_fault(step_id, w, FaultKind::Lie, attempt);
            let verdict = checksum_quorum(&votes).map_err(|needed| RuntimeError::QuorumLost {
                step: step_id,
                live: votes.len(),
                needed,
            })?;
            self.stats.consensus.accusations += 1;
            self.emit(EventKind::WorkerAccused {
                step: step_id,
                worker: w,
                accusers: verdict.accusers,
                quorum: verdict.quorum,
                expected: format!("{:#018x}", verdict.expected),
                observed: format!("{observed:#018x}"),
            });
            accused = true;
            self.declare_dead(step_id, &[w], "accused", attempt)?;
        }
        Ok(accused)
    }

    /// Checksum of the sync payload worker `w` has staged, framed as
    /// `(vertex, byte-length)` records — what it would put on the wire. An
    /// in-place write is framed with the value it left in `current`,
    /// exactly as the staged `direct` entry it replaces would be.
    fn staged_checksum(&self, w: usize) -> u64 {
        let st = &self.states[w];
        let in_place = st.written.iter().map(|&v| (v, st.current(v).bytes()));
        payload_checksum(
            st.pending
                .iter()
                .map(|(v, val)| (v, val.bytes()))
                .chain(st.direct.iter().map(|(v, val)| (*v, val.bytes())))
                .chain(in_place),
        )
    }

    /// Decides which scripted failures actually fire this attempt. Crashes
    /// are detected at the barrier (missed heartbeat). Corruption is
    /// detected honestly: the worker's staged sync payload is framed as
    /// `(vertex, byte-length)` records, checksummed, and the transmitted
    /// checksum — which the fault XORs with a nonzero PRNG nonce — is
    /// compared against the recomputed one.
    fn detect_failures(&mut self, step_id: u64) -> Vec<FaultSpec> {
        let failures = match &mut self.injector {
            Some(inj) => inj.failures(step_id),
            None => Vec::new(),
        };
        let mut detected = Vec::new();
        for spec in failures {
            match spec.kind {
                FaultKind::Crash | FaultKind::Die => detected.push(spec),
                FaultKind::CorruptSync => {
                    let computed = self.staged_checksum(spec.worker);
                    let nonce = match &mut self.injector {
                        Some(inj) => inj.corruption_nonce(),
                        None => 0,
                    };
                    let transmitted = computed ^ nonce;
                    if transmitted != computed {
                        detected.push(spec);
                    }
                }
                // Stragglers, rejoins, channel faults, the consensus
                // faults and the disk faults never surface here:
                // `failures()` filters them out (channel faults are
                // handled below the barrier by the transport; leader
                // crashes and lies have their own quorum paths in
                // `compute_with_recovery`; disk faults hit the durable
                // store through `poll_disk_faults`).
                FaultKind::Straggler
                | FaultKind::Rejoin
                | FaultKind::Drop
                | FaultKind::Duplicate
                | FaultKind::Reorder
                | FaultKind::Leader
                | FaultKind::Lie
                | FaultKind::Ioerr
                | FaultKind::Torn
                | FaultKind::Bitrot => {}
            }
        }
        detected
    }

    /// Replays any scripted `rejoin@` events due at the next superstep: the
    /// returning host reclaims its home partition (whose master state flows
    /// back over the simulated network) and its remaining fault specs
    /// re-arm. Adopted partitions stay where the rebalance put them.
    fn maybe_rejoin(&mut self) {
        let step_id = self.next_step;
        let rejoins = match &mut self.injector {
            Some(inj) => inj.rejoins(step_id),
            None => Vec::new(),
        };
        for spec in rejoins {
            let report = match Arc::make_mut(&mut self.partition).rejoin(spec.worker) {
                Ok(r) => r,
                // The worker was never actually declared dead (its `die`
                // never got to fire, or recovery already failed); the
                // rejoin has nothing to restore.
                Err(_) => continue,
            };
            if let Some(inj) = &mut self.injector {
                inj.mark_alive(spec.worker);
            }
            self.stats.recovery.workers_rejoined += 1;
            self.apply_migration(step_id, &report, "rejoin");
        }
    }

    /// Declares `dead` workers permanently lost at `step_id`: rolls every
    /// replica back to the last checkpoint (replaying the redo log to the
    /// current step), re-homes the dead hosts' partitions onto the
    /// survivors, and charges the migration traffic. Errors with
    /// [`RuntimeError::WorkerLost`] when no checkpoint exists to recover the
    /// lost masters from — survivors only hold stale mirrors, so without a
    /// checkpoint the authoritative state is simply gone.
    fn declare_dead(
        &mut self,
        step_id: u64,
        dead: &[usize],
        reason: &str,
        attempt: u64,
    ) -> Result<(), RuntimeError> {
        // This path is reached from fault handling, so it must degrade to
        // typed errors rather than panic — even on the "impossible" shapes
        // (an empty dead-set, a checkpoint that vanished between the check
        // and the rollback).
        let lost = || RuntimeError::WorkerLost {
            worker: dead.first().copied().unwrap_or(0),
            step: step_id,
        };
        if self.recovery.checkpoint_step().is_none() {
            return Err(lost());
        }
        // Control plane first: the death is a replicated decision, voted
        // on by the survivors only (the dying hosts cannot acknowledge
        // their own funeral). If the current leader is among the dying —
        // or the leadership is already vacant — the survivors elect a new
        // leader before the declaration commits under its term.
        if self.consensus.is_some() {
            let survivors: Vec<usize> = self
                .partition
                .live_hosts()
                .into_iter()
                .filter(|h| !dead.contains(h))
                .collect();
            let leader_gone = match self.consensus.as_ref().and_then(|c| c.leader()) {
                None => true,
                Some(l) => dead.contains(&l) || !self.partition.is_host_live(l),
            };
            if leader_gone && !survivors.is_empty() {
                self.elect_leader(step_id, &survivors);
            }
            self.commit_decision(
                step_id,
                LogEntryKind::DeathDeclaration {
                    hosts: dead.to_vec(),
                    reason: reason.to_string(),
                },
                survivors.len(),
            );
        }
        let Some(restored) = self.restore_checkpoint() else {
            return Err(lost());
        };
        self.account_replay(step_id, attempt, Duration::ZERO, restored);
        let report = Arc::make_mut(&mut self.partition)
            .rebalance(dead)
            .map_err(|_| lost())?;
        self.stats.recovery.workers_lost += dead.len() as u64;
        for &w in dead {
            if let Some(inj) = &mut self.injector {
                inj.mark_dead(w);
            }
            self.emit(EventKind::WorkerDeclaredDead {
                step: step_id,
                worker: w,
                reason: reason.to_string(),
                epoch: report.epoch,
            });
        }
        self.apply_migration(step_id, &report, reason);
        Ok(())
    }

    /// Applies one membership change: bumps the epoch counters, emits the
    /// `membership_epoch` and per-partition `state_migrated` events, and
    /// charges the bulk state transfer to the simulated network.
    fn apply_migration(&mut self, step_id: u64, report: &RebalanceReport, cause: &str) {
        self.stats.recovery.membership_epochs += 1;
        self.emit(EventKind::MembershipEpoch {
            epoch: report.epoch,
            step: step_id,
            live_hosts: self.partition.num_live_hosts(),
            moved_partitions: report.moved.len(),
            cause: cause.to_string(),
        });
        let mut total_bytes = 0u64;
        for mv in &report.moved {
            let masters = self.partition.masters(mv.worker);
            let st = &self.states[mv.worker];
            let vertices = masters.len() as u64;
            let bytes: u64 = masters
                .iter()
                .map(|&v| (4 + st.current[v as usize].bytes()) as u64)
                .sum();
            total_bytes += bytes;
            self.stats.recovery.vertices_migrated += vertices;
            self.stats.recovery.migrated_bytes += bytes;
            self.emit(EventKind::StateMigrated {
                epoch: report.epoch,
                partition: mv.worker,
                from: mv.from,
                to: mv.to,
                vertices,
                bytes,
            });
        }
        if !report.moved.is_empty() {
            let rounds = 1 + report.moved.len() as u32;
            let cost = self.charge("recovery/migration_ns", |net| net.cost(rounds, total_bytes));
            self.stats.recovery.migration_net += cost;
        }
        // The epoch bump is a control-plane decision: the survivors must
        // majority-commit it before acting under the new hosting.
        let voters = self.partition.num_live_hosts();
        self.commit_decision(
            step_id,
            LogEntryKind::EpochBump {
                epoch: report.epoch,
                cause: cause.to_string(),
            },
            voters,
        );
    }

    /// Wire bytes one replicated log record occupies per receiving
    /// replica: `(term, index, step)` plus a small tagged payload.
    const LOG_RECORD_BYTES: u64 = 64;

    /// Runs one election among `live` hosts through the control plane (a
    /// no-op without one): bumps the term, seats the smallest live host,
    /// charges the two-round vote traffic (RequestVote + grants) to the
    /// simulated network, and emits the `leader_elected` event.
    fn elect_leader(&mut self, step: u64, live: &[usize]) {
        let Some(cons) = &mut self.consensus else {
            return;
        };
        let Some(el) = cons.elect(live) else {
            // No live host to elect — the run is already degrading through
            // the membership error path; nothing to record here.
            return;
        };
        self.stats.consensus.elections += 1;
        let bytes = Self::LOG_RECORD_BYTES * el.live_hosts as u64;
        let cost = self.charge("consensus/election_ns", |net| net.cost(2, bytes));
        self.stats.consensus.election_net += cost;
        self.emit(EventKind::LeaderElected {
            term: el.term,
            leader: el.leader,
            step,
            votes: el.votes,
            live_hosts: el.live_hosts,
        });
    }

    /// Appends one decision to the replicated log and commits it with
    /// `voters` acknowledging replicas (a no-op without a control plane):
    /// charges the append + ack rounds to the simulated network and emits
    /// the `log_committed` event. A voter set that cannot form a majority
    /// degrades the run to [`RuntimeError::QuorumLost`] — set once, like
    /// every other terminal fault.
    fn commit_decision(&mut self, step: u64, kind: LogEntryKind, voters: usize) {
        let Some(cons) = &mut self.consensus else {
            return;
        };
        self.stats.consensus.entries_appended += 1;
        match cons.commit(step, kind.clone(), voters) {
            Ok(commit) => {
                self.stats.consensus.entries_committed += 1;
                let bytes = Self::LOG_RECORD_BYTES * voters as u64;
                let cost = self.charge("consensus/commit_ns", |net| net.cost(2, bytes));
                self.stats.consensus.commit_net += cost;
                self.emit(EventKind::LogCommitted {
                    term: commit.term,
                    index: commit.index,
                    step,
                    kind: kind.label().to_string(),
                    acks: commit.acks,
                    quorum: commit.quorum,
                });
            }
            Err(needed) => self.fail(RuntimeError::QuorumLost {
                step,
                live: voters,
                needed,
            }),
        }
    }

    /// Aggregates per-logical-worker compute durations into per-*host*
    /// makespans: co-hosted partitions execute serially on their shared
    /// host, so their durations add, and the barrier waits for the slowest
    /// live host. Fault-free (identity host map) this reduces to the plain
    /// max/min over workers.
    fn host_makespan(&self, durations: &[Duration]) -> (Duration, Duration) {
        let m = durations.len();
        let mut per_host = vec![Duration::ZERO; m];
        for (w, d) in durations.iter().enumerate() {
            per_host[self.partition.host_of_worker(w)] += *d;
        }
        let live = (0..m).filter(|&h| self.partition.is_host_live(h));
        let max = live.clone().map(|h| per_host[h]).max().unwrap_or_default();
        let min = live.map(|h| per_host[h]).min().unwrap_or_default();
        (max, min)
    }

    /// Retries after a transient failure: charges the retry backoff, then
    /// rolls every worker back and replays. Without a checkpoint (none
    /// due yet) the retry simply re-runs on the unmodified pre-step state,
    /// which the discarded staged writes make safe.
    fn rollback(&mut self, step_id: u64, attempt: u64) {
        let backoff = self
            .injector
            .as_ref()
            .map(|i| i.plan().backoff(attempt as u32))
            .unwrap_or_default();
        self.stats.recovery.retry_backoff += backoff;
        self.record_cost("recovery/backoff_ns", backoff);
        let restored = self.restore_checkpoint().unwrap_or((step_id, 0, 0));
        self.account_replay(step_id, attempt, backoff, restored);
    }

    /// The state half of every recovery, transient or permanent: discards
    /// what the failed attempt staged, restores every replica from the
    /// last checkpoint and replays the redo log. Returns `(from_step,
    /// replayed supersteps, replayed bytes)`, `None` without a checkpoint.
    fn restore_checkpoint(&mut self) -> Option<(u64, u64, u64)> {
        for st in &mut self.states {
            st.discard_staged();
        }
        self.recovery.rollback(&mut self.states)
    }

    /// Accounts for one restore: counters, simulated replay traffic and
    /// the `recovery_replay` event, which also reports the `backoff` the
    /// caller charged.
    fn account_replay(
        &mut self,
        step_id: u64,
        attempt: u64,
        backoff: Duration,
        (from_step, replayed, bytes): (u64, u64, u64),
    ) {
        self.stats.recovery.rollbacks += 1;
        self.stats.recovery.replayed_supersteps += replayed;
        let cost = self.charge("recovery/replay_ns", |net| {
            net.recovery_cost(replayed, bytes)
        });
        self.stats.recovery.replay_net += cost;
        self.emit(EventKind::RecoveryReplay {
            step: step_id,
            from_step,
            replayed,
            attempt,
            backoff_us: backoff.as_micros() as u64,
        });
    }

    /// Per-worker phase accounting at the barrier: takes (and resets) each
    /// worker's staged-op counters and emits one `worker_phase` event.
    fn emit_worker_phases(&mut self, step: u64, durations: &[Duration]) {
        for (w, dur) in durations.iter().enumerate() {
            // Counters reset unconditionally so a sink attached mid-run
            // never sees ops from earlier supersteps.
            let staged_puts = std::mem::take(&mut self.states[w].op_puts);
            let staged_writes = std::mem::take(&mut self.states[w].op_writes);
            if self.config.sink.is_some() {
                self.emit(EventKind::WorkerPhase {
                    step,
                    worker: w,
                    compute_us: us_half_up(*dur),
                    compute_ns: ns_u64(*dur),
                    staged_puts,
                    staged_writes,
                });
            }
        }
    }

    /// Emits the sync-plan decision for one superstep: payload policy,
    /// mirror scope, and the declared critical properties.
    fn emit_sync_plan(&mut self, step: u64, scope: SyncScope) {
        if self.config.sink.is_none() {
            return;
        }
        let mode = match self.config.sync_mode {
            SyncMode::CriticalOnly => "critical",
            SyncMode::Full => "full",
        };
        let scope_label = match scope {
            SyncScope::Necessary => "necessary",
            SyncScope::All => "all",
        };
        let properties = self.config.sync_properties.clone();
        self.emit(EventKind::SyncPlan {
            step,
            mode: mode.to_string(),
            scope: scope_label.to_string(),
            properties,
        });
    }

    /// Executes the compute closure on all workers (in parallel when
    /// configured), returning their outputs and wall-clock durations in
    /// worker order (the max duration is the BSP makespan of the phase).
    fn run_compute<Out: Send>(
        &mut self,
        f: &(impl Fn(&mut WorkerCtx<'_, V>) -> Out + Sync),
    ) -> (Vec<Out>, Vec<Duration>) {
        let graph = self.graph.as_ref();
        let partition = self.partition.as_ref();
        let threads = self.config.threads_per_worker;
        let timed = |w: usize, st: &mut WorkerState<V>| -> (Out, Duration) {
            let t = Instant::now();
            let mut ctx = WorkerCtx::new(w, graph, partition, st, threads);
            let out = f(&mut ctx);
            (out, t.elapsed())
        };
        let lanes = self.states.len();
        let results: Vec<(Out, Duration)> =
            match Self::lane_pool(&mut self.pool, &self.config, lanes) {
                Some(pool) => pool.run(self.states.iter_mut(), timed),
                None => self
                    .states
                    .iter_mut()
                    .enumerate()
                    .map(|(w, st)| timed(w, st))
                    .collect(),
            };
        let (outs, durations) = results.into_iter().unzip();
        (outs, durations)
    }

    /// Communication round 2: masters broadcast their new state to mirrors.
    ///
    /// Under [`SyncScope::Necessary`] only workers with an incident edge
    /// receive the update; under [`SyncScope::All`] (virtual-edge steps)
    /// every worker does. Under [`SyncMode::CriticalOnly`] the payload is
    /// the critical projection; under [`SyncMode::Full`] the whole value.
    ///
    /// One serial pass over `updated × recipients` applies each payload to
    /// its mirror replicas and, on the same visit, counts the wire traffic:
    /// one message per distinct recipient *host*, because after an elastic
    /// rebalance several logical partitions can share a host and one
    /// shipped payload serves all of them (it is still applied to every
    /// logical replica, so co-hosted mirrors stay coherent). The pass reads
    /// only master slots and writes only mirror slots (`r != owner`), so
    /// the order of its visits is unobservable.
    fn sync_mirrors(&mut self, updated: &[Vec<VertexId>], scope: SyncScope, stats: &mut StepStats) {
        let m = self.states.len();
        if m <= 1 {
            return;
        }
        let t = Instant::now();
        let mode = self.config.sync_mode;
        let track_batches = self.transport.is_some();
        let mut batches = self.buffers.take_sync_batches();
        let hosts = &mut self.buffers.host_buf;
        let partition = &*self.partition;
        let live = match scope {
            SyncScope::Necessary => Vec::new(),
            SyncScope::All => partition.live_hosts(),
        };
        let states = &mut self.states[..];
        let (mut messages, mut bytes_total) = (0u64, 0u64);
        for (w, upd) in updated.iter().enumerate() {
            let sender = partition.host_of_worker(w);
            if scope == SyncScope::All {
                // Every live host but the sender's receives every payload.
                hosts.clear();
                hosts.extend(live.iter().filter(|&&h| h != sender).map(|&h| h as u16));
            }
            for &v in upd {
                let vi = v as usize;
                let (bytes, shipped) = match scope {
                    SyncScope::Necessary => {
                        // One payload per distinct recipient host: a mirror
                        // on the sender's host, or on an earlier mirror's,
                        // rides on a payload already shipped. Counted on the
                        // walk that applies the payload, without collecting
                        // the hosts unless batches are tracked — a separate
                        // `necessary_mirror_hosts` walk cost pr_rmat ~14 %.
                        let mirrors = partition.necessary_mirrors(v);
                        let host = |r: u16| partition.host_of_worker(usize::from(r));
                        let mut shipped = 0;
                        hosts.clear();
                        let walk = mirrors.iter().enumerate().map(|(i, &r)| {
                            let h = host(r);
                            if h != sender && mirrors[..i].iter().all(|&q| host(q) != h) {
                                shipped += 1;
                                if track_batches {
                                    hosts.push(h as u16);
                                }
                            }
                            usize::from(r)
                        });
                        (push_to_mirrors(states, w, vi, mode, walk), shipped)
                    }
                    SyncScope::All => {
                        let others = (0..m).filter(|&r| r != w);
                        (
                            push_to_mirrors(states, w, vi, mode, others),
                            hosts.len() as u64,
                        )
                    }
                };
                messages += shipped;
                bytes_total += shipped * bytes;
                if track_batches {
                    for &h in hosts.iter() {
                        bump(&mut batches, (sender, usize::from(h)), 1, bytes);
                    }
                }
            }
        }
        stats.sync_messages += messages;
        stats.sync_bytes += bytes_total;
        let elapsed = t.elapsed();
        if self.config.metrics {
            self.stats
                .metrics
                .record_duration("step/commit_ns", elapsed);
        }
        stats.communicate += elapsed;
        stats.delivery += self.deliver_round(self.next_step, "sync", &batches);
        self.buffers.put_sync_batches(batches);
    }

    /// Runs one message round's batches through the reliable-delivery
    /// transport (a no-op when the plan has no channel faults). The
    /// injector's channel faults due at this step fire here, resolved to
    /// sending hosts; protocol events are re-emitted in order, and an
    /// exhausted retransmit budget degrades the run exactly like
    /// [`RuntimeError::RecoveryExhausted`] — `failed` is set once, and the
    /// transport disables itself so the rest of the run stays
    /// deterministic.
    ///
    /// Returns the wall time the protocol spent, which callers charge to
    /// the step's `delivery` phase — previously this ran *after* the
    /// serialize timer had stopped and was attributed to no phase at all.
    fn deliver_round(&mut self, step_id: u64, round: &str, batches: &RoundBatches) -> Duration {
        let Some(transport) = &mut self.transport else {
            return Duration::ZERO;
        };
        let timer = Instant::now();
        let scripted: Vec<ScriptedChannelFault> = match &mut self.injector {
            Some(inj) => {
                let partition = &self.partition;
                inj.channel_faults(step_id, |w| {
                    let h = partition.host_of_worker(w);
                    batches.keys().any(|&(sender, _)| sender == h)
                })
                .into_iter()
                .map(|spec| (spec.kind, partition.host_of_worker(spec.worker), spec.times))
                .collect()
            }
            None => Vec::new(),
        };
        let outcome = transport.deliver(
            step_id,
            round,
            batches,
            &scripted,
            self.config.network.as_ref(),
            &mut self.stats.delivery,
            self.config.metrics.then_some(&mut self.stats.metrics),
        );
        for kind in outcome.events {
            self.emit(kind);
        }
        if let Some(err) = outcome.failure {
            self.fail(err);
        }
        timer.elapsed()
    }

    /// Charges the simulated network, records the superstep, emits its
    /// `step_end` event and advances the step counter.
    fn finish_step(&mut self, mut stats: StepStats) {
        if self.graph.block_handle().is_some() {
            // Charge this step the streaming delta since the previous one:
            // the scope's counters are cumulative over this cluster's
            // lifetime (and private to it).
            let snap = self.stream_scope.snapshot();
            stats.streamed_bytes = snap
                .bytes_streamed
                .saturating_sub(self.stream_mark.bytes_streamed);
            stats.streamed_blocks = snap
                .blocks_streamed
                .saturating_sub(self.stream_mark.blocks_streamed);
            stats.block_cache_hits = snap.cache_hits.saturating_sub(self.stream_mark.cache_hits);
            self.stream_mark = snap;
            if self.config.metrics && stats.streamed_blocks > 0 {
                let m = &mut self.stats.metrics;
                m.counter_add("storage/bytes_streamed", stats.streamed_bytes);
                m.counter_add("storage/blocks_streamed", stats.streamed_blocks);
                m.counter_add("storage/cache_hits", stats.block_cache_hits);
                m.record("step/streamed_bytes", stats.streamed_bytes);
            }
        }
        if let Some(net) = &self.config.network {
            let rounds = u32::from(stats.upd_bytes > 0) + u32::from(stats.sync_bytes > 0);
            stats.simulated_net = net.cost(rounds, stats.total_bytes());
        }
        if self.config.metrics {
            let m = &mut self.stats.metrics;
            m.record_duration("step/compute_max_ns", stats.compute_max);
            m.record_duration("step/barrier_skew_ns", stats.barrier_skew());
            m.record_duration("step/serialize_ns", stats.serialize);
            m.record_duration("step/bucketing_ns", stats.serialize_max);
            m.record_duration("step/delivery_ns", stats.delivery);
            m.record_duration("step/simulated_net_ns", stats.simulated_net);
            m.gauge_set(
                "cluster/live_hosts",
                i64::try_from(self.partition.num_live_hosts()).unwrap_or(i64::MAX),
            );
        }
        let step_id = self.next_step;
        self.next_step += 1;
        if self.config.sink.is_some() {
            let skew = stats.barrier_skew();
            self.emit(EventKind::StepEnd {
                step: step_id,
                kind: stats.kind.label().to_string(),
                active: stats.active,
                upd_messages: stats.upd_messages,
                upd_bytes: stats.upd_bytes,
                sync_messages: stats.sync_messages,
                sync_bytes: stats.sync_bytes,
                compute_us: us_half_up(stats.compute),
                compute_max_us: us_half_up(stats.compute_max),
                compute_min_us: us_half_up(stats.compute_min),
                barrier_skew_us: us_half_up(skew),
                serialize_us: us_half_up(stats.serialize),
                serialize_max_us: us_half_up(stats.serialize_max),
                communicate_us: us_half_up(stats.communicate),
                delivery_us: us_half_up(stats.delivery),
                simulated_net_us: us_half_up(stats.simulated_net),
                compute_ns: ns_u64(stats.compute),
                compute_max_ns: ns_u64(stats.compute_max),
                compute_min_ns: ns_u64(stats.compute_min),
                barrier_skew_ns: ns_u64(skew),
                serialize_ns: ns_u64(stats.serialize),
                serialize_max_ns: ns_u64(stats.serialize_max),
                communicate_ns: ns_u64(stats.communicate),
                delivery_ns: ns_u64(stats.delivery),
                simulated_net_ns: ns_u64(stats.simulated_net),
            });
        }
        self.stats.push(stats);
    }
}

impl<V: VertexData> Drop for Cluster<V> {
    fn drop(&mut self) {
        // Return pooled scratch to the shared pool (reset happens at
        // checkin). Clusters without a pool just drop their buffers.
        if let Some(shared) = self.config.buffer_pool.clone() {
            shared.checkin(std::mem::replace(&mut self.buffers, StepBuffers::new()));
            if let Some(workers) = self.pool.take() {
                shared.checkin_workers(workers);
            }
        }
    }
}

/// Adds `messages`/`bytes` to the `(sender host, receiver host)` batch of
/// one message round.
fn bump(batches: &mut RoundBatches, pair: (usize, usize), messages: u64, bytes: u64) {
    let batch = batches.entry(pair).or_insert((0, 0));
    batch.0 += messages;
    batch.1 += bytes;
}

/// Applies the master value `states[w].current[vi]` to every replica in
/// `recipients` and returns its wire size under `mode`: `Full` clones the
/// master slot into each mirror by reference, `CriticalOnly` materialises
/// one projection and moves it into the last recipient.
fn push_to_mirrors<V: VertexData>(
    states: &mut [WorkerState<V>],
    w: usize,
    vi: usize,
    mode: SyncMode,
    recipients: impl Iterator<Item = usize>,
) -> u64 {
    match mode {
        SyncMode::Full => {
            for r in recipients {
                clone_full_to(states, w, r, vi);
            }
            (4 + states[w].current[vi].bytes()) as u64
        }
        SyncMode::CriticalOnly => {
            let payload = states[w].current[vi].critical();
            let bytes = (4 + V::critical_bytes(&payload)) as u64;
            apply_critical_last_move(states, vi, payload, recipients);
            bytes
        }
    }
}

/// Clones `states[w].current[vi]` into `states[r].current[vi]` by
/// reference: `clone_from` reuses the destination's heap allocations, and
/// no owned payload is materialized. `w != r` is a caller invariant
/// (mirror lists never contain the owner).
fn clone_full_to<V: VertexData>(states: &mut [WorkerState<V>], w: usize, r: usize, vi: usize) {
    debug_assert_ne!(w, r);
    let (src, dst) = if w < r {
        let (head, tail) = states.split_at_mut(r);
        (&head[w], &mut tail[0])
    } else {
        let (head, tail) = states.split_at_mut(w);
        (&tail[0], &mut head[r])
    };
    dst.current[vi].clone_from(&src.current[vi]);
}

/// Applies one critical payload to every recipient replica, cloning for
/// all but the last recipient and *moving* the payload into the last —
/// saving one clone per synchronized vertex. Structured so the move is
/// provable to the compiler: the sync path runs at every barrier,
/// including mid-recovery, and must stay panic-free.
fn apply_critical_last_move<V: VertexData>(
    states: &mut [WorkerState<V>],
    vi: usize,
    payload: V::Critical,
    recipients: impl Iterator<Item = usize>,
) {
    let mut recipients = recipients.peekable();
    while let Some(r) = recipients.next() {
        if recipients.peek().is_some() {
            states[r].current[vi].apply_critical(payload.clone());
        } else {
            states[r].current[vi].apply_critical(payload);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModePolicy;
    use flash_graph::{generators, HashPartitioner};

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Val {
        x: u64,
    }
    crate::full_sync!(Val);

    fn cluster(workers: usize, n: usize) -> Cluster<Val> {
        let g = Arc::new(generators::path(n, true));
        let p = Arc::new(PartitionMap::build(&g, workers, &HashPartitioner).unwrap());
        let mut cfg = ClusterConfig::with_workers(workers);
        cfg.parallel_workers = false; // deterministic in unit tests
        Cluster::new(g, p, cfg, |v| Val { x: v as u64 }).unwrap()
    }

    #[test]
    fn new_validates_inputs() {
        let g = Arc::new(generators::path(4, true));
        let p = Arc::new(PartitionMap::build(&g, 2, &HashPartitioner).unwrap());
        let err = Cluster::<Val>::new(
            Arc::clone(&g),
            Arc::clone(&p),
            ClusterConfig::with_workers(3),
            |_| Val::default(),
        )
        .err()
        .unwrap();
        assert!(matches!(err, RuntimeError::PartitionMismatch { .. }));

        let g2 = Arc::new(generators::path(5, true));
        let err2 = Cluster::<Val>::new(g2, p, ClusterConfig::with_workers(2), |_| Val::default())
            .err()
            .unwrap();
        assert!(matches!(err2, RuntimeError::GraphMismatch { .. }));
    }

    #[test]
    fn direct_step_updates_masters_and_mirrors() {
        let mut c = cluster(2, 8);
        let out = c.step_direct(StepKind::VertexMap, 8, SyncScope::Necessary, |ctx| {
            for &v in ctx.masters() {
                let mut val = ctx.get(v).clone();
                val.x *= 10;
                ctx.write_master(v, val);
            }
            ctx.worker()
        });
        assert_eq!(out.per_worker, vec![0, 1]);
        for v in 0..8u32 {
            assert_eq!(c.value(v).x, v as u64 * 10);
        }
        // Mirrors along edges must have been synchronized too: every worker
        // replica agrees on every vertex that has a cross-worker edge.
        let stats = c.stats();
        assert_eq!(stats.num_supersteps(), 1);
        assert!(stats.steps()[0].sync_bytes > 0);
        assert_eq!(stats.steps()[0].upd_bytes, 0);
    }

    #[test]
    fn reduce_step_merges_across_workers() {
        let mut c = cluster(2, 4);
        // Every worker adds +1 to vertex 2 from each of its masters.
        let reduce = |t: &Val, acc: &mut Val| acc.x += t.x;
        let out = c.step_reduce(4, SyncScope::Necessary, reduce, |ctx| {
            for &v in ctx.masters() {
                let _ = v;
                ctx.put(2, Val { x: 1 }, &reduce);
            }
        });
        // Vertex 2 started at 2; 4 masters contributed 1 each.
        assert_eq!(c.value(2).x, 2 + 4);
        let updated = out.updated_flat();
        assert_eq!(updated, vec![2]);
    }

    #[test]
    fn reduce_step_counts_cross_worker_messages_only() {
        let mut c = cluster(2, 4);
        let owner2 = c.partition().owner(2);
        let reduce = |t: &Val, acc: &mut Val| acc.x += t.x;
        c.step_reduce(0, SyncScope::Necessary, reduce, |ctx| {
            // Only the worker that owns vertex 2 puts: a purely local update.
            if ctx.worker() == owner2 {
                ctx.put(2, Val { x: 5 }, &reduce);
            }
        });
        let s = &c.stats().steps()[0];
        assert_eq!(s.upd_messages, 0, "local put must not cross workers");
    }

    #[test]
    fn sync_scope_all_reaches_every_worker() {
        let mut c = cluster(4, 16);
        // Vertex 0's value changes; under All-scope every other worker's
        // replica must see it even without incident edges.
        let owner0 = c.partition().owner(0);
        c.step_direct(StepKind::VertexMap, 1, SyncScope::All, |ctx| {
            if ctx.worker() == owner0 {
                ctx.write_master(0, Val { x: 777 });
            }
        });
        let s = &c.stats().steps()[0];
        assert_eq!(s.sync_messages, 3, "3 mirrors under All scope");
    }

    #[test]
    fn single_worker_never_communicates() {
        let mut c = cluster(1, 10);
        let reduce = |t: &Val, acc: &mut Val| acc.x += t.x;
        c.step_reduce(10, SyncScope::All, reduce, |ctx| {
            for &v in ctx.masters() {
                ctx.put(v, Val { x: 1 }, &reduce);
            }
        });
        let s = &c.stats().steps()[0];
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.total_messages(), 0);
    }

    #[test]
    fn parallel_workers_match_sequential() {
        let g = Arc::new(generators::erdos_renyi(64, 200, 3));
        let p = Arc::new(PartitionMap::build(&g, 4, &HashPartitioner).unwrap());
        let reduce = |t: &Val, acc: &mut Val| acc.x = acc.x.max(t.x);
        let run = |parallel: bool| {
            let mut cfg = ClusterConfig::with_workers(4).mode(ModePolicy::Adaptive);
            cfg.parallel_workers = parallel;
            let mut c =
                Cluster::new(Arc::clone(&g), Arc::clone(&p), cfg, |v| Val { x: v as u64 }).unwrap();
            // Propagate max neighbor id to each vertex (one push round).
            c.step_reduce(64, SyncScope::Necessary, reduce, |ctx| {
                for &v in ctx.masters() {
                    let val = ctx.get(v).clone();
                    for &d in ctx.graph().out_neighbors(v) {
                        ctx.put(d, val.clone(), &reduce);
                    }
                }
            });
            c.collect(|_, val| val.x)
        };
        assert_eq!(run(false), run(true));
    }

    /// The hot-path contract: bucketing fanned out over the pool's lanes
    /// must be bit-identical to the same code on one lane (`.sequential()`,
    /// the serial reference) across supersteps that reuse their buffers —
    /// same values, same message/byte counters.
    #[test]
    fn lanes_match_single_lane_bitwise() {
        let run = |cfg: ClusterConfig| {
            let (vals, stats, err) = run_program(cfg);
            assert!(err.is_none());
            let counters: Vec<(u64, u64, u64, u64)> = stats
                .steps()
                .iter()
                .map(|s| (s.upd_messages, s.upd_bytes, s.sync_messages, s.sync_bytes))
                .collect();
            (vals, counters)
        };
        let lanes = run(ClusterConfig::with_workers(4));
        assert!(lanes.1.iter().any(|c| c.0 > 0 && c.2 > 0), "traffic flowed");
        assert_eq!(lanes, run(ClusterConfig::with_workers(4).sequential()));
    }

    #[test]
    fn network_model_charges_time() {
        let g = Arc::new(generators::path(8, true));
        let p = Arc::new(PartitionMap::build(&g, 2, &HashPartitioner).unwrap());
        let cfg = ClusterConfig::with_workers(2)
            .network(crate::NetworkModel::slow())
            .sequential();
        let mut c = Cluster::new(g, p, cfg, |v| Val { x: v as u64 }).unwrap();
        c.step_direct(StepKind::VertexMap, 8, SyncScope::Necessary, |ctx| {
            for &v in ctx.masters() {
                ctx.write_master(v, Val { x: 1 });
            }
        });
        assert!(c.stats().simulated_net_time() > Duration::ZERO);
    }

    #[test]
    fn record_global_appends_stats() {
        let mut c = cluster(2, 4);
        c.record_global(3, 120, Duration::from_micros(5));
        let s = c.take_stats();
        assert_eq!(s.num_supersteps(), 1);
        assert_eq!(s.total_bytes(), 120);
        assert_eq!(c.stats().num_supersteps(), 0, "take_stats resets");
    }

    #[test]
    fn trace_events_mirror_superstep_structure() {
        use flash_obs::CollectSink;
        let g = Arc::new(generators::path(8, true));
        let p = Arc::new(PartitionMap::build(&g, 2, &HashPartitioner).unwrap());
        let sink = Arc::new(CollectSink::new());
        let cfg = ClusterConfig::with_workers(2)
            .sequential()
            .sink(Arc::clone(&sink) as Arc<dyn flash_obs::Sink>);
        let mut c = Cluster::new(g, p, cfg, |v| Val { x: v as u64 }).unwrap();
        c.step_direct(StepKind::VertexMap, 8, SyncScope::Necessary, |ctx| {
            for &v in ctx.masters() {
                ctx.write_master(v, Val { x: 1 });
            }
        });
        let reduce = |t: &Val, acc: &mut Val| acc.x += t.x;
        c.step_reduce(8, SyncScope::Necessary, reduce, |ctx| {
            for &v in ctx.masters() {
                ctx.put(v, Val { x: 1 }, &reduce);
            }
        });
        let stats = c.take_stats();

        let events = sink.events();
        // Sequence numbers are dense and ordered.
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        assert!(matches!(
            events[0].kind,
            EventKind::RunMeta {
                schema: flash_obs::TRACE_SCHEMA_VERSION,
                workers: 2,
                ..
            }
        ));
        assert!(matches!(
            events[1].kind,
            EventKind::RunStart { workers: 2, .. }
        ));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::RunEnd { .. }
        ));

        // One step_start/step_end pair per recorded superstep, in order.
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StepStart { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        let ends: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StepEnd { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![0, 1]);
        assert_eq!(ends, vec![0, 1]);
        assert_eq!(stats.num_supersteps(), 2);

        // step_end byte counts agree exactly with RunStats.
        let (bytes, msgs) = events.iter().fold((0u64, 0u64), |(b, m), e| match &e.kind {
            EventKind::StepEnd {
                upd_bytes,
                sync_bytes,
                upd_messages,
                sync_messages,
                ..
            } => (b + upd_bytes + sync_bytes, m + upd_messages + sync_messages),
            _ => (b, m),
        });
        assert_eq!(bytes, stats.total_bytes());
        assert_eq!(msgs, stats.total_messages());

        // Each superstep has one worker_phase per worker, and staged-op
        // counts reflect the kernels: step 0 wrote masters, step 1 put.
        for step in 0..2u64 {
            let phases: Vec<_> = events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::WorkerPhase {
                        step: s,
                        worker,
                        staged_puts,
                        staged_writes,
                        ..
                    } if *s == step => Some((*worker, *staged_puts, *staged_writes)),
                    _ => None,
                })
                .collect();
            assert_eq!(phases.len(), 2, "step {step}");
            let puts: u64 = phases.iter().map(|p| p.1).sum();
            let writes: u64 = phases.iter().map(|p| p.2).sum();
            if step == 0 {
                assert_eq!((puts, writes), (0, 8));
            } else {
                assert_eq!((puts, writes), (8, 0));
            }
        }

        // Sync-plan events carry the configured policy.
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::SyncPlan { mode, scope, .. }
                if mode == "critical" && scope == "necessary"
        )));
    }

    #[test]
    fn compute_min_never_exceeds_compute_max() {
        let mut c = cluster(4, 32);
        c.step_direct(StepKind::VertexMap, 32, SyncScope::Necessary, |ctx| {
            for &v in ctx.masters() {
                ctx.write_master(v, Val { x: 1 });
            }
        });
        let s = &c.stats().steps()[0];
        assert!(s.compute_min <= s.compute_max);
        assert_eq!(s.barrier_skew(), s.compute_max - s.compute_min);
    }

    #[test]
    fn set_value_global_updates_all_replicas() {
        let mut c = cluster(3, 6);
        c.set_value_global(4, Val { x: 99 });
        // Run a step where every worker reads vertex 4 and reports it.
        let out = c.step_direct(StepKind::VertexMap, 0, SyncScope::Necessary, |ctx| {
            ctx.get(4).x
        });
        assert_eq!(out.per_worker, vec![99, 99, 99]);
    }

    /// A deterministic 12-superstep program (6 rounds of max-propagation +
    /// increment) whose result depends on every intermediate state — the
    /// fixture for recovery determinism tests.
    fn run_program(cfg: ClusterConfig) -> (Vec<u64>, RunStats, Option<RuntimeError>) {
        let g = Arc::new(generators::erdos_renyi(48, 160, 11));
        let p = Arc::new(PartitionMap::build(&g, cfg.workers, &HashPartitioner).unwrap());
        let mut c = Cluster::new(g, p, cfg, |v| Val { x: v as u64 }).unwrap();
        let reduce = |t: &Val, acc: &mut Val| acc.x = acc.x.max(t.x);
        for round in 0..6u64 {
            c.step_reduce(0, SyncScope::Necessary, reduce, |ctx| {
                for &v in ctx.masters() {
                    let val = ctx.get(v).clone();
                    for &d in ctx.graph().out_neighbors(v) {
                        ctx.put(d, val.clone(), &reduce);
                    }
                }
            });
            c.step_direct(StepKind::VertexMap, 0, SyncScope::Necessary, |ctx| {
                for &v in ctx.masters() {
                    let mut val = ctx.get(v).clone();
                    val.x += round + 1;
                    ctx.write_master(v, val);
                }
            });
        }
        let vals = c.collect(|_, val| val.x);
        let err = c.fault_error();
        (vals, c.take_stats(), err)
    }

    fn faulted_config(plan: &str) -> ClusterConfig {
        ClusterConfig::with_workers(3)
            .sequential()
            .network(crate::NetworkModel::ten_gbe())
            .checkpoint_every(2)
            .faults(crate::fault::FaultPlan::parse(plan).unwrap())
    }

    #[test]
    fn faulted_run_is_bit_identical_to_fault_free() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let faulted = run_program(faulted_config(
            "crash@1:w1,corrupt@3:w0,straggle@2:w0:300us",
        ));
        assert_eq!(clean.0, faulted.0, "recovery must not change results");
        assert_eq!(clean.1.num_supersteps(), faulted.1.num_supersteps());
        assert!(faulted.2.is_none(), "retries were not exhausted");

        let rec = &faulted.1.recovery;
        assert_eq!(rec.faults_injected, 2, "one crash + one corruption");
        assert_eq!(rec.rollbacks, 2);
        assert!(rec.replayed_supersteps >= 1, "rollback crossed a delta");
        assert!(rec.checkpoints >= 2);
        assert_eq!(rec.stragglers, 1);
        assert!(rec.straggler_delay >= Duration::from_micros(300));
        assert!(rec.retry_backoff > Duration::ZERO);
        assert!(rec.replay_net > Duration::ZERO, "network model charged");
        assert_eq!(clean.1.recovery, crate::stats::RecoveryStats::default());
    }

    #[test]
    fn exhausted_retries_degrade_to_clean_error() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let (vals, stats, err) = run_program(faulted_config("crash@1:w0:x99,retries=2"));
        match err {
            Some(RuntimeError::RecoveryExhausted { step, attempts }) => {
                assert_eq!(step, 1);
                assert_eq!(attempts, 3, "initial attempt + 2 retries");
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
        // Execution continued deterministically with the injector disabled.
        assert_eq!(vals, clean.0);
        assert_eq!(stats.recovery.rollbacks, 2);
    }

    #[test]
    fn straggler_charges_compute_without_rollback() {
        let (_, stats, err) = run_program(faulted_config("straggle@0:w1:5ms"));
        assert!(err.is_none());
        assert_eq!(stats.recovery.rollbacks, 0);
        assert_eq!(stats.recovery.stragglers, 1);
        assert!(stats.steps()[0].compute_max >= Duration::from_millis(5));
        assert!(stats.steps()[0].barrier_skew() >= Duration::from_millis(4));
    }

    #[test]
    fn manual_checkpoint_restore_round_trips() {
        let mut c = cluster(2, 8);
        let before = c.collect(|_, val| val.x);
        let cp = c.checkpoint();
        c.step_direct(StepKind::VertexMap, 8, SyncScope::Necessary, |ctx| {
            for &v in ctx.masters() {
                ctx.write_master(v, Val { x: 4242 });
            }
        });
        assert_ne!(c.collect(|_, val| val.x), before);
        c.restore(&cp);
        assert_eq!(c.collect(|_, val| val.x), before, "restore is exact");
    }

    #[test]
    fn recovery_emits_trace_events_in_order() {
        use flash_obs::CollectSink;
        let sink = Arc::new(CollectSink::new());
        let cfg = faulted_config("crash@1:w1").sink(Arc::clone(&sink) as Arc<dyn flash_obs::Sink>);
        let _ = run_program(cfg);
        let events = sink.events();
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        let checkpoints = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CheckpointTaken { .. }))
            .count();
        assert!(checkpoints >= 2, "interval 2 over 12 steps");
        let fault_pos = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
            .expect("fault event");
        let replay_pos = events
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::RecoveryReplay {
                        step: 1,
                        from_step: 0,
                        ..
                    }
                )
            })
            .expect("replay event rolls step 1 back to the step-0 checkpoint");
        assert!(fault_pos < replay_pos, "fault detected before rollback");
    }

    #[test]
    fn fault_plan_validates_worker_bounds() {
        let g = Arc::new(generators::path(4, true));
        let p = Arc::new(PartitionMap::build(&g, 2, &HashPartitioner).unwrap());
        let cfg = ClusterConfig::with_workers(2)
            .faults(crate::fault::FaultPlan::parse("crash@1:w5").unwrap());
        let err = Cluster::<Val>::new(g, p, cfg, |_| Val::default())
            .err()
            .expect("worker 5 does not exist");
        assert!(matches!(err, RuntimeError::InvalidFaultPlan(_)));
    }

    #[test]
    fn permanent_death_recovers_bit_identically_on_survivors() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let (vals, stats, err) = run_program(faulted_config("die@1:w1,retries=1"));
        assert!(err.is_none(), "elastic recovery is not a failure: {err:?}");
        assert_eq!(clean.0, vals, "survivors must reproduce the clean result");
        assert_eq!(clean.1.num_supersteps(), stats.num_supersteps());
        let rec = &stats.recovery;
        assert_eq!(rec.workers_lost, 1);
        assert_eq!(rec.membership_epochs, 1);
        assert!(rec.vertices_migrated > 0, "w1's masters moved");
        assert!(rec.migrated_bytes > 0);
        assert!(rec.migration_net > Duration::ZERO, "network model charged");
    }

    #[test]
    fn death_and_rejoin_return_to_full_strength_bit_identically() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let (vals, stats, err) = run_program(faulted_config("die@1:w1,rejoin@5:w1,retries=1"));
        assert!(err.is_none());
        assert_eq!(clean.0, vals);
        let rec = &stats.recovery;
        assert_eq!(rec.workers_lost, 1);
        assert_eq!(rec.workers_rejoined, 1);
        assert_eq!(rec.membership_epochs, 2, "death epoch + rejoin epoch");
        assert!(rec.migrated_bytes > 0);
    }

    #[test]
    fn deadline_straggler_is_declared_dead() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let (vals, stats, err) = run_program(faulted_config("straggle@1:w2:200ms,detector=100ms"));
        assert!(err.is_none());
        assert_eq!(clean.0, vals);
        assert_eq!(stats.recovery.workers_lost, 1);
        assert_eq!(stats.recovery.membership_epochs, 1);
        // A straggler below the deadline stays a straggler.
        let (_, stats2, err2) = run_program(faulted_config("straggle@1:w2:5ms,detector=100ms"));
        assert!(err2.is_none());
        assert_eq!(stats2.recovery.workers_lost, 0);
    }

    #[test]
    fn death_without_checkpoints_degrades_to_worker_lost() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let cfg = ClusterConfig::with_workers(3)
            .sequential()
            .checkpoint_off()
            .faults(crate::fault::FaultPlan::parse("die@1:w1,retries=1").unwrap());
        let (vals, stats, err) = run_program(cfg);
        match err {
            Some(RuntimeError::WorkerLost { worker, step }) => {
                assert_eq!(worker, 1);
                assert_eq!(step, 1);
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }
        // The injector shut down and the run finished deterministically.
        assert_eq!(vals, clean.0);
        assert_eq!(stats.recovery.workers_lost, 0, "no membership change");
        assert_eq!(stats.recovery.checkpoints, 0, "checkpointing stayed off");
    }

    #[test]
    fn leader_crash_recovers_through_reelection_bit_identically() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let (vals, stats, err) = run_program(faulted_config("leader@1,retries=1"));
        assert!(err.is_none(), "re-election is not a failure: {err:?}");
        assert_eq!(clean.0, vals, "leader crash must not change results");
        assert_eq!(clean.1.num_supersteps(), stats.num_supersteps());
        let cons = &stats.consensus;
        assert_eq!(cons.leader_crashes, 1);
        assert_eq!(cons.elections, 2, "initial election + re-election");
        assert!(
            cons.entries_committed >= 3,
            "checkpoints + death declaration + epoch bump: {cons:?}"
        );
        assert_eq!(cons.entries_appended, cons.entries_committed);
        assert!(cons.election_net > Duration::ZERO, "network model charged");
        assert!(cons.commit_net > Duration::ZERO);
        assert_eq!(stats.recovery.workers_lost, 1, "the old leader host died");
        // The fault-free control plane never spins up at all.
        assert_eq!(clean.1.consensus, crate::stats::ConsensusStats::default());
    }

    #[test]
    fn lying_worker_is_accused_and_dies_bit_identically() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        let (vals, stats, err) = run_program(faulted_config("lie@1:w2,retries=1"));
        assert!(err.is_none(), "a pinned lie recovers cleanly: {err:?}");
        assert_eq!(clean.0, vals, "accusation must not change results");
        assert_eq!(clean.1.num_supersteps(), stats.num_supersteps());
        assert_eq!(stats.consensus.accusations, 1);
        assert_eq!(stats.recovery.workers_lost, 1, "the liar was executed");
        assert!(stats.consensus.overhead().max(stats.consensus.commit_net) > Duration::ZERO);
    }

    #[test]
    fn lie_without_honest_majority_degrades_to_quorum_lost() {
        // Two hosts: the vote splits 1–1 and nobody can be out-voted.
        let clean = {
            let cfg = ClusterConfig::with_workers(2).sequential();
            run_program(cfg)
        };
        let cfg = ClusterConfig::with_workers(2)
            .sequential()
            .network(crate::NetworkModel::ten_gbe())
            .checkpoint_every(2)
            .faults(crate::fault::FaultPlan::parse("lie@1:w1").unwrap());
        let (vals, stats, err) = run_program(cfg);
        match err {
            Some(RuntimeError::QuorumLost { step, live, needed }) => {
                assert_eq!(step, 1);
                assert_eq!(live, 2);
                assert_eq!(needed, 2);
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
        // The injector shut down and the run finished deterministically.
        assert_eq!(vals, clean.0);
        assert_eq!(stats.consensus.accusations, 0, "nobody could be pinned");
        assert_eq!(stats.recovery.workers_lost, 0);
    }

    #[test]
    fn consensus_decisions_emit_trace_events_in_order() {
        use flash_obs::CollectSink;
        let sink = Arc::new(CollectSink::new());
        let cfg = faulted_config("leader@1,retries=1")
            .sink(Arc::clone(&sink) as Arc<dyn flash_obs::Sink>);
        let _ = run_program(cfg);
        let events = sink.events();
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));

        // Elections: the initial one at term 1 seats host 0 before any
        // superstep; the re-election at term 2 seats the smallest survivor.
        let elections: Vec<(u64, usize)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LeaderElected { term, leader, .. } => Some((*term, *leader)),
                _ => None,
            })
            .collect();
        assert_eq!(elections, vec![(1, 0), (2, 1)]);

        // The log commits in index order, and the death declaration is
        // committed under the new term by the new leader.
        let commits: Vec<(u64, u64, String)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LogCommitted {
                    term, index, kind, ..
                } => Some((*term, *index, kind.clone())),
                _ => None,
            })
            .collect();
        assert!(commits.iter().enumerate().all(|(i, c)| c.1 == i as u64 + 1));
        assert!(commits.windows(2).all(|w| w[0].0 <= w[1].0), "terms sorted");
        let death = commits
            .iter()
            .find(|c| c.2 == "death_declaration")
            .expect("death committed through the log");
        assert_eq!(death.0, 2, "committed under the re-elected term");
        assert!(commits.iter().any(|c| c.2 == "checkpoint_commit"));
        assert!(commits.iter().any(|c| c.2 == "epoch_bump"));

        // Ordering: re-election precedes the death commit, which precedes
        // the worker's death event and the epoch bump commit.
        let reelect_pos = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::LeaderElected { term: 2, .. }))
            .expect("re-election event");
        let death_pos = events
            .iter()
            .position(
                |e| matches!(&e.kind, EventKind::LogCommitted { kind, .. } if kind == "death_declaration"),
            )
            .expect("death commit event");
        let dead_pos = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::WorkerDeclaredDead { .. }))
            .expect("worker_declared_dead event");
        let epoch_commit_pos = events
            .iter()
            .position(
                |e| matches!(&e.kind, EventKind::LogCommitted { kind, .. } if kind == "epoch_bump"),
            )
            .expect("epoch commit event");
        assert!(reelect_pos < death_pos, "new leader seated before commit");
        assert!(death_pos < dead_pos, "decision committed before applied");
        assert!(dead_pos < epoch_commit_pos);
    }

    #[test]
    fn config_detector_timeout_overrides_plan_option() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        // The plan's detector is generous, but the config tightens it to
        // 50ms, so a 200ms straggler is declared dead at the barrier.
        let cfg = faulted_config("straggle@1:w2:200ms,detector=10s")
            .detector_timeout(Duration::from_millis(50));
        let (vals, stats, err) = run_program(cfg);
        assert!(err.is_none());
        assert_eq!(clean.0, vals);
        assert_eq!(stats.recovery.workers_lost, 1);
        // Without the override the plan's 10s detector tolerates it.
        let (_, stats2, err2) = run_program(faulted_config("straggle@1:w2:200ms,detector=10s"));
        assert!(err2.is_none());
        assert_eq!(stats2.recovery.workers_lost, 0);
    }

    #[test]
    fn membership_changes_emit_trace_events_in_order() {
        use flash_obs::CollectSink;
        let sink = Arc::new(CollectSink::new());
        let cfg = faulted_config("die@1:w1,rejoin@5:w1,retries=1")
            .sink(Arc::clone(&sink) as Arc<dyn flash_obs::Sink>);
        let _ = run_program(cfg);
        let events = sink.events();
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        let dead_pos = events
            .iter()
            .position(|e| {
                matches!(
                    &e.kind,
                    EventKind::WorkerDeclaredDead {
                        worker: 1,
                        reason,
                        ..
                    } if reason == "die"
                )
            })
            .expect("worker_declared_dead event");
        let epochs: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::MembershipEpoch { epoch, cause, .. } => Some((*epoch, cause.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            epochs,
            vec![(1, "die".to_string()), (2, "rejoin".to_string())]
        );
        let migrations: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StateMigrated { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(migrations.len(), 2, "one move per epoch");
        assert!(migrations.iter().all(|&b| b > 0));
        let epoch_pos = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::MembershipEpoch { .. }))
            .unwrap();
        assert!(dead_pos < epoch_pos, "death declared before the epoch bump");
    }
}
