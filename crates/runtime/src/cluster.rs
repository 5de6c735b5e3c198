//! The simulated cluster: superstep orchestration, and the post-compute
//! round in which each worker's lane routes its updates, folds its
//! masters and applies the mirror payloads it receives (DESIGN.md §11).
//! What a fault plan adds — injection, recovery, the control plane,
//! reliable delivery, the redo log — lives in the `recovery` child module.

mod recovery;

use crate::config::{ClusterConfig, StorageMode, SyncMode, SyncScope};
use crate::ctx::WorkerCtx;
use crate::durable::{DurableSession, DurableValue, ScrubReport};
use crate::error::RuntimeError;
use crate::pool::{run_phases_inline, WorkerPool};
use crate::state::{Buckets, StepBuffers, WorkerState};
use crate::stats::{ns_u64, RunStats, StepKind, StepStats, StorageInfo};
use crate::transport::RoundBatches;
use crate::VertexData;
use flash_graph::{Graph, PartitionMap, StreamScope, StreamSnapshot, VertexId};
use flash_obs::{Event, EventKind};
use recovery::Faults;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
    /// The fault layer — injector, control plane, transport and redo log
    /// — present exactly when the config carries a
    /// [`FaultPlan`](crate::fault::FaultPlan). Fault-free runs skip it
    /// entirely.
    faults: Option<Faults<V>>,
    /// Effective checkpoint interval in supersteps (0 = disabled).
    checkpoint_every: u64,
    /// The step the last checkpoint preceded, for the interval schedule.
    last_checkpoint: Option<u64>,
    /// Terminal recovery failure: set once the retry budget of some
    /// superstep is exhausted, surfaced via [`Cluster::fault_error`].
    failed: Option<RuntimeError>,
    /// Durable checkpoint store session, present only when the cluster was
    /// built through [`Cluster::new_durable`].
    durable: Option<DurableSession<V>>,
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

    /// Builds a cluster with the durable checkpoint store attached when
    /// `config.durable_dir` names one, else exactly like [`Cluster::new`].
    /// Every checkpoint commits a generation file — its step and a digest
    /// of the state — through a crash-consistent two-phase commit, so a
    /// killed run's re-execution can be verified against it. With
    /// `config.durable_resume` set, this *opens* the store instead of
    /// starting it fresh: the scrub pass takes the newest valid generation
    /// (falling back past condemned ones), the driver re-executes the
    /// schedule from step 0, and at the generation's step the re-executed
    /// state must match its digest — else the run ends in
    /// [`RuntimeError::DurabilityLost`].
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
            return Self::new_inner(graph, partition, config, init, None, Vec::new());
        };
        if config.checkpoint_every == Some(0) {
            return Err(RuntimeError::Storage(
                "the durable store persists at checkpoint boundaries; checkpoint_off \
                 conflicts with durable_dir"
                    .into(),
            ));
        }
        let workers = config.workers;
        let vertices = graph.num_vertices();
        let (session, scrubs) = if config.durable_resume {
            DurableSession::open(&dir, workers, vertices, V::encode)?
        } else {
            (
                DurableSession::create(&dir, workers, vertices, V::encode)?,
                Vec::new(),
            )
        };
        Self::new_inner(graph, partition, config, init, Some(session), scrubs)
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
        let faults = config
            .fault_plan
            .as_ref()
            .map(|p| Faults::new(p, config.workers));
        // `new` refuses a durable directory, so `durable` is present
        // exactly when the config names one.
        let checkpoint_every = config.checkpoint_interval() as u64;
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
            faults,
            checkpoint_every,
            last_checkpoint: None,
            failed: None,
            durable,
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
            partition: cluster.partition.scheme().to_string(),
        });
        cluster.start_faults();
        // Surface what the resume-time scrub pass repaired: each
        // condemned generation is one event and one fallback hop to an
        // older generation.
        for report in scrubs {
            cluster.stats.durability.fallbacks += 1;
            cluster.emit(EventKind::CheckpointScrubbed {
                generation: report.generation,
                reason: report.reason,
            });
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
    /// trace event summarizing them. With
    /// [`ClusterConfig::metrics`](crate::ClusterConfig::metrics) set, the
    /// taken stats render their `metrics` block.
    pub fn take_stats(&mut self) -> RunStats {
        self.stats.storage = self.storage_info();
        self.stats.recovery.faults_unfired = self.faults.as_ref().map_or(0, Faults::unfired);
        let mut stats = std::mem::take(&mut self.stats);
        stats.metrics = self.config.metrics;
        let simulated = stats.simulated_parallel_time();
        self.emit(EventKind::RunEnd {
            supersteps: stats.num_supersteps(),
            total_bytes: stats.total_bytes(),
            total_messages: stats.total_messages(),
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
        if let Some(faults) = &mut self.faults {
            faults.log_global(v, &val, self.states.len());
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
        self.superstep(kind, active, scope, None::<&fn(&V, &mut V)>, f)
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
        self.superstep(StepKind::EdgeMapSparse, active, scope, Some(&reduce), f)
    }

    /// The one superstep pipeline behind [`Cluster::step_direct`] and
    /// [`Cluster::step_reduce`] — FLASHWARE's three phases: compute, the
    /// mirror→master round, the master→mirror round. The two rounds are
    /// one post-compute pool round ([`Cluster::post_compute`]); `reduce`
    /// is `None` for a direct step.
    fn superstep<Out: Send, R: Fn(&V, &mut V) + Sync>(
        &mut self,
        kind: StepKind,
        active: usize,
        scope: SyncScope,
        reduce: Option<&R>,
        f: impl Fn(&mut WorkerCtx<'_, V>) -> Out + Sync,
    ) -> StepOutput<Out> {
        self.maybe_rejoin();
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
        stats.arcs = self.emit_worker_phases(step_id, &durations);

        let updated = self.post_compute(step_id, scope, reduce, &mut stats);
        self.record_delta(&updated);
        self.finish_step(stats);
        StepOutput {
            per_worker,
            updated,
        }
    }

    /// Everything after compute, as one round of three phases per lane
    /// ([`PostRound`]): route or publish, fold and sort, sync. Lane `w`
    /// works on worker `w`'s data, on its own pool lane when the step
    /// staged at least [`CALLER_LANE_BELOW`] updates and on the caller
    /// otherwise. Per-lane counters and cross-host batch maps are merged
    /// in ascending lane order, then the upd (reduce steps) and sync
    /// rounds go through [`Cluster::deliver_round`]. Returns the sorted,
    /// deduplicated updated masters per owner.
    fn post_compute<R: Fn(&V, &mut V) + Sync>(
        &mut self,
        step_id: u64,
        scope: SyncScope,
        reduce: Option<&R>,
        stats: &mut StepStats,
    ) -> Vec<Vec<VertexId>> {
        debug_assert!(
            self.states.iter().all(|s| match reduce {
                Some(_) => s.direct.is_empty() && s.written.is_empty(),
                None => s.pending.is_empty(),
            }),
            "a direct superstep stages no reduce-updates and a reduce superstep \
             no direct writes; use step_reduce or step_direct"
        );
        let t = Instant::now();
        let m = self.states.len();
        let staged: usize = self
            .states
            .iter()
            .map(|s| s.pending.len() + s.written.len() + s.direct.len())
            .sum();
        stats.staged = staged;
        let buffers = &mut self.buffers;
        buffers.size_round(m);
        let mut upd_batches = buffers.take_upd_batches();
        let mut sync_batches = buffers.take_sync_batches();
        let mut updated = buffers.take_updated(m);
        for ((list, cell), st) in updated
            .iter_mut()
            .zip(&mut buffers.shared_updated)
            .zip(&self.states)
        {
            // A direct step's list grows here, on the caller: a lane
            // thread's allocation would land in its own malloc arena,
            // whose freed memory the caller's arena cannot reuse.
            list.reserve(st.written.len() + st.direct.len());
            std::mem::swap(list, cell.get_mut().unwrap_or_else(PoisonError::into_inner));
        }
        let n = self.partition.num_vertices();
        assert!(
            self.states.iter().all(|s| s.current.len() == n),
            "every replica holds one slot per vertex"
        );
        let round = PostRound {
            partition: &self.partition,
            n,
            mode: self.config.sync_mode,
            scope,
            reduce,
            track_batches: self.faults.as_ref().is_some_and(Faults::tracks_batches),
            mail: &buffers.mail,
            updated: &buffers.shared_updated,
            replicas: &buffers.replicas,
        };
        let mut lanes: Vec<Lane<'_, V>> = self
            .states
            .iter_mut()
            .zip(&mut buffers.bucket_sets)
            .zip(&mut buffers.lane_batches)
            .map(|((state, set), batches)| Lane {
                state,
                set,
                batches,
                upd: (0, 0),
                sync: (0, 0),
                routed: Duration::ZERO,
                folding: None,
            })
            .collect();
        let phase = |p: usize, w: usize, lane: &mut Lane<'_, V>| match p {
            0 => round.route_or_publish(w, lane),
            1 => round.fold_and_sort(w, lane),
            _ => round.sync(w, lane),
        };
        let inline = staged < CALLER_LANE_BELOW;
        match Self::lane_pool(&mut self.pool, &self.config, m) {
            Some(pool) => pool.run_phased(&mut lanes, 3, inline, phase),
            None => run_phases_inline(&mut lanes, 3, phase),
        }

        let folding = lanes.first().and_then(|l| l.folding).unwrap_or(t);
        for lane in &mut lanes {
            stats.upd_messages += lane.upd.0;
            stats.upd_bytes += lane.upd.1;
            stats.sync_messages += lane.sync.0;
            stats.sync_bytes += lane.sync.1;
            // Simulated makespan of routing: the slowest lane, the
            // analogue of `compute_max` for the compute phase.
            stats.serialize_max = stats.serialize_max.max(lane.routed);
            let [upd, sync] = &mut *lane.batches;
            merge_batches(&mut upd_batches, upd);
            merge_batches(&mut sync_batches, sync);
        }
        drop(lanes);
        for (list, cell) in updated.iter_mut().zip(&mut self.buffers.shared_updated) {
            std::mem::swap(list, cell.get_mut().unwrap_or_else(PoisonError::into_inner));
        }
        if reduce.is_some() {
            stats.serialize = folding.saturating_duration_since(t);
        }
        stats.communicate = t.elapsed().saturating_sub(stats.serialize);
        if reduce.is_some() {
            stats.delivery += self.deliver_round(step_id, "upd", &upd_batches);
        }
        if m > 1 {
            stats.delivery += self.deliver_round(step_id, "sync", &sync_batches);
        }
        self.buffers.put_upd_batches(upd_batches);
        self.buffers.put_sync_batches(sync_batches);
        updated
    }

    /// Aggregates per-logical-worker compute durations into per-*host*
    /// makespans: co-hosted partitions execute serially on their shared
    /// host, so their durations add, and the barrier waits for the slowest
    /// live host. Fault-free (identity host map) this reduces to the plain
    /// max/min over workers.
    fn host_makespan(&mut self, durations: &[Duration]) -> (Duration, Duration) {
        let per_host = &mut self.buffers.host_time;
        per_host.clear();
        per_host.resize(durations.len(), Duration::ZERO);
        for (w, d) in durations.iter().enumerate() {
            per_host[self.partition.host_of_worker(w)] += *d;
        }
        let live = (0..per_host.len()).filter(|&h| self.partition.is_host_live(h));
        let max = live.clone().map(|h| per_host[h]).max().unwrap_or_default();
        let min = live.map(|h| per_host[h]).min().unwrap_or_default();
        (max, min)
    }

    /// Per-worker phase accounting at the barrier: takes (and resets) each
    /// worker's op counters, emits one `worker_phase` event per worker and
    /// returns the arcs the workers' kernels opened.
    fn emit_worker_phases(&mut self, step: u64, durations: &[Duration]) -> u64 {
        let mut arcs = 0;
        for (w, dur) in durations.iter().enumerate() {
            // Counters reset unconditionally so a sink attached mid-run
            // never sees ops from earlier supersteps.
            let staged_puts = std::mem::take(&mut self.states[w].op_puts);
            let staged_writes = std::mem::take(&mut self.states[w].op_writes);
            arcs += std::mem::take(&mut self.states[w].op_arcs);
            if self.config.sink.is_some() {
                self.emit(EventKind::WorkerPhase {
                    step,
                    worker: w,
                    compute_ns: ns_u64(*dur),
                    staged_puts,
                    staged_writes,
                });
            }
        }
        arcs
    }

    /// Emits the sync-plan decision for one superstep: payload policy and
    /// mirror scope.
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
        self.emit(EventKind::SyncPlan {
            step,
            mode: mode.to_string(),
            scope: scope_label.to_string(),
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
        let timed = |w: usize, st: &mut WorkerState<V>| -> (Out, Duration) {
            let t = Instant::now();
            let mut ctx = WorkerCtx::new(w, graph, partition, st);
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
        }
        if let Some(net) = &self.config.network {
            let rounds = u32::from(stats.upd_bytes > 0) + u32::from(stats.sync_bytes > 0);
            stats.simulated_net = net.cost(rounds, stats.total_bytes());
        }
        let step_id = self.next_step;
        self.next_step += 1;
        if self.config.sink.is_some() {
            self.emit(EventKind::StepEnd {
                step: step_id,
                stats: stats.to_json(),
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

/// Below this many staged updates (pending temporaries, or written and
/// staged masters) the caller runs every lane's post-compute phases itself.
/// A pool round costs ≈13 µs on a 2-vCPU box (`WorkerPool::run` with empty
/// tasks) and the post-compute work ≈24 ns per staged update on one lane,
/// so a smaller step would pay more for the hand-off than it saves.
const CALLER_LANE_BELOW: usize = 540;

/// What lane `w` of the post-compute round owns: worker `w`'s state, its
/// sender-side bucket set and batch maps, and the counters it reports.
struct Lane<'a, V: VertexData> {
    state: &'a mut WorkerState<V>,
    set: &'a mut Buckets<V>,
    /// Upd- and sync-round cross-host batches, when the transport tracks
    /// them.
    batches: &'a mut [RoundBatches; 2],
    /// Upd messages and bytes this lane sent.
    upd: (u64, u64),
    /// Sync messages and bytes this lane received.
    sync: (u64, u64),
    /// Time spent routing in phase 0 (reduce steps).
    routed: Duration,
    /// When phase 1 began: on lane 0, the end of routing on every lane.
    folding: Option<Instant>,
}

/// The post-compute round of one superstep: what its lanes share. Phase
/// 0 routes a reduce step's `pending` into per-owner buckets (or
/// publishes a direct step's writes); phase 1 folds every sender's bucket
/// into the lane's own masters and sorts its `updated` list; phase 2
/// applies every payload whose recipient is the lane. Each phase reads
/// only what the phases before it finished, which the pool's barriers (or
/// the caller's phase-by-phase order) guarantee.
struct PostRound<'a, V: VertexData, R> {
    partition: &'a PartitionMap,
    /// Slots per replica.
    n: usize,
    mode: SyncMode,
    scope: SyncScope,
    /// The reduce of a reduce step; `None` for a direct step.
    reduce: Option<&'a R>,
    track_batches: bool,
    /// Cell `w * m + o`: sender `w`'s bucket for owner `o`.
    mail: &'a [Mutex<Vec<(VertexId, V)>>],
    /// Each owner's updated masters: written in phases 0–1 by the owner's
    /// lane, read by every lane in phase 2.
    updated: &'a [RwLock<Vec<VertexId>>],
    /// Each replica's slot array, published at the end of phase 1.
    replicas: &'a [AtomicPtr<V>],
}

impl<V: VertexData, R: Fn(&V, &mut V) + Sync> PostRound<'_, V, R> {
    /// Phase 0 on lane `w`. A reduce step drains `pending` into one bucket
    /// per owner, counting the messages that cross hosts, and hands each
    /// bucket to its owner's cell. A direct step moves its in-place ids
    /// and staged values to its own `updated` list: master-local.
    fn route_or_publish(&self, w: usize, lane: &mut Lane<'_, V>) {
        let st = &mut *lane.state;
        if self.reduce.is_none() {
            let mut upd = write(&self.updated[w]);
            upd.append(&mut st.written);
            upd.reserve(st.direct.len());
            for (v, val) in st.direct.drain(..) {
                st.current[v as usize] = val;
                upd.push(v);
            }
            return;
        }
        let t = Instant::now();
        let m = self.updated.len();
        let partition = self.partition;
        let sender_host = partition.host_of_worker(w);
        for (v, temp) in st.pending.drain() {
            let owner = partition.owner(v);
            // Traffic crosses the wire only between distinct physical
            // hosts: after an elastic rebalance several logical workers
            // may share a host, and their exchanges become local moves.
            let owner_host = partition.host_of_worker(owner);
            if owner_host != sender_host {
                let bytes = (4 + temp.bytes()) as u64;
                lane.upd.0 += 1;
                lane.upd.1 += bytes;
                if self.track_batches {
                    bump(&mut lane.batches[0], (sender_host, owner_host), 1, bytes);
                }
            }
            lane.set[owner].push((v, temp));
        }
        for (o, bucket) in lane.set.iter_mut().enumerate() {
            std::mem::swap(&mut *lock(&self.mail[w * m + o]), bucket);
        }
        lane.routed = t.elapsed();
    }

    /// Phase 1 on lane `o`: folds every sender's bucket into `o`'s masters
    /// in ascending sender order — the order of one serial walk over the
    /// senders — then sorts and deduplicates `o`'s `updated` list and
    /// publishes `o`'s replica for phase 2.
    fn fold_and_sort(&self, o: usize, lane: &mut Lane<'_, V>) {
        lane.folding = Some(Instant::now());
        let st = &mut *lane.state;
        let mut upd = write(&self.updated[o]);
        if let Some(reduce) = self.reduce {
            let m = self.updated.len();
            for cell in self.mail.iter().skip(o).step_by(m) {
                let mut bucket = lock(cell);
                upd.reserve(bucket.len());
                for (v, temp) in bucket.drain(..) {
                    reduce(&temp, &mut st.current[v as usize]);
                    upd.push(v);
                }
            }
        }
        // Direct-step kernels write in master order, so their lists
        // arrive sorted and duplicate-free; only the others pay a sort.
        if !upd.windows(2).all(|p| p[0] < p[1]) {
            upd.sort_unstable();
            upd.dedup();
        }
        // The last use of the replica through a reference this round:
        // phase 2 reaches the slots only through this pointer.
        self.replicas[o].store(st.current.as_mut_ptr(), Ordering::Release);
    }

    /// Phase 2 on lane `r`: applies to `r`'s mirror slots every payload
    /// whose recipient is `r` — under [`SyncScope::Necessary`] the vertices
    /// listing `r` as a necessary mirror, under [`SyncScope::All`] every
    /// updated vertex of another worker — with the critical projection
    /// under [`SyncMode::CriticalOnly`] or the whole value under
    /// [`SyncMode::Full`].
    ///
    /// Counted on the receiving side: one message per distinct recipient
    /// *host*, charged to the first recipient on that host (in mirror-list
    /// order, or ascending worker order under `All`) unless it is the
    /// sender's host. After an elastic rebalance several partitions can
    /// share a host and one shipped payload serves all of them; it is
    /// still applied to every logical replica, so co-hosted mirrors stay
    /// coherent.
    fn sync(&self, r: usize, lane: &mut Lane<'_, V>) {
        let m = self.updated.len();
        let host = |q: usize| self.partition.host_of_worker(q);
        let own_host = host(r);
        // Acquire pairs with each lane's Release store in phase 1; the
        // barrier between the phases orders them as well.
        let mirror = self.replicas[r].load(Ordering::Acquire);
        for w in (0..m).filter(|&w| w != r) {
            let sender = host(w);
            let master = self.replicas[w].load(Ordering::Acquire);
            // Under `All` the first worker other than the sender on this
            // lane's host receives for the host: every live host hosts
            // its own partition, so these are exactly the live hosts.
            let first_on_host = own_host != sender && (0..r).all(|q| q == w || host(q) != own_host);
            for &v in read(&self.updated[w]).iter() {
                let ships = match self.scope {
                    SyncScope::All => first_on_host,
                    SyncScope::Necessary => {
                        let mirrors = self.partition.necessary_mirrors(v);
                        let Some(i) = mirrors.iter().position(|&q| usize::from(q) == r) else {
                            continue;
                        };
                        own_host != sender
                            && mirrors[..i]
                                .iter()
                                .all(|&q| host(usize::from(q)) != own_host)
                    }
                };
                let vi = v as usize;
                assert!(vi < self.n, "vertex {v} is out of range");
                // SAFETY: `master` and `mirror` are the slot arrays of
                // replicas `w != r`, published by their lanes at the end of
                // phase 1 from `as_mut_ptr` after their last write through
                // a reference. Every replica holds `n` slots (asserted
                // before the round) and is not resized during it, and
                // `vi < n` is asserted above. The second barrier (or the
                // caller's phase order) puts every phase-0/1 write before
                // this phase, in which lanes touch slots only through these
                // pointers. Slot `vi` of `master` is a master slot (`v` is
                // in `w`'s updated list) and nothing writes master slots in
                // phase 2. Slot `vi` of `mirror` is written by lane `r`
                // alone, and no lane reads it: `r` does not master `v`.
                // `V: Send + Sync`, so lanes may share and write values.
                let (src, dst) = unsafe { (&*master.add(vi), &mut *mirror.add(vi)) };
                let bytes = match self.mode {
                    SyncMode::Full => {
                        dst.clone_from(src);
                        (4 + src.bytes()) as u64
                    }
                    SyncMode::CriticalOnly => {
                        let payload = src.critical();
                        let bytes = (4 + V::critical_bytes(&payload)) as u64;
                        dst.apply_critical(payload);
                        bytes
                    }
                };
                if ships {
                    lane.sync.0 += 1;
                    lane.sync.1 += bytes;
                    if self.track_batches {
                        bump(&mut lane.batches[1], (sender, own_host), 1, bytes);
                    }
                }
            }
        }
    }
}

// The round's cells hold `Vec`s, which every update leaves valid at every
// step, so a lane that panicked holding one leaves valid data behind.

fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(cell: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    cell.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(cell: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    cell.write().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `messages`/`bytes` to the `(sender host, receiver host)` batch of
/// one message round.
fn bump(batches: &mut RoundBatches, pair: (usize, usize), messages: u64, bytes: u64) {
    let batch = batches.entry(pair).or_insert((0, 0));
    batch.0 += messages;
    batch.1 += bytes;
}

/// Moves one lane's batches into a round's map, leaving the lane's empty.
fn merge_batches(into: &mut RoundBatches, from: &mut RoundBatches) {
    for (pair, (messages, bytes)) in std::mem::take(from) {
        bump(into, pair, messages, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::config::ModePolicy;
    use crate::config::DEFAULT_CHECKPOINT_INTERVAL;
    use flash_graph::{generators, HashPartitioner};
    use std::collections::BTreeSet;

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Val {
        x: u64,
    }
    crate::full_sync!(Val);
    crate::durable_value!(Val { x });

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
        assert_eq!(out.updated.concat(), vec![2]);
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

    /// The hot-path contract: the post-compute round fanned out over the
    /// pool's lanes must be bit-identical to the same phases run lane by
    /// lane on the caller (`.sequential()`, the serial reference) across
    /// supersteps that reuse their buffers — same values, same
    /// message/byte counters — on both sides of the caller-lane rule.
    #[test]
    fn lanes_match_single_lane_bitwise() {
        let run = |cfg: ClusterConfig, g: &Arc<Graph>| {
            let mut c = program_over(cfg, Arc::clone(g));
            assert!(c.fault_error().is_none());
            let vals = c.collect(|_, val| val.x);
            let counters: Vec<(u64, u64, u64, u64)> = c
                .take_stats()
                .steps()
                .iter()
                .map(|s| (s.upd_messages, s.upd_bytes, s.sync_messages, s.sync_bytes))
                .collect();
            (vals, counters)
        };
        let small = Arc::new(generators::erdos_renyi(48, 160, 11));
        let large = Arc::new(generators::erdos_renyi(1500, 6000, 11));
        // Below the rule every step stages at most n per worker; above it,
        // every direct step writes all n masters.
        assert!(4 * small.num_vertices() < CALLER_LANE_BELOW);
        assert!(large.num_vertices() >= CALLER_LANE_BELOW);
        for g in [&small, &large] {
            let lanes = run(ClusterConfig::with_workers(4), g);
            assert!(lanes.1.iter().any(|c| c.0 > 0 && c.2 > 0), "traffic flowed");
            assert_eq!(lanes, run(ClusterConfig::with_workers(4).sequential(), g));
        }
    }

    /// The obvious count of one step's traffic, from its output: upd
    /// messages per distinct `(sender, destination)` put crossing hosts,
    /// sync messages per updated vertex and distinct recipient host other
    /// than the sender's — the hosts of its necessary mirrors, or every
    /// live host under `All`. Each message of `Val` is 4 + 8 bytes.
    fn brute_force_traffic(
        p: &PartitionMap,
        puts: &BTreeSet<(usize, VertexId)>,
        updated: &[Vec<VertexId>],
        scope: SyncScope,
    ) -> (RoundBatches, RoundBatches) {
        let host = |w: usize| p.host_of_worker(w);
        let mut upd = RoundBatches::new();
        for &(w, d) in puts {
            if host(w) != p.host_of(d) {
                bump(&mut upd, (host(w), p.host_of(d)), 1, 12);
            }
        }
        let mut sync = RoundBatches::new();
        for (w, list) in updated.iter().enumerate() {
            let sender = host(w);
            for &v in list {
                let hosts: BTreeSet<usize> = match scope {
                    SyncScope::Necessary => p
                        .necessary_mirrors(v)
                        .iter()
                        .map(|&r| host(usize::from(r)))
                        .collect(),
                    SyncScope::All => p.live_hosts().into_iter().collect(),
                };
                for h in hosts.into_iter().filter(|&h| h != sender) {
                    bump(&mut sync, (sender, h), 1, 12);
                }
            }
        }
        (upd, sync)
    }

    /// Sync traffic is counted by the receiving lanes and upd traffic by
    /// the sending ones. Both, and the cross-host batch maps the lossy
    /// transport is handed, must equal [`brute_force_traffic`], and every
    /// recipient replica must hold the master's value — under both scopes
    /// and payload modes, with identity hosting and after a rebalance
    /// co-hosts two partitions, on both sides of the caller-lane rule,
    /// pooled and sequential.
    #[test]
    fn round_traffic_matches_a_brute_force_count() {
        let g = Arc::new(generators::erdos_renyi(1200, 4000, 5));
        let reduce = |t: &Val, acc: &mut Val| acc.x = acc.x.max(t.x);
        let total = |b: &RoundBatches| {
            b.values()
                .fold((0, 0), |(m, y), &(bm, by)| (m + bm, y + by))
        };
        // The last step's counters and batch maps (still in the pool), and
        // its recipients' replicas.
        let check = |c: &Cluster<Val>,
                     puts: &BTreeSet<(usize, VertexId)>,
                     updated: &[Vec<VertexId>],
                     scope: SyncScope,
                     case: &str| {
            let p = c.partition();
            let (upd, sync) = brute_force_traffic(p, puts, updated, scope);
            let s = c.stats().steps().last().unwrap();
            assert_eq!(
                (s.upd_messages, s.upd_bytes),
                total(&upd),
                "{case} {scope:?}"
            );
            assert_eq!(
                (s.sync_messages, s.sync_bytes),
                total(&sync),
                "{case} {scope:?}"
            );
            assert_eq!(c.buffers.upd_batches, upd, "{case} {scope:?}");
            assert_eq!(c.buffers.sync_batches, sync, "{case} {scope:?}");
            for (w, list) in updated.iter().enumerate() {
                for &v in list {
                    let recipients: Vec<usize> = match scope {
                        SyncScope::Necessary => p
                            .necessary_mirrors(v)
                            .iter()
                            .map(|&r| usize::from(r))
                            .collect(),
                        SyncScope::All => (0..4).collect(),
                    };
                    for r in recipients {
                        assert_eq!(
                            c.states[r].current(v),
                            c.states[w].current(v),
                            "{case} v={v}"
                        );
                    }
                }
            }
        };
        for rebalanced in [false, true] {
            let mut p = PartitionMap::build(&g, 4, &HashPartitioner).unwrap();
            if rebalanced {
                p.rebalance(&[1]).unwrap();
            }
            let p = Arc::new(p);
            for (parallel, mode) in [
                (true, SyncMode::CriticalOnly),
                (true, SyncMode::Full),
                (false, SyncMode::CriticalOnly),
            ] {
                let plan = crate::fault::FaultPlan::parse("loss=0.05,seed=3,retries=64").unwrap();
                let mut cfg = ClusterConfig::with_workers(4).sync_mode(mode).faults(plan);
                cfg.parallel_workers = parallel;
                let init = |v| Val { x: v as u64 };
                let mut c = Cluster::new(Arc::clone(&g), Arc::clone(&p), cfg, init).unwrap();
                let case = format!("rebalanced={rebalanced} parallel={parallel} {mode:?}");
                for scope in [SyncScope::Necessary, SyncScope::All] {
                    // Every vertex active stages well above the rule; one
                    // in 97 stages well below it.
                    for stride in [1, 97] {
                        let active = |v: VertexId| v.is_multiple_of(stride);
                        let puts: BTreeSet<(usize, VertexId)> = (0..4)
                            .flat_map(|w| p.masters(w).iter().map(move |&v| (w, v)))
                            .filter(|&(_, v)| active(v))
                            .flat_map(|(w, v)| g.out_neighbors(v).iter().map(move |&d| (w, d)))
                            .collect();
                        assert_eq!(puts.len() >= CALLER_LANE_BELOW, stride == 1, "{case}");
                        let out = c.step_reduce(0, scope, reduce, |ctx| {
                            for &v in ctx.masters().iter().filter(|&&v| active(v)) {
                                let val = Val {
                                    x: ctx.get(v).x + 1,
                                };
                                for &d in ctx.graph().out_neighbors(v) {
                                    ctx.put(d, val.clone(), &reduce);
                                }
                            }
                        });
                        check(&c, &puts, &out.updated, scope, &case);
                        let out = c.step_direct(StepKind::VertexMap, 0, scope, |ctx| {
                            for &v in ctx.masters().iter().filter(|&&v| active(v)) {
                                let val = Val {
                                    x: ctx.get(v).x * 3 + 1,
                                };
                                ctx.write_master(v, val);
                            }
                        });
                        check(&c, &BTreeSet::new(), &out.updated, scope, &case);
                    }
                }
            }
        }
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

        // The i-th step_end carries the i-th recorded superstep's counters.
        let step_ends: Vec<flash_obs::Json> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StepEnd { stats, .. } => Some(stats.clone()),
                _ => None,
            })
            .collect();
        let recorded: Vec<_> = stats.steps().iter().map(StepStats::to_json).collect();
        assert_eq!(step_ends, recorded);

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
        let mut c = program(cfg);
        let vals = c.collect(|_, val| val.x);
        let err = c.fault_error();
        (vals, c.take_stats(), err)
    }

    /// The cluster after [`run_program`]'s 12 supersteps (with the
    /// durable store attached when the config names a directory).
    fn program(cfg: ClusterConfig) -> Cluster<Val> {
        program_over(cfg, Arc::new(generators::erdos_renyi(48, 160, 11)))
    }

    /// [`program`] over `g`.
    fn program_over(cfg: ClusterConfig, g: Arc<Graph>) -> Cluster<Val> {
        let p = Arc::new(PartitionMap::build(&g, cfg.workers, &HashPartitioner).unwrap());
        let init = |v| Val { x: v as u64 };
        let mut c = Cluster::new_durable(g, p, cfg, init).unwrap();
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
        c
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
        let cp = Checkpoint::capture(c.next_step, &c.states, &c.partition);
        c.step_direct(StepKind::VertexMap, 8, SyncScope::Necessary, |ctx| {
            for &v in ctx.masters() {
                ctx.write_master(v, Val { x: 4242 });
            }
        });
        assert_ne!(c.collect(|_, val| val.x), before);
        cp.restore(&mut c.states);
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
    fn plan_detector_option_decides_the_deadline() {
        let clean = run_program(ClusterConfig::with_workers(3).sequential());
        // A 50ms deadline declares a 200ms straggler dead at the barrier.
        let (vals, stats, err) = run_program(faulted_config("straggle@1:w2:200ms,detector=50ms"));
        assert!(err.is_none());
        assert_eq!(clean.0, vals);
        assert_eq!(stats.recovery.workers_lost, 1);
        // A 10s deadline tolerates it.
        let (_, stats2, err2) = run_program(faulted_config("straggle@1:w2:200ms,detector=10s"));
        assert!(err2.is_none());
        assert_eq!(stats2.recovery.workers_lost, 0);
    }

    /// Without a fault plan nothing can roll back, so a checkpoint interval
    /// only counts and traces: the cluster holds no fault layer and no
    /// in-memory snapshot, and reports what capturing one per checkpoint
    /// reported — 6 checkpoints over 12 supersteps at interval 2, each of
    /// 48 masters framed as a 4-byte id plus an 8-byte value.
    #[test]
    fn fault_free_checkpoints_are_counted_not_kept() {
        use flash_obs::CollectSink;
        let sink = Arc::new(CollectSink::new());
        let cfg = ClusterConfig::with_workers(3)
            .sequential()
            .checkpoint_every(2)
            .sink(Arc::clone(&sink) as Arc<dyn flash_obs::Sink>);
        let mut c = program(cfg);
        assert!(c.faults.is_none());
        let rec = c.take_stats().recovery;
        assert_eq!((rec.checkpoints, rec.checkpoint_bytes), (6, 6 * 48 * 12));
        let taken = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CheckpointTaken { bytes: 576, .. }))
            .count();
        assert_eq!(taken, 6);
    }

    /// The checkpoint interval is decided in one place, when the cluster
    /// is built, and read here from the `checkpoint_taken` events of the
    /// 12-superstep program: a fault plan or a durable directory alone
    /// checkpoints at the default interval, an explicit interval wins,
    /// `checkpoint_off` wins in either builder order, and off plus a
    /// durable directory is refused.
    #[test]
    fn the_checkpoint_interval_is_decided_when_the_cluster_is_built() {
        use flash_graph::testutil::TempDirGuard;
        use flash_obs::CollectSink;
        let intervals = |cfg: ClusterConfig| -> Vec<u64> {
            let sink = Arc::new(CollectSink::new());
            program(cfg.sink(Arc::clone(&sink) as Arc<dyn flash_obs::Sink>));
            let events = sink.events();
            let taken = events.iter().filter_map(|e| match e.kind {
                EventKind::CheckpointTaken { interval, .. } => Some(interval),
                _ => None,
            });
            taken.collect()
        };
        let base = || ClusterConfig::with_workers(3).sequential();
        let plan = crate::fault::FaultPlan::default;
        let dirs: Vec<TempDirGuard> = (0..3)
            .map(|i| TempDirGuard::new(&format!("ckpt-interval-{i}")))
            .collect();
        let every = DEFAULT_CHECKPOINT_INTERVAL as u64;
        let default = vec![every; 12 / DEFAULT_CHECKPOINT_INTERVAL];

        assert_eq!(intervals(base().faults(plan())), default);
        assert_eq!(intervals(base().durable_dir(dirs[0].path())), default);
        assert!(intervals(base()).is_empty(), "nothing turns it on");

        assert_eq!(intervals(base().checkpoint_every(2).faults(plan())), [2; 6]);
        assert_eq!(intervals(base().faults(plan()).checkpoint_every(3)), [3; 4]);
        let durable = base().checkpoint_every(6).durable_dir(dirs[1].path());
        assert_eq!(intervals(durable), [6; 2]);

        assert!(intervals(base().checkpoint_off().faults(plan())).is_empty());
        assert!(intervals(base().faults(plan()).checkpoint_off()).is_empty());

        let g = Arc::new(generators::path(8, true));
        let p = Arc::new(PartitionMap::build(&g, 3, &HashPartitioner).unwrap());
        for cfg in [
            base().checkpoint_off().durable_dir(dirs[2].path()),
            base().durable_dir(dirs[2].path()).checkpoint_off(),
        ] {
            let built =
                Cluster::new_durable(Arc::clone(&g), Arc::clone(&p), cfg, |_| Val::default());
            match built {
                Err(RuntimeError::Storage(msg)) => assert!(msg.contains("checkpoint_off"), "{msg}"),
                Err(e) => panic!("wrong refusal: {e}"),
                Ok(_) => panic!("off plus a durable dir must be refused"),
            }
        }
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
