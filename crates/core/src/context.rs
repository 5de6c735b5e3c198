//! The FLASH execution context: `VERTEXMAP`, `EDGEMAP` and friends.

use crate::edgeset::EdgeSet;
use crate::subset::VertexSubset;
use crate::EdgeRef;
use flash_graph::{
    BlockHandle, BlockTouch, Graph, HashPartitioner, PartitionMap, StreamScope, VertexId, Weight,
};
use flash_runtime::par::parallel_chunks;
use flash_runtime::{
    Cluster, ClusterConfig, ModePolicy, RunStats, RuntimeError, StepKind, StorageMode, SyncScope,
    VertexData, WorkerCtx,
};
use std::sync::Arc;
use std::time::Instant;

/// A FLASH program's handle to the distributed runtime.
///
/// One context owns one graph, one partitioning, and the per-worker vertex
/// state of type `V`. The paper's primitives map to methods:
///
/// | Paper                        | Method                                   |
/// |------------------------------|------------------------------------------|
/// | `SIZE(U)`                    | [`VertexSubset::len`]                    |
/// | `VERTEXMAP(U, F, M)`         | [`FlashContext::vertex_map`]             |
/// | `VERTEXMAP(U, F)` (filter)   | [`FlashContext::vertex_filter`]          |
/// | `EDGEMAP(U, H, F, M, C, R)`  | [`FlashContext::edge_map`]               |
/// | `EDGEMAPDENSE(U, H, F, M, C)`| [`FlashContext::edge_map_dense`]         |
/// | `EDGEMAPSPARSE(U,H,F,M,C,R)` | [`FlashContext::edge_map_sparse`]        |
/// | UNION/MINUS/INTERSECT/…      | methods on [`VertexSubset`]              |
/// | global `REDUCE` / folds      | [`FlashContext::fold`], [`FlashContext::gather`] |
///
/// The paper's `bind` operator (supplying global variables to local
/// functions) is ordinary Rust closure capture.
pub struct FlashContext<V: VertexData> {
    cluster: Cluster<V>,
}

impl<V: VertexData> FlashContext<V> {
    /// Builds a context with the default hash partitioner — or over
    /// `config.shared_partition` when one is attached (serving sessions
    /// share one partition map across every query cluster).
    pub fn build(
        graph: Arc<Graph>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError> {
        let partition = Self::partition_for(&graph, &config)?;
        Self::with_partition(graph, partition, config, init)
    }

    /// Builds a context over an explicit partitioning.
    pub fn with_partition(
        graph: Arc<Graph>,
        partition: Arc<PartitionMap>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError> {
        Ok(FlashContext {
            cluster: Cluster::new(graph, partition, config, init)?,
        })
    }

    /// Builds a context with the default hash partitioner for a vertex
    /// type the durable checkpoint store can serialize. Behaves exactly
    /// like [`FlashContext::build`] when no `durable_dir` is configured
    /// (the store stays fully inert); with one, checkpoints and per-step
    /// deltas are committed to disk, and `config.durable_resume` resumes
    /// a killed run bit-identically.
    pub fn build_durable(
        graph: Arc<Graph>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError>
    where
        V: flash_runtime::DurableValue,
    {
        let partition = Self::partition_for(&graph, &config)?;
        Self::with_partition_durable(graph, partition, config, init)
    }

    /// The partition a default-built context runs over: the config's
    /// shared map when attached, else a fresh hash partitioning.
    fn partition_for(
        graph: &Arc<Graph>,
        config: &ClusterConfig,
    ) -> Result<Arc<PartitionMap>, RuntimeError> {
        match &config.shared_partition {
            Some(p) => Ok(Arc::clone(p)),
            None => Ok(Arc::new(
                PartitionMap::build(graph, config.workers, &HashPartitioner)
                    .map_err(|_| RuntimeError::NoWorkers)?,
            )),
        }
    }

    /// [`FlashContext::build_durable`] over an explicit partitioning.
    pub fn with_partition_durable(
        graph: Arc<Graph>,
        partition: Arc<PartitionMap>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError>
    where
        V: flash_runtime::DurableValue,
    {
        let cluster = if config.durable_dir.is_some() {
            Cluster::new_durable(graph, partition, config, init)?
        } else {
            Cluster::new(graph, partition, config, init)?
        };
        Ok(FlashContext { cluster })
    }

    /// The shared graph.
    pub fn graph(&self) -> &Graph {
        self.cluster.graph()
    }

    /// An owning handle to the graph (for capture in closures).
    pub fn graph_arc(&self) -> Arc<Graph> {
        self.cluster.graph_arc()
    }

    /// `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.cluster.num_vertices()
    }

    /// Number of workers `m`.
    pub fn num_workers(&self) -> usize {
        self.cluster.num_workers()
    }

    /// The subset `V` (all vertices).
    pub fn all(&self) -> VertexSubset {
        VertexSubset::full(self.num_vertices())
    }

    /// The empty subset.
    pub fn empty(&self) -> VertexSubset {
        VertexSubset::empty(self.num_vertices())
    }

    /// A subset from explicit ids.
    pub fn subset<I: IntoIterator<Item = VertexId>>(&self, ids: I) -> VertexSubset {
        VertexSubset::from_ids(self.num_vertices(), ids)
    }

    /// The authoritative value of `v`.
    pub fn value(&self, v: VertexId) -> &V {
        self.cluster.value(v)
    }

    /// Extracts a per-vertex result from the authoritative replicas.
    pub fn collect<T>(&self, f: impl Fn(VertexId, &V) -> T) -> Vec<T> {
        self.cluster.collect(f)
    }

    /// Statistics recorded so far.
    pub fn stats(&self) -> &RunStats {
        self.cluster.stats()
    }

    /// Takes and resets recorded statistics.
    pub fn take_stats(&mut self) -> RunStats {
        self.cluster.take_stats()
    }

    /// The terminal fault-recovery error, if some superstep exhausted its
    /// retry budget (see `flash_runtime::fault`). Algorithms check it once
    /// when sealing their result so an exhausted run degrades to a clean
    /// `Err` instead of silently returning values from a failed cluster.
    pub fn fault_error(&self) -> Option<flash_runtime::RuntimeError> {
        self.cluster.fault_error()
    }

    /// Mutable access to the cluster configuration (mode policy etc.).
    pub fn config_mut(&mut self) -> &mut ClusterConfig {
        self.cluster.config_mut()
    }

    /// Raw cluster access for advanced operators (vertex-centric layer,
    /// driver-side global algorithms).
    pub fn cluster_mut(&mut self) -> &mut Cluster<V> {
        &mut self.cluster
    }

    // ------------------------------------------------------------------
    // VERTEXMAP
    // ------------------------------------------------------------------

    /// `VERTEXMAP(U, F, M)` (Algorithm 1): applies `m` to every vertex of
    /// `u` passing `f`; returns the subset of passing vertices.
    ///
    /// `m` receives a clone of the vertex's current value and mutates it
    /// into the new value; FLASHWARE publishes the write and synchronizes
    /// mirrors at the implicit barrier.
    pub fn vertex_map(
        &mut self,
        u: &VertexSubset,
        f: impl Fn(VertexId, &V) -> bool + Sync,
        m: impl Fn(VertexId, &mut V) + Sync,
    ) -> VertexSubset {
        let n = self.num_vertices();
        let out =
            self.cluster
                .step_direct(StepKind::VertexMap, u.len(), SyncScope::Necessary, |ctx| {
                    let actives = u.actives_for(ctx.worker(), ctx.partition());
                    let cur = ctx.current_slice();
                    let results = parallel_chunks(&actives, ctx.threads(), |chunk| {
                        let mut writes = Vec::new();
                        let mut passed = Vec::new();
                        for &v in chunk {
                            let val = &cur[v as usize];
                            if f(v, val) {
                                let mut new_val = val.clone();
                                m(v, &mut new_val);
                                writes.push((v, new_val));
                                passed.push(v);
                            }
                        }
                        (writes, passed)
                    });
                    let mut all_passed = Vec::new();
                    for (writes, passed) in results {
                        ctx.write_masters(writes);
                        all_passed.extend(passed);
                    }
                    all_passed
                });
        let subset = VertexSubset::from_lists(n, &out.per_worker);
        self.cluster.recycle_updated(out.updated);
        subset
    }

    /// `VERTEXMAP(U, F)` — the *filter* form with `M` omitted: "the vertex
    /// data attached will not be changed". A read-only superstep; no
    /// mirror synchronization happens.
    pub fn vertex_filter(
        &mut self,
        u: &VertexSubset,
        f: impl Fn(VertexId, &V) -> bool + Sync,
    ) -> VertexSubset {
        let n = self.num_vertices();
        let out =
            self.cluster
                .step_direct(StepKind::VertexMap, u.len(), SyncScope::Necessary, |ctx| {
                    let actives = u.actives_for(ctx.worker(), ctx.partition());
                    let cur = ctx.current_slice();
                    let results = parallel_chunks(&actives, ctx.threads(), |chunk| {
                        chunk
                            .iter()
                            .copied()
                            .filter(|&v| f(v, &cur[v as usize]))
                            .collect::<Vec<_>>()
                    });
                    results.into_iter().flatten().collect::<Vec<_>>()
                });
        let subset = VertexSubset::from_lists(n, &out.per_worker);
        self.cluster.recycle_updated(out.updated);
        subset
    }

    // ------------------------------------------------------------------
    // EDGEMAP
    // ------------------------------------------------------------------

    /// The block-streaming handle an `EDGEMAP` over `h` should use, if
    /// any — paired with this cluster's private [`StreamScope`] so the
    /// replayed accounting lands in per-run counters: block storage must
    /// be configured, the edge set must be streamable (a fixed
    /// orientation of `E`), and the graph must be block-backed. Virtual
    /// edge sets fall back to the in-memory kernels — they reach beyond
    /// `E`, so no edge block contains them.
    fn streaming(&self, h: &EdgeSet<V>) -> Option<(Arc<BlockHandle>, Arc<StreamScope>)> {
        if self.cluster.config().storage == StorageMode::Block && h.is_streamable() {
            let bh = self.cluster.graph().block_handle().cloned()?;
            Some((bh, Arc::clone(self.cluster.stream_scope())))
        } else {
            None
        }
    }

    /// `EDGEMAP(U, H, F, M, C, R)` (Algorithm 4): dispatches to the dense
    /// (pull) or sparse (push) kernel by the density of the active set —
    /// dense when `|U| + outEdges(U) > threshold * |E|`, following Ligra —
    /// unless the configured [`ModePolicy`] or the edge set's orientation
    /// capabilities force one kernel.
    pub fn edge_map(
        &mut self,
        u: &VertexSubset,
        h: &EdgeSet<V>,
        f: impl Fn(EdgeRef, &V, &V) -> bool + Sync,
        m: impl Fn(EdgeRef, &V, &mut V) + Sync,
        c: impl Fn(VertexId, &V) -> bool + Sync,
        r: impl Fn(&V, &mut V) + Sync,
    ) -> VertexSubset {
        let policy = self.cluster.config().mode;
        let tracing = self.cluster.config().sink.is_some();
        // The density measure drives the Adaptive decision; with a trace
        // sink attached it is also computed under forced policies so every
        // mode_decision event carries it.
        let frontier_edges: Option<usize> = if tracing
            || (policy == ModePolicy::Adaptive && h.supports_pull() && h.supports_push())
        {
            let g = self.graph();
            Some(u.iter().map(|v| g.out_degree(v)).sum::<usize>() + u.len())
        } else {
            None
        };
        let dense = match policy {
            ModePolicy::ForceDense => h.supports_pull(),
            ModePolicy::ForceSparse => !h.supports_push(),
            ModePolicy::Adaptive => {
                if !h.supports_pull() {
                    false
                } else if !h.supports_push() {
                    true
                } else {
                    frontier_edges.unwrap() as f64
                        > self.cluster.config().dense_threshold * self.graph().num_edges() as f64
                }
            }
        };
        if tracing {
            let threshold_edges =
                (self.cluster.config().dense_threshold * self.graph().num_edges() as f64) as usize;
            let policy_label = match policy {
                ModePolicy::Adaptive => "adaptive",
                ModePolicy::ForceDense => "force-dense",
                ModePolicy::ForceSparse => "force-sparse",
            };
            self.cluster.emit(flash_obs::EventKind::ModeDecision {
                step: self.cluster.next_step_id(),
                frontier: u.len(),
                frontier_edges: frontier_edges.unwrap_or(0),
                threshold_edges,
                chosen: if dense { "dense" } else { "sparse" }.to_string(),
                policy: policy_label.to_string(),
            });
        }
        if dense {
            self.edge_map_dense(u, h, f, m, c)
        } else {
            self.edge_map_sparse(u, h, f, m, c, r)
        }
    }

    /// `EDGEMAPDENSE(U, H, F, M, C)` (Algorithm 5, *pull* mode): every
    /// master `d` scans its in-edges of `H`, sequentially applying `m` for
    /// sources in `u` while `c(d)` holds; no reduce function is needed
    /// because updates apply immediately per vertex.
    ///
    /// # Panics
    /// Panics if `h` cannot be enumerated from the target side
    /// (a [`EdgeSet::CustomOut`] set).
    pub fn edge_map_dense(
        &mut self,
        u: &VertexSubset,
        h: &EdgeSet<V>,
        f: impl Fn(EdgeRef, &V, &V) -> bool + Sync,
        m: impl Fn(EdgeRef, &V, &mut V) + Sync,
        c: impl Fn(VertexId, &V) -> bool + Sync,
    ) -> VertexSubset {
        assert!(
            h.supports_pull(),
            "EDGEMAPDENSE needs a target-enumerable edge set; use edge_map_sparse"
        );
        let n = self.num_vertices();
        let scope = sync_scope(h);
        let kind = StepKind::EdgeMapDense;
        let stream = self.streaming(h);
        let out = self.cluster.step_direct(kind, u.len(), scope, |ctx| {
            if let Some((bh, sc)) = stream.as_ref() {
                return dense_streamed(ctx, bh, sc, u, h, &f, &m, &c);
            }
            let g = ctx.graph();
            let masters = ctx.masters();
            let cur = ctx.current_slice();
            let members = u.bits();
            let results = parallel_chunks(masters, ctx.threads(), |chunk| {
                let mut writes: Vec<(VertexId, V)> = Vec::new();
                let mut outs: Vec<VertexId> = Vec::new();
                for &d in chunk {
                    if !c(d, &cur[d as usize]) {
                        continue;
                    }
                    let mut d_new: Option<V> = None;
                    for (s, w) in h.sources(g, d, &cur[d as usize]) {
                        let d_ref: &V = d_new.as_ref().unwrap_or(&cur[d as usize]);
                        if !c(d, d_ref) {
                            break;
                        }
                        if !members.contains(s) {
                            continue;
                        }
                        let s_val = &cur[s as usize];
                        let e = EdgeRef {
                            src: s,
                            dst: d,
                            weight: w,
                        };
                        if f(e, s_val, d_ref) {
                            let val = d_new.get_or_insert_with(|| {
                                outs.push(d);
                                cur[d as usize].clone()
                            });
                            m(e, s_val, val);
                        }
                    }
                    if let Some(val) = d_new {
                        writes.push((d, val));
                    }
                }
                (writes, outs)
            });
            let mut all_outs = Vec::new();
            for (writes, outs) in results {
                ctx.write_masters(writes);
                all_outs.extend(outs);
            }
            all_outs
        });
        let subset = VertexSubset::from_lists(n, &out.per_worker);
        self.cluster.recycle_updated(out.updated);
        subset
    }

    /// `EDGEMAPSPARSE(U, H, F, M, C, R)` (Algorithm 6, *push* mode): every
    /// active master pushes over its out-edges of `H`; concurrent updates
    /// of one target are merged with the associative & commutative `r`,
    /// first mirror-side, then at the target's master — the paper's
    /// three-phase, two-message-round procedure.
    ///
    /// # Panics
    /// Panics if `h` cannot be enumerated from the source side
    /// (a [`EdgeSet::CustomIn`] set).
    pub fn edge_map_sparse(
        &mut self,
        u: &VertexSubset,
        h: &EdgeSet<V>,
        f: impl Fn(EdgeRef, &V, &V) -> bool + Sync,
        m: impl Fn(EdgeRef, &V, &mut V) + Sync,
        c: impl Fn(VertexId, &V) -> bool + Sync,
        r: impl Fn(&V, &mut V) + Sync,
    ) -> VertexSubset {
        assert!(
            h.supports_push(),
            "EDGEMAPSPARSE needs a source-enumerable edge set; use edge_map_dense"
        );
        let n = self.num_vertices();
        let scope = sync_scope(h);
        let stream = self.streaming(h);
        let out = self.cluster.step_reduce(u.len(), scope, &r, |ctx| {
            if let Some((bh, sc)) = stream.as_ref() {
                return sparse_streamed(ctx, bh, sc, u, h, &f, &m, &c, &r);
            }
            let g = ctx.graph();
            let threads = ctx.threads();
            let actives = u.actives_for(ctx.worker(), ctx.partition());
            let (cur, mut puts) = ctx.split();
            // One kernel body, two sinks. A single chunk (the default
            // `threads_per_worker = 1`) stages every update the moment it
            // is computed; several chunks buffer theirs and the buffers
            // are staged in chunk order. Either way one destination's
            // temporaries meet `r` in source order.
            if threads <= 1 {
                sparse_chunk(g, &actives, cur, h, &f, &m, &c, |d, temp| {
                    puts.put(d, temp, &r)
                });
            } else {
                let results = parallel_chunks(&actives, threads, |chunk| {
                    let mut updates: Vec<(VertexId, V)> = Vec::new();
                    sparse_chunk(g, chunk, cur, h, &f, &m, &c, |d, temp| {
                        updates.push((d, temp))
                    });
                    updates
                });
                for (d, temp) in results.into_iter().flatten() {
                    puts.put(d, temp, &r);
                }
            }
        });
        let subset = VertexSubset::from_lists(n, &out.updated);
        self.cluster.recycle_updated(out.updated);
        subset
    }

    // ------------------------------------------------------------------
    // Global operators
    // ------------------------------------------------------------------

    /// A distributed fold over the masters in `u`: each worker folds its
    /// local members with `f`, partials are combined with `combine` on the
    /// driver. Backs global aggregations (total triangle counts, frontier
    /// statistics, …); traffic (one partial per worker) is recorded.
    pub fn fold<T: Clone + Send + Sync>(
        &mut self,
        u: &VertexSubset,
        init: T,
        f: impl Fn(T, VertexId, &V) -> T + Sync,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let t0 = Instant::now();
        let out =
            self.cluster
                .step_direct(StepKind::Global, u.len(), SyncScope::Necessary, |ctx| {
                    let actives = u.actives_for(ctx.worker(), ctx.partition());
                    let cur = ctx.current_slice();
                    let mut acc = init.clone();
                    for &v in &actives {
                        acc = f(acc, v, &cur[v as usize]);
                    }
                    acc
                });
        let m = out.per_worker.len();
        let result = out
            .per_worker
            .into_iter()
            .fold(None, |acc: Option<T>, part| match acc {
                None => Some(part),
                Some(a) => Some(combine(a, part)),
            })
            .unwrap_or(init);
        let bytes = (m.saturating_sub(1) * std::mem::size_of::<T>()) as u64;
        self.cluster
            .record_global(m.saturating_sub(1) as u64, bytes, t0.elapsed());
        result
    }

    /// Gathers one value per worker from a read-only pass over the cluster
    /// (the paper's auxiliary `REDUCE` gather used by MSF/BCC). `bytes_of`
    /// reports each partial's wire size for traffic accounting.
    pub fn gather<T: Send>(
        &mut self,
        f: impl Fn(&mut flash_runtime::WorkerCtx<'_, V>) -> T + Sync,
        bytes_of: impl Fn(&T) -> usize,
    ) -> Vec<T> {
        let t0 = Instant::now();
        let out = self
            .cluster
            .step_direct(StepKind::Global, 0, SyncScope::Necessary, f);
        let bytes: u64 = out.per_worker.iter().map(|t| bytes_of(t) as u64).sum();
        let msgs = out.per_worker.len().saturating_sub(1) as u64;
        self.cluster.record_global(msgs, bytes, t0.elapsed());
        out.per_worker
    }

    /// Broadcasts a driver-computed value into vertex `v` on all replicas
    /// (used by global algorithms to install results); traffic recorded.
    pub fn broadcast_value(&mut self, v: VertexId, val: V) {
        let t0 = Instant::now();
        let bytes = (self.num_workers().saturating_sub(1) * (4 + val.bytes())) as u64;
        let msgs = self.num_workers().saturating_sub(1) as u64;
        self.cluster.set_value_global(v, val);
        self.cluster.record_global(msgs, bytes, t0.elapsed());
    }
}

/// Per-destination streaming state of the dense (pull) kernel: a cursor
/// into the sorted source list, advanced one source block at a time.
struct DenseRow<'g, W> {
    d: VertexId,
    /// The destination's block index (one coordinate of every edge block
    /// this row touches).
    db: u32,
    srcs: &'g [VertexId],
    wts: Option<&'g [Weight]>,
    cursor: usize,
    d_new: Option<W>,
    /// Set when the per-edge condition `c` failed mid-list — the paper's
    /// early exit; remaining blocks of this row are skipped (and not
    /// charged).
    stopped: bool,
}

/// The streamed `EDGEMAPDENSE` kernel (DESIGN.md §13). Functionally
/// identical to the in-memory pull kernel — for every destination the
/// sources are still visited in ascending order, so results are
/// bit-identical — but the *visit order across destinations* is
/// block-major: all rows consume source block `sb` before any row moves
/// to `sb + 1`, the access pattern an out-of-core engine needs so one
/// streamed edge block serves every resident row. Touched blocks are
/// recorded per chunk and replayed against the worker's FIFO cache for
/// deterministic bytes-streamed accounting.
#[allow(clippy::too_many_arguments)]
fn dense_streamed<V: VertexData>(
    ctx: &mut WorkerCtx<'_, V>,
    bh: &BlockHandle,
    scope: &StreamScope,
    u: &VertexSubset,
    h: &EdgeSet<V>,
    f: &(impl Fn(EdgeRef, &V, &V) -> bool + Sync),
    m: &(impl Fn(EdgeRef, &V, &mut V) + Sync),
    c: &(impl Fn(VertexId, &V) -> bool + Sync),
) -> Vec<VertexId> {
    let g = ctx.graph();
    let grid = bh.grid();
    let nb = grid.nb();
    let reverse = matches!(h, EdgeSet::Reverse);
    let gate = match h {
        EdgeSet::TargetsIn(set) => Some(set),
        _ => None,
    };
    let worker = ctx.worker();
    let masters = ctx.masters();
    let cur = ctx.current_slice();
    let members = u.bits();
    let results = parallel_chunks(masters, ctx.threads(), |chunk| {
        let mut rows: Vec<DenseRow<'_, V>> = chunk
            .iter()
            .copied()
            .filter(|&d| c(d, &cur[d as usize]) && gate.is_none_or(|set| set.contains(d)))
            .map(|d| {
                let (srcs, wts) = if reverse {
                    (g.out_neighbors(d), g.out_weights(d))
                } else {
                    (g.in_neighbors(d), g.in_weights(d))
                };
                DenseRow {
                    d,
                    db: grid.block_of(d) as u32,
                    srcs,
                    wts,
                    cursor: 0,
                    d_new: None,
                    stopped: false,
                }
            })
            .collect();
        let mut touches: Vec<BlockTouch> = Vec::new();
        for sb in 0..nb {
            let end = grid.block_end(sb);
            for row in rows.iter_mut() {
                let lo = row.cursor;
                let mut hi = lo;
                while hi < row.srcs.len() && (row.srcs[hi] as usize) < end {
                    hi += 1;
                }
                row.cursor = hi;
                if lo == hi || row.stopped {
                    continue;
                }
                // This slice lives in one edge block; pulling reads the
                // in-CSR copy of block (sb, db), reversed pulls the
                // out-CSR copy of (db, sb). Consecutive rows of the same
                // destination block share the touch.
                let touch: BlockTouch = if reverse {
                    (0, row.db, sb as u32)
                } else {
                    (1, sb as u32, row.db)
                };
                if touches.last() != Some(&touch) {
                    touches.push(touch);
                }
                for i in lo..hi {
                    let d_ref: &V = row.d_new.as_ref().unwrap_or(&cur[row.d as usize]);
                    if !c(row.d, d_ref) {
                        row.stopped = true;
                        break;
                    }
                    let s = row.srcs[i];
                    if !members.contains(s) {
                        continue;
                    }
                    let s_val = &cur[s as usize];
                    let e = EdgeRef {
                        src: s,
                        dst: row.d,
                        weight: row.wts.map_or(1.0, |w| w[i]),
                    };
                    if f(e, s_val, d_ref) {
                        let val = row.d_new.get_or_insert_with(|| cur[row.d as usize].clone());
                        m(e, s_val, val);
                    }
                }
            }
        }
        let mut writes: Vec<(VertexId, V)> = Vec::new();
        let mut outs: Vec<VertexId> = Vec::new();
        for row in rows {
            if let Some(val) = row.d_new {
                outs.push(row.d);
                writes.push((row.d, val));
            }
        }
        (writes, outs, touches)
    });
    let mut all_outs = Vec::new();
    for (writes, outs, touches) in results {
        bh.replay(scope, worker, &touches);
        ctx.write_masters(writes);
        all_outs.extend(outs);
    }
    all_outs
}

/// The in-memory `EDGEMAPSPARSE` kernel body over one chunk of active
/// sources: every qualifying edge hands `(target, temporary)` to `sink`,
/// in source order.
#[allow(clippy::too_many_arguments)]
fn sparse_chunk<V: VertexData>(
    g: &Graph,
    chunk: &[VertexId],
    cur: &[V],
    h: &EdgeSet<V>,
    f: &impl Fn(EdgeRef, &V, &V) -> bool,
    m: &impl Fn(EdgeRef, &V, &mut V),
    c: &impl Fn(VertexId, &V) -> bool,
    mut sink: impl FnMut(VertexId, V),
) {
    for &s in chunk {
        let s_val = &cur[s as usize];
        for (d, w) in h.targets(g, s, s_val) {
            let d_val = &cur[d as usize];
            if !c(d, d_val) {
                continue;
            }
            let e = EdgeRef {
                src: s,
                dst: d,
                weight: w,
            };
            if f(e, s_val, d_val) {
                let mut temp = d_val.clone();
                m(e, s_val, &mut temp);
                sink(d, temp);
            }
        }
    }
}

/// Per-source streaming state of the sparse (push) kernel: a cursor into
/// the sorted target list, advanced one destination block at a time.
struct SparseRow<'g> {
    s: VertexId,
    /// The source's block index.
    sb: u32,
    tgts: &'g [VertexId],
    wts: Option<&'g [Weight]>,
    cursor: usize,
}

/// The streamed `EDGEMAPSPARSE` kernel (DESIGN.md §13). Pushes the same
/// updates as the in-memory kernel — any one destination still receives
/// its updates in ascending source order, so reduction is bit-identical —
/// but iterates destination blocks outermost, the GPOP-style binned
/// scatter that confines the random target accesses of one pass to a
/// single block's range. Block touches are replayed for deterministic
/// streaming accounting. Updates are staged as in the in-memory kernel:
/// directly with one chunk, buffered and committed in chunk order with
/// several.
#[allow(clippy::too_many_arguments)]
fn sparse_streamed<V: VertexData>(
    ctx: &mut WorkerCtx<'_, V>,
    bh: &BlockHandle,
    scope: &StreamScope,
    u: &VertexSubset,
    h: &EdgeSet<V>,
    f: &(impl Fn(EdgeRef, &V, &V) -> bool + Sync),
    m: &(impl Fn(EdgeRef, &V, &mut V) + Sync),
    c: &(impl Fn(VertexId, &V) -> bool + Sync),
    r: &(impl Fn(&V, &mut V) + Sync),
) {
    let g = ctx.graph();
    let worker = ctx.worker();
    let threads = ctx.threads();
    let actives = u.actives_for(worker, ctx.partition());
    let (cur, mut puts) = ctx.split();
    if threads <= 1 {
        let touches = sparse_streamed_chunk(g, bh, &actives, cur, h, f, m, c, |d, temp| {
            puts.put(d, temp, r)
        });
        bh.replay(scope, worker, &touches);
    } else {
        let results = parallel_chunks(&actives, threads, |chunk| {
            let mut updates: Vec<(VertexId, V)> = Vec::new();
            let touches = sparse_streamed_chunk(g, bh, chunk, cur, h, f, m, c, |d, temp| {
                updates.push((d, temp))
            });
            (updates, touches)
        });
        for (updates, touches) in results {
            bh.replay(scope, worker, &touches);
            for (d, temp) in updates {
                puts.put(d, temp, r);
            }
        }
    }
}

/// The streamed push kernel body over one chunk of active sources: hands
/// every update to `sink` and returns the edge blocks it touched, in
/// touch order.
#[allow(clippy::too_many_arguments)]
fn sparse_streamed_chunk<V: VertexData>(
    g: &Graph,
    bh: &BlockHandle,
    chunk: &[VertexId],
    cur: &[V],
    h: &EdgeSet<V>,
    f: &impl Fn(EdgeRef, &V, &V) -> bool,
    m: &impl Fn(EdgeRef, &V, &mut V),
    c: &impl Fn(VertexId, &V) -> bool,
    mut sink: impl FnMut(VertexId, V),
) -> Vec<BlockTouch> {
    let grid = bh.grid();
    let nb = grid.nb();
    let reverse = matches!(h, EdgeSet::Reverse);
    let gate = match h {
        EdgeSet::TargetsIn(set) => Some(set),
        _ => None,
    };
    let mut rows: Vec<SparseRow<'_>> = chunk
        .iter()
        .copied()
        .map(|s| {
            let (tgts, wts) = if reverse {
                (g.in_neighbors(s), g.in_weights(s))
            } else {
                (g.out_neighbors(s), g.out_weights(s))
            };
            SparseRow {
                s,
                sb: grid.block_of(s) as u32,
                tgts,
                wts,
                cursor: 0,
            }
        })
        .collect();
    let mut touches: Vec<BlockTouch> = Vec::new();
    for db in 0..nb {
        let end = grid.block_end(db);
        for row in rows.iter_mut() {
            let lo = row.cursor;
            let mut hi = lo;
            while hi < row.tgts.len() && (row.tgts[hi] as usize) < end {
                hi += 1;
            }
            row.cursor = hi;
            if lo == hi {
                continue;
            }
            // Pushing reads the out-CSR copy of block (sb, db);
            // reversed pushes read the in-CSR copy of (db, sb).
            let touch: BlockTouch = if reverse {
                (1, db as u32, row.sb)
            } else {
                (0, row.sb, db as u32)
            };
            if touches.last() != Some(&touch) {
                touches.push(touch);
            }
            let s_val = &cur[row.s as usize];
            for i in lo..hi {
                let d = row.tgts[i];
                if let Some(set) = gate {
                    if !set.contains(d) {
                        continue;
                    }
                }
                let d_val = &cur[d as usize];
                if !c(d, d_val) {
                    continue;
                }
                let e = EdgeRef {
                    src: row.s,
                    dst: d,
                    weight: row.wts.map_or(1.0, |w| w[i]),
                };
                if f(e, s_val, d_val) {
                    let mut temp = d_val.clone();
                    m(e, s_val, &mut temp);
                    sink(d, temp);
                }
            }
        }
    }
    touches
}

/// Chooses the mirror-sync scope for an edge set: virtual edges escape the
/// partitioner's mirror placement, so they broadcast to all workers
/// (§IV-C "Communicate with necessary mirrors only").
fn sync_scope<V>(h: &EdgeSet<V>) -> SyncScope {
    if h.is_virtual() {
        SyncScope::All
    } else {
        SyncScope::Necessary
    }
}
