//! The FLASH execution context: `VERTEXMAP`, `EDGEMAP` and friends.

use crate::edgeset::{EdgeSet, Row};
use crate::subset::VertexSubset;
use crate::EdgeRef;
use flash_graph::{
    BitSet, BlockGrid, BlockHandle, BlockTouch, Graph, StreamScope, VertexId, MAX_GRID_DIM,
};
use flash_runtime::{
    Cluster, ClusterConfig, ModePolicy, RunStats, RuntimeError, StepKind, StorageMode, SyncScope,
    VertexData, DENSE_THRESHOLD,
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
    /// Builds a context over the default partition map
    /// ([`PartitionMap::for_graph`](flash_graph::PartitionMap::for_graph))
    /// — or over `config.shared_partition` when one is attached, which is
    /// how serving sessions share one map across every query cluster and
    /// how a caller runs over an explicit map (see
    /// [`ClusterConfig::partition_for`]).
    pub fn build(
        graph: Arc<Graph>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError> {
        let partition = config.partition_for(&graph)?;
        Ok(FlashContext {
            cluster: Cluster::new(graph, partition, config, init)?,
        })
    }

    /// Builds a context over the default partition map for a vertex
    /// type the durable checkpoint store can digest. Behaves exactly like
    /// [`FlashContext::build`] when no `durable_dir` is configured (the
    /// store stays fully inert); with one, every checkpoint commits a
    /// digest of the state to disk, and `config.durable_resume`
    /// re-executes a killed run and verifies it against the newest one.
    pub fn build_durable(
        graph: Arc<Graph>,
        config: ClusterConfig,
        init: impl Fn(VertexId) -> V,
    ) -> Result<Self, RuntimeError>
    where
        V: flash_runtime::DurableValue,
    {
        let partition = config.partition_for(&graph)?;
        Ok(FlashContext {
            cluster: Cluster::new_durable(graph, partition, config, init)?,
        })
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
    /// `m` mutates the master's value in place: `f` and `m` see only their
    /// own vertex, so no staged copy is needed for BSP, and FLASHWARE
    /// synchronizes mirrors at the implicit barrier.
    pub fn vertex_map(
        &mut self,
        u: &VertexSubset,
        f: impl Fn(VertexId, &V) -> bool + Sync,
        m: impl Fn(VertexId, &mut V) + Sync,
    ) -> VertexSubset {
        let out =
            self.cluster
                .step_direct(StepKind::VertexMap, u.len(), SyncScope::Necessary, |ctx| {
                    let actives = u.actives_for(ctx.worker(), ctx.partition());
                    ctx.update_masters(&actives, &f, &m);
                });
        self.written(out.updated)
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
                    actives
                        .iter()
                        .copied()
                        .filter(|&v| f(v, &cur[v as usize]))
                        .collect::<Vec<_>>()
                });
        let subset = VertexSubset::from_lists(n, &out.per_worker);
        self.cluster.recycle_updated(out.updated);
        subset
    }

    // ------------------------------------------------------------------
    // EDGEMAP
    // ------------------------------------------------------------------

    /// The block handle an `EDGEMAP` over `h` charges its reads to, if
    /// any — paired with this cluster's private [`StreamScope`] so the
    /// replayed accounting lands in per-run counters: block storage must
    /// be configured, the edge set must be streamable (a fixed
    /// orientation of `E`), and the graph must be block-backed. Virtual
    /// edge sets are not charged — they reach beyond `E`, so no edge
    /// block contains them.
    fn streaming(&self, h: &EdgeSet<V>) -> Option<Stream> {
        if self.cluster.config().storage == StorageMode::Block && h.is_streamable() {
            let bh = self.cluster.graph().block_handle().cloned()?;
            Some((bh, Arc::clone(self.cluster.stream_scope())))
        } else {
            None
        }
    }

    /// `EDGEMAP(U, H, F, M, C, R)` (Algorithm 4): dispatches to the dense
    /// (pull) or sparse (push) kernel by the density of the active set —
    /// dense when `|U|` plus the arcs of `U`'s push rows (out-degrees;
    /// in-degrees over `reverse(E)`) exceed `threshold * |E|`, following Ligra —
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
        let measured = policy == ModePolicy::Adaptive && h.supports_pull() && h.supports_push();
        let frontier_edges: Option<usize> = if tracing || measured {
            Some(u.iter().map(|v| self.push_degree(h, v)).sum::<usize>() + u.len())
        } else {
            None
        };
        let threshold_edges = self.threshold_edges();
        let dense = match policy {
            ModePolicy::ForceDense => h.supports_pull(),
            ModePolicy::ForceSparse => !h.supports_push(),
            ModePolicy::Adaptive => {
                if !h.supports_pull() {
                    false
                } else if !h.supports_push() {
                    true
                } else {
                    frontier_edges.unwrap() > threshold_edges
                }
            }
        };
        if tracing {
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
            // A pull the count chose already knows `u` is dense.
            self.pull(u, h, f, m, c, measured)
        } else {
            self.edge_map_sparse(u, h, f, m, c, r)
        }
    }

    /// `DENSE_THRESHOLD · |E|`, rounded down: a frontier whose `|U|` plus
    /// push-row arcs exceed it is dense. (For an integer count, exceeding
    /// the rounded value is exceeding the product.)
    fn threshold_edges(&self) -> usize {
        (DENSE_THRESHOLD * self.graph().num_edges() as f64) as usize
    }

    /// `EDGEMAPDENSE(U, H, F, M, C)` (Algorithm 5, *pull* mode): every
    /// master `d` that some source in `u` reaches over `H` scans its
    /// in-edges of `H`, sequentially applying `m` for sources in `u` while
    /// `c(d)` holds; no reduce function is needed because updates apply
    /// immediately per vertex.
    ///
    /// Which masters a worker walks is Ligra's density rule applied to the
    /// pull (DESIGN.md §4): over a stored `H` (`E`, `reverse(E)`,
    /// `join(E, U')`) from a partial `u` whose push rows hold at most
    /// `DENSE_THRESHOLD · |E|` arcs (counting `|U|` too), only the targets
    /// of those push rows it masters, ascending; otherwise every master.
    /// A master left out has no source in `u`, so the answer is the same.
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
        self.pull(u, h, f, m, c, false)
    }

    /// [`FlashContext::edge_map_dense`], told by `dense_u` that `u` is
    /// already known to be dense, so it walks every master uncounted.
    fn pull(
        &mut self,
        u: &VertexSubset,
        h: &EdgeSet<V>,
        f: impl Fn(EdgeRef, &V, &V) -> bool + Sync,
        m: impl Fn(EdgeRef, &V, &mut V) + Sync,
        c: impl Fn(VertexId, &V) -> bool + Sync,
        dense_u: bool,
    ) -> VertexSubset {
        assert!(
            h.supports_pull(),
            "EDGEMAPDENSE needs a target-enumerable edge set; use edge_map_sparse"
        );
        let narrow = !dense_u && self.reaches_few(u, h);
        let scope = sync_scope(h);
        let kind = StepKind::EdgeMapDense;
        let stream = self.streaming(h);
        let stream = stream.as_ref();
        let grid = stream.map(|(bh, _)| bh.grid());
        // Pulling over `reverse(E)` reads rows of the out-CSR.
        let dir = if matches!(h, EdgeSet::Reverse) { 0 } else { 1 };
        let out = self.cluster.step_direct(kind, u.len(), scope, |ctx| {
            let g = ctx.graph();
            let worker = ctx.worker();
            let partition = ctx.partition();
            let members = u.bits();
            // Each new value goes straight into the worker's `direct` buffer.
            let (cur, mut sink) = ctx.split_writes();
            let reached;
            let masters = if narrow {
                reached = reached_masters(g, u, h, cur, |d| partition.is_master(worker, d));
                &reached[..]
            } else {
                partition.masters(worker)
            };
            let (touches, arcs) = dense_kernel(
                g,
                masters,
                cur,
                members,
                h,
                &f,
                &m,
                &c,
                TouchRecorder::new(grid, dir),
                |d, val| sink.write(d, val),
            );
            ctx.count_arcs(arcs);
            replay(stream, worker, &touches);
        });
        self.written(out.updated)
    }

    /// Whether a pull from `u` over `h` may walk only the masters `u`'s
    /// push rows reach: `h` is stored, so its push rows are the transpose
    /// of its pull rows (a virtual set's are not); `u` is not full; and
    /// `|U|` plus those rows' arcs ([`Self::push_degree`]) stay within
    /// [`Self::threshold_edges`]. The count stops once it passes.
    fn reaches_few(&self, u: &VertexSubset, h: &EdgeSet<V>) -> bool {
        if !h.is_streamable() || u.len() == u.capacity() {
            return false;
        }
        let limit = self.threshold_edges();
        let mut arcs = u.len();
        u.iter().all(|s| {
            arcs += self.push_degree(h, s);
            arcs <= limit
        })
    }

    /// The arcs of `s`'s push row over `h`: its in-degree for
    /// `reverse(E)`, whose push rows are in-CSR rows, its out-degree
    /// otherwise.
    fn push_degree(&self, h: &EdgeSet<V>, s: VertexId) -> usize {
        if matches!(h, EdgeSet::Reverse) {
            self.graph().in_degree(s)
        } else {
            self.graph().out_degree(s)
        }
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
        let scope = sync_scope(h);
        let stream = self.streaming(h);
        let stream = stream.as_ref();
        let grid = stream.map(|(bh, _)| bh.grid());
        // Pushing over `reverse(E)` reads rows of the in-CSR.
        let dir = if matches!(h, EdgeSet::Reverse) { 1 } else { 0 };
        let out = self.cluster.step_reduce(u.len(), scope, &r, |ctx| {
            let g = ctx.graph();
            let worker = ctx.worker();
            let actives = u.actives_for(worker, ctx.partition());
            // Every update is staged the moment it is computed, so one
            // destination's temporaries meet `r` in source order.
            let (cur, mut puts) = ctx.split();
            let (touches, arcs) = sparse_kernel(
                g,
                &actives,
                cur,
                h,
                &f,
                &m,
                &c,
                TouchRecorder::new(grid, dir),
                |d, temp| puts.put(d, temp, &r),
            );
            ctx.count_arcs(arcs);
            replay(stream, worker, &touches);
        });
        self.written(out.updated)
    }

    /// The output subset of a writing step — the masters its `publish`
    /// listed, one sorted list per owner — returning the lists to the
    /// cluster's pool.
    fn written(&mut self, updated: Vec<Vec<VertexId>>) -> VertexSubset {
        let subset = VertexSubset::from_lists(self.num_vertices(), &updated);
        self.cluster.recycle_updated(updated);
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
        let out =
            self.cluster
                .step_direct(StepKind::Global, u.len(), SyncScope::Necessary, |ctx| {
                    let actives = u.actives_for(ctx.worker(), ctx.partition());
                    let cur = ctx.current_slice();
                    let mut acc = init.clone();
                    for &v in actives.iter() {
                        acc = f(acc, v, &cur[v as usize]);
                    }
                    acc
                });
        // The superstep above recorded itself; the global step charges only
        // the driver-side combine.
        let t0 = Instant::now();
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
        let out = self
            .cluster
            .step_direct(StepKind::Global, 0, SyncScope::Necessary, f);
        let t0 = Instant::now();
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

/// The `EDGEMAPDENSE` kernel over `masters`, a worker's masters in
/// ascending order — all of them, or only those the frontier reaches:
/// every destination some qualifying in-edge updated hands `(destination,
/// new value)` to `sink`, in master order. Returns the edge blocks it read
/// and the arcs in the rows it opened. A full frontier skips the
/// membership probe per arc.
#[allow(clippy::too_many_arguments)]
fn dense_kernel<V: VertexData>(
    g: &Graph,
    masters: &[VertexId],
    cur: &[V],
    members: &BitSet,
    h: &EdgeSet<V>,
    f: &impl Fn(EdgeRef, &V, &V) -> bool,
    m: &impl Fn(EdgeRef, &V, &mut V),
    c: &impl Fn(VertexId, &V) -> bool,
    mut touched: TouchRecorder,
    mut sink: impl FnMut(VertexId, V),
) -> (Vec<BlockTouch>, u64) {
    let members = (members.len() < members.capacity()).then_some(members);
    let mut scratch: Vec<VertexId> = Vec::new();
    let mut arcs = 0;
    for &d in masters {
        let d_cur = &cur[d as usize];
        if !c(d, d_cur) {
            continue;
        }
        let row = h.sources(g, d, d_cur, &mut scratch);
        touched.row(d);
        arcs += row.ids.len() as u64;
        if let Some(val) = pull_row(d, &row, cur, members, f, m, c, &mut touched) {
            sink(d, val);
        }
    }
    (touched.finish(), arcs)
}

/// The masters `owns` accepts that a pull from `u` over a stored `h` can
/// update, ascending: the targets of `u`'s push rows that `h` admits. `s`
/// is in `d`'s pull row exactly when `d` is in `s`'s push row, so no other
/// master's row holds a source in `u`.
fn reached_masters<V>(
    g: &Graph,
    u: &VertexSubset,
    h: &EdgeSet<V>,
    cur: &[V],
    owns: impl Fn(VertexId) -> bool,
) -> Vec<VertexId> {
    let mut scratch = Vec::new();
    let mut reached = Vec::new();
    for s in u.iter() {
        let row = h.targets(g, s, &cur[s as usize], &mut scratch);
        reached.extend(
            row.ids
                .iter()
                .copied()
                .filter(|&d| row.admits(d) && owns(d)),
        );
    }
    reached.sort_unstable();
    reached.dedup();
    reached
}

/// One row of [`dense_kernel`]: the new value of `d`, if some in-edge of
/// `row` from a source in `members` (all sources when `None`) qualified.
///
/// The row is walked in two phases. Phase 1 tests `c` and `f` against the
/// current value until the first qualifying edge, where it clones that
/// value once and applies `m`; a row with no qualifying edge clones
/// nothing. Phase 2 runs the rest of the row against the owned new value.
/// `f`, `c` and `m` see the same values in the same order as a loop that
/// picked its reference per arc, so results are bit-identical to it.
///
/// Out of line on purpose: inlined next to the sink's possible
/// reallocation, the new value lived on the stack, and phase 2 paid a
/// store and a reload per arc on top of `m`.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn pull_row<V: VertexData>(
    d: VertexId,
    row: &Row<'_>,
    cur: &[V],
    members: Option<&BitSet>,
    f: &impl Fn(EdgeRef, &V, &V) -> bool,
    m: &impl Fn(EdgeRef, &V, &mut V),
    c: &impl Fn(VertexId, &V) -> bool,
    touched: &mut TouchRecorder,
) -> Option<V> {
    let d_cur = &cur[d as usize];
    let edge = |i: usize, s: VertexId| EdgeRef {
        src: s,
        dst: d,
        weight: row.weight(i),
    };
    let member = |s: VertexId| members.is_none_or(|u| u.contains(s));
    let mut arcs = row.ids.iter().enumerate();
    let (i, s) = loop {
        let (i, &s) = arcs.next()?;
        touched.neighbour(s);
        if !c(d, d_cur) {
            return None;
        }
        if member(s) && f(edge(i, s), &cur[s as usize], d_cur) {
            break (i, s);
        }
    };
    let mut val = d_cur.clone();
    m(edge(i, s), &cur[s as usize], &mut val);
    for (i, &s) in arcs {
        touched.neighbour(s);
        if !c(d, &val) {
            break;
        }
        if member(s) {
            let (e, s_val) = (edge(i, s), &cur[s as usize]);
            if f(e, s_val, &val) {
                m(e, s_val, &mut val);
            }
        }
    }
    Some(val)
}

/// The `EDGEMAPSPARSE` kernel over a worker's active sources: every
/// qualifying edge hands `(target, temporary)` to `sink`, in source order.
/// Returns the edge blocks it read and the arcs in the rows it opened.
#[allow(clippy::too_many_arguments)]
fn sparse_kernel<V: VertexData>(
    g: &Graph,
    actives: &[VertexId],
    cur: &[V],
    h: &EdgeSet<V>,
    f: &impl Fn(EdgeRef, &V, &V) -> bool,
    m: &impl Fn(EdgeRef, &V, &mut V),
    c: &impl Fn(VertexId, &V) -> bool,
    mut touched: TouchRecorder,
    mut sink: impl FnMut(VertexId, V),
) -> (Vec<BlockTouch>, u64) {
    let mut scratch: Vec<VertexId> = Vec::new();
    let mut arcs = 0;
    for &s in actives {
        let s_val = &cur[s as usize];
        let row = h.targets(g, s, s_val, &mut scratch);
        touched.row(s);
        arcs += row.ids.len() as u64;
        for (i, &d) in row.ids.iter().enumerate() {
            touched.neighbour(d);
            if !row.admits(d) {
                continue;
            }
            let d_val = &cur[d as usize];
            if !c(d, d_val) {
                continue;
            }
            let e = EdgeRef {
                src: s,
                dst: d,
                weight: row.weight(i),
            };
            if f(e, s_val, d_val) {
                let mut temp = d_val.clone();
                m(e, s_val, &mut temp);
                sink(d, temp);
            }
        }
    }
    (touched.finish(), arcs)
}

/// The block handle and per-run scope a streamed `EDGEMAP` charges.
type Stream = (Arc<BlockHandle>, Arc<StreamScope>);

/// Block-touch accounting for an `EDGEMAP` kernel (DESIGN.md §13). A
/// streamed step runs the same loop over the same CSR rows as an
/// in-memory one; this only *records* which edge blocks those rows live
/// in: one bit per neighbour block, OR-ed into a mask that is flushed as
/// [`BlockTouch`]es when the row block changes. Rows arrive in ascending
/// id order, so a kernel lists every cell it read exactly once. Without a
/// stream it records nothing.
struct TouchRecorder {
    /// log2 of the block width while streaming.
    block_bits: Option<u32>,
    /// The CSR copy the rows come from (0 out, 1 in), which decides the
    /// coordinate of a cell the row block is.
    dir: u8,
    row_block: u32,
    mask: u64,
    touches: Vec<BlockTouch>,
}

impl TouchRecorder {
    fn new(grid: Option<&BlockGrid>, dir: u8) -> Self {
        debug_assert!(grid.is_none_or(|g| g.nb() <= MAX_GRID_DIM));
        TouchRecorder {
            block_bits: grid.map(|g| g.block_bits()),
            dir,
            row_block: 0,
            mask: 0,
            touches: Vec::new(),
        }
    }

    /// The kernel starts the row of `v`.
    #[inline]
    fn row(&mut self, v: VertexId) {
        if let Some(bits) = self.block_bits {
            let block = v >> bits;
            if block != self.row_block {
                self.flush();
                self.row_block = block;
            }
        }
    }

    /// The kernel reads the row's entry for neighbour `v`: the slice of
    /// the row inside `v`'s block is charged from here on, whatever the
    /// kernel's filters then decide about the edge.
    #[inline]
    fn neighbour(&mut self, v: VertexId) {
        if let Some(bits) = self.block_bits {
            self.mask |= 1 << (v >> bits);
        }
    }

    fn flush(&mut self) {
        let mut mask = std::mem::take(&mut self.mask);
        while mask != 0 {
            let other = mask.trailing_zeros();
            mask &= mask - 1;
            self.touches.push(if self.dir == 0 {
                (0, self.row_block, other)
            } else {
                (1, other, self.row_block)
            });
        }
    }

    /// The cells the kernel read, row-block-major.
    fn finish(mut self) -> Vec<BlockTouch> {
        self.flush();
        self.touches
    }
}

/// Replays a kernel's touches against the worker's block cache.
fn replay(stream: Option<&Stream>, worker: usize, touches: &[BlockTouch]) {
    if let Some((bh, scope)) = stream {
        bh.replay(scope, worker, touches);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::GraphBuilder;

    /// The widest grid has exactly as many blocks per axis as the mask has
    /// bits: a neighbour in the last block sets the top bit and comes out
    /// as a touch like any other.
    #[test]
    fn recorder_covers_the_widest_grid() {
        let n = MAX_GRID_DIM * 4_096;
        let last = (n - 1) as VertexId;
        let g = GraphBuilder::new(n).edges([(0, last)]).build().unwrap();
        let grid = BlockGrid::build(&g);
        assert_eq!(grid.nb(), MAX_GRID_DIM);

        let mut out_rows = TouchRecorder::new(Some(&grid), 0);
        out_rows.row(0);
        out_rows.neighbour(last);
        assert_eq!(out_rows.mask, 1 << 63);
        out_rows.row(1);
        out_rows.neighbour(4_096);
        out_rows.row(last);
        out_rows.neighbour(0);
        assert_eq!(
            out_rows.finish(),
            [(0, 0, 1), (0, 0, 63), (0, 63, 0)],
            "one touch per cell, flushed when the row block changes"
        );

        let mut in_rows = TouchRecorder::new(Some(&grid), 1);
        in_rows.row(last);
        in_rows.neighbour(0);
        assert_eq!(in_rows.finish(), [(1, 0, 63)], "in-CSR rows are columns");

        let mut off = TouchRecorder::new(None, 0);
        off.row(last);
        off.neighbour(last);
        assert!(off.finish().is_empty(), "in-memory steps record nothing");
    }

    #[derive(Clone, Default)]
    struct Num {
        x: u64,
    }
    flash_runtime::full_sync!(Num);

    /// A fold is two recorded steps — the workers' superstep and the
    /// driver-side combine — and each phase of it is charged once: their
    /// summed phase times fit inside the call's wall time. (Charging the
    /// combine from before the superstep counted the superstep twice.)
    #[test]
    fn fold_charges_each_phase_once() {
        let g = Arc::new(flash_graph::generators::path(1 << 16, true));
        let cfg = ClusterConfig::with_workers(2).sequential();
        let mut ctx = FlashContext::build(g, cfg, |v| Num { x: u64::from(v) }).unwrap();
        let all = ctx.all();
        // Enough work per vertex that the superstep dwarfs the bookkeeping.
        let slow = |acc: u64, _, n: &Num| (0..64).fold(acc, |a, i| a ^ (n.x << (i % 7)));
        let t = Instant::now();
        std::hint::black_box(ctx.fold(&all, 0, slow, |a, b| a ^ b));
        let wall = t.elapsed();
        let stats = ctx.take_stats();
        let kinds: Vec<StepKind> = stats.steps().iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [StepKind::Global, StepKind::Global]);
        let phases: std::time::Duration = stats
            .steps()
            .iter()
            .map(|s| s.compute + s.serialize + s.communicate + s.delivery)
            .sum();
        assert!(phases <= wall, "phases {phases:?} > wall {wall:?}");
    }
}
