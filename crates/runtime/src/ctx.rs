//! The view a kernel has of one worker during a superstep.

use crate::state::{ReduceAcc, WorkerState};
use crate::VertexData;
use flash_graph::{Graph, PartitionMap, VertexId};

/// A worker's execution context, handed to the compute closure of every
/// superstep.
///
/// This is the paper's FLASHWARE interface (§IV-A) made safe for Rust:
///
/// * [`WorkerCtx::get`] — read the consistent *current* state of any
///   vertex (master or mirror): "a worker can access arbitrary vertices
///   safely".
/// * [`WorkerCtx::put`] — stage a reduce-accumulated update for any vertex
///   (the `put(id, v, R)` of the paper, used by `EDGEMAPSPARSE`).
/// * [`WorkerCtx::write_master`] — stage a whole-value update for a vertex
///   this worker owns (the reduce-free `put` used by `EDGEMAPDENSE`).
/// * [`WorkerCtx::update_masters`] — update vertices this worker owns in
///   place (`VERTEXMAP`, whose functions see only their own vertex).
///
/// The `barrier()` of the paper is implicit: it runs when the superstep's
/// compute closure returns, publishing all staged writes and synchronizing
/// mirrors.
///
/// A kernel that stages while it reads — the push kernel once per
/// qualifying edge, the pull kernel once per updated destination — takes
/// the two halves apart with [`WorkerCtx::split`] or
/// [`WorkerCtx::split_writes`]: the current-state slice to read from and a
/// [`PutSink`] or [`WriteSink`] to stage into, borrowed side by side.
pub struct WorkerCtx<'a, V: VertexData> {
    worker: usize,
    graph: &'a Graph,
    partition: &'a PartitionMap,
    state: &'a mut WorkerState<V>,
}

impl<'a, V: VertexData> WorkerCtx<'a, V> {
    pub(crate) fn new(
        worker: usize,
        graph: &'a Graph,
        partition: &'a PartitionMap,
        state: &'a mut WorkerState<V>,
    ) -> Self {
        WorkerCtx {
            worker,
            graph,
            partition,
            state,
        }
    }

    /// This worker's id (`0..m`).
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The shared, immutable graph.
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The partition map (ownership and mirror placement).
    #[inline]
    pub fn partition(&self) -> &'a PartitionMap {
        self.partition
    }

    /// The physical host this logical worker currently executes on. Equal
    /// to [`worker`](Self::worker) until an elastic rebalance re-homes the
    /// partition after a permanent worker loss (see
    /// [`PartitionMap::host_of_worker`]).
    #[inline]
    pub fn host(&self) -> usize {
        self.partition.host_of_worker(self.worker)
    }

    /// The master vertices this worker owns, ascending.
    #[inline]
    pub fn masters(&self) -> &'a [VertexId] {
        self.partition.masters(self.worker)
    }

    /// Reads the current (consistent) state of any vertex — the paper's
    /// `get(id)`. Reads see the state as of the *previous* barrier; staged
    /// writes of the running superstep are invisible (BSP semantics).
    #[inline]
    pub fn get(&self, v: VertexId) -> &V {
        self.state.current(v)
    }

    /// Snapshot of the whole current-state replica.
    #[inline]
    pub fn current_slice(&self) -> &[V] {
        &self.state.current
    }

    /// Splits the context into its read half — the current-state replica,
    /// as [`current_slice`](Self::current_slice) returns it — and its put
    /// half, so a kernel can stage every update the moment it is computed
    /// instead of buffering `(vertex, value)` pairs until its reads end.
    #[inline]
    pub fn split(&mut self) -> (&[V], PutSink<'_, V>) {
        let WorkerState {
            current,
            pending,
            op_puts,
            ..
        } = &mut *self.state;
        (current, PutSink { pending, op_puts })
    }

    /// Stages an update of `v` with temporary value `temp`, combining with
    /// any previously staged temporary via `reduce` — the paper's
    /// `put(id, v, R)`. `reduce(t, acc)` must be associative and
    /// commutative over temporaries (§III-A).
    ///
    /// Works for *any* vertex: updates to remote masters become
    /// mirror→master messages at the barrier.
    #[inline]
    pub fn put(&mut self, v: VertexId, temp: V, reduce: &(impl Fn(&V, &mut V) + ?Sized)) {
        self.split().1.put(v, temp, reduce);
    }

    /// Counts `arcs` more arcs in the rows this worker's `EDGEMAP` kernel
    /// opened this superstep — one call per row or per kernel, never per
    /// arc; they land in [`StepStats::arcs`](crate::StepStats::arcs).
    #[inline]
    pub fn count_arcs(&mut self, arcs: u64) {
        self.state.op_arcs += arcs;
    }

    /// [`split`](Self::split) for whole-value master writes: the
    /// current-state slice and a [`WriteSink`] staging into the worker's
    /// reused `direct` buffer.
    #[inline]
    pub fn split_writes(&mut self) -> (&[V], WriteSink<'_, V>) {
        let WorkerState {
            current,
            direct,
            op_writes,
            ..
        } = &mut *self.state;
        let sink = WriteSink {
            direct,
            op_writes,
            partition: self.partition,
            worker: self.worker,
        };
        (current, sink)
    }

    /// Stages a whole-value write of a vertex this worker masters
    /// (overwrite, no reduce), published at the barrier. Used by
    /// `EDGEMAPDENSE`, whose updates are applied "immediately and
    /// sequentially" per master while other masters still read the old
    /// value.
    ///
    /// # Panics
    /// Panics (debug builds) if `v` is not mastered by this worker.
    #[inline]
    pub fn write_master(&mut self, v: VertexId, val: V) {
        self.split_writes().1.write(v, val);
    }

    /// `VERTEXMAP` in place: for every id in `ids` (masters of this
    /// worker) whose current value passes `f`, `m` mutates that value
    /// directly, with no staged copy, and the id is recorded as written
    /// for the barrier's mirror sync. Each update counts as one staged
    /// write.
    ///
    /// Reads later in the same superstep on this worker see the new
    /// values, so this is for kernels whose functions see only their own
    /// vertex. Other workers keep the old value in their mirrors until the
    /// barrier, and a faulted attempt's in-place writes are undone by the
    /// checkpoint restore every retry starts from.
    ///
    /// # Panics
    /// Panics (debug builds) if an id is not mastered by this worker.
    pub fn update_masters(
        &mut self,
        ids: &[VertexId],
        f: impl Fn(VertexId, &V) -> bool,
        m: impl Fn(VertexId, &mut V),
    ) {
        let WorkerState {
            current,
            written,
            op_writes,
            ..
        } = &mut *self.state;
        let before = written.len();
        for &v in ids {
            debug_assert_master(self.partition, self.worker, v);
            let val = &mut current[v as usize];
            if f(v, val) {
                m(v, val);
                written.push(v);
            }
        }
        *op_writes += (written.len() - before) as u64;
    }
}

fn debug_assert_master(partition: &PartitionMap, worker: usize, v: VertexId) {
    debug_assert!(
        partition.is_master(worker, v),
        "write of {v} on worker {worker} which does not own it"
    );
}

/// The write half of a [`WorkerCtx`] (see [`WorkerCtx::split_writes`]):
/// stages whole-value master writes while the current-state slice stays
/// readable.
pub struct WriteSink<'a, V: VertexData> {
    direct: &'a mut Vec<(VertexId, V)>,
    op_writes: &'a mut u64,
    partition: &'a PartitionMap,
    worker: usize,
}

impl<V: VertexData> WriteSink<'_, V> {
    /// [`WorkerCtx::write_master`] on the split-off half.
    #[inline]
    pub fn write(&mut self, v: VertexId, val: V) {
        debug_assert_master(self.partition, self.worker, v);
        *self.op_writes += 1;
        self.direct.push((v, val));
    }
}

/// The put half of a [`WorkerCtx`] (see [`WorkerCtx::split`]): stages
/// reduce-accumulated updates into the worker's dense accumulator while
/// the current-state slice stays readable.
pub struct PutSink<'a, V: VertexData> {
    pending: &'a mut ReduceAcc<V>,
    op_puts: &'a mut u64,
}

impl<V: VertexData> PutSink<'_, V> {
    /// [`WorkerCtx::put`] on the split-off half.
    #[inline]
    pub fn put(&mut self, v: VertexId, temp: V, reduce: &(impl Fn(&V, &mut V) + ?Sized)) {
        *self.op_puts += 1;
        self.pending.upsert(v, temp, reduce);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::{generators, HashPartitioner};

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Acc {
        sum: u64,
    }
    crate::full_sync!(Acc);

    fn setup() -> (Graph, PartitionMap) {
        let g = generators::path(6, true);
        let p = PartitionMap::build(&g, 2, &HashPartitioner).unwrap();
        (g, p)
    }

    #[test]
    fn put_reduces_temps() {
        let (g, p) = setup();
        let mut st = WorkerState::new(6, &|_| Acc::default());
        let mut ctx = WorkerCtx::new(0, &g, &p, &mut st);
        let r = |t: &Acc, acc: &mut Acc| acc.sum += t.sum;
        ctx.put(3, Acc { sum: 5 }, &r);
        ctx.put(3, Acc { sum: 7 }, &r);
        ctx.put(1, Acc { sum: 1 }, &r);
        let staged: Vec<(VertexId, &Acc)> = st.pending.iter().collect();
        assert_eq!(staged, [(3, &Acc { sum: 12 }), (1, &Acc { sum: 1 })]);
        assert_eq!(st.op_puts, 3, "every call counts, merged or not");
    }

    #[test]
    fn get_reads_current_only() {
        let (g, p) = setup();
        let mut st = WorkerState::new(6, &|v| Acc { sum: v as u64 });
        let mut ctx = WorkerCtx::new(0, &g, &p, &mut st);
        let r = |t: &Acc, acc: &mut Acc| acc.sum += t.sum;
        ctx.put(2, Acc { sum: 100 }, &r);
        // BSP: the staged put is invisible to get.
        assert_eq!(ctx.get(2).sum, 2);
    }

    #[test]
    fn masters_matches_partition() {
        let (g, p) = setup();
        let mut st = WorkerState::new(6, &|_| Acc::default());
        let ctx = WorkerCtx::new(1, &g, &p, &mut st);
        assert_eq!(ctx.masters(), p.masters(1));
        assert_eq!(ctx.worker(), 1);
    }

    #[test]
    fn update_masters_writes_in_place_and_lists_the_passing_ids() {
        let (g, p) = setup();
        let mut st = WorkerState::new(6, &|v| Acc { sum: v as u64 });
        let masters = p.masters(0);
        let mut ctx = WorkerCtx::new(0, &g, &p, &mut st);
        let odd = |_, a: &Acc| a.sum % 2 == 1;
        ctx.update_masters(masters, odd, |_, a| a.sum += 40);
        let passed: Vec<VertexId> = masters.iter().copied().filter(|v| v % 2 == 1).collect();
        for &v in masters {
            let want = v as u64 + if v % 2 == 1 { 40 } else { 0 };
            assert_eq!(ctx.get(v).sum, want, "no staged copy");
        }
        assert_eq!(st.written, passed);
        assert_eq!(st.op_writes, passed.len() as u64);
        assert!(st.direct.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not own")]
    fn write_master_rejects_foreign_vertex() {
        let (g, p) = setup();
        // Find a vertex not owned by worker 0.
        let foreign = (0..6u32).find(|&v| !p.is_master(0, v)).unwrap();
        let mut st = WorkerState::new(6, &|_| Acc::default());
        let mut ctx = WorkerCtx::new(0, &g, &p, &mut st);
        ctx.write_master(foreign, Acc::default());
    }
}
