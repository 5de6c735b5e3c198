//! Per-worker vertex state: the current/next split of §IV-A.

use crate::transport::RoundBatches;
use crate::VertexData;
use flash_graph::VertexId;
use std::sync::atomic::AtomicPtr;
use std::sync::{Mutex, PoisonError, RwLock};
use std::time::Duration;

/// The mirror-side combiner of `put(id, v, R)` (§IV-A, Algorithm 6): one
/// reduce-accumulated temporary per vertex a worker has staged this
/// superstep, held in a dense slot array indexed by vertex id plus the
/// list of ids whose slot is occupied (DESIGN.md §11).
///
/// Invariant: `slots[v].is_some()` exactly for the ids in `touched`, each
/// listed once. Every operation keeps it at every step, so clearing and
/// draining walk `touched` — O(staged), never O(n) — and a leaked
/// [`ReduceAcc::drain`] iterator leaves a consistent (merely non-empty)
/// accumulator behind.
///
/// The slot array is allocated on the first `upsert`: a worker that never
/// stages a `put` (PageRank, k-core and every other dense-only program)
/// pays nothing; one that does holds `n * size_of::<Option<V>>()` bytes
/// for the life of the run.
#[derive(Debug)]
pub(crate) struct ReduceAcc<V> {
    n: usize,
    slots: Vec<Option<V>>,
    touched: Vec<VertexId>,
}

impl<V> ReduceAcc<V> {
    /// An empty accumulator for vertices `0..n`; allocates nothing.
    pub(crate) fn new(n: usize) -> Self {
        ReduceAcc {
            n,
            slots: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Stages `temp` for `v`: stored as-is on first touch, else combined
    /// into the staged temporary as `reduce(&temp, staged)` — so one
    /// vertex's temporaries are reduced in call order.
    #[inline]
    pub(crate) fn upsert(&mut self, v: VertexId, temp: V, reduce: &(impl Fn(&V, &mut V) + ?Sized)) {
        if self.slots.is_empty() {
            self.slots.resize_with(self.n, || None);
        }
        match &mut self.slots[v as usize] {
            Some(staged) => reduce(&temp, staged),
            slot => {
                *slot = Some(temp);
                self.touched.push(v);
            }
        }
    }

    /// Number of vertices with a staged temporary.
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// `true` if nothing is staged.
    pub(crate) fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The staged `(vertex, temporary)` pairs, in first-touch order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VertexId, &V)> + '_ {
        self.touched.iter().map(|&v| {
            let staged = self.slots[v as usize].as_ref();
            (v, staged.expect("a touched vertex has a staged value"))
        })
    }

    /// Removes and yields every staged pair, most recently touched first
    /// (each vertex appears once, so the order carries no reduce
    /// semantics). Dropping the iterator early discards the rest.
    pub(crate) fn drain(&mut self) -> Drain<'_, V> {
        Drain { acc: self }
    }

    /// Discards everything staged, keeping both allocations.
    pub(crate) fn clear(&mut self) {
        for v in self.touched.drain(..) {
            self.slots[v as usize] = None;
        }
    }
}

/// Draining iterator of a [`ReduceAcc`]: each `next` unlists one vertex
/// and empties its slot together, so the accumulator's invariant holds
/// however far the iteration got.
pub(crate) struct Drain<'a, V> {
    acc: &'a mut ReduceAcc<V>,
}

impl<V> Iterator for Drain<'_, V> {
    type Item = (VertexId, V);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, V)> {
        let v = self.acc.touched.pop()?;
        let staged = self.acc.slots[v as usize].take();
        Some((v, staged.expect("a touched vertex has a staged value")))
    }
}

impl<V> Drop for Drain<'_, V> {
    fn drop(&mut self) {
        self.acc.clear();
    }
}

/// The state a single worker holds.
///
/// `current` is a full replica of the vertex-state array: slots the worker
/// owns are *masters* (authoritative), the rest are *mirrors* kept
/// consistent by explicit synchronization at barriers. Per the paper,
/// "the current states of a vertex are ensured to be consistent on all
/// workers who access it in the current superstep", while updates go to
/// next-state structures invisible until the barrier:
///
/// * `pending` — reduce-accumulated temporary values from `put` calls
///   (the mirror-side combining of `EDGEMAPSPARSE`), a `ReduceAcc`;
/// * `direct` — whole-value master writes from `EDGEMAPDENSE`, which
///   never needs a reduce function.
///
/// `VERTEXMAP` needs no next-state copy at all: its `F` and `M` see only
/// their own vertex, so it updates master slots of `current` in place and
/// lists them in `written`. Mirrors keep the old value until the barrier
/// syncs them, and a failed attempt's in-place writes are overwritten by
/// the checkpoint restore every retry starts from.
///
/// The states sit side by side in one `Vec`, and during compute each lane
/// writes its own worker's headers once per staged update (`op_puts`,
/// `pending`'s list, `direct`'s length). The alignment keeps two workers'
/// headers off a shared cache line pair; without it, whether they collide
/// depends on the struct's size, and a collision costs the push kernel
/// about a fifth of its time to false sharing.
#[derive(Debug)]
#[repr(align(128))]
pub struct WorkerState<V: VertexData> {
    pub(crate) current: Vec<V>,
    pub(crate) pending: ReduceAcc<V>,
    pub(crate) direct: Vec<(VertexId, V)>,
    /// Masters updated in place this superstep, in write order.
    pub(crate) written: Vec<VertexId>,
    /// `put` operations staged this superstep (counts every call, including
    /// ones merged into an existing temporary — the true op count, which
    /// the number of staged temporaries under-reports). Taken and reset at
    /// each barrier for `worker_phase` trace events.
    pub(crate) op_puts: u64,
    /// `write_master` operations staged this superstep; reset per barrier.
    pub(crate) op_writes: u64,
}

impl<V: VertexData> WorkerState<V> {
    /// Creates a replica initialized by `init` for vertices `0..n`.
    pub(crate) fn new(n: usize, init: &impl Fn(VertexId) -> V) -> Self {
        WorkerState {
            current: (0..n as VertexId).map(init).collect(),
            pending: ReduceAcc::new(n),
            direct: Vec::new(),
            written: Vec::new(),
            op_puts: 0,
            op_writes: 0,
        }
    }

    /// Current (consistent) value of `v`.
    #[inline]
    pub fn current(&self, v: VertexId) -> &V {
        &self.current[v as usize]
    }

    /// `true` if no next-state writes are staged or recorded.
    pub(crate) fn is_clean(&self) -> bool {
        self.pending.is_empty() && self.direct.is_empty() && self.written.is_empty()
    }

    /// Clones the full replica for a checkpoint. Only `current` needs
    /// capturing: checkpoints are taken at superstep boundaries, where the
    /// next-state structures are empty by construction.
    pub(crate) fn snapshot(&self) -> Vec<V> {
        debug_assert!(
            self.is_clean(),
            "checkpoints must be taken at a barrier, with nothing staged"
        );
        self.current.clone()
    }

    /// Overwrites the replica from a snapshot and discards everything a
    /// failed attempt staged (next-state writes and op counters).
    pub(crate) fn restore(&mut self, snapshot: &[V]) {
        debug_assert_eq!(self.current.len(), snapshot.len());
        self.current.clear();
        self.current.extend_from_slice(snapshot);
        self.discard_staged();
    }

    /// Discards staged next-state writes, the in-place write list and op
    /// counters — everything a faulted superstep attempt may have produced
    /// before the barrier except the in-place values themselves, which only
    /// a restore undoes.
    pub(crate) fn discard_staged(&mut self) {
        self.pending.clear();
        self.direct.clear();
        self.written.clear();
        self.op_puts = 0;
        self.op_writes = 0;
    }
}

/// Per-owner routing buckets of `(vertex, temporary)` pairs.
pub(crate) type Buckets<V> = Vec<Vec<(VertexId, V)>>;

/// Pooled per-superstep scratch buffers, owned by the cluster and reused
/// across supersteps: every buffer is cleared — never dropped — at reuse,
/// so steady-state supersteps allocate nothing on the hot path
/// (DESIGN.md §11).
///
/// Invariant: every buffer is returned to the pool *empty* (the take
/// methods clear defensively anyway), so a pooled superstep observes
/// exactly the state a fresh allocation would provide.
#[derive(Debug)]
pub(crate) struct StepBuffers<V: VertexData> {
    /// Per-sender bucket sets of the upd round: lane `w` routes its
    /// `pending` into `bucket_sets[w][owner]`.
    pub(crate) bucket_sets: Vec<Buckets<V>>,
    /// The post-compute round's hand-over cells, `m × m`: cell
    /// `w * m + o` carries sender `w`'s bucket for owner `o` from the
    /// routing phase to `o`'s fold. Each cell is touched by one lane per
    /// phase, so its lock is never contended.
    pub(crate) mail: Vec<Mutex<Vec<(VertexId, V)>>>,
    /// Per-owner updated-master lists handed out through `StepOutput` and
    /// returned by `Cluster::recycle_updated`.
    updated: Vec<Vec<VertexId>>,
    /// The updated lists during the post-compute round: written by their
    /// owner's lane, read by every lane in the sync phase.
    pub(crate) shared_updated: Vec<RwLock<Vec<VertexId>>>,
    /// Each replica's slot array, published by its lane for the sync
    /// phase of the post-compute round. Only read inside that round.
    pub(crate) replicas: Vec<AtomicPtr<V>>,
    /// Per-lane cross-host batch maps of the upd and sync rounds, merged in
    /// lane order into `upd_batches` and `sync_batches`.
    pub(crate) lane_batches: Vec<[RoundBatches; 2]>,
    /// Per-host compute time of the superstep being closed.
    pub(crate) host_time: Vec<Duration>,
    /// Cross-host batch map of the upd round.
    pub(crate) upd_batches: RoundBatches,
    /// Cross-host batch map of the sync round.
    pub(crate) sync_batches: RoundBatches,
}

impl<V: VertexData> StepBuffers<V> {
    pub(crate) fn new() -> Self {
        StepBuffers {
            bucket_sets: Vec::new(),
            mail: Vec::new(),
            updated: Vec::new(),
            shared_updated: Vec::new(),
            replicas: Vec::new(),
            lane_batches: Vec::new(),
            host_time: Vec::new(),
            upd_batches: RoundBatches::new(),
            sync_batches: RoundBatches::new(),
        }
    }

    /// Sizes the post-compute round's per-lane slots to `m` workers.
    pub(crate) fn size_round(&mut self, m: usize) {
        self.bucket_sets.resize_with(m, Vec::new);
        for set in &mut self.bucket_sets {
            set.resize_with(m, Vec::new);
        }
        self.mail.resize_with(m * m, Default::default);
        self.shared_updated.resize_with(m, Default::default);
        self.replicas.resize_with(m, Default::default);
        self.lane_batches.resize_with(m, Default::default);
    }

    /// Takes the pooled updated-master lists, cleared and sized to `m`.
    pub(crate) fn take_updated(&mut self, m: usize) -> Vec<Vec<VertexId>> {
        Self::take_lists(&mut self.updated, m)
    }

    /// Accepts a consumed `StepOutput::updated` buffer back into the pool.
    pub(crate) fn recycle_updated(&mut self, updated: Vec<Vec<VertexId>>) {
        self.updated = updated;
    }

    /// Takes the pooled upd-round batch map, cleared.
    pub(crate) fn take_upd_batches(&mut self) -> RoundBatches {
        let mut b = std::mem::take(&mut self.upd_batches);
        b.clear();
        b
    }

    /// Returns the upd-round batch map after delivery.
    pub(crate) fn put_upd_batches(&mut self, batches: RoundBatches) {
        self.upd_batches = batches;
    }

    /// Takes the pooled sync-round batch map, cleared.
    pub(crate) fn take_sync_batches(&mut self) -> RoundBatches {
        let mut b = std::mem::take(&mut self.sync_batches);
        b.clear();
        b
    }

    /// Returns the sync-round batch map after delivery.
    pub(crate) fn put_sync_batches(&mut self, batches: RoundBatches) {
        self.sync_batches = batches;
    }

    fn take_lists<T>(pool: &mut Vec<Vec<T>>, m: usize) -> Vec<Vec<T>> {
        let mut lists = std::mem::take(pool);
        for l in lists.iter_mut() {
            l.clear();
        }
        if lists.len() != m {
            lists.resize_with(m, Vec::new);
        }
        lists
    }

    /// Clears every pooled buffer in place — capacity survives, contents
    /// do not — returning the pool to the state a fresh construction
    /// provides. Called when a buffer set is checked back into a shared
    /// [`BufferPool`](crate::session::BufferPool) so the next run starts
    /// from a pristine pool even if the previous run left residue (e.g.
    /// an error path that skipped a `recycle_updated`).
    pub(crate) fn reset(&mut self) {
        for set in self.bucket_sets.iter_mut() {
            for l in set.iter_mut() {
                l.clear();
            }
        }
        for cell in self.mail.iter_mut() {
            cell.get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        for l in self.updated.iter_mut() {
            l.clear();
        }
        for cell in self.shared_updated.iter_mut() {
            cell.get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        for batches in self.lane_batches.iter_mut().flatten() {
            batches.clear();
        }
        self.upd_batches.clear();
        self.sync_batches.clear();
    }

    /// `true` when every pooled buffer is empty — the invariant each run
    /// must observe on its first superstep, asserted at pool checkin.
    pub(crate) fn is_pristine(&self) -> bool {
        let empty = |cell: &Mutex<Vec<(VertexId, V)>>| {
            cell.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
        };
        self.bucket_sets
            .iter()
            .all(|set| set.iter().all(Vec::is_empty))
            && self.mail.iter().all(empty)
            && self.updated.iter().all(Vec::is_empty)
            && self.shared_updated.iter().all(|cell| {
                cell.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_empty()
            })
            && self
                .lane_batches
                .iter()
                .flatten()
                .all(RoundBatches::is_empty)
            && self.upd_batches.is_empty()
            && self.sync_batches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::rng::Prng;
    use std::collections::BTreeMap;

    #[derive(Clone, Default, Debug, PartialEq)]
    struct D {
        v: u32,
    }
    crate::full_sync!(D);

    #[test]
    fn initializes_by_closure() {
        let st = WorkerState::new(4, &|v| D { v: v * 10 });
        assert_eq!(st.current(2), &D { v: 20 });
        assert!(st.is_clean());
    }

    #[test]
    fn worker_states_sit_on_their_own_cache_lines() {
        assert_eq!(std::mem::align_of::<WorkerState<D>>(), 128);
    }

    /// A heap-owning value: `reduce` appends, so a temporary that is
    /// dropped, duplicated or merged out of call order shows in the result.
    type Log = Vec<u32>;

    fn append(t: &Log, acc: &mut Log) {
        acc.extend_from_slice(t);
    }

    /// Staged contents as a sorted map, via `iter` (which must also list
    /// every vertex exactly once).
    fn staged(acc: &ReduceAcc<Log>) -> BTreeMap<VertexId, Log> {
        let got: BTreeMap<VertexId, Log> = acc.iter().map(|(v, l)| (v, l.clone())).collect();
        assert_eq!(got.len(), acc.len(), "iter lists a vertex twice");
        got
    }

    #[test]
    fn reduce_acc_matches_a_btreemap_model() {
        const N: usize = 97;
        let mut rng = Prng::seed_from_u64(0x5eed_acc0);
        for round in 0..50 {
            let mut acc: ReduceAcc<Log> = ReduceAcc::new(N);
            let mut model: BTreeMap<VertexId, Log> = BTreeMap::new();
            assert!(acc.is_empty() && acc.slots.is_empty(), "allocates lazily");
            for op in 0..rng.gen_range(1..400u32) {
                match rng.gen_range(0..100u32) {
                    // Far more upserts than ids, so most of them merge.
                    0..=89 => {
                        let v = rng.gen_range(0..N as u32);
                        acc.upsert(v, vec![op], &append);
                        assert_eq!(acc.slots.len(), N, "first put allocates all slots");
                        model.entry(v).or_default().push(op);
                    }
                    90..=92 => {
                        acc.clear();
                        model.clear();
                    }
                    // Full drain: every pair exactly once, in any order.
                    93..=95 => {
                        let drained: BTreeMap<VertexId, Log> = acc.drain().collect();
                        assert_eq!(drained, std::mem::take(&mut model), "round {round}");
                    }
                    // A drain dropped half-way discards the rest.
                    _ => {
                        let take = acc.len() / 2;
                        let mut drain = acc.drain();
                        for _ in 0..take {
                            let (v, log) = drain.next().expect("len counted it");
                            assert_eq!(model.remove(&v), Some(log), "round {round}");
                        }
                        drop(drain);
                        model.clear();
                    }
                }
                assert_eq!(staged(&acc), model, "round {round} op {op}");
                assert_eq!(acc.is_empty(), model.is_empty());
                let occupied = acc.slots.iter().filter(|s| s.is_some()).count();
                assert_eq!(occupied, model.len(), "a slot outlived its listing");
            }
        }
    }

    #[test]
    fn step_buffers_hand_out_cleared_reused_allocations() {
        let mut b: StepBuffers<D> = StepBuffers::new();
        b.size_round(3);
        assert_eq!((b.bucket_sets.len(), b.mail.len()), (3, 9));
        assert!(b.bucket_sets.iter().all(|set| set.len() == 3));
        assert_eq!((b.shared_updated.len(), b.replicas.len()), (3, 3));
        b.bucket_sets[1][2].push((7, D { v: 1 }));
        let cap = b.bucket_sets[1][2].capacity();
        b.bucket_sets[1][2].clear();
        b.size_round(3);
        assert!(b.bucket_sets[1][2].capacity() >= cap, "allocation reused");

        let mut upd = b.take_updated(2);
        upd[0].push(5);
        b.recycle_updated(upd);
        assert!(b.take_updated(2).iter().all(Vec::is_empty));

        let mut batches = b.take_upd_batches();
        batches.insert((0, 1), (2, 64));
        b.put_upd_batches(batches);
        assert!(b.take_upd_batches().is_empty(), "cleared on take");
        assert!(b.take_sync_batches().is_empty());
    }

    #[test]
    fn reset_restores_pristine_state_without_dropping_capacity() {
        let mut b: StepBuffers<D> = StepBuffers::new();
        assert!(b.is_pristine(), "fresh pool is pristine");
        b.size_round(2);
        assert!(b.is_pristine(), "sized slots start empty");
        b.mail[1].lock().unwrap().push((1, D { v: 9 }));
        b.shared_updated[0].write().unwrap().push(3);
        b.lane_batches[1][1].insert((1, 0), (1, 8));
        let mut upd = b.take_updated(2);
        upd[1].push(4);
        b.recycle_updated(upd);
        b.bucket_sets[0][1].push((0, D { v: 1 }));
        let mut batches = b.take_upd_batches();
        batches.insert((0, 1), (2, 64));
        b.put_upd_batches(batches);
        assert!(!b.is_pristine(), "residue is visible");
        b.reset();
        assert!(b.is_pristine(), "reset clears every buffer");
        // Capacity survived the reset: the next round reuses allocations.
        assert!(b.mail[1].lock().unwrap().capacity() > 0);
        assert!(b.bucket_sets[0][1].capacity() > 0);
    }

    #[test]
    fn staged_writes_mark_dirty() {
        let mut st = WorkerState::new(2, &|_| D::default());
        st.direct.push((0, D { v: 1 }));
        assert!(!st.is_clean());
        st.direct.clear();
        st.pending.upsert(1, D { v: 2 }, &|_, _| {});
        assert!(!st.is_clean());
        st.written.push(0);
        st.discard_staged();
        assert!(st.is_clean());
    }
}
