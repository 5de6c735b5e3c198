//! Superstep-boundary checkpointing and rollback/replay recovery.
//!
//! A BSP barrier is exactly where a consistent snapshot is cheap: no
//! messages are in flight and no writes are staged (Pregel made this the
//! canonical fault-tolerance mechanism). The cluster therefore snapshots
//! every worker's replica at a configurable superstep interval
//! ([`ClusterConfig::checkpoint_every`](crate::ClusterConfig)); between
//! checkpoints it appends one `StepDelta` per superstep — the redo log
//! of published writes.
//!
//! On a detected failure (crash or corrupted sync payload, see
//! [`fault`](crate::fault)) the cluster rolls every worker back to the
//! last [`Checkpoint`], re-applies the logged deltas, and retries the
//! failed superstep. Replaying deltas instead of re-running the original
//! compute closures is the lineage trick GraphX uses: the driver's
//! closures are gone by the time a later superstep fails, but because the
//! simulation is deterministic their *published effect* was recorded and
//! is sufficient to reconstruct the exact pre-step state.
//!
//! The same machinery backs **elastic membership** (DESIGN.md §9): when a
//! worker is declared *permanently* dead, the survivors cannot read its
//! masters — their replicas of those slots are stale mirrors — but the
//! checkpoint-plus-delta replay reconstructs every partition's
//! authoritative state, after which the dead host's partitions are
//! re-homed onto the survivors. Without a checkpoint
//! ([`ClusterConfig::checkpoint_off`](crate::ClusterConfig::checkpoint_off))
//! a permanent loss is unrecoverable and degrades to a clean
//! [`RuntimeError::WorkerLost`](crate::RuntimeError).

use crate::state::WorkerState;
use crate::VertexData;
use flash_graph::{PartitionMap, VertexId};

/// A consistent snapshot of every worker's replica, taken at a superstep
/// boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint<V: VertexData> {
    /// The superstep the snapshot precedes (the next step to run when it
    /// was taken).
    pub step: u64,
    /// The modelled cost of shipping the snapshot off-worker: each master
    /// slot with its 4 B vertex id. The snapshot itself holds every
    /// replica.
    pub bytes: u64,
    states: Vec<Vec<V>>,
}

impl<V: VertexData> Checkpoint<V> {
    /// Snapshots all workers. `step` is the id of the next superstep.
    pub(crate) fn capture(step: u64, states: &[WorkerState<V>], partition: &PartitionMap) -> Self {
        Checkpoint {
            step,
            bytes: master_bytes(states, partition),
            states: states.iter().map(WorkerState::snapshot).collect(),
        }
    }

    /// Overwrites every worker's replica from the snapshot, discarding any
    /// staged (not yet published) writes.
    pub(crate) fn restore(&self, states: &mut [WorkerState<V>]) {
        debug_assert_eq!(states.len(), self.states.len());
        for (st, snap) in states.iter_mut().zip(&self.states) {
            st.restore(snap);
        }
    }
}

/// The modelled cost in bytes of shipping a checkpoint of `states`: each
/// master slot with its 4 B vertex id. Only the masters are priced, not
/// what [`Checkpoint::capture`] snapshots — every replica.
pub(crate) fn master_bytes<V: VertexData>(
    states: &[WorkerState<V>],
    partition: &PartitionMap,
) -> u64 {
    (0..partition.num_vertices() as VertexId)
        .map(|v| (4 + states[partition.owner(v)].current(v).bytes()) as u64)
        .sum()
}

/// The published effect of one superstep: the post-step value of every
/// updated vertex, per replica. Re-applying deltas in order reconstructs
/// the exact state any later superstep started from.
#[derive(Clone, Debug)]
pub(crate) struct StepDelta<V: VertexData> {
    /// Serialized size of the delta (each write framed as id + value).
    pub(crate) bytes: u64,
    /// Per replica: the (vertex, value) writes of this step.
    writes: Vec<Vec<(VertexId, V)>>,
}

impl<V: VertexData> StepDelta<V> {
    /// Captures the post-step values of `updated` vertices from every
    /// replica. `updated` is per *owner* worker, exactly the structure the
    /// publish phase produces; the union is applied to each replica
    /// because mirror syncs touched them all.
    pub(crate) fn capture(states: &[WorkerState<V>], updated: &[Vec<VertexId>]) -> Self {
        let all: Vec<VertexId> = updated.iter().flatten().copied().collect();
        let mut bytes = 0u64;
        let writes: Vec<Vec<(VertexId, V)>> = states
            .iter()
            .map(|st| {
                all.iter()
                    .map(|&v| {
                        let val = st.current[v as usize].clone();
                        bytes += (4 + val.bytes()) as u64;
                        (v, val)
                    })
                    .collect()
            })
            .collect();
        StepDelta { bytes, writes }
    }

    /// A delta for one driver-side global write (`set_value_global`),
    /// which mutates every replica outside any superstep.
    pub(crate) fn global(v: VertexId, val: &V, replicas: usize) -> Self {
        let bytes = (4 + val.bytes()) as u64 * replicas as u64;
        StepDelta {
            bytes,
            writes: vec![vec![(v, val.clone())]; replicas],
        }
    }

    /// Re-applies the logged writes to every replica.
    pub(crate) fn apply(&self, states: &mut [WorkerState<V>]) {
        debug_assert_eq!(states.len(), self.writes.len());
        for (st, ws) in states.iter_mut().zip(&self.writes) {
            for (v, val) in ws {
                st.current[*v as usize] = val.clone();
            }
        }
    }
}

/// The cluster's recovery state: the last checkpoint plus the redo log of
/// every superstep published since. Only a fault plan's layer keeps one —
/// fault-free runs pay nothing.
#[derive(Debug, Default)]
pub(crate) struct RecoveryLog<V: VertexData> {
    checkpoint: Option<Checkpoint<V>>,
    deltas: Vec<StepDelta<V>>,
}

impl<V: VertexData> RecoveryLog<V> {
    pub(crate) fn new() -> Self {
        RecoveryLog {
            checkpoint: None,
            deltas: Vec::new(),
        }
    }

    /// The superstep id of the last installed checkpoint, if any.
    pub(crate) fn checkpoint_step(&self) -> Option<u64> {
        self.checkpoint.as_ref().map(|cp| cp.step)
    }

    /// Installs a fresh checkpoint, truncating the now-redundant redo log.
    pub(crate) fn install(&mut self, cp: Checkpoint<V>) {
        self.checkpoint = Some(cp);
        self.deltas.clear();
    }

    /// Appends one superstep's redo record.
    pub(crate) fn record(&mut self, delta: StepDelta<V>) {
        if self.checkpoint.is_some() {
            self.deltas.push(delta);
        }
    }

    /// The state half of every recovery: discards what a failed attempt
    /// staged, rolls all workers back to the last checkpoint and replays
    /// the redo log. Returns `(from_step, replayed_supersteps,
    /// bytes_moved)`, or `None` when no checkpoint exists yet (the caller
    /// then retries on unmodified state — safe because staged writes were
    /// discarded).
    pub(crate) fn rollback(&self, states: &mut [WorkerState<V>]) -> Option<(u64, u64, u64)> {
        for st in states.iter_mut() {
            st.discard_staged();
        }
        let cp = self.checkpoint.as_ref()?;
        cp.restore(states);
        let mut bytes = cp.bytes;
        for d in &self.deltas {
            d.apply(states);
            bytes += d.bytes;
        }
        Some((cp.step, self.deltas.len() as u64, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::{generators, HashPartitioner};

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Val {
        x: u64,
    }
    crate::full_sync!(Val);

    fn fixtures(workers: usize, n: usize) -> (Vec<WorkerState<Val>>, PartitionMap) {
        let g = generators::path(n, true);
        let p = PartitionMap::build(&g, workers, &HashPartitioner).unwrap();
        let states = (0..workers)
            .map(|_| WorkerState::new(n, &|v| Val { x: v as u64 }))
            .collect();
        (states, p)
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let (mut states, p) = fixtures(2, 6);
        let cp = Checkpoint::capture(3, &states, &p);
        assert_eq!(cp.step, 3);
        assert!(cp.bytes > 0);
        // Mutate everything, stage garbage, then restore.
        for st in &mut states {
            for slot in &mut st.current {
                slot.x = 999;
            }
            st.pending.upsert(0, Val { x: 1 }, &|_, _| {});
            st.direct.push((1, Val { x: 2 }));
            st.op_puts = 7;
        }
        cp.restore(&mut states);
        for st in &states {
            for (v, slot) in st.current.iter().enumerate() {
                assert_eq!(slot.x, v as u64);
            }
            assert!(st.is_clean(), "restore discards staged writes");
            assert_eq!(st.op_puts, 0);
        }
    }

    #[test]
    fn delta_replay_reconstructs_published_state() {
        let (mut states, p) = fixtures(2, 4);
        let mut log = RecoveryLog::new();
        log.install(Checkpoint::capture(0, &states, &p));

        // "Publish" a step: vertex 2 becomes 50 on every replica.
        for st in &mut states {
            st.current[2] = Val { x: 50 };
        }
        log.record(StepDelta::capture(&states, &[vec![], vec![2]]));

        // A later attempt diverges; roll back and expect the post-delta state.
        for st in &mut states {
            st.current[2] = Val { x: 77 };
            st.current[0] = Val { x: 77 };
        }
        let (from, replayed, bytes) = log.rollback(&mut states).unwrap();
        assert_eq!((from, replayed), (0, 1));
        assert!(bytes > 0);
        for st in &states {
            assert_eq!(st.current[2].x, 50, "delta re-applied");
            assert_eq!(st.current[0].x, 0, "non-updated slot back to checkpoint");
        }
    }

    #[test]
    fn install_truncates_redo_log() {
        let (states, p) = fixtures(2, 4);
        let mut log = RecoveryLog::new();
        log.install(Checkpoint::capture(0, &states, &p));
        log.record(StepDelta::capture(&states, &[vec![1], vec![]]));
        log.install(Checkpoint::capture(2, &states, &p));
        assert_eq!(log.checkpoint_step(), Some(2));
        let mut fresh = fixtures(2, 4).0;
        let (_, replayed, _) = log.rollback(&mut fresh).unwrap();
        assert_eq!(replayed, 0, "new checkpoint cleared the log");
    }

    #[test]
    fn rollback_without_checkpoint_is_none() {
        let (mut states, _) = fixtures(2, 4);
        let log: RecoveryLog<Val> = RecoveryLog::new();
        assert!(log.rollback(&mut states).is_none());
    }

    #[test]
    fn global_delta_touches_all_replicas() {
        let (mut states, _) = fixtures(3, 4);
        let d = StepDelta::global(1, &Val { x: 42 }, 3);
        d.apply(&mut states);
        for st in &states {
            assert_eq!(st.current[1].x, 42);
        }
    }
}
