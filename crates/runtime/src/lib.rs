#![warn(missing_docs)]

//! # flash-runtime — FLASHWARE, the distributed middleware of FLASH
//!
//! This crate is the reproduction of the paper's **FLASHWARE** (§IV): the
//! middle layer that "completes intra-node updating and inter-node
//! communication" underneath the FLASH programming interface.
//!
//! Because this reproduction has no MPI cluster, FLASHWARE here drives a
//! **simulated cluster**: each worker is an independent state partition
//! executed on its own OS thread during a superstep, and all inter-worker
//! traffic flows through explicit, byte-counted message buffers exchanged
//! at BSP barriers. Every architectural element of the paper exists:
//!
//! * **masters and mirrors** — every worker holds a full `current` replica
//!   of the vertex-state array; the slots it owns are masters, the rest
//!   mirrors kept consistent by explicit synchronization messages
//!   ([`Cluster`], [`state::WorkerState`]);
//! * **current/next state split** — `get` reads the consistent current
//!   state, `put` writes the invisible next state, `barrier()` publishes
//!   (§IV-A "Interface");
//! * **two-round sparse propagation** — mirror-side combining, then
//!   mirror→master messages, then master→mirror broadcast (§IV-A "Usages");
//! * **critical-property synchronization** (Table II) via
//!   [`VertexData::Critical`] and the [`plan`] analyzer;
//! * **necessary-mirrors-only communication** via
//!   [`config::SyncScope::Necessary`];
//! * a **simulated network model** standing in for the 10 GbE interconnect
//!   ([`netmodel::NetworkModel`]);
//! * **fault tolerance** — a deterministic fault injector ([`fault`])
//!   plus superstep-boundary checkpointing with rollback/replay recovery
//!   ([`checkpoint`]), the Pregel-style mechanism a real MPI deployment
//!   would need;
//! * **elastic membership** — a barrier-deadline failure detector that
//!   declares workers *permanently* dead (`die@` faults, stragglers past
//!   the `detector=` timeout), re-homes their partitions onto the
//!   survivors from the last checkpoint, and lets scripted `rejoin@`
//!   events grow the cluster back — all without changing results by a
//!   single bit (DESIGN.md §9);
//! * **reliable delivery over a lossy channel** — `drop@`/`dup@`/`reorder@`
//!   faults and seeded `loss=`/`dupRate=`/`corruptRate=` modes exercise an
//!   ack/retransmit protocol with wire sequence numbers, batch checksums
//!   and a receive-side dedup window, so delivery stays exactly-once from
//!   the algorithm's point of view ([`transport`], DESIGN.md §10);
//! * **a consensus-backed control plane** — whenever a fault plan is
//!   attached, control-plane decisions (epoch bumps, checkpoint commits,
//!   death declarations) replicate through a Raft-style majority-committed
//!   log under an elected leader; `leader@` faults crash the coordinator
//!   mid-run and `lie@` faults exercise byzantine checksum-quorum
//!   detection ([`consensus`], DESIGN.md §14);
//! * **a durable checkpoint store** — with a durable directory configured,
//!   every checkpoint commits its step and a digest of the state to a
//!   versioned on-disk format (`FCK1`) through a crash-consistent
//!   two-phase commit, and a cold restart re-executes bit-identically
//!   and is verified against the newest valid digest; seeded `ioerr@`
//!   (a failed commit) and `torn@`/`bitrot@` (a cut or flipped
//!   generation) disk faults exercise a scrub-and-fallback recovery path
//!   ([`durable`], DESIGN.md §15).

pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod consensus;
pub mod ctx;
pub mod durable;
pub mod error;
pub mod fault;
pub mod netmodel;
pub mod plan;
pub mod pool;
pub mod session;
pub mod state;
pub mod stats;
pub mod transport;

pub use cluster::{Cluster, StepOutput};
pub use config::{ClusterConfig, ModePolicy, StorageMode, SyncMode, SyncScope, DENSE_THRESHOLD};
pub use consensus::{checksum_quorum, ChecksumVerdict, Commit, Consensus, Election, LogEntryKind};
pub use ctx::{PutSink, WorkerCtx, WriteSink};
pub use durable::{DurableField, DurableValue};
pub use error::RuntimeError;
pub use fault::{FaultKind, FaultPlan, FaultSpec, DEFAULT_DETECTOR_TIMEOUT, MAX_PLAUSIBLE_STEP};
pub use netmodel::NetworkModel;
pub use pool::WorkerPool;
pub use session::{BufferPool, Session};
pub use stats::{
    ns_u64, ConsensusStats, DeliveryStats, DurabilityStats, RecoveryStats, RunStats, StepKind,
    StepStats, StorageInfo,
};
pub use transport::{batch_checksum, DedupWindow, Transport};

/// Vertex state stored by FLASHWARE for every vertex of the graph.
///
/// A `VertexData` type plays the role of the paper's per-vertex property
/// set. The associated [`VertexData::Critical`] type is the *critical
/// projection*: the subset of properties that other vertices may read, and
/// therefore the only data a master must broadcast to its mirrors
/// (§IV-C "Synchronize critical properties only"; the decision rules are
/// Table II, reproduced in [`plan`]).
///
/// For types whose properties are all critical, use the
/// [`full_sync`](macro@crate::full_sync) macro instead of a manual impl.
pub trait VertexData: Clone + Send + Sync + 'static {
    /// The subset of properties synchronized from masters to mirrors.
    type Critical: Clone + Send + Sync + 'static;

    /// Extracts the critical projection for broadcast.
    fn critical(&self) -> Self::Critical;

    /// Installs a received critical projection into a mirror copy.
    fn apply_critical(&mut self, c: Self::Critical);

    /// Wire size of a full vertex value, in bytes. Override for types
    /// owning heap data (e.g. neighbor lists) so message accounting stays
    /// honest.
    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Wire size of a critical projection, in bytes. Override together
    /// with [`VertexData::bytes`] for heap-owning types.
    fn critical_bytes(c: &Self::Critical) -> usize {
        let _ = c;
        std::mem::size_of::<Self::Critical>()
    }
}

/// Implements [`VertexData`] with `Critical = Self` (every property is
/// synchronized — the safe default when no static analysis narrows it).
///
/// ```
/// #[derive(Clone, Default)]
/// struct Dist { d: u32 }
/// flash_runtime::full_sync!(Dist);
/// ```
#[macro_export]
macro_rules! full_sync {
    ($t:ty) => {
        impl $crate::VertexData for $t {
            type Critical = $t;
            fn critical(&self) -> $t {
                self.clone()
            }
            fn apply_critical(&mut self, c: $t) {
                *self = c;
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default, PartialEq, Debug)]
    struct Simple {
        x: u64,
    }
    full_sync!(Simple);

    #[test]
    fn full_sync_macro_round_trips() {
        let a = Simple { x: 9 };
        let c = a.critical();
        let mut b = Simple::default();
        b.apply_critical(c);
        assert_eq!(a, b);
        assert_eq!(a.bytes(), 8);
        assert_eq!(Simple::critical_bytes(&a.critical()), 8);
    }

    #[derive(Clone)]
    struct Partial {
        shared: u32,
        #[allow(dead_code)]
        scratch: [u8; 64], // local-only, never synchronized
    }

    impl Default for Partial {
        fn default() -> Self {
            Partial {
                shared: 0,
                scratch: [0; 64],
            }
        }
    }

    impl VertexData for Partial {
        type Critical = u32;
        fn critical(&self) -> u32 {
            self.shared
        }
        fn apply_critical(&mut self, c: u32) {
            self.shared = c;
        }
    }

    #[test]
    fn partial_projection_is_smaller() {
        let p = Partial {
            shared: 3,
            scratch: [0; 64],
        };
        assert!(Partial::critical_bytes(&p.critical()) < p.bytes());
        let mut q = Partial::default();
        q.apply_critical(p.critical());
        assert_eq!(q.shared, 3);
    }
}
