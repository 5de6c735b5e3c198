//! Runtime error types.

use std::fmt;

/// Errors raised by FLASHWARE.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The cluster was configured with zero workers.
    NoWorkers,
    /// A worker-count / partition-map mismatch.
    PartitionMismatch {
        /// Workers in the configuration.
        config: usize,
        /// Workers in the partition map.
        partition: usize,
    },
    /// The graph and partition map disagree on the vertex count.
    GraphMismatch {
        /// Vertices in the graph.
        graph: usize,
        /// Vertices in the partition map.
        partition: usize,
    },
    /// An algorithm exceeded its superstep budget without converging.
    NotConverged {
        /// The budget that was exhausted.
        supersteps: usize,
    },
    /// A kernel misuse detected at runtime (bug in the calling code).
    KernelMisuse(&'static str),
    /// Fault recovery exhausted its retry budget at a superstep: the same
    /// failure re-fired on every attempt, so the run degrades to this
    /// clean error instead of looping or panicking.
    RecoveryExhausted {
        /// The superstep that kept failing.
        step: u64,
        /// Compute attempts made (`1 +` the configured retry budget).
        attempts: u32,
    },
    /// A fault plan failed attach-time validation (out-of-range worker,
    /// implausible step, duplicate spec, unpaired rejoin, or a plan that
    /// kills every worker).
    InvalidFaultPlan(String),
    /// A worker was declared permanently dead but no checkpoint exists to
    /// recover its masters from (checkpointing was disabled), so the run
    /// cannot continue elastically.
    WorkerLost {
        /// The worker declared dead.
        worker: usize,
        /// The superstep at which it was lost.
        step: u64,
    },
    /// Reliable delivery exhausted its retransmit budget for one batch:
    /// every transmission attempt was lost on the wire, so the transport
    /// degrades the run to this clean error instead of spinning forever —
    /// the channel-layer mirror of [`RuntimeError::RecoveryExhausted`].
    DeliveryExhausted {
        /// The superstep whose message round could not be delivered.
        step: u64,
        /// Sending host of the undeliverable batch.
        sender: usize,
        /// Receiving host of the undeliverable batch.
        receiver: usize,
        /// Transmission attempts made (`1 +` the retransmit budget).
        attempts: u32,
    },
    /// The storage configuration cannot serve this graph — e.g.
    /// `StorageMode::Block` on a graph that was not opened through
    /// `flash_graph::blocks::open_blocks`.
    Storage(String),
    /// The replicated control plane lost its quorum: too few live hosts
    /// remain to commit a decision (or to pin a byzantine accusation on a
    /// majority of honest replicas), so the run degrades to this clean
    /// error — the consensus-layer mirror of
    /// [`RuntimeError::RecoveryExhausted`].
    QuorumLost {
        /// The superstep at which the quorum was lost.
        step: u64,
        /// Live hosts remaining.
        live: usize,
        /// Hosts a majority would have required.
        needed: usize,
    },
    /// A cold restart could not be verified against the durable
    /// checkpoint store: the scrub pass found every on-disk generation
    /// damaged (or the directory empty on a `--resume`), or the
    /// re-executed state did not match the loaded generation's digest —
    /// the durability-layer mirror of
    /// [`RuntimeError::RecoveryExhausted`].
    DurabilityLost(String),
    /// The run was halted by the scripted cold-restart kill switch
    /// (`durable_halt_after`): durable persistence froze at the scripted
    /// superstep — simulating a whole-process kill — so the in-memory
    /// result is discarded and the run must be resumed from disk.
    Halted {
        /// The superstep the simulated kill landed on.
        step: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoWorkers => write!(f, "cluster requires at least one worker"),
            RuntimeError::PartitionMismatch { config, partition } => write!(
                f,
                "config has {config} workers but partition map has {partition}"
            ),
            RuntimeError::GraphMismatch { graph, partition } => write!(
                f,
                "graph has {graph} vertices but partition map covers {partition}"
            ),
            RuntimeError::NotConverged { supersteps } => {
                write!(
                    f,
                    "algorithm did not converge within {supersteps} supersteps"
                )
            }
            RuntimeError::KernelMisuse(msg) => write!(f, "kernel misuse: {msg}"),
            RuntimeError::RecoveryExhausted { step, attempts } => write!(
                f,
                "fault recovery exhausted after {attempts} attempts at superstep {step}"
            ),
            RuntimeError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            RuntimeError::WorkerLost { worker, step } => write!(
                f,
                "worker {worker} permanently lost at superstep {step} with no checkpoint to \
                 recover from (checkpointing is disabled)"
            ),
            RuntimeError::DeliveryExhausted {
                step,
                sender,
                receiver,
                attempts,
            } => write!(
                f,
                "reliable delivery exhausted after {attempts} transmission attempts at \
                 superstep {step} (batch from host {sender} to host {receiver})"
            ),
            RuntimeError::Storage(msg) => write!(f, "storage configuration rejected: {msg}"),
            RuntimeError::QuorumLost { step, live, needed } => write!(
                f,
                "control-plane quorum lost at superstep {step}: {live} live hosts remain \
                 but a majority needs {needed}"
            ),
            RuntimeError::DurabilityLost(msg) => write!(
                f,
                "durable checkpoint store cannot verify the restart: {msg}"
            ),
            RuntimeError::Halted { step } => write!(
                f,
                "run halted at superstep {step} (simulated process kill); resume from the \
                 durable checkpoint store to continue"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_numbers() {
        let e = RuntimeError::PartitionMismatch {
            config: 4,
            partition: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        assert!(RuntimeError::NotConverged { supersteps: 100 }
            .to_string()
            .contains("100"));
        let r = RuntimeError::RecoveryExhausted {
            step: 7,
            attempts: 4,
        };
        assert!(r.to_string().contains('7') && r.to_string().contains('4'));
        let w = RuntimeError::WorkerLost { worker: 2, step: 5 };
        assert!(w.to_string().contains('2') && w.to_string().contains('5'));
        assert!(w.to_string().contains("checkpoint"));
        let p = RuntimeError::InvalidFaultPlan("duplicate spec".into());
        assert!(p.to_string().contains("duplicate spec"));
        let d = RuntimeError::DeliveryExhausted {
            step: 3,
            sender: 1,
            receiver: 2,
            attempts: 4,
        };
        let msg = d.to_string();
        assert!(msg.contains("delivery"), "{msg}");
        assert!(msg.contains('3') && msg.contains('4'), "{msg}");
        assert!(msg.contains("host 1") && msg.contains("host 2"), "{msg}");
        let s = RuntimeError::Storage("block storage requires a block-backed graph".into());
        assert!(s.to_string().contains("storage"), "{s}");
        assert!(s.to_string().contains("block-backed"), "{s}");
        let q = RuntimeError::QuorumLost {
            step: 6,
            live: 1,
            needed: 2,
        };
        let msg = q.to_string();
        assert!(msg.contains("quorum"), "{msg}");
        assert!(
            msg.contains('6') && msg.contains('1') && msg.contains('2'),
            "{msg}"
        );
        let d = RuntimeError::DurabilityLost("all 2 generations damaged".into());
        assert!(d.to_string().contains("cannot verify the restart"), "{d}");
        assert!(d.to_string().contains("all 2 generations damaged"), "{d}");
        let h = RuntimeError::Halted { step: 9 };
        assert!(h.to_string().contains('9'), "{h}");
        assert!(h.to_string().contains("resume"), "{h}");
    }
}
