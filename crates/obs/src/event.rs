//! The structured event model for FLASHWARE traces.
//!
//! Every event carries a monotonically increasing sequence number (assigned
//! by the emitting runtime) and renders to a single JSON object via
//! [`Event::to_json`], so a [`JsonLinesSink`](crate::sink::JsonLinesSink)
//! trace is one event per line. Field names are stable — they are the
//! machine-readable contract documented in DESIGN.md.

use crate::json::Json;

/// A single trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic sequence number within one run (0-based).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Trace header: always the first line of a JSONL trace, identifying
    /// the schema version and the run's configuration so analyzers can
    /// validate a trace before interpreting it.
    RunMeta {
        /// Trace schema version
        /// ([`TRACE_SCHEMA_VERSION`](crate::TRACE_SCHEMA_VERSION)).
        schema: u64,
        /// Fault-plan PRNG seed (0 when no plan is configured).
        seed: u64,
        /// Logical worker (partition) count.
        workers: usize,
        /// Physical host count at startup (before any elastic membership
        /// change).
        hosts: usize,
        /// Compact fault-plan description (`"none"` when faults are off).
        fault_plan: String,
    },
    /// A cluster came up: emitted once from `Cluster::new`.
    RunStart {
        /// Simulated worker count.
        workers: usize,
        /// Number of vertices in the loaded graph.
        vertices: usize,
        /// Number of (directed) edges in the loaded graph.
        edges: usize,
        /// Network latency per message round, in microseconds.
        net_latency_us: u64,
        /// Network bandwidth in bytes per second.
        net_bandwidth_bps: u64,
    },
    /// A superstep began.
    StepStart {
        /// Superstep index (0-based, monotonic across the run).
        step: u64,
        /// Kernel kind label: `"vmap"`, `"dense"`, `"sparse"`, or
        /// `"global"`.
        kind: String,
        /// Frontier size entering the step.
        active: usize,
    },
    /// Per-worker compute phase within a superstep.
    WorkerPhase {
        /// Superstep index this phase belongs to.
        step: u64,
        /// Worker id (0-based).
        worker: usize,
        /// Wall-clock compute time for this worker, in microseconds
        /// (rounded half-up; see `compute_ns` for the exact value).
        compute_us: u64,
        /// Wall-clock compute time for this worker, in nanoseconds.
        compute_ns: u64,
        /// Mirror-directed `put` operations staged by this worker.
        staged_puts: u64,
        /// Master-directed writes staged by this worker.
        staged_writes: u64,
    },
    /// A superstep completed (emitted after mirror sync).
    StepEnd {
        /// Superstep index.
        step: u64,
        /// Kernel kind label.
        kind: String,
        /// Frontier size.
        active: usize,
        /// Update-phase messages.
        upd_messages: u64,
        /// Update-phase bytes.
        upd_bytes: u64,
        /// Sync-phase messages.
        sync_messages: u64,
        /// Sync-phase bytes.
        sync_bytes: u64,
        /// Total compute time across workers, in microseconds. All `*_us`
        /// timer fields of this event are rounded half-up; the paired
        /// `*_ns` fields carry the exact nanosecond values, so
        /// microbench-scale phases never flatten to zero.
        compute_us: u64,
        /// Slowest worker's compute time, in microseconds.
        compute_max_us: u64,
        /// Fastest worker's compute time, in microseconds.
        compute_min_us: u64,
        /// Barrier skew (`compute_max - compute_min`), in microseconds.
        barrier_skew_us: u64,
        /// Serialization time (wall), in microseconds.
        serialize_us: u64,
        /// Serialization makespan (slowest bucketing thread), in
        /// microseconds.
        serialize_max_us: u64,
        /// Communication time, in microseconds.
        communicate_us: u64,
        /// Reliable-delivery protocol time, in microseconds.
        delivery_us: u64,
        /// Simulated network time, in microseconds.
        simulated_net_us: u64,
        /// Total compute time across workers, in nanoseconds.
        compute_ns: u64,
        /// Slowest worker's compute time, in nanoseconds.
        compute_max_ns: u64,
        /// Fastest worker's compute time, in nanoseconds.
        compute_min_ns: u64,
        /// Barrier skew, in nanoseconds.
        barrier_skew_ns: u64,
        /// Serialization time (wall), in nanoseconds.
        serialize_ns: u64,
        /// Serialization makespan, in nanoseconds.
        serialize_max_ns: u64,
        /// Communication time, in nanoseconds.
        communicate_ns: u64,
        /// Reliable-delivery protocol time, in nanoseconds.
        delivery_ns: u64,
        /// Simulated network time, in nanoseconds.
        simulated_net_ns: u64,
    },
    /// The sync planner decided which properties to ship for one step.
    SyncPlan {
        /// Superstep index.
        step: u64,
        /// Sync mode label: `"full"` or `"critical"`.
        mode: String,
        /// Mirror scope label: `"necessary"` or `"all"`.
        scope: String,
        /// Critical properties selected for synchronization (empty =
        /// undeclared, i.e. the whole value ships).
        properties: Vec<String>,
    },
    /// The adaptive `EDGEMAP` chose a kernel.
    ModeDecision {
        /// Superstep index the decision applies to (the step about to run).
        step: u64,
        /// Frontier size `|U|`.
        frontier: usize,
        /// `|U| + Σ out_degree(U)` — the Ligra-style density measure.
        frontier_edges: usize,
        /// Threshold the measure is compared against
        /// (`dense_threshold · |E|`).
        threshold_edges: usize,
        /// Chosen kernel: `"dense"` or `"sparse"`.
        chosen: String,
        /// Dispatch policy in force: `"adaptive"`, `"force-dense"`, or
        /// `"force-sparse"`.
        policy: String,
    },
    /// A consistent checkpoint was captured at a superstep boundary.
    CheckpointTaken {
        /// The superstep the snapshot precedes.
        step: u64,
        /// Serialized checkpoint size in bytes (masters only).
        bytes: u64,
        /// The configured checkpoint interval, in supersteps.
        interval: u64,
    },
    /// A scripted fault fired (and was detected at the barrier).
    FaultInjected {
        /// Superstep the fault fired at.
        step: u64,
        /// Worker the fault targeted.
        worker: usize,
        /// Fault kind label: `"crash"`, `"corrupt"`, or `"straggle"`.
        kind: String,
        /// Which compute attempt of the superstep it hit (0-based).
        attempt: u64,
    },
    /// Recovery rolled workers back to a checkpoint and replayed the redo
    /// log before retrying a failed superstep.
    RecoveryReplay {
        /// The superstep being retried.
        step: u64,
        /// The checkpointed superstep rolled back to.
        from_step: u64,
        /// Redo-log supersteps replayed on top of the checkpoint.
        replayed: u64,
        /// The retry attempt this rollback precedes (0-based).
        attempt: u64,
        /// Simulated capped-exponential backoff charged, in microseconds.
        backoff_us: u64,
    },
    /// The failure detector declared a worker permanently dead (its `die`
    /// fault exhausted the retry budget, or its barrier delay reached the
    /// detector deadline).
    WorkerDeclaredDead {
        /// The superstep at which the worker was declared dead.
        step: u64,
        /// The dead worker (physical host id).
        worker: usize,
        /// Why: `"die"` (exhausted die fault) or `"deadline"` (failure
        /// detector timeout).
        reason: String,
        /// The membership epoch the cluster moves to.
        epoch: u64,
    },
    /// The cluster entered a new membership epoch (after a death or a
    /// rejoin) and rebuilt its partition-to-host routing.
    MembershipEpoch {
        /// The new epoch number (the initial membership is epoch 0).
        epoch: u64,
        /// The superstep at which the epoch began.
        step: u64,
        /// Hosts still live in this epoch.
        live_hosts: usize,
        /// Logical partitions re-homed by this epoch change.
        moved_partitions: usize,
        /// What triggered the change: `"die"`, `"deadline"` or `"rejoin"`.
        cause: String,
    },
    /// One logical partition's master state was migrated to a new host as
    /// part of a membership epoch change.
    StateMigrated {
        /// The membership epoch this migration belongs to.
        epoch: u64,
        /// The logical partition (worker id) that moved.
        partition: usize,
        /// The host it was evacuated from.
        from: usize,
        /// The host now serving it.
        to: usize,
        /// Master vertices transferred.
        vertices: u64,
        /// Serialized bytes transferred.
        bytes: u64,
    },
    /// The lossy channel discarded one transmission attempt of a cross-host
    /// batch (scripted `drop@`, probabilistic `loss=`, or a detected
    /// checksum corruption that forced a nack).
    BatchDropped {
        /// Superstep the batch belongs to.
        step: u64,
        /// Message round within the superstep: `"upd"` (mirror→master) or
        /// `"sync"` (master→mirror).
        round: String,
        /// Sending host.
        sender: usize,
        /// Receiving host.
        receiver: usize,
        /// Per-(sender, receiver) wire sequence number of the batch.
        seq_no: u64,
        /// Transmission attempt that was lost (0-based).
        attempt: u64,
        /// Why: `"drop"` (scripted), `"loss"` (probabilistic), or
        /// `"corrupt"` (wire checksum mismatch, nacked by the receiver).
        cause: String,
    },
    /// The sender's ack deadline expired for a batch and it was put back
    /// on the wire.
    BatchRetransmitted {
        /// Superstep the batch belongs to.
        step: u64,
        /// Message round within the superstep: `"upd"` or `"sync"`.
        round: String,
        /// Sending host.
        sender: usize,
        /// Receiving host.
        receiver: usize,
        /// Per-(sender, receiver) wire sequence number of the batch.
        seq_no: u64,
        /// The retransmission attempt now starting (1-based: the first
        /// retransmit is attempt 1).
        attempt: u64,
        /// Payload bytes re-shipped.
        bytes: u64,
    },
    /// The receive-side dedup window discarded a batch copy it had already
    /// admitted (a duplicate delivery or a late reordered original racing
    /// its own retransmission).
    BatchDeduped {
        /// Superstep the batch belongs to.
        step: u64,
        /// Message round within the superstep: `"upd"` or `"sync"`.
        round: String,
        /// Sending host.
        sender: usize,
        /// Receiving host.
        receiver: usize,
        /// Per-(sender, receiver) wire sequence number of the batch.
        seq_no: u64,
    },
    /// The replicated control plane elected a leader host (the initial
    /// election, or a re-election after the previous leader crashed).
    LeaderElected {
        /// The consensus term the leader now serves.
        term: u64,
        /// The elected leader host.
        leader: usize,
        /// The superstep at which the election concluded.
        step: u64,
        /// Votes the winner received (every live host grants its vote).
        votes: usize,
        /// Hosts live in the electorate.
        live_hosts: usize,
    },
    /// A control-plane decision was committed to the replicated log by a
    /// majority of live hosts, and only then applied.
    LogCommitted {
        /// The consensus term the entry was appended under.
        term: u64,
        /// The entry's log index (1-based, strictly sequential).
        index: u64,
        /// The superstep the decision belongs to.
        step: u64,
        /// Entry kind: `"epoch_bump"`, `"checkpoint_commit"` or
        /// `"death_declaration"`.
        kind: String,
        /// Acknowledgements received from live hosts.
        acks: usize,
        /// Acknowledgements a majority required.
        quorum: usize,
    },
    /// The checksum quorum caught a worker returning a sync payload whose
    /// checksum disagrees with the honest majority; the accusation is
    /// escalated to a death declaration through the consensus log.
    WorkerAccused {
        /// The superstep at which the lie was detected.
        step: u64,
        /// The accused worker.
        worker: usize,
        /// Replicas whose recomputed checksum agrees with the majority.
        accusers: usize,
        /// Replicas a majority required.
        quorum: usize,
        /// The checksum the honest majority recomputed.
        expected: u64,
        /// The checksum the accused worker reported.
        observed: u64,
    },
    /// The durable checkpoint store committed a generation to disk
    /// (tmp + fsync + atomic rename + directory fsync) — only after this
    /// does the `CheckpointCommit` consensus entry replicate.
    CheckpointDurable {
        /// The generation number committed.
        generation: u64,
        /// The superstep the generation's checkpoint frame precedes.
        step: u64,
        /// Frames in the generation file at commit: the checkpoint
        /// frame alone — delta frames are appended to it afterwards.
        frames: u64,
        /// Bytes written and fsynced for this commit.
        bytes: u64,
    },
    /// The scrub pass at open repaired the store: it condemned a
    /// generation whose header or checkpoint frame is damaged and skipped
    /// it, or cut a torn / bit-rotted delta tail back to the longest
    /// valid frame prefix.
    CheckpointScrubbed {
        /// The damaged generation number.
        generation: u64,
        /// What the scrub found: e.g. `"frame checksum mismatch"`,
        /// `"truncated mid-frame"`.
        reason: String,
        /// `true`: the generation was condemned and the scrub fell back
        /// to an older one. `false`: only its tail was cut and the
        /// generation was loaded — or it was condemned with nothing older
        /// left, and the store degraded to `DurabilityLost`.
        fallback: bool,
    },
    /// A durable write or fsync failed (injected `ioerr@` fault or a real
    /// I/O error): nothing was committed, and the step is a gap in the
    /// log that a resume re-executes.
    DurableIoError {
        /// The superstep whose durable write failed.
        step: u64,
        /// The failed operation: `"checkpoint"` or `"delta"`.
        op: String,
    },
    /// A serving session opened over a shared immutable snapshot
    /// (emitted by `flash_runtime::Session::new`).
    SessionStart {
        /// The session id (unique within one serving process).
        session: u64,
        /// Vertices in the shared snapshot.
        vertices: usize,
        /// Directed edges in the shared snapshot.
        edges: usize,
        /// Logical workers each query cluster simulates.
        workers: usize,
    },
    /// A serving session closed after its last query.
    SessionEnd {
        /// The session id.
        session: u64,
        /// Queries the session answered.
        queries: u64,
        /// Total query latency across the session, in microseconds.
        total_latency_us: u64,
    },
    /// A streaming edge-update batch was applied to the delta overlay
    /// (and any maintained results incrementally repaired).
    UpdateApplied {
        /// The session id the batch was applied under.
        session: u64,
        /// Batch sequence number (0-based within the session).
        batch: u64,
        /// Edges effectively inserted (duplicates are no-ops).
        inserted: u64,
        /// Edges effectively removed (absent edges are no-ops).
        removed: u64,
        /// Vertices whose neighborhoods the batch touched — the repair
        /// frontier seed.
        touched: u64,
        /// Which maintained results were repaired, e.g. `"cc"`,
        /// `"cc+pagerank"`, or `"none"`.
        repaired: String,
    },
    /// A run finished (emitted by `Cluster::take_stats`).
    RunEnd {
        /// Supersteps executed.
        supersteps: usize,
        /// Total bytes communicated.
        total_bytes: u64,
        /// Total messages sent.
        total_messages: u64,
        /// Simulated parallel time, in microseconds (rounded half-up).
        simulated_parallel_us: u64,
        /// Simulated parallel time, in nanoseconds.
        simulated_parallel_ns: u64,
    },
}

impl EventKind {
    /// Stable string tag identifying the variant (the `"event"` field).
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::RunMeta { .. } => "run_meta",
            EventKind::RunStart { .. } => "run_start",
            EventKind::StepStart { .. } => "step_start",
            EventKind::WorkerPhase { .. } => "worker_phase",
            EventKind::StepEnd { .. } => "step_end",
            EventKind::SyncPlan { .. } => "sync_plan",
            EventKind::ModeDecision { .. } => "mode_decision",
            EventKind::CheckpointTaken { .. } => "checkpoint_taken",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::RecoveryReplay { .. } => "recovery_replay",
            EventKind::WorkerDeclaredDead { .. } => "worker_declared_dead",
            EventKind::MembershipEpoch { .. } => "membership_epoch",
            EventKind::StateMigrated { .. } => "state_migrated",
            EventKind::BatchDropped { .. } => "batch_dropped",
            EventKind::BatchRetransmitted { .. } => "batch_retransmitted",
            EventKind::BatchDeduped { .. } => "batch_deduped",
            EventKind::LeaderElected { .. } => "leader_elected",
            EventKind::LogCommitted { .. } => "log_committed",
            EventKind::WorkerAccused { .. } => "worker_accused",
            EventKind::CheckpointDurable { .. } => "checkpoint_durable",
            EventKind::CheckpointScrubbed { .. } => "checkpoint_scrubbed",
            EventKind::DurableIoError { .. } => "durable_io_error",
            EventKind::SessionStart { .. } => "session_start",
            EventKind::SessionEnd { .. } => "session_end",
            EventKind::UpdateApplied { .. } => "update_applied",
            EventKind::RunEnd { .. } => "run_end",
        }
    }
}

impl Event {
    /// Renders the event as a JSON object with an `"event"` tag, the
    /// sequence number, and the variant's fields flattened alongside.
    pub fn to_json(&self) -> Json {
        let base = Json::object()
            .set("event", self.kind.tag())
            .set("seq", self.seq);
        match &self.kind {
            EventKind::RunMeta {
                schema,
                seed,
                workers,
                hosts,
                fault_plan,
            } => base
                .set("schema", *schema)
                .set("seed", *seed)
                .set("workers", *workers)
                .set("hosts", *hosts)
                .set("fault_plan", fault_plan.as_str()),
            EventKind::RunStart {
                workers,
                vertices,
                edges,
                net_latency_us,
                net_bandwidth_bps,
            } => base
                .set("workers", *workers)
                .set("vertices", *vertices)
                .set("edges", *edges)
                .set("net_latency_us", *net_latency_us)
                .set("net_bandwidth_bps", *net_bandwidth_bps),
            EventKind::StepStart { step, kind, active } => base
                .set("step", *step)
                .set("kind", kind.as_str())
                .set("active", *active),
            EventKind::WorkerPhase {
                step,
                worker,
                compute_us,
                compute_ns,
                staged_puts,
                staged_writes,
            } => base
                .set("step", *step)
                .set("worker", *worker)
                .set("compute_us", *compute_us)
                .set("compute_ns", *compute_ns)
                .set("staged_puts", *staged_puts)
                .set("staged_writes", *staged_writes),
            EventKind::StepEnd {
                step,
                kind,
                active,
                upd_messages,
                upd_bytes,
                sync_messages,
                sync_bytes,
                compute_us,
                compute_max_us,
                compute_min_us,
                barrier_skew_us,
                serialize_us,
                serialize_max_us,
                communicate_us,
                delivery_us,
                simulated_net_us,
                compute_ns,
                compute_max_ns,
                compute_min_ns,
                barrier_skew_ns,
                serialize_ns,
                serialize_max_ns,
                communicate_ns,
                delivery_ns,
                simulated_net_ns,
            } => base
                .set("step", *step)
                .set("kind", kind.as_str())
                .set("active", *active)
                .set("upd_messages", *upd_messages)
                .set("upd_bytes", *upd_bytes)
                .set("sync_messages", *sync_messages)
                .set("sync_bytes", *sync_bytes)
                .set("compute_us", *compute_us)
                .set("compute_max_us", *compute_max_us)
                .set("compute_min_us", *compute_min_us)
                .set("barrier_skew_us", *barrier_skew_us)
                .set("serialize_us", *serialize_us)
                .set("serialize_max_us", *serialize_max_us)
                .set("communicate_us", *communicate_us)
                .set("delivery_us", *delivery_us)
                .set("simulated_net_us", *simulated_net_us)
                .set("compute_ns", *compute_ns)
                .set("compute_max_ns", *compute_max_ns)
                .set("compute_min_ns", *compute_min_ns)
                .set("barrier_skew_ns", *barrier_skew_ns)
                .set("serialize_ns", *serialize_ns)
                .set("serialize_max_ns", *serialize_max_ns)
                .set("communicate_ns", *communicate_ns)
                .set("delivery_ns", *delivery_ns)
                .set("simulated_net_ns", *simulated_net_ns),
            EventKind::SyncPlan {
                step,
                mode,
                scope,
                properties,
            } => base
                .set("step", *step)
                .set("mode", mode.as_str())
                .set("scope", scope.as_str())
                .set(
                    "properties",
                    Json::Arr(properties.iter().map(|p| Json::from(p.as_str())).collect()),
                ),
            EventKind::ModeDecision {
                step,
                frontier,
                frontier_edges,
                threshold_edges,
                chosen,
                policy,
            } => base
                .set("step", *step)
                .set("frontier", *frontier)
                .set("frontier_edges", *frontier_edges)
                .set("threshold_edges", *threshold_edges)
                .set("chosen", chosen.as_str())
                .set("policy", policy.as_str()),
            EventKind::CheckpointTaken {
                step,
                bytes,
                interval,
            } => base
                .set("step", *step)
                .set("bytes", *bytes)
                .set("interval", *interval),
            EventKind::FaultInjected {
                step,
                worker,
                kind,
                attempt,
            } => base
                .set("step", *step)
                .set("worker", *worker)
                .set("kind", kind.as_str())
                .set("attempt", *attempt),
            EventKind::RecoveryReplay {
                step,
                from_step,
                replayed,
                attempt,
                backoff_us,
            } => base
                .set("step", *step)
                .set("from_step", *from_step)
                .set("replayed", *replayed)
                .set("attempt", *attempt)
                .set("backoff_us", *backoff_us),
            EventKind::WorkerDeclaredDead {
                step,
                worker,
                reason,
                epoch,
            } => base
                .set("step", *step)
                .set("worker", *worker)
                .set("reason", reason.as_str())
                .set("epoch", *epoch),
            EventKind::MembershipEpoch {
                epoch,
                step,
                live_hosts,
                moved_partitions,
                cause,
            } => base
                .set("epoch", *epoch)
                .set("step", *step)
                .set("live_hosts", *live_hosts)
                .set("moved_partitions", *moved_partitions)
                .set("cause", cause.as_str()),
            EventKind::StateMigrated {
                epoch,
                partition,
                from,
                to,
                vertices,
                bytes,
            } => base
                .set("epoch", *epoch)
                .set("partition", *partition)
                .set("from", *from)
                .set("to", *to)
                .set("vertices", *vertices)
                .set("bytes", *bytes),
            EventKind::BatchDropped {
                step,
                round,
                sender,
                receiver,
                seq_no,
                attempt,
                cause,
            } => base
                .set("step", *step)
                .set("round", round.as_str())
                .set("sender", *sender)
                .set("receiver", *receiver)
                .set("seq_no", *seq_no)
                .set("attempt", *attempt)
                .set("cause", cause.as_str()),
            EventKind::BatchRetransmitted {
                step,
                round,
                sender,
                receiver,
                seq_no,
                attempt,
                bytes,
            } => base
                .set("step", *step)
                .set("round", round.as_str())
                .set("sender", *sender)
                .set("receiver", *receiver)
                .set("seq_no", *seq_no)
                .set("attempt", *attempt)
                .set("bytes", *bytes),
            EventKind::BatchDeduped {
                step,
                round,
                sender,
                receiver,
                seq_no,
            } => base
                .set("step", *step)
                .set("round", round.as_str())
                .set("sender", *sender)
                .set("receiver", *receiver)
                .set("seq_no", *seq_no),
            EventKind::LeaderElected {
                term,
                leader,
                step,
                votes,
                live_hosts,
            } => base
                .set("term", *term)
                .set("leader", *leader)
                .set("step", *step)
                .set("votes", *votes)
                .set("live_hosts", *live_hosts),
            EventKind::LogCommitted {
                term,
                index,
                step,
                kind,
                acks,
                quorum,
            } => base
                .set("term", *term)
                .set("index", *index)
                .set("step", *step)
                .set("kind", kind.as_str())
                .set("acks", *acks)
                .set("quorum", *quorum),
            EventKind::WorkerAccused {
                step,
                worker,
                accusers,
                quorum,
                expected,
                observed,
            } => base
                .set("step", *step)
                .set("worker", *worker)
                .set("accusers", *accusers)
                .set("quorum", *quorum)
                .set("expected", *expected)
                .set("observed", *observed),
            EventKind::CheckpointDurable {
                generation,
                step,
                frames,
                bytes,
            } => base
                .set("generation", *generation)
                .set("step", *step)
                .set("frames", *frames)
                .set("bytes", *bytes),
            EventKind::CheckpointScrubbed {
                generation,
                reason,
                fallback,
            } => base
                .set("generation", *generation)
                .set("reason", reason.as_str())
                .set("fallback", *fallback),
            EventKind::DurableIoError { step, op } => {
                base.set("step", *step).set("op", op.as_str())
            }
            EventKind::SessionStart {
                session,
                vertices,
                edges,
                workers,
            } => base
                .set("session", *session)
                .set("vertices", *vertices)
                .set("edges", *edges)
                .set("workers", *workers),
            EventKind::SessionEnd {
                session,
                queries,
                total_latency_us,
            } => base
                .set("session", *session)
                .set("queries", *queries)
                .set("total_latency_us", *total_latency_us),
            EventKind::UpdateApplied {
                session,
                batch,
                inserted,
                removed,
                touched,
                repaired,
            } => base
                .set("session", *session)
                .set("batch", *batch)
                .set("inserted", *inserted)
                .set("removed", *removed)
                .set("touched", *touched)
                .set("repaired", repaired.as_str()),
            EventKind::RunEnd {
                supersteps,
                total_bytes,
                total_messages,
                simulated_parallel_us,
                simulated_parallel_ns,
            } => base
                .set("supersteps", *supersteps)
                .set("total_bytes", *total_bytes)
                .set("total_messages", *total_messages)
                .set("simulated_parallel_us", *simulated_parallel_us)
                .set("simulated_parallel_ns", *simulated_parallel_ns),
        }
    }

    /// One-line human-readable rendering used by
    /// [`TextSink`](crate::sink::TextSink).
    pub fn to_text(&self) -> String {
        match &self.kind {
            EventKind::RunMeta {
                schema,
                seed,
                workers,
                hosts,
                fault_plan,
            } => format!(
                "[{:>4}] trace schema v{schema}: {workers} workers on {hosts} hosts, faults={fault_plan}, seed={seed}",
                self.seq
            ),
            EventKind::RunStart {
                workers,
                vertices,
                edges,
                ..
            } => format!(
                "[{:>4}] run start: {workers} workers, |V|={vertices}, |E|={edges}",
                self.seq
            ),
            EventKind::StepStart { step, kind, active } => {
                format!("[{:>4}] step {step} start ({kind}), frontier={active}", self.seq)
            }
            EventKind::WorkerPhase {
                step,
                worker,
                compute_us,
                staged_puts,
                staged_writes,
                ..
            } => format!(
                "[{:>4}] step {step} worker {worker}: compute={compute_us}us puts={staged_puts} writes={staged_writes}",
                self.seq
            ),
            EventKind::StepEnd {
                step,
                kind,
                upd_bytes,
                sync_bytes,
                compute_max_us,
                barrier_skew_us,
                ..
            } => format!(
                "[{:>4}] step {step} end ({kind}): upd={upd_bytes}B sync={sync_bytes}B compute_max={compute_max_us}us skew={barrier_skew_us}us",
                self.seq
            ),
            EventKind::SyncPlan {
                step,
                mode,
                scope,
                properties,
            } => format!(
                "[{:>4}] step {step} sync plan: mode={mode} scope={scope} properties=[{}]",
                self.seq,
                properties.join(",")
            ),
            EventKind::ModeDecision {
                step,
                frontier,
                frontier_edges,
                threshold_edges,
                chosen,
                policy,
            } => format!(
                "[{:>4}] step {step} edge_map chose {chosen} ({policy}): |U|={frontier}, |U|+outE={frontier_edges} vs {threshold_edges}",
                self.seq
            ),
            EventKind::CheckpointTaken {
                step,
                bytes,
                interval,
            } => format!(
                "[{:>4}] checkpoint before step {step}: {bytes}B (every {interval} steps)",
                self.seq
            ),
            EventKind::FaultInjected {
                step,
                worker,
                kind,
                attempt,
            } => format!(
                "[{:>4}] step {step} fault: {kind} on worker {worker} (attempt {attempt})",
                self.seq
            ),
            EventKind::RecoveryReplay {
                step,
                from_step,
                replayed,
                attempt,
                backoff_us,
            } => format!(
                "[{:>4}] step {step} recovery: rollback to {from_step}, replay {replayed} steps, retry {attempt} after {backoff_us}us",
                self.seq
            ),
            EventKind::WorkerDeclaredDead {
                step,
                worker,
                reason,
                epoch,
            } => format!(
                "[{:>4}] step {step} worker {worker} declared dead ({reason}), entering epoch {epoch}",
                self.seq
            ),
            EventKind::MembershipEpoch {
                epoch,
                step,
                live_hosts,
                moved_partitions,
                cause,
            } => format!(
                "[{:>4}] step {step} membership epoch {epoch} ({cause}): {live_hosts} live hosts, {moved_partitions} partitions moved",
                self.seq
            ),
            EventKind::StateMigrated {
                epoch,
                partition,
                from,
                to,
                vertices,
                bytes,
            } => format!(
                "[{:>4}] epoch {epoch} migrated partition {partition}: host {from} -> {to}, {vertices} vertices, {bytes}B",
                self.seq
            ),
            EventKind::BatchDropped {
                step,
                round,
                sender,
                receiver,
                seq_no,
                attempt,
                cause,
            } => format!(
                "[{:>4}] step {step} {round} batch {sender}->{receiver} #{seq_no} dropped ({cause}, attempt {attempt})",
                self.seq
            ),
            EventKind::BatchRetransmitted {
                step,
                round,
                sender,
                receiver,
                seq_no,
                attempt,
                bytes,
            } => format!(
                "[{:>4}] step {step} {round} batch {sender}->{receiver} #{seq_no} retransmitted (attempt {attempt}, {bytes}B)",
                self.seq
            ),
            EventKind::BatchDeduped {
                step,
                round,
                sender,
                receiver,
                seq_no,
            } => format!(
                "[{:>4}] step {step} {round} batch {sender}->{receiver} #{seq_no} duplicate discarded",
                self.seq
            ),
            EventKind::LeaderElected {
                term,
                leader,
                step,
                votes,
                live_hosts,
            } => format!(
                "[{:>4}] step {step} term {term}: host {leader} elected leader ({votes}/{live_hosts} votes)",
                self.seq
            ),
            EventKind::LogCommitted {
                term,
                index,
                step,
                kind,
                acks,
                quorum,
            } => format!(
                "[{:>4}] step {step} log[{index}] committed ({kind}, term {term}, {acks} acks, quorum {quorum})",
                self.seq
            ),
            EventKind::WorkerAccused {
                step,
                worker,
                accusers,
                quorum,
                expected,
                observed,
            } => format!(
                "[{:>4}] step {step} worker {worker} accused of lying by {accusers} replicas (quorum {quorum}): checksum {observed:#x} != {expected:#x}",
                self.seq
            ),
            EventKind::CheckpointDurable {
                generation,
                step,
                frames,
                bytes,
            } => format!(
                "[{:>4}] step {step} durable gen {generation} committed: {frames} frame(s), {bytes}B fsynced",
                self.seq
            ),
            EventKind::CheckpointScrubbed {
                generation,
                reason,
                fallback,
            } => format!(
                "[{:>4}] scrub: gen {generation} damaged ({reason}); {}",
                self.seq,
                if *fallback {
                    "falling back to previous generation"
                } else {
                    "no fallback"
                }
            ),
            EventKind::DurableIoError { step, op } => format!(
                "[{:>4}] step {step} durable {op} write failed (injected ioerr); commit skipped",
                self.seq
            ),
            EventKind::SessionStart {
                session,
                vertices,
                edges,
                workers,
            } => format!(
                "[{:>4}] session {session} start: |V|={vertices}, |E|={edges}, {workers} workers",
                self.seq
            ),
            EventKind::SessionEnd {
                session,
                queries,
                total_latency_us,
            } => format!(
                "[{:>4}] session {session} end: {queries} queries, {total_latency_us}us total latency",
                self.seq
            ),
            EventKind::UpdateApplied {
                session,
                batch,
                inserted,
                removed,
                touched,
                repaired,
            } => format!(
                "[{:>4}] session {session} update batch {batch}: +{inserted} -{removed} edges, {touched} vertices touched, repaired={repaired}",
                self.seq
            ),
            EventKind::RunEnd {
                supersteps,
                total_bytes,
                total_messages,
                simulated_parallel_us,
                ..
            } => format!(
                "[{:>4}] run end: {supersteps} supersteps, {total_bytes}B, {total_messages} msgs, T_sim={simulated_parallel_us}us",
                self.seq
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_step_end() -> Event {
        Event {
            seq: 7,
            kind: EventKind::StepEnd {
                step: 3,
                kind: "sparse".to_string(),
                active: 42,
                upd_messages: 10,
                upd_bytes: 160,
                sync_messages: 5,
                sync_bytes: 80,
                compute_us: 900,
                compute_max_us: 500,
                compute_min_us: 400,
                barrier_skew_us: 100,
                serialize_us: 20,
                serialize_max_us: 15,
                communicate_us: 30,
                delivery_us: 5,
                simulated_net_us: 1234,
                compute_ns: 900_400,
                compute_max_ns: 500_200,
                compute_min_ns: 400_200,
                barrier_skew_ns: 100_000,
                serialize_ns: 19_600,
                serialize_max_ns: 15_400,
                communicate_ns: 30_100,
                delivery_ns: 4_900,
                simulated_net_ns: 1_234_000,
            },
        }
    }

    #[test]
    fn step_end_renders_all_fields() {
        let j = sample_step_end().to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("step_end"));
        assert_eq!(j.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("step").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("upd_bytes").and_then(Json::as_u64), Some(160));
        assert_eq!(j.get("barrier_skew_us").and_then(Json::as_u64), Some(100));
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("sparse"));
        assert_eq!(j.get("serialize_max_us").and_then(Json::as_u64), Some(15));
        assert_eq!(j.get("delivery_us").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("delivery_ns").and_then(Json::as_u64), Some(4_900));
        assert_eq!(j.get("compute_ns").and_then(Json::as_u64), Some(900_400));
        assert_eq!(
            j.get("simulated_net_ns").and_then(Json::as_u64),
            Some(1_234_000)
        );
    }

    #[test]
    fn json_round_trips_through_parser() {
        let j = sample_step_end().to_json();
        let back = json::parse(&j.to_string()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn tags_are_distinct() {
        let tags = [
            EventKind::RunMeta {
                schema: 1,
                seed: 0,
                workers: 1,
                hosts: 1,
                fault_plan: String::new(),
            }
            .tag(),
            EventKind::RunStart {
                workers: 1,
                vertices: 1,
                edges: 1,
                net_latency_us: 0,
                net_bandwidth_bps: 0,
            }
            .tag(),
            EventKind::StepStart {
                step: 0,
                kind: String::new(),
                active: 0,
            }
            .tag(),
            EventKind::WorkerPhase {
                step: 0,
                worker: 0,
                compute_us: 0,
                compute_ns: 0,
                staged_puts: 0,
                staged_writes: 0,
            }
            .tag(),
            sample_step_end().kind.tag(),
            EventKind::SyncPlan {
                step: 0,
                mode: String::new(),
                scope: String::new(),
                properties: vec![],
            }
            .tag(),
            EventKind::ModeDecision {
                step: 0,
                frontier: 0,
                frontier_edges: 0,
                threshold_edges: 0,
                chosen: String::new(),
                policy: String::new(),
            }
            .tag(),
            EventKind::CheckpointTaken {
                step: 0,
                bytes: 0,
                interval: 0,
            }
            .tag(),
            EventKind::FaultInjected {
                step: 0,
                worker: 0,
                kind: String::new(),
                attempt: 0,
            }
            .tag(),
            EventKind::RecoveryReplay {
                step: 0,
                from_step: 0,
                replayed: 0,
                attempt: 0,
                backoff_us: 0,
            }
            .tag(),
            EventKind::WorkerDeclaredDead {
                step: 0,
                worker: 0,
                reason: String::new(),
                epoch: 0,
            }
            .tag(),
            EventKind::MembershipEpoch {
                epoch: 0,
                step: 0,
                live_hosts: 0,
                moved_partitions: 0,
                cause: String::new(),
            }
            .tag(),
            EventKind::StateMigrated {
                epoch: 0,
                partition: 0,
                from: 0,
                to: 0,
                vertices: 0,
                bytes: 0,
            }
            .tag(),
            EventKind::BatchDropped {
                step: 0,
                round: String::new(),
                sender: 0,
                receiver: 0,
                seq_no: 0,
                attempt: 0,
                cause: String::new(),
            }
            .tag(),
            EventKind::BatchRetransmitted {
                step: 0,
                round: String::new(),
                sender: 0,
                receiver: 0,
                seq_no: 0,
                attempt: 0,
                bytes: 0,
            }
            .tag(),
            EventKind::BatchDeduped {
                step: 0,
                round: String::new(),
                sender: 0,
                receiver: 0,
                seq_no: 0,
            }
            .tag(),
            EventKind::LeaderElected {
                term: 0,
                leader: 0,
                step: 0,
                votes: 0,
                live_hosts: 0,
            }
            .tag(),
            EventKind::LogCommitted {
                term: 0,
                index: 0,
                step: 0,
                kind: String::new(),
                acks: 0,
                quorum: 0,
            }
            .tag(),
            EventKind::WorkerAccused {
                step: 0,
                worker: 0,
                accusers: 0,
                quorum: 0,
                expected: 0,
                observed: 0,
            }
            .tag(),
            EventKind::CheckpointDurable {
                generation: 0,
                step: 0,
                frames: 0,
                bytes: 0,
            }
            .tag(),
            EventKind::CheckpointScrubbed {
                generation: 0,
                reason: String::new(),
                fallback: false,
            }
            .tag(),
            EventKind::DurableIoError {
                step: 0,
                op: String::new(),
            }
            .tag(),
            EventKind::SessionStart {
                session: 0,
                vertices: 0,
                edges: 0,
                workers: 0,
            }
            .tag(),
            EventKind::SessionEnd {
                session: 0,
                queries: 0,
                total_latency_us: 0,
            }
            .tag(),
            EventKind::UpdateApplied {
                session: 0,
                batch: 0,
                inserted: 0,
                removed: 0,
                touched: 0,
                repaired: String::new(),
            }
            .tag(),
            EventKind::RunEnd {
                supersteps: 0,
                total_bytes: 0,
                total_messages: 0,
                simulated_parallel_us: 0,
                simulated_parallel_ns: 0,
            }
            .tag(),
        ];
        let unique: std::collections::BTreeSet<_> = tags.iter().collect();
        assert_eq!(unique.len(), tags.len());
    }

    #[test]
    fn durable_events_render_and_round_trip() {
        let events = [
            Event {
                seq: 0,
                kind: EventKind::CheckpointDurable {
                    generation: 3,
                    step: 8,
                    frames: 5,
                    bytes: 4096,
                },
            },
            Event {
                seq: 1,
                kind: EventKind::CheckpointScrubbed {
                    generation: 3,
                    reason: "frame checksum mismatch".into(),
                    fallback: true,
                },
            },
            Event {
                seq: 2,
                kind: EventKind::DurableIoError {
                    step: 4,
                    op: "checkpoint".into(),
                },
            },
        ];
        let j = events[0].to_json();
        assert_eq!(
            j.get("event").and_then(Json::as_str),
            Some("checkpoint_durable")
        );
        assert_eq!(j.get("generation").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("frames").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("bytes").and_then(Json::as_u64), Some(4096));
        let j = events[1].to_json();
        assert_eq!(
            j.get("event").and_then(Json::as_str),
            Some("checkpoint_scrubbed")
        );
        assert_eq!(
            j.get("reason").and_then(Json::as_str),
            Some("frame checksum mismatch")
        );
        assert_eq!(j.get("fallback").and_then(Json::as_bool), Some(true));
        let j = events[2].to_json();
        assert_eq!(
            j.get("event").and_then(Json::as_str),
            Some("durable_io_error")
        );
        assert_eq!(j.get("op").and_then(Json::as_str), Some("checkpoint"));
        for e in &events {
            let parsed = json::parse(&e.to_json().to_string()).expect("round-trip");
            assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(e.seq));
            assert!(!e.to_text().is_empty());
        }
        assert!(events[0].to_text().contains("gen 3"));
        assert!(events[1].to_text().contains("falling back"));
        assert!(events[2].to_text().contains("ioerr"));
    }

    #[test]
    fn consensus_events_render_and_round_trip() {
        let events = [
            Event {
                seq: 0,
                kind: EventKind::LeaderElected {
                    term: 2,
                    leader: 1,
                    step: 5,
                    votes: 3,
                    live_hosts: 3,
                },
            },
            Event {
                seq: 1,
                kind: EventKind::LogCommitted {
                    term: 2,
                    index: 4,
                    step: 5,
                    kind: "checkpoint_commit".to_string(),
                    acks: 3,
                    quorum: 2,
                },
            },
            Event {
                seq: 2,
                kind: EventKind::WorkerAccused {
                    step: 5,
                    worker: 2,
                    accusers: 3,
                    quorum: 2,
                    expected: 0xABCD,
                    observed: 0x1234,
                },
            },
        ];
        let j0 = events[0].to_json();
        assert_eq!(
            j0.get("event").and_then(Json::as_str),
            Some("leader_elected")
        );
        assert_eq!(j0.get("term").and_then(Json::as_u64), Some(2));
        assert_eq!(j0.get("leader").and_then(Json::as_u64), Some(1));
        assert_eq!(j0.get("votes").and_then(Json::as_u64), Some(3));
        let j1 = events[1].to_json();
        assert_eq!(
            j1.get("event").and_then(Json::as_str),
            Some("log_committed")
        );
        assert_eq!(j1.get("index").and_then(Json::as_u64), Some(4));
        assert_eq!(
            j1.get("kind").and_then(Json::as_str),
            Some("checkpoint_commit")
        );
        assert_eq!(j1.get("quorum").and_then(Json::as_u64), Some(2));
        let j2 = events[2].to_json();
        assert_eq!(
            j2.get("event").and_then(Json::as_str),
            Some("worker_accused")
        );
        assert_eq!(j2.get("worker").and_then(Json::as_u64), Some(2));
        assert_eq!(j2.get("accusers").and_then(Json::as_u64), Some(3));
        assert_eq!(j2.get("expected").and_then(Json::as_u64), Some(0xABCD));
        assert_eq!(j2.get("observed").and_then(Json::as_u64), Some(0x1234));
        for e in &events {
            let back = json::parse(&e.to_json().to_string()).unwrap();
            assert_eq!(back, e.to_json());
            assert!(!e.to_text().is_empty());
        }
        assert!(events[0].to_text().contains("elected leader"));
        assert!(events[0].to_text().contains("3/3 votes"));
        assert!(events[1].to_text().contains("log[4] committed"));
        assert!(events[2].to_text().contains("accused of lying"));
    }

    #[test]
    fn session_events_render_and_round_trip() {
        let events = [
            Event {
                seq: 0,
                kind: EventKind::SessionStart {
                    session: 3,
                    vertices: 1000,
                    edges: 5000,
                    workers: 4,
                },
            },
            Event {
                seq: 1,
                kind: EventKind::UpdateApplied {
                    session: 3,
                    batch: 0,
                    inserted: 12,
                    removed: 4,
                    touched: 20,
                    repaired: "cc+pagerank".to_string(),
                },
            },
            Event {
                seq: 2,
                kind: EventKind::SessionEnd {
                    session: 3,
                    queries: 250,
                    total_latency_us: 98765,
                },
            },
        ];
        let j0 = events[0].to_json();
        assert_eq!(
            j0.get("event").and_then(Json::as_str),
            Some("session_start")
        );
        assert_eq!(j0.get("session").and_then(Json::as_u64), Some(3));
        assert_eq!(j0.get("vertices").and_then(Json::as_u64), Some(1000));
        let j1 = events[1].to_json();
        assert_eq!(
            j1.get("event").and_then(Json::as_str),
            Some("update_applied")
        );
        assert_eq!(j1.get("inserted").and_then(Json::as_u64), Some(12));
        assert_eq!(j1.get("removed").and_then(Json::as_u64), Some(4));
        assert_eq!(j1.get("touched").and_then(Json::as_u64), Some(20));
        assert_eq!(
            j1.get("repaired").and_then(Json::as_str),
            Some("cc+pagerank")
        );
        let j2 = events[2].to_json();
        assert_eq!(j2.get("event").and_then(Json::as_str), Some("session_end"));
        assert_eq!(j2.get("queries").and_then(Json::as_u64), Some(250));
        assert_eq!(
            j2.get("total_latency_us").and_then(Json::as_u64),
            Some(98765)
        );
        for e in &events {
            let back = json::parse(&e.to_json().to_string()).unwrap();
            assert_eq!(back, e.to_json());
            assert!(!e.to_text().is_empty());
        }
        assert!(events[0].to_text().contains("session 3 start"));
        assert!(events[1].to_text().contains("+12 -4 edges"));
        assert!(events[2].to_text().contains("250 queries"));
    }

    #[test]
    fn run_meta_renders_and_round_trips() {
        let e = Event {
            seq: 0,
            kind: EventKind::RunMeta {
                schema: crate::TRACE_SCHEMA_VERSION,
                seed: 42,
                workers: 4,
                hosts: 2,
                fault_plan: "loss=0.01".to_string(),
            },
        };
        let j = e.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("run_meta"));
        assert_eq!(
            j.get("schema").and_then(Json::as_u64),
            Some(crate::TRACE_SCHEMA_VERSION)
        );
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(j.get("workers").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("hosts").and_then(Json::as_u64), Some(2));
        assert_eq!(
            j.get("fault_plan").and_then(Json::as_str),
            Some("loss=0.01")
        );
        let back = json::parse(&j.to_string()).unwrap();
        assert_eq!(back, j);
        assert!(e
            .to_text()
            .contains(&format!("schema v{}", crate::TRACE_SCHEMA_VERSION)));
    }

    #[test]
    fn text_rendering_mentions_key_numbers() {
        let t = sample_step_end().to_text();
        assert!(t.contains("step 3"));
        assert!(t.contains("skew=100us"));
    }

    #[test]
    fn recovery_events_render_and_round_trip() {
        let events = [
            Event {
                seq: 0,
                kind: EventKind::CheckpointTaken {
                    step: 4,
                    bytes: 320,
                    interval: 4,
                },
            },
            Event {
                seq: 1,
                kind: EventKind::FaultInjected {
                    step: 5,
                    worker: 1,
                    kind: "crash".to_string(),
                    attempt: 0,
                },
            },
            Event {
                seq: 2,
                kind: EventKind::RecoveryReplay {
                    step: 5,
                    from_step: 4,
                    replayed: 1,
                    attempt: 0,
                    backoff_us: 1000,
                },
            },
        ];
        let j = events[0].to_json();
        assert_eq!(
            j.get("event").and_then(Json::as_str),
            Some("checkpoint_taken")
        );
        assert_eq!(j.get("bytes").and_then(Json::as_u64), Some(320));
        let j1 = events[1].to_json();
        assert_eq!(j1.get("kind").and_then(Json::as_str), Some("crash"));
        let j2 = events[2].to_json();
        assert_eq!(j2.get("from_step").and_then(Json::as_u64), Some(4));
        assert_eq!(j2.get("backoff_us").and_then(Json::as_u64), Some(1000));
        for e in &events {
            let back = json::parse(&e.to_json().to_string()).unwrap();
            assert_eq!(back, e.to_json());
            assert!(!e.to_text().is_empty());
        }
        assert!(events[2].to_text().contains("rollback to 4"));
    }

    #[test]
    fn delivery_events_render_and_round_trip() {
        let events = [
            Event {
                seq: 0,
                kind: EventKind::BatchDropped {
                    step: 3,
                    round: "upd".to_string(),
                    sender: 1,
                    receiver: 2,
                    seq_no: 9,
                    attempt: 0,
                    cause: "loss".to_string(),
                },
            },
            Event {
                seq: 1,
                kind: EventKind::BatchRetransmitted {
                    step: 3,
                    round: "upd".to_string(),
                    sender: 1,
                    receiver: 2,
                    seq_no: 9,
                    attempt: 1,
                    bytes: 128,
                },
            },
            Event {
                seq: 2,
                kind: EventKind::BatchDeduped {
                    step: 3,
                    round: "sync".to_string(),
                    sender: 1,
                    receiver: 2,
                    seq_no: 9,
                },
            },
        ];
        let j0 = events[0].to_json();
        assert_eq!(
            j0.get("event").and_then(Json::as_str),
            Some("batch_dropped")
        );
        assert_eq!(j0.get("cause").and_then(Json::as_str), Some("loss"));
        assert_eq!(j0.get("round").and_then(Json::as_str), Some("upd"));
        assert_eq!(j0.get("seq_no").and_then(Json::as_u64), Some(9));
        let j1 = events[1].to_json();
        assert_eq!(
            j1.get("event").and_then(Json::as_str),
            Some("batch_retransmitted")
        );
        assert_eq!(j1.get("attempt").and_then(Json::as_u64), Some(1));
        assert_eq!(j1.get("bytes").and_then(Json::as_u64), Some(128));
        let j2 = events[2].to_json();
        assert_eq!(
            j2.get("event").and_then(Json::as_str),
            Some("batch_deduped")
        );
        assert_eq!(j2.get("sender").and_then(Json::as_u64), Some(1));
        assert_eq!(j2.get("receiver").and_then(Json::as_u64), Some(2));
        for e in &events {
            let back = json::parse(&e.to_json().to_string()).unwrap();
            assert_eq!(back, e.to_json());
            assert!(!e.to_text().is_empty());
        }
        assert!(events[0].to_text().contains("dropped"));
        assert!(events[1].to_text().contains("retransmitted"));
        assert!(events[2].to_text().contains("duplicate discarded"));
    }

    #[test]
    fn membership_events_render_and_round_trip() {
        let events = [
            Event {
                seq: 0,
                kind: EventKind::WorkerDeclaredDead {
                    step: 5,
                    worker: 1,
                    reason: "die".to_string(),
                    epoch: 1,
                },
            },
            Event {
                seq: 1,
                kind: EventKind::MembershipEpoch {
                    epoch: 1,
                    step: 5,
                    live_hosts: 3,
                    moved_partitions: 1,
                    cause: "die".to_string(),
                },
            },
            Event {
                seq: 2,
                kind: EventKind::StateMigrated {
                    epoch: 1,
                    partition: 1,
                    from: 1,
                    to: 2,
                    vertices: 30,
                    bytes: 240,
                },
            },
        ];
        let j0 = events[0].to_json();
        assert_eq!(
            j0.get("event").and_then(Json::as_str),
            Some("worker_declared_dead")
        );
        assert_eq!(j0.get("reason").and_then(Json::as_str), Some("die"));
        assert_eq!(j0.get("epoch").and_then(Json::as_u64), Some(1));
        let j1 = events[1].to_json();
        assert_eq!(j1.get("live_hosts").and_then(Json::as_u64), Some(3));
        assert_eq!(j1.get("cause").and_then(Json::as_str), Some("die"));
        let j2 = events[2].to_json();
        assert_eq!(j2.get("from").and_then(Json::as_u64), Some(1));
        assert_eq!(j2.get("to").and_then(Json::as_u64), Some(2));
        assert_eq!(j2.get("bytes").and_then(Json::as_u64), Some(240));
        for e in &events {
            let back = json::parse(&e.to_json().to_string()).unwrap();
            assert_eq!(back, e.to_json());
            assert!(!e.to_text().is_empty());
        }
        assert!(events[0].to_text().contains("declared dead"));
        assert!(events[1].to_text().contains("epoch 1"));
        assert!(events[2].to_text().contains("host 1 -> 2"));
    }
}
