//! The structured event model for FLASHWARE traces.
//!
//! Every event carries a monotonically increasing sequence number (assigned
//! by the emitting runtime) and renders to a single JSON object via
//! [`Event::to_json`], so a [`JsonLinesSink`](crate::sink::JsonLinesSink)
//! trace is one event per line; [`Event::from_json`] reads it back. Field
//! names are stable — they are the machine-readable contract of DESIGN.md §7.
//!
//! The vocabulary is declared once, in the `events!` table below: each
//! kind's tag, fields and text line. [`EventKind`], [`SCHEMA`], the JSON
//! writer and reader and the text form are all generated from it.

use crate::json::Json;
use std::time::Duration;

/// A single trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic sequence number within one run (0-based).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// How one field type is read back from JSON ([`Json`]'s `From` impls write
/// it): the only per-type code behind the `events!` table, and behind the
/// runtime's `step_counters!` table of superstep counters.
pub trait Field: Sized {
    /// The value `value` holds, or `None` when it has the wrong type.
    fn from_json(value: &Json) -> Option<Self>;
}

impl Field for u64 {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_u64()
    }
}

impl Field for usize {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_u64().and_then(|n| usize::try_from(n).ok())
    }
}

impl Field for bool {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_bool()
    }
}

impl Field for String {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_str().map(str::to_string)
    }
}

/// Exact nanoseconds.
impl Field for Duration {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_u64().map(Duration::from_nanos)
    }
}

/// A nested object, carried as is.
impl Field for Json {
    fn from_json(value: &Json) -> Option<Self> {
        matches!(value, Json::Obj(_)).then(|| value.clone())
    }
}

/// `obj[key]` as a text line shows it: a string bare, anything else as
/// JSON.
fn shown(obj: &Json, key: &str) -> String {
    let value = obj.get(key).unwrap_or(&Json::Null);
    value
        .as_str()
        .map_or_else(|| value.to_string(), str::to_string)
}

/// Reads field `name` of the object tagged `tag` (an event's tag, or the
/// key a nested object sits under) out of `obj`.
pub fn read<T: Field>(obj: &Json, tag: &str, name: &str) -> Result<T, String> {
    let missing = || format!("{tag}: missing field {name:?}");
    let value = obj.get(name).ok_or_else(missing)?;
    T::from_json(value).ok_or_else(|| format!("{tag}: field {name:?} has the wrong type: {value}"))
}

/// Declares the trace vocabulary, one entry per kind:
/// `Variant = "tag" { field: Type, … } => "text line", extra format args…;`
/// The text line names fields as inline `{captures}`; a line that is not a
/// plain format of its fields passes the derived piece positionally.
macro_rules! events {
    ($(
        $(#[$variant_doc:meta])*
        $variant:ident = $tag:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
        } => $text:literal $(, $arg:expr)*;
    )*) => {
        /// The payload of an [`Event`].
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventKind {
            $( $(#[$variant_doc])* $variant { $( $(#[$field_doc])* $field: $ty, )* }, )*
        }

        /// Every event kind as `(tag, field names)`, in declaration order.
        /// Each JSON line carries `"event"` (the tag) and `"seq"` besides
        /// these fields. DESIGN.md §7 is checked against this table.
        pub const SCHEMA: &[(&str, &[&str])] = &[
            $( ($tag, &[ $( stringify!($field) ),* ]), )*
        ];

        impl EventKind {
            /// Stable string tag identifying the variant (the `"event"` field).
            pub fn tag(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $tag, )*
                }
            }

            /// Flattens the variant's fields into `obj`.
            fn write_fields(&self, obj: Json) -> Json {
                match self {
                    $( Self::$variant { $( $field ),* } => obj
                        $( .set(stringify!($field), $field.clone()) )*, )*
                }
            }

            /// Reads the variant tagged `tag` back out of `obj`.
            fn read_fields(tag: &str, obj: &Json) -> Result<Self, String> {
                match tag {
                    $( $tag => Ok(Self::$variant {
                        $( $field: read(obj, tag, stringify!($field))?, )*
                    }), )*
                    _ => Err(format!("unknown event tag {tag:?}")),
                }
            }

            /// The variant's text line, without the sequence prefix.
            #[allow(unused_variables)] // a line need not mention every field
            fn text(&self) -> String {
                match self {
                    $( Self::$variant { $( $field ),* } => format!($text $(, $arg)*), )*
                }
            }
        }
    };
}

events! {
    /// Trace header: always the first line of a JSONL trace, identifying
    /// the schema version and the run's configuration so analyzers can
    /// validate a trace before interpreting it.
    RunMeta = "run_meta" {
        /// Trace schema version
        /// ([`TRACE_SCHEMA_VERSION`](crate::TRACE_SCHEMA_VERSION)).
        schema: u64,
        /// Fault-plan PRNG seed (0 when no plan is configured). A JSON
        /// number, so exact only below 2^53 — unlike a checksum, a seed is
        /// chosen by the user, whose `--faults` text is its exact record.
        seed: u64,
        /// Logical worker (partition) count.
        workers: usize,
        /// Physical host count at startup (before any elastic membership
        /// change).
        hosts: usize,
        /// Compact fault-plan description (`"none"` when faults are off).
        fault_plan: String,
    } => "trace schema v{schema}: {workers} workers on {hosts} hosts, faults={fault_plan}, seed={seed}";
    /// A cluster came up: emitted once from `Cluster::new`.
    RunStart = "run_start" {
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
        /// The owner map's scheme: `"hash"` or `"range"` (contiguous id
        /// ranges), as `PartitionMap::scheme` names it.
        partition: String,
    } => "run start: {workers} workers, |V|={vertices}, |E|={edges}, {partition} partition";
    /// A superstep began.
    StepStart = "step_start" {
        /// Superstep index (0-based, monotonic across the run).
        step: u64,
        /// Kernel kind label: `"vmap"`, `"dense"`, `"sparse"`, or
        /// `"global"`.
        kind: String,
        /// Frontier size entering the step.
        active: usize,
    } => "step {step} start ({kind}), frontier={active}";
    /// Per-worker compute phase within a superstep.
    WorkerPhase = "worker_phase" {
        /// Superstep index this phase belongs to.
        step: u64,
        /// Worker id (0-based).
        worker: usize,
        /// Wall-clock compute time for this worker, in nanoseconds.
        compute_ns: u64,
        /// Mirror-directed `put` operations staged by this worker.
        staged_puts: u64,
        /// Master-directed writes staged by this worker.
        staged_writes: u64,
    } => "step {step} worker {worker}: compute={compute_ns}ns puts={staged_puts} writes={staged_writes}";
    /// A superstep completed (emitted after mirror sync).
    StepEnd = "step_end" {
        /// Superstep index.
        step: u64,
        /// The superstep's counters as `flash_runtime::StepStats::to_json`
        /// renders them, read back by `StepStats::from_json`.
        stats: Json,
    } => "step {step} end ({}): upd={}B sync={}B", shown(stats, "kind"), shown(stats, "upd_bytes"), shown(stats, "sync_bytes");
    /// The sync planner decided what to ship, and to whom, for one step.
    SyncPlan = "sync_plan" {
        /// Superstep index.
        step: u64,
        /// Sync mode label: `"full"` or `"critical"`.
        mode: String,
        /// Mirror scope label: `"necessary"` or `"all"`.
        scope: String,
    } => "step {step} sync plan: mode={mode} scope={scope}";
    /// The adaptive `EDGEMAP` chose a kernel.
    ModeDecision = "mode_decision" {
        /// Superstep index the decision applies to (the step about to run).
        step: u64,
        /// Frontier size `|U|`.
        frontier: usize,
        /// `|U|` plus the arcs of `U`'s push rows (out-degrees; in-degrees
        /// over `reverse(E)`) — the Ligra-style density measure.
        frontier_edges: usize,
        /// Threshold the measure is compared against
        /// (`DENSE_THRESHOLD · |E|`, Ligra's 1/20).
        threshold_edges: usize,
        /// Chosen kernel: `"dense"` or `"sparse"`.
        chosen: String,
        /// Dispatch policy in force: `"adaptive"`, `"force-dense"`, or
        /// `"force-sparse"`.
        policy: String,
    } => "step {step} edge_map chose {chosen} ({policy}): |U|={frontier}, |U|+outE={frontier_edges} vs {threshold_edges}";
    /// A consistent checkpoint was captured at a superstep boundary.
    CheckpointTaken = "checkpoint_taken" {
        /// The superstep the snapshot precedes.
        step: u64,
        /// Serialized checkpoint size in bytes (masters only).
        bytes: u64,
        /// The configured checkpoint interval, in supersteps.
        interval: u64,
    } => "checkpoint before step {step}: {bytes}B (every {interval} steps)";
    /// A scripted fault fired (and was detected at the barrier).
    FaultInjected = "fault_injected" {
        /// Superstep the fault fired at.
        step: u64,
        /// Worker the fault targeted.
        worker: usize,
        /// Fault kind label: `"crash"`, `"corrupt"`, or `"straggle"`.
        kind: String,
        /// Which compute attempt of the superstep it hit (0-based).
        attempt: u64,
    } => "step {step} fault: {kind} on worker {worker} (attempt {attempt})";
    /// Recovery rolled workers back to a checkpoint and replayed the redo
    /// log before retrying a failed superstep.
    RecoveryReplay = "recovery_replay" {
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
    } => "step {step} recovery: rollback to {from_step}, replay {replayed} steps, retry {attempt} after {backoff_us}us";
    /// The failure detector declared a worker permanently dead (its `die`
    /// fault exhausted the retry budget, or its barrier delay reached the
    /// detector deadline).
    WorkerDeclaredDead = "worker_declared_dead" {
        /// The superstep at which the worker was declared dead.
        step: u64,
        /// The dead worker (physical host id).
        worker: usize,
        /// Why: `"die"` (exhausted die fault) or `"deadline"` (failure
        /// detector timeout).
        reason: String,
        /// The membership epoch the cluster moves to.
        epoch: u64,
    } => "step {step} worker {worker} declared dead ({reason}), entering epoch {epoch}";
    /// The cluster entered a new membership epoch (after a death or a
    /// rejoin) and rebuilt its partition-to-host routing.
    MembershipEpoch = "membership_epoch" {
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
    } => "step {step} membership epoch {epoch} ({cause}): {live_hosts} live hosts, {moved_partitions} partitions moved";
    /// One logical partition's master state was migrated to a new host as
    /// part of a membership epoch change.
    StateMigrated = "state_migrated" {
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
    } => "epoch {epoch} migrated partition {partition}: host {from} -> {to}, {vertices} vertices, {bytes}B";
    /// The lossy channel discarded one transmission attempt of a cross-host
    /// batch (scripted `drop@`, probabilistic `loss=`, or a detected
    /// checksum corruption that forced a nack).
    BatchDropped = "batch_dropped" {
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
    } => "step {step} {round} batch {sender}->{receiver} #{seq_no} dropped ({cause}, attempt {attempt})";
    /// The sender's ack deadline expired for a batch and it was put back
    /// on the wire.
    BatchRetransmitted = "batch_retransmitted" {
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
    } => "step {step} {round} batch {sender}->{receiver} #{seq_no} retransmitted (attempt {attempt}, {bytes}B)";
    /// The receive-side dedup window discarded a batch copy it had already
    /// admitted (a duplicate delivery or a late reordered original racing
    /// its own retransmission).
    BatchDeduped = "batch_deduped" {
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
    } => "step {step} {round} batch {sender}->{receiver} #{seq_no} duplicate discarded";
    /// The replicated control plane elected a leader host (the initial
    /// election, or a re-election after the previous leader crashed).
    LeaderElected = "leader_elected" {
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
    } => "step {step} term {term}: host {leader} elected leader ({votes}/{live_hosts} votes)";
    /// A control-plane decision was committed to the replicated log by a
    /// majority of live hosts, and only then applied.
    LogCommitted = "log_committed" {
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
    } => "step {step} log[{index}] committed ({kind}, term {term}, {acks} acks, quorum {quorum})";
    /// The checksum quorum caught a worker returning a sync payload whose
    /// checksum disagrees with the honest majority; the accusation is
    /// escalated to a death declaration through the consensus log.
    WorkerAccused = "worker_accused" {
        /// The superstep at which the lie was detected.
        step: u64,
        /// The accused worker.
        worker: usize,
        /// Replicas whose recomputed checksum agrees with the majority.
        accusers: usize,
        /// Replicas a majority required.
        quorum: usize,
        /// The checksum the honest majority recomputed, as 16 hex digits
        /// after `0x`: a JSON number cannot carry 64 bits through `f64`.
        expected: String,
        /// The checksum the accused worker reported, in the same form.
        observed: String,
    } => "step {step} worker {worker} accused of lying by {accusers} replicas (quorum {quorum}): checksum {observed} != {expected}";
    /// The durable checkpoint store committed a generation to disk
    /// (tmp + fsync + atomic rename + directory fsync) — only after this
    /// does the `CheckpointCommit` consensus entry replicate.
    CheckpointDurable = "checkpoint_durable" {
        /// The generation number committed.
        generation: u64,
        /// The superstep the generation's checkpoint precedes.
        step: u64,
        /// Bytes written and fsynced for this commit.
        bytes: u64,
    } => "step {step} durable gen {generation} committed: {bytes}B fsynced";
    /// The scrub pass at open condemned a damaged generation and fell
    /// back to an older one (with nothing older left the resume fails
    /// with `DurabilityLost` before any event is emitted).
    CheckpointScrubbed = "checkpoint_scrubbed" {
        /// The damaged generation number.
        generation: u64,
        /// What the scrub found: e.g. `"header checksum mismatch"`,
        /// `"truncated header"`.
        reason: String,
    } => "scrub: gen {generation} damaged ({reason}); falling back to previous generation";
    /// A generation commit's write or fsync failed (injected `ioerr@`
    /// fault or a real I/O error): nothing was committed, and the commit
    /// is retried at the next superstep.
    DurableIoError = "durable_io_error" {
        /// The superstep whose durable write failed.
        step: u64,
    } => "step {step} durable checkpoint write failed (injected ioerr); commit skipped";
    /// A serving session opened over a shared immutable snapshot
    /// (emitted by `flash_runtime::Session::new`).
    SessionStart = "session_start" {
        /// The session id (unique within one serving process).
        session: u64,
        /// Vertices in the shared snapshot.
        vertices: usize,
        /// Directed edges in the shared snapshot.
        edges: usize,
        /// Logical workers each query cluster simulates.
        workers: usize,
    } => "session {session} start: |V|={vertices}, |E|={edges}, {workers} workers";
    /// A serving session closed after its last query.
    SessionEnd = "session_end" {
        /// The session id.
        session: u64,
    } => "session {session} end";
    /// A run finished (emitted by `Cluster::take_stats`).
    RunEnd = "run_end" {
        /// Supersteps executed.
        supersteps: usize,
        /// Total bytes communicated.
        total_bytes: u64,
        /// Total messages sent.
        total_messages: u64,
        /// Simulated parallel time, in nanoseconds.
        simulated_parallel_ns: u64,
    } => "run end: {supersteps} supersteps, {total_bytes}B, {total_messages} msgs, T_sim={simulated_parallel_ns}ns";
}

impl Event {
    /// Renders the event as a JSON object with an `"event"` tag, the
    /// sequence number, and the variant's fields flattened alongside.
    pub fn to_json(&self) -> Json {
        let base = Json::object().set("event", self.kind.tag());
        self.kind.write_fields(base.set("seq", self.seq))
    }

    /// Decodes what [`Event::to_json`] wrote. Refuses an object with no or
    /// an unknown `"event"` tag, and one that lacks a field of its kind or
    /// carries it with the wrong type.
    pub fn from_json(obj: &Json) -> Result<Event, String> {
        let tag = obj.get("event").and_then(Json::as_str);
        let tag = tag.ok_or("not a trace event (no \"event\" tag)")?;
        Ok(Event {
            seq: read(obj, tag, "seq")?,
            kind: EventKind::read_fields(tag, obj)?,
        })
    }

    /// One-line human-readable rendering used by
    /// [`TextSink`](crate::sink::TextSink).
    pub fn to_text(&self) -> String {
        format!("[{:>4}] {}", self.seq, self.kind.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// One meaningful instance of every kind, in declaration order; `seq`
    /// counts up from 3, so `step_end` is event 7.
    fn samples() -> Vec<Event> {
        let kinds = vec![
            EventKind::RunMeta {
                schema: crate::TRACE_SCHEMA_VERSION,
                seed: 42,
                workers: 4,
                hosts: 2,
                fault_plan: "loss=0.01".into(),
            },
            EventKind::RunStart {
                workers: 4,
                vertices: 1000,
                edges: 5000,
                net_latency_us: 50,
                net_bandwidth_bps: 1_000_000_000,
                partition: "range".into(),
            },
            EventKind::StepStart {
                step: 3,
                kind: "sparse".into(),
                active: 42,
            },
            EventKind::WorkerPhase {
                step: 3,
                worker: 1,
                compute_ns: 500_200,
                staged_puts: 7,
                staged_writes: 3,
            },
            EventKind::StepEnd {
                step: 3,
                stats: Json::object()
                    .set("kind", "sparse")
                    .set("upd_bytes", 160u64)
                    .set("sync_bytes", 80u64),
            },
            EventKind::SyncPlan {
                step: 3,
                mode: "critical".into(),
                scope: "necessary".into(),
            },
            EventKind::ModeDecision {
                step: 3,
                frontier: 42,
                frontier_edges: 300,
                threshold_edges: 250,
                chosen: "dense".into(),
                policy: "adaptive".into(),
            },
            EventKind::CheckpointTaken {
                step: 4,
                bytes: 320,
                interval: 4,
            },
            EventKind::FaultInjected {
                step: 5,
                worker: 1,
                kind: "crash".into(),
                attempt: 0,
            },
            EventKind::RecoveryReplay {
                step: 5,
                from_step: 4,
                replayed: 1,
                attempt: 0,
                backoff_us: 1000,
            },
            EventKind::WorkerDeclaredDead {
                step: 5,
                worker: 1,
                reason: "die".into(),
                epoch: 1,
            },
            EventKind::MembershipEpoch {
                epoch: 1,
                step: 5,
                live_hosts: 3,
                moved_partitions: 1,
                cause: "die".into(),
            },
            EventKind::StateMigrated {
                epoch: 1,
                partition: 1,
                from: 1,
                to: 2,
                vertices: 30,
                bytes: 240,
            },
            EventKind::BatchDropped {
                step: 3,
                round: "upd".into(),
                sender: 1,
                receiver: 2,
                seq_no: 9,
                attempt: 0,
                cause: "loss".into(),
            },
            EventKind::BatchRetransmitted {
                step: 3,
                round: "upd".into(),
                sender: 1,
                receiver: 2,
                seq_no: 9,
                attempt: 1,
                bytes: 128,
            },
            EventKind::BatchDeduped {
                step: 3,
                round: "sync".into(),
                sender: 1,
                receiver: 2,
                seq_no: 9,
            },
            EventKind::LeaderElected {
                term: 2,
                leader: 1,
                step: 5,
                votes: 3,
                live_hosts: 3,
            },
            EventKind::LogCommitted {
                term: 2,
                index: 4,
                step: 5,
                kind: "checkpoint_commit".into(),
                acks: 3,
                quorum: 2,
            },
            // Two full-width FNV checksums one bit apart: as JSON numbers
            // both would collapse to the same f64.
            EventKind::WorkerAccused {
                step: 5,
                worker: 2,
                accusers: 3,
                quorum: 2,
                expected: "0xcbf29ce484222325".into(),
                observed: "0xcbf29ce484222324".into(),
            },
            EventKind::CheckpointDurable {
                generation: 3,
                step: 8,
                bytes: 4096,
            },
            EventKind::CheckpointScrubbed {
                generation: 3,
                reason: "header checksum mismatch".into(),
            },
            EventKind::DurableIoError { step: 4 },
            EventKind::SessionStart {
                session: 3,
                vertices: 1000,
                edges: 5000,
                workers: 4,
            },
            EventKind::SessionEnd { session: 3 },
            EventKind::RunEnd {
                supersteps: 12,
                total_bytes: 2880,
                total_messages: 180,
                simulated_parallel_ns: 129_000,
            },
        ];
        let events = kinds.into_iter().zip(3..);
        events.map(|(kind, seq)| Event { seq, kind }).collect()
    }

    /// The JSONL line of each `samples()` event, as the hand-written
    /// `to_json` the `events!` table replaced printed it — except
    /// `worker_accused`, whose checksums were numbers there and lost their
    /// low bits, the `*_us` twins of `*_ns` fields and the `sync_plan`
    /// properties, which schema 4 dropped, `step_end`, whose counters
    /// schema 7 nested in `stats`, `session_end`, whose counters schema 9
    /// dropped, and `run_meta`'s version.
    const GOLDEN: [&str; 25] = [
        r#"{"event":"run_meta","fault_plan":"loss=0.01","hosts":2,"schema":9,"seed":42,"seq":3,"workers":4}"#,
        r#"{"edges":5000,"event":"run_start","net_bandwidth_bps":1000000000,"net_latency_us":50,"partition":"range","seq":4,"vertices":1000,"workers":4}"#,
        r#"{"active":42,"event":"step_start","kind":"sparse","seq":5,"step":3}"#,
        r#"{"compute_ns":500200,"event":"worker_phase","seq":6,"staged_puts":7,"staged_writes":3,"step":3,"worker":1}"#,
        r#"{"event":"step_end","seq":7,"stats":{"kind":"sparse","sync_bytes":80,"upd_bytes":160},"step":3}"#,
        r#"{"event":"sync_plan","mode":"critical","scope":"necessary","seq":8,"step":3}"#,
        r#"{"chosen":"dense","event":"mode_decision","frontier":42,"frontier_edges":300,"policy":"adaptive","seq":9,"step":3,"threshold_edges":250}"#,
        r#"{"bytes":320,"event":"checkpoint_taken","interval":4,"seq":10,"step":4}"#,
        r#"{"attempt":0,"event":"fault_injected","kind":"crash","seq":11,"step":5,"worker":1}"#,
        r#"{"attempt":0,"backoff_us":1000,"event":"recovery_replay","from_step":4,"replayed":1,"seq":12,"step":5}"#,
        r#"{"epoch":1,"event":"worker_declared_dead","reason":"die","seq":13,"step":5,"worker":1}"#,
        r#"{"cause":"die","epoch":1,"event":"membership_epoch","live_hosts":3,"moved_partitions":1,"seq":14,"step":5}"#,
        r#"{"bytes":240,"epoch":1,"event":"state_migrated","from":1,"partition":1,"seq":15,"to":2,"vertices":30}"#,
        r#"{"attempt":0,"cause":"loss","event":"batch_dropped","receiver":2,"round":"upd","sender":1,"seq":16,"seq_no":9,"step":3}"#,
        r#"{"attempt":1,"bytes":128,"event":"batch_retransmitted","receiver":2,"round":"upd","sender":1,"seq":17,"seq_no":9,"step":3}"#,
        r#"{"event":"batch_deduped","receiver":2,"round":"sync","sender":1,"seq":18,"seq_no":9,"step":3}"#,
        r#"{"event":"leader_elected","leader":1,"live_hosts":3,"seq":19,"step":5,"term":2,"votes":3}"#,
        r#"{"acks":3,"event":"log_committed","index":4,"kind":"checkpoint_commit","quorum":2,"seq":20,"step":5,"term":2}"#,
        r#"{"accusers":3,"event":"worker_accused","expected":"0xcbf29ce484222325","observed":"0xcbf29ce484222324","quorum":2,"seq":21,"step":5,"worker":2}"#,
        r#"{"bytes":4096,"event":"checkpoint_durable","generation":3,"seq":22,"step":8}"#,
        r#"{"event":"checkpoint_scrubbed","generation":3,"reason":"header checksum mismatch","seq":23}"#,
        r#"{"event":"durable_io_error","seq":24,"step":4}"#,
        r#"{"edges":5000,"event":"session_start","seq":25,"session":3,"vertices":1000,"workers":4}"#,
        r#"{"event":"session_end","seq":26,"session":3}"#,
        r#"{"event":"run_end","seq":27,"simulated_parallel_ns":129000,"supersteps":12,"total_bytes":2880,"total_messages":180}"#,
    ];

    /// The `samples()` event tagged `tag`, checked to survive the trip through
    /// its JSONL line (pinned by `GOLDEN`) and to say `text` in its text line.
    fn checked(tag: &str, text: &str) -> Event {
        let e = samples().into_iter().find(|e| e.kind.tag() == tag);
        let e = e.expect("a sample per tag");
        let parsed = parse(&e.to_json().to_string()).expect("writer output parses");
        assert_eq!(parsed, e.to_json());
        assert_eq!(Event::from_json(&parsed), Ok(e.clone()));
        assert!(e.to_text().contains(text), "{}", e.to_text());
        e
    }

    #[test]
    fn step_end_renders_all_fields() {
        let e = checked("step_end", "");
        let j = e.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("step_end"));
        assert_eq!(j.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("step").and_then(Json::as_u64), Some(3));
        let EventKind::StepEnd { stats, .. } = &e.kind else {
            panic!("not a step_end: {e:?}")
        };
        assert_eq!(
            j.get("stats"),
            Some(stats),
            "the counters pass through as is"
        );
        // The counters are an object; a flat value is refused.
        let flat = r#"{"event":"step_end","seq":7,"stats":160,"step":3}"#;
        let err = Event::from_json(&parse(flat).unwrap()).unwrap_err();
        assert!(err.contains("field \"stats\" has the wrong type"), "{err}");
    }

    #[test]
    fn json_round_trips_through_parser() {
        for (tag, _) in SCHEMA {
            checked(tag, "");
        }
    }

    #[test]
    fn tags_are_distinct() {
        let tags: Vec<&str> = samples().iter().map(|e| e.kind.tag()).collect();
        let declared: Vec<&str> = SCHEMA.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, declared, "one sample per kind, in declaration order");
        let unique: std::collections::BTreeSet<_> = tags.iter().collect();
        assert_eq!(unique.len(), tags.len());
    }

    #[test]
    fn golden_lines_are_stable() {
        for (e, golden) in samples().iter().zip(GOLDEN) {
            assert_eq!(e.to_json().to_string(), golden);
        }
    }

    #[test]
    fn from_json_refuses_unknown_tag_missing_field_and_wrong_type() {
        let refused = |line: &str| Event::from_json(&parse(line).unwrap()).unwrap_err();
        let line =
            |tag: &str, step: &str| format!(r#"{{"event":"{tag}","seq":1,{step}"op":"delta"}}"#);
        assert!(refused(r#"{"seq":1}"#).contains("no \"event\" tag"));
        let err = refused(&line("durable_io_eror", "\"step\":4,"));
        assert!(err.contains("unknown event tag"), "{err}");
        let err = refused(&line("durable_io_error", ""));
        assert!(err.contains("missing field \"step\""), "{err}");
        for step in ["\"4\"", "-4", "4.5", "null"] {
            let err = refused(&line("durable_io_error", &format!("\"step\":{step},")));
            assert!(err.contains("field \"step\" has the wrong type"), "{err}");
        }
    }

    #[test]
    fn durable_events_render_and_round_trip() {
        checked("checkpoint_durable", "gen 3");
        checked("checkpoint_scrubbed", "falling back");
        checked("durable_io_error", "ioerr");
    }

    #[test]
    fn consensus_events_render_and_round_trip() {
        checked("leader_elected", "elected leader (3/3 votes)");
        checked("log_committed", "log[4] committed");
        checked("worker_accused", "accused of lying");
        checked("worker_accused", "0xcbf29ce484222324 != 0xcbf29ce484222325");
    }

    #[test]
    fn session_events_render_and_round_trip() {
        checked("session_start", "session 3 start");
        checked("session_end", "session 3 end");
    }

    #[test]
    fn run_meta_renders_and_round_trips() {
        let version = crate::TRACE_SCHEMA_VERSION;
        let e = checked("run_meta", &format!("schema v{version}"));
        assert_eq!(
            e.to_json().get("schema").and_then(Json::as_u64),
            Some(version)
        );
    }

    #[test]
    fn text_rendering_mentions_key_numbers() {
        checked("step_end", "step 3 end (sparse): upd=160B sync=80B");
        checked("sync_plan", "mode=critical scope=necessary");
        checked("checkpoint_scrubbed", "mismatch); falling back to previous");
    }

    #[test]
    fn recovery_events_render_and_round_trip() {
        checked("checkpoint_taken", "before step 4: 320B");
        checked("fault_injected", "crash on worker 1");
        checked("recovery_replay", "rollback to 4");
    }

    #[test]
    fn delivery_events_render_and_round_trip() {
        checked("batch_dropped", "dropped");
        checked("batch_retransmitted", "retransmitted");
        checked("batch_deduped", "duplicate discarded");
    }

    #[test]
    fn membership_events_render_and_round_trip() {
        checked("worker_declared_dead", "declared dead");
        checked("membership_epoch", "epoch 1");
        checked("state_migrated", "host 1 -> 2");
    }
}
