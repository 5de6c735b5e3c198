//! The fault layer: what a [`Cluster`] does because a fault plan is
//! attached, plus the checkpoint stage it shares with the durable store.
//! The superstep pipeline calls it at fixed barrier stages — rejoin,
//! checkpoint, compute, each message round's delivery, the step's end —
//! and without a plan every stage is a no-op but the checkpoint count.
//! Each stage lends the layer out of the cluster once
//! ([`Cluster::with_faults`]) and hands each helper the part it needs.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::Cluster;
use crate::checkpoint::{master_bytes, Checkpoint, RecoveryLog, StepDelta};
use crate::consensus::{checksum_quorum, Consensus, LogEntryKind};
use crate::ctx::WorkerCtx;
use crate::durable::{DiskWrite, DurableSession};
use crate::error::RuntimeError;
use crate::fault::{payload_checksum, FaultInjector, FaultKind, FaultPlan, FaultSpec, Stage};
use crate::netmodel::NetworkModel;
use crate::transport::{RoundBatches, ScriptedChannelFault, Transport};
use crate::VertexData;
use flash_graph::{RebalanceReport, VertexId};
use flash_obs::EventKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire bytes one replicated log record occupies per receiving replica:
/// `(term, index, step)` plus a small tagged payload.
const LOG_RECORD_BYTES: u64 = 64;

/// The fault layer of a cluster, built exactly when its config carries a
/// [`FaultPlan`].
pub(super) struct Faults<V: VertexData> {
    injector: FaultInjector,
    /// The replicated control plane every control decision commits through.
    consensus: Consensus,
    /// Reliable delivery, present only when the plan has channel faults.
    transport: Option<Transport>,
    /// Last checkpoint plus the redo log of supersteps published since.
    log: RecoveryLog<V>,
}

impl<V: VertexData> Faults<V> {
    pub(super) fn new(plan: &FaultPlan, workers: usize) -> Self {
        Faults {
            injector: FaultInjector::new(plan.clone(), workers),
            consensus: Consensus::new(),
            transport: plan
                .has_channel_faults()
                .then(|| Transport::new(plan, workers)),
            log: RecoveryLog::new(),
        }
    }

    /// Whether the routing passes must collect cross-host batches.
    pub(super) fn tracks_batches(&self) -> bool {
        self.transport.is_some()
    }

    /// Scripted specs that have not fired once.
    pub(super) fn unfired(&self) -> u64 {
        self.injector.unfired()
    }

    /// Logs a driver-side write to every replica: a later rollback would
    /// otherwise replay past it and lose its effect.
    pub(super) fn log_global(&mut self, v: VertexId, val: &V, replicas: usize) {
        self.log.record(StepDelta::global(v, val, replicas));
    }
}

impl<V: VertexData> Cluster<V> {
    /// Lends the fault layer out of the cluster for the span of `f`, so the
    /// procedure can borrow both. `None`, without calling `f`, when no
    /// fault plan is attached.
    fn with_faults<R>(&mut self, f: impl FnOnce(&mut Self, &mut Faults<V>) -> R) -> Option<R> {
        let mut faults = self.faults.take()?;
        let out = f(self, &mut faults);
        self.faults = Some(faults);
        Some(out)
    }

    /// Seats the first coordinator before the first superstep (so
    /// `leader@0` has someone to crash), and on a resumed run spends the
    /// faults scripted before the loaded generation: they fired in the
    /// killed run, whose state up to that step the generation's digest
    /// verifies.
    pub(super) fn start_faults(&mut self) {
        let frontier = self.durable.as_ref().and_then(DurableSession::pending_step);
        self.with_faults(|c, faults| {
            let live = c.partition.live_hosts();
            c.elect_leader(&mut faults.consensus, 0, &live);
            if let Some(frontier) = frontier {
                faults.injector.drain_through(frontier);
            }
        });
    }

    /// Emits the `fault_injected` event of one scripted fault firing.
    fn emit_fault(&mut self, step: u64, worker: usize, kind: FaultKind, attempt: u64) {
        self.emit(EventKind::FaultInjected {
            step,
            worker,
            kind: kind.label().to_string(),
            attempt,
        });
    }

    /// Records the run's terminal error; only the first one sticks (see
    /// [`Cluster::fault_error`]).
    fn fail(&mut self, e: RuntimeError) {
        self.failed.get_or_insert(e);
    }

    /// Prices a recovery or control-plane transfer on the simulated
    /// network — zero without one.
    fn charge(&self, price: impl FnOnce(NetworkModel) -> Duration) -> Duration {
        self.config.network.map_or(Duration::ZERO, price)
    }

    /// The checkpoint stage, at step entry where nothing is staged. A
    /// checkpoint is due at the first superstep, then every
    /// `checkpoint_every`; a due one is persisted, counted and traced, and
    /// under a fault plan committed to the log and installed as the
    /// recovery point. A fault-free run keeps no snapshot: nothing could
    /// roll back to it.
    pub(super) fn maybe_checkpoint(&mut self) {
        if self.checkpoint_every == 0 {
            return;
        }
        // A resumed run checkpoints exactly at the loaded generation's
        // step — a failed commit may have moved it off the interval grid
        // — and keeps the interval from there, as the killed run did.
        let step = self.next_step;
        let loaded = self.durable.as_ref().and_then(DurableSession::pending_step);
        let due = match (loaded, self.last_checkpoint) {
            (Some(loaded), _) => step == loaded,
            (None, None) => true,
            (None, Some(at)) => step.saturating_sub(at) >= self.checkpoint_every,
        };
        if self.durable.is_some() && !self.persist(due) {
            return;
        }
        if !due {
            return;
        }
        let bytes = master_bytes(&self.states, &self.partition);
        self.last_checkpoint = Some(step);
        self.stats.recovery.checkpoints += 1;
        self.stats.recovery.checkpoint_bytes += bytes;
        // One round of shipping the master state off-worker.
        let cost = self.charge(|net| net.cost(1, bytes));
        self.stats.recovery.checkpoint_time += cost;
        self.emit(EventKind::CheckpointTaken {
            step,
            bytes,
            interval: self.checkpoint_every,
        });
        // The snapshot becomes the recovery point only once a majority of
        // the live hosts commits it, so no survivor rolls back to a
        // checkpoint the rest never heard about.
        self.with_faults(|c, faults| {
            let voters = c.partition.num_live_hosts();
            let entry = LogEntryKind::CheckpointCommit;
            c.commit_decision(&mut faults.consensus, step, entry, voters);
            faults
                .log
                .install(Checkpoint::capture(step, &c.states, &c.partition));
        });
    }

    /// The durable half of the checkpoint stage, ahead of the consensus
    /// `CheckpointCommit` so the log never commits bytes that are not
    /// durable. The step's disk faults fire here: `halt@` kills the process
    /// before the commit due now, `ioerr@` fails that commit, and
    /// `torn@`/`bitrot@` damage the newest generation right after it (the
    /// store writes nothing else before the next one).
    /// Returns whether the due checkpoint stands; a failed write skips it
    /// whole, and the next superstep retries.
    fn persist(&mut self, due: bool) -> bool {
        let step = self.next_step;
        let (ioerr, damage) = self
            .with_faults(|c, faults| c.poll_disk_faults(&mut faults.injector, step))
            .unwrap_or_default();
        let Some(d) = self.durable.as_mut() else {
            return true;
        };
        let outcome = if due {
            d.on_checkpoint(step, &self.states, ioerr, &mut self.stats.durability)
        } else {
            Ok(DiskWrite::None)
        };
        for (kind, byte, mask) in damage {
            d.damage(kind, byte, mask);
        }
        match outcome {
            Ok(DiskWrite::None) => true,
            Ok(DiskWrite::Committed { generation, bytes }) => {
                self.emit(EventKind::CheckpointDurable {
                    generation,
                    step,
                    bytes,
                });
                true
            }
            Ok(DiskWrite::Failed) => {
                self.emit(EventKind::DurableIoError { step });
                false
            }
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    /// Consumes the disk-fault specs armed for `step`. A `halt@` is handed
    /// to the store at once and degrades the run to `Halted`: compute
    /// continues deterministically, but its result is work a real kill
    /// would lose. The rest come back as whether the step's commit fails
    /// and the at-rest damage `(kind, byte, mask)` to apply after it.
    fn poll_disk_faults(
        &mut self,
        injector: &mut FaultInjector,
        step: u64,
    ) -> (bool, Vec<(FaultKind, u64, u8)>) {
        let mut ioerr = false;
        let mut damage = Vec::new();
        for spec in injector.take(step, Stage::Disk, |_| true) {
            self.emit_fault(step, spec.worker, spec.kind, 0);
            match spec.kind {
                FaultKind::Ioerr => ioerr = true,
                FaultKind::Halt => {
                    if let Some(d) = self.durable.as_mut() {
                        d.halt();
                    }
                    self.fail(RuntimeError::Halted { step });
                }
                _ => {
                    // The mask is a seeded nonzero byte, so a bitrot flip
                    // is guaranteed to actually change the file.
                    let mask = (injector.corruption_nonce() % 255 + 1) as u8;
                    damage.push((spec.kind, spec.byte, mask));
                }
            }
        }
        (ioerr, damage)
    }

    /// The step's end: the redo log.
    pub(super) fn record_delta(&mut self, updated: &[Vec<VertexId>]) {
        if let Some(faults) = &mut self.faults {
            faults.log.record(StepDelta::capture(&self.states, updated));
        }
    }

    /// Runs the compute phase under the fault injector, retrying it until
    /// [`Cluster::judge_attempt`] lets an attempt stand. A fault nothing can
    /// recover from degrades the run: the first such error is kept for
    /// [`Cluster::fault_error`], the injector is disabled, and the last
    /// attempt's output stands, so the simulation stays deterministic.
    pub(super) fn compute_with_recovery<Out: Send>(
        &mut self,
        step_id: u64,
        f: &(impl Fn(&mut WorkerCtx<'_, V>) -> Out + Sync),
    ) -> (Vec<Out>, Vec<Duration>) {
        let judged = self.with_faults(|c, faults| {
            let mut attempt: u64 = 0;
            loop {
                let (outs, mut durations) = c.run_compute(f);
                match c.judge_attempt(faults, step_id, attempt, &mut durations) {
                    Ok(None) => return (outs, durations),
                    Ok(Some(retry)) => attempt = retry,
                    Err(e) => {
                        c.fail(e);
                        faults.injector.active = false;
                        return (outs, durations);
                    }
                }
            }
        });
        judged.unwrap_or_else(|| self.run_compute(f))
    }

    /// Fires the faults scripted for this attempt of `step_id`, in barrier
    /// order: stragglers, a coordinator crash, lies, then crashes and
    /// corruption; the first stage that loses a host ends the attempt.
    /// `Ok(None)` lets the attempt stand; `Ok(Some(n))` re-runs it as
    /// attempt `n` — `attempt + 1` after a rollback, `0` (a fresh budget)
    /// once lost partitions were re-homed.
    fn judge_attempt(
        &mut self,
        faults: &mut Faults<V>,
        step_id: u64,
        attempt: u64,
        durations: &mut [Duration],
    ) -> Result<Option<u64>, RuntimeError> {
        if self.miss_deadlines(faults, step_id, attempt, durations)?
            || self.crash_leader(faults, step_id, attempt)?
            || self.expose_liars(faults, step_id, attempt)?
        {
            return Ok(Some(0));
        }
        let detected = self.detect_failures(&mut faults.injector, step_id);
        if detected.is_empty() {
            return Ok(None);
        }
        for spec in &detected {
            self.stats.recovery.faults_injected += 1;
            self.emit_fault(step_id, spec.worker, spec.kind, attempt);
        }
        if attempt < u64::from(faults.injector.plan().max_retries) {
            // Without a checkpoint a retry re-runs on the replicas as they
            // are: safe for staged writes, which are discarded, but masters
            // updated in place have no pre-step value left to restore.
            let wrote_in_place = self.states.iter().any(|st| !st.written.is_empty());
            if wrote_in_place && faults.log.checkpoint_step().is_none() {
                return Err(RuntimeError::WorkerLost {
                    worker: detected[0].worker,
                    step: step_id,
                });
            }
            self.rollback(faults, step_id, attempt);
            return Ok(Some(attempt + 1));
        }
        // Failure detector, retry half: a `die` fault re-fires on every
        // attempt, so an exhausted budget on one distinguishes a permanent
        // loss from a transient fault that merely kept recurring. The dead
        // worker's partition re-homes onto the survivors and the superstep
        // retries with a fresh budget.
        let mut dead: Vec<usize> = detected
            .iter()
            .filter(|s| s.kind == FaultKind::Die)
            .map(|s| s.worker)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        if dead.is_empty() {
            return Err(RuntimeError::RecoveryExhausted {
                step: step_id,
                attempts: (attempt + 1) as u32,
            });
        }
        self.declare_dead(faults, step_id, &dead, "die", attempt)?;
        Ok(Some(0))
    }

    /// Stragglers: charges each scripted delay into the worker's compute
    /// time (barrier skew, no recovery) — unless it reaches the plan's
    /// `detector=` deadline, which declares the worker dead (`Ok(true)`).
    fn miss_deadlines(
        &mut self,
        faults: &mut Faults<V>,
        step_id: u64,
        attempt: u64,
        durations: &mut [Duration],
    ) -> Result<bool, RuntimeError> {
        let stragglers = faults.injector.take(step_id, Stage::Straggler, |_| true);
        let detector = faults.injector.plan().detector_timeout;
        for s in &stragglers {
            if let Some(d) = durations.get_mut(s.worker) {
                *d += s.delay;
            }
            self.stats.recovery.stragglers += 1;
            self.stats.recovery.straggler_delay += s.delay;
            self.emit_fault(step_id, s.worker, s.kind, attempt);
        }
        let mut dead: Vec<usize> = stragglers
            .iter()
            .filter(|s| s.delay >= detector)
            .map(|s| s.worker)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        if dead.is_empty() {
            return Ok(false);
        }
        self.declare_dead(faults, step_id, &dead, "deadline", attempt)?;
        Ok(true)
    }

    /// Coordinator crash: a `leader@` fault kills the leading host, which
    /// then dies like any other permanent loss; the survivors elect a new
    /// leader first. `Ok(true)` when a leader went down.
    fn crash_leader(
        &mut self,
        faults: &mut Faults<V>,
        step_id: u64,
        attempt: u64,
    ) -> Result<bool, RuntimeError> {
        let mut crashed = false;
        for _ in faults.injector.take(step_id, Stage::Leader, |_| true) {
            let Some(leader) = faults.consensus.leader() else {
                break;
            };
            crashed = true;
            self.stats.consensus.leader_crashes += 1;
            self.stats.recovery.faults_injected += 1;
            self.emit_fault(step_id, leader, FaultKind::Leader, attempt);
            faults.consensus.vacate();
            self.declare_dead(faults, step_id, &[leader], "leader", attempt)?;
        }
        Ok(crashed)
    }

    /// Byzantine workers: a `lie@` worker reports a mismatched payload
    /// checksum. Every live host votes its own; a strict majority pins the
    /// liar, who dies (`Ok(true)`). No honest majority is
    /// [`RuntimeError::QuorumLost`].
    fn expose_liars(
        &mut self,
        faults: &mut Faults<V>,
        step_id: u64,
        attempt: u64,
    ) -> Result<bool, RuntimeError> {
        let mut accused = false;
        for spec in faults.injector.take(step_id, Stage::Lie, |_| true) {
            let w = spec.worker;
            let expected = self.staged_checksum(w);
            let observed = expected ^ faults.injector.corruption_nonce();
            let liar_host = self.partition.host_of_worker(w);
            let votes: Vec<(usize, u64)> = self
                .partition
                .live_hosts()
                .into_iter()
                .map(|h| (h, if h == liar_host { observed } else { expected }))
                .collect();
            self.stats.recovery.faults_injected += 1;
            self.emit_fault(step_id, w, FaultKind::Lie, attempt);
            let verdict = checksum_quorum(&votes).map_err(|needed| RuntimeError::QuorumLost {
                step: step_id,
                live: votes.len(),
                needed,
            })?;
            self.stats.consensus.accusations += 1;
            self.emit(EventKind::WorkerAccused {
                step: step_id,
                worker: w,
                accusers: verdict.accusers,
                quorum: verdict.quorum,
                expected: format!("{:#018x}", verdict.expected),
                observed: format!("{observed:#018x}"),
            });
            accused = true;
            self.declare_dead(faults, step_id, &[w], "accused", attempt)?;
        }
        Ok(accused)
    }

    /// Checksum of the sync payload worker `w` has staged, framed as
    /// `(vertex, byte-length)` records — what it would put on the wire. An
    /// in-place write is framed with the value it left in `current`,
    /// exactly as the staged `direct` entry it replaces would be.
    fn staged_checksum(&self, w: usize) -> u64 {
        let st = &self.states[w];
        let in_place = st.written.iter().map(|&v| (v, st.current(v).bytes()));
        payload_checksum(
            st.pending
                .iter()
                .map(|(v, val)| (v, val.bytes()))
                .chain(st.direct.iter().map(|(v, val)| (*v, val.bytes())))
                .chain(in_place),
        )
    }

    /// The crashes (missed heartbeats) and corrupted payloads of this
    /// attempt. Corruption is detected honestly: the transmitted checksum,
    /// XOR-ed with a nonzero nonce, is compared against the recomputed one.
    fn detect_failures(&mut self, injector: &mut FaultInjector, step_id: u64) -> Vec<FaultSpec> {
        let mut detected = Vec::new();
        for spec in injector.take(step_id, Stage::Failure, |_| true) {
            if spec.kind == FaultKind::CorruptSync {
                let computed = self.staged_checksum(spec.worker);
                if computed ^ injector.corruption_nonce() == computed {
                    continue;
                }
            }
            detected.push(spec);
        }
        detected
    }

    /// Replays the `rejoin@` events due at the next superstep: the host
    /// reclaims its home partition and its remaining fault specs re-arm.
    pub(super) fn maybe_rejoin(&mut self) {
        self.with_faults(|c, faults| {
            let step_id = c.next_step;
            for spec in faults.injector.take(step_id, Stage::Rejoin, |_| true) {
                // A worker that was never declared dead (its `die` never
                // got to fire, or recovery already failed) has nothing to
                // restore.
                let Ok(report) = Arc::make_mut(&mut c.partition).rejoin(spec.worker) else {
                    continue;
                };
                faults.injector.mark_alive(spec.worker);
                c.stats.recovery.workers_rejoined += 1;
                c.apply_migration(&mut faults.consensus, step_id, &report, "rejoin");
            }
        });
    }

    /// Declares `dead` workers permanently lost: commits the decision, rolls
    /// every replica back to the checkpoint and re-homes the dead hosts'
    /// partitions. Survivors hold only stale mirrors of the lost masters,
    /// so without a checkpoint this is [`RuntimeError::WorkerLost`].
    fn declare_dead(
        &mut self,
        faults: &mut Faults<V>,
        step_id: u64,
        dead: &[usize],
        reason: &str,
        attempt: u64,
    ) -> Result<(), RuntimeError> {
        // Even the "impossible" shapes (an empty dead-set, a checkpoint
        // that vanished between the check and the rollback) end in a typed
        // error.
        let lost = || RuntimeError::WorkerLost {
            worker: dead.first().copied().unwrap_or(0),
            step: step_id,
        };
        if faults.log.checkpoint_step().is_none() {
            return Err(lost());
        }
        // Control plane first: the death is a replicated decision, voted
        // on by the survivors only (the dying hosts cannot acknowledge
        // their own funeral). If the current leader is among the dying —
        // or the leadership is already vacant — the survivors elect a new
        // leader before the declaration commits under its term.
        let survivors: Vec<usize> = self
            .partition
            .live_hosts()
            .into_iter()
            .filter(|h| !dead.contains(h))
            .collect();
        let leader_gone = match faults.consensus.leader() {
            None => true,
            Some(l) => dead.contains(&l) || !self.partition.is_host_live(l),
        };
        if leader_gone && !survivors.is_empty() {
            self.elect_leader(&mut faults.consensus, step_id, &survivors);
        }
        let entry = LogEntryKind::DeathDeclaration;
        self.commit_decision(&mut faults.consensus, step_id, entry, survivors.len());
        let Some(restored) = faults.log.rollback(&mut self.states) else {
            return Err(lost());
        };
        self.account_replay(step_id, attempt, Duration::ZERO, restored);
        let report = Arc::make_mut(&mut self.partition)
            .rebalance(dead)
            .map_err(|_| lost())?;
        self.stats.recovery.workers_lost += dead.len() as u64;
        for &w in dead {
            faults.injector.mark_dead(w);
            self.emit(EventKind::WorkerDeclaredDead {
                step: step_id,
                worker: w,
                reason: reason.to_string(),
                epoch: report.epoch,
            });
        }
        self.apply_migration(&mut faults.consensus, step_id, &report, reason);
        Ok(())
    }

    /// Applies one membership change: bumps the epoch counters, emits the
    /// `membership_epoch` and per-partition `state_migrated` events, and
    /// charges the bulk state transfer to the simulated network.
    fn apply_migration(
        &mut self,
        consensus: &mut Consensus,
        step_id: u64,
        report: &RebalanceReport,
        cause: &str,
    ) {
        self.stats.recovery.membership_epochs += 1;
        self.emit(EventKind::MembershipEpoch {
            epoch: report.epoch,
            step: step_id,
            live_hosts: self.partition.num_live_hosts(),
            moved_partitions: report.moved.len(),
            cause: cause.to_string(),
        });
        let mut total_bytes = 0u64;
        for mv in &report.moved {
            let masters = self.partition.masters(mv.worker);
            let st = &self.states[mv.worker];
            let vertices = masters.len() as u64;
            let bytes: u64 = masters
                .iter()
                .map(|&v| (4 + st.current[v as usize].bytes()) as u64)
                .sum();
            total_bytes += bytes;
            self.stats.recovery.vertices_migrated += vertices;
            self.stats.recovery.migrated_bytes += bytes;
            self.emit(EventKind::StateMigrated {
                epoch: report.epoch,
                partition: mv.worker,
                from: mv.from,
                to: mv.to,
                vertices,
                bytes,
            });
        }
        if !report.moved.is_empty() {
            let rounds = 1 + report.moved.len() as u32;
            let cost = self.charge(|net| net.cost(rounds, total_bytes));
            self.stats.recovery.migration_net += cost;
        }
        // The epoch bump is a control-plane decision: the survivors must
        // majority-commit it before acting under the new hosting.
        let voters = self.partition.num_live_hosts();
        self.commit_decision(consensus, step_id, LogEntryKind::EpochBump, voters);
    }

    /// Runs one election among `live` hosts: seats the smallest one under a
    /// new term and charges the two vote rounds to the simulated network.
    fn elect_leader(&mut self, consensus: &mut Consensus, step: u64, live: &[usize]) {
        let Some(el) = consensus.elect(live) else {
            // No live host to elect — the run is already degrading through
            // the membership error path; nothing to record here.
            return;
        };
        self.stats.consensus.elections += 1;
        let bytes = LOG_RECORD_BYTES * el.live_hosts as u64;
        let cost = self.charge(|net| net.cost(2, bytes));
        self.stats.consensus.election_net += cost;
        self.emit(EventKind::LeaderElected {
            term: el.term,
            leader: el.leader,
            step,
            votes: el.votes,
            live_hosts: el.live_hosts,
        });
    }

    /// Commits one decision with `voters` acknowledging replicas, charging
    /// the append + ack rounds. A voter set with no majority degrades the
    /// run to [`RuntimeError::QuorumLost`].
    fn commit_decision(
        &mut self,
        consensus: &mut Consensus,
        step: u64,
        kind: LogEntryKind,
        voters: usize,
    ) {
        self.stats.consensus.entries_appended += 1;
        match consensus.commit(voters) {
            Ok(commit) => {
                self.stats.consensus.entries_committed += 1;
                let bytes = LOG_RECORD_BYTES * voters as u64;
                let cost = self.charge(|net| net.cost(2, bytes));
                self.stats.consensus.commit_net += cost;
                self.emit(EventKind::LogCommitted {
                    term: commit.term,
                    index: commit.index,
                    step,
                    kind: kind.label().to_string(),
                    acks: commit.acks,
                    quorum: commit.quorum,
                });
            }
            Err(needed) => self.fail(RuntimeError::QuorumLost {
                step,
                live: voters,
                needed,
            }),
        }
    }

    /// Retries after a transient failure: charges the backoff, then rolls
    /// every worker back (or, before the first checkpoint, only discards
    /// what the attempt staged).
    fn rollback(&mut self, faults: &Faults<V>, step_id: u64, attempt: u64) {
        let backoff = faults.injector.plan().backoff(attempt as u32);
        self.stats.recovery.retry_backoff += backoff;
        let restored = faults
            .log
            .rollback(&mut self.states)
            .unwrap_or((step_id, 0, 0));
        self.account_replay(step_id, attempt, backoff, restored);
    }

    /// Accounts for one restore: counters, simulated replay traffic and
    /// the `recovery_replay` event, which also reports the `backoff` the
    /// caller charged.
    fn account_replay(
        &mut self,
        step_id: u64,
        attempt: u64,
        backoff: Duration,
        (from_step, replayed, bytes): (u64, u64, u64),
    ) {
        self.stats.recovery.rollbacks += 1;
        self.stats.recovery.replayed_supersteps += replayed;
        let cost = self.charge(|net| net.recovery_cost(replayed, bytes));
        self.stats.recovery.replay_net += cost;
        self.emit(EventKind::RecoveryReplay {
            step: step_id,
            from_step,
            replayed,
            attempt,
            backoff_us: backoff.as_micros() as u64,
        });
    }

    /// Runs one message round's batches through the reliable-delivery
    /// transport (a no-op without channel faults), firing the channel
    /// faults due at this step on their sending hosts. An exhausted
    /// retransmit budget degrades the run like an exhausted retry budget.
    /// Returns the wall time spent, the step's `delivery` phase.
    pub(super) fn deliver_round(
        &mut self,
        step_id: u64,
        round: &str,
        batches: &RoundBatches,
    ) -> Duration {
        let Some(Faults {
            injector,
            transport: Some(transport),
            ..
        }) = &mut self.faults
        else {
            return Duration::ZERO;
        };
        let timer = Instant::now();
        let partition = &self.partition;
        let scripted: Vec<ScriptedChannelFault> = injector
            .take(step_id, Stage::Channel, |w| {
                let h = partition.host_of_worker(w);
                batches.keys().any(|&(sender, _)| sender == h)
            })
            .into_iter()
            .map(|spec| (spec.kind, partition.host_of_worker(spec.worker), spec.times))
            .collect();
        let outcome = transport.deliver(
            step_id,
            round,
            batches,
            &scripted,
            self.config.network.as_ref(),
            &mut self.stats.delivery,
        );
        for kind in outcome.events {
            self.emit(kind);
        }
        if let Some(err) = outcome.failure {
            self.fail(err);
        }
        timer.elapsed()
    }
}
