//! Deterministic fault injection for the simulated cluster.
//!
//! A real FLASH deployment sits on an MPI cluster where workers crash,
//! network buffers arrive corrupted and stragglers stall barriers. The
//! simulated cluster reproduces those failure modes *deterministically*: a
//! [`FaultPlan`] attached to [`ClusterConfig`](crate::ClusterConfig)
//! scripts exactly which worker fails at which superstep, and the
//! corruption nonces come from the workspace's xoshiro PRNG
//! ([`flash_graph::Prng`]) seeded from the plan. The same plan over the
//! same program therefore fires at the same points every run — which is
//! what lets tests assert the recovery invariant: results must be
//! **bit-identical** with and without injected faults (see
//! [`checkpoint`](crate::checkpoint) and DESIGN.md §8).
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of fault specs and `key=value`
//! options:
//!
//! ```text
//! crash@3:w1            crash worker 1 at superstep 3
//! corrupt@5:w0          corrupt worker 0's sync payload at superstep 5
//! straggle@2:w1:400us   delay worker 1's compute by 400 µs at superstep 2
//!                       (1 ms without a delay)
//! crash@3:w1:x2         the crash fires on the first two attempts (as do
//!                       corrupt@ and straggle@ with :x2; :x0 is refused)
//! die@3:w1              worker 1 dies for good at superstep 3 (elastic
//!                       membership declares it dead once the retry budget
//!                       is spent; see DESIGN.md §9)
//! rejoin@6:w1           a previously dead worker 1 rejoins at superstep 6
//! drop@3:w1             the lossy channel eats every cross-host batch
//!                       worker 1 sends at superstep 3 (first transmission;
//!                       retransmission recovers it)
//! drop@3:w1:x4          the drop swallows the first four transmission
//!                       attempts of each affected batch — more than the
//!                       retry budget exhausts delivery
//! dup@3:w1              worker 1's batches are delivered twice (the
//!                       receive-side dedup window discards the copy)
//! reorder@3:w1          worker 1's batches arrive a round late, after the
//!                       sender has already retransmitted them
//! leader@4              crash whichever host currently leads the
//!                       replicated control plane at superstep 4, forcing
//!                       the survivors to elect a new leader mid-run (the
//!                       spec names no worker — it targets whoever leads)
//! lie@5:w2              worker 2 returns a checksum-mismatched sync
//!                       payload at superstep 5; the replica checksum
//!                       quorum detects the lie and escalates it to a
//!                       death declaration through the consensus log
//! ioerr@4               the durable checkpoint store's generation commit
//!                       due at superstep 4 fails: it is skipped (and never
//!                       fed to the consensus log) and retried at the next
//!                       superstep; at a step with no commit due it hits
//!                       nothing. Names no worker — it targets the store
//!                       itself (DESIGN.md §15)
//! torn@4                the newest committed checkpoint generation is
//!                       truncated two thirds in at the end of superstep
//!                       4; the scrub pass at the next cold start condemns
//!                       it and falls back to the previous generation
//! torn@4:b2000          the same, cut at byte 2000 (clamped into the file)
//! bitrot@4:b17          byte 17 of the newest committed checkpoint
//!                       generation is flipped (seeded nonzero mask) after
//!                       superstep 4's commit — at-rest corruption the
//!                       scrub pass must detect via the header checksum
//! halt@4                the process is killed at superstep 4: the durable
//!                       store writes nothing from that step on and the
//!                       run ends in `Halted`; a `--resume` picks it up
//! loss=0.05             seeded probabilistic mode: every cross-host batch
//!                       transmission is dropped with probability 0.05
//! dupRate=0.01          every delivered batch is duplicated with
//!                       probability 0.01
//! corruptRate=0.01      every batch copy arrives with a flipped wire
//!                       checksum with probability 0.01 (detected, nacked
//!                       and retransmitted)
//! retries=2             retry budget per superstep — and per-batch
//!                       retransmit budget (default 3)
//! backoff=500us         base of the capped exponential backoff
//! cap=16ms              backoff cap
//! detector=50ms         failure-detector deadline: a straggler that delays
//!                       the barrier by at least this much simulated time
//!                       is declared permanently dead (default 100ms)
//! seed=42               PRNG seed for corruption nonces and channel draws
//! ```
//!
//! Each kind is one row of the `KINDS` table: its label, what it targets
//! (a worker, whoever leads, or the durable store), what may follow its
//! target, the barrier stage it fires at and its default repeat count.
//! The parser and the injector read nothing else about a kind.
//!
//! Durations accept `ns`, `us`, `ms` and `s` suffixes, with optional
//! fractional values (`1.5ms`); bare numbers are rejected as ambiguous.
//! Plans are validated when the cluster is built — out-of-range workers,
//! steps beyond [`MAX_PLAUSIBLE_STEP`], duplicate specs, a `rejoin` with no
//! preceding `die`, or a plan that kills every worker all fail fast.

use flash_graph::hash::Fnv1a;
use flash_graph::Prng;
use std::time::Duration;

/// Default retry budget per superstep before recovery gives up.
pub const DEFAULT_MAX_RETRIES: u32 = 3;
/// Default base of the capped exponential retry backoff.
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Default backoff cap.
pub const DEFAULT_BACKOFF_CAP: Duration = Duration::from_millis(64);
/// Default PRNG seed for corruption nonces.
pub const DEFAULT_SEED: u64 = 0xF1A5;
/// Default straggler delay when a `straggle` spec omits one.
pub const DEFAULT_STRAGGLE_DELAY: Duration = Duration::from_millis(1);
/// Default failure-detector deadline: a worker whose simulated barrier
/// delay reaches this is declared permanently dead rather than merely slow.
pub const DEFAULT_DETECTOR_TIMEOUT: Duration = Duration::from_millis(100);
/// Largest superstep id a fault spec may target. Catalogue programs finish
/// in well under a thousand supersteps; a spec beyond this horizon would
/// silently never fire, so validation rejects it.
pub const MAX_PLAUSIBLE_STEP: u64 = 100_000;

/// What kind of failure a [`FaultSpec`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies mid-superstep: its compute output is lost at the
    /// barrier and the whole superstep must roll back (BSP recovery is
    /// all-or-nothing).
    Crash,
    /// The worker's serialized sync payload is corrupted in transit. The
    /// receiver detects the damage by recomputing the payload checksum,
    /// and the superstep rolls back exactly like a crash.
    CorruptSync,
    /// The worker straggles: its compute phase is charged an extra delay,
    /// visible as barrier skew. No recovery is needed — unless the delay
    /// reaches the failure-detector deadline, in which case the worker is
    /// declared permanently dead.
    Straggler,
    /// The worker dies permanently: the fault fires on *every* attempt, so
    /// once the retry budget is spent the cluster declares the worker dead
    /// and re-homes its partition onto the survivors (elastic membership).
    Die,
    /// A previously dead worker comes back at the scripted superstep and
    /// reclaims its home partition. Must be paired with an earlier `die`
    /// on the same worker.
    Rejoin,
    /// The lossy channel silently discards every cross-host batch the
    /// worker sends at the scripted superstep. The `:xN` repeat count is
    /// the number of *transmission attempts* swallowed per batch, so a
    /// count above the retry budget exhausts delivery.
    Drop,
    /// Every cross-host batch the worker sends at the scripted superstep
    /// is delivered twice; the receive-side dedup window discards the
    /// extra copy.
    Duplicate,
    /// Every cross-host batch the worker sends at the scripted superstep
    /// is delayed past the ack deadline and arrives a round late, racing
    /// its own retransmission; the dedup window keeps exactly one copy.
    Reorder,
    /// The host currently leading the replicated control plane crashes
    /// permanently at the scripted superstep, forcing the surviving hosts
    /// to elect a new leader mid-run. The spec names no worker: it targets
    /// *whoever leads* when it fires (DESIGN.md §14).
    Leader,
    /// The worker lies: its sync payload checksum does not match what the
    /// replica quorum recomputes. Detection accuses the worker and
    /// escalates to a death declaration committed through the consensus
    /// log — the byzantine fault of DESIGN.md §14.
    Lie,
    /// The durable checkpoint store's generation commit due at the
    /// scripted superstep fails: it is skipped (and never fed to the
    /// consensus log) and retried at the next superstep. At a step with no
    /// commit due it hits nothing. Names no worker — it targets the store
    /// itself (DESIGN.md §15).
    Ioerr,
    /// The newest *committed* checkpoint generation is truncated at the
    /// end of the scripted superstep — two thirds in by default, or at
    /// the scripted byte. Any cut condemns the generation: the scrub pass
    /// falls back to the previous one.
    Torn,
    /// One byte of the newest committed checkpoint generation is flipped
    /// (seeded nonzero mask) after the scripted superstep's commit —
    /// at-rest corruption detected by the scrub pass via the header checksum.
    Bitrot,
    /// The process is killed at the scripted superstep, before its
    /// commit: the store writes nothing more and ignores later damage,
    /// and the run ends in [`RuntimeError::Halted`](crate::RuntimeError),
    /// its in-memory result lost. A resume re-executes from the store.
    Halt,
}

/// What a kind's spec targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    /// The worker the spec names, `:wW`.
    Worker,
    /// Whichever host leads the control plane when the spec fires.
    Leader,
    /// The durable checkpoint store.
    Store,
}

/// What a spec may carry after its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tail {
    Nothing,
    /// `:xN`, the number of attempts the fault fires on.
    Repeat,
    /// `:xN` and a delay, each optional.
    RepeatOrDelay,
    /// One `:bB`, the byte offset of the damage.
    Byte,
}

impl Tail {
    fn describe(self) -> &'static str {
        match self {
            Tail::Nothing => "nothing",
            Tail::Repeat => "only :xN",
            Tail::RepeatOrDelay => "only :xN or a delay",
            Tail::Byte => "only one :bB",
        }
    }
}

/// The barrier stage a kind fires at; the injector serves one stage per
/// call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// After compute: crashes, corruption and deaths, which roll back.
    Failure,
    /// After compute, first: delays charged into compute time.
    Straggler,
    /// After compute: the leading host crashes.
    Leader,
    /// After compute: a worker's checksum disagrees with the quorum.
    Lie,
    /// Step entry: a dead worker returns.
    Rejoin,
    /// Each message round, on a host that sends.
    Channel,
    /// The checkpoint stage: the durable store.
    Disk,
}

/// Everything the grammar and the injector know about one kind.
struct KindRow {
    kind: FaultKind,
    label: &'static str,
    target: Target,
    tail: Tail,
    stage: Stage,
    /// Attempts a spec fires on unless it says `:xN`: every attempt for
    /// `die`, which is what makes the loss permanent.
    times: u32,
}

/// One row per [`FaultKind`], in declaration order.
#[rustfmt::skip]
const KINDS: [KindRow; 14] = {
    use {FaultKind as K, Stage as S, Tail as T, Target::*};
    const fn row(kind: K, label: &'static str, target: Target, tail: T, stage: S, times: u32) -> KindRow {
        KindRow { kind, label, target, tail, stage, times }
    }
    [
        row(K::Crash,       "crash",    Worker, T::Repeat,        S::Failure,   1),
        row(K::CorruptSync, "corrupt",  Worker, T::Repeat,        S::Failure,   1),
        row(K::Straggler,   "straggle", Worker, T::RepeatOrDelay, S::Straggler, 1),
        row(K::Die,         "die",      Worker, T::Nothing,       S::Failure,   u32::MAX),
        row(K::Rejoin,      "rejoin",   Worker, T::Nothing,       S::Rejoin,    1),
        row(K::Drop,        "drop",     Worker, T::Repeat,        S::Channel,   1),
        row(K::Duplicate,   "dup",      Worker, T::Nothing,       S::Channel,   1),
        row(K::Reorder,     "reorder",  Worker, T::Nothing,       S::Channel,   1),
        row(K::Leader,      "leader",   Leader, T::Nothing,       S::Leader,    1),
        row(K::Lie,         "lie",      Worker, T::Nothing,       S::Lie,       1),
        row(K::Ioerr,       "ioerr",    Store,  T::Nothing,       S::Disk,      1),
        row(K::Torn,        "torn",     Store,  T::Byte,          S::Disk,      1),
        row(K::Bitrot,      "bitrot",   Store,  T::Byte,          S::Disk,      1),
        row(K::Halt,        "halt",     Store,  T::Nothing,       S::Disk,      1),
    ]
};

// `FaultKind::row` indexes the table by discriminant.
const _: () = {
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i].kind as usize == i, "KINDS is out of order");
        i += 1;
    }
};

impl FaultKind {
    fn row(self) -> &'static KindRow {
        &KINDS[self as usize]
    }

    /// Stable label used in trace events and the CLI grammar.
    pub fn label(self) -> &'static str {
        self.row().label
    }

    /// Whether this kind targets the message channel (handled by the
    /// reliable-delivery transport) rather than worker compute state
    /// (handled by checkpoint/rollback recovery).
    pub fn is_channel(self) -> bool {
        self.row().stage == Stage::Channel
    }

    /// Whether this kind targets the durable checkpoint store (handled by
    /// [`crate::durable`]) rather than a worker or the channel.
    pub fn is_disk(self) -> bool {
        self.row().target == Target::Store
    }

    /// Whether the spec names no worker: `leader@` targets whoever leads,
    /// and the disk kinds target the durable store itself.
    pub fn is_workerless(self) -> bool {
        self.row().target != Target::Worker
    }
}

/// One scripted fault.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Global superstep id (trace step id) the fault fires at.
    pub step: u64,
    /// Worker the fault targets.
    pub worker: usize,
    /// Failure kind.
    pub kind: FaultKind,
    /// How many attempts of that superstep the fault fires on, at least
    /// `1` (the grammar rejects `:x0`). `1` means the first attempt only,
    /// so a single retry recovers; values larger than the retry budget
    /// exhaust it and degrade the run to a clean
    /// [`RuntimeError::RecoveryExhausted`](crate::RuntimeError).
    pub times: u32,
    /// Extra compute delay for [`FaultKind::Straggler`]; ignored for other
    /// kinds.
    pub delay: Duration,
    /// Byte offset the [`FaultKind::Bitrot`] flip or the
    /// [`FaultKind::Torn`] cut lands on (clamped into the generation file
    /// at fire time; `0` on a `torn` means the default cut two thirds
    /// in); ignored for other kinds.
    pub byte: u64,
}

impl FaultSpec {
    /// The spec's kind, step and target as the grammar writes them:
    /// `crash@3:w1`, but `leader@2` and `ioerr@1`, which name no worker.
    fn quoted(&self) -> String {
        let row = self.kind.row();
        match row.target {
            Target::Worker => format!("{}@{}:w{}", row.label, self.step, self.worker),
            Target::Leader | Target::Store => format!("{}@{}", row.label, self.step),
        }
    }
}

/// A scripted fault-injection plan plus the recovery policy.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// The scripted faults, in no particular order.
    pub specs: Vec<FaultSpec>,
    /// Retry budget per superstep before recovery degrades to a clean
    /// error.
    pub max_retries: u32,
    /// Base of the capped exponential retry backoff. Backoff is *charged*
    /// as simulated time, never slept.
    pub backoff_base: Duration,
    /// Upper bound on a single retry's backoff.
    pub backoff_cap: Duration,
    /// Seed for the xoshiro PRNG generating corruption nonces (and
    /// [`FaultPlan::chaos`] schedules).
    pub seed: u64,
    /// Failure-detector deadline: a straggler whose simulated delay reaches
    /// this is declared permanently dead at the barrier instead of merely
    /// charging skew.
    pub detector_timeout: Duration,
    /// Probabilistic channel loss: every cross-host batch transmission is
    /// dropped with this probability (seeded, so deterministic per plan).
    pub loss: f64,
    /// Probabilistic duplication: every delivered batch is delivered a
    /// second time with this probability.
    pub dup_rate: f64,
    /// Probabilistic wire corruption: every delivered batch copy arrives
    /// with a flipped checksum with this probability. The receiver detects
    /// the mismatch, nacks, and the sender retransmits.
    pub corrupt_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            specs: Vec::new(),
            max_retries: DEFAULT_MAX_RETRIES,
            backoff_base: DEFAULT_BACKOFF_BASE,
            backoff_cap: DEFAULT_BACKOFF_CAP,
            seed: DEFAULT_SEED,
            detector_timeout: DEFAULT_DETECTOR_TIMEOUT,
            loss: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// Parses the plan grammar described in the module docs.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some((key, value)) = part.split_once('=') {
                let value = value.trim();
                match key.trim() {
                    "retries" => {
                        plan.max_retries = value
                            .parse()
                            .map_err(|_| format!("invalid retries value {value:?}"))?;
                    }
                    "backoff" => plan.backoff_base = parse_duration(value)?,
                    "cap" => plan.backoff_cap = parse_duration(value)?,
                    "detector" => plan.detector_timeout = parse_duration(value)?,
                    "seed" => {
                        plan.seed = value
                            .parse()
                            .map_err(|_| format!("invalid seed value {value:?}"))?;
                    }
                    "loss" => plan.loss = parse_rate("loss", value)?,
                    "dupRate" => plan.dup_rate = parse_rate("dupRate", value)?,
                    "corruptRate" => plan.corrupt_rate = parse_rate("corruptRate", value)?,
                    other => return Err(format!("unknown fault-plan option {other:?}")),
                }
                continue;
            }
            plan.specs.push(parse_spec(part)?);
        }
        Ok(plan)
    }

    /// A randomized plan drawn from the workspace PRNG: one crash, one
    /// corrupted sync buffer and one straggler, each at a superstep in
    /// `1..max_step` on a worker in `0..workers`. Deterministic in `seed`.
    pub fn chaos(seed: u64, workers: usize, max_step: u64) -> FaultPlan {
        let mut prng = Prng::seed_from_u64(seed);
        let workers = workers.max(1) as u64;
        let span = max_step.max(2);
        let mut draw = |kind: FaultKind| FaultSpec {
            step: 1 + prng.next_u64() % (span - 1),
            worker: (prng.next_u64() % workers) as usize,
            kind,
            times: 1,
            delay: Duration::from_micros(100 + prng.next_u64() % 900),
            byte: 0,
        };
        FaultPlan {
            specs: vec![
                draw(FaultKind::Crash),
                draw(FaultKind::CorruptSync),
                draw(FaultKind::Straggler),
            ],
            seed,
            ..FaultPlan::default()
        }
    }

    /// The simulated backoff charged before retry number `attempt`
    /// (0-based): `base * 2^attempt`, capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(factor)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
    }

    /// Whether the plan exercises the channel at all — scripted
    /// drop/dup/reorder specs or a nonzero probabilistic rate. The cluster
    /// uses this to decide whether delivery bookkeeping is worth charging.
    pub fn has_channel_faults(&self) -> bool {
        self.specs.iter().any(|s| s.kind.is_channel())
            || self.loss > 0.0
            || self.dup_rate > 0.0
            || self.corrupt_rate > 0.0
    }

    /// Validates the plan against a cluster of `workers` workers. Called
    /// when the plan is attached so a spec that could never fire (or would
    /// kill the whole cluster) fails fast instead of silently doing
    /// nothing. Checks: worker indices in range, steps within
    /// [`MAX_PLAUSIBLE_STEP`], no duplicate `(kind, step, worker)` specs,
    /// every `rejoin` paired with an earlier `die` on the same worker, and
    /// at least one worker never targeted by a `die`.
    pub fn validate(&self, workers: usize) -> Result<(), String> {
        for (i, s) in self.specs.iter().enumerate() {
            if s.worker >= workers {
                return Err(format!(
                    "{} targets worker {} but the cluster has only {workers} workers",
                    s.quoted(),
                    s.worker
                ));
            }
            if s.step > MAX_PLAUSIBLE_STEP {
                return Err(format!(
                    "{} is beyond the plausible superstep horizon ({MAX_PLAUSIBLE_STEP}) \
                     and would never fire",
                    s.quoted()
                ));
            }
            if self.specs[..i]
                .iter()
                .any(|p| p.kind == s.kind && p.step == s.step && p.worker == s.worker)
            {
                return Err(format!("duplicate fault spec {}", s.quoted()));
            }
            if s.kind == FaultKind::Rejoin
                && !self
                    .specs
                    .iter()
                    .any(|p| p.kind == FaultKind::Die && p.worker == s.worker && p.step < s.step)
            {
                return Err(format!(
                    "{} has no earlier die@ spec for worker {}",
                    s.quoted(),
                    s.worker
                ));
            }
        }
        let dying: Vec<usize> = {
            let mut ws: Vec<usize> = self
                .specs
                .iter()
                .filter(|s| s.kind == FaultKind::Die)
                .map(|s| s.worker)
                .collect();
            ws.sort_unstable();
            ws.dedup();
            ws
        };
        // Every `leader@` crash kills one live host, so together with the
        // scripted deaths the plan must still leave at least one survivor.
        let leader_kills = self
            .specs
            .iter()
            .filter(|s| s.kind == FaultKind::Leader)
            .count();
        if (!dying.is_empty() || leader_kills > 0) && dying.len() + leader_kills >= workers {
            return Err("the plan kills every worker; at least one must survive".into());
        }
        for (name, rate) in [
            ("loss", self.loss),
            ("dupRate", self.dup_rate),
            ("corruptRate", self.corrupt_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!(
                    "{name}={rate} is not a probability; rates must lie in [0, 1]"
                ));
            }
        }
        Ok(())
    }
}

/// Parses a probabilistic channel-fault rate in `[0, 1]`.
fn parse_rate(name: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = value
        .parse()
        .map_err(|_| format!("invalid {name} value {value:?}"))?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "{name}={value} is not a probability; rates must lie in [0, 1]"
        ));
    }
    Ok(rate)
}

fn parse_spec(part: &str) -> Result<FaultSpec, String> {
    let (label, rest) = part
        .split_once('@')
        .ok_or_else(|| format!("fault spec {part:?} needs '@' (e.g. crash@3:w1)"))?;
    let label = label.trim();
    let row = KINDS.iter().find(|r| r.label == label).ok_or_else(|| {
        let known: Vec<&str> = KINDS.iter().map(|r| r.label).collect();
        format!(
            "unknown fault kind {label:?} (expected one of {})",
            known.join(", ")
        )
    })?;
    let mut segs = rest.split(':').map(str::trim);
    let step_s = segs.next().unwrap_or_default();
    let step: u64 = step_s
        .parse()
        .map_err(|_| format!("invalid superstep {step_s:?} in fault spec {part:?}"))?;
    let mut spec = FaultSpec {
        step,
        worker: 0,
        kind: row.kind,
        times: row.times,
        delay: DEFAULT_STRAGGLE_DELAY,
        byte: 0,
    };
    if row.target == Target::Worker {
        let worker_s = segs.next().ok_or_else(|| {
            format!("fault spec {part:?} needs a worker (e.g. {label}@{step}:w1)")
        })?;
        spec.worker = worker_s
            .strip_prefix('w')
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("invalid worker {worker_s:?} in fault spec {part:?}"))?;
    }
    for (i, seg) in segs.enumerate() {
        match (row.tail, seg.strip_prefix('x'), seg.strip_prefix('b')) {
            (Tail::Repeat | Tail::RepeatOrDelay, Some(n), _) => {
                spec.times = n.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!(
                        "invalid repeat count {seg:?} in fault spec {part:?}: \
                             a fault fires on at least 1 attempt"
                    )
                })?;
            }
            (Tail::RepeatOrDelay, None, _) => spec.delay = parse_duration(seg)?,
            (Tail::Byte, _, Some(b)) if i == 0 => {
                spec.byte = b
                    .parse()
                    .map_err(|_| format!("invalid byte offset {seg:?} in fault spec {part:?}"))?;
            }
            _ => {
                return Err(format!(
                    "{label} takes {} after its target; {seg:?} does not apply in {part:?}",
                    row.tail.describe()
                ))
            }
        }
    }
    Ok(spec)
}

/// Parses `123us`, `5ms`, `2s`, `750ns` — optionally fractional, e.g.
/// `1.5ms` — into a [`Duration`]. A bare number is ambiguous and rejected
/// with an error naming the accepted suffixes.
fn parse_duration(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    let (digits, nanos_per_unit): (&str, f64) = if let Some(d) = text.strip_suffix("ns") {
        (d, 1.0)
    } else if let Some(d) = text.strip_suffix("us") {
        (d, 1_000.0)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, 1_000_000.0)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1_000_000_000.0)
    } else if text.parse::<f64>().is_ok() {
        return Err(format!(
            "duration {text:?} has no unit and is ambiguous; add one of the suffixes \
             ns, us, ms or s (e.g. \"{text}ms\")"
        ));
    } else {
        return Err(format!("duration {text:?} needs a ns/us/ms/s suffix"));
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration {text:?}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "duration {text:?} must be a finite, non-negative value"
        ));
    }
    let nanos = value * nanos_per_unit;
    if nanos > u64::MAX as f64 {
        return Err(format!("duration {text:?} overflows"));
    }
    Ok(Duration::from_nanos(nanos.round() as u64))
}

/// Runtime state of the injector: the plan plus per-spec fire counts and
/// the nonce PRNG. Owned by the cluster; `active` flips off after the
/// retry budget is exhausted so the rest of the run executes fault-free.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<u32>,
    prng: Prng,
    pub(crate) active: bool,
    /// Workers declared permanently dead: their remaining specs (except a
    /// `rejoin`) never fire — a dead worker cannot crash again.
    dead: Vec<bool>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan, workers: usize) -> Self {
        let fired = vec![0; plan.specs.len()];
        let prng = Prng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            fired,
            prng,
            active: true,
            dead: vec![false; workers],
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Suppresses all further specs (except `rejoin`) targeting `w`.
    pub(crate) fn mark_dead(&mut self, w: usize) {
        self.dead[w] = true;
    }

    /// Re-arms specs targeting `w` after a rejoin. The scripted death
    /// already happened — the returning worker is a fresh replacement — so
    /// `die` specs for `w` are spent rather than re-armed (they would
    /// otherwise re-fire forever).
    pub(crate) fn mark_alive(&mut self, w: usize) {
        self.dead[w] = false;
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if spec.worker == w && spec.kind == FaultKind::Die {
                self.fired[i] = spec.times;
            }
        }
    }

    /// The specs of `stage` that fire at `step`, each spending a fire. A
    /// spec fires at the first *eligible* superstep at or after its
    /// scripted step: global-reduce supersteps never ship vertex state and
    /// are skipped by the fault paths, so `corrupt@3` on a program whose
    /// superstep 3 is a fold lands on the next compute superstep instead.
    /// `ready(worker)` holds a spec back until its target can observe it:
    /// the channel stage passes whether the worker's host sends this
    /// round, so a spec stays armed instead of burning out unseen.
    ///
    /// The kind's row decides the rest. A dead worker's specs do not
    /// fire, except a `rejoin` and the worker-less kinds, whose worker
    /// field is a placeholder. A channel spec spends all its fires at
    /// once: the transport replays it across transmission attempts itself.
    pub(crate) fn take(
        &mut self,
        step: u64,
        stage: Stage,
        ready: impl Fn(usize) -> bool,
    ) -> Vec<FaultSpec> {
        if !self.active {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (spec, fired) in self.plan.specs.iter().zip(&mut self.fired) {
            let row = spec.kind.row();
            let channel = row.stage == Stage::Channel;
            let alive = row.target != Target::Worker
                || row.stage == Stage::Rejoin
                || !self.dead[spec.worker];
            if row.stage == stage
                && spec.step <= step
                && *fired < spec.times
                && alive
                && ready(spec.worker)
            {
                *fired = if channel { spec.times } else { *fired + 1 };
                out.push(spec.clone());
            }
        }
        out
    }

    /// How many specs have not fired once: scripted after the last
    /// eligible superstep, or cut off when recovery gave up. A resumed run
    /// counts the specs it drained as fired.
    pub(crate) fn unfired(&self) -> u64 {
        self.fired.iter().filter(|&&n| n == 0).count() as u64
    }

    /// Consumes every spec scripted strictly before `step` without firing
    /// it. A resumed run re-executing up to its loaded checkpoint uses
    /// this so faults that fired before that checkpoint in the original
    /// run do not re-fire at a later, wrong superstep.
    pub(crate) fn drain_through(&mut self, step: u64) {
        for (i, spec) in self.plan.specs.iter().enumerate() {
            if spec.step < step {
                self.fired[i] = spec.times;
            }
        }
    }

    /// A nonzero value XOR-ed into a transmitted checksum to simulate
    /// in-flight corruption (nonzero guarantees the mismatch is
    /// detectable).
    pub(crate) fn corruption_nonce(&mut self) -> u64 {
        loop {
            let n = self.prng.next_u64();
            if n != 0 {
                return n;
            }
        }
    }
}

/// Multiplier of the wire checksums ([`payload_checksum`], `batch_checksum`):
/// 2^44 + 0x1b3, not FNV's 2^40 + 0x1b3. Their values show in
/// `worker_accused` trace events, so the constant they shipped with stays.
pub(crate) const WIRE_PRIME: u64 = 0x1000_0000_01b3;

/// Order-independent FNV-1a checksum over a sync payload's framing: each
/// `(vertex, byte-length)` record hashes independently and the digests
/// combine commutatively, so the iteration order of the staging maps does
/// not affect the result.
pub fn payload_checksum<I: IntoIterator<Item = (u32, usize)>>(items: I) -> u64 {
    let empty = Fnv1a::with_prime(WIRE_PRIME);
    items.into_iter().fold(empty.finish(), |sum, (v, len)| {
        let mut h = empty;
        h.update(&v.to_le_bytes());
        h.update(&(len as u64).to_le_bytes());
        sum.wrapping_add(h.finish())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fires `stage` at `step` with every target ready.
    fn fire(inj: &mut FaultInjector, step: u64, stage: Stage) -> Vec<FaultSpec> {
        inj.take(step, stage, |_| true)
    }

    #[test]
    fn parses_full_grammar() {
        let p =
            FaultPlan::parse("crash@3:w1,corrupt@5:w0:x2,straggle@2:w1:400us,retries=2").unwrap();
        assert_eq!(p.specs.len(), 3);
        assert_eq!(p.max_retries, 2);
        assert_eq!(
            p.specs[0],
            FaultSpec {
                step: 3,
                worker: 1,
                kind: FaultKind::Crash,
                times: 1,
                delay: DEFAULT_STRAGGLE_DELAY,
                byte: 0,
            }
        );
        assert_eq!(p.specs[1].times, 2);
        assert_eq!(p.specs[2].delay, Duration::from_micros(400));
        assert_eq!(p.specs[2].worker, 1);
    }

    /// One row per kind: its documented form, the spec that form parses
    /// to, and the segments it takes after its target (`x` a repeat
    /// count, `d` a delay, `b` a byte offset). Every other segment, and a
    /// second byte offset, is rejected.
    #[test]
    fn every_kind_parses_its_form_and_rejects_what_its_row_forbids() {
        use FaultKind::*;
        let spec = |kind, worker, times, delay, byte| FaultSpec {
            step: 3,
            worker,
            kind,
            times,
            delay,
            byte,
        };
        let (d, us400) = (DEFAULT_STRAGGLE_DELAY, Duration::from_micros(400));
        let cases = [
            ("crash@3:w1:x2", spec(Crash, 1, 2, d, 0), "x"),
            ("corrupt@3:w1:x2", spec(CorruptSync, 1, 2, d, 0), "x"),
            (
                "straggle@3:w1:400us:x2",
                spec(Straggler, 1, 2, us400, 0),
                "xd",
            ),
            ("die@3:w1", spec(Die, 1, u32::MAX, d, 0), ""),
            ("rejoin@3:w1", spec(Rejoin, 1, 1, d, 0), ""),
            ("drop@3:w1:x4", spec(Drop, 1, 4, d, 0), "x"),
            ("dup@3:w1", spec(Duplicate, 1, 1, d, 0), ""),
            ("reorder@3:w1", spec(Reorder, 1, 1, d, 0), ""),
            ("leader@3", spec(Leader, 0, 1, d, 0), ""),
            ("lie@3:w1", spec(Lie, 1, 1, d, 0), ""),
            ("ioerr@3", spec(Ioerr, 0, 1, d, 0), ""),
            ("torn@3:b2000", spec(Torn, 0, 1, d, 2000), "b"),
            ("bitrot@3:b17", spec(Bitrot, 0, 1, d, 17), "b"),
            ("halt@3", spec(Halt, 0, 1, d, 0), ""),
        ];
        assert_eq!(cases.len(), KINDS.len());
        for (form, want, takes) in cases {
            let plan = FaultPlan::parse(form).unwrap_or_else(|e| panic!("{form}: {e}"));
            assert_eq!(plan.specs, vec![want.clone()], "{form}");
            let label = want.kind.label();
            let target = if want.kind.is_workerless() {
                ""
            } else {
                // A worker kind needs its worker.
                assert!(FaultPlan::parse(&format!("{label}@3")).is_err(), "{label}");
                ":w1"
            };
            let bare = format!("{label}@3{target}");
            assert_eq!(FaultPlan::parse(&bare).unwrap().specs[0].kind, want.kind);
            for (seg, tag) in [
                ("x2", 'x'),
                ("x0", '-'),
                ("400us", 'd'),
                ("b5", 'b'),
                ("w2", '-'),
                ("7", '-'),
            ] {
                let text = format!("{bare}:{seg}");
                let ok = FaultPlan::parse(&text).is_ok();
                assert_eq!(ok, takes.contains(tag), "{text}");
            }
            assert!(
                FaultPlan::parse(&format!("{bare}:b1:b2")).is_err(),
                "{label}"
            );
            if takes.contains('x') {
                let e = FaultPlan::parse(&format!("{bare}:x0")).unwrap_err();
                assert!(e.contains("repeat count \"x0\""), "{e}");
            }
        }
        let e = FaultPlan::parse("explode@1:w0").unwrap_err();
        assert!(KINDS.iter().all(|r| e.contains(r.label)), "{e}");
    }

    #[test]
    fn parses_policy_options() {
        let p = FaultPlan::parse("backoff=500us,cap=16ms,seed=42").unwrap();
        assert_eq!(p.backoff_base, Duration::from_micros(500));
        assert_eq!(p.backoff_cap, Duration::from_millis(16));
        assert_eq!(p.seed, 42);
        assert!(p.specs.is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("explode@1:w0").is_err());
        assert!(FaultPlan::parse("crash@x:w0").is_err());
        assert!(FaultPlan::parse("crash@1").is_err());
        assert!(FaultPlan::parse("crash@1:3").is_err());
        assert!(FaultPlan::parse("straggle@1:w0:4parsecs").is_err());
        assert!(FaultPlan::parse("warp=9").is_err());
        // No alias for `straggle`, and a crash carries no delay.
        assert!(FaultPlan::parse("straggler@1:w0").is_err());
        assert!(FaultPlan::parse("crash@3:w1:400us").is_err());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = FaultPlan::default();
        assert_eq!(p.backoff(0), DEFAULT_BACKOFF_BASE);
        assert_eq!(p.backoff(1), DEFAULT_BACKOFF_BASE * 2);
        assert_eq!(p.backoff(2), DEFAULT_BACKOFF_BASE * 4);
        assert_eq!(p.backoff(40), DEFAULT_BACKOFF_CAP, "large attempts cap");
    }

    #[test]
    fn injector_fires_each_spec_times_then_stops() {
        let plan = FaultPlan::parse("crash@2:w0:x2").unwrap();
        let mut inj = FaultInjector::new(plan, 4);
        assert_eq!(fire(&mut inj, 1, Stage::Failure).len(), 0);
        assert_eq!(inj.unfired(), 1);
        assert_eq!(fire(&mut inj, 2, Stage::Failure).len(), 1);
        assert_eq!(inj.unfired(), 0, "one fire is enough");
        assert_eq!(fire(&mut inj, 2, Stage::Failure).len(), 1);
        assert_eq!(
            fire(&mut inj, 2, Stage::Failure).len(),
            0,
            "budget of 2 fires consumed"
        );
        inj.active = false;
        let plan2 = FaultPlan::parse("crash@5:w0").unwrap();
        let mut inj2 = FaultInjector::new(plan2, 4);
        inj2.active = false;
        assert!(
            fire(&mut inj2, 5, Stage::Failure).is_empty(),
            "inactive injector never fires"
        );
        assert_eq!(inj2.unfired(), 1);
    }

    #[test]
    fn stragglers_and_failures_are_disjoint() {
        let plan = FaultPlan::parse("crash@1:w0,straggle@1:w1:200us").unwrap();
        let mut inj = FaultInjector::new(plan, 4);
        let stragglers = fire(&mut inj, 1, Stage::Straggler);
        let failures = fire(&mut inj, 1, Stage::Failure);
        assert_eq!(stragglers.len(), 1);
        assert_eq!(stragglers[0].kind, FaultKind::Straggler);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FaultKind::Crash);
    }

    #[test]
    fn checksum_is_order_independent_and_length_sensitive() {
        let a = payload_checksum([(1u32, 8usize), (2, 16), (3, 8)]);
        let b = payload_checksum([(3u32, 8usize), (1, 8), (2, 16)]);
        assert_eq!(a, b);
        // Pinned: the value appears in `worker_accused` trace events.
        assert_eq!(a, 0xf71e_b2b3_90ef_c246);
        let c = payload_checksum([(1u32, 9usize), (2, 16), (3, 8)]);
        assert_ne!(a, c, "payload length is part of the frame");
        let d = payload_checksum(std::iter::empty::<(u32, usize)>());
        assert_ne!(a, d);
    }

    #[test]
    fn corruption_nonce_is_nonzero_and_deterministic() {
        let plan = FaultPlan::default();
        let mut i1 = FaultInjector::new(plan.clone(), 4);
        let mut i2 = FaultInjector::new(plan, 4);
        for _ in 0..16 {
            let n = i1.corruption_nonce();
            assert_ne!(n, 0);
            assert_eq!(n, i2.corruption_nonce(), "same seed, same nonces");
        }
    }

    #[test]
    fn parses_die_and_rejoin_specs() {
        let p = FaultPlan::parse("die@3:w1,rejoin@6:w1").unwrap();
        assert_eq!(p.specs.len(), 2);
        assert_eq!(p.specs[0].kind, FaultKind::Die);
        assert_eq!(p.specs[0].times, u32::MAX, "die fires on every attempt");
        assert_eq!(p.specs[1].kind, FaultKind::Rejoin);
        assert_eq!(p.specs[1].times, 1);
        // Membership events take no :xN or delay segment.
        assert!(FaultPlan::parse("die@3:w1:x2").is_err());
        assert!(FaultPlan::parse("rejoin@6:w1:500us").is_err());
    }

    #[test]
    fn parses_disk_fault_specs() {
        let p = FaultPlan::parse("ioerr@4,torn@6,bitrot@8:b17,torn@9:b2000").unwrap();
        assert_eq!(p.specs.len(), 4);
        assert_eq!(p.specs[0].kind, FaultKind::Ioerr);
        assert_eq!(p.specs[1].kind, FaultKind::Torn);
        assert_eq!(p.specs[1].byte, 0, "no offset: the default cut");
        assert_eq!(p.specs[2].kind, FaultKind::Bitrot);
        assert_eq!(p.specs[2].byte, 17);
        assert_eq!(p.specs[3].kind, FaultKind::Torn);
        assert_eq!(p.specs[3].byte, 2000);
        assert!(p
            .specs
            .iter()
            .all(|s| s.kind.is_disk() && s.kind.is_workerless()));
        assert!(!FaultKind::Crash.is_disk());
        // Disk faults name no worker and take no worker segment; bitrot's
        // byte offset must be b-prefixed.
        assert!(FaultPlan::parse("ioerr@4:w1").is_err());
        assert!(FaultPlan::parse("torn@4:x2").is_err());
        assert!(FaultPlan::parse("bitrot@4:17").is_err());
        assert!(FaultPlan::parse("bitrot@4:b1:b2").is_err());
        assert!(FaultPlan::parse("torn@4:17").is_err());
        assert!(FaultPlan::parse("torn@4:b1:b2").is_err());
        // A bitrot without an offset defaults to byte 0.
        assert_eq!(FaultPlan::parse("bitrot@4").unwrap().specs[0].byte, 0);
    }

    #[test]
    fn disk_faults_fire_once_and_ignore_dead_workers() {
        let plan = FaultPlan::parse("ioerr@2,bitrot@3:b9").unwrap();
        let mut inj = FaultInjector::new(plan, 4);
        inj.mark_dead(0); // the placeholder worker being dead is irrelevant
        assert!(fire(&mut inj, 1, Stage::Disk).is_empty());
        let fired = fire(&mut inj, 2, Stage::Disk);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, FaultKind::Ioerr);
        let fired = fire(&mut inj, 3, Stage::Disk);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].byte, 9);
        assert!(
            fire(&mut inj, 4, Stage::Disk).is_empty(),
            "each spec fires once"
        );
    }

    #[test]
    fn drain_through_spends_earlier_specs() {
        let plan = FaultPlan::parse("crash@2:w0,die@3:w1,crash@5:w0").unwrap();
        let mut inj = FaultInjector::new(plan, 4);
        inj.drain_through(4);
        assert!(
            fire(&mut inj, 4, Stage::Failure).is_empty(),
            "pre-frontier specs are spent"
        );
        assert_eq!(inj.unfired(), 1, "drained specs count as fired");
        let late = fire(&mut inj, 5, Stage::Failure);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].step, 5, "post-frontier specs still fire");
    }

    #[test]
    fn parses_detector_option() {
        let p = FaultPlan::parse("detector=50ms").unwrap();
        assert_eq!(p.detector_timeout, Duration::from_millis(50));
        assert_eq!(
            FaultPlan::default().detector_timeout,
            DEFAULT_DETECTOR_TIMEOUT
        );
    }

    #[test]
    fn validate_catches_unfireable_and_lethal_plans() {
        let ok = FaultPlan::parse("crash@1:w0,die@2:w1,rejoin@5:w1").unwrap();
        assert!(ok.validate(3).is_ok());
        // Worker out of range.
        let e = FaultPlan::parse("crash@1:w7").unwrap().validate(2);
        assert!(e.as_ref().is_err_and(|m| m.contains("w7")), "{e:?}");
        // Step beyond the horizon.
        let e = FaultPlan::parse("crash@999999:w0").unwrap().validate(2);
        assert!(e.as_ref().is_err_and(|m| m.contains("horizon")), "{e:?}");
        // Duplicate (kind, step, worker).
        let e = FaultPlan::parse("crash@1:w0,crash@1:w0")
            .unwrap()
            .validate(2);
        assert!(e.as_ref().is_err_and(|m| m.contains("duplicate")), "{e:?}");
        // Rejoin without an earlier die.
        let e = FaultPlan::parse("rejoin@5:w1").unwrap().validate(2);
        assert!(e.as_ref().is_err_and(|m| m.contains("die")), "{e:?}");
        let e = FaultPlan::parse("die@5:w1,rejoin@5:w1")
            .unwrap()
            .validate(2);
        assert!(e.is_err(), "rejoin must come strictly after the die");
        // Killing every worker.
        let e = FaultPlan::parse("die@1:w0,die@2:w1").unwrap().validate(2);
        assert!(e.as_ref().is_err_and(|m| m.contains("survive")), "{e:?}");
        assert!(FaultPlan::parse("die@1:w0,die@2:w1")
            .unwrap()
            .validate(3)
            .is_ok());
    }

    /// A validation error quotes the spec as the grammar writes it, so a
    /// worker-less kind's quote carries no worker and parses back.
    #[test]
    fn validate_quotes_specs_in_the_grammar() {
        for (text, quote) in [
            ("leader@2,leader@2", "leader@2"),
            ("ioerr@1,ioerr@1", "ioerr@1"),
            ("crash@1:w0,crash@1:w0", "crash@1:w0"),
        ] {
            let e = FaultPlan::parse(text).unwrap().validate(4).unwrap_err();
            assert_eq!(e, format!("duplicate fault spec {quote}"));
            let back = FaultPlan::parse(quote).unwrap_or_else(|e| panic!("{quote}: {e}"));
            assert_eq!(back.specs[0].quoted(), quote);
        }
        let e = FaultPlan::parse("bitrot@999999:b3").unwrap().validate(2);
        assert!(e.is_err_and(|m| m.starts_with("bitrot@999999 is beyond")));
    }

    #[test]
    fn bare_numbers_are_rejected_with_suffix_hint() {
        for text in ["1.5", "0", "42", "  7 "] {
            let e = parse_duration(text).expect_err("bare number must fail");
            assert!(e.contains("ns, us, ms or s"), "{e}");
        }
        assert!(parse_duration("1.5ms").is_ok());
        assert_eq!(
            parse_duration("1.5ms").unwrap(),
            Duration::from_micros(1500)
        );
        assert_eq!(parse_duration("750ns").unwrap(), Duration::from_nanos(750));
        assert_eq!(parse_duration("0.5us").unwrap(), Duration::from_nanos(500));
        assert!(parse_duration("-1ms").is_err());
        assert!(parse_duration("nanms").is_err());
    }

    #[test]
    fn durations_parse_at_every_granularity() {
        // Hand-rolled property test (workspace style): a random count of
        // every unit parses to exactly that duration.
        let mut prng = Prng::seed_from_u64(0xD17A);
        for _ in 0..96 {
            let n = prng.next_u64() % 10_000_000;
            let (text, d) = match prng.next_u64() % 4 {
                0 => (format!("{n}ns"), Duration::from_nanos(n)),
                1 => (format!("{n}us"), Duration::from_micros(n)),
                2 => (
                    format!("{}ms", n % 1_000_000),
                    Duration::from_millis(n % 1_000_000),
                ),
                _ => (
                    format!("{}s", n % 100_000),
                    Duration::from_secs(n % 100_000),
                ),
            };
            assert_eq!(parse_duration(&text), Ok(d), "{text}");
        }
        assert_eq!(parse_duration("0s"), Ok(Duration::ZERO));
    }

    #[test]
    fn injector_suppresses_dead_workers_until_rejoin() {
        let plan = FaultPlan::parse("crash@1:w0,crash@3:w0,straggle@4:w0:200us").unwrap();
        let mut inj = FaultInjector::new(plan, 2);
        assert_eq!(fire(&mut inj, 1, Stage::Failure).len(), 1);
        inj.mark_dead(0);
        assert!(
            fire(&mut inj, 3, Stage::Failure).is_empty(),
            "dead worker cannot crash"
        );
        assert!(
            fire(&mut inj, 4, Stage::Straggler).is_empty(),
            "dead worker cannot straggle"
        );
        inj.mark_alive(0);
        assert_eq!(
            fire(&mut inj, 3, Stage::Failure).len(),
            1,
            "specs re-arm after rejoin"
        );
    }

    #[test]
    fn rejoins_fire_once_even_for_dead_workers() {
        let plan = FaultPlan::parse("die@1:w1,rejoin@4:w1").unwrap();
        let mut inj = FaultInjector::new(plan, 2);
        let f = fire(&mut inj, 1, Stage::Failure);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FaultKind::Die);
        inj.mark_dead(1);
        assert!(fire(&mut inj, 3, Stage::Rejoin).is_empty());
        let r = fire(&mut inj, 4, Stage::Rejoin);
        assert_eq!(r.len(), 1, "rejoin fires despite the dead mark");
        assert_eq!(r[0].kind, FaultKind::Rejoin);
        assert!(
            fire(&mut inj, 5, Stage::Rejoin).is_empty(),
            "rejoin is one-shot"
        );
    }

    #[test]
    fn parses_channel_specs_and_rates() {
        let p = FaultPlan::parse("drop@3:w1,dup@4:w0,reorder@5:w2,loss=0.05,dupRate=0.01").unwrap();
        assert_eq!(p.specs.len(), 3);
        assert_eq!(p.specs[0].kind, FaultKind::Drop);
        assert_eq!(p.specs[0].times, 1);
        assert_eq!(p.specs[1].kind, FaultKind::Duplicate);
        assert_eq!(p.specs[2].kind, FaultKind::Reorder);
        assert_eq!(p.loss, 0.05);
        assert_eq!(p.dup_rate, 0.01);
        assert_eq!(p.corrupt_rate, 0.0);
        assert!(p.has_channel_faults());
        assert!(!FaultPlan::parse("crash@1:w0").unwrap().has_channel_faults());
        assert!(FaultPlan::parse("corruptRate=0.5")
            .unwrap()
            .has_channel_faults());
        // Drop takes an :xN attempt count; dup/reorder take no segment.
        assert_eq!(FaultPlan::parse("drop@3:w1:x4").unwrap().specs[0].times, 4);
        assert!(FaultPlan::parse("drop@3:w1:400us").is_err());
        assert!(FaultPlan::parse("dup@3:w1:x2").is_err());
        assert!(FaultPlan::parse("reorder@3:w1:400us").is_err());
        // Rates must be probabilities.
        assert!(FaultPlan::parse("loss=1.5").is_err());
        assert!(FaultPlan::parse("dupRate=-0.1").is_err());
        assert!(FaultPlan::parse("corruptRate=nan").is_err());
        let q = FaultPlan::parse("drop@3:w1:x4,corruptRate=0.25").unwrap();
        assert_eq!((q.specs[0].times, q.corrupt_rate), (4, 0.25));
    }

    #[test]
    fn channel_faults_wait_for_a_sending_round() {
        let plan = FaultPlan::parse("drop@2:w1,dup@2:w0").unwrap();
        let mut inj = FaultInjector::new(plan, 3);
        assert!(
            fire(&mut inj, 1, Stage::Channel).is_empty(),
            "not armed yet"
        );
        // Worker 1 sends nothing this round: its spec stays armed.
        let fired = inj.take(2, Stage::Channel, |w| w == 0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, FaultKind::Duplicate);
        // Next round worker 1 sends — the drop fires now, and only once.
        let fired = fire(&mut inj, 3, Stage::Channel);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, FaultKind::Drop);
        assert!(
            fire(&mut inj, 4, Stage::Channel).is_empty(),
            "fully consumed"
        );
    }

    #[test]
    fn channel_faults_never_surface_as_failures() {
        let plan = FaultPlan::parse("drop@1:w0,dup@1:w1,reorder@1:w2,crash@1:w0").unwrap();
        let mut inj = FaultInjector::new(plan, 3);
        let failures = fire(&mut inj, 1, Stage::Failure);
        assert_eq!(failures.len(), 1, "only the crash rolls the step back");
        assert_eq!(failures[0].kind, FaultKind::Crash);
    }

    #[test]
    fn parses_leader_and_lie_specs() {
        let p = FaultPlan::parse("leader@4,lie@5:w2").unwrap();
        assert_eq!(p.specs.len(), 2);
        assert_eq!(p.specs[0].kind, FaultKind::Leader);
        assert_eq!(p.specs[0].step, 4);
        assert_eq!(p.specs[0].times, 1, "a leader crash fires once");
        assert_eq!(p.specs[1].kind, FaultKind::Lie);
        assert_eq!(p.specs[1].worker, 2);
        assert_eq!(p.specs[0].worker, 0, "leader names no worker");
        // `leader` names no worker; `lie` requires one; neither takes an
        // extra segment.
        assert!(FaultPlan::parse("leader@4:w1").is_err());
        assert!(FaultPlan::parse("leader@4:x2").is_err());
        assert!(FaultPlan::parse("lie@5").is_err());
        assert!(FaultPlan::parse("lie@5:w2:x2").is_err());
        assert!(FaultPlan::parse("lie@5:w2:400us").is_err());
    }

    #[test]
    fn validate_counts_leader_crashes_as_kills() {
        let p = FaultPlan::parse("leader@2,die@3:w1").unwrap();
        assert!(p.validate(3).is_ok());
        assert!(
            p.validate(2).is_err(),
            "leader crash + die would kill both workers"
        );
        assert!(FaultPlan::parse("leader@2").unwrap().validate(1).is_err());
        assert!(FaultPlan::parse("leader@2").unwrap().validate(2).is_ok());
        // Duplicate leader specs at the same step are still caught.
        assert!(FaultPlan::parse("leader@2,leader@2")
            .unwrap()
            .validate(4)
            .is_err());
        assert!(FaultPlan::parse("leader@2,leader@5")
            .unwrap()
            .validate(4)
            .is_ok());
    }

    #[test]
    fn injector_fires_leader_crashes_and_liars() {
        let plan = FaultPlan::parse("leader@2,lie@3:w1").unwrap();
        let mut inj = FaultInjector::new(plan, 4);
        assert!(fire(&mut inj, 1, Stage::Leader).is_empty(), "not armed yet");
        assert!(fire(&mut inj, 2, Stage::Lie).is_empty());
        assert_eq!(fire(&mut inj, 2, Stage::Leader).len(), 1);
        assert!(fire(&mut inj, 3, Stage::Leader).is_empty(), "one-shot");
        let liars = fire(&mut inj, 3, Stage::Lie);
        assert_eq!(liars.iter().map(|s| s.worker).collect::<Vec<_>>(), vec![1]);
        assert!(fire(&mut inj, 4, Stage::Lie).is_empty(), "one-shot");
        // Neither kind surfaces through the rollback-failure path.
        let plan = FaultPlan::parse("leader@1,lie@1:w0,crash@1:w2").unwrap();
        let mut inj = FaultInjector::new(plan, 4);
        let failures = fire(&mut inj, 1, Stage::Failure);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FaultKind::Crash);
        // A dead worker cannot lie.
        let plan = FaultPlan::parse("lie@3:w1").unwrap();
        let mut inj = FaultInjector::new(plan, 4);
        inj.mark_dead(1);
        assert!(
            fire(&mut inj, 3, Stage::Lie).is_empty(),
            "dead workers cannot lie"
        );
    }

    #[test]
    fn chaos_plan_is_deterministic_and_in_bounds() {
        let a = FaultPlan::chaos(7, 4, 10);
        let b = FaultPlan::chaos(7, 4, 10);
        assert_eq!(a, b);
        assert_eq!(a.specs.len(), 3);
        for s in &a.specs {
            assert!(s.worker < 4);
            assert!(s.step >= 1 && s.step < 10);
        }
        let c = FaultPlan::chaos(8, 4, 10);
        assert_ne!(a, c, "different seeds draw different schedules");
    }
}
