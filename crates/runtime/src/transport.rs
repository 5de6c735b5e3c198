//! Reliable delivery over the lossy simulated channel.
//!
//! The paper's MPI runtime assumes a perfect transport: every message
//! buffer that is sent arrives intact, exactly once, in order. This module
//! drops that assumption. A [`FaultPlan`] may script
//! channel faults (`drop@`, `dup@`, `reorder@`) or enable a seeded
//! probabilistic mode (`loss=`, `dupRate=`, `corruptRate=`), and the
//! [`Transport`] layers a classic ack/retransmit protocol on top so the
//! algorithm above still observes exactly-once delivery:
//!
//! * **Sequencing** — every cross-host batch carries a per-(sender,
//!   receiver) wire sequence number and an FNV checksum over its framing
//!   ([`batch_checksum`]).
//! * **Ack/nack + retransmit** — the sender waits one simulated message
//!   round for an ack at the superstep barrier; a lost or corrupted batch
//!   misses the deadline (or is nacked on a checksum mismatch) and is put
//!   back on the wire, up to the plan's `retries=` budget with the usual
//!   capped backoff machinery. Retransmissions are charged through
//!   [`NetworkModel::retransmit_cost`] so lossy runs honestly cost more.
//! * **Dedup window** — the receiver admits each (pair, sequence) at most
//!   once ([`DedupWindow`]); duplicated deliveries and late reordered
//!   originals racing their own retransmission are discarded.
//!
//! The cluster moves message buffers between worker heaps synchronously,
//! so payload *content* is never at risk — what the transport simulates is
//! the wire protocol that would have carried those buffers on a real
//! interconnect: which transmissions the channel ate, what the protocol
//! did about it, and what that cost. Exactly-once is therefore an
//! invariant the transport *verifies and accounts for*, and results stay
//! bit-identical under any valid channel-fault plan. The one exception is
//! an exhausted retransmit budget: like
//! [`RecoveryExhausted`](crate::RuntimeError::RecoveryExhausted), the run
//! degrades to a clean [`RuntimeError::DeliveryExhausted`] — never a
//! panic — and the rest of the run executes with the transport disabled.

use crate::error::RuntimeError;
use crate::fault::{FaultKind, FaultPlan, WIRE_PRIME};
use crate::netmodel::NetworkModel;
use crate::stats::DeliveryStats;
use flash_graph::hash::Fnv1a;
use flash_graph::Prng;
use flash_obs::EventKind;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Decorrelates the channel PRNG from the corruption-nonce stream drawn
/// from the same plan seed by [`FaultInjector`](crate::fault).
const CHANNEL_SEED_SALT: u64 = 0x05EA_1EDC_AB1E;

/// Per-(sender-host, receiver-host) receive window: admits each wire
/// sequence number at most once, tracking out-of-order arrivals ahead of
/// the next expected sequence in a sparse set.
#[derive(Debug, Clone)]
pub struct DedupWindow {
    /// Next in-order sequence number expected per pair.
    next_expected: Vec<u64>,
    /// Sequence numbers admitted ahead of `next_expected`, per pair.
    ahead: Vec<BTreeSet<u64>>,
}

impl DedupWindow {
    /// A window over `pairs` independent (sender, receiver) channels.
    pub fn new(pairs: usize) -> Self {
        DedupWindow {
            next_expected: vec![0; pairs],
            ahead: vec![BTreeSet::new(); pairs],
        }
    }

    /// Admits `seq` on channel `pair` if it has never been admitted
    /// before; returns `false` for a duplicate. Contiguous runs are
    /// compacted into `next_expected` so the ahead-set stays small.
    pub fn admit(&mut self, pair: usize, seq: u64) -> bool {
        let next = &mut self.next_expected[pair];
        if seq < *next {
            return false;
        }
        if seq == *next {
            *next += 1;
            while self.ahead[pair].remove(next) {
                *next += 1;
            }
            true
        } else {
            self.ahead[pair].insert(seq)
        }
    }
}

/// FNV-1a over a batch's wire framing: sender, receiver, sequence number,
/// message count and payload length. Order matters here (unlike
/// [`payload_checksum`](crate::fault::payload_checksum), which digests
/// per-vertex records commutatively) because the framing is a fixed-layout
/// header, not a set.
pub fn batch_checksum(sender: usize, receiver: usize, seq: u64, messages: u64, bytes: u64) -> u64 {
    let mut h = Fnv1a::with_prime(WIRE_PRIME);
    for word in [sender as u64, receiver as u64, seq, messages, bytes] {
        h.update(&word.to_le_bytes());
    }
    h.finish()
}

/// One message round's cross-host traffic, aggregated per
/// (sender-host, receiver-host) pair: `(messages, bytes)`. A `BTreeMap`
/// keeps the delivery order — and hence the PRNG draw order —
/// deterministic.
pub type RoundBatches = BTreeMap<(usize, usize), (u64, u64)>;

/// A scripted channel fault resolved to the sending host:
/// `(kind, sender_host, times)`. `times` is meaningful for
/// [`FaultKind::Drop`] only (transmission attempts swallowed per batch).
pub type ScriptedChannelFault = (FaultKind, usize, u32);

/// What one delivery round produced: trace events for the cluster to emit
/// (in protocol order) and at most one terminal failure.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Events in the order the protocol generated them.
    pub events: Vec<EventKind>,
    /// Set when a batch exhausted its retransmit budget; the transport is
    /// disabled and the run should degrade to this error.
    pub failure: Option<RuntimeError>,
}

/// The reliable-delivery state machine. Owned by the cluster whenever a
/// fault plan is attached; inert (cheap early-return) unless the plan
/// actually has channel faults.
#[derive(Debug)]
pub struct Transport {
    /// Seeded channel PRNG for the probabilistic loss/dup/corrupt draws.
    prng: Prng,
    loss: f64,
    dup_rate: f64,
    corrupt_rate: f64,
    /// Retransmit budget per batch (the plan's `retries=`).
    max_retries: u32,
    /// Physical host count; pairs are indexed `sender * hosts + receiver`.
    hosts: usize,
    /// Next wire sequence number per (sender, receiver) pair.
    next_seq: Vec<u64>,
    window: DedupWindow,
    /// Flips off after an exhausted retransmit budget so the rest of the
    /// run passes through untouched (mirrors `FaultInjector::active`).
    pub active: bool,
}

impl Transport {
    /// Builds the transport for a cluster of `hosts` physical hosts.
    pub fn new(plan: &FaultPlan, hosts: usize) -> Self {
        Transport {
            prng: Prng::seed_from_u64(plan.seed ^ CHANNEL_SEED_SALT),
            loss: plan.loss,
            dup_rate: plan.dup_rate,
            corrupt_rate: plan.corrupt_rate,
            max_retries: plan.max_retries,
            hosts,
            next_seq: vec![0; hosts * hosts],
            window: DedupWindow::new(hosts * hosts),
            active: true,
        }
    }

    /// A Bernoulli draw with probability `p` from the channel PRNG
    /// (53-bit mantissa, the standard `[0, 1)` construction).
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let unit = (self.prng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// A nonzero value XOR-ed into a wire checksum to model in-flight
    /// corruption detectably.
    fn corruption_nonce(&mut self) -> u64 {
        loop {
            let n = self.prng.next_u64();
            if n != 0 {
                return n;
            }
        }
    }

    /// Runs the ack/retransmit protocol for one message round of
    /// superstep `step`. `round` is `"upd"` (mirror→master) or `"sync"`
    /// (master→mirror); `scripted` carries the channel faults fired by the
    /// injector this round, resolved to sending hosts. Counters accumulate
    /// into `stats`; retransmission time is charged through `net`.
    ///
    /// Every batch either lands exactly once in the receive window or —
    /// after `1 + max_retries` lost transmissions — produces a
    /// [`RuntimeError::DeliveryExhausted`] in the outcome, disabling the
    /// transport for the rest of the run.
    pub fn deliver(
        &mut self,
        step: u64,
        round: &str,
        batches: &RoundBatches,
        scripted: &[ScriptedChannelFault],
        net: Option<&NetworkModel>,
        stats: &mut DeliveryStats,
    ) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        if !self.active || batches.is_empty() {
            return out;
        }
        for (&(sender, receiver), &(messages, bytes)) in batches {
            let pair = sender * self.hosts + receiver;
            let seq = self.next_seq[pair];
            self.next_seq[pair] += 1;
            let checksum = batch_checksum(sender, receiver, seq, messages, bytes);
            stats.batches_sent += 1;

            let drop_attempts = scripted
                .iter()
                .filter(|(k, h, _)| *k == FaultKind::Drop && *h == sender)
                .map(|&(_, _, times)| times)
                .max()
                .unwrap_or(0);
            let duplicate = scripted
                .iter()
                .any(|(k, h, _)| *k == FaultKind::Duplicate && *h == sender);
            let reorder = scripted
                .iter()
                .any(|(k, h, _)| *k == FaultKind::Reorder && *h == sender);

            let mut attempt: u32 = 0;
            let mut delivered = false;
            // A scripted reorder holds the original past the ack deadline;
            // it arrives at the *next* attempt, racing the retransmission.
            let mut in_flight_late = false;
            loop {
                if in_flight_late {
                    in_flight_late = false;
                    if self.window.admit(pair, seq) {
                        delivered = true;
                    } else {
                        stats.dedup_hits += 1;
                        out.events.push(EventKind::BatchDeduped {
                            step,
                            round: round.to_string(),
                            sender,
                            receiver,
                            seq_no: seq,
                        });
                    }
                }
                let scripted_drop = attempt < drop_attempts;
                if scripted_drop || self.chance(self.loss) {
                    stats.batches_dropped += 1;
                    out.events.push(EventKind::BatchDropped {
                        step,
                        round: round.to_string(),
                        sender,
                        receiver,
                        seq_no: seq,
                        attempt: u64::from(attempt),
                        cause: if scripted_drop { "drop" } else { "loss" }.to_string(),
                    });
                } else if reorder && attempt == 0 {
                    stats.batches_reordered += 1;
                    in_flight_late = true;
                } else if self.chance(self.corrupt_rate) {
                    // The wire flips the checksum; the receiver recomputes
                    // it over the framing, detects the mismatch and nacks.
                    let wire = checksum ^ self.corruption_nonce();
                    debug_assert_ne!(wire, checksum, "corruption must be detectable");
                    stats.checksum_failures += 1;
                    out.events.push(EventKind::BatchDropped {
                        step,
                        round: round.to_string(),
                        sender,
                        receiver,
                        seq_no: seq,
                        attempt: u64::from(attempt),
                        cause: "corrupt".to_string(),
                    });
                } else {
                    let copies = if (duplicate && attempt == 0) || self.chance(self.dup_rate) {
                        stats.batches_duplicated += 1;
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        if self.window.admit(pair, seq) {
                            delivered = true;
                        } else {
                            stats.dedup_hits += 1;
                            out.events.push(EventKind::BatchDeduped {
                                step,
                                round: round.to_string(),
                                sender,
                                receiver,
                                seq_no: seq,
                            });
                        }
                    }
                }
                if delivered {
                    break;
                }
                if attempt >= self.max_retries {
                    self.active = false;
                    out.failure = Some(RuntimeError::DeliveryExhausted {
                        step,
                        sender,
                        receiver,
                        attempts: attempt + 1,
                    });
                    return out;
                }
                attempt += 1;
                stats.retransmits += 1;
                stats.retransmitted_bytes += bytes;
                if let Some(net) = net {
                    stats.retransmit_net += net.retransmit_cost(bytes);
                }
                out.events.push(EventKind::BatchRetransmitted {
                    step,
                    round: round.to_string(),
                    sender,
                    receiver,
                    seq_no: seq,
                    attempt: u64::from(attempt),
                    bytes,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type BatchEntry = ((usize, usize), (u64, u64));

    fn batches(entries: &[BatchEntry]) -> RoundBatches {
        entries.iter().copied().collect()
    }

    fn clean_plan() -> FaultPlan {
        FaultPlan::default()
    }

    #[test]
    fn dedup_window_admits_each_seq_once() {
        let mut w = DedupWindow::new(2);
        assert!(w.admit(0, 0));
        assert!(!w.admit(0, 0), "same seq twice is a duplicate");
        assert!(w.admit(0, 2), "out of order is fine once");
        assert!(!w.admit(0, 2));
        assert!(w.admit(0, 1), "the gap fills in");
        assert!(!w.admit(0, 1), "compaction still remembers it");
        assert!(w.admit(0, 3), "next_expected advanced past the run");
        assert!(w.admit(1, 0), "pairs are independent");
    }

    #[test]
    fn checksum_depends_on_every_framing_field() {
        let base = batch_checksum(0, 1, 2, 3, 4);
        assert_ne!(base, batch_checksum(1, 1, 2, 3, 4));
        assert_ne!(base, batch_checksum(0, 2, 2, 3, 4));
        assert_ne!(base, batch_checksum(0, 1, 3, 3, 4));
        assert_ne!(base, batch_checksum(0, 1, 2, 4, 4));
        assert_ne!(base, batch_checksum(0, 1, 2, 3, 5));
        assert_eq!(base, batch_checksum(0, 1, 2, 3, 4), "deterministic");
        assert_eq!(base, 0x33aa_d3b1_8a01_afc1, "pinned wire value");
    }

    #[test]
    fn clean_channel_delivers_without_protocol_noise() {
        let mut t = Transport::new(&clean_plan(), 3);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((0, 1), (10, 80)), ((2, 0), (5, 40))]);
        let out = t.deliver(
            1,
            "upd",
            &b,
            &[],
            Some(&NetworkModel::ten_gbe()),
            &mut stats,
        );
        assert!(out.failure.is_none());
        assert!(out.events.is_empty());
        assert_eq!(stats.batches_sent, 2);
        assert_eq!(stats.batches_dropped, 0);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.dedup_hits, 0);
    }

    #[test]
    fn scripted_drop_recovers_via_retransmit() {
        let mut t = Transport::new(&clean_plan(), 2);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((0, 1), (10, 80))]);
        let scripted = [(FaultKind::Drop, 0, 1)];
        let net = NetworkModel::ten_gbe();
        let out = t.deliver(1, "upd", &b, &scripted, Some(&net), &mut stats);
        assert!(out.failure.is_none());
        assert_eq!(stats.batches_dropped, 1);
        assert_eq!(stats.retransmits, 1);
        assert_eq!(stats.retransmitted_bytes, 80);
        assert_eq!(stats.retransmit_net, net.retransmit_cost(80));
        let tags: Vec<_> = out.events.iter().map(EventKind::tag).collect();
        assert_eq!(tags, ["batch_dropped", "batch_retransmitted"]);
    }

    #[test]
    fn scripted_dup_is_deduped() {
        let mut t = Transport::new(&clean_plan(), 2);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((1, 0), (4, 32))]);
        let scripted = [(FaultKind::Duplicate, 1, 1)];
        let out = t.deliver(
            2,
            "sync",
            &b,
            &scripted,
            Some(&NetworkModel::ten_gbe()),
            &mut stats,
        );
        assert!(out.failure.is_none());
        assert_eq!(stats.batches_duplicated, 1);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.retransmits, 0);
        let tags: Vec<_> = out.events.iter().map(EventKind::tag).collect();
        assert_eq!(tags, ["batch_deduped"]);
    }

    #[test]
    fn scripted_reorder_races_its_retransmission() {
        let mut t = Transport::new(&clean_plan(), 2);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((0, 1), (4, 32))]);
        let scripted = [(FaultKind::Reorder, 0, 1)];
        let out = t.deliver(
            3,
            "upd",
            &b,
            &scripted,
            Some(&NetworkModel::ten_gbe()),
            &mut stats,
        );
        assert!(out.failure.is_none());
        assert_eq!(stats.batches_reordered, 1);
        assert_eq!(stats.retransmits, 1, "the ack deadline expired");
        assert_eq!(stats.dedup_hits, 1, "late original vs retransmission");
        let tags: Vec<_> = out.events.iter().map(EventKind::tag).collect();
        assert_eq!(tags, ["batch_retransmitted", "batch_deduped"]);
    }

    #[test]
    fn exhausted_budget_degrades_cleanly_and_disables_transport() {
        let plan = FaultPlan::parse("retries=2").unwrap();
        let mut t = Transport::new(&plan, 2);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((0, 1), (4, 32))]);
        let scripted = [(FaultKind::Drop, 0, 99)];
        let out = t.deliver(
            1,
            "upd",
            &b,
            &scripted,
            Some(&NetworkModel::ten_gbe()),
            &mut stats,
        );
        assert_eq!(
            out.failure,
            Some(RuntimeError::DeliveryExhausted {
                step: 1,
                sender: 0,
                receiver: 1,
                attempts: 3,
            })
        );
        assert!(!t.active, "transport disabled after exhaustion");
        assert_eq!(stats.batches_dropped, 3, "initial send + two retransmits");
        assert_eq!(stats.retransmits, 2, "retransmits bounded by the budget");
        // Disabled transport passes everything through untouched.
        let before = stats.clone();
        let out = t.deliver(
            2,
            "upd",
            &b,
            &[],
            Some(&NetworkModel::ten_gbe()),
            &mut stats,
        );
        assert!(out.failure.is_none() && out.events.is_empty());
        assert_eq!(stats, before);
    }

    #[test]
    fn probabilistic_loss_is_seeded_and_recovered() {
        let plan = FaultPlan::parse("loss=0.5,seed=11,retries=8").unwrap();
        let run = || {
            let mut t = Transport::new(&plan, 3);
            let mut stats = DeliveryStats::default();
            let b = batches(&[((0, 1), (4, 32)), ((1, 2), (2, 16)), ((2, 0), (8, 64))]);
            for step in 0..16 {
                let out = t.deliver(
                    step,
                    "upd",
                    &b,
                    &[],
                    Some(&NetworkModel::ten_gbe()),
                    &mut stats,
                );
                assert!(out.failure.is_none(), "retries=8 outlasts loss=0.5");
            }
            stats
        };
        let a = run();
        let c = run();
        assert_eq!(a, c, "same seed, same channel weather");
        assert!(a.batches_dropped > 0, "p=0.5 over 48 batches must drop");
        assert_eq!(a.batches_sent, 48);
        assert!(a.retransmits >= a.batches_dropped);
    }

    #[test]
    fn corrupt_rate_feeds_checksum_failures() {
        let plan = FaultPlan::parse("corruptRate=0.5,seed=3,retries=10").unwrap();
        let mut t = Transport::new(&plan, 2);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((0, 1), (4, 32))]);
        for step in 0..24 {
            let out = t.deliver(
                step,
                "sync",
                &b,
                &[],
                Some(&NetworkModel::ten_gbe()),
                &mut stats,
            );
            assert!(out.failure.is_none());
        }
        assert!(stats.checksum_failures > 0);
        assert_eq!(
            stats.retransmits, stats.checksum_failures,
            "every nack triggers exactly one retransmit here"
        );
        assert_eq!(stats.batches_dropped, 0, "corruption is not loss");
    }

    #[test]
    fn dup_rate_draws_are_deduped_not_redelivered() {
        let plan = FaultPlan::parse("dupRate=0.5,seed=9").unwrap();
        let mut t = Transport::new(&plan, 2);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((0, 1), (4, 32))]);
        for step in 0..24 {
            let out = t.deliver(
                step,
                "upd",
                &b,
                &[],
                Some(&NetworkModel::ten_gbe()),
                &mut stats,
            );
            assert!(out.failure.is_none());
        }
        assert!(stats.batches_duplicated > 0);
        assert_eq!(stats.dedup_hits, stats.batches_duplicated);
        assert_eq!(stats.retransmits, 0);
    }

    #[test]
    fn wire_sequences_advance_per_pair() {
        let mut t = Transport::new(&clean_plan(), 2);
        let mut stats = DeliveryStats::default();
        let b = batches(&[((0, 1), (1, 8)), ((1, 0), (1, 8))]);
        for step in 0..3 {
            t.deliver(
                step,
                "upd",
                &b,
                &[],
                Some(&NetworkModel::ten_gbe()),
                &mut stats,
            );
        }
        assert_eq!(t.next_seq[1], 3, "pair (0,1) advanced once per round");
        assert_eq!(t.next_seq[2], 3, "pair (1,0) advanced once per round");
        assert_eq!(t.next_seq[0], 0, "self-pair untouched");
    }
}
