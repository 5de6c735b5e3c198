//! Cross-crate tests of the consensus-backed control plane: crashing the
//! elected leader (`leader@`) at any superstep must recover through
//! re-election with no lost epoch/checkpoint decisions, a lying worker
//! (`lie@`) must be pinned by the checksum quorum and escalated to a death
//! declaration, and every catalogue algorithm must stay **bit-identical**
//! to its clean run under both (the control-plane rows of the shared
//! sweep, `tests/sweep/mod.rs`) — while `ConsensusStats` proves the
//! replicated log actually carried the decisions. Election safety and log
//! matching are re-checked here as properties of the public
//! [`Consensus`] API, and losing the honest majority degrades to a typed
//! [`RuntimeError::QuorumLost`], never a panic.

mod sweep;

use flash_graph::generators;
use flash_obs::{CollectSink, EventKind, Json, Sink};
use flash_runtime::{
    ClusterConfig, Consensus, ConsensusStats, FaultPlan, NetworkModel, RuntimeError,
};
use std::sync::Arc;

fn graph() -> Arc<flash_graph::Graph> {
    Arc::new(generators::erdos_renyi(48, 160, 11))
}

fn config(plan: &str) -> ClusterConfig {
    ClusterConfig::with_workers(4)
        .sequential()
        .network(NetworkModel::ten_gbe())
        .faults(FaultPlan::parse(plan).expect("plan parses"))
}

/// Runs BFS under a fault plan and returns its result vector plus the
/// run's counters.
fn bfs(cfg: ClusterConfig) -> (Vec<u32>, flash_runtime::RunStats) {
    let out = flash_algos::bfs::run(&graph(), cfg, 0).expect("run succeeds");
    (out.result, out.stats)
}

fn clean_bfs() -> (Vec<u32>, flash_runtime::RunStats) {
    bfs(ClusterConfig::with_workers(4)
        .sequential()
        .network(NetworkModel::ten_gbe()))
}

#[test]
fn leader_crash_at_every_superstep_recovers_through_reelection() {
    let (clean, clean_stats) = clean_bfs();
    for step in 0..clean_stats.num_supersteps() {
        let (result, stats) = bfs(config(&format!("leader@{step},retries=1")));
        assert_eq!(clean, result, "leader@{step}: result diverged");
        assert_eq!(
            clean_stats.num_supersteps(),
            stats.num_supersteps(),
            "leader@{step}: superstep count diverged"
        );
        let c = &stats.consensus;
        assert_eq!(c.leader_crashes, 1, "leader@{step}: {c:?}");
        assert_eq!(
            c.elections, 2,
            "leader@{step}: initial election plus one re-election: {c:?}"
        );
        assert_eq!(
            c.entries_appended, c.entries_committed,
            "leader@{step}: no decision may be lost: {c:?}"
        );
        assert!(c.entries_committed > 0, "leader@{step}: {c:?}");
        assert_eq!(
            stats.recovery.workers_lost, 1,
            "leader@{step}: the crashed leader host is declared dead"
        );
    }
    // The clean twin never built the consensus layer.
    assert_eq!(clean_stats.consensus, ConsensusStats::default());
}

#[test]
fn lying_worker_is_accused_and_declared_dead_bit_identically() {
    let (clean, _) = clean_bfs();
    let (result, stats) = bfs(config("lie@1:w2,retries=1").checkpoint_every(1));
    assert_eq!(clean, result, "a lying worker must not change results");
    let c = &stats.consensus;
    assert_eq!(c.accusations, 1, "{c:?}");
    assert!(
        c.entries_committed > 0,
        "the accusation escalates to a committed death declaration: {c:?}"
    );
    assert_eq!(stats.recovery.workers_lost, 1, "the liar is dead");
}

#[test]
fn every_algorithm_survives_leader_crash_and_lying_worker_bit_identically() {
    sweep::sweep(&[
        "leader-early",
        "leader@1",
        "leader-late",
        "double-leader",
        "lie",
        "lie+leader",
    ]);
}

#[test]
fn consensus_faults_compose_with_death_rejoin_and_channel_loss() {
    let (clean, _) = clean_bfs();
    let cfg =
        config("leader@1,die@2:w2,rejoin@4:w2,drop@3:w1,lie@5:w3,retries=6").checkpoint_every(1);
    let (result, stats) = bfs(cfg);
    assert_eq!(clean, result, "the combined plan must stay exact");
    let c = &stats.consensus;
    assert!(c.leader_crashes >= 1, "{c:?}");
    assert!(c.elections >= 2, "{c:?}");
    assert!(c.accusations >= 1, "{c:?}");
    assert_eq!(c.entries_appended, c.entries_committed, "{c:?}");
    assert!(stats.delivery.retransmits > 0, "the drop still happened");
    assert!(
        stats.recovery.workers_rejoined >= 1,
        "the rejoin still happened: {:?}",
        stats.recovery
    );
}

#[test]
fn consensus_events_stream_in_commit_order() {
    let sink = Arc::new(CollectSink::new());
    let cfg = config("leader@1,retries=1")
        .checkpoint_every(1)
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let _ = bfs(cfg);
    let events = sink.events();
    assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));

    let elections: Vec<(u64, usize)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::LeaderElected { term, leader, .. } => Some((*term, *leader)),
            _ => None,
        })
        .collect();
    assert_eq!(
        elections,
        vec![(1, 0), (2, 1)],
        "host 0 wins term 1, crashes, and the smallest survivor wins term 2"
    );

    // Log indices stream 1-based and strictly sequential, terms
    // non-decreasing (the Log Matching shape, observed from outside).
    let commits: Vec<(u64, u64, String)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::LogCommitted {
                term, index, kind, ..
            } => Some((*term, *index, kind.clone())),
            _ => None,
        })
        .collect();
    assert!(!commits.is_empty());
    for (i, (term, index, _)) in commits.iter().enumerate() {
        assert_eq!(*index, i as u64 + 1, "indices are 1-based and sequential");
        if i > 0 {
            assert!(commits[i - 1].0 <= *term, "terms never decrease");
        }
    }
    assert!(
        commits
            .iter()
            .any(|(term, _, kind)| kind == "death_declaration" && *term == 2),
        "the leader's death commits under the new term: {commits:?}"
    );
    assert!(
        commits.iter().any(|(_, _, k)| k == "checkpoint_commit"),
        "{commits:?}"
    );
    assert!(
        commits.iter().any(|(_, _, k)| k == "epoch_bump"),
        "{commits:?}"
    );

    // The re-election is announced before the death declaration commits.
    let reelect = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::LeaderElected { term: 2, .. }))
        .expect("a re-election");
    let death = events
        .iter()
        .position(
            |e| matches!(&e.kind, EventKind::LogCommitted { kind, .. } if kind == "death_declaration"),
        )
        .expect("a committed death declaration");
    assert!(
        reelect < death,
        "elect first, then commit under the new term"
    );
}

#[test]
fn consensus_counters_appear_in_the_stats_json() {
    let (_, stats) = bfs(config("leader@1,retries=1").checkpoint_every(1));
    let c = stats.consensus.to_json();
    for key in [
        "elections",
        "leader_crashes",
        "entries_appended",
        "entries_committed",
        "accusations",
        "election_net_ns",
        "commit_net_ns",
        "overhead_ns",
    ] {
        assert!(
            c.get(key).and_then(Json::as_u64).is_some(),
            "missing key {key}"
        );
    }
    for key in ["elections", "leader_crashes", "entries_committed"] {
        assert!(
            c.get(key).and_then(Json::as_u64).unwrap() > 0,
            "{key} must be nonzero after a leader crash"
        );
    }
    let summary = stats.summary_json();
    assert_eq!(
        summary.get("consensus"),
        Some(&stats.consensus.to_json()),
        "summary_json carries the consensus counters"
    );
}

#[test]
fn losing_the_honest_majority_is_a_typed_quorum_error() {
    let cfg = ClusterConfig::with_workers(2)
        .sequential()
        .network(NetworkModel::ten_gbe())
        .faults(FaultPlan::parse("lie@1:w1,retries=1").expect("plan parses"));
    let err = flash_algos::bfs::run(&graph(), cfg, 0).expect_err("1-1 checksum split");
    match err {
        RuntimeError::QuorumLost { step, live, needed } => {
            assert_eq!(step, 1);
            assert_eq!(live, 2);
            assert_eq!(needed, 2, "a strict majority of 2 needs 2 agreeing hosts");
        }
        other => panic!("expected QuorumLost, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("quorum lost"), "{msg}");
}

// --- properties of the consensus state machine itself -------------------

/// Election safety: across arbitrary membership churn, every term seats at
/// most one leader, terms strictly increase, and the winner is always a
/// live host.
#[test]
fn property_no_term_ever_seats_two_leaders() {
    let mut prng = flash_graph::Prng::seed_from_u64(0xC0FFEE);
    for _ in 0..100 {
        let mut cons = Consensus::new();
        let mut seated: Vec<(u64, usize)> = Vec::new();
        for _ in 0..24 {
            let live: Vec<usize> = (0..8)
                .filter(|_| prng.next_u64().is_multiple_of(2))
                .collect();
            if let Some(el) = cons.elect(&live) {
                assert!(live.contains(&el.leader), "the winner must be live");
                assert_eq!(el.votes, live.len(), "every live host grants its vote");
                assert!(
                    seated.iter().all(|&(t, _)| t < el.term),
                    "terms strictly increase, so no term is ever contested"
                );
                seated.push((el.term, el.leader));
            }
        }
    }
}

/// Log matching over the committed decisions: under random interleavings
/// of elections and commits, each commit takes the next 1-based index
/// under the current term, terms along the commits never decrease, and a
/// commit that misses its quorum leaves the commit index where it was.
#[test]
fn property_log_matching_survives_random_histories() {
    let mut prng = flash_graph::Prng::seed_from_u64(0xFACADE);
    for case in 0..100 {
        let mut cons = Consensus::new();
        cons.elect(&[0, 1, 2, 3]).expect("non-empty electorate");
        let mut last_term = 0;
        for op in 0..40 {
            if prng.next_u64().is_multiple_of(4) {
                let live: Vec<usize> = (0..8)
                    .filter(|_| prng.next_u64().is_multiple_of(2))
                    .collect();
                cons.elect(&live);
                continue;
            }
            let before = cons.committed();
            let voters = (prng.next_u64() % 5) as usize;
            match cons.commit(voters) {
                Ok(c) => {
                    assert_eq!(c.index, before + 1, "case {case} op {op}: index skipped");
                    assert_eq!(c.term, cons.term(), "case {case} op {op}: stale term");
                    assert!(c.term >= last_term, "case {case} op {op}: term regressed");
                    last_term = c.term;
                }
                Err(needed) => assert_eq!((voters, needed), (0, 1), "case {case} op {op}"),
            }
            assert_eq!(cons.committed(), before + u64::from(voters > 0));
        }
    }
}
