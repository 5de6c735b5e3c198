//! Cross-crate tests of reliable delivery over the lossy simulated
//! channel: every scripted channel-fault kind (`drop@`, `dup@`,
//! `reorder@`) and the seeded probabilistic modes (`loss=`, `dupRate=`,
//! `corruptRate=`) must leave results **bit-identical** to the clean run
//! while `DeliveryStats` shows the ack/retransmit protocol actually did
//! the work; the protocol must stream its trace events in order, render
//! its counters into the stats JSON, compose with permanent worker death,
//! and degrade to a typed [`RuntimeError::DeliveryExhausted`] — never a
//! panic — when the retransmit budget runs out. Every catalogue algorithm
//! runs each scripted kind alone, the seeded loss and all of them
//! combined: the channel rows of the shared sweep (`tests/sweep/mod.rs`).

mod sweep;

use flash_graph::generators;
use flash_obs::{CollectSink, EventKind, Json, Sink};
use flash_runtime::{ClusterConfig, DeliveryStats, FaultPlan, NetworkModel, RuntimeError};
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
/// run's delivery counters.
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
fn scripted_drop_is_recovered_by_retransmission_bit_identically() {
    let (clean, clean_stats) = clean_bfs();
    let (result, stats) = bfs(config("drop@1:w1,retries=6"));
    assert_eq!(clean, result, "a dropped batch must not change results");
    assert_eq!(
        clean_stats.num_supersteps(),
        stats.num_supersteps(),
        "retransmission happens inside the round, not as an extra step"
    );
    let d = &stats.delivery;
    assert!(d.batches_sent > 0);
    assert!(d.batches_dropped > 0, "{d:?}");
    assert!(d.retransmits >= d.batches_dropped, "{d:?}");
    assert!(d.retransmitted_bytes > 0, "{d:?}");
    assert_eq!(d.dedup_hits, 0, "{d:?}");
    assert!(
        d.retransmit_net > std::time::Duration::ZERO,
        "network model charged for the re-shipped bytes"
    );
    // The clean twin paid nothing and tracked nothing.
    assert_eq!(clean_stats.delivery, DeliveryStats::default());
}

#[test]
fn scripted_duplicate_is_suppressed_by_the_dedup_window() {
    let (clean, _) = clean_bfs();
    let (result, stats) = bfs(config("dup@1:w1,retries=6"));
    assert_eq!(clean, result, "a duplicated batch must apply exactly once");
    let d = &stats.delivery;
    assert!(d.batches_duplicated > 0, "{d:?}");
    assert!(d.dedup_hits >= d.batches_duplicated, "{d:?}");
    assert_eq!(d.batches_dropped, 0, "{d:?}");
    assert_eq!(d.retransmits, 0, "duplicates need no retransmission: {d:?}");
}

#[test]
fn scripted_reorder_races_its_retransmission_and_loses() {
    let (clean, _) = clean_bfs();
    let (result, stats) = bfs(config("reorder@1:w1,retries=6"));
    assert_eq!(clean, result, "a late batch must apply exactly once");
    let d = &stats.delivery;
    assert!(d.batches_reordered > 0, "{d:?}");
    // The delayed original misses its ack deadline, so the sender
    // retransmits; whichever copy arrives second hits the dedup window.
    assert!(d.retransmits >= d.batches_reordered, "{d:?}");
    assert!(d.dedup_hits >= d.batches_reordered, "{d:?}");
    assert_eq!(d.batches_dropped, 0, "{d:?}");
}

#[test]
fn probabilistic_channel_is_exact_and_seed_deterministic() {
    let (clean, _) = clean_bfs();
    let plan = "loss=0.2,dupRate=0.1,corruptRate=0.1,seed=9,retries=8";
    let (result, stats) = bfs(config(plan));
    assert_eq!(
        clean, result,
        "a seeded lossy channel must not change results"
    );
    let d = &stats.delivery;
    assert!(d.batches_dropped > 0, "20% loss over many batches: {d:?}");
    assert!(d.retransmits > 0, "{d:?}");
    assert!(d.checksum_failures > 0, "10% corruption rate: {d:?}");
    // Same seed, same run: every counter reproduces bit-for-bit.
    let (result2, stats2) = bfs(config(plan));
    assert_eq!(result, result2);
    assert_eq!(stats.delivery, stats2.delivery, "channel draws are seeded");
}

#[test]
fn every_algorithm_survives_each_channel_fault_alone_bit_identically() {
    sweep::sweep(&["drop", "dup", "reorder", "loss"]);
}

#[test]
fn every_algorithm_survives_the_combined_channel_plan_bit_identically() {
    sweep::sweep(&["combined"]);
}

#[test]
fn delivery_events_stream_in_protocol_order() {
    let sink = Arc::new(CollectSink::new());
    let cfg = config("drop@1:w1,dup@2:w2,retries=6").sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let _ = bfs(cfg);
    let events = sink.events();
    assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));

    // Every scripted drop is followed by the retransmission of the same
    // batch: same (sender, receiver, seq_no), attempt one higher.
    let drop = events
        .iter()
        .position(|e| {
            matches!(&e.kind, EventKind::BatchDropped { cause, attempt: 0, .. } if cause == "drop")
        })
        .expect("a scripted drop event");
    let (s, r, q) = match &events[drop].kind {
        EventKind::BatchDropped {
            sender,
            receiver,
            seq_no,
            ..
        } => (*sender, *receiver, *seq_no),
        _ => unreachable!(),
    };
    let retx = events
        .iter()
        .position(|e| {
            matches!(&e.kind, EventKind::BatchRetransmitted { sender, receiver, seq_no, attempt: 1, .. }
                if (*sender, *receiver, *seq_no) == (s, r, q))
        })
        .expect("the dropped batch is retransmitted");
    assert!(drop < retx, "drop detected before the retransmission");

    // Every scripted duplicate surfaces as a dedup discard.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BatchDeduped { .. })),
        "the duplicate's second copy is discarded"
    );
}

#[test]
fn delivery_counters_appear_in_the_stats_json() {
    let (_, stats) = bfs(config("drop@1:w1,retries=6"));
    let d = stats.delivery.to_json();
    for key in [
        "batches_sent",
        "batches_dropped",
        "batches_duplicated",
        "batches_reordered",
        "retransmits",
        "retransmitted_bytes",
        "dedup_hits",
        "checksum_failures",
        "retransmit_net_ns",
        "overhead_ns",
    ] {
        assert!(
            d.get(key).and_then(Json::as_u64).is_some(),
            "missing key {key}"
        );
    }
    for key in ["batches_sent", "batches_dropped", "retransmits"] {
        assert!(
            d.get(key).and_then(Json::as_u64).unwrap() > 0,
            "{key} must be nonzero after a scripted drop"
        );
    }
    // The run summary embeds the same document.
    let summary = stats.summary_json();
    assert_eq!(
        summary.get("delivery"),
        Some(&stats.delivery.to_json()),
        "summary_json carries the delivery counters"
    );
}

#[test]
fn channel_faults_compose_with_permanent_death() {
    let (clean, _) = clean_bfs();
    let cfg = config("drop@1:w1,die@2:w2,loss=0.05,seed=7,retries=6").checkpoint_every(2);
    let (result, stats) = bfs(cfg);
    assert_eq!(clean, result, "lossy channel + death must stay exact");
    let d = &stats.delivery;
    let rec = &stats.recovery;
    assert!(d.retransmits > 0, "the channel was lossy: {d:?}");
    assert_eq!(rec.workers_lost, 1, "the death still happened: {rec:?}");
    assert!(rec.vertices_migrated > 0, "{rec:?}");
}

#[test]
fn exhausted_retransmit_budget_is_a_typed_delivery_error() {
    let cfg = config("drop@1:w1:x99,retries=2");
    let err = flash_algos::bfs::run(&graph(), cfg, 0).expect_err("budget exhausted");
    match err {
        RuntimeError::DeliveryExhausted {
            attempts, sender, ..
        } => {
            assert_eq!(attempts, 3, "initial attempt + 2 retries");
            assert_eq!(sender, 1, "w1's host is the scripted sender");
        }
        other => panic!("expected DeliveryExhausted, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("reliable delivery exhausted"), "{msg}");
    assert!(msg.contains("transmission attempts"), "{msg}");
}
