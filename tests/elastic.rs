//! Cross-crate tests of elastic membership: a *permanent* worker loss
//! mid-run must be visible in `RecoveryStats`, its JSON rendering and the
//! trace stream, and a loss with checkpointing disabled must degrade to a
//! clean [`RuntimeError::WorkerLost`], never a panic. Property tests pin
//! the [`PartitionMap::rebalance`] invariants the whole protocol rests on.
//! Every catalogue algorithm must survive a death, a death and rejoin,
//! and a double death exactly: the membership rows of the shared sweep
//! (`tests/sweep/mod.rs`). A death scripted past the schedule's last
//! compute step is counted as unfired.

mod sweep;

use flash_graph::{generators, HashPartitioner, PartitionMap, Prng};
use flash_obs::{CollectSink, EventKind, Json, Sink};
use flash_runtime::{ClusterConfig, FaultPlan, NetworkModel, RuntimeError};
use std::sync::Arc;

fn graph() -> Arc<flash_graph::Graph> {
    Arc::new(generators::erdos_renyi(48, 160, 11))
}

#[test]
fn every_algorithm_survives_a_permanent_death_bit_identically() {
    sweep::sweep(&["die", "double-death"]);
}

#[test]
fn every_algorithm_survives_death_plus_rejoin_bit_identically() {
    sweep::sweep(&["die+rejoin"]);
}

/// msf computes only its step-0 Kruskal gather; step 1 is a global
/// reduce, where no fault fires. So `die@1:w3` never happens: the run
/// loses w1 alone and reports the other spec as unfired.
#[test]
fn a_death_the_schedule_never_reaches_is_reported_unfired() {
    let g = Arc::new(generators::with_random_weights(&graph(), 0.1, 2.0, 4));
    let cfg = ClusterConfig::with_workers(4)
        .checkpoint_every(2)
        .faults(FaultPlan::parse("die@0:w1,die@1:w3,retries=1").expect("plan"));
    let out = flash_algos::msf::run(&g, cfg).expect("elastic recovery succeeds");
    let rec = &out.stats.recovery;
    assert_eq!((rec.workers_lost, rec.faults_unfired), (1, 1), "{rec:?}");
    assert_eq!(
        rec.to_json().get("faults_unfired").and_then(Json::as_u64),
        Some(1)
    );
}

#[test]
fn permanent_loss_without_checkpoints_is_a_clean_error() {
    let cfg = ClusterConfig::with_workers(4)
        .sequential()
        .checkpoint_off()
        .faults(FaultPlan::parse("die@1:w1,retries=1").expect("plan"));
    let err = flash_algos::bfs::run(&graph(), cfg, 0).expect_err("nothing to recover from");
    assert!(
        matches!(err, RuntimeError::WorkerLost { worker: 1, .. }),
        "{err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("permanently lost"), "{msg}");
    assert!(msg.contains("checkpoint"), "{msg}");
}

#[test]
fn deadline_stragglers_are_declared_dead() {
    let sink = Arc::new(CollectSink::new());
    let cfg = ClusterConfig::with_workers(4)
        .sequential()
        .network(NetworkModel::ten_gbe())
        .checkpoint_every(2)
        .faults(FaultPlan::parse("straggle@1:w2:250ms,detector=100ms").expect("plan"))
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let clean = flash_algos::bfs::run(&graph(), ClusterConfig::with_workers(4).sequential(), 0)
        .expect("clean run");
    let out = flash_algos::bfs::run(&graph(), cfg, 0).expect("elastic recovery succeeds");
    assert_eq!(
        clean.result, out.result,
        "deadline death must not change results"
    );
    assert_eq!(out.stats.recovery.workers_lost, 1);
    assert_eq!(out.stats.recovery.membership_epochs, 1);
    let declared = sink
        .events()
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::WorkerDeclaredDead { worker, reason, .. } => Some((*worker, reason.clone())),
            _ => None,
        })
        .expect("worker_declared_dead event");
    assert_eq!(declared, (2, "deadline".to_string()));
}

#[test]
fn membership_events_trace_the_whole_protocol_in_order() {
    let sink = Arc::new(CollectSink::new());
    let cfg = ClusterConfig::with_workers(4)
        .sequential()
        .network(NetworkModel::ten_gbe())
        .checkpoint_every(2)
        .faults(FaultPlan::parse("die@1:w1,rejoin@4:w1,retries=1").expect("plan"))
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let _ = flash_algos::bfs::run(&graph(), cfg, 0).expect("elastic recovery succeeds");
    let events = sink.events();
    assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));

    let dead_pos = events
        .iter()
        .position(|e| {
            matches!(
                &e.kind,
                EventKind::WorkerDeclaredDead { worker: 1, reason, epoch: 1, .. }
                    if reason == "die"
            )
        })
        .expect("worker_declared_dead event");
    let epochs: Vec<(u64, usize, String)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::MembershipEpoch {
                epoch,
                live_hosts,
                cause,
                ..
            } => Some((*epoch, *live_hosts, cause.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        epochs,
        vec![(1, 3, "die".to_string()), (2, 4, "rejoin".to_string())],
        "death drops to 3 live hosts, rejoin restores 4"
    );
    let migrations: Vec<(usize, usize, u64)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::StateMigrated {
                from, to, bytes, ..
            } => Some((*from, *to, *bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(migrations.len(), 2, "one move per epoch");
    assert!(migrations.iter().all(|&(_, _, b)| b > 0));
    // The rejoin move reverses the death move: partition 1 comes home.
    assert_eq!(migrations[0].0, 1, "death moves w1's partition off host 1");
    assert_eq!(migrations[1].1, 1, "rejoin brings it back to host 1");
    assert_eq!(migrations[0].1, migrations[1].0, "from its adoptive host");
    let first_epoch_pos = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::MembershipEpoch { .. }))
        .unwrap();
    assert!(
        dead_pos < first_epoch_pos,
        "death declared before the epoch"
    );
}

#[test]
fn membership_counters_appear_in_the_stats_json() {
    let cfg = ClusterConfig::with_workers(4)
        .sequential()
        .network(NetworkModel::ten_gbe())
        .checkpoint_every(2)
        .faults(FaultPlan::parse("die@1:w1,rejoin@4:w1,retries=1").expect("plan"));
    let out = flash_algos::bfs::run(&graph(), cfg, 0).expect("elastic recovery succeeds");
    let j = out.stats.recovery.to_json();
    for key in [
        "membership_epochs",
        "workers_lost",
        "workers_rejoined",
        "vertices_migrated",
        "migrated_bytes",
        "migration_net_ns",
    ] {
        let v = j
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing key {key}"));
        assert!(v > 0, "{key} must be nonzero after a death + rejoin");
    }
}

/// Hand-rolled property test (workspace style): rebalancing random dead
/// sets on random graphs preserves master-uniqueness (ownership is
/// epoch-invariant and the master lists partition the vertex set) and
/// mirror-coverage (every mirror worker's live host is reachable by a
/// necessary-scope sync, the owner host never is).
#[test]
fn rebalance_preserves_partition_invariants_on_random_graphs() {
    let mut prng = Prng::seed_from_u64(0xE1A5);
    for case in 0..24 {
        let n = 16 + (prng.next_u64() % 48) as usize;
        let g = generators::erdos_renyi(n, n * 3, prng.next_u64());
        let m = 2 + (prng.next_u64() % 6) as usize;
        let mut pm = PartitionMap::build(&g, m, &HashPartitioner).unwrap();
        let owner_before: Vec<usize> = (0..n as u32).map(|v| pm.owner(v)).collect();

        // A random dead set of 1..m distinct hosts (at least one survives).
        let mut hosts: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            let j = (prng.next_u64() as usize) % (i + 1);
            hosts.swap(i, j);
        }
        hosts.truncate(1 + (prng.next_u64() as usize) % (m - 1));
        let report = pm.rebalance(&hosts).unwrap();
        assert_eq!(report.epoch, 1, "case {case}");

        // Master uniqueness: ownership unchanged, masters partition V.
        let mut seen = vec![false; n];
        for w in 0..m {
            for &v in pm.masters(w) {
                assert!(!seen[v as usize], "case {case}: duplicate master {v}");
                seen[v as usize] = true;
                assert_eq!(pm.owner(v), w, "case {case}");
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}: uncovered vertex");
        for v in 0..n as u32 {
            assert_eq!(pm.owner(v), owner_before[v as usize], "case {case}");
        }

        // Placement: every partition on a live host, dead hosts empty.
        for w in 0..m {
            assert!(pm.is_host_live(pm.host_of_worker(w)), "case {case}");
        }
        for &h in &hosts {
            assert!(!pm.is_host_live(h), "case {case}");
        }

        // Mirror coverage under necessary-scope sync.
        let mut buf = Vec::new();
        for v in 0..n as u32 {
            let k = pm.necessary_mirror_hosts(v, &mut buf);
            assert_eq!(k, buf.len(), "case {case}");
            let owner_host = pm.host_of(v);
            for &h in &buf {
                assert_ne!(h as usize, owner_host, "case {case}: self-sync");
                assert!(pm.is_host_live(h as usize), "case {case}: dead recipient");
            }
            for &mw in pm.necessary_mirrors(v) {
                let mh = pm.host_of_worker(mw as usize);
                assert!(
                    mh == owner_host || buf.contains(&(mh as u16)),
                    "case {case}: mirror worker {mw} on host {mh} unreachable"
                );
            }
        }
    }
}

/// Regression: after two successive epochs, `owner(v)` still agrees with
/// the sync-plan routing — the owner's host is live, `host_of(v)` follows
/// it, and the necessary-mirror host set is exactly the live hosts of the
/// vertex's mirror workers minus the owner's.
#[test]
fn owner_routing_agrees_after_two_successive_epochs() {
    let g = generators::erdos_renyi(64, 220, 5);
    let mut pm = PartitionMap::build(&g, 5, &HashPartitioner).unwrap();
    let owner_before: Vec<usize> = (0..64u32).map(|v| pm.owner(v)).collect();
    pm.rebalance(&[1]).unwrap();
    pm.rebalance(&[3]).unwrap();
    assert_eq!(pm.epoch(), 2);
    assert_eq!(pm.num_live_hosts(), 3);

    let mut buf = Vec::new();
    for v in 0..64u32 {
        assert_eq!(pm.owner(v), owner_before[v as usize], "ownership drifted");
        let owner_host = pm.host_of_worker(pm.owner(v));
        assert!(pm.is_host_live(owner_host));
        assert_eq!(pm.host_of(v), owner_host);

        pm.necessary_mirror_hosts(v, &mut buf);
        let mut got: Vec<u16> = buf.clone();
        got.sort_unstable();
        let mut expect: Vec<u16> = pm
            .necessary_mirrors(v)
            .iter()
            .map(|&w| pm.host_of_worker(w as usize) as u16)
            .filter(|&h| h as usize != owner_host)
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect, "vertex {v}: routing disagrees");
    }
}
