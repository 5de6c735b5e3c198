//! Distribution invariance: a FLASH program's answer must not depend on
//! how the graph is partitioned, how many workers run, whether workers
//! run on real threads, or which mirror-sync payload policy is active. These are the core soundness
//! guarantees of the FLASHWARE middleware (§IV).

use flash_graph::{generators, ChunkPartitioner, Graph, PartitionMap};
use flash_runtime::{ClusterConfig, ModePolicy, SyncMode};
use std::sync::Arc;

fn graph() -> Arc<Graph> {
    Arc::new(generators::rmat(8, 7, Default::default(), 23))
}

fn road() -> Arc<Graph> {
    Arc::new(generators::road_network(16, 16, 5))
}

#[test]
fn worker_count_invariance() {
    let g = graph();
    let base = flash_algos::cc::run(&g, ClusterConfig::with_workers(1).sequential())
        .unwrap()
        .result;
    for workers in [2usize, 3, 4, 7] {
        let out = flash_algos::cc::run(&g, ClusterConfig::with_workers(workers).sequential())
            .unwrap()
            .result;
        assert_eq!(out, base, "workers={workers}");
    }
}

#[test]
fn parallel_workers_match_sequential() {
    let g = graph();
    let bfs_par = flash_algos::bfs::run(&g, ClusterConfig::with_workers(4), 0)
        .unwrap()
        .result;
    let bfs_seq = flash_algos::bfs::run(&g, ClusterConfig::with_workers(4).sequential(), 0)
        .unwrap()
        .result;
    assert_eq!(bfs_par, bfs_seq);

    let tc_par = flash_algos::tc::run(&g, ClusterConfig::with_workers(4))
        .unwrap()
        .result;
    let tc_seq = flash_algos::tc::run(&g, ClusterConfig::with_workers(4).sequential())
        .unwrap()
        .result;
    assert_eq!(tc_par, tc_seq);
}

#[test]
fn sync_mode_invariance() {
    // CriticalOnly ships a strict subset of Full's data; results must not
    // change — that is what makes a property "non-critical" (Table II).
    let g = road();
    let a = flash_algos::cc_opt::run(
        &g,
        ClusterConfig::with_workers(3)
            .sync_mode(SyncMode::CriticalOnly)
            .sequential(),
    )
    .unwrap()
    .result;
    let b = flash_algos::cc_opt::run(
        &g,
        ClusterConfig::with_workers(3)
            .sync_mode(SyncMode::Full)
            .sequential(),
    )
    .unwrap()
    .result;
    assert_eq!(a, b, "cc_opt");

    // Same check on an algorithm with heavy local scratch (kcore-opt, gc).
    let a = flash_algos::kcore_opt::run(
        &g,
        ClusterConfig::with_workers(3)
            .sync_mode(SyncMode::CriticalOnly)
            .sequential(),
    )
    .unwrap()
    .result;
    let b = flash_algos::kcore_opt::run(
        &g,
        ClusterConfig::with_workers(3)
            .sync_mode(SyncMode::Full)
            .sequential(),
    )
    .unwrap()
    .result;
    assert_eq!(a, b);
}

#[test]
fn critical_only_ships_fewer_bytes() {
    let g = road();
    let run = |mode: SyncMode| {
        let out = flash_algos::kcore_opt::run(
            &g,
            ClusterConfig::with_workers(3).sync_mode(mode).sequential(),
        )
        .unwrap();
        out.stats.total_bytes()
    };
    let critical = run(SyncMode::CriticalOnly);
    let full = run(SyncMode::Full);
    assert!(
        critical < full,
        "critical-only sync must reduce traffic: {critical} vs {full}"
    );
}

#[test]
fn necessary_mirror_scope_ships_fewer_sync_bytes() {
    // The same min-propagation over the real edges (necessary mirrors
    // only) and over an identical copy declared virtual, which forces
    // all-mirror sync (§IV-C "communicate with necessary mirrors only").
    #[derive(Clone, Default)]
    struct Min {
        x: u64,
    }
    flash_runtime::full_sync!(Min);

    let g = graph();
    let run = |h: flash_core::EdgeSet<Min>| {
        let cfg = ClusterConfig::with_workers(4).sequential();
        let mut ctx =
            flash_core::FlashContext::build(Arc::clone(&g), cfg, |v| Min { x: v as u64 }).unwrap();
        let mut u = ctx.all();
        while !u.is_empty() {
            u = ctx.edge_map_sparse(
                &u,
                &h,
                |_, s, d| s.x < d.x,
                |_, s, d| d.x = d.x.min(s.x),
                |_, _| true,
                |t, d| d.x = d.x.min(t.x),
            );
        }
        let sync_bytes: u64 = ctx.stats().steps().iter().map(|s| s.sync_bytes).sum();
        (ctx.collect(|_, val| val.x), sync_bytes)
    };
    let (ge, gi) = (Arc::clone(&g), Arc::clone(&g));
    let virtual_copy = flash_core::EdgeSet::custom(
        move |v, _| ge.out_neighbors(v).to_vec(),
        move |v, _| gi.in_neighbors(v).to_vec(),
    );
    let (necessary, necessary_bytes) = run(flash_core::EdgeSet::forward());
    let (all, all_bytes) = run(virtual_copy);
    assert_eq!(necessary, all, "the mirror scope must not change values");
    assert!(
        necessary_bytes < all_bytes,
        "necessary-mirror scope must ship fewer sync bytes: {necessary_bytes} vs {all_bytes}"
    );
}

#[test]
fn partitioner_invariance() {
    let g = road();
    let chunked = Arc::new(PartitionMap::build(&g, 4, &ChunkPartitioner).unwrap());
    let mut cfg = ClusterConfig::with_workers(4);
    cfg.parallel_workers = false;

    let hash_cc = flash_algos::cc::run(&g, cfg.clone()).unwrap().result;
    // Re-run through an explicitly chunk-partitioned context.
    let mut ctx = flash_core::FlashContext::<flash_algos::cc::CcVertex>::with_partition(
        Arc::clone(&g),
        chunked,
        cfg,
        |v| flash_algos::cc::CcVertex { cc: v },
    )
    .unwrap();
    let mut u = ctx.all();
    while !u.is_empty() {
        u = ctx.edge_map(
            &u,
            &flash_core::EdgeSet::forward(),
            |_, s, d| s.cc < d.cc,
            |_, s, d| d.cc = d.cc.min(s.cc),
            |_, _| true,
            |t, d| d.cc = d.cc.min(t.cc),
        );
    }
    let chunk_cc = ctx.collect(|_, val| val.cc);
    assert_eq!(hash_cc, chunk_cc);
}

#[test]
fn mode_policy_invariance_on_all_frontier_algorithms() {
    let g = graph();
    for mode in [
        ModePolicy::Adaptive,
        ModePolicy::ForceDense,
        ModePolicy::ForceSparse,
    ] {
        let cfg = ClusterConfig::with_workers(3).mode(mode).sequential();
        let bfs = flash_algos::bfs::run(&g, cfg.clone(), 0).unwrap().result;
        let expect = flash_graph::stats::bfs_levels(&g, 0);
        for (v, &e) in expect.iter().enumerate() {
            let want = if e == usize::MAX { u32::MAX } else { e as u32 };
            assert_eq!(bfs[v], want, "mode {mode:?} vertex {v}");
        }
        let cc = flash_algos::cc::run(&g, cfg).unwrap().result;
        assert_eq!(cc, flash_algos::reference::cc_labels(&g), "mode {mode:?}");
    }
}

#[test]
fn network_model_changes_accounting_not_results() {
    let g = graph();
    let plain = flash_algos::bfs::run(&g, ClusterConfig::with_workers(3).sequential(), 0).unwrap();
    let modelled = flash_algos::bfs::run(
        &g,
        ClusterConfig::with_workers(3)
            .network(flash_runtime::NetworkModel::ten_gbe())
            .sequential(),
        0,
    )
    .unwrap();
    assert_eq!(plain.result, modelled.result);
    assert_eq!(plain.stats.simulated_net_time(), std::time::Duration::ZERO);
    assert!(modelled.stats.simulated_net_time() > std::time::Duration::ZERO);
}
