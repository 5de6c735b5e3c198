//! Distribution invariance: a FLASH program's answer must not depend on
//! how the graph is partitioned, how many workers run, whether workers
//! run on real threads, or which mirror-sync payload policy is active. These are the core soundness
//! guarantees of the FLASHWARE middleware (§IV).

use flash_graph::{generators, Graph, GraphBuilder, HashPartitioner, PartitionMap};
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
    let default = PartitionMap::for_graph(&g, 4).unwrap();
    assert_eq!(default.scheme(), "range", "the road grid's ids are local");
    let hashed = Arc::new(PartitionMap::build(&g, 4, &HashPartitioner).unwrap());
    let mut cfg = ClusterConfig::with_workers(4);
    cfg.parallel_workers = false;

    // The default map: contiguous ranges.
    let range_cc = flash_algos::cc::run(&g, cfg.clone()).unwrap().result;
    // Re-run over an explicit hash map.
    let hash_cc = flash_algos::cc::run(&g, cfg.shared_partition(hashed))
        .unwrap()
        .result;
    assert_eq!(range_cc, hash_cc);
}

/// A directed web graph with dangling and zero-in-degree vertices. Its
/// communities are contiguous id blocks, so the default map takes ranges.
fn directed_web() -> Arc<Graph> {
    let arcs = generators::web_graph(3_000, 8, 6, 5)
        .edges()
        .filter(|&(s, d, _)| s % 7 != 0 && d % 11 != 1)
        .map(|(s, d, _)| (s, d))
        .collect::<Vec<_>>();
    Arc::new(GraphBuilder::new(3_000).edges(arcs).build().unwrap())
}

/// The default map takes ranges on the road and web graphs; against an
/// explicit hash map, every integer and min-based answer is bit-identical,
/// and PageRank and BC stay within 1e-9 (relative) of the serial reference.
#[test]
fn default_map_answers_match_the_hash_map() {
    let close = |got: &[f64], want: &[f64], what: &str| {
        for (v, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{what}: vertex {v}"
            );
        }
    };
    for (name, g) in [("road", road()), ("web", directed_web())] {
        let weighted = Arc::new(generators::with_random_weights(&g, 0.5, 2.0, 3));
        let pagerank = flash_algos::reference::pagerank(&g, 10);
        // The root's own score is no dependency; only the others compare.
        let (_, mut bc) = flash_algos::reference::brandes_single_source(&g, 1);
        bc[1] = 0.0;
        for workers in [1usize, 2, 4] {
            if workers > 1 {
                let map = PartitionMap::for_graph(&g, workers).unwrap();
                assert_eq!(map.scheme(), "range", "{name} workers={workers}");
            }
            let default = || ClusterConfig::with_workers(workers).sequential();
            let hashed = |g: &Graph| {
                let map = PartitionMap::build(g, workers, &HashPartitioner).unwrap();
                default().shared_partition(Arc::new(map))
            };
            let what = |algo: &str| format!("{name} {algo} workers={workers}");
            let bfs = |cfg| flash_algos::bfs::run(&g, cfg, 1).unwrap().result;
            assert_eq!(bfs(default()), bfs(hashed(&g)), "{}", what("bfs"));
            let cc = |cfg| flash_algos::cc::run(&g, cfg).unwrap().result;
            assert_eq!(cc(default()), cc(hashed(&g)), "{}", what("cc"));
            let scc = |cfg| flash_algos::scc::run(&g, cfg).unwrap().result;
            assert_eq!(scc(default()), scc(hashed(&g)), "{}", what("scc"));
            let sssp = |cfg| {
                let out = flash_algos::sssp::run(&weighted, cfg, 1).unwrap().result;
                out.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(sssp(default()), sssp(hashed(&weighted)), "{}", what("sssp"));
            if g.is_symmetric() {
                let kcore = |cfg| flash_algos::kcore::run(&g, cfg).unwrap().result;
                assert_eq!(kcore(default()), kcore(hashed(&g)), "{}", what("kcore"));
            }
            let ranks = flash_algos::pagerank::run(&g, default(), 10)
                .unwrap()
                .result;
            close(&ranks, &pagerank, &what("pagerank"));
            let mut scores = flash_algos::bc::run(&g, default(), 1).unwrap().result;
            scores[1] = 0.0;
            close(&scores, &bc, &what("bc"));
        }
    }
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
