//! Serving-layer integration tests (DESIGN.md §16).
//!
//! Three independent guarantees, each probed end to end:
//!
//! 1. **Snapshot isolation** — N concurrent sessions over one frozen
//!    snapshot produce answers bit-identical to solo baselines, for a
//!    sweep of algorithms and roots, while an update plane churns a delta
//!    overlay over the same snapshot and repairs its maintained results.
//! 2. **Per-run storage isolation** — two block-backed runs executing
//!    simultaneously each report exactly the streaming byte/block counts
//!    a solo run reports (the regression fixed by moving streaming
//!    accounting off the shared `BlockHandle` onto per-cluster
//!    `StreamScope`s).
//! 3. **Incremental repair** — maintained CC stays bit-identical to a
//!    full recompute and maintained PageRank stays inside its documented
//!    tolerance bound across a long random churn of the delta overlay.

use flash_algos::incremental::{full_cc, full_pagerank, MaintainedCc, MaintainedPageRank};
use flash_graph::hash::Fnv1a;
use flash_graph::{generators, DeltaOverlay, EdgeUpdate, Graph, Prng, VertexId};
use flash_runtime::{ClusterConfig, Session, StorageMode};
use std::sync::{Arc, Barrier, RwLock};

/// FNV-1a checksum over little-endian `u32`s.
fn sum_u32(values: &[u32]) -> u64 {
    let mut h = Fnv1a::new();
    values.iter().for_each(|v| h.update(&v.to_le_bytes()));
    h.finish()
}

/// FNV-1a checksum over exact `f64` bit patterns.
fn sum_f64(values: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    values
        .iter()
        .for_each(|v| h.update(&v.to_bits().to_le_bytes()));
    h.finish()
}

/// The per-session query list: every kind, roots spread over the graph.
fn checksum(graph: &Arc<Graph>, cfg: ClusterConfig, query: usize, root: VertexId) -> u64 {
    match query % 4 {
        0 => sum_u32(&flash_algos::bfs::run(graph, cfg, root).unwrap().result),
        1 => sum_f64(&flash_algos::sssp::run(graph, cfg, root).unwrap().result),
        2 => sum_f64(&flash_algos::pagerank::run(graph, cfg, 4).unwrap().result),
        _ => sum_u32(&flash_algos::cc::run(graph, cfg).unwrap().result),
    }
}

/// L1 distance between a maintained and a recomputed rank vector.
fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[test]
fn concurrent_sessions_match_solo_baselines_bitwise() {
    let graph = Arc::new(generators::rmat(
        7,
        6,
        generators::RmatParams::default(),
        33,
    ));
    let n = graph.num_vertices() as u64;
    let root = |s: usize, q: usize| ((s * 31 + q * 7) as u64 % n) as VertexId;
    let template = ClusterConfig::with_workers(2);
    const SESSIONS: usize = 4;
    const QUERIES: usize = 8;

    // Solo baselines, one query at a time on a private session.
    let mut baselines = vec![vec![0u64; QUERIES]; SESSIONS];
    {
        let solo = Session::new(0, Arc::clone(&graph), template.clone()).unwrap();
        for (s, row) in baselines.iter_mut().enumerate() {
            for (q, slot) in row.iter_mut().enumerate() {
                *slot = checksum(&graph, solo.config(), q, root(s, q));
            }
        }
    }

    // The same queries, all sessions in flight at once, sharing one
    // partition map and buffer pool through the session template.
    let shared = Session::new(1, Arc::clone(&graph), template.clone()).unwrap();
    let mut shared_template = template.clone();
    shared_template.shared_partition = Some(Arc::clone(shared.partition()));
    shared_template.buffer_pool = Some(Arc::clone(shared.pool()));
    drop(shared);

    // Beside them an update plane churns an overlay over the same snapshot,
    // checking the repaired CC after every batch and PageRank at the end.
    // Each session holds its last query back until the plane lets go of
    // `updating`, so every batch lands while every session is in flight.
    let updating = RwLock::new(());
    let start = Barrier::new(SESSIONS + 1);
    let answered = std::thread::scope(|scope| {
        let plane = scope.spawn(|| {
            let _updating = updating.write().unwrap();
            start.wait();
            let mut view = DeltaOverlay::new(Arc::clone(&graph));
            let mut cc = MaintainedCc::new(&view);
            let mut pr = MaintainedPageRank::new(&view, 1e-9);
            let mut rng = Prng::seed_from_u64(0xF1A5);
            for b in 0..12 {
                let batch = view.apply_batch(&churn_batch(&graph, &mut rng, 8));
                cc.repair(&view, &batch.touched);
                pr.repair(&view);
                let full = full_cc(&view);
                assert_eq!(cc.labels(), full.as_slice(), "batch {b}: CC diverged");
            }
            let l1 = l1(pr.ranks(), &full_pagerank(&view, 1e-9));
            assert!(l1 <= pr.comparison_bound(), "PageRank L1 {l1:e}");
        });
        let sessions: Vec<_> = baselines
            .iter()
            .enumerate()
            .map(|(s, row)| {
                let session =
                    Session::new(10 + s as u64, Arc::clone(&graph), shared_template.clone())
                        .unwrap();
                let (graph, updating, start) = (&graph, &updating, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut answered = 0;
                    for (q, &expect) in row.iter().enumerate() {
                        if q + 1 == QUERIES {
                            drop(updating.read());
                        }
                        let got = checksum(graph, session.config(), q, root(s, q));
                        assert_eq!(got, expect, "session {s} query {q} diverged from solo");
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        plane.join().unwrap();
        sessions
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum::<usize>()
    });
    assert_eq!(answered, SESSIONS * QUERIES);
}

#[test]
fn simultaneous_block_runs_report_solo_streaming_counts() {
    let graph = Arc::new(generators::erdos_renyi(96, 400, 21));
    let opts = |algo: &str| flash_bench::cli::CliOptions {
        algo: algo.to_string(),
        config: ClusterConfig::with_workers(2).storage(StorageMode::Block),
        ..flash_bench::cli::CliOptions::default()
    };
    // Solo reference: each run alone reports its own streaming volume.
    let solo_bfs = flash_bench::cli::dispatch(&opts("bfs"), &graph).unwrap();
    let solo_cc = flash_bench::cli::dispatch(&opts("cc"), &graph).unwrap();
    assert!(
        solo_bfs.1.bytes_streamed() > 0 && solo_cc.1.bytes_streamed() > 0,
        "block runs must stream"
    );

    // The same two runs concurrently over one process. Before streaming
    // accounting moved to per-cluster scopes, the shared handle's
    // counters bled between runs and these totals were garbage.
    for _ in 0..4 {
        let (bfs, cc) = std::thread::scope(|scope| {
            let g1 = Arc::clone(&graph);
            let g2 = Arc::clone(&graph);
            let o1 = opts("bfs");
            let o2 = opts("cc");
            let h1 = scope.spawn(move || flash_bench::cli::dispatch(&o1, &g1).unwrap());
            let h2 = scope.spawn(move || flash_bench::cli::dispatch(&o2, &g2).unwrap());
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(bfs.0, solo_bfs.0, "bfs summary changed under concurrency");
        assert_eq!(cc.0, solo_cc.0, "cc summary changed under concurrency");
        assert_eq!(
            (bfs.1.bytes_streamed(), bfs.1.blocks_streamed()),
            (solo_bfs.1.bytes_streamed(), solo_bfs.1.blocks_streamed()),
            "bfs streaming accounting contaminated by the concurrent cc run"
        );
        assert_eq!(
            (cc.1.bytes_streamed(), cc.1.blocks_streamed()),
            (solo_cc.1.bytes_streamed(), solo_cc.1.blocks_streamed()),
            "cc streaming accounting contaminated by the concurrent bfs run"
        );
    }
}

#[test]
fn incremental_repair_survives_long_random_churn() {
    let base = Arc::new(generators::rmat(8, 4, generators::RmatParams::default(), 5));
    let eps = 1e-10;
    let mut view = DeltaOverlay::new(Arc::clone(&base));
    let mut cc = MaintainedCc::new(&view);
    let mut pr = MaintainedPageRank::new(&view, eps);
    let n = view.num_vertices() as u64;
    let mut rng = Prng::seed_from_u64(77);
    for round in 0..30 {
        let updates: Vec<EdgeUpdate> = (0..12)
            .map(|_| {
                let s = (rng.next_u64() % n) as VertexId;
                let d = (rng.next_u64() % n) as VertexId;
                if rng.next_u64().is_multiple_of(3) {
                    EdgeUpdate::Delete(s, d)
                } else {
                    EdgeUpdate::Insert(s, d)
                }
            })
            .collect();
        let batch = view.apply_batch(&updates);
        cc.repair(&view, &batch.touched);
        pr.repair(&view);
        assert_eq!(
            cc.labels(),
            full_cc(&view).as_slice(),
            "round {round}: incremental CC diverged from full recompute"
        );
        let l1 = l1(pr.ranks(), &full_pagerank(&view, eps));
        assert!(
            l1 <= pr.comparison_bound(),
            "round {round}: PageRank L1 {l1:e} exceeds bound {:e}",
            pr.comparison_bound()
        );
    }
    // Compaction: materializing and re-wrapping preserves the view.
    let compacted = Arc::new(view.materialize().unwrap());
    let fresh = DeltaOverlay::new(Arc::clone(&compacted));
    assert_eq!(full_cc(&fresh), full_cc(&view));
    assert_eq!(fresh.num_edges(), view.num_edges());
}

/// Seeded churn that actually deletes: every third update removes an edge
/// of the *base* graph (live the first time it is drawn, absent after),
/// the rest insert random pairs (new, duplicate, or re-inserting a deleted
/// base edge).
fn churn_batch(base: &Graph, rng: &mut Prng, len: usize) -> Vec<EdgeUpdate> {
    let n = base.num_vertices() as u64;
    (0..len)
        .map(|_| {
            let s = (rng.next_u64() % n) as VertexId;
            let row = base.out_neighbors(s);
            if rng.next_u64().is_multiple_of(3) && !row.is_empty() {
                EdgeUpdate::Delete(s, row[(rng.next_u64() % row.len() as u64) as usize])
            } else {
                EdgeUpdate::Insert(s, (rng.next_u64() % n) as VertexId)
            }
        })
        .collect()
}

/// 40 churn batches of 12 updates; returns FNV-1a over the rank bit
/// patterns after every batch, the per-batch sweep counts, and FNV-1a over
/// the labels after every batch.
fn repair_fingerprint(base: Graph, seed: u64) -> (u64, Vec<u64>, u64) {
    let base = Arc::new(base);
    let mut view = DeltaOverlay::new(Arc::clone(&base));
    let mut cc = MaintainedCc::new(&view);
    let mut pr = MaintainedPageRank::new(&view, 1e-9);
    let mut rng = Prng::seed_from_u64(seed);
    let (mut ranks, mut labels) = (Fnv1a::new(), Fnv1a::new());
    let mut sweeps = vec![pr.sweeps()];
    for _ in 0..40 {
        let batch = view.apply_batch(&churn_batch(&base, &mut rng, 12));
        cc.repair(&view, &batch.touched);
        sweeps.push(pr.repair(&view));
        for r in pr.ranks() {
            ranks.update(&r.to_bits().to_le_bytes());
        }
        for l in cc.labels() {
            labels.update(&l.to_le_bytes());
        }
    }
    (ranks.finish(), sweeps, labels.finish())
}

/// Goldens captured on the commit *before* the overlay walk and the CC
/// repair were rewritten (parent of PR 24): the borrowing walk and the
/// mark-array repair must reproduce every rank bit, every sweep count and
/// every label — the same iteration order, not merely "within the bound".
#[test]
fn repair_reproduces_parent_goldens_bit_for_bit() {
    let er = repair_fingerprint(generators::erdos_renyi(300, 700, 9), 2024);
    assert_eq!(
        er,
        (
            0x7218_5b7a_e9dd_e2d4,
            vec![
                60, 42, 51, 43, 46, 47, 44, 39, 38, 40, 38, 38, 40, 37, 37, 37, 36, 37, 37, 37, 36,
                37, 36, 36, 35, 36, 35, 34, 37, 34, 34, 34, 34, 34, 33, 34, 33, 34, 33, 33, 32
            ],
            0xffc7_856e_e38b_bace
        ),
        "erdos_renyi(300, 700, 9)"
    );
    let rm = repair_fingerprint(
        generators::rmat(10, 8, generators::RmatParams::default(), 4),
        2025,
    );
    assert_eq!(
        rm,
        (
            0x0467_2d0c_87dd_b58e,
            vec![
                37, 34, 83, 55, 55, 53, 88, 51, 88, 56, 56, 39, 79, 83, 79, 83, 39, 87, 67, 58, 49,
                83, 61, 83, 60, 83, 83, 58, 54, 54, 87, 66, 65, 90, 61, 29, 57, 62, 56, 32, 55
            ],
            0x4cb3_3b65_60ec_d4e7
        ),
        "rmat(10, 8, default, 4)"
    );
}
