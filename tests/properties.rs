//! Property-based invariants over randomized graphs: the structural laws
//! every FLASH component must satisfy regardless of input.
//!
//! Inputs are driven by the workspace's own deterministic PRNG
//! ([`flash_graph::Prng`]) with fixed per-test seeds, so failures are
//! exactly reproducible and the suite runs fully offline (no proptest).

use flash_core::prelude::*;
use flash_graph::{generators, BitSet, Graph, GraphBuilder, HashPartitioner, PartitionMap, Prng};
use flash_runtime::ClusterConfig;
use std::sync::Arc;

/// Number of randomized cases per invariant.
const CASES: usize = 24;

/// A random undirected simple graph with 2..=40 vertices.
fn random_graph(rng: &mut Prng) -> Graph {
    let n = rng.gen_range(2usize..41);
    let max_edges = n * (n - 1) / 2;
    let m = rng.gen_range(0..max_edges + 1);
    generators::erdos_renyi(n, m, rng.next_u64())
}

fn cfg(workers: usize) -> ClusterConfig {
    ClusterConfig::with_workers(workers).sequential()
}

#[test]
fn partition_covers_vertices_exactly_once() {
    let mut rng = Prng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let m = rng.gen_range(1usize..6);
        let p = PartitionMap::build(&g, m, &HashPartitioner).unwrap();
        let mut seen = vec![false; g.num_vertices()];
        for w in 0..m {
            for &v in p.masters(w) {
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn subset_algebra_obeys_boolean_laws() {
    let mut rng = Prng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let a: Vec<u32> = (0..rng.gen_range(0usize..30))
            .map(|_| rng.gen_range(0u32..50))
            .collect();
        let b: Vec<u32> = (0..rng.gen_range(0usize..30))
            .map(|_| rng.gen_range(0u32..50))
            .collect();
        let sa = VertexSubset::from_ids(50, a.iter().copied());
        let sb = VertexSubset::from_ids(50, b.iter().copied());
        // |A| + |B| = |A ∪ B| + |A ∩ B|
        assert_eq!(
            sa.len() + sb.len(),
            sa.union(&sb).len() + sa.intersect(&sb).len()
        );
        // A \ B = A ∩ ¬B: disjoint from B, subset of A.
        let diff = sa.minus(&sb);
        assert!(diff.iter().all(|v| sa.contains(v) && !sb.contains(v)));
        // De Morgan-ish: (A ∪ B) \ B = A \ B.
        assert_eq!(sa.union(&sb).minus(&sb).to_vec(), diff.to_vec());
    }
}

#[test]
fn cc_labels_are_connectivity_classes() {
    let mut rng = Prng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let labels = flash_algos::cc::run(&g, cfg(3)).unwrap().result;
        assert_eq!(labels, flash_algos::reference::cc_labels(&g));
    }
}

#[test]
fn cc_opt_matches_cc() {
    let mut rng = Prng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let basic = flash_algos::cc::run(&g, cfg(2)).unwrap().result;
        let opt = flash_algos::cc_opt::run(&g, cfg(2)).unwrap().result;
        assert_eq!(flash_algos::reference::canonicalize(&opt), basic);
    }
}

#[test]
fn bfs_levels_match_reference() {
    let mut rng = Prng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let root = rng.gen_range(0..g.num_vertices() as u32);
        let got = flash_algos::bfs::run(&g, cfg(2), root).unwrap().result;
        let expect = flash_graph::stats::bfs_levels(&g, root);
        for (v, &e) in expect.iter().enumerate() {
            let want = if e == usize::MAX { u32::MAX } else { e as u32 };
            assert_eq!(got[v], want);
        }
    }
}

#[test]
fn mis_is_independent_and_maximal() {
    let mut rng = Prng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let set = flash_algos::mis::run(&g, cfg(2)).unwrap().result;
        assert!(flash_algos::reference::is_maximal_independent_set(&g, &set));
    }
}

#[test]
fn mm_is_a_maximal_matching() {
    let mut rng = Prng::seed_from_u64(0xA7);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let p = flash_algos::mm::run(&g, cfg(2)).unwrap().result.partner;
        assert!(flash_algos::reference::is_maximal_matching(&g, &p));
        let p2 = flash_algos::mm_opt::run(&g, cfg(2)).unwrap().result.partner;
        assert!(flash_algos::reference::is_maximal_matching(&g, &p2));
    }
}

#[test]
fn coloring_is_proper() {
    let mut rng = Prng::seed_from_u64(0xA8);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let colors = flash_algos::gc::run(&g, cfg(2)).unwrap().result;
        assert!(flash_algos::reference::is_proper_coloring(&g, &colors));
        // Greedy bound: colors <= max degree + 1.
        let max_color = colors.iter().max().copied().unwrap_or(0) as usize;
        assert!(max_color <= g.max_degree());
    }
}

#[test]
fn kcore_matches_peeling() {
    let mut rng = Prng::seed_from_u64(0xA9);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let expect = flash_algos::reference::kcore_numbers(&g);
        assert_eq!(flash_algos::kcore::run(&g, cfg(2)).unwrap().result, expect);
        assert_eq!(
            flash_algos::kcore_opt::run(&g, cfg(2)).unwrap().result,
            expect
        );
    }
}

#[test]
fn counting_matches_brute_force() {
    let mut rng = Prng::seed_from_u64(0xAA);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        assert_eq!(
            flash_algos::tc::run(&g, cfg(2)).unwrap().result,
            flash_algos::reference::triangle_count(&g)
        );
        assert_eq!(
            flash_algos::rc::run(&g, cfg(2)).unwrap().result,
            flash_algos::reference::rectangle_count(&g)
        );
        assert_eq!(
            flash_algos::clique::run(&g, cfg(2), 4).unwrap().result,
            flash_algos::reference::kclique_count(&g, 4)
        );
    }
}

#[test]
fn dense_sparse_adaptive_agree() {
    let mut rng = Prng::seed_from_u64(0xAB);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let run = |mode: ModePolicy| flash_algos::cc::run(&g, cfg(3).mode(mode)).unwrap().result;
        let dense = run(ModePolicy::ForceDense);
        assert_eq!(run(ModePolicy::ForceSparse), dense);
        assert_eq!(run(ModePolicy::Adaptive), dense);
    }
}

#[test]
fn worker_count_never_changes_results() {
    let mut rng = Prng::seed_from_u64(0xAC);
    for _ in 0..CASES {
        let g = Arc::new(random_graph(&mut rng));
        let one = flash_algos::kcore::run(&g, cfg(1)).unwrap().result;
        for m in [2usize, 5] {
            assert_eq!(flash_algos::kcore::run(&g, cfg(m)).unwrap().result, one);
        }
    }
}

#[test]
fn scc_matches_tarjan_on_random_digraphs() {
    let mut rng = Prng::seed_from_u64(0xAD);
    for _ in 0..CASES {
        let n = rng.gen_range(3usize..30);
        let m = rng.gen_range(0usize..120);
        let mut b = GraphBuilder::new(n).dedup(true).drop_self_loops(true);
        for _ in 0..m {
            let s = rng.gen_range(0..n as u32);
            let d = rng.gen_range(0..n as u32);
            b = b.edge(s, d);
        }
        let g = Arc::new(b.build().unwrap());
        let got = flash_algos::scc::run(&g, cfg(3)).unwrap().result;
        assert_eq!(
            flash_algos::reference::canonicalize(&got),
            flash_algos::reference::tarjan_scc(&g)
        );
    }
}

#[test]
fn msf_weight_matches_kruskal() {
    let mut rng = Prng::seed_from_u64(0xAE);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let g = Arc::new(generators::with_random_weights(
            &g,
            0.0,
            1.0,
            rng.next_u64(),
        ));
        let got = flash_algos::msf::run(&g, cfg(3)).unwrap().result;
        let (edges, total) = flash_algos::reference::kruskal(&g);
        assert_eq!(got.edges.len(), edges.len());
        assert!((got.total_weight - total).abs() < 1e-4);
    }
}

#[test]
fn bitset_iter_roundtrip() {
    let mut rng = Prng::seed_from_u64(0xAF);
    for _ in 0..CASES {
        let keys: std::collections::BTreeSet<u32> = (0..rng.gen_range(0usize..64))
            .map(|_| rng.gen_range(0u32..200))
            .collect();
        let mut s = BitSet::new(200);
        for &k in &keys {
            s.insert(k);
        }
        let back: Vec<u32> = s.iter().collect();
        assert_eq!(back, keys.into_iter().collect::<Vec<_>>());
    }
}

/// Cases for the heavier invariants below (proptest used 16 here).
const HEAVY_CASES: usize = 16;

#[test]
fn bipartiteness_verdict_matches_two_coloring() {
    let mut rng = Prng::seed_from_u64(0xB1);
    for _ in 0..HEAVY_CASES {
        let g = Arc::new(random_graph(&mut rng));
        let out = flash_algos::bipartite::run(&g, cfg(3)).unwrap().result;
        // Reference: BFS 2-coloring.
        let n = g.num_vertices();
        let mut color = vec![-1i8; n];
        let mut ok = true;
        for s in 0..n as u32 {
            if color[s as usize] != -1 {
                continue;
            }
            color[s as usize] = 0;
            let mut q = std::collections::VecDeque::from([s]);
            while let Some(v) = q.pop_front() {
                for &t in g.out_neighbors(v) {
                    if color[t as usize] == -1 {
                        color[t as usize] = 1 - color[v as usize];
                        q.push_back(t);
                    } else if color[t as usize] == color[v as usize] {
                        ok = false;
                    }
                }
            }
        }
        assert_eq!(out.bipartite, ok);
        if out.bipartite {
            for (s, d, _) in g.edges() {
                assert_ne!(out.sides[s as usize], out.sides[d as usize]);
            }
        }
    }
}

#[test]
fn bridges_disconnect_and_nonbridges_do_not() {
    let mut rng = Prng::seed_from_u64(0xB2);
    for _ in 0..HEAVY_CASES {
        let g = Arc::new(random_graph(&mut rng));
        let bridges = flash_algos::bridges::run(&g, cfg(2)).unwrap().result;
        let undirected: Vec<(u32, u32)> = g
            .edges()
            .filter(|&(s, d, _)| s < d)
            .map(|(s, d, _)| (s, d))
            .collect();
        for &(a, b) in &undirected {
            let mut dsu = flash_graph::DisjointSets::new(g.num_vertices());
            for &(s, d) in &undirected {
                if (s, d) != (a, b) {
                    dsu.union(s, d);
                }
            }
            let disconnects = !dsu.same(a, b);
            assert_eq!(
                bridges.binary_search(&(a, b)).is_ok(),
                disconnects,
                "edge ({a}, {b})"
            );
        }
    }
}

#[test]
fn clustering_coefficients_are_probabilities() {
    let mut rng = Prng::seed_from_u64(0xB3);
    for _ in 0..HEAVY_CASES {
        let g = Arc::new(random_graph(&mut rng));
        let out = flash_algos::cluster_coeff::run(&g, cfg(3)).unwrap().result;
        for (v, &c) in out.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-12).contains(&c), "vertex {v} has c = {c}");
            if g.degree(v as u32) < 2 {
                assert_eq!(c, 0.0);
            }
        }
        // Triangle-consistency: Σ_v c(v)·C(deg,2) = 3 · #triangles.
        let weighted: f64 = out
            .iter()
            .enumerate()
            .map(|(v, &c)| {
                let d = g.degree(v as u32) as f64;
                c * d * (d - 1.0) / 2.0
            })
            .sum();
        let tri = flash_algos::reference::triangle_count(&g) as f64;
        assert!((weighted - 3.0 * tri).abs() < 1e-6);
    }
}

#[test]
fn sssp_matches_dijkstra() {
    let mut rng = Prng::seed_from_u64(0xB4);
    for _ in 0..HEAVY_CASES {
        let g = random_graph(&mut rng);
        let g = Arc::new(generators::with_random_weights(
            &g,
            0.1,
            3.0,
            rng.next_u64(),
        ));
        let got = flash_algos::sssp::run(&g, cfg(2), 0).unwrap().result;
        let want = flash_algos::reference::dijkstra(&g, 0);
        for v in 0..g.num_vertices() {
            if want[v].is_finite() {
                assert!((got[v] - want[v]).abs() < 1e-6);
            } else {
                assert!(got[v].is_infinite());
            }
        }
    }
}

#[test]
fn dedup_window_never_admits_a_sequence_twice() {
    use flash_runtime::DedupWindow;
    let mut rng = Prng::seed_from_u64(0xC1);
    for case in 0..CASES {
        let pairs = rng.gen_range(1usize..6);
        let mut w = DedupWindow::new(pairs);
        let mut admitted = std::collections::HashSet::new();
        // Random interleavings with heavy repetition: in-order runs,
        // ahead-of-order arrivals, and stale replays of old sequences.
        for _ in 0..200 {
            let pair = rng.gen_range(0usize..pairs);
            let seq = u64::from(rng.gen_range(0u32..40));
            let fresh = admitted.insert((pair, seq));
            assert_eq!(
                w.admit(pair, seq),
                fresh,
                "case {case}: pair {pair} seq {seq} must be admitted exactly once"
            );
        }
    }
}

#[test]
fn transport_retransmits_never_exceed_the_budget() {
    use flash_runtime::transport::{RoundBatches, Transport};
    use flash_runtime::{DeliveryStats, FaultPlan};
    let mut rng = Prng::seed_from_u64(0xC2);
    for case in 0..CASES {
        let loss = (rng.next_u64() % 40) as f64 / 100.0;
        let dup = (rng.next_u64() % 20) as f64 / 100.0;
        let corrupt = (rng.next_u64() % 20) as f64 / 100.0;
        let retries = 2 + (rng.next_u64() % 6) as u32;
        let plan = FaultPlan::parse(&format!(
            "loss={loss},dupRate={dup},corruptRate={corrupt},retries={retries},seed={}",
            rng.next_u64()
        ))
        .unwrap();
        let hosts = 2 + rng.gen_range(0usize..3);
        let mut t = Transport::new(&plan, hosts);
        let mut stats = DeliveryStats::default();
        for step in 1..=4u64 {
            let mut batches = RoundBatches::new();
            for s in 0..hosts {
                for r in 0..hosts {
                    if s != r && rng.next_u64().is_multiple_of(2) {
                        batches.insert((s, r), (1 + rng.next_u64() % 9, 64 + rng.next_u64() % 512));
                    }
                }
            }
            let out = t.deliver(step, "sync", &batches, &[], None, &mut stats);
            // Each batch gets at most `retries` retransmissions before the
            // sender gives up, so the totals are bounded by the budget.
            assert!(
                stats.retransmits <= stats.batches_sent * u64::from(retries),
                "case {case}: {stats:?}"
            );
            if out.failure.is_some() {
                assert!(!t.active, "case {case}: exhaustion disables the transport");
                break;
            }
        }
    }
}

#[test]
fn batch_checksums_detect_any_framing_change() {
    use flash_runtime::batch_checksum;
    let mut rng = Prng::seed_from_u64(0xC3);
    for case in 0..CASES {
        let f = [
            rng.next_u64() % 8,
            rng.next_u64() % 8,
            rng.next_u64() % 1000,
            1 + rng.next_u64() % 500,
            1 + rng.next_u64() % 4096,
        ];
        let sum = |f: [u64; 5]| batch_checksum(f[0] as usize, f[1] as usize, f[2], f[3], f[4]);
        let base = sum(f);
        assert_eq!(base, sum(f), "case {case}: checksums are deterministic");
        // Perturbing any single framing field changes the checksum.
        for (i, _) in f.iter().enumerate() {
            let mut other = f;
            other[i] = other[i].wrapping_add(1 + rng.next_u64() % 1000);
            assert_ne!(base, sum(other), "case {case}: field {i} not covered");
        }
        // A corruption nonce is a nonzero XOR of the wire checksum, so the
        // receiver's recomputation always detects it.
        let nonce = rng.next_u64() | 1;
        assert_ne!(base, base ^ nonce, "case {case}");
    }
}

#[test]
fn bc_matches_brandes() {
    let mut rng = Prng::seed_from_u64(0xB5);
    for _ in 0..HEAVY_CASES {
        let g = Arc::new(random_graph(&mut rng));
        let got = flash_algos::bc::run(&g, cfg(3), 0).unwrap().result;
        let (_, want) = flash_algos::reference::brandes_single_source(&g, 0);
        for v in 1..g.num_vertices() {
            assert!((got[v] - want[v]).abs() < 1e-7, "vertex {v}");
        }
    }
}
