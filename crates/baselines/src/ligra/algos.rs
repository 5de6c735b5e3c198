//! Ligra algorithm implementations (the shared-memory baseline column).
//!
//! Per Table I, Ligra expresses CC, BFS, BC, MIS, MM-basic, KC and TC;
//! the rest of the catalogue (CC-opt, MM-opt, GC, SCC, BCC, LPA, MSF, RC,
//! CL) is beyond the model — no custom edge sets, no variable-length
//! property exchange, no global reductions — so this module has no entry
//! for them and the harness reports those cells as unsupported.

use super::engine::{Frontier, Ligra};
use super::sorted_intersection_size;
use crate::{BaselineOutput, EngineStats};
use flash_graph::{Graph, VertexId};
use std::sync::Arc;

fn output<T>(result: T, rounds: usize) -> BaselineOutput<T> {
    BaselineOutput {
        result,
        stats: EngineStats {
            supersteps: rounds,
            messages: 0,
            bytes: 0,
            makespan: std::time::Duration::ZERO, // single node: use wall time
        },
    }
}

/// BFS levels from `root`.
pub fn bfs(graph: &Arc<Graph>, root: VertexId) -> BaselineOutput<Vec<u32>> {
    let mut ligra = Ligra::new(Arc::clone(graph));
    let n = ligra.n();
    let mut dist = vec![u32::MAX; n];
    dist[root as usize] = 0;
    let mut frontier = Frontier::from_ids(n, [root]);
    let mut rounds = 0;
    while !frontier.is_empty() {
        frontier = ligra.edge_map(
            &mut dist,
            &frontier,
            |s, d, _, vals| {
                vals[d as usize] = vals[s as usize] + 1;
                true
            },
            |d, vals| vals[d as usize] == u32::MAX,
        );
        rounds += 1;
    }
    output(dist, rounds)
}

/// Connected components by min-label propagation.
pub fn cc(graph: &Arc<Graph>) -> BaselineOutput<Vec<u32>> {
    let mut ligra = Ligra::new(Arc::clone(graph));
    let n = ligra.n();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut frontier = Frontier::full(n);
    let mut rounds = 0;
    while !frontier.is_empty() {
        frontier = ligra.edge_map(
            &mut label,
            &frontier,
            |s, d, _, vals| {
                if vals[s as usize] < vals[d as usize] {
                    vals[d as usize] = vals[s as usize];
                    true
                } else {
                    false
                }
            },
            |_, _| true,
        );
        rounds += 1;
    }
    output(label, rounds)
}

/// Single-source Brandes dependency scores (Ligra's BC).
pub fn bc(graph: &Arc<Graph>, root: VertexId) -> BaselineOutput<Vec<f64>> {
    #[derive(Clone)]
    struct S {
        level: i64,
        sigma: f64,
        delta: f64,
    }
    let mut ligra = Ligra::new(Arc::clone(graph));
    let n = ligra.n();
    let mut vals: Vec<S> = (0..n)
        .map(|_| S {
            level: -1,
            sigma: 0.0,
            delta: 0.0,
        })
        .collect();
    vals[root as usize] = S {
        level: 0,
        sigma: 1.0,
        delta: 0.0,
    };
    // Forward: keep each level's frontier on a stack.
    let mut stack: Vec<Frontier> = vec![Frontier::from_ids(n, [root])];
    let mut level = 0i64;
    let mut rounds = 0;
    loop {
        let top = stack.last().expect("stack never empty");
        if top.is_empty() {
            stack.pop();
            break;
        }
        level += 1;
        let lv = level;
        let next = ligra.edge_map(
            &mut vals,
            top,
            |s, d, _, vals| {
                vals[d as usize].sigma += vals[s as usize].sigma;
                if vals[d as usize].level == -1 {
                    vals[d as usize].level = lv;
                    true
                } else {
                    false
                }
            },
            |d, vals| {
                let l = vals[d as usize].level;
                l == -1 || l == lv
            },
        );
        rounds += 1;
        stack.push(next);
    }
    // Backward: pop the level frontiers in reverse.
    while let Some(top) = stack.pop() {
        if top.is_empty() {
            continue;
        }
        ligra.edge_map(
            &mut vals,
            &top,
            |s, d, _, vals| {
                if vals[d as usize].level == vals[s as usize].level - 1 {
                    let c = vals[d as usize].sigma / vals[s as usize].sigma
                        * (1.0 + vals[s as usize].delta);
                    vals[d as usize].delta += c;
                    true
                } else {
                    false
                }
            },
            |_, _| true,
        );
        rounds += 1;
    }
    let mut result: Vec<f64> = vals.into_iter().map(|s| s.delta).collect();
    result[root as usize] = 0.0;
    output(result, rounds)
}

/// Maximal independent set (Luby priorities).
pub fn mis(graph: &Arc<Graph>) -> BaselineOutput<Vec<bool>> {
    #[derive(Clone)]
    struct S {
        state: u8, // 0 undecided, 1 in, 2 out
        priority: u64,
        blocked: bool,
    }
    let mut ligra = Ligra::new(Arc::clone(graph));
    let n = ligra.n();
    let g = ligra.graph();
    let mut vals: Vec<S> = (0..n as u32)
        .map(|v| S {
            state: 0,
            priority: g.degree(v) as u64 * n as u64 + v as u64,
            blocked: false,
        })
        .collect();
    let mut active = Frontier::full(n);
    let mut rounds = 0;
    while !active.is_empty() {
        // Block candidates that see a smaller-priority undecided neighbor.
        ligra.edge_map_dense(
            &mut vals,
            &Frontier::full(n),
            &mut |s, d, _, vals: &mut [S]| {
                if vals[s as usize].state == 0
                    && vals[s as usize].priority < vals[d as usize].priority
                {
                    vals[d as usize].blocked = true;
                    true
                } else {
                    false
                }
            },
            &mut |d, vals| active.contains(d) && !vals[d as usize].blocked,
        );
        // Unblocked members join; their neighbors drop out.
        let joined = ligra.vertex_map(&mut vals, &active, |_, s| {
            if !s.blocked && s.state == 0 {
                s.state = 1;
                true
            } else {
                false
            }
        });
        let dropped = ligra.edge_map_sparse(
            &mut vals,
            &joined,
            &mut |_, d, _, vals: &mut [S]| {
                vals[d as usize].state = 2;
                true
            },
            &mut |d, vals| vals[d as usize].state == 0,
        );
        active = ligra.vertex_map(&mut vals.clone(), &active.minus(&dropped), |v, s| {
            s.state == 0 && !joined.contains(v)
        });
        // Reset block flags for the next round.
        ligra.vertex_map(&mut vals, &Frontier::full(n), |_, s| {
            s.blocked = false;
            true
        });
        rounds += 1;
    }
    output(vals.into_iter().map(|s| s.state == 1).collect(), rounds)
}

/// Greedy maximal matching (max-id proposals, mutual confirmation).
pub fn mm(graph: &Arc<Graph>) -> BaselineOutput<Vec<Option<VertexId>>> {
    #[derive(Clone)]
    struct S {
        partner: i64,
        cand: i64,
    }
    let mut ligra = Ligra::new(Arc::clone(graph));
    let n = ligra.n();
    let mut vals: Vec<S> = (0..n)
        .map(|_| S {
            partner: -1,
            cand: -1,
        })
        .collect();
    let mut active = Frontier::full(n);
    let mut rounds = 0;
    while !active.is_empty() && rounds <= n + 4 {
        // Reset proposals.
        ligra.vertex_map(&mut vals, &active, |_, s| {
            s.cand = -1;
            s.partner == -1
        });
        // Propose: remember the max-id unmatched suitor.
        let received = ligra.edge_map(
            &mut vals,
            &active,
            |s, d, _, vals| {
                if vals[s as usize].partner == -1 && (s as i64) > vals[d as usize].cand {
                    vals[d as usize].cand = s as i64;
                    true
                } else {
                    false
                }
            },
            |d, vals| vals[d as usize].partner == -1,
        );
        // Confirm mutual candidates.
        ligra.edge_map(
            &mut vals,
            &received,
            |s, d, _, vals| {
                if vals[s as usize].cand == d as i64 && vals[d as usize].cand == s as i64 {
                    vals[d as usize].partner = s as i64;
                    true
                } else {
                    false
                }
            },
            |d, vals| vals[d as usize].partner == -1,
        );
        active = received;
        rounds += 1;
    }
    output(
        vals.into_iter()
            .map(|s| (s.partner >= 0).then_some(s.partner as VertexId))
            .collect(),
        rounds,
    )
}

/// K-core numbers by frontier peeling (Ligra's algorithm, as described
/// in the paper's §B-F).
pub fn kcore(graph: &Arc<Graph>) -> BaselineOutput<Vec<u32>> {
    #[derive(Clone)]
    struct S {
        deg: i64,
        core: u32,
    }
    let mut ligra = Ligra::new(Arc::clone(graph));
    let n = ligra.n();
    let g = ligra.graph();
    let mut vals: Vec<S> = (0..n as u32)
        .map(|v| S {
            deg: g.degree(v) as i64,
            core: 0,
        })
        .collect();
    let mut remaining = Frontier::full(n);
    let mut rounds = 0;
    let mut k = 1i64;
    while !remaining.is_empty() {
        let peeled = ligra.vertex_map(&mut vals, &remaining, |_, s| {
            if s.deg < k {
                s.core = (k - 1) as u32;
                true
            } else {
                false
            }
        });
        rounds += 1;
        if peeled.is_empty() {
            k += 1;
            continue;
        }
        remaining = remaining.minus(&peeled);
        ligra.edge_map_sparse(
            &mut vals,
            &peeled,
            &mut |_, d, _, vals: &mut [S]| {
                vals[d as usize].deg -= 1;
                true
            },
            &mut |_, _| true,
        );
    }
    output(vals.into_iter().map(|s| s.core).collect(), rounds)
}

/// Exact triangle count (rank orientation + sorted intersections).
pub fn tc(graph: &Arc<Graph>) -> BaselineOutput<u64> {
    let g = graph;
    let n = g.num_vertices();
    let rank = |v: VertexId| (g.out_degree(v), v);
    // Ligra's TC builds the oriented adjacency in shared memory directly.
    let higher: Vec<Vec<VertexId>> = (0..n as VertexId)
        .map(|v| {
            let mut hs: Vec<VertexId> = g
                .out_neighbors(v)
                .iter()
                .copied()
                .filter(|&t| rank(t) > rank(v))
                .collect();
            hs.sort_unstable();
            hs.dedup();
            hs
        })
        .collect();
    let mut count = 0u64;
    for v in 0..n {
        for &u in &higher[v] {
            count += sorted_intersection_size(&higher[v], &higher[u as usize]);
        }
    }
    output(count, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::generators;

    #[test]
    fn bfs_matches_reference() {
        let g = Arc::new(generators::grid2d(6, 9));
        let expect = flash_graph::stats::bfs_levels(&g, 0);
        let out = bfs(&g, 0);
        for (v, &e) in expect.iter().enumerate() {
            let want = if e == usize::MAX { u32::MAX } else { e as u32 };
            assert_eq!(out.result[v], want, "vertex {v}");
        }
    }

    #[test]
    fn cc_labels() {
        let g = Arc::new(
            flash_graph::GraphBuilder::new(6)
                .edges([(0, 1), (1, 2), (4, 5)])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        assert_eq!(cc(&g).result, vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn bc_on_path_and_diamond() {
        let g = Arc::new(generators::path(5, true));
        assert_eq!(bc(&g, 0).result, vec![0.0, 3.0, 2.0, 1.0, 0.0]);
        let g = Arc::new(
            flash_graph::GraphBuilder::new(4)
                .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        let out = bc(&g, 0);
        assert!((out.result[1] - 0.5).abs() < 1e-9);
        assert!((out.result[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mis_valid() {
        for g in [
            generators::erdos_renyi(70, 180, 3),
            generators::star(10, true),
            generators::complete(7),
        ] {
            let g = Arc::new(g);
            let set = mis(&g).result;
            for (s, d, _) in g.edges() {
                assert!(!(set[s as usize] && set[d as usize]));
            }
            for v in 0..g.num_vertices() {
                assert!(
                    set[v] || g.out_neighbors(v as u32).iter().any(|&t| set[t as usize]),
                    "not maximal at {v}"
                );
            }
        }
    }

    #[test]
    fn mm_valid() {
        for g in [
            generators::erdos_renyi(70, 180, 3),
            generators::path(8, true),
            generators::cycle(9, true),
        ] {
            let g = Arc::new(g);
            let p = mm(&g).result;
            for (v, &m) in p.iter().enumerate() {
                if let Some(m) = m {
                    assert_eq!(p[m as usize], Some(v as u32));
                    assert!(g.has_edge(v as u32, m));
                }
            }
            for (s, d, _) in g.edges() {
                assert!(s == d || p[s as usize].is_some() || p[d as usize].is_some());
            }
        }
    }

    #[test]
    fn kcore_matches_flash() {
        let g = Arc::new(
            flash_graph::GraphBuilder::new(6)
                .edges([
                    (0, 1),
                    (0, 2),
                    (0, 3),
                    (1, 2),
                    (1, 3),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                ])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        assert_eq!(kcore(&g).result, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn tc_counts() {
        assert_eq!(tc(&Arc::new(generators::complete(6))).result, 20);
        assert_eq!(
            tc(&Arc::new(generators::bipartite_complete(4, 4))).result,
            0
        );
    }
}
