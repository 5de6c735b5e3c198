//! A pull over a sparse frontier walks only the masters the frontier
//! reaches. These tests hold `EDGEMAPDENSE` to a naive model that walks
//! every vertex's pull row, bit for bit: values, output subset and the
//! arcs of the rows opened, over `E`, `reverse(E)` and `join(E, U')` on a
//! directed, weighted graph with duplicate arcs, at 1, 2 and 3 workers,
//! sequential and pooled, in memory and on a `.fgb` block file.

use flash_core::prelude::*;
use flash_graph::rng::Prng;
use flash_graph::{Graph, GraphBuilder, VertexId, Weight};
use flash_runtime::{RunStats, StepKind, StorageMode, DENSE_THRESHOLD};
use std::sync::Arc;

/// An order-sensitive float accumulator and a visit counter `c` reads.
#[derive(Clone)]
struct Acc {
    sum: f64,
    hits: u32,
}
flash_runtime::full_sync!(Acc);

fn init(v: VertexId) -> Acc {
    Acc {
        sum: 1.0 + f64::from(v) * 0.25,
        hits: 0,
    }
}

/// `F`: rejects the sources of one residue class.
fn take(e: EdgeRef, _: &Acc, _: &Acc) -> bool {
    e.src % 7 != 3
}

/// `M`: a float sum whose value depends on the order of the row.
fn add(e: EdgeRef, s: &Acc, d: &mut Acc) {
    d.sum = d.sum * 0.5 + s.sum * f64::from(e.weight);
    d.hits += 1;
}

/// `C` that never stops a row.
fn open(_: VertexId, _: &Acc) -> bool {
    true
}

/// `C` that turns false in the middle of any row with three qualifying
/// arcs.
fn few(_: VertexId, d: &Acc) -> bool {
    d.hits < 3
}

type Cond = fn(VertexId, &Acc) -> bool;

/// The edge set `H` of a case.
#[derive(Clone, Copy, Debug)]
enum Set {
    Forward,
    Reverse,
    /// `join(E, U')` with `U'` the even vertices.
    Join,
}

impl Set {
    fn edges(self, ctx: &FlashContext<Acc>) -> EdgeSet<Acc> {
        match self {
            Set::Forward => EdgeSet::forward(),
            Set::Reverse => EdgeSet::reverse(),
            Set::Join => {
                let n = ctx.num_vertices() as VertexId;
                EdgeSet::targets_in(&ctx.subset((0..n).step_by(2)))
            }
        }
    }

    /// The row into `d` that the pull walks, with its weights.
    fn pull_row(self, g: &Graph, d: VertexId) -> (&[VertexId], Option<&[Weight]>) {
        match self {
            Set::Forward => (g.in_neighbors(d), g.in_weights(d)),
            Set::Reverse => (g.out_neighbors(d), g.out_weights(d)),
            Set::Join if d.is_multiple_of(2) => (g.in_neighbors(d), g.in_weights(d)),
            Set::Join => (&[], None),
        }
    }

    /// The stored row out of `s`, before `join`'s gate.
    fn push_row(self, g: &Graph, s: VertexId) -> &[VertexId] {
        match self {
            Set::Reverse => g.in_neighbors(s),
            Set::Forward | Set::Join => g.out_neighbors(s),
        }
    }
}

/// A directed graph of 5 000 vertices (two blocks on disk) with weights,
/// duplicate arcs, sinks (`v % 11 == 0`) and vertices nothing points at
/// (`v % 13 == 0`).
fn graph() -> Graph {
    let n = 5_000u32;
    let mut rng = Prng::seed_from_u64(37);
    let mut arcs = Vec::new();
    for s in (0..n).filter(|s| s % 11 != 0) {
        let degree = 1 + rng.gen_range(0..8u32) * rng.gen_range(0..3u32);
        for _ in 0..degree {
            let mut d = rng.gen_range(0..n);
            while d.is_multiple_of(13) {
                d = rng.gen_range(0..n);
            }
            let w = 0.5 + rng.gen_range(0..64u32) as Weight / 32.0;
            arcs.push((s, d, w));
            if rng.gen_range(0..8u32) == 0 {
                arcs.push((s, d, w + 1.0));
            }
        }
    }
    GraphBuilder::new(n as usize)
        .weighted_edges(arcs)
        .build()
        .unwrap()
}

/// What a pull from `u` over `set` produced.
struct Outcome {
    /// Every vertex's `(sum bits, hits)` afterwards.
    values: Vec<(u64, u32)>,
    /// The output subset.
    out: Vec<VertexId>,
    /// Arcs in the rows opened.
    arcs: u64,
}

/// The naive model: every vertex passing `c` opens its pull row and walks
/// it in CSR order until `c` fails. Returns the outcome with the arcs of
/// every row opened, and the arcs of the rows whose vertex some source in
/// `u` reaches.
fn model(g: &Graph, set: Set, u: &[VertexId], c: Cond) -> (Outcome, u64) {
    let n = g.num_vertices();
    let mut member = vec![false; n];
    let mut reached = vec![false; n];
    for &s in u {
        member[s as usize] = true;
        for &d in set.push_row(g, s) {
            if !matches!(set, Set::Join) || d.is_multiple_of(2) {
                reached[d as usize] = true;
            }
        }
    }
    let old: Vec<Acc> = (0..n as VertexId).map(init).collect();
    let mut new = old.clone();
    let (mut out, mut arcs, mut reached_arcs) = (Vec::new(), 0, 0);
    for d in 0..n as VertexId {
        if !c(d, &old[d as usize]) {
            continue;
        }
        let (row, weights) = set.pull_row(g, d);
        arcs += row.len() as u64;
        if reached[d as usize] {
            reached_arcs += row.len() as u64;
        }
        let mut val = old[d as usize].clone();
        let mut hit = false;
        for (i, &s) in row.iter().enumerate() {
            if !c(d, &val) {
                break;
            }
            let e = EdgeRef {
                src: s,
                dst: d,
                weight: weights.map_or(1.0, |w| w[i]),
            };
            if member[s as usize] && take(e, &old[s as usize], &val) {
                add(e, &old[s as usize], &mut val);
                hit = true;
            }
        }
        if hit {
            new[d as usize] = val;
            out.push(d);
        }
    }
    let values = new.iter().map(|a| (a.sum.to_bits(), a.hits)).collect();
    (Outcome { values, out, arcs }, reached_arcs)
}

/// One `EDGEMAPDENSE` call on a fresh context; the outcome and the stats.
fn pull(
    g: &Arc<Graph>,
    cfg: ClusterConfig,
    set: Set,
    u: &[VertexId],
    c: Cond,
) -> (Outcome, RunStats) {
    let mut ctx = FlashContext::build(Arc::clone(g), cfg, init).unwrap();
    let frontier = if u.len() == g.num_vertices() {
        ctx.all()
    } else {
        ctx.subset(u.iter().copied())
    };
    let h = set.edges(&ctx);
    let out = ctx.edge_map_dense(&frontier, &h, take, add, c);
    assert!(ctx.fault_error().is_none());
    let values = ctx.collect(|_, a| (a.sum.to_bits(), a.hits));
    let stats = ctx.take_stats();
    let arcs = stats.steps().iter().map(|s| s.arcs).sum();
    let outcome = Outcome {
        values,
        out: out.to_vec(),
        arcs,
    };
    (outcome, stats)
}

/// The frontiers of a set: empty, one vertex, one vertex without push
/// arcs, and two that straddle the threshold — the push rows of `under`
/// plus `|under|` come to at most `DENSE_THRESHOLD · |E|` arcs, and `over`
/// is `under` and one vertex more, past it.
fn frontiers(g: &Graph, set: Set) -> Vec<(&'static str, Vec<VertexId>)> {
    let n = g.num_vertices() as VertexId;
    let limit = (DENSE_THRESHOLD * g.num_edges() as f64) as usize;
    let bare = (0..n).find(|&s| set.push_row(g, s).is_empty()).unwrap();
    let (mut under, mut count) = (Vec::new(), 0);
    // A stride spreads the frontier over every worker's masters.
    let next = (0..n)
        .map(|i| i * 7_919 % n)
        .find(|&s| {
            let cost = 1 + set.push_row(g, s).len();
            if count + cost > limit {
                return true;
            }
            count += cost;
            under.push(s);
            false
        })
        .unwrap();
    assert!(count <= limit && count + 1 + set.push_row(g, next).len() > limit);
    let mut over = under.clone();
    over.push(next);
    under.sort_unstable();
    over.sort_unstable();
    vec![
        ("empty", vec![]),
        ("single", vec![under[under.len() / 2]]),
        ("no push arcs", vec![bare]),
        ("under", under),
        ("over", over),
    ]
}

fn configs() -> Vec<(String, ClusterConfig)> {
    let mut all = Vec::new();
    for workers in 1..=3 {
        let pooled = ClusterConfig::with_workers(workers);
        all.push((format!("{workers} pooled"), pooled.clone()));
        all.push((format!("{workers} sequential"), pooled.sequential()));
    }
    all
}

/// Every case equals the model bit for bit, in memory and on `.fgb`; the
/// walk opens only the reached masters' rows below the threshold and every
/// master's above it, and a narrow walk on `.fgb` streams no more than a
/// full one.
#[test]
fn sparse_frontier_pull_equals_the_full_walk_model() {
    let g = Arc::new(graph());
    let dir = flash_graph::testutil::TempDirGuard::new("frontier-pull");
    let path = dir.path().join("g.fgb");
    flash_graph::write_blocks(&g, &path).unwrap();
    let blk = Arc::new(flash_graph::open_blocks(&path).unwrap());
    assert!(blk.block_handle().unwrap().grid().nb() > 1, "multi-block");
    let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();

    for set in [Set::Forward, Set::Reverse, Set::Join] {
        for (name, u) in frontiers(&g, set) {
            for (stops, c) in [(false, open as Cond), (true, few)] {
                let (want, reached_arcs) = model(&g, set, &u, c);
                let case = format!("{set:?}, {name} frontier of {}", u.len());
                match name {
                    "under" => assert!(reached_arcs < want.arcs, "{case}: the list is shorter"),
                    "over" => assert!(want.out.len() > 1, "{case}: the pull updates"),
                    _ => {}
                }
                let opened = if name == "over" {
                    want.arcs
                } else {
                    reached_arcs
                };
                for (label, cfg) in configs() {
                    let (mem, _) = pull(&g, cfg.clone(), set, &u, c);
                    let (disk, stats) =
                        pull(&blk, cfg.clone().storage(StorageMode::Block), set, &u, c);
                    for (got, engine) in [(mem, "in memory"), (disk, "on .fgb")] {
                        let case = format!("{case}, {label}, {engine}");
                        assert_eq!((&got.out, got.arcs), (&want.out, opened), "{case}");
                        let off = got
                            .values
                            .iter()
                            .zip(&want.values)
                            .position(|(a, b)| a != b);
                        assert_eq!(off, None, "{case}: the first vertex off the model");
                    }
                    if !stops {
                        // With `c` always true a full walk reads every row
                        // whole, whatever the frontier: the walk from `all`
                        // streams exactly what it does.
                        let full = pull(&blk, cfg.storage(StorageMode::Block), set, &all, c).1;
                        let streamed = |s: &RunStats| (s.bytes_streamed(), s.blocks_streamed());
                        let (narrow, full) = (streamed(&stats), streamed(&full));
                        assert!(narrow.0 <= full.0 && narrow.1 <= full.1, "{case}, {label}");
                        if name == "over" {
                            assert_eq!(narrow, full, "{case}, {label}: the full walk");
                        }
                    }
                }
            }
        }
    }
}

/// One adaptive `EDGEMAP` from `u` over `set` on a fresh context: the
/// kernel it ran and the arcs it walked.
fn adaptive(g: &Arc<Graph>, set: Set, u: &[VertexId]) -> (StepKind, u64) {
    let mut ctx = FlashContext::build(Arc::clone(g), ClusterConfig::with_workers(2), init).unwrap();
    let frontier = ctx.subset(u.iter().copied());
    let h = set.edges(&ctx);
    ctx.edge_map(&frontier, &h, take, add, open, |t, acc| {
        acc.sum += t.sum;
        acc.hits += t.hits;
    });
    let step = ctx.take_stats().steps()[0].clone();
    (step.kind, step.arcs)
}

/// An adaptive `EDGEMAP` hands the verdict of its own count to the pull.
/// Over `E`, from the first vertices whose `|U|` plus out-degrees just
/// pass the limit, the pull walks every master; one vertex fewer is under
/// the limit and goes sparse.
#[test]
fn adaptive_pull_walks_every_master_once_the_count_says_dense() {
    let g = Arc::new(graph());
    let limit = (DENSE_THRESHOLD * g.num_edges() as f64) as usize;
    let (mut u, mut count) = (Vec::new(), 0);
    for v in 0..g.num_vertices() as VertexId {
        if count > limit {
            break;
        }
        u.push(v);
        count += 1 + g.out_degree(v);
    }
    let last = *u.last().unwrap();
    assert!(count > limit && count - 1 - g.out_degree(last) <= limit);
    let all_in_rows = g.num_edges() as u64;
    assert_eq!(
        adaptive(&g, Set::Forward, &u),
        (StepKind::EdgeMapDense, all_in_rows)
    );
    let under = &u[..u.len() - 1];
    assert_eq!(adaptive(&g, Set::Forward, under).0, StepKind::EdgeMapSparse);
}

/// A push over `reverse(E)` reads in-rows, so the adaptive count sums
/// in-degrees: from vertices nothing points at, whose out-degrees alone
/// pass the limit, it counts only `|U|` and goes sparse.
#[test]
fn adaptive_count_over_reverse_reads_in_degrees() {
    let g = Arc::new(graph());
    let limit = (DENSE_THRESHOLD * g.num_edges() as f64) as usize;
    let mut unreached: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| g.in_degree(v) == 0)
        .collect();
    unreached.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
    let (mut u, mut out_count) = (Vec::new(), 0);
    for v in unreached {
        if out_count > limit {
            break;
        }
        u.push(v);
        out_count += 1 + g.out_degree(v);
    }
    assert!(
        out_count > limit && u.len() <= limit,
        "the counts must disagree"
    );
    assert_eq!(adaptive(&g, Set::Reverse, &u).0, StepKind::EdgeMapSparse);
}
