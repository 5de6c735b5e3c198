//! `serve_mix`: one `Session` answering a query/update stream in a closed
//! loop with one client and no think time (each query already runs two
//! worker threads, which is every core of the reference box).

use crate::batch::{
    permutation, ranks_match, relabel, serial_bfs, time_builds, Answer, STRUCTURE_SEED, WORKERS,
};
use crate::layers::Layers;
use crate::span::Recorder;
use crate::util::{self, timed, SplitMix64};
use crate::{EndToEnd, Outcome, Params};
use flash_algos::incremental::{full_cc, full_pagerank, MaintainedCc, MaintainedPageRank};
use flash_algos::{bfs, cc, pagerank, reference, sssp};
use flash_graph::generators::{rmat, RmatParams};
use flash_graph::{DeltaOverlay, EdgeUpdate, Graph};
use flash_obs::CollectSink;
use flash_runtime::{ClusterConfig, RunStats, Session};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

const SCALE: u32 = 13;
const EDGE_FACTOR: usize = 8;
const PAGERANK_ITERS: usize = 5;
const REPAIR_EPS: f64 = 1e-9;
/// An update batch applies `FRESH_UPDATES` new edge updates and undoes the
/// ones that have been in force longest, so `OUTSTANDING` stay in force.
const UPDATES_PER_BATCH: usize = 16;
const FRESH_UPDATES: usize = UPDATES_PER_BATCH / 2;
const OUTSTANDING: usize = 64;
/// One round is 100 ops in shuffled order: 40 % BFS, 20 % SSSP, 20 % CC,
/// 10 % PageRank, 10 % update batches. Whole rounds keep the mix exact.
const ROUND_MIX: [(Kind, usize); 5] = [
    (Kind::Bfs, 40),
    (Kind::Sssp, 20),
    (Kind::Cc, 20),
    (Kind::PageRank, 10),
    (Kind::Update, 10),
];
/// The op stream is one cycle of this many rounds, repeated: the set-up runs
/// it once as the warm-up, a traced run once more, a timed run until
/// `--seconds` are over.
const CYCLE_ROUNDS: usize = 3;
const SETUP_PASSES: usize = 3;
const MIN_TIMED_CYCLES: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Bfs,
    Sssp,
    Cc,
    PageRank,
    Update,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Bfs => "algos.q_bfs",
            Kind::Sssp => "algos.q_sssp",
            Kind::Cc => "algos.q_cc",
            Kind::PageRank => "algos.q_pagerank",
            Kind::Update => "algos.update",
        }
    }

    fn p50_metric(self) -> &'static str {
        match self {
            Kind::Bfs => "algos.q_bfs_p50_ms",
            Kind::Sssp => "algos.q_sssp_p50_ms",
            Kind::Cc => "algos.q_cc_p50_ms",
            Kind::PageRank => "algos.q_pagerank_p50_ms",
            Kind::Update => "algos.update_p50_ms",
        }
    }
}

struct Op {
    kind: Kind,
    root: u32,
    updates: Vec<EdgeUpdate>,
}

/// The op stream: one cycle of `CYCLE_ROUNDS` rounds drawn over the fixed
/// structure `g`, with every vertex `v` then renamed `perm[v]`.
///
/// Update batch `j` applies its own fresh updates and undoes those of batch
/// `j - OUTSTANDING / FRESH_UPDATES`, counting round the cycle. The overlay is
/// therefore in the same state each time the cycle comes round again, and
/// every repetition of a slot does the same work: a slot can be timed like a
/// rep of a batch workload, by its fastest repetition.
fn cycle(g: &Graph, perm: &[u32]) -> Vec<Op> {
    let mut rng = SplitMix64::new(STRUCTURE_SEED);
    // Vertices with at least one edge: roots and update endpoints.
    let roots: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| !g.out_neighbors(v).is_empty())
        .collect();
    let pick = |rng: &mut SplitMix64| roots[rng.below(roots.len())];
    let renamed = |u: EdgeUpdate| match u {
        EdgeUpdate::Insert(s, d) => EdgeUpdate::Insert(perm[s as usize], perm[d as usize]),
        EdgeUpdate::Delete(s, d) => EdgeUpdate::Delete(perm[s as usize], perm[d as usize]),
    };

    // No edge is updated twice in a cycle, or undoing one update would
    // disturb another.
    let batches = CYCLE_ROUNDS * ROUND_MIX[4].1;
    let mut used = HashSet::new();
    let mut fresh: Vec<Vec<(EdgeUpdate, EdgeUpdate)>> = Vec::new();
    for _ in 0..batches {
        let mut batch = Vec::new();
        while batch.len() < FRESH_UPDATES {
            let s = pick(&mut rng);
            let nbrs = g.out_neighbors(s);
            // A third are deletions of edges the snapshot has, the rest
            // insertions of edges it lacks, so every update is real.
            let delete = rng.below(3) == 0;
            let d = if delete {
                nbrs[rng.below(nbrs.len())]
            } else {
                pick(&mut rng)
            };
            if d == s || (!delete && nbrs.contains(&d)) || !used.insert((s.min(d), s.max(d))) {
                continue;
            }
            batch.push(if delete {
                (EdgeUpdate::Delete(s, d), EdgeUpdate::Insert(s, d))
            } else {
                (EdgeUpdate::Insert(s, d), EdgeUpdate::Delete(s, d))
            });
        }
        fresh.push(batch);
    }

    let lag = OUTSTANDING / FRESH_UPDATES;
    let mut batch = 0;
    let mut ops = Vec::new();
    for _ in 0..CYCLE_ROUNDS {
        let mut kinds: Vec<Kind> = ROUND_MIX
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let mut updates = Vec::new();
            if kind == Kind::Update {
                let undone = &fresh[(batch + batches - lag) % batches];
                updates.extend(undone.iter().map(|&(_, inverse)| renamed(inverse)));
                updates.extend(fresh[batch].iter().map(|&(update, _)| renamed(update)));
                batch += 1;
            }
            ops.push(Op {
                kind,
                root: perm[pick(&mut rng) as usize],
                updates,
            });
        }
    }
    ops
}

struct Server {
    session: Session,
    overlay: DeltaOverlay,
    cc: MaintainedCc,
    pr: MaintainedPageRank,
}

/// Answers of the root-free queries on the frozen snapshot.
struct Oracle {
    cc: Vec<u32>,
    pagerank: Vec<f64>,
}

struct Done {
    kind: Kind,
    wall_s: f64,
    cpu_s: f64,
    wire_bytes: u64,
}

impl Server {
    fn new(graph: Arc<Graph>, template: ClusterConfig, rec: &mut Recorder) -> (Server, f64) {
        let (session, session_new_s) = rec.span("runtime.session_new", || {
            Session::new(1, Arc::clone(&graph), template)
        });
        let overlay = DeltaOverlay::new(graph);
        let server = Server {
            session: session.expect("two workers"),
            cc: MaintainedCc::new(&overlay),
            pr: MaintainedPageRank::new(&overlay, REPAIR_EPS),
            overlay,
        };
        (server, session_new_s)
    }

    fn query(&self, op: &Op) -> Result<(Answer, RunStats), String> {
        let (g, cfg) = (self.session.graph(), self.session.config());
        match op.kind {
            Kind::Bfs => bfs::run(g, cfg, op.root).map(|o| (Answer::U32(o.result), o.stats)),
            Kind::Sssp => sssp::run(g, cfg, op.root).map(|o| (Answer::F64(o.result), o.stats)),
            Kind::Cc => cc::run(g, cfg).map(|o| (Answer::U32(o.result), o.stats)),
            Kind::PageRank => {
                pagerank::run(g, cfg, PAGERANK_ITERS).map(|o| (Answer::F64(o.result), o.stats))
            }
            Kind::Update => unreachable!("updates do not go through the query path"),
        }
        .map_err(|e| format!("{} returned Err: {e}", op.kind.span()))
    }

    /// Executes one op under the op timer and checks the answer outside it.
    /// A wrong answer is pushed onto `failures`; an `Err` aborts the run.
    fn exec(
        &mut self,
        op: &Op,
        oracle: &Oracle,
        rec: &mut Recorder,
        layers: &mut Layers,
        failures: &mut Vec<String>,
    ) -> Result<Done, String> {
        rec.enter(op.kind.span());
        let done = if op.kind == Kind::Update {
            let ((), wall_s, cpu_s) = timed(|| {
                let (batch, secs) = rec.span("graph.overlay_apply", || {
                    self.overlay.apply_batch(&op.updates)
                });
                layers.add("graph.overlay_apply_s", secs);
                let (_, secs) = rec.span("algos.cc_repair", || {
                    self.cc.repair(&self.overlay, &batch.touched)
                });
                layers.add("algos.cc_repair_s", secs);
                let (sweeps, secs) = rec.span("algos.pr_repair", || self.pr.repair(&self.overlay));
                layers.add("algos.pr_repair_s", secs);
                layers.add("algos.pr_repair_sweeps", sweeps as f64);
            });
            Done {
                kind: op.kind,
                wall_s,
                cpu_s,
                wire_bytes: 0,
            }
        } else {
            let (res, wall_s, cpu_s) = timed(|| self.query(op));
            let (answer, stats) = res?;
            layers.absorb(&stats);
            if let Err(e) = check(self.session.graph(), op, &answer, oracle) {
                failures.push(e);
            }
            Done {
                kind: op.kind,
                wall_s,
                cpu_s,
                wire_bytes: stats.total_bytes(),
            }
        };
        rec.exit();
        Ok(done)
    }

    /// The maintained results must equal a from-scratch computation on the
    /// final view.
    fn check_maintained(&self, failures: &mut Vec<String>) {
        if self.cc.labels() != full_cc(&self.overlay).as_slice() {
            failures.push("maintained CC labels differ from full_cc".into());
        }
        let fresh = full_pagerank(&self.overlay, REPAIR_EPS);
        let l1: f64 = self
            .pr
            .ranks()
            .iter()
            .zip(&fresh)
            .map(|(a, b)| (a - b).abs())
            .sum();
        if l1 > self.pr.comparison_bound() {
            failures.push(format!(
                "maintained PageRank is {l1:e} (L1) from full_pagerank"
            ));
        }
    }
}

fn check(g: &Graph, op: &Op, answer: &Answer, oracle: &Oracle) -> Result<(), String> {
    let ok = match (op.kind, answer) {
        (Kind::Bfs, Answer::U32(got)) => *got == serial_bfs(g, op.root),
        // Unit weights: the shortest-path distance is the hop count.
        (Kind::Sssp, Answer::F64(got)) => {
            let hops = serial_bfs(g, op.root);
            got.len() == hops.len()
                && got.iter().zip(&hops).all(|(&d, &h)| {
                    d == if h == u32::MAX {
                        f64::INFINITY
                    } else {
                        f64::from(h)
                    }
                })
        }
        (Kind::Cc, Answer::U32(got)) => *got == oracle.cc,
        (Kind::PageRank, Answer::F64(got)) => ranks_match(got, &oracle.pagerank),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} from root {} is wrong", op.kind.span(), op.root))
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut rec = Recorder::new(p.trace);
    let mut layers = Layers::new();
    let mut failures = Vec::new();
    let template = || ClusterConfig::with_workers(WORKERS);
    // A query costs up to twice as much under one generator seed as under
    // another, and an update batch anything from 15 to 70 ms depending on
    // the edges it draws. So, as for `kcore_ckpt`, graph and op stream come
    // from a fixed seed and `--seed` renames the vertices of both: another
    // input, partitioned and laid out differently, with the same work in it.
    let generate = |rec: &mut Recorder| {
        let ((g, ops), secs) = rec.span("graph.gen", || {
            let structure = rmat(SCALE, EDGE_FACTOR, RmatParams::default(), STRUCTURE_SEED);
            let perm = permutation(structure.num_vertices(), p.seed);
            let ops = cycle(&structure, &perm);
            (relabel(&structure, &perm), ops)
        });
        (Arc::new(g), ops, secs)
    };

    // The oracle is the benchmark's own cost, so it stays out of `setup_s`.
    let (graph, _, _) = generate(&mut Recorder::new(false));
    let (oracle, oracle_s) = rec.span("bench.oracle", || Oracle {
        cc: reference::cc_labels(&graph),
        pagerank: reference::pagerank(&graph, PAGERANK_ITERS),
    });
    layers.set("bench.oracle_s", oracle_s);
    drop(graph);

    // Set-up: generate graph and op stream, open the session, build the
    // maintained results, run the cycle once as the warm-up. Repeated so
    // that `setup_s` is a median.
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..if p.trace { 1 } else { SETUP_PASSES } {
        drop(state.take());
        let t = Instant::now();
        let (graph, ops, gen_s) = generate(&mut rec);
        let (mut server, session_new_s) = Server::new(Arc::clone(&graph), template(), &mut rec);
        let (mut off, mut warm) = (Recorder::new(false), Layers::new());
        for op in &ops {
            server.exec(op, &oracle, &mut off, &mut warm, &mut failures)?;
        }
        setup.push(t.elapsed().as_secs_f64());
        layers.set("graph.gen_s", gen_s);
        layers.set("runtime.session_new_s", session_new_s);
        state = Some((graph, ops, server));
    }
    let (graph, ops, mut server) = state.expect("at least one set-up pass");
    layers.set("graph.vertices", graph.num_vertices() as f64);
    layers.set("graph.arcs", graph.num_edges() as f64);

    if !p.trace {
        // Per slot of the cycle: wall clock and CPU time of the fastest
        // repetition, and the first repetition's wire bytes.
        let mut best = vec![(f64::INFINITY, 0.0); ops.len()];
        let mut wire: Vec<u64> = Vec::new();
        let mut cycle_walls = Vec::new();
        let start = Instant::now();
        while cycle_walls.len() < MIN_TIMED_CYCLES || start.elapsed().as_secs_f64() < p.seconds {
            let mut wall = 0.0;
            for (slot, op) in ops.iter().enumerate() {
                let done = server.exec(op, &oracle, &mut rec, &mut layers, &mut failures)?;
                wall += done.wall_s;
                if done.wall_s < best[slot].0 {
                    best[slot] = (done.wall_s, done.cpu_s);
                }
                match wire.get(slot) {
                    None => wire.push(done.wire_bytes),
                    Some(&first) if first != done.wire_bytes => failures.push(format!(
                        "exact counter wire_bytes of op {slot} changed between cycles: {first} then {}",
                        done.wire_bytes
                    )),
                    Some(_) => {}
                }
            }
            cycle_walls.push(wall);
        }
        server.check_maintained(&mut failures);
        let per_round = |slots: f64| slots / CYCLE_ROUNDS as f64;
        let best_ms: Vec<f64> = best.iter().map(|(wall, _)| 1e3 * wall).collect();
        return Ok(Outcome {
            attempted: (cycle_walls.len() * ops.len()) as u64,
            failures,
            rep_spread_frac: util::spread_frac(&cycle_walls),
            end_to_end: Some(EndToEnd {
                setup_s: util::median(&setup),
                // Seconds of op time per 100-op round, every op at its
                // fastest repetition: min-of-k as on the batch workloads,
                // slot by slot. Measured on the same 20 runs, the medians
                // spread 10 % where these spread 8 % (95th percentile: 11 %
                // against 4 %).
                wall_s: per_round(best.iter().map(|(wall, _)| wall).sum()),
                cpu_s: per_round(best.iter().map(|(_, cpu)| cpu).sum()),
                peak_rss_mb: util::peak_rss_mb(),
                wire_bytes: wire.iter().sum::<u64>() as f64,
                op_p50_ms: util::median(&best_ms),
                op_p95_ms: util::quantile(&best_ms, 0.95),
            }),
            layers: None,
            spans: None,
        });
    }

    // Traced run: the partition and one context built on their own, then
    // the cycle once more with a span around every op.
    time_builds(&graph, server.session.config(), &mut rec, &mut layers)?;
    let context_build_s = layers.get("core.context_build_s");

    let mut traced: Vec<Done> = Vec::new();
    for op in &ops {
        traced.push(server.exec(op, &oracle, &mut rec, &mut layers, &mut failures)?);
    }
    server.check_maintained(&mut failures);
    let attempted = traced.len() as u64;
    let of_kind = |k: Kind| -> Vec<f64> {
        traced
            .iter()
            .filter(|d| d.kind == k)
            .map(|d| 1e3 * d.wall_s)
            .collect()
    };
    for (kind, _) in ROUND_MIX {
        layers.set(kind.p50_metric(), util::median(&of_kind(kind)));
    }
    let queries: Vec<&Done> = traced.iter().filter(|d| d.kind != Kind::Update).collect();
    let traced_query_s: f64 = queries.iter().map(|d| d.wall_s).sum();
    // Every query builds one context over the shared partition.
    layers.finish(traced_query_s, context_build_s * queries.len() as f64);
    let pool = server.session.pool();
    layers.set(
        "runtime.pool_reuse_frac",
        pool.reuses() as f64 / pool.checkouts() as f64,
    );

    // The same queries again without spans, and the first round again on sessions
    // that carry a sink or metrics: queries read the frozen snapshot, so a
    // replay does the same work.
    let mut replay = |server: &mut Server, rounds: usize| -> Result<Vec<f64>, String> {
        let (mut off, mut scratch) = (Recorder::new(false), Layers::new());
        ops.chunks(ops.len() / CYCLE_ROUNDS)
            .take(rounds)
            .map(|round| {
                let mut wall = 0.0;
                for op in round.iter().filter(|op| op.kind != Kind::Update) {
                    wall += server
                        .exec(op, &oracle, &mut off, &mut scratch, &mut failures)?
                        .wall_s;
                }
                Ok(wall)
            })
            .collect()
    };
    let untraced = replay(&mut server, CYCLE_ROUNDS)?;
    layers.set("bench.rep_spread_frac", util::spread_frac(&untraced));
    layers.set(
        "bench.span_overhead_frac",
        traced_query_s / untraced.iter().sum::<f64>() - 1.0,
    );
    let sink = Arc::new(CollectSink::new());
    let off = &mut Recorder::new(false);
    let (mut sunk, _) = Server::new(Arc::clone(&graph), template().sink(sink.clone()), off);
    layers.set(
        "obs.trace_overhead_frac",
        replay(&mut sunk, 1)?[0] / untraced[0] - 1.0,
    );
    layers.set("obs.events", sink.len() as f64);
    let (mut metered, _) = Server::new(Arc::clone(&graph), template().metrics(), off);
    layers.set(
        "obs.metrics_overhead_frac",
        replay(&mut metered, 1)?[0] / untraced[0] - 1.0,
    );

    Ok(Outcome {
        attempted,
        failures,
        rep_spread_frac: layers.get("bench.rep_spread_frac"),
        end_to_end: None,
        layers: Some(layers),
        spans: Some(rec.to_json()),
    })
}
