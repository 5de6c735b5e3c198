//! The serving workload driver behind `fig_serve` (DESIGN.md §16).
//!
//! Serving splits the system into two planes sharing one machine:
//!
//! * **Query plane** — `N` concurrent [`Session`]s over a single frozen
//!   `Arc<Graph>` snapshot, each thread answering a seeded mix of
//!   BFS / SSSP / PageRank / CC point queries through the full FLASH
//!   runtime. Sessions share the partition map and a buffer pool but
//!   keep private storage/latency accounting; every answer is
//!   checksummed and compared against a solo (single-session) baseline
//!   computed up front — the results must be **bit-identical**, which is
//!   what snapshot isolation promises.
//! * **Update plane** — one mutator applying seeded edge insert/delete
//!   batches to a [`DeltaOverlay`] over the same base, repairing a
//!   [`MaintainedCc`] (verified bit-identical to a full recompute) and a
//!   [`MaintainedPageRank`] (verified within its documented tolerance
//!   bound) after every batch.
//!
//! [`run_serve`] executes both planes concurrently, folds the per-session
//! histograms into a [`ServingStats`] block with p50/p90/p99 query
//! latency, and reports every verification failure instead of panicking —
//! the binaries turn a non-empty failure list into a non-zero exit.

use flash_algos::incremental::{full_cc, full_pagerank, MaintainedCc, MaintainedPageRank};
use flash_graph::hash::Fnv1a;
use flash_graph::{generators, DeltaOverlay, EdgeUpdate, Prng, VertexId};
use flash_obs::Json;
use flash_runtime::{BufferPool, ClusterConfig, ServingStats, Session};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Serving workload parameters.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Concurrent query sessions (one thread each).
    pub sessions: usize,
    /// Queries each session answers.
    pub queries_per_session: usize,
    /// Update batches the mutator applies.
    pub update_batches: usize,
    /// Edge updates per batch (~2/3 inserts, ~1/3 deletes).
    pub batch_size: usize,
    /// Workers per query cluster.
    pub workers: usize,
    /// RMAT scale of the served snapshot (`2^scale` vertices).
    pub scale: u32,
    /// RMAT edge factor.
    pub edge_factor: usize,
    /// PageRank repair tolerance (L1 step delta).
    pub eps: f64,
    /// Workload seed: queries, roots, and update batches all derive
    /// from it, so a run is fully reproducible.
    pub seed: u64,
}

impl ServeOptions {
    /// The CI smoke configuration: small graph, two sessions, enough
    /// queries to cross every code path in seconds.
    pub fn smoke() -> ServeOptions {
        ServeOptions {
            sessions: 2,
            queries_per_session: 6,
            update_batches: 4,
            batch_size: 8,
            workers: 2,
            scale: 7,
            edge_factor: 6,
            eps: 1e-9,
            seed: 0xF1A5,
        }
    }

    /// The full experiment: sustains ≥1k mixed queries + updates.
    pub fn full() -> ServeOptions {
        ServeOptions {
            sessions: 4,
            queries_per_session: 256,
            update_batches: 64,
            batch_size: 16,
            workers: 2,
            scale: 10,
            edge_factor: 8,
            eps: 1e-9,
            seed: 0xF1A5,
        }
    }

    /// Total mixed operations (queries + update batches) the run issues.
    pub fn total_ops(&self) -> usize {
        self.sessions * self.queries_per_session + self.update_batches
    }
}

/// One point query of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// BFS hop distances from a root.
    Bfs(VertexId),
    /// Shortest-path distances from a root (unit weights on the
    /// unweighted snapshot).
    Sssp(VertexId),
    /// PageRank, fixed sweep count (deterministic).
    PageRank,
    /// Connected-component labels.
    Cc,
}

impl Query {
    /// Human-readable tag for reports.
    pub fn tag(&self) -> String {
        match self {
            Query::Bfs(r) => format!("bfs@{r}"),
            Query::Sssp(r) => format!("sssp@{r}"),
            Query::PageRank => "pagerank".to_string(),
            Query::Cc => "cc".to_string(),
        }
    }
}

/// PageRank sweeps per query: fixed, so answers are deterministic.
const PR_QUERY_ITERS: usize = 5;

/// Checksums a `u32` result vector (BFS distances, CC labels): FNV-1a
/// over the little-endian bytes, for bit-identity comparison.
fn checksum_u32(values: &[u32]) -> u64 {
    let mut h = Fnv1a::new();
    values.iter().for_each(|v| h.update(&v.to_le_bytes()));
    h.finish()
}

/// Checksums an `f64` result vector through the exact bit patterns, so
/// equality really is bit-identity.
fn checksum_f64(values: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    values
        .iter()
        .for_each(|v| h.update(&v.to_bits().to_le_bytes()));
    h.finish()
}

/// Answers one query on a session's snapshot, returning the checksum.
fn answer(session: &Session, query: Query) -> Result<u64, flash_runtime::RuntimeError> {
    let graph = session.graph();
    let cfg = session.config();
    Ok(match query {
        Query::Bfs(root) => checksum_u32(&flash_algos::bfs::run(graph, cfg, root)?.result),
        Query::Sssp(root) => checksum_f64(&flash_algos::sssp::run(graph, cfg, root)?.result),
        Query::PageRank => {
            checksum_f64(&flash_algos::pagerank::run(graph, cfg, PR_QUERY_ITERS)?.result)
        }
        Query::Cc => checksum_u32(&flash_algos::cc::run(graph, cfg)?.result),
    })
}

/// Builds the deterministic query mix for one session: a rotation of the
/// four kinds with roots drawn from the seed.
fn query_mix(opts: &ServeOptions, session: usize, n: usize) -> Vec<Query> {
    let mut rng = Prng::seed_from_u64(opts.seed ^ (session as u64).wrapping_mul(0x9e37));
    (0..opts.queries_per_session)
        .map(|i| {
            let root = (rng.next_u64() % n as u64) as VertexId;
            match i % 4 {
                0 => Query::Bfs(root),
                1 => Query::Sssp(root),
                2 => Query::PageRank,
                _ => Query::Cc,
            }
        })
        .collect()
}

/// Builds update batch `b` from the workload seed.
fn update_batch(opts: &ServeOptions, b: usize, n: usize) -> Vec<EdgeUpdate> {
    let mut rng = Prng::seed_from_u64(opts.seed ^ 0xDE17A ^ (b as u64).wrapping_mul(0x85eb));
    (0..opts.batch_size)
        .map(|_| {
            let s = (rng.next_u64() % n as u64) as VertexId;
            let d = (rng.next_u64() % n as u64) as VertexId;
            if rng.next_u64().is_multiple_of(3) {
                EdgeUpdate::Delete(s, d)
            } else {
                EdgeUpdate::Insert(s, d)
            }
        })
        .collect()
}

/// Everything one serving run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// The options that generated the run.
    pub opts: ServeOptions,
    /// Vertices in the served snapshot.
    pub vertices: usize,
    /// Directed adjacency entries in the served snapshot.
    pub edges: usize,
    /// Queries answered across all sessions.
    pub queries: u64,
    /// Update batches applied.
    pub updates: u64,
    /// Edges the update plane inserted / removed (net of no-ops).
    pub inserted: u64,
    /// Edges the update plane removed.
    pub removed: u64,
    /// Vertices the incremental CC repair re-labeled.
    pub cc_repaired: u64,
    /// Power-iteration sweeps the PageRank maintenance spent.
    pub pr_sweeps: u64,
    /// Final L1 distance between maintained and recomputed PageRank.
    pub pr_l1: f64,
    /// The documented bound that distance must respect.
    pub pr_bound: f64,
    /// Folded per-session accounting (latency percentiles live here).
    pub stats: ServingStats,
    /// Pool reuse ratio evidence: (checkouts, reuses).
    pub pool: (u64, u64),
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Every verification failure (empty == the run is good).
    pub failures: Vec<String>,
}

impl ServeReport {
    /// `true` when every bit-identity and tolerance check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The stats-JSON document (EXPERIMENTS.md "serve.json").
    pub fn to_json(&self) -> Json {
        let o = &self.opts;
        Json::object()
            .set("experiment", "serve")
            .set(
                "options",
                Json::object()
                    .set("sessions", o.sessions)
                    .set("queries_per_session", o.queries_per_session)
                    .set("update_batches", o.update_batches)
                    .set("batch_size", o.batch_size)
                    .set("workers", o.workers)
                    .set("scale", o.scale as u64)
                    .set("edge_factor", o.edge_factor)
                    .set("eps", o.eps)
                    .set("seed", o.seed),
            )
            .set(
                "graph",
                Json::object()
                    .set("vertices", self.vertices)
                    .set("edges", self.edges as u64),
            )
            .set("serving", self.stats.to_json())
            .set(
                "updates",
                Json::object()
                    .set("batches", self.updates)
                    .set("inserted", self.inserted)
                    .set("removed", self.removed)
                    .set("cc_repaired", self.cc_repaired)
                    .set("pr_sweeps", self.pr_sweeps)
                    .set("pr_l1", self.pr_l1)
                    .set("pr_bound", self.pr_bound),
            )
            .set(
                "pool",
                Json::object()
                    .set("checkouts", self.pool.0)
                    .set("reuses", self.pool.1),
            )
            .set("wall_seconds", self.wall_seconds)
            .set("failures", Json::from(self.failures.clone()))
            .set("ok", self.ok())
    }
}

/// The maintained state of the update plane, mutated under one lock.
struct UpdatePlane {
    overlay: DeltaOverlay,
    cc: MaintainedCc,
    pr: MaintainedPageRank,
    inserted: u64,
    removed: u64,
}

/// Runs the serving workload: solo baselines, then the concurrent
/// query/update phase, then verification.
pub fn run_serve(opts: &ServeOptions) -> Result<ServeReport, String> {
    let t0 = Instant::now();
    let graph = Arc::new(generators::rmat(
        opts.scale,
        opts.edge_factor,
        generators::RmatParams::default(),
        opts.seed,
    ));
    let n = graph.num_vertices();
    let template = ClusterConfig::with_workers(opts.workers);

    // ---- Solo baselines -------------------------------------------------
    // Answer every distinct query once on a lone session; the concurrent
    // phase must reproduce these checksums bit for bit.
    let mut baselines: HashMap<Query, u64> = HashMap::new();
    {
        let solo = Session::new(0, Arc::clone(&graph), template.clone())
            .map_err(|e| format!("solo session: {e}"))?;
        for s in 0..opts.sessions {
            for q in query_mix(opts, s, n) {
                if let std::collections::hash_map::Entry::Vacant(slot) = baselines.entry(q) {
                    slot.insert(
                        answer(&solo, q).map_err(|e| format!("baseline {}: {e}", q.tag()))?,
                    );
                }
            }
        }
        solo.end();
    }

    // ---- Concurrent phase ----------------------------------------------
    // Shared substrate: one partition map and one buffer pool, stamped
    // into every session through the template.
    let pool = Arc::new(BufferPool::new());
    let shared = Session::new(1, Arc::clone(&graph), template.clone())
        .map_err(|e| format!("shared session: {e}"))?;
    let session_template = {
        let mut cfg = template.clone();
        cfg.shared_partition = Some(Arc::clone(shared.partition()));
        cfg.buffer_pool = Some(Arc::clone(&pool));
        cfg
    };
    shared.end();

    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let fail = |failures: &Arc<Mutex<Vec<String>>>, msg: String| {
        failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(msg);
    };

    let overlay = DeltaOverlay::new(Arc::clone(&graph));
    let plane = Arc::new(Mutex::new(UpdatePlane {
        cc: MaintainedCc::new(&overlay),
        pr: MaintainedPageRank::new(&overlay, opts.eps),
        overlay,
        inserted: 0,
        removed: 0,
    }));

    let update_session = Arc::new(
        Session::new(2, Arc::clone(&graph), session_template.clone())
            .map_err(|e| format!("update session: {e}"))?,
    );
    let queries_done = Arc::new(AtomicU64::new(0));

    let mut sessions: Vec<Arc<Session>> = Vec::with_capacity(opts.sessions);
    let report = std::thread::scope(|scope| -> Result<(), String> {
        // Query-plane threads: one session each.
        for s in 0..opts.sessions {
            let session = Arc::new(
                Session::new(10 + s as u64, Arc::clone(&graph), session_template.clone())
                    .map_err(|e| format!("session {s}: {e}"))?,
            );
            sessions.push(Arc::clone(&session));
            let mix = query_mix(opts, s, n);
            let baselines = &baselines;
            let failures = Arc::clone(&failures);
            let queries_done = Arc::clone(&queries_done);
            scope.spawn(move || {
                for q in mix {
                    let t = Instant::now();
                    match answer(&session, q) {
                        Ok(sum) => {
                            session.record_query(t.elapsed().as_micros() as u64);
                            queries_done.fetch_add(1, Ordering::Relaxed);
                            if baselines.get(&q) != Some(&sum) {
                                fail(
                                    &failures,
                                    format!(
                                        "session {}: {} diverged from solo baseline",
                                        session.id(),
                                        q.tag()
                                    ),
                                );
                            }
                        }
                        Err(e) => fail(
                            &failures,
                            format!("session {}: {} failed: {e}", session.id(), q.tag()),
                        ),
                    }
                }
                session.end();
            });
        }

        // Update plane: apply batches, repair maintained results.
        {
            let plane = Arc::clone(&plane);
            let update_session = Arc::clone(&update_session);
            let failures = Arc::clone(&failures);
            let opts = opts.clone();
            scope.spawn(move || {
                for b in 0..opts.update_batches {
                    let updates = update_batch(&opts, b, n);
                    let mut guard = plane.lock().unwrap_or_else(PoisonError::into_inner);
                    // A plain reborrow: the guard's `DerefMut` would not let
                    // the repairs borrow `overlay` beside `cc` and `pr`.
                    let p = &mut *guard;
                    let batch = p.overlay.apply_batch(&updates);
                    if batch.is_empty() {
                        update_session.record_update(b as u64, 0, 0, 0, "none");
                        continue;
                    }
                    p.cc.repair(&p.overlay, &batch.touched);
                    let sweeps = p.pr.repair(&p.overlay);
                    p.inserted += batch.inserted;
                    p.removed += batch.removed;
                    // Bit-identity of the incremental CC after *every*
                    // batch, not just at the end.
                    if p.cc.labels() != full_cc(&p.overlay).as_slice() {
                        fail(
                            &failures,
                            format!("batch {b}: incremental CC diverged from full recompute"),
                        );
                    }
                    update_session.record_update(
                        b as u64,
                        batch.inserted,
                        batch.removed,
                        batch.touched.len() as u64,
                        &format!("cc+pr:{sweeps}sweeps"),
                    );
                }
            });
        }
        Ok(())
    });
    report?;
    update_session.end();

    // ---- Verification ---------------------------------------------------
    let (pr_l1, pr_bound, cc_repaired, pr_sweeps, inserted, removed) = {
        let p = plane.lock().unwrap_or_else(PoisonError::into_inner);
        let reference = full_pagerank(&p.overlay, opts.eps);
        let l1: f64 =
            p.pr.ranks()
                .iter()
                .zip(reference.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
        if l1 > p.pr.comparison_bound() {
            fail(
                &failures,
                format!(
                    "maintained PageRank L1 {l1:e} exceeds bound {:e}",
                    p.pr.comparison_bound()
                ),
            );
        }
        if p.cc.labels() != full_cc(&p.overlay).as_slice() {
            fail(
                &failures,
                "final incremental CC diverged from full recompute".to_string(),
            );
        }
        (
            l1,
            p.pr.comparison_bound(),
            p.cc.repaired(),
            p.pr.sweeps(),
            p.inserted,
            p.removed,
        )
    };

    let mut stats = ServingStats::new();
    for s in &sessions {
        stats.absorb(s);
    }
    stats.absorb(&update_session);

    let failures = match Arc::try_unwrap(failures) {
        Ok(m) => m.into_inner().unwrap_or_else(PoisonError::into_inner),
        Err(arc) => arc.lock().unwrap_or_else(PoisonError::into_inner).clone(),
    };
    Ok(ServeReport {
        opts: opts.clone(),
        vertices: n,
        edges: graph.num_edges(),
        queries: queries_done.load(Ordering::Relaxed),
        updates: update_session.updates(),
        inserted,
        removed,
        cc_repaired,
        pr_sweeps,
        pr_l1,
        pr_bound,
        stats,
        pool: (pool.checkouts(), pool.reuses()),
        wall_seconds: t0.elapsed().as_secs_f64(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean_and_accounts_everything() {
        let opts = ServeOptions::smoke();
        let report = run_serve(&opts).expect("serve run");
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(
            report.queries,
            (opts.sessions * opts.queries_per_session) as u64
        );
        assert_eq!(report.updates, opts.update_batches as u64);
        assert!(report.pr_l1 <= report.pr_bound);
        assert!(report.pool.1 > 0, "buffer pool never reused a buffer");
        let j = report.to_json();
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert!(j.get("serving").is_some());
    }

    #[test]
    fn query_mix_is_deterministic_per_session() {
        let opts = ServeOptions::smoke();
        assert_eq!(query_mix(&opts, 0, 128), query_mix(&opts, 0, 128));
        assert_ne!(query_mix(&opts, 0, 128), query_mix(&opts, 1, 128));
    }
}
