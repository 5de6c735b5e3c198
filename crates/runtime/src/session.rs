//! Snapshot-isolated serving sessions (DESIGN.md §16).
//!
//! A [`Session`] lets N concurrent algorithm runs share one immutable
//! `Arc<Graph>` + `Arc<PartitionMap>` while keeping every piece of
//! *mutable* run state private: each query builds its own cluster (own
//! `WorkerState`, own [`StreamScope`](flash_graph::StreamScope), own
//! stats), checks superstep scratch buffers out of a shared
//! [`BufferPool`], and records its latency into the session's
//! [`Histogram`]. Nothing a query mutates is reachable from another
//! query, so concurrent results are bit-identical to solo runs.
//!
//! A query cluster is an ordinary cluster built from [`Session::config`]:
//! the template plus the shared map and pool, so it takes its partition
//! the way every run does (`ClusterConfig::partition_for`). The session
//! id stamps only the session's own `session_*` / `update_applied`
//! events.
//!
//! The serving driver (`fig_serve`) opens one session per worker thread,
//! replays a seeded query/update mix, and folds every session's counters
//! into a [`ServingStats`] — the `serving` block of the stats JSON.

// Serving-layer code must not abort a serving process: no unwraps,
// expects or panics outside the test module.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::config::ClusterConfig;
use crate::error::RuntimeError;
use crate::pool::WorkerPool;
use crate::state::StepBuffers;
use crate::VertexData;
use flash_graph::{Graph, PartitionMap};
use flash_obs::{Event, EventKind, Histogram, Json};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

/// A shared pool of superstep scratch buffers, keyed by vertex type, and
/// of the worker threads that fill them.
///
/// Clusters built with [`ClusterConfig::buffer_pool`] check a
/// `StepBuffers<V>` set out at construction and back in at drop; the
/// checkin `reset`s the buffers and the checkout
/// asserts they are pristine, so a recycled pool starts each run exactly
/// as empty as a fresh allocation — while keeping the allocations warm
/// across back-to-back query runs. Their [`WorkerPool`] travels the same
/// way, so a serving session pays no thread spawn per query.
#[derive(Default)]
pub struct BufferPool {
    /// One `Vec<StepBuffers<V>>` free list per vertex type `V`.
    slots: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
    /// Idle worker pools (not generic over `V`, so one list serves all).
    workers: Mutex<Vec<WorkerPool>>,
    checkouts: AtomicU64,
    reuses: AtomicU64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Takes a pristine buffer set for vertex type `V` — a pooled one if
    /// a previous run returned one, else a fresh allocation.
    ///
    /// # Panics
    /// Asserts the handed-out buffers are pristine: a pooled set that
    /// still carries a previous run's residue would silently corrupt the
    /// next run's superstep accounting.
    pub(crate) fn checkout<V: VertexData>(&self) -> StepBuffers<V> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let buf = slots
            .get_mut(&TypeId::of::<V>())
            .and_then(|b| b.downcast_mut::<Vec<StepBuffers<V>>>())
            .and_then(Vec::pop);
        drop(slots);
        match buf {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                assert!(
                    buf.is_pristine(),
                    "pooled StepBuffers carried residue from a previous run"
                );
                buf
            }
            None => StepBuffers::new(),
        }
    }

    /// Returns a buffer set to the pool, resetting it to pristine first.
    pub(crate) fn checkin<V: VertexData>(&self, mut buf: StepBuffers<V>) {
        buf.reset();
        debug_assert!(buf.is_pristine(), "reset must leave buffers pristine");
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = slots
            .entry(TypeId::of::<V>())
            .or_insert_with(|| Box::new(Vec::<StepBuffers<V>>::new()))
            .downcast_mut::<Vec<StepBuffers<V>>>()
        {
            v.push(buf);
        }
    }

    /// Takes an idle [`WorkerPool`] with exactly `lanes` lanes, spawning
    /// one if none is checked in.
    pub(crate) fn checkout_workers(&self, lanes: usize) -> WorkerPool {
        let mut idle = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        let found = idle.iter().position(|p| p.lanes() == lanes);
        let pooled = found.map(|i| idle.swap_remove(i));
        drop(idle);
        pooled.unwrap_or_else(|| WorkerPool::new(lanes))
    }

    /// Returns a worker pool for the next cluster to check out.
    pub(crate) fn checkin_workers(&self, pool: WorkerPool) {
        let mut idle = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        idle.push(pool);
    }

    /// Total buffer checkouts served (fresh + reused).
    pub fn checkouts(&self) -> u64 {
        self.checkouts.load(Ordering::Relaxed)
    }

    /// Checkouts served from the free list instead of a fresh allocation.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("checkouts", &self.checkouts())
            .field("reuses", &self.reuses())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// One snapshot-isolated serving session.
///
/// A session pins an immutable graph snapshot and a partition map built
/// once, and stamps out per-query [`ClusterConfig`]s that share both —
/// plus the session's [`BufferPool`] — while leaving all mutable state
/// per query. Latency is recorded into the session's histogram in
/// microseconds.
pub struct Session {
    id: u64,
    graph: Arc<Graph>,
    partition: Arc<PartitionMap>,
    template: ClusterConfig,
    pool: Arc<BufferPool>,
    queries: AtomicU64,
    updates: AtomicU64,
    total_latency_us: AtomicU64,
    latency: Mutex<Histogram>,
    /// Session-scoped event sequence (the per-query clusters keep their
    /// own sequences; a trace consumer orders by session id).
    seq: AtomicU64,
    ended: AtomicU64,
}

impl Session {
    /// Opens a session over `graph`, building the shared partition once
    /// ([`ClusterConfig::partition_for`]: the template's map if it
    /// attaches one, else [`PartitionMap::for_graph`] on its worker
    /// count), and emits `session_start` to the template's sink.
    pub fn new(id: u64, graph: Arc<Graph>, template: ClusterConfig) -> Result<Self, RuntimeError> {
        let partition = template.partition_for(&graph)?;
        let pool = template
            .buffer_pool
            .clone()
            .unwrap_or_else(|| Arc::new(BufferPool::new()));
        let session = Session {
            id,
            graph,
            partition,
            template,
            pool,
            queries: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            total_latency_us: AtomicU64::new(0),
            latency: Mutex::new(Histogram::new()),
            seq: AtomicU64::new(0),
            ended: AtomicU64::new(0),
        };
        session.emit(EventKind::SessionStart {
            session: session.id,
            vertices: session.graph.num_vertices(),
            edges: session.graph.num_edges(),
            workers: session.template.workers,
        });
        Ok(session)
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared immutable snapshot.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The shared partition map.
    pub fn partition(&self) -> &Arc<PartitionMap> {
        &self.partition
    }

    /// The session's buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// A per-query cluster config: the template plus the shared
    /// partition and the session's buffer pool.
    pub fn config(&self) -> ClusterConfig {
        self.template
            .clone()
            .shared_partition(Arc::clone(&self.partition))
            .buffer_pool(Arc::clone(&self.pool))
    }

    /// Records one answered query and its latency in microseconds.
    pub fn record_query(&self, latency_us: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.total_latency_us
            .fetch_add(latency_us, Ordering::Relaxed);
        let mut h = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
        h.record(latency_us);
    }

    /// Records one applied update batch and emits `update_applied`.
    pub fn record_update(
        &self,
        batch: u64,
        inserted: u64,
        removed: u64,
        touched: u64,
        repaired: &str,
    ) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.emit(EventKind::UpdateApplied {
            session: self.id,
            batch,
            inserted,
            removed,
            touched,
            repaired: repaired.to_string(),
        });
    }

    /// Queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Update batches applied so far.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// A copy of the latency histogram (microseconds).
    pub fn latency(&self) -> Histogram {
        self.latency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Closes the session: emits `session_end` once (idempotent).
    pub fn end(&self) {
        if self.ended.swap(1, Ordering::Relaxed) == 0 {
            self.emit(EventKind::SessionEnd {
                session: self.id,
                queries: self.queries(),
                total_latency_us: self.total_latency_us.load(Ordering::Relaxed),
            });
        }
    }

    fn emit(&self, kind: EventKind) {
        if let Some(sink) = &self.template.sink {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            sink.emit(&Event { seq, kind });
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.end();
    }
}

// ---------------------------------------------------------------------------
// ServingStats
// ---------------------------------------------------------------------------

/// Aggregated serving-layer statistics: the stats-JSON `serving` block.
#[derive(Debug, Default, Clone)]
pub struct ServingStats {
    /// Sessions folded in.
    pub sessions: u64,
    /// Queries answered across all sessions.
    pub queries: u64,
    /// Update batches applied across all sessions.
    pub updates: u64,
    /// Merged query-latency histogram (microseconds).
    pub latency: Histogram,
}

impl ServingStats {
    /// An empty aggregate.
    pub fn new() -> ServingStats {
        ServingStats::default()
    }

    /// Folds one session's counters and latency histogram in.
    pub fn absorb(&mut self, session: &Session) {
        self.sessions += 1;
        self.queries += session.queries();
        self.updates += session.updates();
        self.latency.merge(&session.latency());
    }

    /// Renders the `serving` block: session/query/update counts plus
    /// p50/p90/p99 (and min/max/count) query latency in microseconds.
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("sessions", self.sessions)
            .set("queries", self.queries)
            .set("updates", self.updates)
            .set("latency_us", self.latency.to_json())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use flash_graph::generators;
    use flash_obs::CollectSink;

    #[derive(Clone, Default, Debug, PartialEq)]
    struct D {
        v: u32,
    }
    crate::full_sync!(D);

    #[test]
    fn buffer_pool_recycles_pristine_buffers() {
        let pool = BufferPool::new();
        let mut buf: StepBuffers<D> = pool.checkout();
        assert_eq!(pool.checkouts(), 1);
        assert_eq!(pool.reuses(), 0, "first checkout is a fresh allocation");
        // Dirty the buffers the way a run would, then check them back in.
        buf.size_round(4);
        buf.bucket_sets[2][1].push((7, D { v: 7 }));
        pool.checkin(buf);
        let buf: StepBuffers<D> = pool.checkout();
        assert_eq!(pool.reuses(), 1, "second checkout reuses the pooled set");
        assert!(buf.is_pristine(), "recycled pool starts each run empty");
        pool.checkin(buf);
    }

    #[test]
    fn buffer_pool_keys_by_vertex_type() {
        #[derive(Clone, Default, Debug, PartialEq)]
        struct E {
            w: u64,
        }
        crate::full_sync!(E);

        let pool = BufferPool::new();
        pool.checkin::<D>(pool.checkout());
        // A different vertex type misses D's free list.
        let _e: StepBuffers<E> = pool.checkout();
        assert_eq!(pool.reuses(), 0);
        // The original type still finds its pooled set.
        let _d: StepBuffers<D> = pool.checkout();
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn session_shares_partition_and_emits_lifecycle_events() {
        let g = Arc::new(generators::path(64, true));
        let sink = Arc::new(CollectSink::new());
        let template = ClusterConfig::with_workers(2).sink(sink.clone());
        let s = Session::new(9, Arc::clone(&g), template).unwrap();
        let cfg = s.config();
        assert_eq!(s.id(), 9);
        let shared = cfg.shared_partition.as_ref().unwrap();
        assert!(Arc::ptr_eq(shared, s.partition()), "one map, shared");
        assert!(cfg.buffer_pool.is_some());

        s.record_query(120);
        s.record_query(80);
        s.record_update(0, 3, 1, 5, "cc");
        assert_eq!(s.queries(), 2);
        assert_eq!(s.updates(), 1);
        assert_eq!(s.latency().count(), 2);
        s.end();
        s.end(); // idempotent
        let tags: Vec<String> = sink
            .events()
            .iter()
            .map(|e| e.kind.tag().to_string())
            .collect();
        assert_eq!(tags, ["session_start", "update_applied", "session_end"]);
    }

    /// A pooled session pays no thread spawn per query: every query's
    /// cluster runs on the OS threads the first one spawned, the calling
    /// thread being lane 0. (At one spawn per superstep the helper ids
    /// would differ every time — thread ids are never reused.)
    #[test]
    fn pooled_session_reuses_os_threads_across_queries() {
        use crate::{Cluster, StepKind, SyncScope};
        let g = Arc::new(generators::path(64, true));
        let s = Session::new(3, Arc::clone(&g), ClusterConfig::with_workers(3)).unwrap();
        let query_threads = || {
            let partition = Arc::clone(s.partition());
            let mut c: Cluster<D> =
                Cluster::new(Arc::clone(&g), partition, s.config(), |_| D::default()).unwrap();
            let who = |_: &mut crate::WorkerCtx<'_, D>| std::thread::current().id();
            c.step_direct(StepKind::VertexMap, 0, SyncScope::Necessary, who)
                .per_worker
        };
        let first = query_threads();
        assert_eq!(first[0], std::thread::current().id());
        assert!(first[1] != first[0] && first[2] != first[0] && first[1] != first[2]);
        for _ in 0..5 {
            assert_eq!(query_threads(), first);
        }
        // The reuse counters keep counting buffer checkouts only.
        assert_eq!((s.pool().checkouts(), s.pool().reuses()), (6, 5));
    }

    #[test]
    fn serving_stats_fold_sessions_and_render() {
        let g = Arc::new(generators::path(16, true));
        let mut agg = ServingStats::new();
        for id in 0..2 {
            let s = Session::new(id, Arc::clone(&g), ClusterConfig::with_workers(2)).unwrap();
            s.record_query(100 * (id + 1));
            agg.absorb(&s);
        }
        assert_eq!(agg.sessions, 2);
        assert_eq!(agg.queries, 2);
        let j = agg.to_json();
        assert_eq!(j.get("sessions").and_then(Json::as_u64), Some(2));
        let lat = j.get("latency_us").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(2));
        assert!(lat.get("p50").and_then(Json::as_u64).is_some());
        assert!(lat.get("p99").and_then(Json::as_u64).is_some());
    }
}
