//! Incrementally maintained query results for the serving layer.
//!
//! The serving layer (DESIGN.md §16) keeps long-lived
//! result structures alongside the [`DeltaOverlay`] and repairs them after
//! each streaming update batch instead of recomputing from scratch:
//!
//! * [`MaintainedCc`] — connected-component labels (minimum vertex id per
//!   component). Repair re-labels only the components touched by the
//!   batch and is **bit-identical** to a full recomputation: both assign
//!   every vertex the minimum id reachable from it, and components the
//!   batch did not touch are provably closed under the new adjacency (an
//!   edge can only enter or leave a component through a touched
//!   endpoint).
//! * [`MaintainedPageRank`] — power-iteration PageRank, warm-started from
//!   the stale ranks. Repair is **tolerance-bounded**: iterating until
//!   the L1 step delta falls to `eps` leaves the result within
//!   `eps * d / (1 - d)` (L1) of the true fixed point, so a repaired
//!   vector and a from-scratch recomputation at the same `eps` differ by
//!   at most `2 * eps * d / (1 - d)` — the bound
//!   [`MaintainedPageRank::comparison_bound`] exposes and the serving
//!   tests and the benchmark's `serve_mix` assert.
//!
//! Both structures are sequential: they answer point-in-time maintenance
//! over one overlay, while ad-hoc queries run through the full FLASH
//! runtime on the frozen snapshot.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use flash_graph::{DeltaOverlay, VertexId};
use std::collections::VecDeque;

/// Damping factor shared with [`crate::pagerank::DAMPING`].
const DAMPING: f64 = crate::pagerank::DAMPING;

/// Connected-component labels maintained across streaming updates.
///
/// The label of a vertex is the minimum vertex id in its (undirected)
/// component — the same convention as [`crate::cc`] — so labelings are
/// directly comparable across full and incremental computation.
#[derive(Debug, Clone)]
pub struct MaintainedCc {
    labels: Vec<VertexId>,
    /// Vertices re-labeled by repairs since construction (diagnostics).
    repaired: u64,
}

impl MaintainedCc {
    /// Computes labels from scratch over the overlay's current view.
    pub fn new(view: &DeltaOverlay) -> Self {
        MaintainedCc {
            labels: full_cc(view),
            repaired: 0,
        }
    }

    /// The current per-vertex component labels.
    pub fn labels(&self) -> &[VertexId] {
        &self.labels
    }

    /// Total vertices re-labeled by repair calls (monotone counter).
    pub fn repaired(&self) -> u64 {
        self.repaired
    }

    /// Repairs the labeling after a batch whose changed endpoints are
    /// `touched` (ids outside the vertex set are ignored), re-labeling
    /// only the affected components. Returns the number of vertices
    /// scanned by the repair BFS.
    ///
    /// Correctness: let `A` be the union of the *old* components of the
    /// touched vertices. Every inserted or deleted edge has both
    /// endpoints in `A` (its endpoints are touched), and every surviving
    /// base edge stays inside its old component, so `A` is closed under
    /// the new adjacency — the new labeling outside `A` equals the old
    /// one, and re-running min-id BFS inside `A` reproduces exactly what
    /// a full recompute would assign there.
    pub fn repair(&mut self, view: &DeltaOverlay, touched: &[VertexId]) -> usize {
        if touched.is_empty() {
            return 0;
        }
        // Old labels of the touched components, as marks indexed by label.
        let mut affected = vec![false; self.labels.len()];
        for &t in touched {
            if let Some(&label) = self.labels.get(t as usize) {
                affected[label as usize] = true;
            }
        }
        // `pending[v]`: `v` is in `A` and not yet reached by a repair BFS.
        let mut pending: Vec<bool> = self.labels.iter().map(|&l| affected[l as usize]).collect();
        let mut queue: Vec<VertexId> = Vec::new();
        let mut scanned = 0usize;
        // Seeds ascend and `A` is closed, so every smaller member of a
        // seed's new component would have claimed it first: the seed is
        // the component's minimum id.
        for seed in 0..self.labels.len() as VertexId {
            if !std::mem::take(&mut pending[seed as usize]) {
                continue;
            }
            queue.clear();
            queue.push(seed);
            let mut head = 0;
            while head < queue.len() {
                view.for_each_neighbor(queue[head], |d| {
                    if std::mem::take(&mut pending[d as usize]) {
                        queue.push(d);
                    }
                });
                head += 1;
            }
            scanned += queue.len();
            for &v in &queue {
                let slot = &mut self.labels[v as usize];
                self.repaired += u64::from(*slot != seed);
                *slot = seed;
            }
        }
        scanned
    }
}

/// Full connected-components labeling (min vertex id per component) over
/// an overlay view — the reference the repair path must match bit for
/// bit.
pub fn full_cc(view: &DeltaOverlay) -> Vec<VertexId> {
    let n = view.num_vertices();
    let mut labels: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut queue = VecDeque::new();
    for root in 0..n as VertexId {
        if labels[root as usize] != VertexId::MAX {
            continue;
        }
        labels[root as usize] = root;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            view.for_each_neighbor(v, |d| {
                if labels[d as usize] == VertexId::MAX {
                    labels[d as usize] = root;
                    queue.push_back(d);
                }
            });
        }
    }
    labels
}

/// PageRank maintained across streaming updates by warm-started power
/// iteration.
///
/// The iteration operator `T` is a contraction with factor `d` in L1, so
/// stopping when `‖x_{k+1} − x_k‖₁ ≤ eps` guarantees
/// `‖x_k − x*‖₁ ≤ eps · d / (1 − d)` for the fixed point `x*`. A warm
/// start changes only how many sweeps that takes, never the guarantee.
#[derive(Debug, Clone)]
pub struct MaintainedPageRank {
    ranks: Vec<f64>,
    /// The sweep's output buffer, kept between repairs.
    next: Vec<f64>,
    eps: f64,
    /// Sweeps executed across all repairs (diagnostics).
    sweeps: u64,
}

impl MaintainedPageRank {
    /// Computes ranks from scratch (uniform cold start) at tolerance
    /// `eps`.
    pub fn new(view: &DeltaOverlay, eps: f64) -> Self {
        let n = view.num_vertices();
        let mut pr = MaintainedPageRank {
            ranks: vec![1.0 / n.max(1) as f64; n],
            next: vec![0.0; n],
            eps,
            sweeps: 0,
        };
        pr.repair(view);
        pr
    }

    /// The current per-vertex ranks (summing to 1).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Total power-iteration sweeps across construction and repairs.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Repairs the ranks after the overlay changed, warm-starting from
    /// the stale vector: damped power-iteration sweeps (uniform teleport,
    /// dangling mass redistributed uniformly) until the L1 step delta is
    /// at most `eps`. Returns the number of sweeps the repair took.
    pub fn repair(&mut self, view: &DeltaOverlay) -> u64 {
        let (ranks, next) = (&mut self.ranks, &mut self.next);
        if ranks.is_empty() {
            return 0;
        }
        let inv_n = 1.0 / ranks.len() as f64;
        let mut took = 0u64;
        // Hard cap: contraction factor d guarantees convergence long before
        // this, but a bound keeps the serve loop total even if eps is 0.
        const MAX_SWEEPS: u64 = 10_000;
        while took < MAX_SWEEPS {
            let mut dangling = 0.0f64;
            next.fill(0.0);
            for (v, &rank) in ranks.iter().enumerate() {
                let v = v as VertexId;
                let deg = view.degree(v);
                if deg == 0 {
                    dangling += rank;
                } else {
                    let share = rank / deg as f64;
                    view.for_each_neighbor(v, |d| next[d as usize] += share);
                }
            }
            let teleport = (1.0 - DAMPING) * inv_n + DAMPING * dangling * inv_n;
            let mut delta = 0.0f64;
            for (x, old) in next.iter_mut().zip(ranks.iter()) {
                *x = DAMPING * *x + teleport;
                delta += (*x - old).abs();
            }
            std::mem::swap(ranks, next);
            took += 1;
            if delta <= self.eps {
                break;
            }
        }
        self.sweeps += took;
        took
    }

    /// Guaranteed distance to the true fixed point:
    /// `eps · d / (1 − d)` in L1.
    pub fn error_bound(&self) -> f64 {
        self.eps * DAMPING / (1.0 - DAMPING)
    }

    /// Maximum L1 distance between this vector and any other computation
    /// at the same tolerance (triangle inequality through the fixed
    /// point): `2 · eps · d / (1 − d)`.
    pub fn comparison_bound(&self) -> f64 {
        2.0 * self.error_bound()
    }
}

/// Full from-scratch PageRank over a view at tolerance `eps` — the
/// reference the serve driver compares repaired ranks against.
pub fn full_pagerank(view: &DeltaOverlay, eps: f64) -> Vec<f64> {
    MaintainedPageRank::new(view, eps).ranks
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use flash_graph::{generators, EdgeUpdate, Prng};
    use std::sync::Arc;

    fn overlay(n: usize) -> DeltaOverlay {
        DeltaOverlay::new(Arc::new(generators::erdos_renyi(n, n * 2, 7)))
    }

    #[test]
    fn cc_repair_matches_full_recompute_on_random_churn() {
        let mut view = overlay(120);
        let mut cc = MaintainedCc::new(&view);
        assert_eq!(cc.labels(), full_cc(&view).as_slice());
        let mut rng = Prng::seed_from_u64(42);
        for _ in 0..40 {
            let n = view.num_vertices() as u64;
            let updates: Vec<EdgeUpdate> = (0..8)
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
            assert_eq!(
                cc.labels(),
                full_cc(&view).as_slice(),
                "repair must be bit-identical to a full recompute"
            );
        }
    }

    #[test]
    fn cc_repair_handles_merge_and_split() {
        // Two path components: 0-1-2 and 3-4-5.
        let base = Arc::new(
            flash_graph::GraphBuilder::new(6)
                .symmetric(true)
                .edges([(0, 1), (1, 2), (3, 4), (4, 5)])
                .build()
                .unwrap(),
        );
        let mut view = DeltaOverlay::new(base);
        let mut cc = MaintainedCc::new(&view);
        assert_eq!(cc.labels(), &[0, 0, 0, 3, 3, 3]);
        // Merge.
        let b = view.apply_batch(&[EdgeUpdate::Insert(2, 3)]);
        cc.repair(&view, &b.touched);
        assert_eq!(cc.labels(), &[0, 0, 0, 0, 0, 0]);
        // Split in the middle.
        let b = view.apply_batch(&[EdgeUpdate::Delete(1, 2)]);
        cc.repair(&view, &b.touched);
        assert_eq!(cc.labels(), &[0, 0, 2, 2, 2, 2]);
        assert!(cc.repaired() > 0);
    }

    #[test]
    fn cc_repair_ignores_empty_batches() {
        let view = overlay(30);
        let mut cc = MaintainedCc::new(&view);
        let before = cc.labels().to_vec();
        assert_eq!(cc.repair(&view, &[]), 0);
        assert_eq!(cc.labels(), before.as_slice());
    }

    #[test]
    fn pagerank_repair_stays_within_documented_bound() {
        let eps = 1e-9;
        let mut view = overlay(80);
        let mut pr = MaintainedPageRank::new(&view, eps);
        let mut rng = Prng::seed_from_u64(99);
        for _ in 0..10 {
            let n = view.num_vertices() as u64;
            let updates: Vec<EdgeUpdate> = (0..6)
                .map(|_| {
                    let s = (rng.next_u64() % n) as VertexId;
                    let d = (rng.next_u64() % n) as VertexId;
                    if rng.next_u64().is_multiple_of(4) {
                        EdgeUpdate::Delete(s, d)
                    } else {
                        EdgeUpdate::Insert(s, d)
                    }
                })
                .collect();
            view.apply_batch(&updates);
            let warm_sweeps = pr.repair(&view);
            assert!(warm_sweeps > 0);
            let full = full_pagerank(&view, eps);
            let l1: f64 = pr
                .ranks()
                .iter()
                .zip(full.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(
                l1 <= pr.comparison_bound(),
                "L1 divergence {l1:e} exceeds documented bound {:e}",
                pr.comparison_bound()
            );
        }
        // Ranks stay a distribution.
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "ranks sum to {sum}");
    }

    #[test]
    fn pagerank_warm_start_converges_faster_than_cold() {
        let eps = 1e-10;
        let mut view = overlay(100);
        let mut pr = MaintainedPageRank::new(&view, eps);
        let cold_sweeps = pr.sweeps();
        view.apply_batch(&[EdgeUpdate::Insert(0, 50), EdgeUpdate::Insert(1, 60)]);
        let warm = pr.repair(&view);
        assert!(
            warm <= cold_sweeps,
            "warm start took {warm} sweeps vs {cold_sweeps} cold"
        );
    }

    /// Checks both maintained results against from-scratch references.
    fn assert_repaired(view: &DeltaOverlay, cc: &MaintainedCc, pr: &MaintainedPageRank, at: &str) {
        assert_eq!(cc.labels(), full_cc(view).as_slice(), "{at}: labels");
        let full = full_pagerank(view, 1e-9);
        let l1: f64 = pr
            .ranks()
            .iter()
            .zip(&full)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 <= pr.comparison_bound(), "{at}: L1 divergence {l1:e}");
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{at}: ranks sum to {sum}");
    }

    /// Deletion-only batches shatter the components down to isolated
    /// vertices (the dangling set grows every batch), then insertion-only
    /// batches in another order merge them back.
    #[test]
    fn delete_only_then_insert_only_streams_stay_exact() {
        let base = Arc::new(generators::erdos_renyi(150, 220, 3));
        let mut view = DeltaOverlay::new(Arc::clone(&base));
        let mut cc = MaintainedCc::new(&view);
        let mut pr = MaintainedPageRank::new(&view, 1e-9);
        let mut rng = Prng::seed_from_u64(31);
        let mut edges: Vec<(VertexId, VertexId)> = base
            .edges()
            .filter(|&(s, d, _)| s < d)
            .map(|(s, d, _)| (s, d))
            .collect();
        let components = |cc: &MaintainedCc| {
            let l = cc.labels();
            (0..l.len()).filter(|&v| l[v] == v as VertexId).count()
        };
        let before = components(&cc);
        for (phase, insert) in [("delete", false), ("insert", true)] {
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..i + 1));
            }
            for (b, chunk) in edges.chunks(10).enumerate() {
                let updates: Vec<EdgeUpdate> = chunk
                    .iter()
                    .map(|&(s, d)| match insert {
                        true => EdgeUpdate::Insert(d, s),
                        false => EdgeUpdate::Delete(s, d),
                    })
                    .collect();
                let batch = view.apply_batch(&updates);
                assert_eq!(batch.inserted + batch.removed, chunk.len() as u64);
                cc.repair(&view, &batch.touched);
                pr.repair(&view);
                assert_repaired(&view, &cc, &pr, &format!("{phase} batch {b}"));
            }
            if !insert {
                assert_eq!(view.num_edges(), 0);
                assert_eq!(components(&cc), 150, "every vertex isolated");
            }
        }
        assert_eq!(view.patch_len(), 0);
        assert_eq!(components(&cc), before);
        assert!(before < 150);
    }

    #[test]
    fn cc_repair_ignores_out_of_range_touched_ids() {
        let mut view = overlay(40);
        let mut cc = MaintainedCc::new(&view);
        let batch = view.apply_batch(&[EdgeUpdate::Insert(3, 17), EdgeUpdate::Delete(0, 1)]);
        let mut touched = batch.touched;
        touched.extend([40, 41, VertexId::MAX]);
        cc.repair(&view, &touched);
        assert_eq!(cc.labels(), full_cc(&view).as_slice());
        // Nothing but out-of-range ids: nothing to repair.
        assert_eq!(cc.repair(&view, &[40, VertexId::MAX]), 0);
    }
}
