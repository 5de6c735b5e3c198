//! Delta overlay: a mutable edge patch over an immutable base [`Graph`].
//!
//! The serving layer (DESIGN.md §16) keeps one frozen `Arc<Graph>` shared
//! by every live session and applies streaming edge insert/delete batches
//! to a small side structure instead of rebuilding the CSR. The overlay
//! answers adjacency queries by merging the base CSR with the patch:
//!
//! * `added[v]`   — neighbors inserted since the snapshot (sorted, deduped);
//! * `removed[v]` — base-CSR neighbors deleted since the snapshot.
//!
//! An edge inserted then deleted (or vice versa) cancels out; inserting an
//! edge the view already has, or deleting one it does not, is a no-op that
//! is *not* counted in the [`AppliedBatch`] totals. On symmetric bases the
//! mirrored direction is patched in the same operation, so the overlay
//! stays an undirected view.
//!
//! When the patch grows past a caller-chosen threshold,
//! [`DeltaOverlay::materialize`] folds it into a fresh CSR via
//! [`GraphBuilder`] — the compaction step of the
//! serve loop.

use crate::{Graph, GraphBuilder, GraphError, VertexId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One streaming edge mutation. Directions are interpreted on the base
/// graph's symmetry: over a symmetric base, `Insert(u, v)` also inserts
/// `(v, u)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Add edge `(src, dst)`; no-op if the current view already has it.
    Insert(VertexId, VertexId),
    /// Remove edge `(src, dst)`; no-op if the current view lacks it.
    Delete(VertexId, VertexId),
}

/// What a [`DeltaOverlay::apply_batch`] call actually changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedBatch {
    /// Edges inserted (undirected edges counted once on symmetric bases).
    pub inserted: u64,
    /// Edges removed (undirected edges counted once on symmetric bases).
    pub removed: u64,
    /// Every vertex whose adjacency list changed, sorted and deduped —
    /// the seed set for incremental repair.
    pub touched: Vec<VertexId>,
}

impl AppliedBatch {
    /// `true` when the batch changed nothing (all updates were no-ops).
    pub fn is_empty(&self) -> bool {
        self.inserted == 0 && self.removed == 0
    }
}

/// A mutable edge-patch view over an immutable base graph.
///
/// Queries cost `O(log patch)` extra over the base CSR; the intent is a
/// patch that stays small relative to the base and is periodically folded
/// away by [`materialize`](DeltaOverlay::materialize).
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    base: Arc<Graph>,
    /// Per-vertex inserted neighbors, absent from the current view's base
    /// contribution. Sorted via `BTreeSet` for deterministic iteration.
    added: BTreeMap<VertexId, BTreeSet<VertexId>>,
    /// Per-vertex deleted base-CSR neighbors.
    removed: BTreeMap<VertexId, BTreeSet<VertexId>>,
    /// Net directed-adjacency-entry count of the view, matching the
    /// [`Graph::num_edges`] convention (a symmetric edge counts twice).
    num_edges: usize,
}

impl DeltaOverlay {
    /// Wraps `base` with an empty patch: the view starts identical to it.
    pub fn new(base: Arc<Graph>) -> Self {
        let num_edges = base.num_edges();
        DeltaOverlay {
            base,
            added: BTreeMap::new(),
            removed: BTreeMap::new(),
            num_edges,
        }
    }

    /// The immutable snapshot underneath the patch.
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// Number of vertices (fixed: the overlay never grows the vertex set).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Net edge count of the view.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total patched (inserted + deleted) directed adjacency entries —
    /// the compaction trigger metric.
    pub fn patch_len(&self) -> usize {
        self.added.values().map(BTreeSet::len).sum::<usize>()
            + self.removed.values().map(BTreeSet::len).sum::<usize>()
    }

    /// `true` if the view currently contains edge `(s, d)`.
    pub fn has_edge(&self, s: VertexId, d: VertexId) -> bool {
        if self.added.get(&s).is_some_and(|a| a.contains(&d)) {
            return true;
        }
        if self.removed.get(&s).is_some_and(|r| r.contains(&d)) {
            return false;
        }
        self.base.has_edge(s, d)
    }

    /// Out-neighbors of `v` in the view: the base list minus deletions,
    /// followed by insertions (sorted among themselves).
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let removed = self.removed.get(&v);
        let mut out: Vec<VertexId> = self
            .base
            .out_neighbors(v)
            .iter()
            .copied()
            .filter(|d| !removed.is_some_and(|r| r.contains(d)))
            .collect();
        if let Some(added) = self.added.get(&v) {
            out.extend(added.iter().copied());
        }
        out
    }

    /// Out-degree of `v` in the view, without materializing the list.
    pub fn degree(&self, v: VertexId) -> usize {
        self.base.out_degree(v) + self.added.get(&v).map_or(0, BTreeSet::len)
            - self.removed.get(&v).map_or(0, BTreeSet::len)
    }

    /// Applies a batch of updates in order, returning what changed.
    /// Duplicate inserts and deletes of absent edges are silent no-ops;
    /// on symmetric bases each update also patches the mirrored direction.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> AppliedBatch {
        let symmetric = self.base.is_symmetric();
        let mut batch = AppliedBatch::default();
        for &u in updates {
            let (s, d, insert) = match u {
                EdgeUpdate::Insert(s, d) => (s, d, true),
                EdgeUpdate::Delete(s, d) => (s, d, false),
            };
            if s as usize >= self.num_vertices() || d as usize >= self.num_vertices() {
                continue; // out-of-range endpoints: ignore, vertex set is fixed
            }
            let changed = if insert {
                self.patch_insert(s, d) && (!symmetric || s == d || self.patch_insert(d, s))
            } else {
                self.patch_delete(s, d) && (!symmetric || s == d || self.patch_delete(d, s))
            };
            if changed {
                // A symmetric non-loop edge occupies two adjacency entries.
                let entries = if symmetric && s != d { 2 } else { 1 };
                if insert {
                    batch.inserted += 1;
                    self.num_edges += entries;
                } else {
                    batch.removed += 1;
                    self.num_edges -= entries;
                }
                batch.touched.push(s);
                batch.touched.push(d);
            }
        }
        batch.touched.sort_unstable();
        batch.touched.dedup();
        batch
    }

    /// Patches directed edge `(s, d)` in. Returns `false` on a no-op.
    fn patch_insert(&mut self, s: VertexId, d: VertexId) -> bool {
        if self.removed.get(&s).is_some_and(|r| r.contains(&d)) {
            // Reinserting a deleted base edge: cancel the deletion.
            if let Some(r) = self.removed.get_mut(&s) {
                r.remove(&d);
                if r.is_empty() {
                    self.removed.remove(&s);
                }
            }
            return true;
        }
        if self.base.has_edge(s, d) {
            return false; // already present via the base
        }
        self.added.entry(s).or_default().insert(d)
    }

    /// Patches directed edge `(s, d)` out. Returns `false` on a no-op.
    fn patch_delete(&mut self, s: VertexId, d: VertexId) -> bool {
        if self.added.get(&s).is_some_and(|a| a.contains(&d)) {
            // Deleting a patch-inserted edge: cancel the insertion.
            if let Some(a) = self.added.get_mut(&s) {
                a.remove(&d);
                if a.is_empty() {
                    self.added.remove(&s);
                }
            }
            return true;
        }
        if !self.base.has_edge(s, d) {
            return false; // absent from the view
        }
        self.removed.entry(s).or_default().insert(d)
    }

    /// Folds the patch into a fresh CSR, producing a graph identical to
    /// the current view. The overlay itself is left untouched; callers
    /// swap in `DeltaOverlay::new(Arc::new(materialized))` to compact.
    pub fn materialize(&self) -> Result<Graph, GraphError> {
        let symmetric = self.base.is_symmetric();
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.num_edges);
        for s in self.base.vertices() {
            for d in self.neighbors(s) {
                // On a symmetric base every undirected edge appears in both
                // adjacency lists; stage each once and let the builder
                // mirror it back.
                if !symmetric || s <= d {
                    edges.push((s, d));
                }
            }
        }
        GraphBuilder::new(self.num_vertices())
            .symmetric(symmetric)
            .dedup(true)
            .edges(edges)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn sym_base() -> Arc<Graph> {
        // 0-1-2-3 path plus isolated 4, symmetric.
        Arc::new(generators::path(4, true))
    }

    #[test]
    fn empty_overlay_mirrors_base() {
        let g = sym_base();
        let ov = DeltaOverlay::new(Arc::clone(&g));
        assert_eq!(ov.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(ov.neighbors(v), g.out_neighbors(v).to_vec());
            assert_eq!(ov.degree(v), g.out_degree(v));
        }
        assert_eq!(ov.patch_len(), 0);
    }

    #[test]
    fn insert_and_delete_patch_both_directions() {
        let mut ov = DeltaOverlay::new(sym_base());
        let b = ov.apply_batch(&[EdgeUpdate::Insert(0, 3), EdgeUpdate::Delete(1, 2)]);
        assert_eq!(b.inserted, 1);
        assert_eq!(b.removed, 1);
        assert_eq!(b.touched, vec![0, 1, 2, 3]);
        assert!(ov.has_edge(0, 3) && ov.has_edge(3, 0));
        assert!(!ov.has_edge(1, 2) && !ov.has_edge(2, 1));
        assert_eq!(ov.neighbors(1), vec![0]);
        assert_eq!(ov.neighbors(3), vec![2, 0]); // base part first, insert after
        assert_eq!(ov.degree(3), 2);
        assert_eq!(ov.num_edges(), 6); // 6 entries - 2 + 2
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let mut ov = DeltaOverlay::new(sym_base());
        let b = ov.apply_batch(&[
            EdgeUpdate::Insert(0, 1),  // already in base
            EdgeUpdate::Delete(0, 2),  // never existed
            EdgeUpdate::Insert(0, 3),  // real insert
            EdgeUpdate::Insert(0, 3),  // duplicate of the patch insert
            EdgeUpdate::Insert(9, 0),  // out of range
            EdgeUpdate::Delete(0, 99), // out of range
        ]);
        assert_eq!(b.inserted, 1);
        assert_eq!(b.removed, 0);
        assert_eq!(b.touched, vec![0, 3]);
        assert_eq!(ov.num_edges(), 8);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut ov = DeltaOverlay::new(sym_base());
        ov.apply_batch(&[EdgeUpdate::Insert(0, 3)]);
        let b = ov.apply_batch(&[EdgeUpdate::Delete(0, 3)]);
        assert_eq!(b.removed, 1);
        assert_eq!(ov.patch_len(), 0, "patch fully cancelled");
        assert_eq!(ov.num_edges(), sym_base().num_edges());
        // And the reverse: delete a base edge, then reinsert it.
        ov.apply_batch(&[EdgeUpdate::Delete(1, 2)]);
        let b = ov.apply_batch(&[EdgeUpdate::Insert(2, 1)]);
        assert_eq!(b.inserted, 1);
        assert_eq!(ov.patch_len(), 0);
        assert!(ov.has_edge(1, 2));
    }

    #[test]
    fn materialize_equals_view() {
        let mut ov = DeltaOverlay::new(sym_base());
        ov.apply_batch(&[
            EdgeUpdate::Insert(0, 3),
            EdgeUpdate::Delete(2, 3),
            EdgeUpdate::Insert(1, 3),
        ]);
        let m = ov.materialize().unwrap();
        assert_eq!(m.num_vertices(), ov.num_vertices());
        assert_eq!(m.num_edges(), ov.num_edges());
        assert!(m.is_symmetric());
        for v in m.vertices() {
            let mut expect = ov.neighbors(v);
            expect.sort_unstable();
            assert_eq!(m.out_neighbors(v).to_vec(), expect, "vertex {v}");
        }
    }

    #[test]
    fn directed_base_patches_one_direction() {
        let g = Arc::new(
            GraphBuilder::new(3)
                .edges([(0, 1), (1, 2)])
                .build()
                .unwrap(),
        );
        let mut ov = DeltaOverlay::new(Arc::clone(&g));
        let b = ov.apply_batch(&[EdgeUpdate::Insert(2, 0), EdgeUpdate::Delete(0, 1)]);
        assert_eq!((b.inserted, b.removed), (1, 1));
        assert!(ov.has_edge(2, 0) && !ov.has_edge(0, 2));
        assert!(!ov.has_edge(0, 1) && !ov.has_edge(1, 0));
        let m = ov.materialize().unwrap();
        assert!(!m.is_symmetric());
        assert_eq!(m.out_neighbors(2), &[0]);
        assert!(m.out_neighbors(0).is_empty());
    }
}
