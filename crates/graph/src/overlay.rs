//! Delta overlay: a mutable edge patch over an immutable base [`Graph`].
//!
//! The serving layer (DESIGN.md §16) keeps one frozen `Arc<Graph>` shared
//! by every live session and applies streaming edge insert/delete batches
//! to a small side structure instead of rebuilding the CSR. The overlay
//! answers adjacency queries by merging the base CSR row with the vertex's
//! patch entry, which exists only while its list differs from the base:
//!
//! * `added`   — neighbors inserted since the snapshot (sorted, deduped);
//! * `removed` — base-CSR neighbors deleted since the snapshot (sorted).
//!
//! A per-vertex `patched` flag guards the entry lookup, so a query on a
//! vertex outside the patch reads the CSR directly: no map probe, and no
//! query allocates.
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
use std::collections::BTreeMap;
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

/// How one vertex's adjacency list differs from the base CSR row. Both
/// lists are sorted ascending; `removed ⊆ base row`, `added ∩ base row = ∅`.
#[derive(Debug, Clone, Default)]
struct VertexPatch {
    added: Vec<VertexId>,
    removed: Vec<VertexId>,
}

/// A mutable edge-patch view over an immutable base graph.
///
/// Queries on an unpatched vertex cost what the base CSR costs, on a
/// patched one `O(log patch)` more per neighbor; the intent is a patch
/// that stays small relative to the base and is periodically folded away
/// by [`materialize`](DeltaOverlay::materialize).
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    base: Arc<Graph>,
    /// One entry per vertex whose list differs from the base, never empty.
    patch: BTreeMap<VertexId, VertexPatch>,
    /// `patched[v]` iff `patch` has an entry for `v`.
    patched: Vec<bool>,
    /// Net directed-adjacency-entry count of the view, matching the
    /// [`Graph::num_edges`] convention (a symmetric edge counts twice).
    num_edges: usize,
}

impl DeltaOverlay {
    /// Wraps `base` with an empty patch: the view starts identical to it.
    pub fn new(base: Arc<Graph>) -> Self {
        DeltaOverlay {
            patch: BTreeMap::new(),
            patched: vec![false; base.num_vertices()],
            num_edges: base.num_edges(),
            base,
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
        self.patch
            .values()
            .map(|p| p.added.len() + p.removed.len())
            .sum()
    }

    /// The patch entry of `v`, if its list differs from the base.
    #[inline]
    fn patch_of(&self, v: VertexId) -> Option<&VertexPatch> {
        self.patched[v as usize].then(|| &self.patch[&v])
    }

    /// `true` if the view currently contains edge `(s, d)`.
    pub fn has_edge(&self, s: VertexId, d: VertexId) -> bool {
        match self.patch_of(s) {
            Some(p) if p.added.binary_search(&d).is_ok() => true,
            Some(p) if p.removed.binary_search(&d).is_ok() => false,
            _ => self.base.has_edge(s, d),
        }
    }

    /// Calls `f` on every out-neighbor of `v` in the view, in the order
    /// the maintained results' bit-identity rests on: the base CSR row
    /// (ascending) minus deletions, then insertions (ascending).
    #[inline]
    pub fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId)) {
        let row = self.base.out_neighbors(v);
        let Some(p) = self.patch_of(v) else {
            return row.iter().copied().for_each(f);
        };
        let kept = row.iter().filter(|d| p.removed.binary_search(d).is_err());
        kept.chain(&p.added).copied().for_each(f);
    }

    /// Out-degree of `v` in the view, without walking the list.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let base = self.base.out_degree(v);
        self.patch_of(v)
            .map_or(base, |p| base + p.added.len() - p.removed.len())
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
            if self.patch_edge(s, d, insert)
                && (!symmetric || s == d || self.patch_edge(d, s, insert))
            {
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

    /// Patches directed edge `(s, d)` in or out of the view. Returns
    /// `false` on a no-op.
    fn patch_edge(&mut self, s: VertexId, d: VertexId, insert: bool) -> bool {
        // An edge of the base is in the view unless listed in `removed`;
        // any other edge is in the view only if listed in `added`. So an
        // insert of a base edge and a delete of a non-base edge both want
        // `d` *off* their list (cancelling an earlier update), and the
        // other two cases want it *on*.
        let in_base = self.base.has_edge(s, d);
        let p = self.patch.entry(s).or_default();
        let list = if in_base {
            &mut p.removed
        } else {
            &mut p.added
        };
        let changed = match (list.binary_search(&d), insert == in_base) {
            (Ok(at), true) => {
                list.remove(at);
                true
            }
            (Err(at), false) => {
                list.insert(at, d);
                true
            }
            _ => false,
        };
        let differs = !(p.added.is_empty() && p.removed.is_empty());
        if !differs {
            self.patch.remove(&s);
        }
        self.patched[s as usize] = differs;
        changed
    }

    /// Folds the patch into a fresh CSR, producing a graph identical to
    /// the current view. The overlay itself is left untouched; callers
    /// swap in `DeltaOverlay::new(Arc::new(materialized))` to compact.
    pub fn materialize(&self) -> Result<Graph, GraphError> {
        let symmetric = self.base.is_symmetric();
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.num_edges);
        for s in self.base.vertices() {
            self.for_each_neighbor(s, |d| {
                // On a symmetric base every undirected edge appears in both
                // adjacency lists; stage each once and let the builder
                // mirror it back.
                if !symmetric || s <= d {
                    edges.push((s, d));
                }
            });
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
    use std::collections::BTreeSet;

    fn walk(ov: &DeltaOverlay, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        ov.for_each_neighbor(v, |d| out.push(d));
        out
    }

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
            assert_eq!(walk(&ov, v), g.out_neighbors(v).to_vec());
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
        assert_eq!(walk(&ov, 1), vec![0]);
        assert_eq!(walk(&ov, 3), vec![2, 0]); // base part first, insert after
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
            let mut expect = walk(&ov, v);
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

    /// Random churn against a `BTreeSet` model of the view's directed
    /// adjacency entries. Endpoints come from 20 vertices, so duplicate
    /// inserts, deletes of absent edges, insert-then-delete and
    /// delete-then-reinsert of base edges all occur many times.
    #[test]
    fn walk_degree_membership_and_patched_bit_match_a_set_model() {
        for symmetric in [true, false] {
            let n: VertexId = 20;
            let mut rng = crate::Prng::seed_from_u64(5 + u64::from(symmetric));
            let mut pick = move || rng.gen_range(0..n);
            let base = Arc::new(
                GraphBuilder::new(n as usize)
                    .symmetric(symmetric)
                    .dedup(true)
                    .edges((0..45).map(|_| (pick(), pick())))
                    .build()
                    .unwrap(),
            );
            let base_set: BTreeSet<(VertexId, VertexId)> =
                base.edges().map(|(s, d, _)| (s, d)).collect();
            let mut model = base_set.clone();
            let mut ov = DeltaOverlay::new(Arc::clone(&base));
            let check = |ov: &DeltaOverlay, model: &BTreeSet<(VertexId, VertexId)>| {
                for v in 0..n {
                    let in_model = |d: &VertexId| model.contains(&(v, *d));
                    let row = base.out_neighbors(v);
                    let mut expect: Vec<VertexId> = row.iter().copied().filter(in_model).collect();
                    expect.extend((0..n).filter(|d| in_model(d) && !row.contains(d)));
                    assert_eq!(walk(ov, v), expect, "walk of {v}");
                    assert_eq!(ov.degree(v), expect.len(), "degree of {v}");
                    for d in 0..n {
                        assert_eq!(ov.has_edge(v, d), in_model(&d), "has_edge({v}, {d})");
                    }
                    let differs = (0..n).any(|d| in_model(&d) != base_set.contains(&(v, d)));
                    assert_eq!(ov.patched[v as usize], differs, "patched bit of {v}");
                }
                assert_eq!(ov.num_edges(), model.len());
                assert_eq!(
                    ov.patch_len(),
                    model.symmetric_difference(&base_set).count()
                );
            };
            for _ in 0..60 {
                let updates: Vec<EdgeUpdate> = (0..6)
                    .map(|_| match pick() % 2 {
                        0 => EdgeUpdate::Insert(pick(), pick()),
                        _ => EdgeUpdate::Delete(pick(), pick()),
                    })
                    .collect();
                let (mut inserted, mut removed) = (0, 0);
                for &u in &updates {
                    let (s, d, changed) = match u {
                        EdgeUpdate::Insert(s, d) => (s, d, model.insert((s, d))),
                        EdgeUpdate::Delete(s, d) => (s, d, model.remove(&(s, d))),
                    };
                    if symmetric {
                        match u {
                            EdgeUpdate::Insert(..) => model.insert((d, s)),
                            EdgeUpdate::Delete(..) => model.remove(&(d, s)),
                        };
                    }
                    match u {
                        EdgeUpdate::Insert(..) => inserted += u64::from(changed),
                        EdgeUpdate::Delete(..) => removed += u64::from(changed),
                    }
                }
                let batch = ov.apply_batch(&updates);
                assert_eq!((batch.inserted, batch.removed), (inserted, removed));
                check(&ov, &model);
            }
            // Undo everything, as the serve cycle does: nothing stays patched.
            let undo: Vec<EdgeUpdate> = model
                .symmetric_difference(&base_set)
                .map(|&(s, d)| match base_set.contains(&(s, d)) {
                    true => EdgeUpdate::Insert(s, d),
                    false => EdgeUpdate::Delete(s, d),
                })
                .collect();
            assert!(!undo.is_empty());
            ov.apply_batch(&undo);
            check(&ov, &base_set);
            assert_eq!(ov.patch_len(), 0);
            assert!((0..n).all(|v| !ov.patched[v as usize]));
        }
    }
}
