//! Edge-set algebra — `EDGEMAP`'s `H` parameter.
//!
//! Ligra can only send messages along `E`; FLASH "allows the users to
//! provide the arbitrary edge set they want to transfer messages, even when
//! the edges do not exist in the original graph" (§III-C "Communication
//! beyond neighborhood"). The paper's pre-defined operators are all here:
//!
//! * `E`                       → [`EdgeSet::forward`]
//! * `reverse(E)`              → [`EdgeSet::reverse`]
//! * `join(E, E)` (two-hop)    → [`EdgeSet::two_hop`]
//! * `join(E, U)` (targets ∈ U)→ [`EdgeSet::targets_in`]
//! * `join(U, p)` / `join(p, U)` (pointer edges) and any other virtual
//!   edge set → [`EdgeSet::custom_out`] / [`EdgeSet::custom_in`] /
//!   [`EdgeSet::custom`]
//!
//! A custom edge set is a *function*, not a materialized list, evaluated
//! lazily at runtime against the source's (or target's) current state —
//! exactly how the optimized CC algorithm maintains its parent-pointer
//! forest. Because virtual edges escape the partitioner's mirror placement,
//! any step using them synchronizes masters to **all** mirrors
//! ([`flash_runtime::SyncScope::All`]), as §IV-C prescribes.

use crate::subset::VertexSubset;
use flash_graph::{Graph, VertexId, Weight};
use std::sync::Arc;

/// A function producing the virtual out-edges (targets) of a vertex,
/// given its id and current state.
pub type TargetsFn<V> = Arc<dyn Fn(VertexId, &V) -> Vec<VertexId> + Send + Sync>;

/// A function producing the virtual in-edges (sources) of a vertex,
/// given its id and current state.
pub type SourcesFn<V> = Arc<dyn Fn(VertexId, &V) -> Vec<VertexId> + Send + Sync>;

/// The edge set `H` over which an `EDGEMAP` transfers messages.
#[derive(Clone)]
pub enum EdgeSet<V> {
    /// The graph's edges `E`.
    Forward,
    /// `reverse(E)`.
    Reverse,
    /// `join(E, E)`: two-hop neighbors (paths of length 2, endpoints).
    TwoHop,
    /// `join(E, U)`: edges of `E` whose *target* lies in the subset.
    TargetsIn(VertexSubset),
    /// Virtual edges given by a source→targets function. Usable by the
    /// sparse (push) kernel only.
    CustomOut(TargetsFn<V>),
    /// Virtual edges given by a target→sources function. Usable by the
    /// dense (pull) kernel only.
    CustomIn(SourcesFn<V>),
    /// Virtual edges with both orientations supplied (the two functions
    /// must describe the same edge set); usable by either kernel.
    CustomBoth(TargetsFn<V>, SourcesFn<V>),
}

impl<V> EdgeSet<V> {
    /// The graph's own edges, `E`.
    pub fn forward() -> Self {
        EdgeSet::Forward
    }

    /// `reverse(E)`.
    pub fn reverse() -> Self {
        EdgeSet::Reverse
    }

    /// `join(E, E)` — two-hop neighbors.
    pub fn two_hop() -> Self {
        EdgeSet::TwoHop
    }

    /// `join(E, U)` — edges with targets in `u`.
    pub fn targets_in(u: &VertexSubset) -> Self {
        EdgeSet::TargetsIn(u.clone())
    }

    /// A virtual edge set from a source→targets function (push-oriented),
    /// e.g. the paper's `join(U, p)`:
    /// `EdgeSet::custom_out(|_, val| vec![val.p])`.
    pub fn custom_out(f: impl Fn(VertexId, &V) -> Vec<VertexId> + Send + Sync + 'static) -> Self {
        EdgeSet::CustomOut(Arc::new(f))
    }

    /// A virtual edge set from a target→sources function (pull-oriented),
    /// e.g. the paper's `join(p, U)` used with `EDGEMAPDENSE`:
    /// `EdgeSet::custom_in(|_, val| vec![val.p])`.
    pub fn custom_in(f: impl Fn(VertexId, &V) -> Vec<VertexId> + Send + Sync + 'static) -> Self {
        EdgeSet::CustomIn(Arc::new(f))
    }

    /// A virtual edge set with both orientations.
    pub fn custom(
        out: impl Fn(VertexId, &V) -> Vec<VertexId> + Send + Sync + 'static,
        inn: impl Fn(VertexId, &V) -> Vec<VertexId> + Send + Sync + 'static,
    ) -> Self {
        EdgeSet::CustomBoth(Arc::new(out), Arc::new(inn))
    }

    /// `true` if the set reaches beyond the original edges `E`, forcing
    /// all-mirror synchronization.
    pub fn is_virtual(&self) -> bool {
        matches!(
            self,
            EdgeSet::TwoHop
                | EdgeSet::CustomOut(_)
                | EdgeSet::CustomIn(_)
                | EdgeSet::CustomBoth(..)
        )
    }

    /// `true` if a step over this set reads rows of the on-disk graph's
    /// edge blocks and nothing else, so block storage can charge it: the
    /// set must be a subset of `E` (or `reverse(E)`) known without
    /// evaluating per-vertex functions. Virtual sets (two-hop, custom)
    /// run uncharged even under block storage.
    pub fn is_streamable(&self) -> bool {
        matches!(
            self,
            EdgeSet::Forward | EdgeSet::Reverse | EdgeSet::TargetsIn(_)
        )
    }

    /// `true` if the sparse (push) kernel can enumerate this set from the
    /// source side.
    pub fn supports_push(&self) -> bool {
        !matches!(self, EdgeSet::CustomIn(_))
    }

    /// `true` if the dense (pull) kernel can enumerate this set from the
    /// target side.
    pub fn supports_pull(&self) -> bool {
        !matches!(self, EdgeSet::CustomOut(_))
    }

    /// The row of `H` out of `s` (push orientation). Every neighbour in
    /// the row that [`Row::admits`] is an edge `s → t` of `H`.
    ///
    /// Always inlined: it has two callers, the push kernel and the pull's
    /// list of reached masters, and out of line the push kernel pays a
    /// call per row.
    #[inline(always)]
    pub(crate) fn targets<'a>(
        &'a self,
        g: &'a Graph,
        s: VertexId,
        val: &V,
        scratch: &'a mut Vec<VertexId>,
    ) -> Row<'a> {
        match self {
            EdgeSet::Forward => Row::stored(g.out_neighbors(s), g.out_weights(s)),
            EdgeSet::Reverse => Row::stored(g.in_neighbors(s), g.in_weights(s)),
            EdgeSet::TwoHop => Row::two_hop(s, |v| g.out_neighbors(v), scratch),
            EdgeSet::TargetsIn(u) => Row {
                gate: Some(u),
                ..Row::stored(g.out_neighbors(s), g.out_weights(s))
            },
            EdgeSet::CustomOut(f) | EdgeSet::CustomBoth(f, _) => {
                *scratch = f(s, val);
                Row::stored(scratch, None)
            }
            EdgeSet::CustomIn(_) => {
                unreachable!("push kernel must check supports_push() first")
            }
        }
    }

    /// The row of `H` into `d` (pull orientation): every neighbour in it
    /// is an edge `s → d` of `H`.
    pub(crate) fn sources<'a>(
        &'a self,
        g: &'a Graph,
        d: VertexId,
        val: &V,
        scratch: &'a mut Vec<VertexId>,
    ) -> Row<'a> {
        match self {
            EdgeSet::Forward => Row::stored(g.in_neighbors(d), g.in_weights(d)),
            EdgeSet::Reverse => Row::stored(g.out_neighbors(d), g.out_weights(d)),
            EdgeSet::TwoHop => Row::two_hop(d, |v| g.in_neighbors(v), scratch),
            EdgeSet::TargetsIn(u) if u.contains(d) => {
                Row::stored(g.in_neighbors(d), g.in_weights(d))
            }
            EdgeSet::TargetsIn(_) => Row::stored(&[], None),
            EdgeSet::CustomIn(f) | EdgeSet::CustomBoth(_, f) => {
                *scratch = f(d, val);
                Row::stored(scratch, None)
            }
            EdgeSet::CustomOut(_) => {
                unreachable!("pull kernel must check supports_pull() first")
            }
        }
    }
}

/// One vertex's row of an edge set, as the `EDGEMAP` kernels walk it: the
/// neighbour ids in the order the kernel must meet them (ascending for
/// every set stored in or derived from the CSR), borrowed from the graph
/// for `E`, `reverse(E)` and `join(E, U)`, or from the kernel's one
/// scratch buffer for the sets that have to be materialised (two-hop,
/// custom). A kernel leaves a row early with a plain `break`.
pub(crate) struct Row<'a> {
    /// The neighbours, in visit order.
    pub(crate) ids: &'a [VertexId],
    weights: Option<&'a [Weight]>,
    /// `join(E, U)` walked from the source side: the stored row holds all
    /// of the source's out-edges, the gate says which are in `H`. (The
    /// streamed kernel charges the blocks of the whole row, so the filter
    /// cannot happen before the kernel sees it.)
    gate: Option<&'a VertexSubset>,
}

impl<'a> Row<'a> {
    fn stored(ids: &'a [VertexId], weights: Option<&'a [Weight]>) -> Self {
        Row {
            ids,
            weights,
            gate: None,
        }
    }

    /// Endpoints of the length-2 paths from `v` along `step`, without `v`
    /// itself, sorted and deduplicated into `scratch`.
    fn two_hop<'g>(
        v: VertexId,
        step: impl Fn(VertexId) -> &'g [VertexId],
        scratch: &'a mut Vec<VertexId>,
    ) -> Self {
        scratch.clear();
        for &mid in step(v) {
            scratch.extend(step(mid).iter().filter(|&&end| end != v));
        }
        scratch.sort_unstable();
        scratch.dedup();
        Row::stored(scratch, None)
    }

    /// Weight of the `i`-th edge of the row (1.0 when the set carries none).
    #[inline]
    pub(crate) fn weight(&self, i: usize) -> Weight {
        self.weights.map_or(1.0, |w| w[i])
    }

    /// `true` if the edge to neighbour `v` belongs to `H`.
    #[inline]
    pub(crate) fn admits(&self, v: VertexId) -> bool {
        self.gate.is_none_or(|u| u.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::GraphBuilder;

    #[derive(Clone, Default)]
    struct P {
        parent: VertexId,
    }

    fn diamond() -> Graph {
        // 0 → 1 → 3, 0 → 2 → 3
        GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap()
    }

    /// The `(neighbour, weight)` edges of `H` a kernel would take from
    /// the row of `v`: every admitted neighbour, in row order.
    fn edges(
        h: &EdgeSet<P>,
        g: &Graph,
        v: VertexId,
        val: &P,
        push: bool,
    ) -> Vec<(VertexId, Weight)> {
        let mut scratch = Vec::new();
        let row = if push {
            h.targets(g, v, val, &mut scratch)
        } else {
            h.sources(g, v, val, &mut scratch)
        };
        (0..row.ids.len())
            .filter(|&i| row.admits(row.ids[i]))
            .map(|i| (row.ids[i], row.weight(i)))
            .collect()
    }

    fn targets(h: &EdgeSet<P>, g: &Graph, s: VertexId, val: &P) -> Vec<VertexId> {
        edges(h, g, s, val, true).into_iter().map(|e| e.0).collect()
    }

    fn sources(h: &EdgeSet<P>, g: &Graph, d: VertexId, val: &P) -> Vec<VertexId> {
        edges(h, g, d, val, false)
            .into_iter()
            .map(|e| e.0)
            .collect()
    }

    #[test]
    fn forward_and_reverse() {
        let g = diamond();
        let h: EdgeSet<P> = EdgeSet::forward();
        assert_eq!(targets(&h, &g, 0, &P::default()), vec![1, 2]);
        assert_eq!(sources(&h, &g, 3, &P::default()), vec![1, 2]);

        let r: EdgeSet<P> = EdgeSet::reverse();
        assert_eq!(targets(&r, &g, 3, &P::default()), vec![1, 2]);
        assert_eq!(sources(&r, &g, 1, &P::default()), vec![3]);
    }

    #[test]
    fn stored_rows_borrow_the_csr() {
        let g = diamond();
        let h: EdgeSet<P> = EdgeSet::forward();
        let mut scratch = Vec::new();
        let row = h.sources(&g, 3, &P::default(), &mut scratch);
        assert!(std::ptr::eq(row.ids, g.in_neighbors(3)), "no copy");
    }

    #[test]
    fn two_hop_dedups_and_skips_self() {
        let g = diamond();
        let h: EdgeSet<P> = EdgeSet::two_hop();
        assert_eq!(
            targets(&h, &g, 0, &P::default()),
            vec![3],
            "two paths to 3 collapse to one edge"
        );
        assert_eq!(sources(&h, &g, 3, &P::default()), vec![0]);
        // A 2-cycle leads back to the start, which is not its own
        // two-hop neighbour; the scratch buffer is cleared between rows.
        let cyc = GraphBuilder::new(3)
            .edges([(0, 1), (1, 0), (1, 2)])
            .build()
            .unwrap();
        let mut scratch = vec![7, 7, 7];
        let row = h.targets(&cyc, 0, &P::default(), &mut scratch);
        assert_eq!(row.ids, [2]);
    }

    #[test]
    fn targets_in_filters() {
        let g = diamond();
        let u = VertexSubset::from_ids(4, [2]);
        let h: EdgeSet<P> = EdgeSet::targets_in(&u);
        assert_eq!(targets(&h, &g, 0, &P::default()), vec![2]);
        // Push sees the whole stored row (the streamed kernel charges its
        // blocks) and the gate picks the edges of H out of it ...
        let mut scratch = Vec::new();
        let row = h.targets(&g, 0, &P::default(), &mut scratch);
        assert_eq!(row.ids, [1, 2]);
        assert!(!row.admits(1) && row.admits(2));
        // ... pull is gated on the row's own vertex.
        assert!(sources(&h, &g, 3, &P::default()).is_empty());
        assert_eq!(sources(&h, &g, 2, &P::default()), vec![0]);
    }

    #[test]
    fn custom_pointer_edges() {
        let g = diamond();
        let h: EdgeSet<P> = EdgeSet::custom_out(|_, p: &P| vec![p.parent]);
        let val = P { parent: 2 };
        assert_eq!(edges(&h, &g, 0, &val, true), vec![(2, 1.0)]);
        assert!(h.is_virtual());
        assert!(h.supports_push());
        assert!(!h.supports_pull());

        let hin: EdgeSet<P> = EdgeSet::custom_in(|_, p: &P| vec![p.parent]);
        assert!(!hin.supports_push());
        assert!(hin.supports_pull());
        assert_eq!(sources(&hin, &g, 0, &val), vec![2]);

        let both: EdgeSet<P> = EdgeSet::custom(|v, _| vec![v + 1], |v, _| vec![v - 1]);
        assert_eq!(targets(&both, &g, 1, &val), vec![2]);
        assert_eq!(sources(&both, &g, 1, &val), vec![0]);
    }

    #[test]
    #[should_panic(expected = "supports_push")]
    fn pull_only_set_refuses_the_push_side() {
        let hin: EdgeSet<P> = EdgeSet::custom_in(|_, p: &P| vec![p.parent]);
        targets(&hin, &diamond(), 0, &P::default());
    }

    #[test]
    #[should_panic(expected = "supports_pull")]
    fn push_only_set_refuses_the_pull_side() {
        let h: EdgeSet<P> = EdgeSet::custom_out(|_, p: &P| vec![p.parent]);
        sources(&h, &diamond(), 0, &P::default());
    }

    #[test]
    fn orientation_capabilities() {
        assert!(EdgeSet::<P>::forward().supports_push());
        assert!(EdgeSet::<P>::forward().supports_pull());
        assert!(!EdgeSet::<P>::forward().is_virtual());
        assert!(EdgeSet::<P>::two_hop().is_virtual());
        let both: EdgeSet<P> = EdgeSet::custom(|_, _| vec![], |_, _| vec![]);
        assert!(both.supports_push() && both.supports_pull() && both.is_virtual());
    }

    #[test]
    fn streamability_follows_materialization() {
        assert!(EdgeSet::<P>::forward().is_streamable());
        assert!(EdgeSet::<P>::reverse().is_streamable());
        let u = VertexSubset::from_ids(4, [1]);
        assert!(EdgeSet::<P>::targets_in(&u).is_streamable());
        assert!(!EdgeSet::<P>::two_hop().is_streamable());
        assert!(!EdgeSet::<P>::custom_out(|_, p: &P| vec![p.parent]).is_streamable());
        assert!(!EdgeSet::<P>::custom_in(|_, p: &P| vec![p.parent]).is_streamable());
        let both: EdgeSet<P> = EdgeSet::custom(|_, _| vec![], |_, _| vec![]);
        assert!(!both.is_streamable());
    }

    #[test]
    fn weighted_edges_pass_weights() {
        let g = GraphBuilder::new(2)
            .weighted_edge(0, 1, 2.5)
            .build()
            .unwrap();
        let h: EdgeSet<P> = EdgeSet::forward();
        assert_eq!(edges(&h, &g, 0, &P::default(), true), vec![(1, 2.5)]);
        assert_eq!(edges(&h, &g, 1, &P::default(), false), vec![(0, 2.5)]);
        let r: EdgeSet<P> = EdgeSet::reverse();
        assert_eq!(edges(&r, &g, 1, &P::default(), true), vec![(0, 2.5)]);
    }
}
