//! The `vertexSubset` type.
//!
//! The paper's central data structure (§III-A): "a set of vertices of the
//! graph G, which only contains a set of integers, representing the vertex
//! id for each vertex in this set. The associated properties of vertices
//! are maintained only once for a graph, shared by all vertexSubsets."
//!
//! FLASH is "the first distributed graph processing model to provide the
//! vertexSubset type" — a *global-perspective* structure: multiple subsets
//! may coexist, be combined with set algebra, captured in recursive
//! functions (Betweenness Centrality keeps one frontier per BFS level), and
//! fed to any primitive.
//!
//! Internally a subset is immutable and shared (cloning is O(1), `Arc`)
//! and has Ligra's two representations (DESIGN.md §4): a sorted id list
//! while it is small, a bit set over the full vertex id range otherwise.
//! A listed subset costs O(|U|) to build, walk and combine — nothing about
//! it is proportional to `|V|` unless a dense kernel asks for its bit set,
//! which is then materialised once and cached.

use flash_graph::{BitSet, PartitionMap, VertexId};
use std::sync::{Arc, OnceLock};

/// A subset is kept as a sorted id list while `len * LIST_DIVISOR <= n`:
/// the point up to which the list (32 bits per member) is no larger than
/// the bit set (one bit per vertex). Below it, walking the members beats
/// testing every master's bit for any worker count up to 32.
const LIST_DIVISOR: usize = 32;

/// An immutable set of vertex ids (the paper's `vertexSubset`).
#[derive(Clone, Debug)]
pub struct VertexSubset {
    inner: Arc<Inner>,
}

/// Invariant: `ids` is `Some` exactly when `len * LIST_DIVISOR <= n`, and
/// then holds the members ascending without duplicates; `bits` is always
/// set when `ids` is `None`.
#[derive(Debug)]
struct Inner {
    n: usize,
    len: usize,
    ids: Option<Vec<VertexId>>,
    bits: OnceLock<BitSet>,
}

fn is_small(len: usize, n: usize) -> bool {
    len * LIST_DIVISOR <= n
}

impl VertexSubset {
    /// The empty subset over a graph with `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_sorted(n, Vec::new())
    }

    /// The full subset `V` over a graph with `n` vertices.
    pub fn full(n: usize) -> Self {
        Self::from_bits(BitSet::full(n))
    }

    /// A subset from an id iterator (ids must be `< n`).
    pub fn from_ids<I: IntoIterator<Item = VertexId>>(n: usize, ids: I) -> Self {
        // Buffer ids only up to the list limit, so a long iterator never
        // holds more than the bit set it ends up in.
        let limit = n / LIST_DIVISOR;
        let mut ids = ids.into_iter();
        let mut list: Vec<VertexId> = Vec::new();
        for id in ids.by_ref() {
            assert!((id as usize) < n, "subset id {id} >= capacity {n}");
            list.push(id);
            if list.len() > limit {
                break;
            }
        }
        if list.len() <= limit {
            return Self::from_lists(n, &[list]);
        }
        Self::from_bits(bitset_of(n, list.into_iter().chain(ids)))
    }

    /// A subset owning a prebuilt bit set.
    pub fn from_bits(bits: BitSet) -> Self {
        let (n, len) = (bits.capacity(), bits.len());
        let ids = is_small(len, n).then(|| bits.to_vec());
        VertexSubset {
            inner: Arc::new(Inner {
                n,
                len,
                ids,
                bits: OnceLock::from(bits),
            }),
        }
    }

    /// A subset from id lists that together hold each member at least once
    /// (per-worker pass lists, `StepOutput::updated`): a small result is
    /// built without any `n`-sized allocation.
    pub(crate) fn from_lists(n: usize, lists: &[Vec<VertexId>]) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        if is_small(total, n) {
            let mut ids = Vec::with_capacity(total);
            for list in lists {
                ids.extend_from_slice(list);
            }
            ids.sort_unstable();
            ids.dedup();
            return Self::from_sorted(n, ids);
        }
        Self::from_bits(bitset_of(n, lists.iter().flatten().copied()))
    }

    /// A subset from ascending, duplicate-free ids `< n`.
    fn from_sorted(n: usize, ids: Vec<VertexId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(ids.last().is_none_or(|&v| (v as usize) < n));
        if !is_small(ids.len(), n) {
            return Self::from_bits(bitset_of(n, ids));
        }
        VertexSubset {
            inner: Arc::new(Inner {
                n,
                len: ids.len(),
                ids: Some(ids),
                bits: OnceLock::new(),
            }),
        }
    }

    /// `SIZE(U)` — the number of vertices in the subset.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// `true` when the subset is empty (the usual loop-termination test).
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// The id capacity (`|V|` of the graph this subset belongs to).
    pub fn capacity(&self) -> usize {
        self.inner.n
    }

    /// `CONTAIN` — membership test. A listed subset answers by binary
    /// search; kernels that test membership per edge take
    /// [`VertexSubset::bits`] once instead.
    pub fn contains(&self, v: VertexId) -> bool {
        match (&self.inner.ids, self.inner.bits.get()) {
            (Some(ids), None) => ids.binary_search(&v).is_ok(),
            _ => self.bits().contains(v),
        }
    }

    /// `ADD` — returns a new subset with `v` inserted.
    pub fn add(&self, v: VertexId) -> VertexSubset {
        assert!(
            (v as usize) < self.inner.n,
            "subset id {v} >= capacity {}",
            self.inner.n
        );
        match &self.inner.ids {
            Some(ids) => match ids.binary_search(&v) {
                Ok(_) => self.clone(),
                Err(pos) => {
                    let mut ids = ids.clone();
                    ids.insert(pos, v);
                    Self::from_sorted(self.inner.n, ids)
                }
            },
            None => {
                let mut bits = self.bits().clone();
                bits.insert(v);
                Self::from_bits(bits)
            }
        }
    }

    /// `UNION` — set union with `other`.
    pub fn union(&self, other: &VertexSubset) -> VertexSubset {
        self.check_capacity(other);
        match (&self.inner.ids, &other.inner.ids) {
            (Some(a), Some(b)) => Self::from_sorted(self.inner.n, merge_union(a, b)),
            // One bit set absorbs the other operand's members.
            (None, Some(small)) | (Some(small), None) => {
                let dense = if self.is_list() { other } else { self };
                let mut bits = dense.bits().clone();
                for &v in small {
                    bits.insert(v);
                }
                Self::from_bits(bits)
            }
            (None, None) => {
                let mut bits = self.bits().clone();
                bits.union_with(other.bits());
                Self::from_bits(bits)
            }
        }
    }

    /// `INTERSECT` — set intersection with `other`.
    pub fn intersect(&self, other: &VertexSubset) -> VertexSubset {
        self.check_capacity(other);
        match (&self.inner.ids, &other.inner.ids) {
            // The result is no larger than the listed operand: filter it.
            (Some(a), _) => Self::from_sorted(self.inner.n, filtered(a, |v| other.contains(v))),
            (None, Some(b)) => Self::from_sorted(self.inner.n, filtered(b, |v| self.contains(v))),
            (None, None) => {
                let mut bits = self.bits().clone();
                bits.intersect_with(other.bits());
                Self::from_bits(bits)
            }
        }
    }

    /// `MINUS` — set difference `self \ other`.
    pub fn minus(&self, other: &VertexSubset) -> VertexSubset {
        self.check_capacity(other);
        match (&self.inner.ids, &other.inner.ids) {
            (Some(a), _) => Self::from_sorted(self.inner.n, filtered(a, |v| !other.contains(v))),
            (None, Some(b)) => {
                let mut bits = self.bits().clone();
                for &v in b {
                    bits.remove(v);
                }
                Self::from_bits(bits)
            }
            (None, None) => {
                let mut bits = self.bits().clone();
                bits.difference_with(other.bits());
                Self::from_bits(bits)
            }
        }
    }

    fn check_capacity(&self, other: &VertexSubset) {
        assert_eq!(
            self.inner.n, other.inner.n,
            "vertexSubset capacity mismatch"
        );
    }

    /// Iterates member ids ascending.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        match &self.inner.ids {
            Some(ids) => Iter::List(ids.iter().copied()),
            None => Iter::Bits(self.bits().iter()),
        }
    }

    /// Member ids as a sorted vector.
    pub fn to_vec(&self) -> Vec<VertexId> {
        match &self.inner.ids {
            Some(ids) => ids.clone(),
            None => self.bits().to_vec(),
        }
    }

    /// The members `worker` masters, ascending — the vertices it processes
    /// in a frontier-driven kernel. A listed subset is walked member by
    /// member (O(|U|)); only a bit-set subset tests every master.
    pub fn actives_for(&self, worker: usize, partition: &PartitionMap) -> Vec<VertexId> {
        match &self.inner.ids {
            Some(ids) => filtered(ids, |v| partition.is_master(worker, v)),
            None => {
                let bits = self.bits();
                filtered(partition.masters(worker), |v| bits.contains(v))
            }
        }
    }

    /// The members as a bit set, for kernels that test membership en masse
    /// (the dense/pull kernels). A listed subset materialises it on first
    /// use and keeps it.
    pub fn bits(&self) -> &BitSet {
        self.inner.bits.get_or_init(|| {
            let ids = self.inner.ids.as_deref().unwrap_or_default();
            bitset_of(self.inner.n, ids.iter().copied())
        })
    }

    /// Test probe: whether this subset is held as an id list.
    #[doc(hidden)]
    pub fn is_list(&self) -> bool {
        self.inner.ids.is_some()
    }

    /// Test probe: whether this subset's bit set exists in memory.
    #[doc(hidden)]
    pub fn bitset_materialised(&self) -> bool {
        self.inner.bits.get().is_some()
    }
}

enum Iter<'a> {
    List(std::iter::Copied<std::slice::Iter<'a, VertexId>>),
    Bits(flash_graph::bitset::Iter<'a>),
}

impl Iterator for Iter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            Iter::List(it) => it.next(),
            Iter::Bits(it) => it.next(),
        }
    }
}

/// The bit set over `0..n` holding `ids` (panics on an id `>= n`).
fn bitset_of(n: usize, ids: impl IntoIterator<Item = VertexId>) -> BitSet {
    let mut bits = BitSet::new(n);
    for v in ids {
        bits.insert(v);
    }
    bits
}

fn filtered(ids: &[VertexId], keep: impl Fn(VertexId) -> bool) -> Vec<VertexId> {
    ids.iter().copied().filter(|&v| keep(v)).collect()
}

/// Union of two ascending duplicate-free lists, ascending duplicate-free.
fn merge_union(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::{HashPartitioner, Prng};
    use std::collections::BTreeSet;

    #[test]
    fn construction_and_size() {
        let u = VertexSubset::from_ids(10, [1, 3, 5]);
        assert_eq!(u.len(), 3);
        assert!(!u.is_empty());
        assert!(u.contains(3));
        assert!(!u.contains(2));
        assert_eq!(u.capacity(), 10);
        assert!(VertexSubset::empty(4).is_empty());
        assert_eq!(VertexSubset::full(4).len(), 4);
    }

    #[test]
    fn algebra_matches_set_semantics() {
        let a = VertexSubset::from_ids(8, [0, 1, 2, 3]);
        let b = VertexSubset::from_ids(8, [2, 3, 4, 5]);
        assert_eq!(a.union(&b).to_vec(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(a.intersect(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.minus(&b).to_vec(), vec![0, 1]);
        assert_eq!(a.add(7).to_vec(), vec![0, 1, 2, 3, 7]);
        // Originals untouched (immutability).
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn clone_is_shallow_and_consistent() {
        let a = VertexSubset::from_ids(6, [1, 2]);
        let b = a.clone();
        assert_eq!(a.to_vec(), b.to_vec());
        let c = a.add(5); // must not affect b
        assert!(!b.contains(5));
        assert!(c.contains(5));
    }

    #[test]
    fn representation_follows_the_switch_constant() {
        let n = 64 * LIST_DIVISOR;
        let at = VertexSubset::from_ids(n, 0..64);
        assert!(at.is_list() && !at.bitset_materialised());
        let over = VertexSubset::from_ids(n, 0..65);
        assert!(!over.is_list() && over.bitset_materialised());
        // Crossing the constant through ADD switches representation.
        assert!(!at.add(1000).is_list());
        assert!(over.minus(&VertexSubset::from_ids(n, [0])).is_list());
        assert!(VertexSubset::empty(n).is_list());
        assert!(!VertexSubset::full(n).is_list());
        // Only `bits()` materialises a listed subset's bit set.
        assert!(at.contains(3) && !at.contains(64));
        assert!(!at.bitset_materialised());
        assert_eq!(at.bits().len(), 64);
        assert!(at.bitset_materialised() && at.is_list());
    }

    #[test]
    #[should_panic(expected = ">= capacity")]
    fn from_ids_rejects_out_of_range_ids() {
        VertexSubset::from_ids(4096, [4096]);
    }

    /// `(subset forced to a list, same members as a forced bit set)`.
    fn both_forms(n: usize, members: &BTreeSet<VertexId>) -> [VertexSubset; 2] {
        let ids: Vec<VertexId> = members.iter().copied().collect();
        let forced = |ids: Option<Vec<VertexId>>, bits: OnceLock<BitSet>| VertexSubset {
            inner: Arc::new(Inner {
                n,
                len: members.len(),
                ids,
                bits,
            }),
        };
        [
            forced(Some(ids.clone()), OnceLock::new()),
            forced(None, OnceLock::from(bitset_of(n, ids))),
        ]
    }

    /// List- and bit-set-backed subsets are observationally equal, and
    /// every operation agrees with the `BTreeSet` model, over random sets
    /// including empty, full and sizes either side of the switch constant.
    #[test]
    fn list_and_bitset_forms_agree_with_the_set_model() {
        let n = 40 * LIST_DIVISOR;
        let switch = n / LIST_DIVISOR;
        let sizes = [0, 1, switch - 1, switch, switch + 1, 3 * switch, n - 1, n];
        let mut rng = Prng::seed_from_u64(0xF1A5);
        // A uniform `size`-subset: the head of a partial Fisher-Yates shuffle.
        let mut draw = |size: usize| -> BTreeSet<VertexId> {
            let mut all: Vec<VertexId> = (0..n as VertexId).collect();
            for i in 0..size {
                all.swap(i, rng.gen_range(i..n));
            }
            all.into_iter().take(size).collect()
        };
        let partition =
            PartitionMap::build(&flash_graph::generators::path(n, true), 3, &HashPartitioner)
                .unwrap();
        for &sa in &sizes {
            for &sb in &sizes {
                let (a, b) = (draw(sa), draw(sb));
                let extra = (sa * 7 + sb) as VertexId % n as VertexId;
                for fa in both_forms(n, &a) {
                    let members: Vec<VertexId> = a.iter().copied().collect();
                    assert_eq!(fa.len(), a.len());
                    assert_eq!(fa.is_empty(), a.is_empty());
                    assert_eq!(fa.to_vec(), members);
                    assert_eq!(fa.iter().collect::<Vec<_>>(), members);
                    for v in 0..n as VertexId {
                        assert_eq!(fa.contains(v), a.contains(&v), "contains({v})");
                    }
                    let mut with_extra = a.clone();
                    if with_extra.insert(extra) {
                        check(&fa.add(extra), &with_extra, "add");
                    } else {
                        // Adding a member hands back the forced form itself.
                        assert_eq!(fa.add(extra).to_vec(), members);
                    }
                    for w in 0..3 {
                        let expect = filtered(&members, |v| partition.is_master(w, v));
                        assert_eq!(fa.actives_for(w, &partition), expect);
                    }
                    for fb in both_forms(n, &b) {
                        check(&fa.union(&fb), &(&a | &b), "union");
                        check(&fa.intersect(&fb), &(&a & &b), "intersect");
                        check(&fa.minus(&fb), &(&a - &b), "minus");
                    }
                }
                // The public constructors agree with the model too.
                check(
                    &VertexSubset::from_ids(n, a.iter().copied()),
                    &a,
                    "from_ids",
                );
                let halves = [
                    a.iter().copied().filter(|v| v % 2 == 1).collect(),
                    a.iter().copied().filter(|v| v % 2 == 0).collect(),
                ];
                check(&VertexSubset::from_lists(n, &halves), &a, "from_lists");
            }
        }
    }

    /// `got` holds exactly `expect`, in the representation its size picks.
    fn check(got: &VertexSubset, expect: &BTreeSet<VertexId>, what: &str) {
        let members: Vec<VertexId> = expect.iter().copied().collect();
        assert_eq!(got.to_vec(), members, "{what}");
        assert_eq!(got.len(), members.len(), "{what}");
        assert_eq!(
            got.is_list(),
            is_small(members.len(), got.capacity()),
            "{what}"
        );
        assert!(got.is_list() || got.bitset_materialised(), "{what}");
    }
}
