//! Compressed Sparse Row adjacency storage.
//!
//! The three CSR arrays (`offsets`, `targets`, `weights`) are stored as
//! [`Segment`]s: either plain owned vectors (the in-memory default) or
//! read-only views into a shared byte buffer backing an on-disk block
//! file (see [`crate::blocks`]). Every accessor works identically on
//! both representations, so the vertex-centric layer never needs to know
//! where the adjacency lives.

use crate::{VertexId, Weight};
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for usize {}
    impl Sealed for f32 {}
}

/// Marker for plain-old-data element types a [`Segment`] may view: fixed
/// layout, no padding, any bit pattern valid. Sealed — only the numeric
/// types the CSR arrays actually use implement it.
pub trait Pod: Copy + sealed::Sealed {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for usize {}
impl Pod for f32 {}

/// A shared read-only byte buffer backing mapped [`Segment`]s: either an
/// `mmap`ed file region or a heap copy (the fallback where mapping is
/// unavailable or the kernel refuses it). The heap variant is
/// allocated as `u64` words so every 8-aligned section offset stays
/// 8-aligned in memory.
pub struct MapBuf {
    inner: MapBufInner,
}

enum MapBufInner {
    /// Heap fallback: `words` owns the storage, `len` is the byte length.
    Heap { words: Vec<u64>, len: usize },
    /// A live `mmap(2)` region, unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mmap { ptr: *mut u8, len: usize },
}

// SAFETY: the buffer is read-only after construction; both variants point
// at memory that is never mutated or freed while the `MapBuf` is alive.
unsafe impl Send for MapBuf {}
unsafe impl Sync for MapBuf {}

impl MapBuf {
    /// Wraps a heap copy of `bytes.len()` bytes, 8-aligned.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Self {
        let words = vec![0u64; bytes.len().div_ceil(8)];
        let mut buf = MapBuf {
            inner: MapBufInner::Heap {
                words,
                len: bytes.len(),
            },
        };
        if let MapBufInner::Heap { words, len } = &mut buf.inner {
            // SAFETY: the word vector spans at least `len` bytes and u64
            // tolerates any byte pattern.
            let dst =
                unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, *len) };
            dst.copy_from_slice(bytes);
        }
        buf
    }

    /// Adopts an `mmap`ed region; unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub(crate) fn from_mmap(ptr: *mut u8, len: usize) -> Self {
        MapBuf {
            inner: MapBufInner::Mmap { ptr, len },
        }
    }

    /// Base pointer of the buffer.
    #[inline]
    pub(crate) fn as_ptr(&self) -> *const u8 {
        match &self.inner {
            MapBufInner::Heap { words, .. } => words.as_ptr() as *const u8,
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapBufInner::Mmap { ptr, .. } => *ptr,
        }
    }

    /// Byte length of the buffer.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match &self.inner {
            MapBufInner::Heap { len, .. } => *len,
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapBufInner::Mmap { len, .. } => *len,
        }
    }

    /// The whole buffer as a byte slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        // SAFETY: pointer and length describe a live allocation that is
        // never mutated while the `MapBuf` is alive.
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.len()) }
    }

    /// `true` when the buffer is a live file mapping (not a heap copy).
    pub(crate) fn is_mmap(&self) -> bool {
        match &self.inner {
            MapBufInner::Heap { .. } => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            MapBufInner::Mmap { .. } => true,
        }
    }
}

impl Drop for MapBuf {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let MapBufInner::Mmap { ptr, len } = self.inner {
            // SAFETY: the pointer/length pair came from a successful mmap
            // and is unmapped exactly once, here.
            unsafe {
                crate::blocks::munmap_region(ptr, len);
            }
        }
    }
}

impl std::fmt::Debug for MapBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapBuf")
            .field("len", &self.len())
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

/// One CSR array: owned on the heap, or a typed view into a [`MapBuf`].
///
/// Derefs to `&[T]`, so all slice operations work on either variant.
pub enum Segment<T: Pod> {
    /// An owned vector (the in-memory representation).
    Owned(Vec<T>),
    /// A read-only view of `len` elements at `offset` bytes into `buf`.
    Mapped {
        /// Shared backing buffer.
        buf: Arc<MapBuf>,
        /// Byte offset of the first element (must be aligned for `T`).
        offset: usize,
        /// Element count.
        len: usize,
    },
}

impl<T: Pod> Segment<T> {
    /// Creates a mapped view, validating bounds and alignment.
    pub(crate) fn mapped(buf: Arc<MapBuf>, offset: usize, len: usize) -> Self {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("segment byte length overflows");
        assert!(
            offset
                .checked_add(bytes)
                .is_some_and(|end| end <= buf.len()),
            "segment [{offset}, {offset}+{bytes}) out of buffer bounds ({})",
            buf.len()
        );
        assert_eq!(
            (buf.as_ptr() as usize + offset) % std::mem::align_of::<T>(),
            0,
            "segment offset {offset} misaligned for element type"
        );
        Segment::Mapped { buf, offset, len }
    }

    /// Bytes of this segment that live in a mapped buffer (0 when owned).
    pub(crate) fn mapped_bytes(&self) -> usize {
        match self {
            Segment::Owned(_) => 0,
            Segment::Mapped { len, .. } => len * std::mem::size_of::<T>(),
        }
    }

    /// Bytes of this segment that live on the owned heap (0 when mapped).
    pub(crate) fn owned_bytes(&self) -> usize {
        match self {
            Segment::Owned(v) => v.len() * std::mem::size_of::<T>(),
            Segment::Mapped { .. } => 0,
        }
    }
}

impl<T: Pod> std::ops::Deref for Segment<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Segment::Owned(v) => v,
            Segment::Mapped { buf, offset, len } => {
                // SAFETY: bounds and alignment were validated in
                // `Segment::mapped`, the buffer outlives the view (Arc),
                // and `T: Pod` accepts any byte pattern.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().add(*offset) as *const T, *len) }
            }
        }
    }
}

impl<T: Pod> Clone for Segment<T> {
    fn clone(&self) -> Self {
        match self {
            Segment::Owned(v) => Segment::Owned(v.clone()),
            Segment::Mapped { buf, offset, len } => Segment::Mapped {
                buf: Arc::clone(buf),
                offset: *offset,
                len: *len,
            },
        }
    }
}

impl<T: Pod> Default for Segment<T> {
    fn default() -> Self {
        Segment::Owned(Vec::new())
    }
}

impl<T: Pod> std::fmt::Debug for Segment<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Segment::Owned(_) => "owned",
            Segment::Mapped { .. } => "mapped",
        };
        write!(f, "Segment({kind}, len={})", self.len())
    }
}

/// One adjacency direction of a graph in CSR form.
///
/// `offsets` has `n + 1` entries; the neighbors of vertex `v` are
/// `targets[offsets[v] .. offsets[v+1]]`, with parallel `weights` when the
/// graph is weighted. Neighbor lists are sorted by target id, which makes
/// intersection-based algorithms (triangle/rectangle/clique counting) cheap.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Segment<usize>,
    targets: Segment<VertexId>,
    weights: Option<Segment<Weight>>,
}

impl Csr {
    /// Builds a CSR from an edge list. `edges` may be in any order;
    /// `weights`, when present, must parallel `edges`.
    ///
    /// The construction is the classic two-pass counting sort (O(n + m)).
    pub fn from_edges(
        n: usize,
        edges: &[(VertexId, VertexId)],
        weights: Option<&[Weight]>,
    ) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut w_out = weights.map(|_| vec![0.0 as Weight; edges.len()]);
        let mut cursor = offsets.clone();
        for (i, &(s, d)) in edges.iter().enumerate() {
            let pos = cursor[s as usize];
            cursor[s as usize] += 1;
            targets[pos] = d;
            if let (Some(w_out), Some(w_in)) = (w_out.as_mut(), weights) {
                w_out[pos] = w_in[i];
            }
        }
        sort_neighbor_lists(&offsets, &mut targets, w_out.as_deref_mut());
        Csr {
            offsets: Segment::Owned(offsets),
            targets: Segment::Owned(targets),
            weights: w_out.map(Segment::Owned),
        }
    }

    /// Assembles a CSR directly from (possibly mapped) segments. The
    /// caller promises the usual CSR invariants; they are spot-checked in
    /// debug builds.
    pub(crate) fn from_raw_segments(
        offsets: Segment<usize>,
        targets: Segment<VertexId>,
        weights: Option<Segment<Weight>>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            offsets[offsets.len() - 1],
            targets.len(),
            "offsets must end at the arc count"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), targets.len(), "weights must parallel targets");
        }
        debug_assert!(
            offsets.windows(2).all(|p| p[0] <= p[1]),
            "offsets must be monotone"
        );
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbor ids of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Weights parallel to [`Csr::neighbors`], if the graph is weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[v as usize]..self.offsets[v as usize + 1]])
    }

    /// The full `n + 1` offset array.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The full arc-target array (all neighbor lists, concatenated).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The full weight array parallel to [`Csr::targets`], when weighted.
    #[inline]
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// `true` when edge weights are stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Iterates `(target, weight)` pairs for `v` (weight = 1.0 if unweighted).
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        (lo..hi).map(move |i| (self.targets[i], self.weights.as_ref().map_or(1.0, |w| w[i])))
    }

    /// Binary-searches the (sorted) neighbor list of `v` for `target`.
    pub fn has_edge(&self, v: VertexId, target: VertexId) -> bool {
        self.neighbors(v).binary_search(&target).is_ok()
    }

    /// Approximate heap footprint in bytes (owned arrays only — mapped
    /// segments are backed by the shared block buffer, see
    /// [`Csr::mapped_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.owned_bytes()
            + self.targets.owned_bytes()
            + self.weights.as_ref().map_or(0, Segment::owned_bytes)
    }

    /// Bytes of this CSR served from a mapped block buffer (0 when the
    /// graph is fully in-memory).
    pub fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes()
            + self.targets.mapped_bytes()
            + self.weights.as_ref().map_or(0, Segment::mapped_bytes)
    }
}

/// Sorts every neighbor list by target id (stable w.r.t. weights).
fn sort_neighbor_lists(
    offsets: &[usize],
    targets: &mut [VertexId],
    mut weights: Option<&mut [Weight]>,
) {
    let n = offsets.len() - 1;
    for v in 0..n {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        if hi - lo <= 1 {
            continue;
        }
        match weights.as_mut() {
            None => targets[lo..hi].sort_unstable(),
            Some(w) => {
                let mut pairs: Vec<(VertexId, Weight)> = targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(w[lo..hi].iter().copied())
                    .collect();
                pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                for (i, (t, wt)) in pairs.into_iter().enumerate() {
                    targets[lo + i] = t;
                    w[lo + i] = wt;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
        Csr::from_edges(4, &[(1, 2), (0, 2), (0, 1), (3, 0)], None)
    }

    #[test]
    fn builds_and_sorts() {
        let c = sample();
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(1), &[2]);
        assert_eq!(c.neighbors(2), &[] as &[u32]);
        assert_eq!(c.neighbors(3), &[0]);
        assert_eq!(c.degree(0), 2);
    }

    #[test]
    fn weighted_edges_stay_aligned() {
        let edges = [(0u32, 2u32), (0, 1), (1, 0)];
        let weights = [2.5f32, 1.5, 9.0];
        let c = Csr::from_edges(3, &edges, Some(&weights));
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbor_weights(0).unwrap(), &[1.5, 2.5]);
        assert_eq!(c.neighbor_weights(1).unwrap(), &[9.0]);
        let collected: Vec<_> = c.edges(0).collect();
        assert_eq!(collected, vec![(1, 1.5), (2, 2.5)]);
    }

    #[test]
    fn unweighted_edges_default_weight_one() {
        let c = sample();
        assert!(!c.is_weighted());
        assert_eq!(c.edges(3).next(), Some((0, 1.0)));
        assert!(c.neighbor_weights(0).is_none());
    }

    #[test]
    fn has_edge_binary_search() {
        let c = sample();
        assert!(c.has_edge(0, 1));
        assert!(c.has_edge(0, 2));
        assert!(!c.has_edge(0, 3));
        assert!(!c.has_edge(2, 0));
    }

    #[test]
    fn empty_graph() {
        let c = Csr::from_edges(0, &[], None);
        assert_eq!(c.num_vertices(), 0);
        assert_eq!(c.num_edges(), 0);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let c = Csr::from_edges(2, &[(0, 1), (0, 1)], None);
        assert_eq!(c.neighbors(0), &[1, 1]);
    }

    #[test]
    fn heap_bytes_is_positive() {
        assert!(sample().heap_bytes() > 0);
        assert_eq!(sample().mapped_bytes(), 0);
    }

    #[test]
    fn mapped_segment_views_the_buffer() {
        let words: Vec<u32> = vec![7, 8, 9, 10];
        // SAFETY (test): u32 words viewed as bytes.
        let bytes = unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, 16) };
        let buf = Arc::new(MapBuf::from_bytes(bytes));
        let seg: Segment<u32> = Segment::mapped(buf, 4, 2);
        assert_eq!(&seg[..], &[8, 9]);
        assert_eq!(seg.mapped_bytes(), 8);
        assert_eq!(seg.owned_bytes(), 0);
        let clone = seg.clone();
        assert_eq!(&clone[..], &[8, 9]);
        assert_eq!(format!("{seg:?}"), "Segment(mapped, len=2)");
    }

    #[test]
    fn raw_segments_round_trip() {
        let base = sample();
        let c = Csr::from_raw_segments(
            Segment::Owned(base.offsets().to_vec()),
            Segment::Owned(base.targets().to_vec()),
            None,
        );
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.num_edges(), 4);
    }
}
