//! Out-of-core block storage: the on-disk `.fgb` graph format and the
//! source×destination block grid the streaming EDGEMAP path charges
//! against.
//!
//! # File format (`FGB1`)
//!
//! A `.fgb` file is a 128-byte header followed by 8-aligned sections,
//! all host-endian (an endianness marker in the header rejects foreign
//! files, which keeps the mmap reinterpretation sound):
//!
//! ```text
//! header   magic "FGB1" · version u32 · endian u32 (0x01020304) ·
//!          flags u32 (bit0 weighted, bit1 symmetric) · n u64 · m u64 ·
//!          block_bits u32 · nb u32 · 7×u64 per-section FNV-1a
//!          checksums · zero pad to 128 B
//! sections out_offsets (n+1)×u64 · out_targets m×u32 (pad 8) ·
//!          [out_weights m×f32 (pad 8)] · in_offsets · in_targets ·
//!          [in_weights] · grid nb²×u64
//! ```
//!
//! The checksum block holds one FNV-1a hash per section, in file order
//! (absent weight sections hash as empty); every one is verified at open.
//! Version 1 had no checksum block and a 64-byte header: nothing writes it
//! any more and a file stamped version 1 is refused, so no `.fgb` is ever
//! opened unverified.
//!
//! The `grid` section stores per-block arc counts in row-major
//! `[source_block × nb + dest_block]` order, over out-edges.
//!
//! # Dense/sparse classification
//!
//! Following M-Flash's bimodal model, a block is *dense* when its edge
//! data outweighs the vertex state spanning it:
//! `edges × bytes_per_edge ≥ (row_span + col_span) × 8`. Dense blocks
//! are worth caching (they are re-streamed across supersteps); sparse
//! blocks are streamed through without caching.

use crate::csr::{Csr, MapBuf, Segment};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::hash::{fnv1a, Fnv1a};
use crate::{VertexId, Weight};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"FGB1";
const VERSION: u32 = 2;
const ENDIAN_MARK: u32 = 0x0102_0304;
const HEADER_LEN: usize = 128;
const FLAG_WEIGHTED: u32 = 1;
const FLAG_SYMMETRIC: u32 = 2;
/// Sections covered by the header checksums, in file order.
const NUM_SECTIONS: usize = 7;
/// Header offset of the first per-section checksum slot.
const CHECKSUM_OFF: usize = 40;

/// Dense blocks cached per worker before FIFO eviction kicks in.
const CACHE_BLOCKS: usize = 256;

/// A touched block: `(direction, source_block, dest_block)`, where
/// direction 0 reads the out-CSR and 1 the in-CSR.
pub type BlockTouch = (u8, u32, u32);

// ---------------------------------------------------------------------------
// mmap plumbing
// ---------------------------------------------------------------------------

#[cfg(all(unix, target_pointer_width = "64"))]
mod mm {
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// Maps `len` bytes of `file` read-only; `None` when the kernel
    /// refuses (the caller falls back to a heap read).
    pub(super) fn map_file(file: &std::fs::File, len: usize) -> Option<(*mut u8, usize)> {
        const PROT_READ: i32 = 1;
        const MAP_PRIVATE: i32 = 2;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh private read-only mapping of a file we hold
        // open; the result is checked against MAP_FAILED below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            None
        } else {
            Some((ptr, len))
        }
    }

    /// Unmaps a region produced by [`map_file`].
    ///
    /// # Safety
    /// `ptr`/`len` must come from a successful [`map_file`] call and must
    /// not be unmapped twice.
    pub(super) unsafe fn unmap(ptr: *mut u8, len: usize) {
        let _ = munmap(ptr, len);
    }
}

/// Releases an `mmap` region owned by a [`MapBuf`] (called on drop).
///
/// # Safety
/// `ptr`/`len` must describe a live mapping created by this module and
/// must not be released twice.
#[cfg(all(unix, target_pointer_width = "64"))]
pub(crate) unsafe fn munmap_region(ptr: *mut u8, len: usize) {
    mm::unmap(ptr, len);
}

// ---------------------------------------------------------------------------
// Section layout
// ---------------------------------------------------------------------------

fn pad8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

struct Layout {
    out_offsets: usize,
    out_targets: usize,
    out_weights: usize,
    in_offsets: usize,
    in_targets: usize,
    in_weights: usize,
    grid: usize,
    total: usize,
}

fn layout(n: usize, m: usize, nb: usize, weighted: bool) -> Option<Layout> {
    let offsets_sz = n.checked_add(1)?.checked_mul(8)?;
    let targets_sz = pad8(m.checked_mul(4)?);
    let weights_sz = if weighted { targets_sz } else { 0 };
    let grid_sz = nb.checked_mul(nb)?.checked_mul(8)?;
    let out_offsets = HEADER_LEN;
    let out_targets = out_offsets.checked_add(offsets_sz)?;
    let out_weights = out_targets.checked_add(targets_sz)?;
    let in_offsets = out_weights.checked_add(weights_sz)?;
    let in_targets = in_offsets.checked_add(offsets_sz)?;
    let in_weights = in_targets.checked_add(targets_sz)?;
    let grid = in_weights.checked_add(weights_sz)?;
    let total = grid.checked_add(grid_sz)?;
    Some(Layout {
        out_offsets,
        out_targets,
        out_weights,
        in_offsets,
        in_targets,
        in_weights,
        grid,
        total,
    })
}

// ---------------------------------------------------------------------------
// Block grid
// ---------------------------------------------------------------------------

/// The source×destination block partitioning of a graph: per-block arc
/// counts plus the M-Flash dense/sparse classification.
#[derive(Clone, Debug)]
pub struct BlockGrid {
    n: usize,
    block_bits: u32,
    nb: usize,
    edge_counts: Vec<u64>,
    dense: Vec<bool>,
    bytes_per_edge: u64,
}

/// Most blocks a grid has along one axis. The streamed kernels keep the
/// blocks one row block touches as one bit each of a `u64`.
pub const MAX_GRID_DIM: usize = 64;

/// Picks the block width for `n` vertices: start at 4096 vertices per
/// block and widen until at most [`MAX_GRID_DIM`] blocks span the id
/// range.
fn block_bits_for(n: usize) -> u32 {
    let mut bits = 12u32;
    while bits < usize::BITS - 1 && n.div_ceil(1usize << bits) > MAX_GRID_DIM {
        bits += 1;
    }
    bits
}

impl BlockGrid {
    /// Scans a graph's out-edges into a fresh grid.
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        let block_bits = block_bits_for(n);
        let nb = n.div_ceil(1usize << block_bits).max(1);
        let mut edge_counts = vec![0u64; nb * nb];
        for v in 0..n {
            let sb = v >> block_bits;
            for &d in g.out_neighbors(v as VertexId) {
                edge_counts[sb * nb + ((d as usize) >> block_bits)] += 1;
            }
        }
        Self::from_counts(n, block_bits, nb, edge_counts, g.is_weighted())
    }

    /// Assembles a grid from stored counts (the reader path).
    fn from_counts(
        n: usize,
        block_bits: u32,
        nb: usize,
        edge_counts: Vec<u64>,
        weighted: bool,
    ) -> Self {
        let bytes_per_edge = if weighted { 8 } else { 4 };
        let mut grid = BlockGrid {
            n,
            block_bits,
            nb,
            edge_counts,
            dense: Vec::new(),
            bytes_per_edge,
        };
        grid.dense = (0..nb * nb)
            .map(|i| {
                let (sb, db) = (i / nb, i % nb);
                let row_span = (grid.block_end(sb) - grid.block_start(sb)) as u64;
                let col_span = (grid.block_end(db) - grid.block_start(db)) as u64;
                grid.edge_counts[i] * bytes_per_edge >= (row_span + col_span) * 8
            })
            .collect();
        grid
    }

    /// Number of blocks along each axis.
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// log2 of the block width in vertices.
    #[inline]
    pub fn block_bits(&self) -> u32 {
        self.block_bits
    }

    /// The block a vertex id falls into.
    #[inline]
    pub fn block_of(&self, v: VertexId) -> usize {
        (v as usize) >> self.block_bits
    }

    /// First vertex id of block `b`.
    #[inline]
    pub fn block_start(&self, b: usize) -> usize {
        b << self.block_bits
    }

    /// One past the last vertex id of block `b` (clamped to `n`).
    #[inline]
    pub fn block_end(&self, b: usize) -> usize {
        ((b + 1) << self.block_bits).min(self.n)
    }

    /// Arc count of block `(sb, db)`.
    #[inline]
    pub fn edge_count(&self, sb: usize, db: usize) -> u64 {
        self.edge_counts[sb * self.nb + db]
    }

    /// `true` when block `(sb, db)` is classified dense (cache-worthy).
    #[inline]
    pub fn is_dense(&self, sb: usize, db: usize) -> bool {
        self.dense[sb * self.nb + db]
    }

    /// Approximate on-disk bytes of block `(sb, db)`.
    #[inline]
    pub fn block_bytes(&self, sb: usize, db: usize) -> u64 {
        self.edge_count(sb, db) * self.bytes_per_edge
    }

    /// Count of non-empty dense blocks.
    pub fn num_dense(&self) -> usize {
        (0..self.nb * self.nb)
            .filter(|&i| self.edge_counts[i] > 0 && self.dense[i])
            .count()
    }

    /// Count of non-empty sparse blocks.
    pub fn num_sparse(&self) -> usize {
        (0..self.nb * self.nb)
            .filter(|&i| self.edge_counts[i] > 0 && !self.dense[i])
            .count()
    }
}

// ---------------------------------------------------------------------------
// Streaming handle: counters + per-worker FIFO block cache
// ---------------------------------------------------------------------------

/// A point-in-time read of the streaming counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// Total block bytes streamed from storage (cache misses only).
    pub bytes_streamed: u64,
    /// Blocks streamed from storage (cache misses).
    pub blocks_streamed: u64,
    /// Block touches served from a worker's cache.
    pub cache_hits: u64,
}

#[derive(Default)]
struct BlockCache {
    order: VecDeque<BlockTouch>,
    present: HashSet<BlockTouch>,
}

impl BlockCache {
    fn contains(&self, key: &BlockTouch) -> bool {
        self.present.contains(key)
    }

    fn insert(&mut self, key: BlockTouch) {
        if self.present.insert(key) {
            self.order.push_back(key);
            if self.order.len() > CACHE_BLOCKS {
                if let Some(evicted) = self.order.pop_front() {
                    self.present.remove(&evicted);
                }
            }
        }
    }
}

/// Per-run streaming accounting: byte/hit counters and per-worker FIFO
/// caches of dense blocks. Each cluster owns its *own* scope, so several
/// concurrent runs sharing one block-backed [`Graph`] never charge each
/// other's deltas or warm each other's caches. (The handle itself used to
/// carry these counters; because it is `Arc`-shared per graph, two
/// simultaneous clusters would double-count one another's streaming.)
#[derive(Default)]
pub struct StreamScope {
    bytes_streamed: AtomicU64,
    blocks_streamed: AtomicU64,
    cache_hits: AtomicU64,
    caches: Mutex<HashMap<usize, BlockCache>>,
}

impl StreamScope {
    /// A fresh scope with zeroed counters and cold caches.
    pub fn new() -> StreamScope {
        StreamScope::default()
    }

    /// Reads the monotone streaming counters.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            blocks_streamed: self.blocks_streamed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for StreamScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamScope")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// The immutable per-graph block descriptor a block-backed [`Graph`]
/// carries: just the block grid and weight flag. All mutable streaming
/// state (counters, caches) lives in a per-run [`StreamScope`]; kernels
/// record which blocks they touched and replay the list against a scope
/// once per superstep, which keeps the accounting deterministic even
/// when worker chunks execute on racing threads.
pub struct BlockHandle {
    grid: BlockGrid,
    weighted: bool,
}

impl BlockHandle {
    fn new(grid: BlockGrid, weighted: bool) -> Self {
        BlockHandle { grid, weighted }
    }

    /// The block grid.
    #[inline]
    pub fn grid(&self) -> &BlockGrid {
        &self.grid
    }

    /// `true` when the backing file stores edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Replays one worker's ordered block-touch list against the scope's
    /// cache for that worker: dense blocks hit or enter the FIFO cache,
    /// sparse blocks always stream. Charges the scope's counters once
    /// per call.
    pub fn replay(&self, scope: &StreamScope, worker: usize, touches: &[BlockTouch]) {
        if touches.is_empty() {
            return;
        }
        let mut bytes = 0u64;
        let mut blocks = 0u64;
        let mut hits = 0u64;
        {
            // A panicked kernel thread leaves only fully-applied cache
            // entries behind, so the poisoned state is safe to adopt.
            let mut caches = scope
                .caches
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let cache = caches.entry(worker).or_default();
            for &touch in touches {
                let (_, sb, db) = touch;
                let (sb, db) = (sb as usize, db as usize);
                if self.grid.is_dense(sb, db) {
                    if cache.contains(&touch) {
                        hits += 1;
                        continue;
                    }
                    cache.insert(touch);
                }
                blocks += 1;
                bytes += self.grid.block_bytes(sb, db);
            }
        }
        scope.bytes_streamed.fetch_add(bytes, Ordering::Relaxed);
        scope.blocks_streamed.fetch_add(blocks, Ordering::Relaxed);
        scope.cache_hits.fetch_add(hits, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for BlockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockHandle")
            .field("nb", &self.grid.nb)
            .field("dense", &self.grid.num_dense())
            .field("sparse", &self.grid.num_sparse())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_offsets<W: std::io::Write>(w: &mut W, offsets: &[usize]) -> std::io::Result<()> {
    for &o in offsets {
        w.write_all(&(o as u64).to_ne_bytes())?;
    }
    Ok(())
}

fn write_targets<W: std::io::Write>(w: &mut W, targets: &[VertexId]) -> std::io::Result<()> {
    for &t in targets {
        w.write_all(&t.to_ne_bytes())?;
    }
    if !(targets.len() * 4).is_multiple_of(8) {
        w.write_all(&[0u8; 4])?;
    }
    Ok(())
}

fn write_weights<W: std::io::Write>(w: &mut W, weights: &[Weight]) -> std::io::Result<()> {
    for &x in weights {
        w.write_all(&x.to_ne_bytes())?;
    }
    if !(weights.len() * 4).is_multiple_of(8) {
        w.write_all(&[0u8; 4])?;
    }
    Ok(())
}

/// Forwards writes into the inner writer while folding every byte into
/// an FNV-1a running hash, so [`write_blocks`] can stamp per-section
/// checksums without buffering whole sections.
struct HashingWriter<'a, W: std::io::Write> {
    inner: &'a mut W,
    hash: Fnv1a,
}

impl<'a, W: std::io::Write> HashingWriter<'a, W> {
    fn new(inner: &'a mut W) -> Self {
        HashingWriter {
            inner,
            hash: Fnv1a::new(),
        }
    }
}

impl<W: std::io::Write> std::io::Write for HashingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hash.update(buf);
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Writes `g` to `path` in the `.fgb` block format described in the
/// module docs. The grid section is computed here with one edge scan;
/// per-section checksums are accumulated while streaming and patched
/// into the header afterwards.
pub fn write_blocks(g: &Graph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    let n = g.num_vertices();
    let m = g.num_edges();
    let grid = BlockGrid::build(g);
    let weighted = g.is_weighted();
    let file = std::fs::File::create(path.as_ref())?;
    let mut w = std::io::BufWriter::new(file);

    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_ne_bytes());
    header[8..12].copy_from_slice(&ENDIAN_MARK.to_ne_bytes());
    let mut flags = 0u32;
    if weighted {
        flags |= FLAG_WEIGHTED;
    }
    if g.is_symmetric() {
        flags |= FLAG_SYMMETRIC;
    }
    header[12..16].copy_from_slice(&flags.to_ne_bytes());
    header[16..24].copy_from_slice(&(n as u64).to_ne_bytes());
    header[24..32].copy_from_slice(&(m as u64).to_ne_bytes());
    header[32..36].copy_from_slice(&grid.block_bits.to_ne_bytes());
    header[36..40].copy_from_slice(&(grid.nb as u32).to_ne_bytes());
    w.write_all(&header)?;

    let mut sums = [0u64; NUM_SECTIONS];
    let mut si = 0;
    for csr in [g.out_csr(), g.in_csr()] {
        let mut hw = HashingWriter::new(&mut w);
        write_offsets(&mut hw, csr.offsets())?;
        sums[si] = hw.hash.finish();
        let mut hw = HashingWriter::new(&mut w);
        write_targets(&mut hw, csr.targets())?;
        sums[si + 1] = hw.hash.finish();
        let mut hw = HashingWriter::new(&mut w);
        if let Some(weights) = csr.weights() {
            write_weights(&mut hw, weights)?;
        }
        sums[si + 2] = hw.hash.finish();
        si += 3;
    }
    let mut hw = HashingWriter::new(&mut w);
    for &c in &grid.edge_counts {
        hw.write_all(&c.to_ne_bytes())?;
    }
    sums[si] = hw.hash.finish();

    w.flush()?;
    let mut file = w
        .into_inner()
        .map_err(std::io::IntoInnerError::into_error)?;
    use std::io::Seek as _;
    file.seek(std::io::SeekFrom::Start(CHECKSUM_OFF as u64))?;
    for s in sums {
        file.write_all(&s.to_ne_bytes())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> GraphError {
    GraphError::BlockFormat(msg.into())
}

fn u32_at(bytes: &[u8], at: usize) -> Result<u32, GraphError> {
    let raw = bytes
        .get(at..at + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or_else(|| bad(format!("header field at {at} is past the end of the file")))?;
    Ok(u32::from_ne_bytes(raw))
}

fn u64_at(bytes: &[u8], at: usize) -> Result<u64, GraphError> {
    let raw = bytes
        .get(at..at + 8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .ok_or_else(|| bad(format!("header field at {at} is past the end of the file")))?;
    Ok(u64::from_ne_bytes(raw))
}

/// Builds the `n + 1` offsets segment at `at`: a zero-copy view on
/// 64-bit hosts, an owned widening copy elsewhere.
fn offsets_segment(buf: &Arc<MapBuf>, at: usize, count: usize) -> Segment<usize> {
    #[cfg(target_pointer_width = "64")]
    {
        Segment::mapped(Arc::clone(buf), at, count)
    }
    #[cfg(not(target_pointer_width = "64"))]
    {
        let raw: Segment<u64> = Segment::mapped(Arc::clone(buf), at, count);
        Segment::Owned(raw.iter().map(|&x| x as usize).collect())
    }
}

fn load_buffer(path: &Path, file_len: usize, force_heap: bool) -> Result<Arc<MapBuf>, GraphError> {
    #[cfg(all(unix, target_pointer_width = "64"))]
    if !force_heap {
        let file = std::fs::File::open(path)?;
        if let Some((ptr, len)) = mm::map_file(&file, file_len) {
            return Ok(Arc::new(MapBuf::from_mmap(ptr, len)));
        }
    }
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    let _ = force_heap;
    let bytes = std::fs::read(path)?;
    if bytes.len() != file_len {
        return Err(bad("file changed size while loading"));
    }
    Ok(Arc::new(MapBuf::from_bytes(&bytes)))
}

/// Opens a `.fgb` file written by [`write_blocks`] as a block-backed
/// [`Graph`]: adjacency served zero-copy from the mapped file (or a heap
/// buffer where mapping is unavailable or refused), with the block grid
/// and streaming counters attached as a [`BlockHandle`].
pub fn open_blocks(path: impl AsRef<Path>) -> Result<Graph, GraphError> {
    open_blocks_impl(path.as_ref(), false)
}

fn open_blocks_impl(path: &Path, force_heap: bool) -> Result<Graph, GraphError> {
    let meta = std::fs::metadata(path)?;
    let file_len = usize::try_from(meta.len()).map_err(|_| bad("file too large for this host"))?;
    if file_len < HEADER_LEN {
        return Err(bad(format!("{file_len} bytes is shorter than the header")));
    }
    let buf = load_buffer(path, file_len, force_heap)?;
    let bytes = buf.as_slice();

    if &bytes[0..4] != MAGIC {
        return Err(bad("bad magic (not an FGB1 file)"));
    }
    let version = u32_at(bytes, 4)?;
    if version != VERSION {
        return Err(bad(format!("unsupported version {version}")));
    }
    if u32_at(bytes, 8)? != ENDIAN_MARK {
        return Err(bad("endianness mismatch (written on a different host)"));
    }
    let flags = u32_at(bytes, 12)?;
    if flags & !(FLAG_WEIGHTED | FLAG_SYMMETRIC) != 0 {
        return Err(bad(format!("unknown flags {flags:#x}")));
    }
    let weighted = flags & FLAG_WEIGHTED != 0;
    let symmetric = flags & FLAG_SYMMETRIC != 0;
    let n = usize::try_from(u64_at(bytes, 16)?).map_err(|_| bad("n overflows this host"))?;
    let m = usize::try_from(u64_at(bytes, 24)?).map_err(|_| bad("m overflows this host"))?;
    if n >= u32::MAX as usize {
        return Err(bad(format!("{n} vertices exceeds the u32 id space")));
    }
    let block_bits = u32_at(bytes, 32)?;
    let nb = u32_at(bytes, 36)? as usize;
    if block_bits >= usize::BITS || nb == 0 || nb != n.div_ceil(1usize << block_bits).max(1) {
        return Err(bad(format!(
            "inconsistent grid geometry (block_bits {block_bits}, nb {nb}, n {n})"
        )));
    }
    let lay = layout(n, m, nb, weighted).ok_or_else(|| bad("section layout overflows"))?;
    if lay.total != file_len {
        return Err(bad(format!(
            "expected {} bytes for n={n} m={m}, file has {file_len}",
            lay.total
        )));
    }

    let sections = [
        ("out_offsets", lay.out_offsets, lay.out_targets),
        ("out_targets", lay.out_targets, lay.out_weights),
        ("out_weights", lay.out_weights, lay.in_offsets),
        ("in_offsets", lay.in_offsets, lay.in_targets),
        ("in_targets", lay.in_targets, lay.in_weights),
        ("in_weights", lay.in_weights, lay.grid),
        ("grid", lay.grid, lay.total),
    ];
    for (i, (name, start, end)) in sections.into_iter().enumerate() {
        let want = u64_at(bytes, CHECKSUM_OFF + i * 8)?;
        let got = fnv1a(&bytes[start..end]);
        if want != got {
            return Err(bad(format!(
                "{name} section checksum mismatch (stored {want:#018x}, computed {got:#018x})"
            )));
        }
    }

    let grid_raw: Segment<u64> = Segment::mapped(Arc::clone(&buf), lay.grid, nb * nb);
    let edge_counts: Vec<u64> = grid_raw.to_vec();
    if edge_counts.iter().sum::<u64>() != m as u64 {
        return Err(bad("grid arc counts do not sum to m"));
    }

    let mut csrs = Vec::with_capacity(2);
    for (off_at, tgt_at, wt_at) in [
        (lay.out_offsets, lay.out_targets, lay.out_weights),
        (lay.in_offsets, lay.in_targets, lay.in_weights),
    ] {
        let offsets = offsets_segment(&buf, off_at, n + 1);
        if offsets[0] != 0 || offsets[n] != m {
            return Err(bad("offsets section endpoints are inconsistent"));
        }
        let targets: Segment<VertexId> = Segment::mapped(Arc::clone(&buf), tgt_at, m);
        let weights = weighted.then(|| Segment::mapped(Arc::clone(&buf), wt_at, m));
        csrs.push(Csr::from_raw_segments(offsets, targets, weights));
    }
    let inn = csrs.pop().expect("two CSRs");
    let out = csrs.pop().expect("two CSRs");
    let mut g = Graph::from_parts(n, out, inn, symmetric);
    let grid = BlockGrid::from_counts(n, block_bits, nb, edge_counts, weighted);
    g.attach_blocks(Arc::new(BlockHandle::new(grid, weighted)));
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;
    use crate::testutil::TempDirGuard;

    fn assert_bit_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.is_weighted(), b.is_weighted());
        assert_eq!(a.is_symmetric(), b.is_symmetric());
        for (x, y) in [(a.out_csr(), b.out_csr()), (a.in_csr(), b.in_csr())] {
            assert_eq!(x.offsets(), y.offsets());
            assert_eq!(x.targets(), y.targets());
            let wx: Option<Vec<u32>> = x.weights().map(|w| w.iter().map(|f| f.to_bits()).collect());
            let wy: Option<Vec<u32>> = y.weights().map(|w| w.iter().map(|f| f.to_bits()).collect());
            assert_eq!(wx, wy);
        }
    }

    fn round_trip(g: &Graph, name: &str) {
        let guard = TempDirGuard::new("blocks");
        let path = guard.path().join(name);
        write_blocks(g, &path).expect("write");
        for force_heap in [false, true] {
            let back = open_blocks_impl(&path, force_heap).expect("open");
            assert_bit_identical(g, &back);
            let handle = back.block_handle().expect("handle attached");
            let grid = handle.grid();
            let total: u64 = (0..grid.nb())
                .flat_map(|sb| (0..grid.nb()).map(move |db| grid.edge_count(sb, db)))
                .sum();
            assert_eq!(total, g.num_edges() as u64);
            if !force_heap {
                // Mapped (or heap-fallback) adjacency never double-counts
                // into the owned heap estimate.
                assert!(back.mapped_bytes() > 0 || g.num_edges() == 0);
            }
        }
    }

    #[test]
    fn round_trips_generated_graphs_bit_exactly() {
        // Property sweep: assorted sizes/seeds, unweighted and weighted,
        // must survive write→open bit-exactly on both reader paths.
        for (n, m, seed) in [
            (1usize, 0usize, 1u64),
            (17, 40, 2),
            (300, 2_000, 7),
            (5_000, 20_000, 9),
            (9_001, 90_000, 11),
        ] {
            let g = generators::erdos_renyi(n, m, seed);
            round_trip(&g, &format!("er-{n}-{m}-{seed}.fgb"));
            let w = generators::with_random_weights(&g, 0.1, 2.0, seed);
            round_trip(&w, &format!("er-w-{n}-{m}-{seed}.fgb"));
        }
        let web = generators::web_graph(2_000, 8, 16, 3);
        round_trip(&web, "web.fgb");
    }

    #[test]
    fn round_trips_the_empty_graph() {
        let g = GraphBuilder::new(0).build().expect("empty graph");
        round_trip(&g, "empty.fgb");
    }

    #[test]
    fn round_trips_a_directed_weighted_triangle() {
        let g = GraphBuilder::new(3)
            .weighted_edges([(0, 1, 0.5), (1, 2, -1.5), (2, 0, 2.25)])
            .build()
            .expect("graph");
        round_trip(&g, "tri.fgb");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let guard = TempDirGuard::new("blocks");
        let path = guard.path().join("garbage.fgb");
        std::fs::write(
            &path,
            b"not a block file at all, padded to 64+ bytes ....................",
        )
        .unwrap();
        assert!(matches!(
            open_blocks_impl(&path, true),
            Err(GraphError::BlockFormat(_))
        ));
        std::fs::write(&path, b"FGB1").unwrap();
        assert!(matches!(
            open_blocks_impl(&path, true),
            Err(GraphError::BlockFormat(_))
        ));
        // Valid header, truncated body.
        let g = generators::erdos_renyi(100, 500, 5);
        write_blocks(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 8]).unwrap();
        assert!(matches!(
            open_blocks_impl(&path, true),
            Err(GraphError::BlockFormat(_))
        ));
    }

    #[test]
    fn detects_section_bitrot_via_checksums() {
        let guard = TempDirGuard::new("blocks");
        let path = guard.path().join("bitrot.fgb");
        let g = generators::with_random_weights(&generators::erdos_renyi(100, 500, 5), 0.5, 2.0, 6);
        write_blocks(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // A flipped bit anywhere in the body lands in exactly one section
        // and must trip that section's checksum before anything parses.
        for at in [
            HEADER_LEN,
            HEADER_LEN + 9,
            (HEADER_LEN + full.len()) / 2,
            full.len() - 1,
        ] {
            let mut rotten = full.clone();
            rotten[at] ^= 0x40;
            std::fs::write(&path, &rotten).unwrap();
            match open_blocks_impl(&path, true) {
                Err(GraphError::BlockFormat(msg)) => {
                    assert!(
                        msg.contains("checksum"),
                        "byte {at}: unexpected error {msg}"
                    )
                }
                other => panic!("byte {at}: expected checksum error, got {other:?}"),
            }
        }
        std::fs::write(&path, &full).unwrap();
        assert_bit_identical(&g, &open_blocks_impl(&path, true).unwrap());
    }

    /// Version 1 carried no section checksums, so a file that says
    /// "version 1" is refused by its header — the same rule the durable
    /// store applies — rather than opened unverified.
    #[test]
    fn version_1_files_are_rejected() {
        let guard = TempDirGuard::new("blocks");
        let g = generators::erdos_renyi(50, 200, 3);
        let path = guard.path().join("g.fgb");
        write_blocks(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for (version, force_heap) in [(1u32, false), (1, true), (9, true)] {
            let mut stamped = full.clone();
            stamped[4..8].copy_from_slice(&version.to_ne_bytes());
            std::fs::write(&path, &stamped).unwrap();
            match open_blocks_impl(&path, force_heap) {
                Err(GraphError::BlockFormat(msg)) => {
                    assert_eq!(msg, format!("unsupported version {version}"))
                }
                other => panic!("version {version}: expected a refusal, got {other:?}"),
            }
        }
        std::fs::write(&path, &full).unwrap();
        assert_bit_identical(&g, &open_blocks_impl(&path, true).unwrap());
    }

    #[test]
    fn grid_geometry_and_classification() {
        let g = generators::erdos_renyi(10_000, 200_000, 13);
        let grid = BlockGrid::build(&g);
        assert_eq!(grid.nb(), 10_000usize.div_ceil(1 << grid.block_bits()));
        assert_eq!(grid.block_of(0), 0);
        assert_eq!(grid.block_of(9_999), grid.nb() - 1);
        assert_eq!(grid.block_end(grid.nb() - 1), 10_000);
        assert_eq!(grid.num_dense() + grid.num_sparse(), {
            (0..grid.nb() * grid.nb())
                .filter(|&i| grid.edge_counts[i] > 0)
                .count()
        });
        // 200k arcs over a ~3x3 grid: the big blocks must be dense.
        assert!(grid.num_dense() > 0, "expected dense blocks, got none");
    }

    #[test]
    fn grid_never_exceeds_64_blocks_per_axis() {
        for n in [0usize, 1, 4_096, 4_097, 1 << 20, 100_000_000] {
            let bits = block_bits_for(n);
            assert!(n.div_ceil(1usize << bits).max(1) <= MAX_GRID_DIM, "n={n}");
        }
    }

    /// The widest grid the 4096-vertex block allows is exactly
    /// `MAX_GRID_DIM` blocks: its last block still fits a `u64` touch mask
    /// and is charged like any other; one vertex more doubles the width.
    #[test]
    fn grid_boundary_at_max_dim() {
        let n = MAX_GRID_DIM * 4_096;
        let last = (n - 1) as VertexId;
        let g = GraphBuilder::new(n).edges([(0, last)]).build().unwrap();
        let grid = BlockGrid::build(&g);
        assert_eq!((grid.block_bits(), grid.nb()), (12, MAX_GRID_DIM));
        assert_eq!(grid.block_of(last), MAX_GRID_DIM - 1);
        assert_eq!(1u64.checked_shl(grid.block_of(last) as u32), Some(1 << 63));
        assert_eq!(grid.edge_count(0, MAX_GRID_DIM - 1), 1);
        let handle = BlockHandle::new(grid, false);
        let scope = StreamScope::new();
        handle.replay(&scope, 0, &[(0, 0, (MAX_GRID_DIM - 1) as u32)]);
        let snap = scope.snapshot();
        assert_eq!((snap.blocks_streamed, snap.bytes_streamed), (1, 4));

        let wider = GraphBuilder::new(n + 1).build().unwrap();
        let grid = BlockGrid::build(&wider);
        assert_eq!((grid.block_bits(), grid.nb()), (13, MAX_GRID_DIM / 2 + 1));
    }

    #[test]
    fn replay_charges_misses_hits_and_sparse_bypass() {
        let g = generators::erdos_renyi(20_000, 400_000, 17);
        let guard = TempDirGuard::new("blocks");
        let path = guard.path().join("replay.fgb");
        write_blocks(&g, &path).unwrap();
        let back = open_blocks_impl(&path, true).unwrap();
        let handle = back.block_handle().unwrap();
        let grid = handle.grid();
        let dense = (0..grid.nb() as u32)
            .flat_map(|sb| (0..grid.nb() as u32).map(move |db| (sb, db)))
            .find(|&(sb, db)| grid.is_dense(sb as usize, db as usize))
            .expect("a dense block");
        let touch = (0u8, dense.0, dense.1);
        let scope = StreamScope::new();
        handle.replay(&scope, 0, &[touch, touch]);
        let snap = scope.snapshot();
        assert_eq!(snap.blocks_streamed, 1, "second touch hits the cache");
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(
            snap.bytes_streamed,
            grid.block_bytes(dense.0 as usize, dense.1 as usize)
        );
        // Another worker has its own cache: same touch misses again.
        handle.replay(&scope, 1, &[touch]);
        assert_eq!(scope.snapshot().blocks_streamed, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stream_scopes_are_isolated_per_run() {
        // Regression: counters used to live on the Arc-shared BlockHandle,
        // so two simultaneous runs over one graph double-charged each
        // other's deltas. Each scope must now see only its own traffic.
        let g = generators::erdos_renyi(20_000, 400_000, 17);
        let guard = TempDirGuard::new("blocks");
        let path = guard.path().join("scopes.fgb");
        write_blocks(&g, &path).unwrap();
        let back = open_blocks_impl(&path, true).unwrap();
        let handle = back.block_handle().unwrap();
        let grid = handle.grid();
        let dense = (0..grid.nb() as u32)
            .flat_map(|sb| (0..grid.nb() as u32).map(move |db| (sb, db)))
            .find(|&(sb, db)| grid.is_dense(sb as usize, db as usize))
            .expect("a dense block");
        let touch = (0u8, dense.0, dense.1);
        let a = StreamScope::new();
        let b = StreamScope::new();
        handle.replay(&a, 0, &[touch, touch, touch]);
        handle.replay(&b, 0, &[touch]);
        // Scope `a` saw one miss + two hits; `b`'s cache is cold, so its
        // single touch is a miss — and neither sees the other's counts.
        assert_eq!(a.snapshot().blocks_streamed, 1);
        assert_eq!(a.snapshot().cache_hits, 2);
        assert_eq!(b.snapshot().blocks_streamed, 1);
        assert_eq!(b.snapshot().cache_hits, 0);
        let bytes = grid.block_bytes(dense.0 as usize, dense.1 as usize);
        assert_eq!(a.snapshot().bytes_streamed, bytes);
        assert_eq!(b.snapshot().bytes_streamed, bytes);
        let _ = std::fs::remove_file(&path);
    }
}
