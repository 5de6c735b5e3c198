//! Durable checkpoint store — cold-restart recovery (DESIGN.md §15).
//!
//! The in-memory recovery layer ([`crate::checkpoint`]) survives faults
//! *within one process lifetime*: a whole-process kill loses every
//! superstep of work. This module extends the `.fgb` on-disk discipline
//! to *mutable* state: every checkpoint (full per-replica vertex state)
//! is committed to disk as a **generation**, and nothing is written
//! between checkpoints. A cold restart re-executes the schedule from
//! step 0 writing nothing, takes the newest valid generation as
//! authoritative when it reaches that generation's step, and from there
//! runs — and commits — like the killed run, recomputing everything after
//! the checkpoint: Pregel's checkpoint at an interval and recompute
//! since, which determinism makes bit-identical.
//!
//! # On-disk format (`FCK1`, version 3)
//!
//! One file per generation, `gen-N.fck`, exactly a header and one
//! checkpoint frame:
//!
//! ```text
//! header (48 B): magic "FCK1", version u32, generation u64,
//!                checkpoint step u64, workers u64, vertices u64,
//!                FNV-1a checksum of the preceding 40 bytes
//! frame:         kind u32 (0 = checkpoint), step u64,
//!                payload_len u64, payload,
//!                FNV-1a checksum u64 of kind..payload
//! ```
//!
//! The payload is every replica's full state — replicas may diverge in
//! non-critical fields under `CriticalOnly` sync, so masters alone are
//! not enough to rebuild the cluster. All integers are little-endian.
//!
//! # Commit protocol
//!
//! A generation is written once, by a two-phase commit: the file to
//! `gen-N.tmp`, `fsync`, rename onto `gen-N.fck`, directory `fsync`.
//! Only after all of it succeeded does `maybe_checkpoint` feed the
//! consensus `CheckpointCommit` entry — the replicated log never commits
//! a generation whose bytes are not durable. The two newest generations
//! are retained so a condemned newest generation can fall back to its
//! predecessor.
//!
//! # Scrub and fallback
//!
//! Opening a store for resume deletes stale `.tmp` files and validates
//! generations newest-first. A generation is exactly its header and
//! frame 0, so any damage — a flipped byte, a cut, a trailing byte —
//! condemns it (a `checkpoint_scrubbed` trace event) and the scrub falls
//! back to the next older one; when none remains the run degrades to
//! [`RuntimeError::DurabilityLost`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::RuntimeError;
use crate::fault::FaultKind;
use crate::state::WorkerState;
use crate::stats::DurabilityStats;
use crate::VertexData;
use flash_graph::hash::fnv1a;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every generation file.
pub const MAGIC: [u8; 4] = *b"FCK1";
/// Current format version. Older versions are rejected, not migrated:
/// stores are per-run scratch. Version 1 was footer-terminated and
/// rewritten whole on every delta. Version 2 has today's layout, but the
/// header does not identify the value layout, so the version also changes
/// when a catalogue value type does: a version 2 PageRank store holds
/// `{ rank, acc }`, which version 3 would read as `{ rank, share }`.
pub const VERSION: u32 = 3;
/// Fixed header length in bytes.
const HEADER_LEN: usize = 48;
/// Bytes of the frame before its payload: kind, step, payload length.
const FRAME_HEAD: usize = 20;
/// Frame kind: a full per-replica checkpoint, the only kind written.
const FRAME_CHECKPOINT: u32 = 0;

/// Cursor over a frame payload handed to [`DurableValue::decode`].
/// Returns `None` past the end, so a short or corrupted payload degrades
/// to a decode failure instead of a panic.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    /// The next `n` bytes, or `None` when fewer remain.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A field type the [`durable_value!`](crate::durable_value) macro knows
/// how to serialize: fixed-width little-endian for scalars, length-
/// prefixed for vectors.
pub trait DurableField: Sized {
    /// Appends the encoded field.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one field, `None` on truncation or an invalid encoding.
    fn take(r: &mut FrameReader<'_>) -> Option<Self>;
}

macro_rules! durable_scalar {
    ($($t:ty),*) => {$(
        impl DurableField for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut FrameReader<'_>) -> Option<Self> {
                let b = r.bytes(std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(b.try_into().ok()?))
            }
        }
    )*};
}
durable_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl DurableField for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        match r.bytes(1)? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl DurableField for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        usize::try_from(u64::take(r)?).ok()
    }
}

impl<T: DurableField> DurableField for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        let len = usize::try_from(u64::take(r)?).ok()?;
        // A corrupted length must not trigger a huge allocation: the
        // payload can hold at most `remaining` one-byte items.
        if len > r.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::take(r)?);
        }
        Some(out)
    }
}

/// A vertex type the durable store can serialize. Implement with the
/// [`durable_value!`](crate::durable_value) macro (listing every field),
/// or by hand for exotic layouts. The contract is a lossless round-trip:
/// `decode(encode(v)) == v` bit-for-bit, so a resumed run continues
/// bit-identically to an uninterrupted one.
pub trait DurableValue: VertexData {
    /// Appends the vertex's full state.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one vertex, `None` on truncation or an invalid encoding.
    fn decode(r: &mut FrameReader<'_>) -> Option<Self>;
}

/// Implements [`DurableValue`] for a struct by listing *all* of its
/// fields (the compiler rejects a partial list):
///
/// ```
/// #[derive(Clone, Default)]
/// struct Dist { d: u32, seen: bool }
/// flash_runtime::full_sync!(Dist);
/// flash_runtime::durable_value!(Dist { d, seen });
/// ```
#[macro_export]
macro_rules! durable_value {
    ($t:ty { $($f:ident),* $(,)? }) => {
        impl $crate::durable::DurableValue for $t {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                let _ = &out;
                $($crate::durable::DurableField::put(&self.$f, out);)*
            }
            fn decode(
                r: &mut $crate::durable::FrameReader<'_>,
            ) -> ::core::option::Option<Self> {
                let _ = &r;
                ::core::option::Option::Some(Self {
                    $($f: $crate::durable::DurableField::take(r)?,)*
                })
            }
        }
    };
}

/// Encodes a whole generation file: the header, then the one checkpoint
/// frame whose payload `fill` writes, checksummed in place (no payload
/// copy).
fn encode_generation(
    generation: u64,
    step: u64,
    workers: u64,
    vertices: u64,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for word in [generation, step, workers, vertices] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&FRAME_CHECKPOINT.to_le_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    fill(&mut out);
    let payload_len = (out.len() - HEADER_LEN - FRAME_HEAD) as u64;
    out[HEADER_LEN + 12..HEADER_LEN + FRAME_HEAD].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a(&out[HEADER_LEN..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// A verified generation file: its header fields and checkpoint payload.
struct ParsedStore {
    generation: u64,
    step: u64,
    workers: u64,
    vertices: u64,
    payload: Vec<u8>,
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Parses a generation file, which must be exactly a header and one
/// checkpoint frame, both verified. The error string is the scrub reason
/// condemning the generation.
fn parse_store(buf: &[u8]) -> Result<ParsedStore, String> {
    const TORN: &str = "truncated mid-frame";
    if buf.len() < HEADER_LEN {
        return Err("truncated header".into());
    }
    if buf[0..4] != MAGIC {
        return Err("bad magic".into());
    }
    let version = read_u32(buf, 4).ok_or("truncated header")?;
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let hsum = read_u64(buf, HEADER_LEN - 8).ok_or("truncated header")?;
    if hsum != fnv1a(&buf[..HEADER_LEN - 8]) {
        return Err("header checksum mismatch".into());
    }
    let word = |i: usize| read_u64(buf, 8 + 8 * i).ok_or("truncated header");
    let (generation, step, workers, vertices) = (word(0)?, word(1)?, word(2)?, word(3)?);
    let kind = read_u32(buf, HEADER_LEN).ok_or(TORN)?;
    let frame_step = read_u64(buf, HEADER_LEN + 4).ok_or(TORN)?;
    let payload_len = read_u64(buf, HEADER_LEN + 12).ok_or(TORN)?;
    // A corrupted length must neither overflow nor pass for a short file.
    let end = usize::try_from(payload_len)
        .ok()
        .and_then(|len| (HEADER_LEN + FRAME_HEAD).checked_add(len))
        .filter(|end| *end <= buf.len())
        .ok_or(TORN)?;
    let sum = read_u64(buf, end).ok_or(TORN)?;
    if sum != fnv1a(&buf[HEADER_LEN..end]) {
        return Err("frame checksum mismatch".into());
    }
    if kind != FRAME_CHECKPOINT || frame_step != step {
        return Err("frame 0 is not the header's checkpoint".into());
    }
    if end + 8 != buf.len() {
        return Err(format!(
            "{} byte(s) after the checkpoint frame",
            buf.len() - end - 8
        ));
    }
    Ok(ParsedStore {
        generation,
        step,
        workers,
        vertices,
        payload: buf[HEADER_LEN + FRAME_HEAD..end].to_vec(),
    })
}

/// A generation the scrub pass condemned at open, falling back to an
/// older one.
#[derive(Debug)]
pub(crate) struct ScrubReport {
    /// The damaged generation number (from the filename).
    pub(crate) generation: u64,
    /// What the scrub found.
    pub(crate) reason: String,
}

/// Outcome of a checkpoint commit attempt, for the cluster's bookkeeping.
pub(crate) enum DiskWrite {
    /// Nothing written: the store is resuming, frozen or halted.
    None,
    /// A new generation was committed (tmp + fsync + rename + directory
    /// fsync all succeeded).
    Committed {
        /// The generation number committed.
        generation: u64,
        /// Bytes written and fsynced: the whole generation file.
        bytes: u64,
    },
    /// The write or an fsync failed — an injected `ioerr@` fault or a
    /// real I/O error. Nothing was committed: the commit is retried at
    /// the next superstep, and until one lands a resume recomputes from
    /// the previous generation.
    Failed,
}

/// The cluster's handle on a durable store: the newest generation, the
/// checkpoint a resumed run has yet to reach, and the fault wiring. A
/// live session holds no file handle and no payload. Fully inert when
/// absent — a run without `--durable-dir` never constructs one.
pub(crate) struct DurableSession<V> {
    dir: PathBuf,
    encode: fn(&V, &mut Vec<u8>),
    decode: fn(&mut FrameReader<'_>) -> Option<V>,
    workers: usize,
    vertices: usize,
    /// The newest generation committed or loaded, `None` before the first.
    generation: Option<u64>,
    /// The checkpoint loaded at open, `(step, payload)`, until the
    /// resumed run reaches its step; while it is pending nothing is
    /// written.
    pending: Option<(u64, Vec<u8>)>,
    /// Set after `torn@`/`bitrot@` damage is applied: all further writes
    /// are skipped so the at-rest damage survives to the next cold
    /// start. Models the process dying right after the damage landed.
    wedged: bool,
    /// The scripted cold-restart kill switch: persistence freezes at the
    /// first superstep `>= halt_after` and the run degrades to
    /// [`RuntimeError::Halted`].
    halt_after: Option<u64>,
    halted: Option<u64>,
    /// Whether the loaded checkpoint matched the re-executed in-memory
    /// state byte-for-byte (always expected; surfaced for a debug
    /// assertion in the cluster).
    pub(crate) last_apply_matched: bool,
}

impl<V> std::fmt::Debug for DurableSession<V> {
    // Manual impl: a derive would demand `V: Debug` even though no field
    // holds a `V`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("pending", &self.pending_step())
            .field("wedged", &self.wedged)
            .field("halt_after", &self.halt_after)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl<V> DurableSession<V> {
    /// The step of the checkpoint loaded at open, until the resumed run
    /// reaches it.
    pub(crate) fn pending_step(&self) -> Option<u64> {
        self.pending.as_ref().map(|(step, _)| *step)
    }
}

impl<V: VertexData> DurableSession<V> {
    fn new(
        dir: &Path,
        workers: usize,
        vertices: usize,
        halt_after: Option<u64>,
        encode: fn(&V, &mut Vec<u8>),
        decode: fn(&mut FrameReader<'_>) -> Option<V>,
    ) -> Self {
        DurableSession {
            dir: dir.to_path_buf(),
            encode,
            decode,
            workers,
            vertices,
            generation: None,
            pending: None,
            wedged: false,
            halt_after,
            halted: None,
            last_apply_matched: true,
        }
    }

    /// Opens a fresh store for a new run: creates the directory and
    /// clears any stale generation or tmp files from a previous run.
    pub(crate) fn create(
        dir: &Path,
        workers: usize,
        vertices: usize,
        halt_after: Option<u64>,
        encode: fn(&V, &mut Vec<u8>),
        decode: fn(&mut FrameReader<'_>) -> Option<V>,
    ) -> Result<Self, RuntimeError> {
        fs::create_dir_all(dir)
            .map_err(|e| RuntimeError::Storage(format!("durable dir {dir:?}: {e}")))?;
        for (_, path) in list_generations(dir) {
            let _ = fs::remove_file(path);
        }
        remove_tmp_files(dir);
        Ok(Self::new(
            dir, workers, vertices, halt_after, encode, decode,
        ))
    }

    /// Opens an existing store for resume: scrubs the directory and
    /// loads the newest generation that verifies as the pending
    /// checkpoint. Every condemned generation is reported; no valid
    /// generation degrades to [`RuntimeError::DurabilityLost`].
    pub(crate) fn open(
        dir: &Path,
        workers: usize,
        vertices: usize,
        halt_after: Option<u64>,
        encode: fn(&V, &mut Vec<u8>),
        decode: fn(&mut FrameReader<'_>) -> Option<V>,
    ) -> Result<(Self, Vec<ScrubReport>), RuntimeError> {
        remove_tmp_files(dir);
        let mut gens = list_generations(dir);
        gens.sort_by_key(|g| std::cmp::Reverse(g.0));
        if gens.is_empty() {
            return Err(RuntimeError::DurabilityLost(format!(
                "directory {dir:?} holds no generation files"
            )));
        }
        let mut reports = Vec::new();
        for (gen, path) in &gens {
            let loaded = fs::read(path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|buf| parse_store(&buf))
                .and_then(|parsed| {
                    if parsed.generation != *gen {
                        return Err(format!(
                            "header generation {} != filename generation {gen}",
                            parsed.generation
                        ));
                    }
                    if parsed.workers != workers as u64 || parsed.vertices != vertices as u64 {
                        return Err(format!(
                            "geometry mismatch: file has {} workers x {} vertices, \
                             cluster has {workers} x {vertices}",
                            parsed.workers, parsed.vertices
                        ));
                    }
                    Ok(parsed)
                });
            match loaded {
                Ok(parsed) => {
                    let mut session = Self::new(dir, workers, vertices, halt_after, encode, decode);
                    session.generation = Some(*gen);
                    session.pending = Some((parsed.step, parsed.payload));
                    return Ok((session, reports));
                }
                Err(reason) => reports.push(ScrubReport {
                    generation: *gen,
                    reason,
                }),
            }
        }
        Err(RuntimeError::DurabilityLost(format!(
            "all {} generation file(s) in {dir:?} damaged: {}",
            gens.len(),
            reports
                .iter()
                .map(|r| format!("gen {} ({})", r.generation, r.reason))
                .collect::<Vec<_>>()
                .join(", ")
        )))
    }

    /// The per-superstep hook of the scripted kill switch: persistence
    /// freezes at the first `step >= halt_after`. Returns the superstep
    /// the switch fired at, if it has.
    pub(crate) fn halt_check(&mut self, step: u64) -> Option<u64> {
        if self.halted.is_none() && self.halt_after.is_some_and(|k| step >= k) {
            self.halted = Some(step);
        }
        self.halted
    }

    fn gen_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation}.fck"))
    }

    fn encode_checkpoint(&self, states: &[WorkerState<V>], out: &mut Vec<u8>) {
        for st in states {
            for v in &st.current {
                (self.encode)(v, out);
            }
        }
    }

    fn apply_checkpoint(&self, payload: &[u8], states: &mut [WorkerState<V>]) -> Option<()> {
        let mut r = FrameReader::new(payload);
        for st in states.iter_mut() {
            for v in st.current.iter_mut() {
                *v = (self.decode)(&mut r)?;
            }
        }
        if r.remaining() != 0 {
            return None;
        }
        Some(())
    }

    /// Writes generation `generation` through the two-phase commit and
    /// returns its length in bytes.
    fn persist(&self, generation: u64, step: u64, states: &[WorkerState<V>]) -> io::Result<u64> {
        let bytes = encode_generation(
            generation,
            step,
            self.workers as u64,
            self.vertices as u64,
            |out| self.encode_checkpoint(states, out),
        );
        let tmp = self.dir.join(format!("gen-{generation}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.gen_path(generation))?;
        // The rename is durable only once the directory is.
        File::open(&self.dir)?.sync_all()?;
        Ok(bytes.len() as u64)
    }

    /// The checkpoint hook, called by `maybe_checkpoint` *before* the
    /// stats/trace/consensus bookkeeping, at the superstep the snapshot
    /// precedes. A resumed run writes nothing until it reaches the loaded
    /// checkpoint's step; there the checkpoint is checked against the
    /// re-executed state and applied over it if they differ (disk is
    /// authoritative), and from there the run commits like a live one —
    /// starting with a new generation at that very step, as the killed
    /// run did, which also replaces a condemned newer file. Only a
    /// [`DiskWrite::Committed`] outcome may feed the consensus
    /// `CheckpointCommit` entry.
    pub(crate) fn on_checkpoint(
        &mut self,
        step: u64,
        states: &mut [WorkerState<V>],
        ioerr: bool,
        stats: &mut DurabilityStats,
    ) -> Result<DiskWrite, RuntimeError> {
        self.halt_check(step);
        match self.pending.take() {
            Some((at, payload)) if at == step => {
                let mut reexecuted = Vec::with_capacity(payload.len());
                self.encode_checkpoint(states, &mut reexecuted);
                self.last_apply_matched = reexecuted == payload;
                if !self.last_apply_matched {
                    self.apply_checkpoint(&payload, states).ok_or_else(|| {
                        RuntimeError::DurabilityLost(format!(
                            "generation {} checkpoint frame failed to decode \
                             (vertex codec mismatch?)",
                            self.generation.unwrap_or_default()
                        ))
                    })?;
                }
                stats.resumed_steps = step;
            }
            still_pending @ Some(_) => {
                self.pending = still_pending;
                return Ok(DiskWrite::None);
            }
            None => {}
        }
        if self.wedged || self.halted.is_some() {
            return Ok(DiskWrite::None);
        }
        let generation = self.generation.map_or(0, |g| g + 1);
        let written = if ioerr {
            None
        } else {
            self.persist(generation, step, states).ok()
        };
        let Some(bytes) = written else {
            stats.io_errors += 1;
            return Ok(DiskWrite::Failed);
        };
        self.generation = Some(generation);
        stats.generations_written += 1;
        stats.bytes_fsynced += bytes;
        // Two-generation retention: the predecessor stays (the scrub's
        // fallback target), anything older goes.
        if generation >= 2 {
            let _ = fs::remove_file(self.gen_path(generation - 2));
        }
        Ok(DiskWrite::Committed { generation, bytes })
    }

    /// Applies scripted at-rest damage (`torn@` / `bitrot@`) to the
    /// newest *committed* generation file and wedges the store so later
    /// writes do not mask it — modeling the process dying right after
    /// the damage landed. Any damage condemns the generation. `mask`
    /// must be nonzero so a bitrot flip is guaranteed detectable. A halted
    /// store is a killed process: damage scripted after the kill never
    /// reaches the disk.
    pub(crate) fn damage(&mut self, kind: FaultKind, byte: u64, mask: u8) {
        if self.halted.is_some() {
            return;
        }
        self.wedged = true;
        let Some(path) = self.generation.map(|g| self.gen_path(g)) else {
            return;
        };
        let Ok(mut buf) = fs::read(&path) else {
            return;
        };
        let Some(last) = buf.len().checked_sub(1) else {
            return;
        };
        let at = usize::try_from(byte).unwrap_or(usize::MAX).min(last);
        match kind {
            // Without an offset the cut lands two thirds into the file.
            FaultKind::Torn if byte == 0 => buf.truncate(buf.len() * 2 / 3),
            FaultKind::Torn => buf.truncate(at),
            FaultKind::Bitrot => buf[at] ^= if mask == 0 { 1 } else { mask },
            _ => return,
        }
        let _ = fs::write(&path, &buf);
    }
}

fn remove_tmp_files(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = fs::remove_file(path);
        }
    }
}

/// Generation files in `dir` as `(generation, path)`, unordered.
fn list_generations(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(gen) = name
            .strip_prefix("gen-")
            .and_then(|r| r.strip_suffix(".fck"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            out.push((gen, path));
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use flash_graph::testutil::TempDirGuard;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Val {
        a: u32,
        b: i64,
        c: f64,
        d: bool,
        e: Vec<u32>,
    }
    crate::full_sync!(Val);
    crate::durable_value!(Val { a, b, c, d, e });

    #[derive(Clone, Default, PartialEq, Debug)]
    struct Unit;
    crate::full_sync!(Unit);
    crate::durable_value!(Unit {});

    #[test]
    fn durable_value_round_trips() {
        let v = Val {
            a: 7,
            b: -9,
            c: 2.5,
            d: true,
            e: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = FrameReader::new(&buf);
        assert_eq!(Val::decode(&mut r), Some(v));
        assert_eq!(r.remaining(), 0);

        // Truncation degrades to None, never a panic.
        let mut r = FrameReader::new(&buf[..buf.len() - 1]);
        assert_eq!(Val::decode(&mut r), None);

        // A unit struct costs zero bytes.
        let mut buf = Vec::new();
        Unit.encode(&mut buf);
        assert!(buf.is_empty());
        let mut r = FrameReader::new(&buf);
        assert_eq!(Unit::decode(&mut r), Some(Unit));
    }

    #[test]
    fn bool_and_vec_decoding_reject_garbage() {
        let mut r = FrameReader::new(&[2]);
        assert_eq!(bool::take(&mut r), None, "2 is not a bool");
        // A corrupted huge vector length must not allocate.
        let mut buf = Vec::new();
        (u64::MAX).put(&mut buf);
        let mut r = FrameReader::new(&buf);
        assert_eq!(Vec::<u32>::take(&mut r), None);
    }

    /// The only frame prefix that parses is the whole file: a generation
    /// is exactly its header and frame 0, so every flipped byte (three
    /// masks), every cut and any trailing byte condemns it.
    #[test]
    fn damaged_store_parses_to_an_exact_frame_prefix_or_an_error() {
        let payload: Vec<u8> = (0..40).collect();
        let bytes = encode_generation(3, 4, 2, 16, |o| o.extend_from_slice(&payload));
        assert_eq!(bytes.len(), HEADER_LEN + FRAME_HEAD + payload.len() + 8);
        let parsed = parse_store(&bytes).expect("round-trip");
        assert_eq!(
            (
                parsed.generation,
                parsed.step,
                parsed.workers,
                parsed.vertices
            ),
            (3, 4, 2, 16)
        );
        assert_eq!(parsed.payload, payload);

        for at in 0..bytes.len() {
            for mask in [0x01, 0x40, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                assert!(parse_store(&bad).is_err(), "flip {mask:#x} at byte {at}");
            }
        }
        for len in 0..bytes.len() {
            assert!(parse_store(&bytes[..len]).is_err(), "cut to {len} bytes");
        }
        let mut long = bytes.clone();
        long.push(0);
        let err = parse_store(&long).err().expect("trailing byte condemns");
        assert!(err.contains("1 byte(s) after"), "{err}");

        // An older file (or any other version) is rejected, not misread.
        for version in [1u32, 2] {
            let mut old = bytes.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            let err = parse_store(&old).err().expect("old version rejected");
            assert!(
                err.contains(&format!("unsupported version {version}")),
                "{err}"
            );
        }
    }

    fn val_states(workers: usize, vertices: usize) -> Vec<WorkerState<Val>> {
        (0..workers)
            .map(|_| WorkerState::new(vertices, &|_| Val::default()))
            .collect()
    }

    #[test]
    fn session_commits_generations_with_retention() {
        let dir = TempDirGuard::new("durable-session");
        let mut stats = DurabilityStats::default();
        let mut states = val_states(2, 4);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
        // Three checkpoints: gen 0, 1, 2 — retention keeps the last two.
        for step in [0u64, 4, 8] {
            states[0].current[0].a = step as u32;
            let out = s
                .on_checkpoint(step, &mut states, false, &mut stats)
                .unwrap();
            assert!(matches!(out, DiskWrite::Committed { .. }));
        }
        assert_eq!(stats.generations_written, 3);
        assert_eq!(stats.delta_frames, 0);
        let mut gens: Vec<u64> = list_generations(dir.path())
            .into_iter()
            .map(|(g, _)| g)
            .collect();
        gens.sort_unstable();
        assert_eq!(gens, vec![1, 2], "gen 0 removed by retention");
        // Each file is exactly header + frame 0, fsynced once.
        let on_disk = |g: u64| fs::metadata(s.gen_path(g)).unwrap().len();
        let mut one = Vec::new();
        Val::default().encode(&mut one);
        let frame0 = HEADER_LEN + FRAME_HEAD + 8 * one.len() + 8;
        assert_eq!(on_disk(2), frame0 as u64);
        assert_eq!(stats.bytes_fsynced, 3 * on_disk(2));

        // The newest generation re-opens as the pending checkpoint. The
        // resumed run writes nothing before reaching its step, then
        // applies it over a diverged state and commits from there on.
        let (mut s2, reports) =
            DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
        assert!(reports.is_empty());
        assert_eq!(s2.generation, Some(2));
        assert_eq!(s2.pending_step(), Some(8));
        let mut resumed = DurabilityStats::default();
        let mut states = val_states(2, 4);
        for step in [0u64, 4] {
            let out = s2.on_checkpoint(step, &mut states, false, &mut resumed);
            assert!(matches!(out, Ok(DiskWrite::None)));
        }
        let out = s2
            .on_checkpoint(8, &mut states, false, &mut resumed)
            .unwrap();
        assert!(matches!(out, DiskWrite::Committed { generation: 3, .. }));
        assert!(!s2.last_apply_matched, "re-execution diverged");
        assert_eq!(states[0].current[0].a, 8, "disk state applied");
        assert_eq!(s2.pending_step(), None);
        assert_eq!(resumed.resumed_steps, 8);
        let parsed = |g| parse_store(&fs::read(s2.gen_path(g)).unwrap()).unwrap();
        let (loaded, committed) = (parsed(2), parsed(3));
        assert_eq!(committed.step, loaded.step);
        assert_eq!(
            committed.payload, loaded.payload,
            "the checked state, again"
        );
    }

    #[test]
    fn ioerr_skips_the_commit_and_the_next_one_lands() {
        let dir = TempDirGuard::new("durable-ioerr");
        let mut stats = DurabilityStats::default();
        let mut states = val_states(1, 2);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 1, 2, None, Val::encode, Val::decode).unwrap();
        let out = s.on_checkpoint(0, &mut states, true, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Failed));
        assert_eq!(stats.io_errors, 1);
        assert!(list_generations(dir.path()).is_empty(), "nothing committed");
        let out = s.on_checkpoint(1, &mut states, false, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Committed { generation: 0, .. }));
        assert_eq!(list_generations(dir.path()).len(), 1);
    }

    #[test]
    fn failed_generation_commit_is_not_reported_and_the_log_carries_on() {
        let dir = TempDirGuard::new("durable-commit-fail");
        let mut stats = DurabilityStats::default();
        let mut states = val_states(1, 2);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 1, 2, None, Val::encode, Val::decode).unwrap();
        s.on_checkpoint(0, &mut states, false, &mut stats).unwrap();
        // A real failure after the tmp file is written: the rename target
        // is occupied by a directory.
        fs::create_dir(s.gen_path(1)).unwrap();
        let out = s.on_checkpoint(2, &mut states, false, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Failed));
        assert_eq!(stats.io_errors, 1);
        assert_eq!(stats.generations_written, 1);
        assert_eq!(s.generation, Some(0), "still on the committed generation");
        fs::remove_dir(s.gen_path(1)).unwrap();
        let out = s.on_checkpoint(3, &mut states, false, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Committed { generation: 1, .. }));
    }

    #[test]
    fn torn_and_bitrot_damage_fall_back_to_previous_generation() {
        // The default tear, explicit cuts (the last clamped into the
        // file) and a flip: each condemns the newest generation.
        for (kind, byte) in [
            (FaultKind::Torn, 0),
            (FaultKind::Torn, 60),
            (FaultKind::Torn, u64::MAX),
            (FaultKind::Bitrot, 60),
        ] {
            let dir = TempDirGuard::new("durable-damage");
            let mut stats = DurabilityStats::default();
            let mut states = val_states(2, 4);
            let mut s: DurableSession<Val> =
                DurableSession::create(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
            s.on_checkpoint(0, &mut states, false, &mut stats).unwrap();
            s.on_checkpoint(4, &mut states, false, &mut stats).unwrap();
            // Damage the newest committed generation (gen 1) and verify
            // the wedge freezes later writes.
            s.damage(kind, byte, 0x20);
            let out = s.on_checkpoint(8, &mut states, false, &mut stats).unwrap();
            assert!(matches!(out, DiskWrite::None), "wedged store is frozen");
            assert_eq!(stats.generations_written, 2);

            let (s2, reports) =
                DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode, Val::decode)
                    .unwrap();
            assert_eq!(
                s2.generation,
                Some(0),
                "fell back to the previous generation"
            );
            assert_eq!(reports.len(), 1, "{kind:?}");
            assert_eq!(reports[0].generation, 1);
        }
    }

    #[test]
    fn open_with_nothing_valid_degrades_to_durability_lost() {
        let dir = TempDirGuard::new("durable-lost");
        let err = DurableSession::<Val>::open(dir.path(), 1, 2, None, Val::encode, Val::decode)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DurabilityLost(_)), "{err}");

        // A lone damaged generation is scrubbed and then nothing remains.
        fs::write(dir.path().join("gen-0.fck"), b"FCK1garbage").unwrap();
        let err = DurableSession::<Val>::open(dir.path(), 1, 2, None, Val::encode, Val::decode)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DurabilityLost(_)), "{err}");
    }

    #[test]
    fn geometry_mismatch_is_scrubbed_not_loaded() {
        let dir = TempDirGuard::new("durable-geometry");
        let mut stats = DurabilityStats::default();
        let mut states = val_states(2, 4);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
        s.on_checkpoint(0, &mut states, false, &mut stats).unwrap();
        // Re-open with a different cluster geometry: the generation is
        // valid bytes but unusable, so it must be scrubbed.
        let err = DurableSession::<Val>::open(dir.path(), 3, 4, None, Val::encode, Val::decode)
            .unwrap_err();
        assert!(err.to_string().contains("no valid generation"), "{err}");
    }

    #[test]
    fn halt_after_freezes_persistence() {
        let dir = TempDirGuard::new("durable-halt");
        let mut stats = DurabilityStats::default();
        let mut states = val_states(1, 2);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 1, 2, Some(3), Val::encode, Val::decode).unwrap();
        s.on_checkpoint(0, &mut states, false, &mut stats).unwrap();
        assert_eq!(s.halt_check(2), None);
        assert_eq!(s.halt_check(3), Some(3));
        assert_eq!(s.halt_check(4), Some(3), "the first halted step sticks");
        s.on_checkpoint(4, &mut states, false, &mut stats).unwrap();
        assert_eq!(stats.generations_written, 1, "nothing persists after");
    }
}
