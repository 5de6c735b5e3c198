//! Durable checkpoint store — cold-restart recovery (DESIGN.md §15).
//!
//! The in-memory recovery layer ([`crate::checkpoint`]) survives faults
//! *within one process lifetime*: a whole-process kill loses every
//! superstep of work. This module extends the `.fgb` on-disk discipline
//! to *mutable* state: each checkpoint (full per-replica vertex state)
//! opens a write-ahead log that every later superstep appends its delta
//! to, so a cold restart can resume the run bit-identically.
//!
//! # On-disk format (`FCK1`, version 2)
//!
//! One file per checkpoint **generation**, `gen-N.fck`:
//!
//! ```text
//! header (48 B): magic "FCK1", version u32, generation u64,
//!                checkpoint step u64, workers u64, vertices u64,
//!                FNV-1a checksum of the preceding 40 bytes
//! frames:        kind u32 (0 checkpoint | 1 delta), step u64,
//!                payload_len u64, payload,
//!                FNV-1a checksum u64 of kind..payload
//! ```
//!
//! Frame 0 is the generation's checkpoint (every replica's full state —
//! replicas may diverge in non-critical fields under `CriticalOnly`
//! sync, so masters alone are not enough to rebuild the cluster);
//! frames 1.. are the step-tagged delta log recorded after it. The file
//! ends after its last frame — no footer. All integers are little-endian.
//!
//! # Commit protocol
//!
//! A generation is **created once**, by a two-phase commit: header +
//! frame 0 to `gen-N.tmp`, `fsync`, rename onto `gen-N.fck`, directory
//! `fsync`. Only after all of it succeeded does `maybe_checkpoint` feed
//! the consensus `CheckpointCommit` entry — the replicated log never
//! commits a generation whose bytes are not durable. Every delta is then
//! **appended** to the open file (`write_all` of the one frame,
//! `fdatasync`) before the superstep's barrier returns; nothing already
//! on disk is rewritten. A failed append is truncated back off; if that
//! fails too the store stops appending until the next checkpoint opens a
//! fresh generation. The two newest generations are retained so a
//! condemned newest generation can fall back to its predecessor.
//!
//! # Scrub, prefix rule and fallback
//!
//! Opening a store for resume deletes stale `.tmp` files and validates
//! generations newest-first. A generation whose header or frame 0 does
//! not verify is condemned (a `checkpoint_scrubbed` trace event with
//! `fallback: true`) and the scrub moves to the next older one; when none
//! remains the run degrades to [`RuntimeError::DurabilityLost`]. After
//! frame 0 the **longest valid frame prefix wins**: every prefix is a
//! true earlier state of the run and re-execution from it is
//! bit-identical, so a torn or bit-rotted tail is truncated (`set_len` +
//! `fsync`) and reported with `fallback: false`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::RuntimeError;
use crate::fault::FaultKind;
use crate::state::WorkerState;
use crate::stats::DurabilityStats;
use crate::VertexData;
use flash_graph::hash::fnv1a;
use flash_graph::VertexId;
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every generation file.
pub const MAGIC: [u8; 4] = *b"FCK1";
/// Current format version. Version 1 (footer-terminated, rewritten whole
/// on every delta) is rejected: stores are per-run scratch.
pub const VERSION: u32 = 2;
/// Fixed header length in bytes.
const HEADER_LEN: usize = 48;
/// Bytes of a frame before its payload: kind, step, payload length.
const FRAME_HEAD: usize = 20;
/// Frame bytes around the payload: [`FRAME_HEAD`] plus the checksum.
const FRAME_OVERHEAD: usize = FRAME_HEAD + 8;
/// Frame kind: a full per-replica checkpoint.
const FRAME_CHECKPOINT: u32 = 0;
/// Frame kind: one superstep's delta (updated lists + values).
const FRAME_DELTA: u32 = 1;

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

/// One parsed frame of a generation file, held only while a resumed run
/// replays it.
#[derive(Clone, Debug, PartialEq)]
struct FrameData {
    kind: u32,
    step: u64,
    payload: Vec<u8>,
}

/// Encodes one self-delimiting frame: head, the payload `fill` writes,
/// and the checksum over both (hashed in place — no payload copy).
fn encode_frame(kind: u32, step: u64, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    fill(&mut out);
    let payload_len = (out.len() - FRAME_HEAD) as u64;
    out[12..FRAME_HEAD].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn encode_header(generation: u64, checkpoint_step: u64, workers: u64, vertices: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for word in [generation, checkpoint_step, workers, vertices] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// A parsed generation file: the verified header and the longest valid
/// frame prefix.
struct ParsedStore {
    generation: u64,
    workers: u64,
    vertices: u64,
    /// Frame 0 (the checkpoint) and every delta frame that verified.
    frames: Vec<FrameData>,
    /// Bytes of the file the header and `frames` cover.
    valid_len: usize,
    /// Why parsing stopped before the end of the file (the scrub reason
    /// of the tail to truncate); `None` when the file ends on a frame.
    tail: Option<String>,
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Parses the frame starting at `pos` and returns it with the position
/// just past it. The error string is a scrub reason.
fn parse_frame(buf: &[u8], pos: usize) -> Result<(FrameData, usize), &'static str> {
    const TORN: &str = "truncated mid-frame";
    let kind = read_u32(buf, pos).ok_or(TORN)?;
    let step = read_u64(buf, pos + 4).ok_or(TORN)?;
    let payload_len = read_u64(buf, pos + 12).ok_or(TORN)?;
    // A corrupted length must neither overflow nor pass for a short file.
    let end = usize::try_from(payload_len)
        .ok()
        .and_then(|len| (pos + FRAME_HEAD).checked_add(len))
        .filter(|end| *end <= buf.len())
        .ok_or(TORN)?;
    let sum = read_u64(buf, end).ok_or(TORN)?;
    if sum != fnv1a(&buf[pos..end]) {
        return Err("frame checksum mismatch");
    }
    let frame = FrameData {
        kind,
        step,
        payload: buf[pos + FRAME_HEAD..end].to_vec(),
    };
    Ok((frame, end + 8))
}

/// Parses a generation file. The header and frame 0 must verify — the
/// error string is then the scrub reason condemning the generation.
/// Past frame 0 the longest valid prefix of delta frames is returned and
/// [`ParsedStore::tail`] says why it ended early, if it did.
fn parse_store(buf: &[u8]) -> Result<ParsedStore, String> {
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
    let generation = read_u64(buf, 8).ok_or("truncated header")?;
    let checkpoint_step = read_u64(buf, 16).ok_or("truncated header")?;
    let workers = read_u64(buf, 24).ok_or("truncated header")?;
    let vertices = read_u64(buf, 32).ok_or("truncated header")?;
    let (frame0, mut pos) = parse_frame(buf, HEADER_LEN).map_err(|e| format!("{e} (frame 0)"))?;
    if frame0.kind != FRAME_CHECKPOINT || frame0.step != checkpoint_step {
        return Err("frame 0 is not the header's checkpoint".into());
    }
    let mut frames = vec![frame0];
    let mut tail = None;
    while pos < buf.len() {
        let reason = match parse_frame(buf, pos) {
            Ok((frame, next)) if frame.kind == FRAME_DELTA => {
                frames.push(frame);
                pos = next;
                continue;
            }
            Ok((frame, _)) => format!("unexpected frame kind {}", frame.kind),
            Err(reason) => reason.to_string(),
        };
        tail = Some(format!(
            "{reason} (frame {}): tail cut at byte {pos} of {}",
            frames.len(),
            buf.len()
        ));
        break;
    }
    Ok(ParsedStore {
        generation,
        workers,
        vertices,
        frames,
        valid_len: pos,
        tail,
    })
}

/// One repair the scrub pass made at open: a condemned generation, or a
/// torn tail cut back to the last whole frame.
#[derive(Clone, Debug)]
pub(crate) struct ScrubReport {
    /// The damaged generation number (from the filename).
    pub(crate) generation: u64,
    /// What the scrub found.
    pub(crate) reason: String,
    /// `true`: the generation was condemned and an older one remained to
    /// fall back to. `false`: either nothing older remained, or only the
    /// tail was cut and the generation itself was loaded.
    pub(crate) fallback: bool,
}

/// Outcome of a durable write attempt, for the cluster's bookkeeping.
pub(crate) enum DiskWrite {
    /// Nothing to report: a delta was appended, or the store is
    /// replaying, frozen, or has no generation to append to.
    None,
    /// A new generation was committed (tmp + fsync + rename + directory
    /// fsync all succeeded).
    Committed {
        /// The generation number committed.
        generation: u64,
        /// Frames in the generation file: the checkpoint frame alone.
        frames: u64,
        /// Bytes written and fsynced.
        bytes: u64,
    },
    /// The write or fsync failed — an injected `ioerr@` fault or a real
    /// I/O error. Nothing was committed; the step is a gap in the log
    /// that a resume re-executes.
    Failed {
        /// The failed operation: `"checkpoint"` or `"delta"`.
        op: &'static str,
    },
}

/// The cluster's handle on a durable store: the append handle on the
/// current generation, the replay queue for resumed runs, and the fault
/// wiring. A live session holds no frame payloads. Fully inert when
/// absent — a run without `--durable-dir` never constructs one.
pub(crate) struct DurableSession<V> {
    dir: PathBuf,
    encode: fn(&V, &mut Vec<u8>),
    decode: fn(&mut FrameReader<'_>) -> Option<V>,
    workers: usize,
    vertices: usize,
    /// The newest generation created or loaded, `None` before the first.
    generation: Option<u64>,
    /// Append handle on that generation's file. `None` before the first
    /// generation, and after a failed append that could not be rolled
    /// back (until the next checkpoint opens a fresh generation).
    log: Option<File>,
    /// Length of the file `log` appends to, all of it durable.
    durable_len: u64,
    /// Frames loaded at open that the resumed run has not yet reached;
    /// while any remain the session fast-forwards and writes nothing.
    replay: VecDeque<FrameData>,
    /// The first superstep past the log loaded at open — scripted faults
    /// before it already fired in the original run and must not re-fire.
    pub(crate) resume_frontier: Option<u64>,
    /// Set after `torn@`/`bitrot@` damage is applied: all further writes
    /// are skipped so the at-rest damage survives to the next cold
    /// start. Models the process dying right after the damage landed.
    wedged: bool,
    /// The scripted cold-restart kill switch: persistence freezes at the
    /// first superstep `>= halt_after` and the run degrades to
    /// [`RuntimeError::Halted`].
    halt_after: Option<u64>,
    halted: Option<u64>,
    /// Whether the last replay application matched the re-executed
    /// in-memory state byte-for-byte (always expected; surfaced for a
    /// debug assertion in the cluster).
    pub(crate) last_apply_matched: bool,
}

impl<V> std::fmt::Debug for DurableSession<V> {
    // Manual impl: a derive would demand `V: Debug` even though no field
    // holds a `V`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("durable_len", &self.durable_len)
            .field("replay", &self.replay.len())
            .field("wedged", &self.wedged)
            .field("halt_after", &self.halt_after)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

/// The handle delta frames are appended through. `O_APPEND`, so a write
/// after a rollback `set_len` lands at the new end of the file.
fn open_log(path: &Path) -> io::Result<File> {
    OpenOptions::new().append(true).open(path)
}

impl<V: VertexData> DurableSession<V> {
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
        Ok(DurableSession {
            dir: dir.to_path_buf(),
            encode,
            decode,
            workers,
            vertices,
            generation: None,
            log: None,
            durable_len: 0,
            replay: VecDeque::new(),
            resume_frontier: None,
            wedged: false,
            halt_after,
            halted: None,
            last_apply_matched: true,
        })
    }

    /// Opens an existing store for resume: scrubs the directory, loads
    /// the newest generation whose header and frame 0 verify (cutting a
    /// damaged tail back to its longest valid frame prefix), and queues
    /// its frames for replay. Every repair is reported; no valid
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
        let total = gens.len();
        let mut reports = Vec::new();
        for (i, (gen, path)) in gens.iter().enumerate() {
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
                    // A damaged tail must be off the disk before anything
                    // is appended behind the valid prefix.
                    let log = open_log(path)
                        .and_then(|log| {
                            if parsed.tail.is_some() {
                                log.set_len(parsed.valid_len as u64)?;
                                log.sync_all()?;
                            }
                            Ok(log)
                        })
                        .map_err(|e| format!("not writable: {e}"))?;
                    Ok((parsed, log))
                });
            let (parsed, log) = match loaded {
                Ok(loaded) => loaded,
                Err(reason) => {
                    reports.push(ScrubReport {
                        generation: *gen,
                        reason,
                        fallback: i + 1 < total,
                    });
                    continue;
                }
            };
            if let Some(reason) = parsed.tail {
                reports.push(ScrubReport {
                    generation: *gen,
                    reason,
                    fallback: false,
                });
            }
            let session = DurableSession {
                dir: dir.to_path_buf(),
                encode,
                decode,
                workers,
                vertices,
                generation: Some(*gen),
                log: Some(log),
                durable_len: parsed.valid_len as u64,
                resume_frontier: parsed.frames.last().map(|f| f.step + 1),
                replay: parsed.frames.into(),
                wedged: false,
                halt_after,
                halted: None,
                last_apply_matched: true,
            };
            return Ok((session, reports));
        }
        Err(RuntimeError::DurabilityLost(format!(
            "all {total} generation file(s) in {dir:?} damaged: {}",
            reports
                .iter()
                .map(|r| format!("gen {} ({})", r.generation, r.reason))
                .collect::<Vec<_>>()
                .join(", ")
        )))
    }

    /// Whether the session is still fast-forwarding loaded frames.
    pub(crate) fn replaying(&self) -> bool {
        !self.replay.is_empty()
    }

    /// The superstep the kill switch fired at, if it has.
    pub(crate) fn halted_at(&self) -> Option<u64> {
        self.halted
    }

    fn check_halt(&mut self, step: u64) {
        if self.halted.is_none() {
            if let Some(k) = self.halt_after {
                if step >= k {
                    self.halted = Some(step);
                }
            }
        }
    }

    fn frozen(&self) -> bool {
        self.wedged || self.halted.is_some()
    }

    fn gen_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation}.fck"))
    }

    /// Pops the next queued frame when it is the `kind` frame of `step`.
    /// A frame of a later step stays queued: the steps before it are a
    /// gap in the log (a skipped write) that re-execution fills.
    fn next_replay(&mut self, kind: u32, step: u64) -> Option<Vec<u8>> {
        let front = self.replay.front()?;
        if front.kind != kind || front.step != step {
            return None;
        }
        self.replay.pop_front().map(|f| f.payload)
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

    fn encode_delta(
        &self,
        states: &[WorkerState<V>],
        updated: &[Vec<VertexId>],
        out: &mut Vec<u8>,
    ) {
        (updated.len() as u32).put(out);
        for list in updated {
            (list.len() as u32).put(out);
            for &v in list {
                v.put(out);
            }
        }
        for st in states {
            for list in updated {
                for &v in list {
                    if let Some(val) = st.current.get(v as usize) {
                        (self.encode)(val, out);
                    }
                }
            }
        }
    }

    fn apply_delta(
        &self,
        payload: &[u8],
        states: &mut [WorkerState<V>],
        updated: &mut Vec<Vec<VertexId>>,
    ) -> Option<()> {
        let mut r = FrameReader::new(payload);
        let lists = usize::try_from(u32::take(&mut r)?).ok()?;
        let mut from_disk: Vec<Vec<VertexId>> = Vec::with_capacity(lists);
        for _ in 0..lists {
            let len = usize::try_from(u32::take(&mut r)?).ok()?;
            if len > self.vertices {
                return None;
            }
            let mut ids = Vec::with_capacity(len);
            for _ in 0..len {
                let v = VertexId::take(&mut r)?;
                if v as usize >= self.vertices {
                    return None;
                }
                ids.push(v);
            }
            from_disk.push(ids);
        }
        for st in states.iter_mut() {
            for list in &from_disk {
                for &v in list {
                    let val = (self.decode)(&mut r)?;
                    *st.current.get_mut(v as usize)? = val;
                }
            }
        }
        if r.remaining() != 0 {
            return None;
        }
        *updated = from_disk;
        Some(())
    }

    /// Creates generation `generation` — header plus frame 0 — through
    /// the two-phase commit and returns its append handle and length.
    /// The one whole-file write of the store: deltas only ever append.
    fn persist(
        &self,
        generation: u64,
        step: u64,
        states: &[WorkerState<V>],
    ) -> io::Result<(File, u64)> {
        let mut bytes = encode_header(generation, step, self.workers as u64, self.vertices as u64);
        bytes.extend(encode_frame(FRAME_CHECKPOINT, step, |out| {
            self.encode_checkpoint(states, out)
        }));
        let tmp = self.dir.join(format!("gen-{generation}.tmp"));
        let path = self.gen_path(generation);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // The rename is durable only once the directory is.
        File::open(&self.dir)?.sync_all()?;
        Ok((open_log(&path)?, bytes.len() as u64))
    }

    /// The checkpoint hook, called by `maybe_checkpoint` *before* the
    /// stats/trace/consensus bookkeeping, at the superstep the snapshot
    /// precedes. On a resumed run the loaded checkpoint frame is applied
    /// (disk is authoritative); on a live run a new generation is
    /// committed. Only a [`DiskWrite::Committed`] outcome may feed the
    /// consensus `CheckpointCommit` entry. A failed commit leaves the
    /// session on the previous generation, which keeps taking deltas.
    pub(crate) fn on_checkpoint(
        &mut self,
        step: u64,
        states: &mut [WorkerState<V>],
        ioerr: bool,
        stats: &mut DurabilityStats,
    ) -> Result<DiskWrite, RuntimeError> {
        self.check_halt(step);
        if self.replaying() {
            if let Some(payload) = self.next_replay(FRAME_CHECKPOINT, step) {
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
            }
            return Ok(DiskWrite::None);
        }
        if self.frozen() {
            return Ok(DiskWrite::None);
        }
        if ioerr {
            stats.io_errors += 1;
            return Ok(DiskWrite::Failed { op: "checkpoint" });
        }
        let generation = self.generation.map_or(0, |g| g + 1);
        let Ok((log, bytes)) = self.persist(generation, step, states) else {
            stats.io_errors += 1;
            return Ok(DiskWrite::Failed { op: "checkpoint" });
        };
        self.generation = Some(generation);
        self.log = Some(log);
        self.durable_len = bytes;
        stats.generations_written += 1;
        stats.bytes_fsynced += bytes;
        // Two-generation retention: the predecessor stays (the scrub's
        // fallback target), anything older goes.
        if generation >= 2 {
            let _ = fs::remove_file(self.gen_path(generation - 2));
        }
        Ok(DiskWrite::Committed {
            generation,
            frames: 1,
            bytes,
        })
    }

    /// The delta hook, called by `record_delta` after a compute
    /// superstep's barrier. On a resumed run the loaded delta frame is
    /// applied (overwriting the re-executed state and the `updated`
    /// lists — disk is authoritative); on a live run the one frame is
    /// appended to the generation file and `fdatasync`ed before this
    /// returns.
    pub(crate) fn on_delta(
        &mut self,
        step: u64,
        states: &mut [WorkerState<V>],
        updated: &mut Vec<Vec<VertexId>>,
        ioerr: bool,
        stats: &mut DurabilityStats,
    ) -> Result<DiskWrite, RuntimeError> {
        self.check_halt(step);
        if self.replaying() {
            if let Some(payload) = self.next_replay(FRAME_DELTA, step) {
                let mut reexecuted = Vec::with_capacity(payload.len());
                self.encode_delta(states, updated, &mut reexecuted);
                self.last_apply_matched = reexecuted == payload;
                if !self.last_apply_matched {
                    self.apply_delta(&payload, states, updated).ok_or_else(|| {
                        RuntimeError::DurabilityLost(format!(
                            "generation {} delta frame (step {step}) failed to decode \
                             (vertex codec mismatch?)",
                            self.generation.unwrap_or_default()
                        ))
                    })?;
                }
                stats.resumed_steps += 1;
            }
            return Ok(DiskWrite::None);
        }
        if self.frozen() || self.log.is_none() {
            return Ok(DiskWrite::None);
        }
        if ioerr {
            stats.io_errors += 1;
            return Ok(DiskWrite::Failed { op: "delta" });
        }
        let frame = encode_frame(FRAME_DELTA, step, |out| {
            self.encode_delta(states, updated, out)
        });
        let Some(log) = self.log.as_mut() else {
            return Ok(DiskWrite::None);
        };
        if log.write_all(&frame).and_then(|()| log.sync_data()).is_ok() {
            self.durable_len += frame.len() as u64;
            stats.bytes_fsynced += frame.len() as u64;
            stats.delta_frames += 1;
            return Ok(DiskWrite::None);
        }
        stats.io_errors += 1;
        // Take the partial frame back off the disk; if even that fails,
        // stop appending behind it (the next open's scrub cuts it off).
        let rolled_back = log.set_len(self.durable_len).and_then(|()| log.sync_data());
        if rolled_back.is_err() {
            self.log = None;
        }
        Ok(DiskWrite::Failed { op: "delta" })
    }

    /// Applies scripted at-rest damage (`torn@` / `bitrot@`) to the
    /// newest *committed* generation file and wedges the store so later
    /// writes do not mask it — modeling the process dying right after
    /// the damage landed. `mask` must be nonzero so a bitrot flip is
    /// guaranteed detectable.
    pub(crate) fn damage(&mut self, kind: FaultKind, byte: u64, mask: u8) {
        self.wedged = true;
        self.log = None;
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
            // An explicit offset cuts there (a tear mid-append when it
            // lies in the delta tail). Without one the cut is two thirds
            // into the file but never past frame 0, so the generation is
            // condemned however long its delta tail has grown.
            FaultKind::Torn if byte != 0 => buf.truncate(at),
            FaultKind::Torn => {
                let frame0_end = read_u64(&buf, HEADER_LEN + 12).map_or(buf.len(), |len| {
                    (HEADER_LEN + FRAME_OVERHEAD).saturating_add(len as usize)
                });
                let keep = (HEADER_LEN + 5).max(buf.len() * 2 / 3);
                buf.truncate(keep.min(frame0_end - 1).min(last));
            }
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

    /// A generation file as the session writes it: header, then frames.
    fn store_bytes(generation: u64, frames: &[FrameData]) -> Vec<u8> {
        let mut out = encode_header(generation, frames[0].step, 2, 16);
        for f in frames {
            out.extend(encode_frame(f.kind, f.step, |o| {
                o.extend_from_slice(&f.payload)
            }));
        }
        out
    }

    #[test]
    fn damaged_store_parses_to_an_exact_frame_prefix_or_an_error() {
        let frame = |kind, step, payload: &[u8]| FrameData {
            kind,
            step,
            payload: payload.to_vec(),
        };
        let frames = vec![
            frame(FRAME_CHECKPOINT, 4, &[1, 2, 3, 4]),
            frame(FRAME_DELTA, 4, &[9, 9]),
            frame(FRAME_DELTA, 5, &[]),
            frame(FRAME_DELTA, 7, &[5; 40]),
        ];
        let bytes = store_bytes(3, &frames);
        let parsed = parse_store(&bytes).expect("round-trip");
        assert_eq!(parsed.generation, 3);
        assert_eq!(parsed.workers, 2);
        assert_eq!(parsed.vertices, 16);
        assert_eq!(parsed.frames, frames);
        assert_eq!(parsed.valid_len, bytes.len());
        assert_eq!(parsed.tail, None);

        // Frame i ends at ends[i]; the header and frame 0 end at ends[0].
        let mut ends = Vec::new();
        let mut pos = HEADER_LEN;
        for f in &frames {
            pos += FRAME_OVERHEAD + f.payload.len();
            ends.push(pos);
        }
        // The WAL invariant: damage at byte `at` yields an error when it
        // hits the header or frame 0, else exactly the frames that end
        // at or before it — never an altered frame, never one past it.
        let check = |damaged: &[u8], at: usize, what: &str| {
            let intact = ends.iter().take_while(|end| **end <= at).count();
            match parse_store(damaged) {
                Err(_) => assert_eq!(intact, 0, "{what}: condemned with frame 0 intact"),
                Ok(p) => {
                    assert!(intact >= 1, "{what}: damage in header/frame 0 undetected");
                    assert_eq!(p.frames, frames[..intact], "{what}: not the exact prefix");
                    assert_eq!(p.valid_len, ends[intact - 1], "{what}");
                    assert_eq!(p.tail.is_some(), p.valid_len < damaged.len(), "{what}");
                }
            }
        };
        for at in 0..bytes.len() {
            for mask in [0x01, 0x40, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                check(&bad, at, &format!("flip {mask:#x} at byte {at}"));
            }
        }
        for len in 0..bytes.len() {
            check(&bytes[..len], len, &format!("truncation to {len} bytes"));
        }

        // A v1 file (or any other version) is rejected, not misread.
        let mut v1 = bytes;
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = parse_store(&v1).err().expect("v1 rejected");
        assert!(err.contains("unsupported version 1"), "{err}");
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
            assert!(matches!(out, DiskWrite::Committed { frames: 1, .. }));
            let mut upd = vec![vec![0u32], vec![]];
            let out = s
                .on_delta(step, &mut states, &mut upd, false, &mut stats)
                .unwrap();
            assert!(matches!(out, DiskWrite::None));
        }
        assert_eq!(stats.generations_written, 3);
        assert_eq!(stats.delta_frames, 3);
        let mut gens: Vec<u64> = list_generations(dir.path())
            .into_iter()
            .map(|(g, _)| g)
            .collect();
        gens.sort_unstable();
        assert_eq!(gens, vec![1, 2], "gen 0 removed by retention");
        // Append-only: what was fsynced is what is on disk, once.
        let on_disk = |g: u64| fs::metadata(s.gen_path(g)).unwrap().len();
        assert_eq!(on_disk(2), s.durable_len);
        assert_eq!(stats.bytes_fsynced, 3 * on_disk(2));
        assert!(!s.replaying(), "a live session holds no frames");

        // The newest generation re-opens with its delta tail.
        let (s2, reports) =
            DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
        assert!(reports.is_empty());
        assert_eq!(s2.generation, Some(2));
        assert_eq!(s2.replay.len(), 2, "checkpoint + one delta");
        assert!(s2.replaying());
        assert_eq!(s2.resume_frontier, Some(9));
    }

    #[test]
    fn torn_tail_is_cut_to_the_valid_prefix_and_appended_after() {
        let dir = TempDirGuard::new("durable-tail");
        let mut stats = DurabilityStats::default();
        let mut states = val_states(2, 4);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
        s.on_checkpoint(0, &mut states, false, &mut stats).unwrap();
        let mut lens = vec![s.durable_len];
        for step in 0..3u64 {
            states[1].current[2].b = step as i64 + 1;
            let mut upd = vec![vec![], vec![2u32]];
            s.on_delta(step, &mut states, &mut upd, false, &mut stats)
                .unwrap();
            lens.push(s.durable_len);
        }
        let path = s.gen_path(0);
        drop(s);
        // Tear the third delta mid-frame, as a crash mid-append would.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(lens[3] - 5).unwrap();
        drop(f);

        let (mut s2, reports) =
            DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].fallback, "the generation itself survived");
        assert!(
            reports[0].reason.contains("truncated mid-frame"),
            "{reports:?}"
        );
        assert_eq!(s2.replay.len(), 3, "checkpoint + the two whole deltas");
        assert_eq!(s2.resume_frontier, Some(2));
        assert_eq!(fs::metadata(&path).unwrap().len(), lens[2], "tail off disk");

        // Replay the prefix, then go live: step 2 is appended behind it.
        let mut states = val_states(2, 4);
        let mut resumed = DurabilityStats::default();
        s2.on_checkpoint(0, &mut states, false, &mut resumed)
            .unwrap();
        for step in 0..3u64 {
            states[1].current[2].b = step as i64 + 1;
            let mut upd = vec![vec![], vec![2u32]];
            s2.on_delta(step, &mut states, &mut upd, false, &mut resumed)
                .unwrap();
            assert!(s2.last_apply_matched);
        }
        assert_eq!(resumed.resumed_steps, 2);
        assert_eq!(resumed.delta_frames, 1);
        assert_eq!(resumed.generations_written, 0);
        assert_eq!(fs::metadata(&path).unwrap().len(), lens[3]);
        drop(s2);
        let (s3, reports) =
            DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
        assert!(reports.is_empty(), "{reports:?}");
        assert_eq!(s3.replay.len(), 4);
    }

    #[test]
    fn ioerr_skips_the_commit_and_the_next_one_lands() {
        let dir = TempDirGuard::new("durable-ioerr");
        let mut stats = DurabilityStats::default();
        let mut states = val_states(1, 2);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 1, 2, None, Val::encode, Val::decode).unwrap();
        let out = s.on_checkpoint(0, &mut states, true, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Failed { op: "checkpoint" }));
        assert_eq!(stats.io_errors, 1);
        assert!(list_generations(dir.path()).is_empty(), "nothing committed");
        let out = s.on_checkpoint(1, &mut states, false, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Committed { generation: 0, .. }));
        assert_eq!(list_generations(dir.path()).len(), 1);
        // An injected delta failure writes nothing either.
        let before = s.durable_len;
        let mut upd = vec![vec![0u32]];
        let out = s
            .on_delta(1, &mut states, &mut upd, true, &mut stats)
            .unwrap();
        assert!(matches!(out, DiskWrite::Failed { op: "delta" }));
        assert_eq!(fs::metadata(s.gen_path(0)).unwrap().len(), before);
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
        assert!(matches!(out, DiskWrite::Failed { op: "checkpoint" }));
        assert_eq!(stats.io_errors, 1);
        assert_eq!(stats.generations_written, 1);
        assert_eq!(s.generation, Some(0), "still on the committed generation");
        let mut upd = vec![vec![1u32]];
        s.on_delta(2, &mut states, &mut upd, false, &mut stats)
            .unwrap();
        assert_eq!(stats.delta_frames, 1, "gen 0 keeps taking deltas");
        fs::remove_dir(s.gen_path(1)).unwrap();
        let out = s.on_checkpoint(3, &mut states, false, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Committed { generation: 1, .. }));
    }

    #[test]
    fn torn_and_bitrot_damage_fall_back_to_previous_generation() {
        // Byte 60 lies in frame 0; so does the default (offset-less) tear.
        for (kind, byte) in [
            (FaultKind::Torn, 0),
            (FaultKind::Torn, 60),
            (FaultKind::Bitrot, 60),
        ] {
            let dir = TempDirGuard::new("durable-damage");
            let mut stats = DurabilityStats::default();
            let mut states = val_states(2, 4);
            let mut s: DurableSession<Val> =
                DurableSession::create(dir.path(), 2, 4, None, Val::encode, Val::decode).unwrap();
            s.on_checkpoint(0, &mut states, false, &mut stats).unwrap();
            let mut upd = vec![vec![1u32], vec![]];
            s.on_delta(0, &mut states, &mut upd, false, &mut stats)
                .unwrap();
            s.on_checkpoint(4, &mut states, false, &mut stats).unwrap();
            // A delta tail longer than frame 0 must not pull the default
            // tear out of frame 0.
            for step in 4..12u64 {
                let mut upd = vec![vec![0u32, 1, 2, 3], vec![]];
                s.on_delta(step, &mut states, &mut upd, false, &mut stats)
                    .unwrap();
            }
            // Damage the newest committed generation (gen 1) and verify
            // the wedge freezes later writes.
            s.damage(kind, byte, 0x20);
            let mut upd = vec![vec![2u32], vec![]];
            let frames_before = stats.delta_frames;
            s.on_delta(12, &mut states, &mut upd, false, &mut stats)
                .unwrap();
            assert_eq!(stats.delta_frames, frames_before, "wedged store is frozen");

            let (s2, reports) =
                DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode, Val::decode)
                    .unwrap();
            assert_eq!(
                s2.generation,
                Some(0),
                "fell back to the previous generation"
            );
            assert_eq!(reports.len(), 1, "{kind:?}");
            assert!(reports[0].fallback);
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
        let mut upd = vec![vec![0u32]];
        s.on_delta(2, &mut states, &mut upd, false, &mut stats)
            .unwrap();
        assert!(s.halted_at().is_none());
        s.on_delta(3, &mut states, &mut upd, false, &mut stats)
            .unwrap();
        assert_eq!(s.halted_at(), Some(3));
        assert_eq!(stats.delta_frames, 1, "the halted step never persisted");
    }
}
