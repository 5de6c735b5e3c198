//! Durable checkpoint store — cold-restart recovery (DESIGN.md §15).
//!
//! The in-memory recovery layer ([`crate::checkpoint`]) survives faults
//! *within one process lifetime*: a whole-process kill loses every
//! superstep of work. A FLASH run is deterministic BSP, so a cold restart
//! re-executes the schedule from step 0 — Pregel's checkpoint and
//! recompute. The disk therefore keeps no copy of the state, only a
//! commitment to it: every checkpoint commits a **generation** holding
//! its step and a digest of the full per-replica vertex state. A restart
//! writes nothing until it reaches the newest valid generation's step,
//! checks its re-executed state against that digest — a mismatch is
//! [`RuntimeError::DurabilityLost`] — and from there runs, and commits,
//! like the killed run.
//!
//! # On-disk format (`FCK1`, version 4)
//!
//! One file per generation, `gen-N.fck`, exactly one 56-byte header:
//!
//! ```text
//! magic "FCK1", version u32, generation u64, checkpoint step u64,
//! workers u64, vertices u64, digest u64,
//! FNV-1a checksum u64 of the preceding 48 bytes
//! ```
//!
//! `digest` is FNV-1a over every replica's state in worker order, each
//! slot through [`DurableValue::encode`]. Every replica, not just the
//! masters: replicas may diverge in non-critical fields under
//! `CriticalOnly` sync. All integers are little-endian.
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
//! generations newest-first. A generation is exactly its header, so any
//! damage — a flipped byte, a cut, a trailing byte — condemns it (a
//! `checkpoint_scrubbed` trace event) and the scrub falls back to the
//! next older one; when none remains the run degrades to
//! [`RuntimeError::DurabilityLost`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::RuntimeError;
use crate::fault::FaultKind;
use crate::state::WorkerState;
use crate::stats::DurabilityStats;
use crate::VertexData;
use flash_graph::hash::{fnv1a, Fnv1a};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every generation file.
pub const MAGIC: [u8; 4] = *b"FCK1";
/// Current format version. Older versions are rejected, not migrated:
/// stores are per-run scratch. Versions 1–3 stored the state itself;
/// version 4 stores its digest.
pub const VERSION: u32 = 4;
/// Length of a generation file, which is exactly its header.
const HEADER_LEN: usize = 56;

/// A field type the [`durable_value!`](crate::durable_value) macro knows
/// how to encode: fixed-width little-endian for scalars, length-prefixed
/// for vectors.
pub trait DurableField {
    /// Appends the encoded field.
    fn put(&self, out: &mut Vec<u8>);
}

macro_rules! durable_scalar {
    ($($t:ty),*) => {$(
        impl DurableField for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
durable_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl DurableField for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl DurableField for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
}

impl<T: DurableField> DurableField for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        for item in self {
            item.put(out);
        }
    }
}

/// A vertex type the durable store can digest. Implement with the
/// [`durable_value!`](crate::durable_value) macro (listing every field),
/// or by hand for exotic layouts. The contract is an unambiguous
/// encoding of the full state: two values that differ in any bit must
/// encode differently, so a resumed run whose state diverged cannot
/// pass the digest check.
pub trait DurableValue: VertexData {
    /// Appends the vertex's full state.
    fn encode(&self, out: &mut Vec<u8>);
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
                let Self { $($f: _),* } = self;
                let _ = &out;
                $($crate::durable::DurableField::put(&self.$f, out);)*
            }
        }
    };
}

/// A generation: the whole file's content.
#[derive(Debug, PartialEq, Eq)]
struct Generation {
    generation: u64,
    step: u64,
    workers: u64,
    vertices: u64,
    digest: u64,
}

impl Generation {
    /// The file bytes: the header fields, then their checksum.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let words = [
            self.generation,
            self.step,
            self.workers,
            self.vertices,
            self.digest,
        ];
        for word in words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses a generation file, which must be exactly one verified
    /// header. The error string is the scrub reason condemning it.
    fn parse(buf: &[u8]) -> Result<Self, String> {
        let Some(head) = buf.get(..HEADER_LEN) else {
            return Err("truncated header".into());
        };
        if head[0..4] != MAGIC {
            return Err("bad magic".into());
        }
        let mut version = [0; 4];
        version.copy_from_slice(&head[4..8]);
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let word = |i: usize| {
            let mut w = [0; 8];
            w.copy_from_slice(&head[8 + 8 * i..16 + 8 * i]);
            u64::from_le_bytes(w)
        };
        if word(5) != fnv1a(&head[..HEADER_LEN - 8]) {
            return Err("header checksum mismatch".into());
        }
        if buf.len() > HEADER_LEN {
            return Err(format!(
                "{} byte(s) after the header",
                buf.len() - HEADER_LEN
            ));
        }
        Ok(Generation {
            generation: word(0),
            step: word(1),
            workers: word(2),
            vertices: word(3),
            digest: word(4),
        })
    }
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
#[derive(Debug)]
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
    /// the next superstep, and until one lands a resume is verified
    /// against the previous generation.
    Failed,
}

/// The cluster's handle on a durable store: the newest generation, the
/// digest a resumed run has yet to reach, and the fault wiring. A live
/// session holds no file handle. Fully inert when absent — a run without
/// `--durable-dir` never constructs one.
pub(crate) struct DurableSession<V> {
    dir: PathBuf,
    encode: fn(&V, &mut Vec<u8>),
    workers: usize,
    vertices: usize,
    /// The newest generation committed or loaded, `None` before the first.
    generation: Option<u64>,
    /// The generation loaded at open, `(step, digest)`, until the resumed
    /// run reaches its step; while it is pending nothing is written.
    pending: Option<(u64, u64)>,
    /// Set after `torn@`/`bitrot@` damage is applied, or a failed digest
    /// check: all further writes are skipped so what is on disk survives
    /// to the next cold start. Models the process dying right after the
    /// damage landed; a run that failed its check commits nothing.
    wedged: bool,
    /// The scripted cold-restart kill switch: persistence freezes at the
    /// first superstep `>= halt_after` and the run degrades to
    /// [`RuntimeError::Halted`].
    halt_after: Option<u64>,
    halted: Option<u64>,
}

impl<V> std::fmt::Debug for DurableSession<V> {
    // Manual impl: a derive would demand `V: Debug` even though no field
    // holds a `V`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSession")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("pending", &self.pending)
            .field("wedged", &self.wedged)
            .field("halt_after", &self.halt_after)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl<V> DurableSession<V> {
    /// The step of the generation loaded at open, until the resumed run
    /// reaches it.
    pub(crate) fn pending_step(&self) -> Option<u64> {
        self.pending.map(|(step, _)| step)
    }
}

impl<V: VertexData> DurableSession<V> {
    fn new(
        dir: &Path,
        workers: usize,
        vertices: usize,
        halt_after: Option<u64>,
        encode: fn(&V, &mut Vec<u8>),
    ) -> Self {
        DurableSession {
            dir: dir.to_path_buf(),
            encode,
            workers,
            vertices,
            generation: None,
            pending: None,
            wedged: false,
            halt_after,
            halted: None,
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
    ) -> Result<Self, RuntimeError> {
        fs::create_dir_all(dir)
            .map_err(|e| RuntimeError::Storage(format!("durable dir {dir:?}: {e}")))?;
        for (_, path) in list_generations(dir) {
            let _ = fs::remove_file(path);
        }
        remove_tmp_files(dir);
        Ok(Self::new(dir, workers, vertices, halt_after, encode))
    }

    /// Opens an existing store for resume: scrubs the directory and
    /// takes the newest generation that verifies as the pending digest.
    /// Every condemned generation is reported; no valid generation
    /// degrades to [`RuntimeError::DurabilityLost`].
    pub(crate) fn open(
        dir: &Path,
        workers: usize,
        vertices: usize,
        halt_after: Option<u64>,
        encode: fn(&V, &mut Vec<u8>),
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
                .and_then(|buf| Generation::parse(&buf))
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
                    let mut session = Self::new(dir, workers, vertices, halt_after, encode);
                    session.generation = Some(*gen);
                    session.pending = Some((parsed.step, parsed.digest));
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

    /// FNV-1a over every replica's encoded state, in worker order.
    fn digest(&self, states: &[WorkerState<V>]) -> u64 {
        let mut hash = Fnv1a::new();
        let mut buf = Vec::new();
        for v in states.iter().flat_map(|st| &st.current) {
            buf.clear();
            (self.encode)(v, &mut buf);
            hash.update(&buf);
        }
        hash.finish()
    }

    /// Writes generation `generation` through the two-phase commit and
    /// returns its length in bytes.
    fn persist(&self, generation: u64, step: u64, states: &[WorkerState<V>]) -> io::Result<u64> {
        let bytes = Generation {
            generation,
            step,
            workers: self.workers as u64,
            vertices: self.vertices as u64,
            digest: self.digest(states),
        }
        .encode();
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
    /// generation's step; there its re-executed state must match the
    /// generation's digest, else the run ends in
    /// [`RuntimeError::DurabilityLost`]. From there the run commits like a
    /// live one — starting with a new generation at that very step, as
    /// the killed run did, which also replaces a condemned newer file.
    /// Only a [`DiskWrite::Committed`] outcome may feed the consensus
    /// `CheckpointCommit` entry.
    pub(crate) fn on_checkpoint(
        &mut self,
        step: u64,
        states: &[WorkerState<V>],
        ioerr: bool,
        stats: &mut DurabilityStats,
    ) -> Result<DiskWrite, RuntimeError> {
        self.halt_check(step);
        match self.pending.take() {
            Some((at, digest)) if at == step => {
                let reexecuted = self.digest(states);
                if reexecuted != digest {
                    self.wedged = true;
                    return Err(RuntimeError::DurabilityLost(format!(
                        "generation {} committed digest {digest:#018x} at step {step}, \
                         but the re-executed state digests to {reexecuted:#018x}",
                        self.generation.unwrap_or_default()
                    )));
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
    fn durable_value_encodes_every_field_in_order() {
        let v = Val {
            a: 7,
            b: -9,
            c: 2.5,
            d: true,
            e: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut want = Vec::new();
        want.extend_from_slice(&7u32.to_le_bytes());
        want.extend_from_slice(&(-9i64).to_le_bytes());
        want.extend_from_slice(&2.5f64.to_le_bytes());
        want.push(1);
        want.extend_from_slice(&3u64.to_le_bytes());
        for x in [1u32, 2, 3] {
            want.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(buf, want);

        // A unit struct costs zero bytes.
        let mut buf = Vec::new();
        Unit.encode(&mut buf);
        assert!(buf.is_empty());
    }

    /// A generation is exactly its header, so every flipped byte (three
    /// masks), every cut and any trailing byte condemns it.
    #[test]
    fn damaged_store_parses_to_an_exact_frame_prefix_or_an_error() {
        let gen = Generation {
            generation: 3,
            step: 4,
            workers: 2,
            vertices: 16,
            digest: 0x0123_4567_89ab_cdef,
        };
        let bytes = gen.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(Generation::parse(&bytes), Ok(gen));

        for at in 0..bytes.len() {
            for mask in [0x01, 0x40, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                assert!(
                    Generation::parse(&bad).is_err(),
                    "flip {mask:#x} at byte {at}"
                );
            }
        }
        for len in 0..bytes.len() {
            assert!(
                Generation::parse(&bytes[..len]).is_err(),
                "cut to {len} bytes"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        let err = Generation::parse(&long).expect_err("trailing byte condemns");
        assert!(err.contains("1 byte(s) after"), "{err}");

        // An older file (or any other version) is rejected, not misread.
        for version in 1u32..=3 {
            let mut old = bytes.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            let err = Generation::parse(&old).expect_err("old version rejected");
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
            DurableSession::create(dir.path(), 2, 4, None, Val::encode).unwrap();
        // Three checkpoints: gen 0, 1, 2 — retention keeps the last two.
        for step in [0u64, 4, 8] {
            states[0].current[0].a = step as u32;
            let out = s.on_checkpoint(step, &states, false, &mut stats).unwrap();
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
        // Each file is exactly the header, fsynced once.
        let on_disk = |g: u64| fs::metadata(s.gen_path(g)).unwrap().len();
        assert_eq!(on_disk(2), HEADER_LEN as u64);
        assert_eq!(stats.bytes_fsynced, 3 * HEADER_LEN as u64);

        // The newest generation re-opens as the pending digest. A resumed
        // run writes nothing before reaching its step, and there a
        // diverged state is refused, not committed.
        let open = || DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode).unwrap();
        let (mut s2, reports) = open();
        assert!(reports.is_empty());
        assert_eq!(s2.generation, Some(2));
        assert_eq!(s2.pending_step(), Some(8));
        let mut resumed = DurabilityStats::default();
        let mut diverged = val_states(2, 4);
        for step in [0u64, 4] {
            let out = s2.on_checkpoint(step, &diverged, false, &mut resumed);
            assert!(matches!(out, Ok(DiskWrite::None)));
        }
        let err = s2
            .on_checkpoint(8, &diverged, false, &mut resumed)
            .expect_err("diverged state refused");
        assert!(matches!(err, RuntimeError::DurabilityLost(_)), "{err}");
        assert!(err.to_string().contains("generation 2"), "{err}");
        assert_eq!(resumed, DurabilityStats::default(), "nothing verified");
        assert!(!s2.gen_path(3).exists(), "nothing written");

        // The state the killed run had at step 8 passes and the run
        // commits from there on, the same digest again.
        let (mut s3, _) = open();
        diverged[0].current[0].a = 8;
        let out = s3.on_checkpoint(8, &diverged, false, &mut resumed).unwrap();
        assert!(matches!(out, DiskWrite::Committed { generation: 3, .. }));
        assert_eq!(s3.pending_step(), None);
        assert_eq!(resumed.resumed_steps, 8);
        let parsed = |g| Generation::parse(&fs::read(s3.gen_path(g)).unwrap()).unwrap();
        let (loaded, committed) = (parsed(2), parsed(3));
        assert_eq!(
            (committed.step, committed.digest),
            (loaded.step, loaded.digest),
            "the verified state, again"
        );
    }

    #[test]
    fn ioerr_skips_the_commit_and_the_next_one_lands() {
        let dir = TempDirGuard::new("durable-ioerr");
        let mut stats = DurabilityStats::default();
        let states = val_states(1, 2);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 1, 2, None, Val::encode).unwrap();
        let out = s.on_checkpoint(0, &states, true, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Failed));
        assert_eq!(stats.io_errors, 1);
        assert!(list_generations(dir.path()).is_empty(), "nothing committed");
        let out = s.on_checkpoint(1, &states, false, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Committed { generation: 0, .. }));
        assert_eq!(list_generations(dir.path()).len(), 1);
    }

    #[test]
    fn failed_generation_commit_is_not_reported_and_the_log_carries_on() {
        let dir = TempDirGuard::new("durable-commit-fail");
        let mut stats = DurabilityStats::default();
        let states = val_states(1, 2);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 1, 2, None, Val::encode).unwrap();
        s.on_checkpoint(0, &states, false, &mut stats).unwrap();
        // A real failure after the tmp file is written: the rename target
        // is occupied by a directory.
        fs::create_dir(s.gen_path(1)).unwrap();
        let out = s.on_checkpoint(2, &states, false, &mut stats).unwrap();
        assert!(matches!(out, DiskWrite::Failed));
        assert_eq!(stats.io_errors, 1);
        assert_eq!(stats.generations_written, 1);
        assert_eq!(s.generation, Some(0), "still on the committed generation");
        fs::remove_dir(s.gen_path(1)).unwrap();
        let out = s.on_checkpoint(3, &states, false, &mut stats).unwrap();
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
            let states = val_states(2, 4);
            let mut s: DurableSession<Val> =
                DurableSession::create(dir.path(), 2, 4, None, Val::encode).unwrap();
            s.on_checkpoint(0, &states, false, &mut stats).unwrap();
            s.on_checkpoint(4, &states, false, &mut stats).unwrap();
            // Damage the newest committed generation (gen 1) and verify
            // the wedge freezes later writes.
            s.damage(kind, byte, 0x20);
            let out = s.on_checkpoint(8, &states, false, &mut stats).unwrap();
            assert!(matches!(out, DiskWrite::None), "wedged store is frozen");
            assert_eq!(stats.generations_written, 2);

            let (s2, reports) =
                DurableSession::<Val>::open(dir.path(), 2, 4, None, Val::encode).unwrap();
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
        let err = DurableSession::<Val>::open(dir.path(), 1, 2, None, Val::encode).unwrap_err();
        assert!(matches!(err, RuntimeError::DurabilityLost(_)), "{err}");

        // A lone damaged generation is scrubbed and then nothing remains.
        fs::write(dir.path().join("gen-0.fck"), b"FCK1garbage").unwrap();
        let err = DurableSession::<Val>::open(dir.path(), 1, 2, None, Val::encode).unwrap_err();
        assert!(matches!(err, RuntimeError::DurabilityLost(_)), "{err}");
    }

    #[test]
    fn geometry_mismatch_is_scrubbed_not_loaded() {
        let dir = TempDirGuard::new("durable-geometry");
        let mut stats = DurabilityStats::default();
        let states = val_states(2, 4);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 2, 4, None, Val::encode).unwrap();
        s.on_checkpoint(0, &states, false, &mut stats).unwrap();
        // Re-open with a different cluster geometry: the generation is
        // valid bytes but unusable, so it must be scrubbed.
        let err = DurableSession::<Val>::open(dir.path(), 3, 4, None, Val::encode).unwrap_err();
        assert!(matches!(err, RuntimeError::DurabilityLost(_)), "{err}");
        assert!(err.to_string().contains("geometry mismatch"), "{err}");
    }

    #[test]
    fn halt_after_freezes_persistence() {
        let dir = TempDirGuard::new("durable-halt");
        let mut stats = DurabilityStats::default();
        let states = val_states(1, 2);
        let mut s: DurableSession<Val> =
            DurableSession::create(dir.path(), 1, 2, Some(3), Val::encode).unwrap();
        s.on_checkpoint(0, &states, false, &mut stats).unwrap();
        assert_eq!(s.halt_check(2), None);
        assert_eq!(s.halt_check(3), Some(3));
        assert_eq!(s.halt_check(4), Some(3), "the first halted step sticks");
        s.on_checkpoint(4, &states, false, &mut stats).unwrap();
        assert_eq!(stats.generations_written, 1, "nothing persists after");
    }
}
