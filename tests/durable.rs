//! Cross-crate tests of the durable checkpoint store: a run killed after
//! **every** superstep must resume from disk bit-identically, torn and
//! bit-rotted generations must scrub and fall back to the previous valid
//! generation, a log torn anywhere in its delta tail must resume from the
//! longest valid frame prefix, injected I/O errors must stay invisible to
//! results, and a store with nothing valid left must degrade to a clean
//! `RuntimeError::DurabilityLost`, never a panic.

use flash_graph::generators;
use flash_graph::testutil::TempDirGuard;
use flash_obs::{CollectSink, EventKind, Sink};
use flash_runtime::{ClusterConfig, FaultPlan, RuntimeError};
use std::sync::Arc;

fn graph() -> Arc<flash_graph::Graph> {
    Arc::new(generators::erdos_renyi(120, 500, 11))
}

fn base_config(workers: usize) -> ClusterConfig {
    ClusterConfig::with_workers(workers)
        .sequential()
        .checkpoint_every(2)
}

/// Runs `run` clean (no durable store), then once per superstep `k`:
/// halts a durable run at `k` (the scripted kill switch), resumes from
/// the on-disk store, and requires the resumed result and superstep
/// count to match the clean run exactly.
fn assert_resumes_after_every_kill<T, F>(name: &str, run: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(ClusterConfig) -> Result<(T, flash_runtime::RunStats), RuntimeError>,
{
    let (clean, clean_stats) = run(base_config(3)).expect("clean run");
    let supersteps = clean_stats.num_supersteps() as u64;
    assert!(supersteps > 1, "{name}: too short to interrupt");
    let mut resumed_any = false;
    for k in 1..supersteps {
        let dir = TempDirGuard::new(&format!("durable-{name}-{k}"));
        let halted = run(base_config(3).durable_dir(dir.path()).halt_after(k));
        match halted {
            Err(RuntimeError::Halted { step }) => assert!(step >= k, "{name}@{k}"),
            Err(e) => panic!("{name}@{k}: unexpected error {e}"),
            // The kill switch only fires at a durable hook; a run that
            // finished first must still have matched the clean result.
            Ok((out, _)) => {
                assert_eq!(clean, out, "{name}@{k}: uninterrupted durable diverged");
                continue;
            }
        }
        let (resumed, stats) = run(base_config(3).durable_dir(dir.path()).resume())
            .unwrap_or_else(|e| panic!("{name}@{k}: resume failed: {e}"));
        assert_eq!(clean, resumed, "{name}@{k}: resumed result diverged");
        assert_eq!(
            clean_stats.num_supersteps(),
            stats.num_supersteps(),
            "{name}@{k}: superstep count diverged"
        );
        if stats.durability.resumed_steps > 0 {
            resumed_any = true;
        }
    }
    assert!(resumed_any, "{name}: no kill point replayed any delta");
}

#[test]
fn bfs_resumes_bit_identically_after_kill_at_every_superstep() {
    let g = graph();
    assert_resumes_after_every_kill("bfs", |cfg| {
        flash_algos::bfs::run(&g, cfg, 0).map(|o| (o.result, o.stats))
    });
}

#[test]
fn pagerank_resumes_bit_identically_after_kill_at_every_superstep() {
    // Float state: compare the raw f64 bits, not approximate values.
    let g = graph();
    assert_resumes_after_every_kill("pagerank", |cfg| {
        flash_algos::pagerank::run(&g, cfg, 5).map(|o| {
            let bits: Vec<u64> = o.result.iter().map(|x| x.to_bits()).collect();
            (bits, o.stats)
        })
    });
}

#[test]
fn sssp_resumes_bit_identically_on_a_weighted_graph() {
    let g = Arc::new(generators::with_random_weights(&graph(), 0.1, 2.0, 4));
    assert_resumes_after_every_kill("sssp", |cfg| {
        flash_algos::sssp::run(&g, cfg, 0).map(|o| {
            let bits: Vec<u64> = o.result.iter().map(|x| x.to_bits()).collect();
            (bits, o.stats)
        })
    });
}

#[test]
fn uninterrupted_durable_run_matches_the_plain_run() {
    let g = graph();
    let (clean, clean_stats) = {
        let out = flash_algos::cc::run(&g, base_config(3)).expect("clean cc");
        (out.result, out.stats)
    };
    let dir = TempDirGuard::new("durable-plain");
    let out = flash_algos::cc::run(&g, base_config(3).durable_dir(dir.path())).expect("durable cc");
    assert_eq!(clean, out.result);
    assert_eq!(clean_stats.num_supersteps(), out.stats.num_supersteps());
    let d = &out.stats.durability;
    assert!(d.generations_written >= 1, "{d:?}");
    assert!(d.delta_frames >= 1, "{d:?}");
    assert!(d.bytes_fsynced > 0, "{d:?}");
    assert_eq!(d.fallbacks, 0, "{d:?}");
    assert_eq!(d.io_errors, 0, "{d:?}");
    // The plain twin never paid any durability cost.
    assert_eq!(clean_stats.durability, Default::default());
}

#[test]
fn retention_keeps_at_most_two_generations_and_no_tmp_files() {
    let g = graph();
    let dir = TempDirGuard::new("durable-retention");
    let cfg = base_config(3).checkpoint_every(1).durable_dir(dir.path());
    let out = flash_algos::bfs::run(&g, cfg, 0).expect("bfs");
    assert!(
        out.stats.durability.generations_written >= 3,
        "{:?}",
        out.stats.durability
    );
    let names: Vec<String> = std::fs::read_dir(dir.path())
        .expect("store dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let gens = names.iter().filter(|n| n.ends_with(".fck")).count();
    assert!(
        (1..=2).contains(&gens),
        "expected <=2 generations: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.ends_with(".tmp")),
        "tmp file leaked: {names:?}"
    );
}

/// Runs bfs with a disk-fault plan against a durable store, then
/// resumes cold and checks the scrub fell back to an older generation.
fn assert_scrub_falls_back(plan: &str) {
    let g = graph();
    let clean = flash_algos::bfs::run(&g, base_config(3), 0)
        .expect("clean")
        .result;
    let dir = TempDirGuard::new("durable-scrub");
    let faults = FaultPlan::parse(plan).expect("plan parses");
    let damaged =
        flash_algos::bfs::run(&g, base_config(3).durable_dir(dir.path()).faults(faults), 0)
            .expect("damage lands on disk, not in the compute");
    assert_eq!(clean, damaged.result, "{plan}: damaged run diverged");

    let (resumed, stats, scrubbed) =
        resume_bfs(&g, base_config(3), dir.path()).expect("resume after scrub");
    assert_eq!(clean, resumed, "{plan}: resumed result diverged");
    let d = &stats.durability;
    assert!(d.scrub_repairs >= 1, "{plan}: {d:?}");
    assert!(d.fallbacks >= 1, "{plan}: {d:?}");
    assert!(!scrubbed.is_empty(), "{plan}: no scrub event");
    assert!(
        scrubbed.iter().all(|(_, _, fallback)| *fallback),
        "{plan}: {scrubbed:?}"
    );
}

#[test]
fn torn_write_scrubs_and_falls_back_to_previous_generation() {
    assert_scrub_falls_back("torn@3");
}

#[test]
fn bitrot_scrubs_and_falls_back_to_previous_generation() {
    assert_scrub_falls_back("bitrot@3:b64");
}

#[test]
fn io_errors_skip_the_commit_but_never_touch_results() {
    let g = graph();
    let clean = flash_algos::bfs::run(&g, base_config(3), 0)
        .expect("clean")
        .result;
    let dir = TempDirGuard::new("durable-ioerr");
    let sink = Arc::new(CollectSink::new());
    let cfg = base_config(3)
        .durable_dir(dir.path())
        .faults(FaultPlan::parse("ioerr@2").expect("plan"))
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let out = flash_algos::bfs::run(&g, cfg, 0).expect("ioerr is transparent");
    assert_eq!(clean, out.result);
    assert!(
        out.stats.durability.io_errors >= 1,
        "{:?}",
        out.stats.durability
    );
    assert!(sink
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::DurableIoError { .. })));
    // The store self-healed: a cold resume still works.
    let resumed = flash_algos::bfs::run(&g, base_config(3).durable_dir(dir.path()).resume(), 0)
        .expect("resume after ioerr");
    assert_eq!(clean, resumed.result);
}

#[test]
fn nothing_valid_on_disk_degrades_to_durability_lost() {
    let g = graph();
    // Kill before the first commit: the store directory stays empty.
    let dir = TempDirGuard::new("durable-lost");
    let halted = flash_algos::bfs::run(&g, base_config(3).durable_dir(dir.path()).halt_after(0), 0);
    assert!(
        matches!(halted, Err(RuntimeError::Halted { .. })),
        "{halted:?}"
    );
    let resumed = flash_algos::bfs::run(&g, base_config(3).durable_dir(dir.path()).resume(), 0);
    match resumed {
        Err(RuntimeError::DurabilityLost(msg)) => {
            assert!(!msg.is_empty());
        }
        other => panic!("expected DurabilityLost, got {other:?}"),
    }
}

/// End offsets of a v2 generation file's frames: `[0]` closes the header
/// plus frame 0, each later entry one delta frame.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 48;
    while pos + 20 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes"));
        pos += 20 + len as usize + 8;
        ends.push(pos);
    }
    assert_eq!(ends.last(), Some(&bytes.len()), "file ends on a frame");
    ends
}

/// `(generation, path)` of every generation file in `dir`, oldest first.
fn generations(dir: &std::path::Path) -> Vec<(u64, std::path::PathBuf)> {
    let mut gens: Vec<_> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            let gen = name
                .strip_prefix("gen-")?
                .strip_suffix(".fck")?
                .parse()
                .ok()?;
            Some((gen, p))
        })
        .collect();
    gens.sort();
    gens
}

type Scrubs = Vec<(u64, String, bool)>;

/// Cold-resumes bfs from `dir` and returns the result, the stats and
/// every `CheckpointScrubbed` event as `(generation, reason, fallback)`.
fn resume_bfs(
    g: &Arc<flash_graph::Graph>,
    cfg: ClusterConfig,
    dir: &std::path::Path,
) -> Result<(Vec<u32>, flash_runtime::RunStats, Scrubs), RuntimeError> {
    let sink = Arc::new(CollectSink::new());
    let cfg = cfg
        .durable_dir(dir)
        .resume()
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let out = flash_algos::bfs::run(g, cfg, 0)?;
    let scrubs = sink
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::CheckpointScrubbed {
                generation,
                reason,
                fallback,
            } => Some((*generation, reason.clone(), *fallback)),
            _ => None,
        })
        .collect();
    Ok((out.result, out.stats, scrubs))
}

#[test]
fn newest_generation_cut_anywhere_resumes_from_the_longest_valid_prefix() {
    // A 6x8 grid: bfs from a corner runs 14 supersteps, so at cadence 4
    // the killed run leaves gen 1 (steps 4..7) and gen 2 (steps 8..11).
    let g = Arc::new(generators::grid2d(6, 8));
    let cfg = || base_config(3).checkpoint_every(4);
    let clean = flash_algos::bfs::run(&g, cfg(), 0).expect("clean");
    let master = TempDirGuard::new("durable-cut-master");
    let halted = flash_algos::bfs::run(&g, cfg().durable_dir(master.path()).halt_after(12), 0);
    assert!(
        matches!(halted, Err(RuntimeError::Halted { .. })),
        "{halted:?}"
    );
    let gens = generations(master.path());
    assert_eq!(gens.len(), 2, "an older generation to fall back to");
    let (newest, newest_path) = gens[1].clone();
    let bytes = std::fs::read(&newest_path).expect("newest generation");
    let ends = frame_ends(&bytes);
    assert!(ends.len() >= 4, "frame 0 plus a delta tail: {ends:?}");

    // Every frame boundary (and the header's) -1/+0/+1, plus seeded cuts.
    let mut cuts: Vec<usize> = std::iter::once(48)
        .chain(ends.iter().copied())
        .flat_map(|b| [b - 1, b, b + 1])
        .filter(|c| *c < bytes.len())
        .collect();
    let mut rng = flash_graph::Prng::seed_from_u64(16);
    cuts.extend((0..64).map(|_| rng.gen_range(0..bytes.len())));

    for cut in cuts {
        let dir = TempDirGuard::new("durable-cut");
        for (_, path) in &gens {
            let name = path.file_name().expect("file name");
            std::fs::copy(path, dir.path().join(name)).expect("copy generation");
        }
        let target = dir.path().join(newest_path.file_name().expect("file name"));
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&target)
            .expect("open for cut");
        f.set_len(cut as u64).expect("cut");
        drop(f);

        let (result, stats, scrubs) = resume_bfs(&g, cfg(), dir.path())
            .unwrap_or_else(|e| panic!("cut@{cut}: resume failed: {e}"));
        assert_eq!(clean.result, result, "cut@{cut}: resumed result diverged");
        assert_eq!(
            clean.stats.num_supersteps(),
            stats.num_supersteps(),
            "cut@{cut}"
        );
        let d = &stats.durability;
        if cut < ends[0] {
            // Header or frame 0 damaged: condemned, fall back.
            assert_eq!(scrubs.len(), 1, "cut@{cut}: {scrubs:?}");
            assert_eq!((scrubs[0].0, scrubs[0].2), (newest, true), "cut@{cut}");
            assert_eq!(d.fallbacks, 1, "cut@{cut}: {d:?}");
        } else {
            // Delta tail: the whole frames before the cut survive.
            let whole = ends.iter().filter(|end| **end <= cut).count();
            assert_eq!(d.resumed_steps, whole as u64 - 1, "cut@{cut}: {d:?}");
            assert_eq!(d.fallbacks, 0, "cut@{cut}: {d:?}");
            if ends.contains(&cut) {
                assert!(scrubs.is_empty(), "cut@{cut} is a clean log: {scrubs:?}");
            } else {
                assert_eq!(scrubs.len(), 1, "cut@{cut}: {scrubs:?}");
                assert_eq!((scrubs[0].0, scrubs[0].2), (newest, false), "cut@{cut}");
                let on_disk = std::fs::metadata(&target).expect("target").len();
                assert!(on_disk >= ends[whole - 1] as u64, "cut@{cut}");
            }
        }
        // The resumed run appended behind whatever the scrub kept: every
        // file must now end on a frame, and a second cold start finds
        // nothing left to repair.
        for (_, path) in generations(dir.path()) {
            frame_ends(&std::fs::read(path).expect("generation"));
        }
        let (again, stats, scrubs) = resume_bfs(&g, cfg(), dir.path())
            .unwrap_or_else(|e| panic!("cut@{cut}: second resume failed: {e}"));
        assert_eq!(clean.result, again, "cut@{cut}: second resume diverged");
        assert!(scrubs.is_empty(), "cut@{cut}: {scrubs:?}");
        assert_eq!(stats.durability.scrub_repairs, 0, "cut@{cut}");
    }
}

#[test]
fn scripted_tear_mid_append_keeps_the_generation() {
    // `torn@3:b2000` lands in gen 1's delta tail (frame 0 ends at byte
    // 1516): the scrub cuts the tail and resumes from gen 1 itself.
    let g = graph();
    let clean = flash_algos::bfs::run(&g, base_config(3), 0)
        .expect("clean")
        .result;
    let dir = TempDirGuard::new("durable-tear");
    let faults = FaultPlan::parse("torn@3:b2000").expect("plan parses");
    let torn = flash_algos::bfs::run(&g, base_config(3).durable_dir(dir.path()).faults(faults), 0)
        .expect("damage lands on disk, not in the compute");
    assert_eq!(clean, torn.result);
    let (newest, path) = generations(dir.path()).pop().expect("a generation");
    assert_eq!(std::fs::metadata(path).expect("newest").len(), 2000);

    let (result, stats, scrubs) = resume_bfs(&g, base_config(3), dir.path()).expect("resume");
    assert_eq!(clean, result);
    assert_eq!(scrubs.len(), 1, "{scrubs:?}");
    assert_eq!((scrubs[0].0, scrubs[0].2), (newest, false), "{scrubs:?}");
    let d = &stats.durability;
    assert_eq!((d.scrub_repairs, d.fallbacks), (1, 0), "{d:?}");
    assert!(d.resumed_steps >= 1, "{d:?}");
}
