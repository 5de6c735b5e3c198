//! Cross-crate tests of the durable checkpoint store: a run killed after
//! **every** superstep must re-execute bit-identically and pass the disk's
//! digest check, any cut or flipped byte of a generation must condemn it
//! and fall back to the previous valid generation, injected I/O errors
//! must stay invisible to results, the store must write nothing but its
//! generation headers, a store with nothing valid left — or a digest the
//! re-execution does not match — must degrade to a clean
//! `RuntimeError::DurabilityLost`, never a panic or a different answer —
//! and all of it must hold with worker, control-plane and channel faults
//! firing in the same run.

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

/// Runs `run` clean (no durable store, no faults), then once per
/// superstep `k`: halts a durable run under the fault plan `faults` (if
/// any) at `k` (the scripted kill switch), resumes from the on-disk store
/// under the same plan, and requires the resumed result and superstep
/// count to match the clean run exactly. Reports, summed over the kill
/// points, the step whose state the disk's digest confirmed and the
/// supersteps past it up to the kill that no generation covered.
fn assert_resumes_after_every_kill<T, F>(name: &str, faults: Option<&str>, run: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(ClusterConfig) -> Result<(T, flash_runtime::RunStats), RuntimeError>,
{
    let (clean, clean_stats) = run(base_config(3)).expect("clean run");
    let supersteps = clean_stats.num_supersteps() as u64;
    assert!(supersteps > 1, "{name}: too short to interrupt");
    let faulted = || match faults {
        Some(plan) => base_config(3).faults(FaultPlan::parse(plan).expect("plan parses")),
        None => base_config(3),
    };
    let (mut kills, mut verified, mut uncovered) = (0u64, 0u64, 0u64);
    for k in 1..supersteps {
        let dir = TempDirGuard::new(&format!("durable-{name}-{k}"));
        let halted = run(faulted().durable_dir(dir.path()).halt_after(k));
        let killed_at = match halted {
            Err(RuntimeError::Halted { step }) => step,
            Err(e) => panic!("{name}@{k}: unexpected error {e}"),
            // The kill switch only fires at a durable hook; a run that
            // finished first must still have matched the clean result.
            Ok((out, _)) => {
                assert_eq!(clean, out, "{name}@{k}: uninterrupted durable diverged");
                continue;
            }
        };
        assert!(killed_at >= k, "{name}@{k}");
        let (out, stats) = run(faulted().durable_dir(dir.path()).resume())
            .unwrap_or_else(|e| panic!("{name}@{k}: resume failed: {e}"));
        assert_eq!(clean, out, "{name}@{k}: resumed result diverged");
        assert_eq!(
            clean_stats.num_supersteps(),
            stats.num_supersteps(),
            "{name}@{k}: superstep count diverged"
        );
        let d = &stats.durability;
        assert!(d.resumed_steps <= killed_at, "{name}@{k}: {d:?}");
        assert_eq!(d.delta_frames, 0, "{name}@{k}: {d:?}");
        kills += 1;
        verified += d.resumed_steps;
        uncovered += killed_at - d.resumed_steps;
    }
    println!(
        "{name}: {kills} kills over {supersteps} supersteps — {verified} verified against \
         disk, {uncovered} past the newest generation"
    );
    assert!(verified > 0, "{name}: no kill point verified past step 0");
}

#[test]
fn bfs_resumes_bit_identically_after_kill_at_every_superstep() {
    let g = graph();
    assert_resumes_after_every_kill("bfs", None, |cfg| {
        flash_algos::bfs::run(&g, cfg, 0).map(|o| (o.result, o.stats))
    });
}

#[test]
fn pagerank_resumes_bit_identically_after_kill_at_every_superstep() {
    // Float state: compare the raw f64 bits, not approximate values.
    let g = graph();
    assert_resumes_after_every_kill("pagerank", None, |cfg| {
        flash_algos::pagerank::run(&g, cfg, 5).map(|o| {
            let bits: Vec<u64> = o.result.iter().map(|x| x.to_bits()).collect();
            (bits, o.stats)
        })
    });
}

#[test]
fn sssp_resumes_bit_identically_on_a_weighted_graph() {
    let g = Arc::new(generators::with_random_weights(&graph(), 0.1, 2.0, 4));
    assert_resumes_after_every_kill("sssp", None, |cfg| {
        flash_algos::sssp::run(&g, cfg, 0).map(|o| {
            let bits: Vec<u64> = o.result.iter().map(|x| x.to_bits()).collect();
            (bits, o.stats)
        })
    });
}

/// Every fault family at once: a transient crash, a permanent death and
/// its rejoin, a coordinator crash, a dropped batch and a torn
/// generation. The torn generation at step 5 condemns the newest one, so
/// later kills resume from an older generation; damage scripted after a
/// kill never reaches the disk, since a halted store is a dead process.
#[test]
fn pagerank_resumes_bit_identically_under_composed_faults() {
    let g = graph();
    let plan = "crash@1:w1,die@2:w2,rejoin@6:w2,leader@3,drop@4:w1,torn@5";
    assert_resumes_after_every_kill("pagerank-faulted", Some(plan), |cfg| {
        flash_algos::pagerank::run(&g, cfg, 5).map(|o| {
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
    assert_eq!(d.delta_frames, 0, "{d:?}");
    assert!(d.bytes_fsynced > 0, "{d:?}");
    assert_eq!(d.fallbacks, 0, "{d:?}");
    assert_eq!(d.io_errors, 0, "{d:?}");
    // The plain twin never paid any durability cost.
    assert_eq!(clean_stats.durability, Default::default());
}

#[test]
fn durable_store_writes_checkpoint_frames_only() {
    // A generation is its 56 B header, whatever the state it digests.
    let g = graph();
    let dir = TempDirGuard::new("durable-counts");
    let out = flash_algos::cc::run(&g, base_config(3).durable_dir(dir.path())).expect("durable cc");
    let d = &out.stats.durability;
    assert_eq!(d.delta_frames, 0, "{d:?}");
    let gens = generations(dir.path());
    assert_eq!(gens.len(), 2, "two generations retained: {gens:?}");
    for (gen, path) in &gens {
        let bytes = std::fs::read(path).expect("generation");
        assert_eq!(bytes.len(), HEADER, "gen {gen}");
    }
    // Every generation written was one such file, fsynced once.
    assert_eq!(
        d.bytes_fsynced,
        d.generations_written * HEADER as u64,
        "{d:?}"
    );
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
    assert!(d.fallbacks >= 1, "{plan}: {d:?}");
    assert_eq!(d.fallbacks, scrubbed.len() as u64, "{plan}: {scrubbed:?}");
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
    let clean = flash_algos::bfs::run(&g, base_config(3), 0).expect("clean");
    let dir = TempDirGuard::new("durable-ioerr");
    let sink = Arc::new(CollectSink::new());
    let cfg = base_config(3)
        .durable_dir(dir.path())
        .faults(FaultPlan::parse("ioerr@2").expect("plan"))
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let out = flash_algos::bfs::run(&g, cfg, 0).expect("ioerr is transparent");
    assert_eq!(clean.result, out.result);
    assert!(
        out.stats.durability.io_errors >= 1,
        "{:?}",
        out.stats.durability
    );
    assert!(sink
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::DurableIoError { .. })));
    // The failed commit due at step 2 landed at step 3, which moved every
    // later generation off the even grid a fault-free resume checkpoints
    // on: the resume must still reach the loaded one and persist again.
    let gens: Vec<u64> = generations(dir.path()).iter().map(|g| g.0).collect();
    assert_eq!(gens, [1, 2], "gens 1 and 2 retained");
    let newest = std::fs::read(dir.path().join("gen-2.fck")).expect("gen 2");
    let newest_step = u64::from_le_bytes(newest[16..24].try_into().expect("8 B"));
    assert_eq!(newest_step % 2, 1, "gen 2 lies off the even grid");
    let sink = Arc::new(CollectSink::new());
    let cfg = base_config(3)
        .durable_dir(dir.path())
        .resume()
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let resumed = flash_algos::bfs::run(&g, cfg, 0).expect("resume after ioerr");
    assert_eq!(clean.result, resumed.result);
    assert_eq!(clean.stats.num_supersteps(), resumed.stats.num_supersteps());
    let d = &resumed.stats.durability;
    assert_eq!(
        d.resumed_steps, newest_step,
        "loaded checkpoint reached: {d:?}"
    );
    assert!(d.generations_written >= 1, "progress persisted: {d:?}");
    assert!(sink
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::CheckpointDurable { .. })));
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

/// Halts pagerank at step 12 with two generations on disk and returns
/// their paths.
fn halted_pagerank(g: &Arc<flash_graph::Graph>, dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let halted = flash_algos::pagerank::run(g, base_config(3).durable_dir(dir).halt_after(12), 5);
    assert!(
        matches!(halted, Err(RuntimeError::Halted { .. })),
        "{halted:?}"
    );
    let gens = generations(dir);
    assert_eq!(gens.len(), 2, "{gens:?}");
    gens.into_iter().map(|(_, path)| path).collect()
}

/// Rewrites the header word at byte `at` of the generation file at `path`
/// and recomputes the header checksum, so the scrub accepts the file.
fn rewrite_header(path: &std::path::Path, at: usize, word: &[u8]) {
    let mut bytes = std::fs::read(path).expect("generation");
    bytes[at..at + word.len()].copy_from_slice(word);
    let sum = flash_graph::hash::fnv1a(&bytes[..HEADER - 8]);
    bytes[HEADER - 8..HEADER].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, &bytes).expect("rewrite generation");
}

/// Stores are per-run scratch and never migrated: a generation written by
/// an older build, well checksummed, is refused by its version. Every
/// generation is condemned and the resume ends in `DurabilityLost`.
#[test]
fn older_versions_are_condemned_and_the_resume_degrades_to_durability_lost() {
    let g = graph();
    let dir = TempDirGuard::new("durable-old-version");
    let paths = halted_pagerank(&g, dir.path());
    for version in 1u32..=3 {
        for path in &paths {
            let bytes = std::fs::read(path).expect("generation");
            assert_ne!(bytes[4..8], version.to_le_bytes());
            rewrite_header(path, 4, &version.to_le_bytes());
        }
        let resumed =
            flash_algos::pagerank::run(&g, base_config(3).durable_dir(dir.path()).resume(), 5);
        match resumed {
            Err(RuntimeError::DurabilityLost(msg)) => assert_eq!(
                msg.matches(&format!("(unsupported version {version})"))
                    .count(),
                2,
                "both generations condemned: {msg}"
            ),
            other => panic!("expected DurabilityLost, got {:?}", other.map(|o| o.result)),
        }
    }
}

/// A well-checksummed generation whose digest the re-execution does not
/// reproduce is not silently trusted: the resume re-executes to the
/// generation's step, compares, and ends in `DurabilityLost` naming the
/// generation and the step — never in a different answer. The failed
/// run commits nothing, so a second resume fails the same way.
#[test]
fn tampered_digest_ends_the_resume_in_durability_lost() {
    let g = graph();
    let dir = TempDirGuard::new("durable-tampered");
    let paths = halted_pagerank(&g, dir.path());
    let newest = &paths[1];
    let bytes = std::fs::read(newest).expect("generation");
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8 B"));
    let step = u64::from_le_bytes(bytes[16..24].try_into().expect("8 B"));
    let digest = u64::from_le_bytes(bytes[40..48].try_into().expect("8 B"));
    rewrite_header(newest, 40, &(digest ^ 1).to_le_bytes());
    let tampered = generations(dir.path());

    for attempt in 0..2 {
        let sink = Arc::new(CollectSink::new());
        let cfg = base_config(3)
            .durable_dir(dir.path())
            .resume()
            .sink(Arc::clone(&sink) as Arc<dyn Sink>);
        let resumed = flash_algos::pagerank::run(&g, cfg, 5);
        assert!(
            !sink
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::CheckpointScrubbed { .. })),
            "attempt {attempt}: the scrub accepts the tampered file"
        );
        match resumed {
            Err(RuntimeError::DurabilityLost(msg)) => {
                assert!(msg.contains(&format!("generation {generation}")), "{msg}");
                assert!(msg.contains(&format!("step {step}")), "{msg}");
            }
            other => panic!(
                "attempt {attempt}: expected DurabilityLost, got {:?}",
                other.map(|o| o.result)
            ),
        }
        assert_eq!(generations(dir.path()), tampered, "attempt {attempt}");
    }
}

/// Bytes of a generation file, which is exactly its header.
const HEADER: usize = 56;

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

type Scrubs = Vec<(u64, String)>;

/// Cold-resumes bfs from `dir` and returns the result, the stats and
/// every `CheckpointScrubbed` event as `(generation, reason)`.
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
            EventKind::CheckpointScrubbed { generation, reason } => {
                Some((*generation, reason.clone()))
            }
            _ => None,
        })
        .collect();
    Ok((out.result, out.stats, scrubs))
}

#[test]
fn newest_generation_cut_or_flipped_anywhere_falls_back_bit_identically() {
    // A 6x8 grid: bfs from a corner runs 14 supersteps, so at cadence 4
    // the killed run leaves gen 1 (step 4) and gen 2 (step 8).
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

    // Every cut length, and every byte flipped by a mask that walks the
    // bit positions.
    let damaged = (0..bytes.len())
        .map(|cut| (format!("cut@{cut}"), bytes[..cut].to_vec()))
        .chain((0..bytes.len()).map(|at| {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            (format!("flip@{at}"), flipped)
        }));
    for (what, damaged) in damaged {
        let dir = TempDirGuard::new("durable-cut");
        for (_, path) in &gens {
            let name = path.file_name().expect("file name");
            std::fs::copy(path, dir.path().join(name)).expect("copy generation");
        }
        let target = dir.path().join(newest_path.file_name().expect("file name"));
        std::fs::write(&target, &damaged).expect("damage");

        let (result, stats, scrubs) = resume_bfs(&g, cfg(), dir.path())
            .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(clean.result, result, "{what}: resumed result diverged");
        assert_eq!(
            clean.stats.num_supersteps(),
            stats.num_supersteps(),
            "{what}"
        );
        assert_eq!(scrubs.len(), 1, "{what}: {scrubs:?}");
        assert_eq!(scrubs[0].0, newest, "{what}");
        let d = &stats.durability;
        assert_eq!(d.fallbacks, 1, "{what}: {d:?}");
        assert_eq!(d.resumed_steps, 4, "{what}: verified against gen 1: {d:?}");
        assert!(d.generations_written >= 1, "{what}: {d:?}");

        // The resumed run committed over the condemned file: a second
        // cold start finds nothing left to repair.
        let (again, stats, scrubs) = resume_bfs(&g, cfg(), dir.path())
            .unwrap_or_else(|e| panic!("{what}: second resume failed: {e}"));
        assert_eq!(clean.result, again, "{what}: second resume diverged");
        assert!(scrubs.is_empty(), "{what}: {scrubs:?}");
        assert_eq!(stats.durability.fallbacks, 0, "{what}");
    }
}
