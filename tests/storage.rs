//! Out-of-core block storage: the block engine must be a drop-in,
//! bit-identical replacement for the in-memory engine (DESIGN.md §13).
//!
//! These tests round-trip generated graphs through the on-disk block
//! format, run the scaling algorithms under `ClusterConfig::storage =
//! Block`, and compare every per-vertex result *and* the deterministic
//! run statistics (supersteps, message bytes) against in-memory runs of
//! the same configuration.

use flash_graph::generators;
use flash_graph::Graph;
use flash_runtime::{ClusterConfig, ModePolicy, RuntimeError, StorageMode};
use std::sync::Arc;

/// Serializes `g` to a temporary block file and reopens it through the
/// block reader, cleaning up the file immediately (the open mapping—or
/// heap copy under `FLASH_NO_MMAP`—keeps the data alive).
fn reopen_as_blocks(g: &Graph, tag: &str) -> Arc<Graph> {
    let path = std::env::temp_dir().join(format!(
        "flash_storage_test_{}_{tag}.fgb",
        std::process::id()
    ));
    flash_graph::write_blocks(g, &path).expect("write block file");
    let blk = flash_graph::open_blocks(&path).expect("open block file");
    let _ = std::fs::remove_file(&path);
    Arc::new(blk)
}

fn mem_config(workers: usize) -> ClusterConfig {
    ClusterConfig::with_workers(workers).sequential()
}

fn blk_config(workers: usize) -> ClusterConfig {
    mem_config(workers).storage(StorageMode::Block)
}

/// BFS, CC and PageRank agree bit-for-bit between the engines on a
/// multi-block web graph, and the block runs actually stream blocks.
#[test]
fn block_engine_matches_in_memory_on_multi_block_graph() {
    // ~5 source blocks at the default 4096-vertex block width; ~2×10⁵
    // arcs keeps the debug-profile runtime reasonable.
    let g = Arc::new(generators::web_graph(20_000, 10, 40, 3));
    let blk = reopen_as_blocks(&g, "multi");
    assert!(
        blk.block_handle().is_some(),
        "reopened graph is block-backed"
    );

    let mem = flash_algos::bfs::run(&g, mem_config(4), 0).unwrap();
    let stream = flash_algos::bfs::run(&blk, blk_config(4), 0).unwrap();
    assert_eq!(mem.result, stream.result, "bfs distances");
    assert_eq!(
        mem.stats.num_supersteps(),
        stream.stats.num_supersteps(),
        "bfs supersteps"
    );
    assert_eq!(
        mem.stats.total_bytes(),
        stream.stats.total_bytes(),
        "bfs message bytes"
    );
    assert!(
        stream.stats.bytes_streamed() > 0,
        "block run must stream edge blocks"
    );
    assert_eq!(
        mem.stats.bytes_streamed(),
        0,
        "in-memory run must not stream"
    );

    let mem = flash_algos::cc::run(&g, mem_config(4)).unwrap();
    let stream = flash_algos::cc::run(&blk, blk_config(4)).unwrap();
    assert_eq!(mem.result, stream.result, "cc labels");
    assert_eq!(
        mem.stats.total_bytes(),
        stream.stats.total_bytes(),
        "cc message bytes"
    );

    let mem = flash_algos::pagerank::run(&g, mem_config(4), 5).unwrap();
    let stream = flash_algos::pagerank::run(&blk, blk_config(4), 5).unwrap();
    // Bit-identity, not approximate equality: the streamed kernels visit
    // each vertex's edges in the same order as the in-memory kernels, so
    // even float accumulation must match exactly.
    assert_eq!(
        mem.result.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        stream
            .result
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        "pagerank ranks (bitwise)"
    );
}

/// The storage summary in the run stats reports the block grid and the
/// resident vertex-state footprint.
#[test]
fn storage_summary_reports_blocks_and_resident_state() {
    let g = Arc::new(generators::web_graph(9_000, 8, 12, 9));
    let blk = reopen_as_blocks(&g, "summary");
    let out = flash_algos::bfs::run(&blk, blk_config(2), 0).unwrap();
    let s = &out.stats.storage;
    assert_eq!(s.mode, "block");
    assert!(s.resident_state_bytes > 0, "resident state accounted");
    assert!(
        s.dense_blocks + s.sparse_blocks > 0,
        "grid classified at least one block"
    );
    assert!(s.graph_mapped_bytes > 0, "edge data lives in the mapping");
}

/// Asking for block storage on a purely in-memory graph is a
/// configuration error, not a silent fallback.
#[test]
fn block_storage_without_block_graph_is_rejected() {
    let g = Arc::new(generators::erdos_renyi(50, 200, 1));
    let err = flash_algos::bfs::run(&g, blk_config(2), 0).unwrap_err();
    assert!(
        matches!(err, RuntimeError::Storage(_)),
        "expected RuntimeError::Storage, got {err:?}"
    );
}

/// Weighted adjacency (SSSP) round-trips through the block format too.
#[test]
fn weighted_blocks_match_in_memory() {
    let base = generators::web_graph(6_000, 8, 10, 5);
    let g = Arc::new(generators::with_random_weights(&base, 0.5, 2.0, 7));
    let blk = reopen_as_blocks(&g, "weighted");
    let mem = flash_algos::sssp::run(&g, mem_config(3), 0).unwrap();
    let stream = flash_algos::sssp::run(&blk, blk_config(3), 0).unwrap();
    assert_eq!(
        mem.result.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        stream
            .result
            .iter()
            .map(|d| d.to_bits())
            .collect::<Vec<_>>(),
        "sssp distances (bitwise)"
    );
    assert!(stream.stats.bytes_streamed() > 0);
}

/// The streamed *push* kernel on its own: under `ForceSparse` every
/// `EDGEMAP` of BFS, CC and SSSP goes through `sparse_streamed`, with
/// frontiers on both sides of the list/bit-set switch, and must match the
/// in-memory push kernel bit for bit.
#[test]
fn forced_sparse_block_engine_matches_in_memory() {
    let base = generators::web_graph(9_000, 8, 12, 11);
    let g = Arc::new(generators::with_random_weights(&base, 0.5, 2.0, 13));
    let blk = reopen_as_blocks(&g, "sparse");
    let mem_cfg = || mem_config(3).mode(ModePolicy::ForceSparse);
    let blk_cfg = || blk_config(3).mode(ModePolicy::ForceSparse);

    let mem = flash_algos::bfs::run(&g, mem_cfg(), 0).unwrap();
    let stream = flash_algos::bfs::run(&blk, blk_cfg(), 0).unwrap();
    assert_eq!(mem.result, stream.result, "bfs distances");
    assert_eq!(mem.stats.kind_counts(), stream.stats.kind_counts());
    assert_eq!(mem.stats.kind_counts().1, 0, "no dense step ran");
    assert_eq!(mem.stats.total_bytes(), stream.stats.total_bytes());
    assert!(stream.stats.bytes_streamed() > 0);

    let mem = flash_algos::cc::run(&g, mem_cfg()).unwrap();
    let stream = flash_algos::cc::run(&blk, blk_cfg()).unwrap();
    assert_eq!(mem.result, stream.result, "cc labels");
    assert_eq!(mem.stats.kind_counts(), stream.stats.kind_counts());
    assert_eq!(mem.stats.total_bytes(), stream.stats.total_bytes());

    let mem = flash_algos::sssp::run(&g, mem_cfg(), 0).unwrap();
    let stream = flash_algos::sssp::run(&blk, blk_cfg(), 0).unwrap();
    assert_eq!(
        mem.result.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        stream
            .result
            .iter()
            .map(|d| d.to_bits())
            .collect::<Vec<_>>(),
        "sssp distances (bitwise)"
    );
    assert_eq!(mem.stats.total_bytes(), stream.stats.total_bytes());
}

/// ~10⁶-arc identity check — ignored by default (slow under the debug
/// profile); run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "large graph; run explicitly under --release"]
fn block_engine_matches_in_memory_on_million_arc_graph() {
    let g = Arc::new(generators::rmat(16, 8, Default::default(), 7));
    let blk = reopen_as_blocks(&g, "million");
    let mem = flash_algos::bfs::run(&g, mem_config(4), 0).unwrap();
    let stream = flash_algos::bfs::run(&blk, blk_config(4), 0).unwrap();
    assert_eq!(mem.result, stream.result);
    assert_eq!(mem.stats.total_bytes(), stream.stats.total_bytes());
    assert!(stream.stats.bytes_streamed() > 0);
}
