//! Worker-pool lifecycle at the process level (DESIGN.md §11).
//!
//! This file holds exactly one test on purpose: it counts the process's
//! threads, and the harness runs the tests of one binary concurrently.

#![cfg(target_os = "linux")]

use flash_graph::generators;
use flash_runtime::ClusterConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// A cluster joins its pool's threads when it drops: 200 create/run/drop
/// cycles of a 4-worker cluster leave the thread count where it started.
#[test]
fn cluster_cycles_leave_the_thread_count_where_it_started() {
    let g = Arc::new(generators::grid2d(12, 12));
    let before = process_threads();
    for _ in 0..200 {
        let out = flash_algos::bfs::run(&g, ClusterConfig::with_workers(4), 0).unwrap();
        assert_eq!(out.result[143], 22);
    }
    // `join` returns when a thread has exited, a moment before the kernel
    // drops its `/proc` entry: give the last few a bounded time to go. A
    // leak would leave 600 entries that never do.
    let deadline = Instant::now() + Duration::from_secs(5);
    while process_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(process_threads(), before, "pool threads outlived clusters");
}
