//! Intra-worker parallelism helper.
//!
//! The paper's workers each drive a pool of threads performing "parallel
//! vertex-centric processing" (§IV-C, Fig. 4b varies this pool from 1 to 32
//! cores). Kernels use [`parallel_chunks`] to split their master list into
//! contiguous chunks processed on separate threads; each chunk returns a
//! buffered result the kernel then commits through the single-threaded
//! [`crate::WorkerCtx`] — keeping update application race-free without
//! atomics, which is exactly the discipline FLASH imposes on distributed
//! updates (reduce functions instead of compare-and-swap).
//!
//! [`parallel_chunks`] runs *inside* a worker's compute lane (and is serial
//! at the default `threads_per_worker = 1`), so it keeps its own scoped
//! threads. The two helpers the runtime itself calls every superstep fan
//! out over the cluster's persistent [`WorkerPool`] instead.

use crate::pool::WorkerPool;

/// Maps contiguous chunks of `items` on up to `threads` threads, returning
/// the per-chunk outputs in order. With `threads <= 1` (or one-element
/// input) it degrades to a plain sequential call, avoiding thread overhead.
pub fn parallel_chunks<T: Sync, Out: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> Out + Sync,
) -> Vec<Out> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items.chunks(chunk).map(|c| s.spawn(|| f(c))).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    })
}

/// Like [`parallel_chunks`] but over *mutable* chunks, one per lane of
/// `pool` (serial without one), with one reusable scratch slot per chunk.
///
/// Each lane receives the starting index of its chunk (`base`), the
/// mutable chunk itself, and exclusive access to `scratch[i]` for chunk
/// `i`. Missing scratch slots are created with `new_scratch`; existing
/// slots are handed back untouched, so callers can pool per-thread buffers
/// across invocations (clear-don't-drop). Outputs come back in chunk
/// order, which makes a deterministic merge trivial: concatenating the
/// per-chunk results in output order reproduces exactly what one thread
/// walking `items` front to back would have produced.
pub fn parallel_scratch_chunks<T: Send, S: Send, Out: Send>(
    pool: Option<&mut WorkerPool>,
    items: &mut [T],
    scratch: &mut Vec<S>,
    new_scratch: impl Fn() -> S,
    f: impl Fn(usize, &mut [T], &mut S) -> Out + Sync,
) -> Vec<Out> {
    let threads = lanes_of(&pool).min(items.len().max(1));
    let chunk = items.len().div_ceil(threads).max(1);
    let n_chunks = items.len().div_ceil(chunk).max(1);
    while scratch.len() < n_chunks {
        scratch.push(new_scratch());
    }
    match pool {
        Some(pool) if threads > 1 => pool.run(
            items.chunks_mut(chunk).zip(scratch.iter_mut()),
            |i, (c, slot)| f(i * chunk, c, slot),
        ),
        _ => vec![f(0, items, &mut scratch[0])],
    }
}

/// Like [`parallel_chunks`] but for an index range, passing each lane of
/// `pool` (serial without one) the sub-range `(start, end)`.
pub fn parallel_ranges<Out: Send>(
    pool: Option<&mut WorkerPool>,
    len: usize,
    f: impl Fn(usize, usize) -> Out + Sync,
) -> Vec<Out> {
    let threads = lanes_of(&pool).min(len.max(1));
    let chunk = len.div_ceil(threads);
    match pool {
        // `t * chunk` can exceed `len` when it is not divisible by
        // `threads` (e.g. len=5, threads=4 → chunk=2 → t=3 starts at 6):
        // clamp and skip the resulting empty tail ranges instead of
        // handing a callback an inverted out-of-bounds range.
        Some(pool) if threads > 1 => pool.run(
            (0..threads)
                .map(|t| ((t * chunk).min(len), ((t + 1) * chunk).min(len)))
                .filter(|(lo, hi)| lo < hi),
            |_, (lo, hi)| f(lo, hi),
        ),
        _ => vec![f(0, len)],
    }
}

fn lanes_of(pool: &Option<&mut WorkerPool>) -> usize {
    pool.as_ref().map_or(1, |p| p.lanes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_in_order() {
        let items: Vec<u32> = (0..101).collect();
        for threads in [1usize, 2, 3, 8, 200] {
            let outs = parallel_chunks(&items, threads, |c| c.to_vec());
            let flat: Vec<u32> = outs.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn sums_match_sequential() {
        let items: Vec<u64> = (0..1000).collect();
        let outs = parallel_chunks(&items, 4, |c| c.iter().sum::<u64>());
        assert_eq!(outs.iter().sum::<u64>(), 499_500);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u32> = vec![];
        let outs = parallel_chunks(&items, 4, |c| c.len());
        assert_eq!(outs, vec![0]);
    }

    /// `None` for one thread, else a pool with that many lanes.
    fn pool(threads: usize) -> Option<WorkerPool> {
        (threads > 1).then(|| WorkerPool::new(threads))
    }

    #[test]
    fn ranges_partition_exactly() {
        for threads in [1usize, 3, 7] {
            let outs = parallel_ranges(pool(threads).as_mut(), 50, |lo, hi| (lo, hi));
            let mut expect = 0;
            for (lo, hi) in outs {
                assert_eq!(lo, expect);
                expect = hi;
            }
            assert_eq!(expect, 50);
        }
    }

    #[test]
    fn zero_len_ranges() {
        let outs = parallel_ranges(pool(8).as_mut(), 0, |lo, hi| hi - lo);
        assert_eq!(outs, vec![0]);
    }

    #[test]
    fn scratch_chunks_cover_everything_in_order() {
        for threads in [1usize, 2, 3, 8, 16] {
            let mut items: Vec<u32> = (0..101).collect();
            let mut scratch: Vec<Vec<u32>> = Vec::new();
            let outs = parallel_scratch_chunks(
                pool(threads).as_mut(),
                &mut items,
                &mut scratch,
                Vec::new,
                |base, chunk, slot| {
                    slot.clear();
                    slot.extend_from_slice(chunk);
                    for x in chunk.iter_mut() {
                        *x += 1000;
                    }
                    base
                },
            );
            // Bases ascend in chunk order and scratch slots concatenate to
            // the original input.
            assert!(outs.windows(2).all(|w| w[0] < w[1]), "threads={threads}");
            let flat: Vec<u32> = scratch.iter().flatten().copied().collect();
            assert_eq!(flat, (0..101).collect::<Vec<u32>>(), "threads={threads}");
            assert!(items.iter().all(|&x| x >= 1000), "chunks were mutable");
        }
    }

    /// The determinism contract the lane-parallel bucketing relies on:
    /// per-thread bucket sets merged in chunk (= ascending worker) order
    /// reproduce the single-threaded bucket order bit for bit.
    #[test]
    fn scratch_chunks_merged_bucket_order_is_deterministic() {
        const BUCKETS: usize = 7;
        let serial: Vec<Vec<(usize, u32)>> = {
            let mut buckets = vec![Vec::new(); BUCKETS];
            for v in 0..500u32 {
                buckets[(v as usize * 31) % BUCKETS].push((v as usize, v));
            }
            buckets
        };
        for threads in [1usize, 2, 3, 5, 16] {
            let mut items: Vec<u32> = (0..500).collect();
            let mut scratch: Vec<Vec<Vec<(usize, u32)>>> = Vec::new();
            parallel_scratch_chunks(
                pool(threads).as_mut(),
                &mut items,
                &mut scratch,
                Vec::new,
                |_base, chunk, set: &mut Vec<Vec<(usize, u32)>>| {
                    set.resize_with(BUCKETS, Vec::new);
                    for &v in chunk.iter() {
                        set[(v as usize * 31) % BUCKETS].push((v as usize, v));
                    }
                },
            );
            let mut merged = vec![Vec::new(); BUCKETS];
            for set in scratch.iter_mut() {
                for (b, local) in set.iter_mut().enumerate() {
                    merged[b].append(local);
                }
            }
            assert_eq!(merged, serial, "threads={threads}");
        }
    }

    #[test]
    fn scratch_slots_are_pooled_across_calls() {
        let mut items: Vec<u32> = (0..64).collect();
        let mut scratch: Vec<Vec<u32>> = Vec::new();
        let mut pool = WorkerPool::new(4);
        parallel_scratch_chunks(
            Some(&mut pool),
            &mut items,
            &mut scratch,
            Vec::new,
            |_, c, slot| {
                slot.extend_from_slice(c);
            },
        );
        let slots_after_first = scratch.len();
        assert!(slots_after_first >= 4);
        let caps: Vec<usize> = scratch.iter().map(Vec::capacity).collect();
        for slot in scratch.iter_mut() {
            slot.clear(); // clear-don't-drop keeps the allocation
        }
        parallel_scratch_chunks(
            Some(&mut pool),
            &mut items,
            &mut scratch,
            Vec::new,
            |_, c, slot| {
                slot.extend_from_slice(c);
            },
        );
        assert_eq!(scratch.len(), slots_after_first, "no new slots allocated");
        for (slot, cap) in scratch.iter().zip(caps) {
            assert!(slot.capacity() >= cap, "allocations were reused");
        }
    }

    #[test]
    fn scratch_chunks_empty_input_is_fine() {
        let mut items: Vec<u32> = vec![];
        let mut scratch: Vec<Vec<u32>> = Vec::new();
        let outs = parallel_scratch_chunks(
            pool(4).as_mut(),
            &mut items,
            &mut scratch,
            Vec::new,
            |base, c, _| (base, c.len()),
        );
        assert_eq!(outs, vec![(0, 0)]);
        assert_eq!(scratch.len(), 1);
    }

    #[test]
    fn ranges_never_invert_on_any_grid_point() {
        // Regression: len=5, threads=4 used to produce the inverted
        // out-of-bounds range (6, 5), which panics on `&items[lo..hi]`.
        for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 101] {
            for threads in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16] {
                let items: Vec<usize> = (0..len).collect();
                let outs = parallel_ranges(pool(threads).as_mut(), len, |lo, hi| {
                    assert!(lo <= hi, "len={len} threads={threads}: ({lo}, {hi})");
                    assert!(hi <= len, "len={len} threads={threads}: ({lo}, {hi})");
                    items[lo..hi].to_vec() // must not panic
                });
                let flat: Vec<usize> = outs.into_iter().flatten().collect();
                assert_eq!(flat, items, "len={len} threads={threads}");
            }
        }
    }
}
