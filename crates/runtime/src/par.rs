//! The runtime's fan-out helper.
//!
//! Parallelism has one level: one compute lane per worker, and a worker's
//! kernels run serially on its lane (the paper's per-node thread pool is
//! modelled by running several logical workers per host). The one phase
//! the runtime itself splits across the cluster's persistent
//! [`WorkerPool`] is the upd-round bucketing, through
//! [`parallel_scratch_chunks`]; each chunk returns a buffered result the
//! caller merges in chunk order — race-free without atomics, which is the
//! discipline FLASH imposes on distributed updates (reduce functions
//! instead of compare-and-swap).

use crate::pool::WorkerPool;

/// Maps contiguous *mutable* chunks of `items`, one per lane of `pool`
/// (serial without one), with one reusable scratch slot per chunk.
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

fn lanes_of(pool: &Option<&mut WorkerPool>) -> usize {
    pool.as_ref().map_or(1, |p| p.lanes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `None` for one thread, else a pool with that many lanes.
    fn pool(threads: usize) -> Option<WorkerPool> {
        (threads > 1).then(|| WorkerPool::new(threads))
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
}
