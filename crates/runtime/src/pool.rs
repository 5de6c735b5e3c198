//! The persistent worker pool behind the pooled-parallel hot path
//! (DESIGN.md §11).
//!
//! A superstep has three parallel phases — compute, bucketing, the mirror
//! scan — each a few tens of microseconds on a small frontier, so spawning
//! and joining threads per phase (`std::thread::scope`) costs more than the
//! work. A [`WorkerPool`] spawns its threads once; a phase is then one
//! epoch bump on a mutex/condvar pair. Helpers *park* between epochs: a
//! cluster idles between supersteps, queries and sessions for far longer
//! than a phase lasts, and spinning lanes would bill that idle time as CPU.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One round's work: `job(i)` runs task `i`.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// A fixed set of long-lived threads that run one round of tasks at a time.
///
/// The pool has `lanes` lanes: lane 0 is whichever thread calls
/// [`WorkerPool::run`], lanes `1..lanes` are helper threads parked between
/// rounds. Not generic over the vertex type, so one pool serves every
/// cluster of a serving session in turn. Dropping the pool joins its
/// threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Helpers wait here for the next epoch or for shutdown.
    start: Condvar,
    /// The caller waits here for `running == 0`.
    done: Condvar,
}

struct State {
    /// Bumped once per round; a helper runs each epoch exactly once.
    epoch: u64,
    /// The current round's job with its lifetime erased (see
    /// [`WorkerPool::dispatch`]); `None` between rounds.
    job: Option<&'static Job<'static>>,
    tasks: usize,
    /// Helpers that have not finished the current round.
    running: usize,
    /// The lowest-lane helper panic of the current round.
    panic: Option<(usize, Box<dyn Any + Send>)>,
    shutdown: bool,
}

/// Locks ignoring poison. No pool critical section runs caller code, so the
/// state is valid after every assignment; and [`WorkerPool::dispatch`] must
/// not unwind while helpers hold its borrowed job, which a panicking
/// `lock().expect(..)` would do.
fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkerPool {
    /// A pool with `lanes` lanes (`lanes - 1` helper threads; at least one
    /// lane, the caller's).
    pub fn new(lanes: usize) -> WorkerPool {
        let lanes = lanes.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                tasks: 0,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let helpers = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flash-lane-{lane}"))
                    .spawn(move || helper_loop(&shared, lane, lanes))
                    .expect("spawn worker-pool thread")
            })
            .collect();
        WorkerPool { shared, helpers }
    }

    /// Number of lanes, the caller's included.
    pub fn lanes(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Runs `f(i, item)` for the `i`-th item of `items` — task `i` on lane
    /// `i % lanes`, lane 0 being the calling thread — and returns the
    /// outputs in item order once every task has finished.
    ///
    /// `&mut self` makes rounds exclusive: a task cannot reach the pool it
    /// runs on, so lanes never re-enter it.
    ///
    /// # Panics
    /// A panicking task is caught on its lane and resumed here after the
    /// round has drained (the lowest task's panic wins, as joining scoped
    /// threads in order would); the pool stays usable.
    pub fn run<T: Send, Out: Send>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        f: impl Fn(usize, T) -> Out + Sync,
    ) -> Vec<Out> {
        // One slot per task: its input until the task runs, then its output.
        let slots: Vec<Mutex<(Option<T>, Option<Out>)>> = items
            .into_iter()
            .map(|item| Mutex::new((Some(item), None)))
            .collect();
        let slot = |i: usize| slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        self.dispatch(slots.len(), &|i| {
            let item = slot(i).0.take().expect("each task runs exactly once");
            let out = f(i, item);
            slot(i).1 = Some(out);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner).1)
            .map(|out| out.expect("every task ran to completion"))
            .collect()
    }

    /// Runs `job(i)` for `i` in `0..tasks` across the lanes and returns when
    /// all have finished.
    fn dispatch(&mut self, tasks: usize, job: &Job<'_>) {
        let lanes = self.lanes();
        if tasks <= 1 || lanes == 1 {
            (0..tasks).for_each(job);
            return;
        }
        // SAFETY: `job` borrows from the caller's stack frame, and this
        // extends that borrow to `'static` so helper threads can hold it.
        // The contract is `std::thread::scope`'s — borrowed data outlives
        // every thread's use of it — and it holds because (1) helpers reach
        // the reference only through `State::job`, published below together
        // with `running = helpers`, (2) a helper's last use of it precedes
        // its decrement of `running`, and (3) this function neither returns
        // nor unwinds before it has seen `running == 0` and cleared
        // `State::job`: lane 0 runs under `catch_unwind`, and nothing else
        // between the publish and the wait can panic (`lock` ignores
        // poison). `&mut self` rules out a second, overlapping round.
        let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        {
            let mut st = lock(&self.shared);
            st.job = Some(erased);
            st.tasks = tasks;
            st.running = self.helpers.len();
            st.epoch += 1;
        }
        self.shared.start.notify_all();
        let own = catch_unwind(AssertUnwindSafe(|| run_lane(job, 0, lanes, tasks)));
        let mut st = lock(&self.shared);
        while st.running > 0 {
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let helper_panic = st.panic.take();
        drop(st);
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if let Some((_, payload)) = helper_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared).shutdown = true;
        self.shared.start.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper catches every task panic, so a join error would be a
            // bug in the loop itself; `Drop` must not panic over it.
            let _ = helper.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.lanes())
            .finish()
    }
}

/// Lane `lane` of `lanes` runs tasks `lane, lane + lanes, …`.
fn run_lane(job: &Job<'_>, lane: usize, lanes: usize, tasks: usize) {
    (lane..tasks).step_by(lanes).for_each(job);
}

fn helper_loop(shared: &Shared, lane: usize, lanes: usize) {
    let mut seen = 0u64;
    loop {
        let (job, tasks) = {
            let mut st = lock(shared);
            while st.epoch == seen && !st.shutdown {
                st = shared
                    .start
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if st.shutdown {
                return;
            }
            seen = st.epoch;
            (st.job, st.tasks)
        };
        // An epoch is only ever published with a job; the `running`
        // bookkeeping below must happen either way.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(job) = job {
                run_lane(job, lane, lanes, tasks);
            }
        }));
        let mut st = lock(shared);
        if let Err(payload) = result {
            if st.panic.as_ref().is_none_or(|&(l, _)| lane < l) {
                st.panic = Some((lane, payload));
            }
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn runs_every_task_once_in_item_order() {
        for lanes in [1usize, 2, 3, 8] {
            let mut pool = WorkerPool::new(lanes);
            assert_eq!(pool.lanes(), lanes);
            for tasks in [0usize, 1, 2, 5, 17] {
                let mut items: Vec<u32> = (0..tasks as u32).collect();
                let outs = pool.run(items.iter_mut(), |i, x| {
                    *x += 100;
                    (i, *x)
                });
                let expect: Vec<(usize, u32)> = (0..tasks).map(|i| (i, i as u32 + 100)).collect();
                assert_eq!(outs, expect, "lanes={lanes} tasks={tasks}");
            }
        }
    }

    #[test]
    fn tasks_borrow_the_callers_stack() {
        let mut pool = WorkerPool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let sums = pool.run(input.chunks(250), |_, chunk| chunk.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), 499_500);
    }

    fn lane_threads(pool: &mut WorkerPool) -> Vec<ThreadId> {
        // A barrier forces every lane to take exactly one task.
        let barrier = std::sync::Barrier::new(pool.lanes());
        pool.run(0..pool.lanes(), |_, _| {
            barrier.wait();
            std::thread::current().id()
        })
    }

    #[test]
    fn rounds_reuse_the_same_threads_and_the_caller_is_lane_zero() {
        let mut pool = WorkerPool::new(3);
        let first = lane_threads(&mut pool);
        assert_eq!(first[0], std::thread::current().id());
        assert_eq!(first.iter().collect::<HashSet<_>>().len(), 3);
        for _ in 0..50 {
            assert_eq!(lane_threads(&mut pool), first);
        }
    }

    #[test]
    fn a_panicking_lane_surfaces_on_the_caller_and_the_pool_survives() {
        let mut pool = WorkerPool::new(3);
        let before = lane_threads(&mut pool);
        for bad in [0usize, 1, 2] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(0..3usize, |i, _| {
                    if i == bad {
                        panic!("lane {i} failed");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the task panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("lane {bad} failed").as_str())
            );
        }
        // Several lanes panicking in one round: the lowest task's wins.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(0..3usize, |i, _| -> usize { panic!("lane {i} failed") })
        }));
        let payload = caught.expect_err("panics must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("lane 0 failed")
        );
        assert_eq!(
            lane_threads(&mut pool),
            before,
            "same threads, still usable"
        );
    }
}
