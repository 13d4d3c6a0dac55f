//! caf-sched: the task executor that decouples images from OS scheduling.
//!
//! The paper's evaluation runs RandomAccess and FFT at thousands of
//! images; one *runnable* OS thread per image stops being viable long
//! before that. This crate runs each image as a **task**: a carrier
//! thread with a small dedicated stack that executes only while it holds
//! one of `workers` **run slots**. Everyone else is either queued for a
//! slot (ready) or **parked** on the cooperative [`park`]/[`unpark`] API,
//! occupying nothing but its stack.
//!
//! The whole scheduler is a count of free slots and one FIFO queue of
//! ready task ids under one mutex. There are no worker threads: a task
//! that parks, yields or finishes hands its slot *directly* to the head
//! of the queue (one condvar signal, carrier to carrier) or, when nobody
//! is ready, back to the free count; an [`unpark`] takes a free slot for
//! its target or queues it. The queue being FIFO is what keeps a task
//! that loops on [`yield_now`] from starving one an `unpark` has woken,
//! and with one slot it makes the run order a pure function of the
//! program — the executor adds no choice points of its own. That is what
//! the model gate of `caf-fabric` builds on: a gated job always runs on
//! one slot, and a scheduling step is the gate's [`unpark`] of the image
//! it picks followed by a [`park`], so the slot passes straight to the
//! pick and caf-model replay tokens stay valid.
//!
//! # Why carrier threads and not ucontext-style green threads
//!
//! Each task owns one OS thread for its whole life, created with an
//! explicit small stack. The thread sleeps on its own condvar whenever
//! the task holds no slot, so the OS never sees more than `workers`
//! runnable threads. This keeps every thread-local in the stack above
//! working unchanged — `caf_trace`'s per-image ring, the model gate's
//! per-thread id, `RefCell` image state — and stays portable, Miri-clean
//! and TSan-visible, where hand-rolled context switching would be none of
//! those.
//!
//! # The park/unpark contract
//!
//! [`park`] is a *cooperative* blocking point: it gives up the calling
//! task's slot and suspends the task until some other task calls
//! [`unpark`] with its id. A token (permit) makes the pair race-free in
//! the standard way: an `unpark` that arrives while the task is still
//! running is banked and consumed by the next `park`. Off a task, `park`
//! is `std::thread::park`, whose token works the same way.
//!
//! A [`Waker`] is what a waiter leaves behind for whoever makes its
//! condition true: [`waker`] returns the calling task's (or, off a task,
//! the calling thread's), and [`Waker::wake`] is the matching `unpark`.
//! So one wait loop serves both execution modes:
//!
//! ```text
//! receiver:  loop { lock; if pop() { return }; sleeper = waker(); unlock; park() }
//! sender:    lock; push(msg); w = sleeper.take(); unlock; if w { w.wake() }
//! ```
//!
//! It never loses a message: the sender finds the sleeper whenever the
//! receiver saw an empty queue, and a wake that lands before the `park`
//! is banked. It never pays for a wake nobody asked for: a sender that
//! finds no sleeper touches neither the executor nor the kernel. A stray
//! permit (the wake-all of a finishing task, a sleeper taken after the
//! receiver already popped) only makes some later `park` return early,
//! so every caller re-checks its condition and parks again. Under
//! [`ExecMode::Tasks`] OS-blocking at such a site would sleep while
//! holding a slot and — with more images than slots — deadlock the job,
//! so the cooperative form is a correctness requirement, not an
//! optimisation.
//!
//! # Locking rules
//!
//! The slot mutex and a task's mutex are never held together, and every
//! `notify_one` happens after its mutex is released.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How a job's images are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One OS thread per image, scheduled by the kernel — the
    /// paper-faithful default (the runtimes under study are
    /// process-per-image).
    #[default]
    Threads,
    /// Images are tasks that run only while holding one of a bounded
    /// number of run slots; blocking points park cooperatively. This is
    /// what makes P=1024 executable for real.
    Tasks,
}

/// Executor knobs. `Copy` so it can ride inside `CafConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Execution mode (see [`ExecMode`]).
    pub mode: ExecMode,
    /// Run slots under [`ExecMode::Tasks`] — how many tasks execute at
    /// once; `0` = auto (`available_parallelism` capped at 8).
    pub workers: usize,
    /// Nothing reads this. It seeded the steal order of the work-stealing
    /// pool this executor replaced and stays only because the frozen
    /// `benchmark/` sets it by name; it goes at the next benchmark
    /// re-baseline (ROADMAP item 10).
    pub seed: u64,
}

/// Per-task stack size. At P=1024 this is 512 MiB of *virtual* address
/// space — only touched pages are resident.
const STACK_BYTES: usize = 512 << 10;

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { mode: ExecMode::Threads, workers: 0, seed: 0xCAF5_C4ED }
    }
}

impl ExecConfig {
    /// The task-executor mode with automatic slot count.
    pub fn tasks() -> Self {
        ExecConfig { mode: ExecMode::Tasks, ..ExecConfig::default() }
    }

    fn slots(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(4, |p| p.get()).min(8),
            w => w,
        }
    }
}

/// Per-task state. `go` is the slot grant the carrier sleeps on;
/// `permit`/`parked` implement the unpark token and are only ever decided
/// under this mutex, which is what makes park/unpark race-free.
#[derive(Default)]
struct TaskFlags {
    go: bool,
    permit: bool,
    parked: bool,
}

struct TaskCtrl {
    m: Mutex<TaskFlags>,
    /// The carrier sleeps here whenever its task holds no slot.
    cv: Condvar,
}

/// The whole scheduler state. `ready` is non-empty only while `free` is 0.
struct Slots {
    free: usize,
    ready: VecDeque<usize>,
}

struct Inner {
    tasks: Vec<TaskCtrl>,
    slots: Mutex<Slots>,
}

/// No task code ever runs under an executor mutex, so a panicking task
/// cannot poison one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("executor mutex poisoned")
}

impl Inner {
    /// Hand a slot to task `t` and wake its carrier.
    fn grant(&self, t: usize) {
        lock(&self.tasks[t].m).go = true;
        self.tasks[t].cv.notify_one();
    }

    /// Sleep until task `me` is granted a slot.
    fn wait_slot(&self, me: usize) {
        let ctrl = &self.tasks[me];
        let mut g = lock(&ctrl.m);
        while !g.go {
            g = ctrl.cv.wait(g).expect("executor mutex poisoned");
        }
        g.go = false;
    }

    /// Give up the caller's slot: to the task that has been ready longest,
    /// or back to the free count.
    fn release_slot(&self) {
        let next = {
            let mut s = lock(&self.slots);
            let next = s.ready.pop_front();
            if next.is_none() {
                s.free += 1;
            }
            next
        };
        if let Some(t) = next {
            self.grant(t);
        }
    }

    /// Task `t` stopped being parked: it takes a free slot or queues.
    fn make_ready(&self, t: usize) {
        let granted = {
            let mut s = lock(&self.slots);
            if s.free > 0 {
                s.free -= 1;
                true
            } else {
                s.ready.push_back(t);
                false
            }
        };
        if granted {
            self.grant(t);
        }
    }
}

thread_local! {
    /// Set for the lifetime of a carrier thread: (executor, task id).
    /// Task ids are image ranks — every launcher spawns rank `i` as task
    /// `i`.
    static CURRENT: RefCell<Option<(Arc<Inner>, usize)>> = const { RefCell::new(None) };
}

/// Run `f` on the calling task's executor and id, borrowed in place;
/// `None` off a task.
fn with_current<R>(f: impl FnOnce(&Arc<Inner>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(inner, me)| f(inner, *me)))
}

/// Whether the calling thread is a task of a running executor.
pub fn on_task() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Block the caller until it is woken. On a task this is cooperative: it
/// gives up the run slot until [`unpark`] (or a [`Waker`]) makes the
/// task ready, and consumes a banked permit immediately, keeping the
/// slot, if one is pending. Off a task it is `std::thread::park`, ended
/// by the thread's [`Waker`]. Either way it may return early, so callers
/// re-check their condition in a loop.
pub fn park() {
    let parked = with_current(|inner, me| {
        {
            let mut g = lock(&inner.tasks[me].m);
            if g.permit {
                g.permit = false;
                return;
            }
            // Set before the slot goes, so an `unpark` from here on makes
            // us ready instead of banking a permit we would sleep
            // through. If it finds a free slot for us we hold two for a
            // moment; harmless.
            g.parked = true;
        }
        inner.release_slot();
        inner.wait_slot(me);
    });
    if parked.is_none() {
        std::thread::park();
    }
}

/// Make task `target` ready (or bank a permit if it is not parked).
/// Callable only from a task of the same executor; a no-op elsewhere.
pub fn unpark(target: usize) {
    with_current(|inner, _| unpark_on(inner, target));
}

/// [`unpark`] every task of the calling task's executor: what a finishing
/// task does, since it may be what a parked peer waits on. Spurious
/// permits are harmless — a woken task re-checks its condition and parks
/// again.
fn unpark_all() {
    with_current(|inner, _| {
        for t in 0..inner.tasks.len() {
            unpark_on(inner, t);
        }
    });
}

/// Let every ready task run before the caller does: the slot goes to the
/// head of the ready queue and the caller joins its back. Returns at once
/// when nobody is ready. Used for bounded waits — a deadline poll has
/// nobody to unpark it, so it must not fully park.
pub fn yield_now() {
    let yielded = with_current(|inner, me| {
        let next = {
            let mut s = lock(&inner.slots);
            let Some(next) = s.ready.pop_front() else { return };
            s.ready.push_back(me);
            next
        };
        inner.grant(next);
        inner.wait_slot(me);
    });
    if yielded.is_none() {
        std::thread::yield_now();
    }
}

/// What a sleeper leaves for whoever makes its condition true: the
/// [`unpark`] of one task, or of one OS thread off a task. See the
/// module docs for the wait loop it serves.
#[derive(Clone)]
pub struct Waker(Sleeper);

#[derive(Clone)]
enum Sleeper {
    Task(Arc<Inner>, usize),
    Thread(std::thread::Thread),
}

/// The calling task's waker, or the calling thread's off a task.
pub fn waker() -> Waker {
    Waker(
        with_current(|inner, me| Sleeper::Task(Arc::clone(inner), me))
            .unwrap_or_else(|| Sleeper::Thread(std::thread::current())),
    )
}

impl Waker {
    /// End the owner's [`park`], or bank the wake for its next one.
    /// Callable from any thread.
    pub fn wake(self) {
        match self.0 {
            Sleeper::Task(inner, t) => unpark_on(&inner, t),
            Sleeper::Thread(thread) => thread.unpark(),
        }
    }
}

fn unpark_on(inner: &Inner, target: usize) {
    let wake = {
        let mut g = lock(&inner.tasks[target].m);
        if g.parked {
            g.parked = false;
            true
        } else {
            g.permit = true;
            false
        }
    };
    if wake {
        inner.make_ready(target);
    }
}

/// Run `f(rank)` for every rank in `0..n` under the configured execution
/// mode and return the per-rank results in rank order, each wrapped in
/// the same `thread::Result` a `JoinHandle::join` would produce — callers
/// keep their existing `.expect("rank panicked")`-style policy.
///
/// Under [`ExecMode::Threads`] this is exactly the old launcher: one
/// scoped OS thread per rank. Under [`ExecMode::Tasks`] each rank becomes
/// a task as described in the module docs. In both modes rank `i` runs on
/// a thread that executes only rank `i` for the whole job, so
/// thread-local state (trace image id, model-gate thread id) is per-rank
/// state exactly as before.
pub fn run<T, F>(n: usize, cfg: &ExecConfig, f: F) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    match cfg.mode {
        ExecMode::Threads => std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let f = &f;
                    s.spawn(move || f(rank))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        }),
        ExecMode::Tasks => run_tasks(n, cfg, &f),
    }
}

fn run_tasks<T, F>(n: usize, cfg: &ExecConfig, f: &F) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    // The first `running` ranks start holding a slot and the rest queue in
    // rank order, so the job's start is the same on every run.
    let slots = cfg.slots();
    let running = slots.min(n);
    let inner = Arc::new(Inner {
        tasks: (0..n)
            .map(|t| TaskCtrl {
                m: Mutex::new(TaskFlags { go: t < running, ..TaskFlags::default() }),
                cv: Condvar::new(),
            })
            .collect(),
        slots: Mutex::new(Slots { free: slots - running, ready: (running..n).collect() }),
    });
    let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for rank in 0..n {
            let inner = Arc::clone(&inner);
            let results = &results;
            std::thread::Builder::new()
                .name(format!("caf-img-{rank}"))
                .stack_size(STACK_BYTES)
                .spawn_scoped(s, move || {
                    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner), rank)));
                    inner.wait_slot(rank);
                    let r = catch_unwind(AssertUnwindSafe(|| f(rank)));
                    *lock(&results[rank]) = Some(r);
                    // A finished task can be what a parked peer was
                    // waiting on (e.g. its panic published a death): let
                    // everyone re-check, then pass the slot on.
                    unpark_all();
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    inner.release_slot();
                })
                .expect("spawn image task");
        }
    });

    results
        .into_iter()
        .map(|m| lock(&m).take().expect("task finished without a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    fn tasks_cfg(workers: usize) -> ExecConfig {
        ExecConfig { workers, ..ExecConfig::tasks() }
    }

    #[test]
    fn threads_and_tasks_compute_the_same_results() {
        for cfg in [ExecConfig::default(), tasks_cfg(0), tasks_cfg(1), tasks_cfg(3)] {
            let out: Vec<usize> =
                run(17, &cfg, |rank| rank * rank).into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(out, (0..17).map(|r| r * r).collect::<Vec<_>>());
        }
    }

    #[test]
    fn park_unpark_pingpong_through_shared_mailboxes() {
        // A 2-task ping-pong over bare mailboxes: the receive loop is the
        // canonical try-then-park pattern the fabric uses. With a single
        // slot this deadlocks unless park really gives the slot up.
        let mail: Vec<Mutex<VecDeque<u64>>> = (0..2).map(|_| Mutex::new(VecDeque::new())).collect();
        let rounds = 64u64;
        let out = run(2, &tasks_cfg(1), |rank| {
            let peer = 1 - rank;
            let mut got = 0u64;
            for i in 0..rounds {
                if rank == 0 {
                    mail[peer].lock().unwrap().push_back(i);
                    unpark(peer);
                }
                loop {
                    if let Some(v) = mail[rank].lock().unwrap().pop_front() {
                        got += v;
                        break;
                    }
                    park();
                }
                if rank == 1 {
                    mail[peer].lock().unwrap().push_back(i);
                    unpark(peer);
                }
            }
            got
        });
        let want: u64 = (0..rounds).sum();
        for r in out {
            assert_eq!(r.unwrap(), want);
        }
    }

    #[test]
    fn permit_prevents_lost_wakeup() {
        // Unpark strictly before the park: the permit must be banked and
        // the park must return immediately (with one slot, a lost
        // wakeup would hang the job).
        let out = run(2, &tasks_cfg(1), |rank| {
            if rank == 0 {
                unpark(1);
                0
            } else {
                // Give rank 0 a chance to run first.
                yield_now();
                park();
                1
            }
        });
        assert_eq!(out.len(), 2);
        for r in out {
            r.unwrap();
        }
    }

    #[test]
    fn the_one_wait_loop_serves_threads_and_tasks() {
        // The module docs' loop: the receiver registers its waker under
        // the lock and parks; the sender wakes only a registered sleeper.
        struct Slot {
            value: Option<u64>,
            sleeper: Option<Waker>,
        }
        let rounds = 200u64;
        for cfg in [ExecConfig::default(), tasks_cfg(1)] {
            let slots: Vec<Mutex<Slot>> =
                (0..2).map(|_| Mutex::new(Slot { value: None, sleeper: None })).collect();
            let put = |to: usize, v: u64| {
                let w = {
                    let mut s = slots[to].lock().unwrap();
                    s.value = Some(v);
                    s.sleeper.take()
                };
                if let Some(w) = w {
                    w.wake();
                }
            };
            let take = |me: usize| loop {
                {
                    let mut s = slots[me].lock().unwrap();
                    if let Some(v) = s.value.take() {
                        return v;
                    }
                    s.sleeper = Some(waker());
                }
                park();
            };
            let out = run(2, &cfg, |rank| {
                let mut sum = 0;
                for i in 0..rounds {
                    if rank == 0 {
                        put(1, i);
                        sum += take(0);
                    } else {
                        sum += take(1);
                        put(0, i);
                    }
                }
                sum
            });
            for r in out {
                assert_eq!(r.unwrap(), (0..rounds).sum::<u64>(), "{cfg:?}");
            }
        }
    }

    #[test]
    fn a_yielding_task_lets_a_woken_task_run() {
        // One slot. Task 1 parks; task 0 wakes it and then only ever
        // yields. The ready queue is FIFO, so the first yield runs task 1.
        let parking = AtomicBool::new(false);
        let ran = AtomicBool::new(false);
        let out = run(2, &tasks_cfg(1), |rank| {
            if rank == 1 {
                parking.store(true, SeqCst);
                park();
                ran.store(true, SeqCst);
                return 0;
            }
            while !parking.load(SeqCst) {
                yield_now();
            }
            unpark(1);
            let mut yields = 0;
            while !ran.load(SeqCst) && yields < 1000 {
                yield_now();
                yields += 1;
            }
            yields
        });
        assert_eq!(out[0].as_ref().unwrap(), &1, "yields before the woken task ran");
    }

    /// `n` tasks pass tokens round a ring, mixing `unpark`, `yield_now`
    /// and `park`. Returns the most tasks ever seen between two scheduling
    /// calls (a task counts itself out before each call and in after it).
    fn ring_high_water(n: usize, workers: usize) -> usize {
        let mail: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let enter = || high.fetch_max(running.fetch_add(1, SeqCst) + 1, SeqCst);
        let leave = || running.fetch_sub(1, SeqCst);
        let out = run(n, &tasks_cfg(workers), |rank| {
            enter();
            for round in 1..=4 {
                let next = (rank + 1) % n;
                mail[next].fetch_add(1, SeqCst);
                leave();
                unpark(next);
                yield_now();
                enter();
                while mail[rank].load(SeqCst) < round {
                    leave();
                    park();
                    enter();
                }
            }
            leave();
        });
        assert!(out.into_iter().all(|r| r.is_ok()));
        high.load(SeqCst)
    }

    #[test]
    fn never_more_tasks_running_than_slots() {
        for workers in [1, 3] {
            let high = ring_high_water(48, workers);
            assert!((1..=workers).contains(&high), "{high} tasks ran at once on {workers} slots");
        }
    }

    #[test]
    fn more_slots_than_tasks() {
        // Every unpark of a parked task finds a free slot; none queue.
        assert!((1..=3).contains(&ring_high_water(3, 8)));
    }

    #[test]
    fn panics_are_reported_per_rank() {
        let out = run(3, &tasks_cfg(2), |rank| {
            if rank == 1 {
                panic!("task 1 exploded");
            }
            rank
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        let err = out[1].as_ref().unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("exploded"), "unexpected payload: {msg:?}");
    }

    #[test]
    fn a_panicking_task_releases_the_peers_parked_on_it() {
        // Task 0 panics once its three peers have gone to park on it;
        // nothing but its exit-time `unpark_all` ever wakes them.
        for workers in [1, 3] {
            let (waiting, gone) = (AtomicUsize::new(0), AtomicBool::new(false));
            let out = run(4, &tasks_cfg(workers), |rank| {
                if rank == 0 {
                    while waiting.load(SeqCst) < 3 {
                        yield_now();
                    }
                    gone.store(true, SeqCst);
                    panic!("task 0 exploded");
                }
                waiting.fetch_add(1, SeqCst);
                while !gone.load(SeqCst) {
                    park();
                }
            });
            let err = out[0].as_ref().unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"task 0 exploded"));
            assert!(out[1..].iter().all(|r| r.is_ok()));
        }
    }

    #[test]
    fn unpark_all_storm_from_every_task() {
        // A barrier made of nothing but `unpark_all`: every arrival wakes
        // everyone, and all but the last wake-up of a round are spurious.
        let n = 16;
        for workers in [1, 3] {
            let arrived = AtomicUsize::new(0);
            let out = run(n, &tasks_cfg(workers), |_| {
                for round in 1..=8 {
                    arrived.fetch_add(1, SeqCst);
                    unpark_all();
                    while arrived.load(SeqCst) < n * round {
                        park();
                    }
                }
            });
            assert!(out.into_iter().all(|r| r.is_ok()));
        }
    }

    #[test]
    fn the_start_of_a_job_is_the_same_on_every_run() {
        // One slot: tasks that make no scheduling call run in rank order.
        for _ in 0..5 {
            let order = Mutex::new(Vec::new());
            run(8, &tasks_cfg(1), |rank| order.lock().unwrap().push(rank));
            assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        }
        // Three slots: ranks 0–2 hold them from the start (they meet at an
        // OS barrier, which would hang otherwise) and nobody else has run
        // by then.
        let order = Mutex::new(Vec::new());
        let first = std::sync::Barrier::new(3);
        run(8, &tasks_cfg(3), |rank| {
            order.lock().unwrap().push(rank);
            if rank < 3 {
                first.wait();
            }
        });
        let mut head = order.lock().unwrap()[..3].to_vec();
        head.sort_unstable();
        assert_eq!(head, [0, 1, 2]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns hundreds of OS carrier threads")]
    fn many_more_tasks_than_workers() {
        // 512 tasks on ≤ 8 slots, all parking once mid-flight on a
        // neighbour's wakeup ring.
        let n = 512;
        let flags: Vec<Mutex<bool>> = (0..n).map(|_| Mutex::new(false)).collect();
        let out = run(n, &ExecConfig::tasks(), |rank| {
            let next = (rank + 1) % n;
            *flags[next].lock().unwrap() = true;
            unpark(next);
            loop {
                if *flags[rank].lock().unwrap() {
                    break;
                }
                park();
            }
            rank
        });
        assert_eq!(out.into_iter().map(|r| r.unwrap()).sum::<usize>(), n * (n - 1) / 2);
    }

    #[test]
    fn outside_a_task_the_api_is_inert() {
        assert!(!on_task());
        unpark(0);
        unpark_all();
        yield_now();
    }
}
