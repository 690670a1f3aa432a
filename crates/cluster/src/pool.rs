//! A persistent, per-worker work-stealing compute pool.
//!
//! Each worker machine owns one [`ComputePool`] whose OS threads live as
//! long as the worker itself — a superstep costs two lock operations per
//! task instead of a thread spawn/join and an ad-hoc channel. Jobs are
//! injected round-robin into per-thread deques; a thread pops its own
//! deque from the *front* (FIFO, cache-friendly for the column-sweep
//! batches) and, when empty, steals from the *back* of a sibling's deque
//! (the classic Chase–Lev discipline, here under a plain mutex because
//! task granularity is a whole partition, not a loop iteration).
//!
//! The pool is pure wall-clock machinery: which thread runs which task is
//! nondeterministic, but every result travels through the deterministic
//! merge in [`crate::executor`], so nothing observable depends on the
//! schedule. The [`PoolCounters`] exported through
//! [`crate::MetricsSnapshot::named_counters`] (`pool.tasks_stolen`,
//! `pool.max_queue_depth`) are therefore *observability-only* and excluded
//! from the snapshot equality contract.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Locks ignoring poisoning; every mutex in this crate is locked through
/// here. Pool jobs never unwind (the executor wraps every task in
/// `catch_unwind`), the guarded state is plain data that a panic cannot
/// leave half-updated in a way later readers care about, and a panicking
/// superstep must not wedge a shutdown path that locks after it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Wall-clock pool statistics, shared by every worker's pool of one
/// cluster. Nondeterministic (they depend on the host schedule) — exported
/// for observability, excluded from metric equality.
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    /// Jobs a thread took from a sibling's deque instead of its own.
    pub(crate) tasks_stolen: AtomicU64,
    /// High-water mark of any single per-thread deque.
    pub(crate) max_queue_depth: AtomicU64,
}

/// A unit of work: one partition task, closed over everything it needs.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// One deque per pool thread. Lock order: a queue lock and the gate
    /// lock are never held simultaneously by producers; consumers take
    /// gate → queue, so there is no cycle.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep gate for idle threads.
    gate: Mutex<()>,
    ready: Condvar,
    shutdown: AtomicBool,
    counters: Arc<PoolCounters>,
}

/// Long-lived compute threads for one worker. Dropping the pool drains
/// every queued job, then shuts the threads down and joins them.
pub(crate) struct ComputePool {
    shared: Arc<PoolShared>,
    /// Round-robin injection cursor. The pool is driven by exactly one
    /// worker thread, so a plain `Cell` suffices.
    next: std::cell::Cell<usize>,
    handles: Vec<JoinHandle<()>>,
}

impl ComputePool {
    /// Spawns `threads` pool threads for worker `worker_id`. A failed OS
    /// thread spawn shuts down and joins any threads already started and
    /// returns the error — callers surface it as a typed
    /// [`crate::ClusterError`] instead of panicking mid-boot.
    pub(crate) fn new(
        worker_id: usize,
        threads: usize,
        counters: Arc<PoolCounters>,
    ) -> io::Result<ComputePool> {
        assert!(threads >= 1, "a compute pool needs at least one thread");
        let shared = Arc::new(PoolShared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters,
        });
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let thread_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("dbtf-worker-{worker_id}-compute-{t}"))
                .spawn(move || steal_loop(t, &thread_shared));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(err) => {
                    // Dropping the partial pool joins the threads that did
                    // start, so a failed boot leaks nothing.
                    drop(ComputePool {
                        shared,
                        next: std::cell::Cell::new(0),
                        handles,
                    });
                    return Err(err);
                }
            }
        }
        Ok(ComputePool {
            shared,
            next: std::cell::Cell::new(0),
            handles,
        })
    }

    /// Injects a batch of jobs, spread round-robin across the per-thread
    /// deques, and wakes every idle thread. Returns immediately; callers
    /// track completion themselves (see `BatchSink` in
    /// [`crate::executor`]).
    pub(crate) fn submit(&self, jobs: Vec<Job>) {
        let n = self.shared.queues.len();
        let mut cursor = self.next.get();
        for job in jobs {
            let mut queue = lock(&self.shared.queues[cursor % n]);
            queue.push_back(job);
            self.shared
                .counters
                .max_queue_depth
                .fetch_max(queue.len() as u64, Ordering::Relaxed);
            drop(queue);
            cursor += 1;
        }
        self.next.set(cursor % n);
        // Taking the gate orders this wakeup after any consumer that saw
        // empty queues but has not yet slept.
        drop(lock(&self.shared.gate));
        self.shared.ready.notify_all();
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(lock(&self.shared.gate));
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Body of one pool thread: pop own deque front, steal siblings' backs,
/// sleep when everything is dry. Shutdown is honoured only once every
/// queue is empty, so dropping the pool never abandons queued work.
fn steal_loop(me: usize, shared: &PoolShared) {
    let n = shared.queues.len();
    loop {
        let mut job = lock(&shared.queues[me]).pop_front();
        if job.is_none() {
            for offset in 1..n {
                let victim = (me + offset) % n;
                if let Some(stolen) = lock(&shared.queues[victim]).pop_back() {
                    shared.counters.tasks_stolen.fetch_add(1, Ordering::Relaxed);
                    job = Some(stolen);
                    break;
                }
            }
        }
        match job {
            Some(job) => job(),
            None => {
                let mut gate = lock(&shared.gate);
                loop {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Re-check under the gate: a producer that pushed
                    // between our scan and this lock has either left work
                    // visible here or will notify after we sleep.
                    if shared.queues.iter().any(|q| !lock(q).is_empty()) {
                        break;
                    }
                    gate = match shared.ready.wait(gate) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_every_job_and_survives_reuse() {
        let counters = Arc::new(PoolCounters::default());
        let pool = ComputePool::new(0, 4, Arc::clone(&counters)).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        for _round in 0..3 {
            let n = 64;
            let done = Arc::new((Mutex::new(0usize), Condvar::new()));
            let jobs: Vec<Job> = (0..n)
                .map(|_| {
                    let hits = Arc::clone(&hits);
                    let done = Arc::clone(&done);
                    Box::new(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                        let mut g = lock(&done.0);
                        *g += 1;
                        if *g == n {
                            done.1.notify_one();
                        }
                    }) as Job
                })
                .collect();
            pool.submit(jobs);
            let mut g = lock(&done.0);
            while *g < n {
                g = done.1.wait(g).unwrap();
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 3 * 64);
        assert!(counters.max_queue_depth.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn lock_returns_the_data_after_a_holder_panics() {
        let shared = Arc::new(Mutex::new(1u32));
        let holder = Arc::clone(&shared);
        let joined = std::thread::spawn(move || {
            let _guard = lock(&holder);
            panic!("poison the mutex");
        })
        .join();
        assert!(joined.is_err());
        assert!(shared.is_poisoned());
        *lock(&shared) += 1;
        assert_eq!(*lock(&shared), 2);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counters = Arc::new(PoolCounters::default());
        let pool = ComputePool::new(1, 2, counters).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..32)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.submit(jobs);
        drop(pool); // must finish the backlog before joining
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }
}
