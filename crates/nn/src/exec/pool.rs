//! The workspace's two parallel primitives: [`WorkerPool`] for
//! long-lived serving and [`ScopedPool`] for borrowed one-call fan-out.
//!
//! [`WorkerPool`] keeps warm per-worker scratch (arenas, sessions) alive
//! across requests: `workers` threads are spawned once, each builds its
//! own state *inside* the thread (so the state never crosses threads and
//! needs no `Send`), and jobs — boxed `FnOnce(&mut S)` closures — arrive
//! through a bounded [`std::sync::mpsc::sync_channel`]. Submission
//! offers both flavors of backpressure: [`WorkerPool::submit`] blocks
//! while the queue is full, [`WorkerPool::try_submit`] returns
//! [`PoolError::Full`] instead.
//!
//! **Dynamic micro-batching:** a woken worker drains up to `max_batch`
//! queued jobs in one queue-lock acquisition and runs them back to back,
//! so under load the per-job synchronization cost amortizes across the
//! batch while an idle pool still serves a lone job immediately. The
//! drain is additionally capped at the worker's fair share of the
//! current queue depth, so a burst submitted to an idle pool fans out
//! across all workers instead of serializing on the first one to wake
//! (batch size adapts to queue depth — hence *dynamic*).
//!
//! Shutdown is graceful everywhere: [`WorkerPool::close`] (and `Drop`)
//! stop accepting new jobs, let the workers drain everything already
//! queued, then join them — no job accepted into the queue is ever
//! dropped.
//!
//! [`ScopedPool`] keeps one set of worker threads and per-worker states
//! alive across *many* ordered-map calls (one spawn/join round total,
//! not one per stage), but its workers live inside a caller-provided
//! [`std::thread::scope`], so jobs may borrow from the enclosing stack
//! frame — no `'static` bound, no `unsafe`. This is the planner's shape
//! (a dozen heterogeneous fan-outs over borrowed calibration data within
//! one `plan()` call) and the batch shape (one state per worker over a
//! borrowed batch, results in input order). With one worker it spawns
//! nothing and is exactly the serial loop. A caller that plans again and
//! again can hand the pool the states it kept
//! ([`ScopedPool::with_states`]) and take them back warm when the pool is
//! done ([`ScopedPool::into_states`]).

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::{mem, thread};

/// A job for a [`WorkerPool`]: a one-shot closure run with exclusive
/// access to one worker's state.
pub type PoolJob<S> = Box<dyn FnOnce(&mut S) + Send>;

/// Submission errors from a [`WorkerPool`]'s bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// The queue is at capacity ([`WorkerPool::try_submit`] only).
    Full,
    /// The pool has been closed; no further jobs are accepted.
    Closed,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Full => write!(f, "worker-pool queue is full"),
            PoolError::Closed => write!(f, "worker pool is closed"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A persistent pool of worker threads, each owning one caller-defined
/// state, fed by a bounded micro-batching job queue.
///
/// See the [module docs](self) for the design; in short:
///
/// * `S` is built by `make_state(worker_index)` **inside** each worker
///   thread — it needs `'static` but not `Send`.
/// * [`submit`](Self::submit) blocks on a full queue,
///   [`try_submit`](Self::try_submit) returns [`PoolError::Full`].
/// * A worker wakeup drains up to `max_batch` queued jobs at once.
/// * [`close`](Self::close) / `Drop` drain the queue, then join.
///
/// The pool itself is `Sync`: any number of producer threads can submit
/// through a shared reference.
pub struct WorkerPool<S> {
    sender: RwLock<Option<SyncSender<PoolJob<S>>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Jobs accepted (counted at submission) but not yet picked up by a
    /// worker. See [`WorkerPool::queue_depth`].
    depth: Arc<AtomicUsize>,
    workers: usize,
    max_batch: usize,
    capacity: usize,
}

impl<S> fmt::Debug for WorkerPool<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("max_batch", &self.max_batch)
            .field("capacity", &self.capacity)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl<S: 'static> WorkerPool<S> {
    /// Spawns `workers` persistent threads (clamped to at least one),
    /// each owning the state returned by `make_state(worker_index)`,
    /// behind a bounded queue of `capacity` jobs (clamped to at least
    /// one). Each wakeup drains up to `max_batch` jobs (clamped to at
    /// least one).
    pub fn new<M>(workers: usize, capacity: usize, max_batch: usize, make_state: M) -> Self
    where
        M: Fn(usize) -> S + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let capacity = capacity.max(1);
        let max_batch = max_batch.max(1);
        let (tx, rx) = mpsc::sync_channel::<PoolJob<S>>(capacity);
        let rx = Arc::new(Mutex::new(rx));
        let make_state = Arc::new(make_state);
        let depth = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|index| {
                let rx = Arc::clone(&rx);
                let make_state = Arc::clone(&make_state);
                let depth = Arc::clone(&depth);
                thread::spawn(move || {
                    let mut state = make_state(index);
                    while let Some(jobs) = next_batch(&rx, &depth, max_batch, workers) {
                        for job in jobs {
                            job(&mut state);
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            sender: RwLock::new(Some(tx)),
            handles: Mutex::new(handles),
            depth,
            workers,
            max_batch,
            capacity,
        }
    }

    /// Clones the live sender, or reports the pool closed.
    fn sender(&self) -> Result<SyncSender<PoolJob<S>>, PoolError> {
        let guard = self.sender.read().unwrap_or_else(PoisonError::into_inner);
        guard.as_ref().cloned().ok_or(PoolError::Closed)
    }

    /// Submits a job, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Closed`] when the pool has been closed.
    pub fn submit(&self, job: PoolJob<S>) -> Result<(), PoolError> {
        let tx = self.sender()?;
        self.depth.fetch_add(1, Ordering::Relaxed);
        tx.send(job).map_err(|_| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            PoolError::Closed
        })
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Full`] when the queue is at capacity (the
    /// job is dropped — nothing already accepted is affected) or
    /// [`PoolError::Closed`] when the pool has been closed.
    pub fn try_submit(&self, job: PoolJob<S>) -> Result<(), PoolError> {
        let tx = self.sender()?;
        self.depth.fetch_add(1, Ordering::Relaxed);
        tx.try_send(job).map_err(|e| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            match e {
                TrySendError::Full(_) => PoolError::Full,
                TrySendError::Disconnected(_) => PoolError::Closed,
            }
        })
    }

    /// Stops accepting jobs, drains everything already queued, and joins
    /// the workers. Idempotent; `Drop` performs the same drain.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (propagated).
    pub fn close(&self) {
        for result in self.begin_close() {
            result.expect("pool worker panicked");
        }
    }
}

impl<S> WorkerPool<S> {
    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The micro-batch ceiling: jobs drained per worker wakeup.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The submission-queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs accepted but not yet picked up by a worker. Counted at
    /// submission, so a submitter currently blocked on a full queue is
    /// included; the value is a point-in-time snapshot.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Shared close path: drop the sender (workers exit once the queue is
    /// drained) and join, returning each worker's join result.
    fn begin_close(&self) -> Vec<thread::Result<()>> {
        drop(self.sender.write().unwrap_or_else(PoisonError::into_inner).take());
        let handles = mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        handles.into_iter().map(JoinHandle::join).collect()
    }
}

impl<S> Drop for WorkerPool<S> {
    fn drop(&mut self) {
        for result in self.begin_close() {
            // Propagate worker panics unless already unwinding (a double
            // panic would abort and mask the original).
            if !thread::panicking() {
                result.expect("pool worker panicked");
            }
        }
    }
}

/// A job for a [`ScopedPool`]: a one-shot closure run with exclusive
/// access to one worker's state, allowed to borrow anything that outlives
/// the scope.
pub type ScopedJob<'scope, S> = Box<dyn FnOnce(&mut S) + Send + 'scope>;

/// A worker pool whose threads live inside a caller-provided
/// [`std::thread::scope`] — the reusable-pool shape for borrow-heavy
/// one-call pipelines (see the [module docs](self)).
///
/// Two modes share one API:
///
/// * **Spawned** ([`ScopedPool::spawned`] with `workers >= 2`): `workers`
///   threads are spawned once into the scope, each building its state
///   in-thread via `make_state(worker_index)`, and every subsequent
///   [`map`](Self::map) feeds them through one shared job queue. Dropping
///   the pool disconnects the queue and joins every worker, so each
///   thread has fully exited (its thread-local allocator arena released
///   for reuse) before the caller goes on.
/// * **Inline** ([`ScopedPool::inline`], or `spawned` with
///   `workers <= 1`): no threads at all; `map` runs the items serially on
///   the calling thread against a single lazily-built state — bit-for-bit
///   the serial path, which is how `workers = 1` planning stays exactly
///   the reference implementation.
///
/// Jobs and results may borrow anything that outlives the scope
/// (`'scope`); data created *between* two `map` calls moves into the jobs
/// by value or via `Arc`.
pub struct ScopedPool<'scope, S> {
    inner: ScopedInner<'scope, S>,
}

enum ScopedInner<'scope, S> {
    Inline {
        state: RefCell<Option<S>>,
        make_state: Box<dyn Fn(usize) -> S + 'scope>,
    },
    Spawned {
        /// `None` once dropped: disconnecting the queue stops the workers.
        tx: Option<mpsc::Sender<ScopedJob<'scope, S>>>,
        handles: Vec<thread::ScopedJoinHandle<'scope, ()>>,
        /// For a pool given its states: the slot each worker puts its
        /// state back into when it exits, in worker order.
        given: Option<Arc<Mutex<Vec<Option<S>>>>>,
    },
}

impl<S> fmt::Debug for ScopedPool<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopedPool").field("workers", &self.workers()).finish()
    }
}

impl<'scope, S> ScopedPool<'scope, S> {
    /// An inline pool: no threads, one lazily-built state, serial `map`.
    pub fn inline(make_state: impl Fn(usize) -> S + 'scope) -> Self {
        ScopedPool {
            inner: ScopedInner::Inline {
                state: RefCell::new(None),
                make_state: Box::new(make_state),
            },
        }
    }

    /// Spawns `workers` pool threads into `scope`, each owning the state
    /// returned by `make_state(worker_index)` (built inside the thread,
    /// so `S` itself need not be `Send`). `workers <= 1` degrades to
    /// [`ScopedPool::inline`] — no thread is spawned and `map` is exactly
    /// the serial loop.
    ///
    /// The pool holds the workers' join handles, so it is dropped before
    /// the scope closes; dropping it disconnects the job queue and joins
    /// the workers.
    pub fn spawned<'env>(
        scope: &'scope thread::Scope<'scope, 'env>,
        workers: usize,
        make_state: impl Fn(usize) -> S + Send + Sync + 'scope,
    ) -> Self
    where
        S: 'scope,
    {
        if workers <= 1 {
            return ScopedPool::inline(make_state);
        }
        let make_state = Arc::new(make_state);
        let (tx, handles) = ScopedPool::spawn(scope, workers, |index| {
            let make_state = Arc::clone(&make_state);
            (move || make_state(index), drop)
        });
        ScopedPool { inner: ScopedInner::Spawned { tx: Some(tx), handles, given: None } }
    }

    /// A pool over the given per-worker states, one worker per state,
    /// which [`ScopedPool::into_states`] hands back. A single state runs
    /// inline, exactly as [`ScopedPool::inline`] does; otherwise each
    /// state moves into its own thread spawned into `scope`.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty.
    pub fn with_states<'env>(scope: &'scope thread::Scope<'scope, 'env>, states: Vec<S>) -> Self
    where
        S: Send + 'scope,
    {
        assert!(!states.is_empty(), "a scoped pool needs at least one state");
        if states.len() == 1 {
            return ScopedPool {
                inner: ScopedInner::Inline {
                    state: RefCell::new(states.into_iter().next()),
                    make_state: Box::new(|_| unreachable!("a given state is never rebuilt")),
                },
            };
        }
        let workers = states.len();
        let given = Arc::new(Mutex::new((0..workers).map(|_| None).collect::<Vec<_>>()));
        let mut states = states.into_iter();
        let (tx, handles) = ScopedPool::spawn(scope, workers, |index| {
            let state = states.next().expect("one state per worker");
            let given = Arc::clone(&given);
            (move || state, move |state| lock(&given)[index] = Some(state))
        });
        ScopedPool { inner: ScopedInner::Spawned { tx: Some(tx), handles, given: Some(given) } }
    }

    /// Spawns `workers` threads into `scope`. For worker `index`,
    /// `worker(index)` gives the closure that makes its state, run first
    /// in the worker's thread, and the one that takes the state when the
    /// queue closes.
    fn spawn<'env, I, F>(
        scope: &'scope thread::Scope<'scope, 'env>,
        workers: usize,
        mut worker: impl FnMut(usize) -> (I, F),
    ) -> (mpsc::Sender<ScopedJob<'scope, S>>, Vec<thread::ScopedJoinHandle<'scope, ()>>)
    where
        S: 'scope,
        I: FnOnce() -> S + Send + 'scope,
        F: FnOnce(S) + Send + 'scope,
    {
        let (tx, rx) = mpsc::channel::<ScopedJob<'scope, S>>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|index| {
                let rx = Arc::clone(&rx);
                let (init, finish) = worker(index);
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        // Hold the queue lock only for the blocking receive;
                        // the job itself runs lock-free.
                        let job = lock(&rx).recv();
                        match job {
                            Ok(job) => job(&mut state),
                            Err(_) => break, // pool dropped and queue drained
                        }
                    }
                    finish(state);
                })
            })
            .collect();
        (tx, handles)
    }

    /// Closes the pool and hands back the workers' states, in worker
    /// order: those [`ScopedPool::with_states`] was given, as the jobs
    /// left them, or an inline pool's one state if it was built. A pool
    /// that built its states in its own threads ([`ScopedPool::spawned`]
    /// with two or more workers) drops them there and hands back none.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked.
    pub fn into_states(mut self) -> Vec<S> {
        match &mut self.inner {
            ScopedInner::Inline { state, .. } => state.get_mut().take().into_iter().collect(),
            ScopedInner::Spawned { tx, handles, given } => {
                drop(tx.take());
                for handle in handles.drain(..) {
                    handle.join().expect("scoped pool worker panicked");
                }
                given.take().map_or_else(Vec::new, |given| {
                    let states = mem::take(&mut *lock(&given));
                    states
                        .into_iter()
                        .map(|s| s.expect("every worker returned its state"))
                        .collect()
                })
            }
        }
    }

    /// The effective worker count: 1 for inline pools.
    pub fn workers(&self) -> usize {
        match &self.inner {
            ScopedInner::Inline { .. } => 1,
            ScopedInner::Spawned { handles, .. } => handles.len(),
        }
    }

    /// The ordered parallel map, by-value flavor: every item moves into
    /// its job, `run` consumes it against a worker state, and the results
    /// come back **in item order** — deterministic for every worker
    /// count, because each item's result depends only on that item
    /// (states are reusable scratch, not accumulators). Items are pulled
    /// from one shared queue, so unevenly-sized jobs balance dynamically
    /// across the workers.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing item's error. In spawned mode
    /// every job still runs to completion first; inline mode stops at the
    /// first error (which is the lowest-indexed one by construction).
    ///
    /// # Panics
    ///
    /// Panics if a job panicked on a worker (the batch can no longer be
    /// completed).
    pub fn map<T, R, E, F>(&self, items: Vec<T>, run: F) -> Result<Vec<R>, E>
    where
        T: Send + 'scope,
        R: Send + 'scope,
        E: Send + 'scope,
        F: Fn(&mut S, T) -> Result<R, E> + Send + Sync + 'scope,
    {
        match &self.inner {
            ScopedInner::Inline { state, make_state } => {
                let mut guard = state.borrow_mut();
                let state = guard.get_or_insert_with(|| make_state(0));
                items.into_iter().map(|item| run(state, item)).collect()
            }
            ScopedInner::Spawned { tx, .. } => {
                let tx = tx.as_ref().expect("the queue is open until the pool drops");
                let n = items.len();
                let run = Arc::new(run);
                let (out_tx, out_rx) = mpsc::channel::<(usize, Result<R, E>)>();
                for (index, item) in items.into_iter().enumerate() {
                    let run = Arc::clone(&run);
                    let out = out_tx.clone();
                    let job: ScopedJob<'scope, S> = Box::new(move |state| {
                        let _ = out.send((index, run(state, item)));
                    });
                    tx.send(job).expect("scoped pool workers exited early");
                }
                drop(out_tx);
                let mut slots: Vec<Option<Result<R, E>>> = (0..n).map(|_| None).collect();
                for (index, result) in out_rx {
                    slots[index] = Some(result);
                }
                // Collecting in item order stops at the lowest-indexed error.
                slots
                    .into_iter()
                    .map(|slot| slot.expect("a scoped-pool worker dropped a job (worker panic?)"))
                    .collect()
            }
        }
    }
}

impl<S> Drop for ScopedPool<'_, S> {
    fn drop(&mut self) {
        if let ScopedInner::Spawned { tx, handles, .. } = &mut self.inner {
            drop(tx.take());
            // Joining (not just letting the scope wait) returns only once
            // each thread has exited, so a pool spawned right after this
            // one reuses these threads' allocator arenas instead of
            // growing new ones. Worker panics propagate unless already
            // unwinding (a double panic would abort and mask the original).
            for handle in handles.drain(..) {
                if handle.join().is_err() && !thread::panicking() {
                    panic!("scoped pool worker panicked");
                }
            }
        }
    }
}

/// Locks `mutex`, recovering the data from a poisoned lock.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks for the next job, then drains more without blocking — all
/// under one queue-lock acquisition. Returns `None` once the channel is
/// disconnected **and** empty, i.e. after a closed pool has been fully
/// drained.
///
/// The drain is capped at `max_batch` **and** at this worker's fair
/// share of the current queue depth (`depth / workers` beyond the first
/// job): a burst that arrives while the whole pool is idle fans out
/// across the workers instead of serializing on whichever one wakes
/// first, while a deep queue still amortizes the lock across a full
/// `max_batch`.
fn next_batch<S>(
    rx: &Mutex<Receiver<PoolJob<S>>>,
    depth: &AtomicUsize,
    max_batch: usize,
    workers: usize,
) -> Option<Vec<PoolJob<S>>> {
    let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
    let first = rx.recv().ok()?;
    depth.fetch_sub(1, Ordering::Relaxed);
    let take = (depth.load(Ordering::Relaxed) / workers + 1).min(max_batch);
    let mut jobs = Vec::with_capacity(take);
    jobs.push(first);
    while jobs.len() < take {
        match rx.try_recv() {
            Ok(job) => {
                depth.fetch_sub(1, Ordering::Relaxed);
                jobs.push(job);
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
        }
    }
    Some(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_drain_on_close() {
        let counter = Arc::new(AtomicU64::new(0));
        let pool: WorkerPool<u64> = WorkerPool::new(3, 4, 2, |_| 0);
        for i in 0..32u64 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move |seen| {
                *seen += 1;
                counter.fetch_add(i, Ordering::Relaxed);
            }))
            .unwrap();
        }
        pool.close();
        assert_eq!(counter.load(Ordering::Relaxed), (0..32).sum::<u64>());
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.submit(Box::new(|_| {})), Err(PoolError::Closed));
    }

    #[test]
    fn try_submit_reports_full_without_losing_accepted_jobs() {
        // One worker stalled on a slow first job: the queue (capacity 2)
        // must fill and then reject, while everything accepted still runs.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        let done = Arc::new(AtomicUsize::new(0));
        let pool: WorkerPool<()> = WorkerPool::new(1, 2, 1, |_| ());
        {
            let gate_rx = Arc::clone(&gate_rx);
            pool.submit(Box::new(move |()| {
                let _ = gate_rx.lock().unwrap().recv_timeout(Duration::from_secs(30));
            }))
            .unwrap();
        }
        // The worker may or may not have picked the stall job up yet, so
        // saturation takes at most capacity + 1 accepted submissions.
        let mut accepted = 0;
        let mut saw_full = false;
        for _ in 0..16 {
            let done = Arc::clone(&done);
            match pool.try_submit(Box::new(move |()| {
                done.fetch_add(1, Ordering::Relaxed);
            })) {
                Ok(()) => accepted += 1,
                Err(PoolError::Full) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(saw_full, "a capacity-2 queue with a stalled worker never reported Full");
        assert!(accepted <= 3, "accepted {accepted} jobs into a capacity-2 queue");
        gate_tx.send(()).unwrap();
        pool.close();
        assert_eq!(done.load(Ordering::Relaxed), accepted, "accepted jobs were dropped");
    }

    #[test]
    fn states_are_built_per_worker_inside_the_thread() {
        // Worker indices must be 0..workers, each state created once.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool: WorkerPool<usize> = {
            let seen = Arc::clone(&seen);
            WorkerPool::new(4, 4, 1, move |index| {
                seen.lock().unwrap().push(index);
                index
            })
        };
        pool.close();
        let mut indices = seen.lock().unwrap().clone();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_requests_are_clamped() {
        let pool: WorkerPool<()> = WorkerPool::new(0, 0, 0, |_| ());
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.max_batch(), 1);
    }

    #[test]
    fn scoped_pool_maps_in_item_order_for_any_worker_count() {
        let items: Vec<usize> = (0..29).collect();
        let serial = {
            let pool: ScopedPool<'_, ()> = ScopedPool::inline(|_| ());
            pool.map(items.clone(), |(), i| Ok::<usize, ()>(i * 3 + 1)).unwrap()
        };
        for workers in [1, 2, 3, 7] {
            let pooled = thread::scope(|scope| {
                let pool = ScopedPool::spawned(scope, workers, |_| ());
                pool.map(items.clone(), |(), i| Ok::<usize, ()>(i * 3 + 1)).unwrap()
            });
            assert_eq!(serial, pooled, "worker count {workers} changed the mapping");
        }
    }

    #[test]
    fn scoped_pool_jobs_may_borrow_the_enclosing_frame() {
        // The whole point of the scoped flavor: no 'static bound on jobs.
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let sums = thread::scope(|scope| {
            let pool = ScopedPool::spawned(scope, 3, |_| ());
            pool.map(vec![0usize, 25, 50, 75], |(), start| {
                Ok::<f32, ()>(data[start..start + 25].iter().sum())
            })
            .unwrap()
        });
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<f32>(), data.iter().sum::<f32>());
    }

    #[test]
    fn scoped_pool_is_reusable_across_many_map_calls() {
        // One spawn round, several heterogeneous stages — the planner's
        // usage pattern. Worker states must persist across calls: exactly
        // one state per worker, however the queue spreads the jobs.
        let built = AtomicUsize::new(0);
        let workers = 2;
        thread::scope(|scope| {
            let pool = ScopedPool::spawned(scope, workers, |_| {
                built.fetch_add(1, Ordering::Relaxed);
            });
            for _ in 0..5 {
                pool.map((0..8usize).collect(), |(), i| Ok::<usize, ()>(i)).unwrap();
            }
            pool.map(vec![(); 2], |(), ()| Ok::<(), ()>(())).unwrap();
        });
        assert_eq!(built.load(Ordering::Relaxed), workers, "a worker state was rebuilt");
    }

    #[test]
    fn scoped_pool_hands_its_given_states_back_warm() {
        // Worker `i` runs on the `i`-th given state and hands it back in
        // slot `i`, carrying what its jobs did to it; one state runs
        // inline.
        for workers in [1, 2, 3] {
            let states: Vec<usize> = (0..workers).map(|i| i * 100).collect();
            let back = thread::scope(|scope| {
                let pool = ScopedPool::with_states(scope, states);
                assert_eq!(pool.workers(), workers);
                for _ in 0..3 {
                    pool.map((0..8usize).collect(), |state: &mut usize, i| {
                        *state += 1;
                        Ok::<usize, ()>(i)
                    })
                    .unwrap();
                }
                pool.into_states()
            });
            let slots: Vec<usize> = back.iter().map(|s| s / 100).collect();
            assert_eq!(slots, (0..workers).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(back.iter().map(|s| s % 100).sum::<usize>(), 24, "{workers} workers");
        }
    }

    #[test]
    fn scoped_pool_returns_lowest_indexed_error() {
        let inline_err = {
            let pool: ScopedPool<'_, ()> = ScopedPool::inline(|_| ());
            pool.map((0..9usize).collect(), |(), i| if i % 4 == 3 { Err(i) } else { Ok(i) })
        };
        assert_eq!(inline_err, Err(3));
        let pooled_err = thread::scope(|scope| {
            let pool: ScopedPool<'_, ()> = ScopedPool::spawned(scope, 3, |_| ());
            pool.map((0..9usize).collect(), |(), i| if i % 4 == 3 { Err(i) } else { Ok(i) })
        });
        assert_eq!(pooled_err, Err(3));
    }

    #[test]
    fn scoped_pool_single_worker_is_inline() {
        // workers <= 1 must not spawn: state index 0, serial semantics.
        let indices = Arc::new(Mutex::new(Vec::new()));
        thread::scope(|scope| {
            let pool = {
                let indices = Arc::clone(&indices);
                ScopedPool::spawned(scope, 1, move |i| {
                    indices.lock().unwrap().push(i);
                })
            };
            assert_eq!(pool.workers(), 1);
            pool.map(vec![(); 3], |(), ()| Ok::<(), ()>(())).unwrap();
        });
        assert_eq!(*indices.lock().unwrap(), vec![0]);
    }
}
