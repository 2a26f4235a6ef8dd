//! The persistent serving runtime: [`Server`] — a warm worker pool with
//! a bounded submission queue, dynamic micro-batching and per-request
//! tickets.
//!
//! The rest of the serving surface is *caller-paced*: a
//! [`Session`](crate::Session) serves one thread, and
//! [`Deployment::run_batch`](crate::Deployment::run_batch) fans one
//! batch out over scoped threads that die with the call. A server flips
//! the model to *queue-paced*: `workers` threads are spawned once, each
//! with its own warm [`Session`](crate::Session) (scratch allocated on
//! the first request, reused forever), and independent producers feed
//! them through a bounded queue.
//!
//! * **Backpressure, caller's choice.** [`Server::submit`] blocks while
//!   the queue is full; [`Server::try_submit`] returns
//!   [`ServeError::QueueFull`] instead. Either way a request accepted
//!   into the queue is never dropped: shutdown drains the queue before
//!   the workers exit.
//! * **Dynamic micro-batching.** A woken worker drains up to
//!   `max_batch` queued requests in one queue-lock acquisition and runs
//!   them back to back on its warm session, so synchronization cost
//!   amortizes under load while a lone request is served immediately.
//! * **Tickets.** Each accepted request yields a [`Ticket`] — a
//!   one-shot receiver resolved with that request's result.
//!   [`Ticket::wait`] blocks until the worker delivers.
//! * **Determinism.** Every request runs [`Session::run`] on some
//!   worker's session, and sessions are pure scratch — outputs are
//!   **bit-identical** to a serial [`Session::run`] for every worker
//!   count, queue capacity and `max_batch` (pinned by
//!   `tests/tests/server.rs`).
//! * **Observability.** [`Server::stats`] snapshots accepted / rejected
//!   / completed counts, queue depth and p50/p99 request latency from a
//!   fixed-bucket histogram — plain counters and [`Duration`]s, no
//!   `Instant`s, so snapshots are comparable across hosts.
//!
//! Under the hood the server is a thin policy layer over
//! [`quantmcu_nn::exec::WorkerPool`], the persistent one of the
//! workspace's two parallel primitives (the scoped one,
//! [`quantmcu_nn::exec::ScopedPool`], carries `Deployment::run_batch`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quantmcu_nn::exec::{PoolError, PoolJob, WorkerPool};
use quantmcu_tensor::Tensor;

use crate::config::default_workers;
use crate::deploy::{Deployment, Session};
use crate::error::Error;

/// Errors specific to the serving runtime, wrapped as
/// [`Error::Serve`](crate::Error::Serve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The submission queue is at capacity ([`Server::try_submit`]
    /// only). The rejected request is not enqueued; requests already
    /// accepted are unaffected.
    QueueFull,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The worker serving this request disappeared before delivering a
    /// result (it panicked). [`Ticket::wait`] only.
    Lost,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "submission queue is full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Lost => write!(f, "request was lost by its worker"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PoolError> for ServeError {
    fn from(e: PoolError) -> Self {
        match e {
            PoolError::Full => ServeError::QueueFull,
            // `PoolError` is `#[non_exhaustive]`; anything unknown from a
            // closed-over pool reads as shutdown.
            _ => ServeError::ShuttingDown,
        }
    }
}

/// Number of exponential latency buckets: bucket `i` counts requests
/// with latency below `2^i` µs, so 40 buckets span sub-microsecond to
/// ~6 days — fixed memory, no allocation on the request path.
const LATENCY_BUCKETS: usize = 40;

/// A fixed-bucket exponential latency histogram with atomic counters.
#[derive(Debug)]
struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram { counts: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn bucket(latency: Duration) -> usize {
        let micros = latency.as_micros().max(1);
        (128 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    fn record(&self, latency: Duration) {
        self.counts[Self::bucket(latency)].fetch_add(1, Ordering::Relaxed);
    }

    /// The upper bound of the smallest bucket whose cumulative count
    /// reaches quantile `q` (in `[0, 1]`), or `None` with no samples —
    /// an empty histogram has no quantiles, and reporting `0 µs` would
    /// read as an (impossibly) fast measurement.
    fn quantile(&self, q: f64) -> Option<Duration> {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0;
        for (i, count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return Some(Duration::from_micros(1u64 << i));
            }
        }
        Some(Duration::from_micros(1u64 << (LATENCY_BUCKETS - 1)))
    }
}

/// Shared mutable server telemetry, updated lock-free from producers and
/// workers.
#[derive(Debug)]
struct StatsCore {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    latency: LatencyHistogram,
}

impl StatsCore {
    fn new() -> Self {
        StatsCore {
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }
}

/// A point-in-time snapshot of a [`Server`]'s counters and latency
/// quantiles ([`Server::stats`]; [`Server::shutdown`] returns the final
/// one).
///
/// Counters are sampled individually (lock-free), so a snapshot taken
/// while requests are in flight may be transiently inconsistent — e.g.
/// `accepted` can exceed `completed + queue_depth` by the number of
/// requests currently executing. After `shutdown` the numbers are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Micro-batch ceiling: requests a worker drains per wakeup.
    pub max_batch: usize,
    /// Submission-queue capacity.
    pub queue_capacity: usize,
    /// Requests accepted but not yet picked up by a worker.
    pub queue_depth: usize,
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests rejected by [`Server::try_submit`] with a full queue.
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an inference error.
    pub failed: u64,
    /// Median request latency (queue wait + inference), from a
    /// fixed-bucket histogram: the true quantile rounded up to the next
    /// power-of-two microsecond bound. `None` until at least one request
    /// has completed — an empty histogram has no quantiles, and the old
    /// `Duration::ZERO` placeholder was indistinguishable from a real
    /// sub-microsecond measurement.
    pub latency_p50: Option<Duration>,
    /// 99th-percentile request latency, same rounding and `None`
    /// semantics as `latency_p50`.
    pub latency_p99: Option<Duration>,
}

/// A one-shot handle to one submitted request's result.
///
/// Dropping a ticket does not cancel the request — the worker still runs
/// it (and counts it in [`ServerStats`]); only the result is discarded.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Tensor, Error>>,
}

impl Ticket {
    /// Blocks until the worker delivers this request's output.
    ///
    /// # Errors
    ///
    /// Returns the request's inference error, or
    /// [`ServeError::Lost`] (as [`Error::Serve`]) if the serving worker
    /// panicked before delivering.
    pub fn wait(self) -> Result<Tensor, Error> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Lost.into()),
        }
    }
}

/// Configures and builds a [`Server`]; created by [`Server::builder`].
#[derive(Debug)]
pub struct ServerBuilder {
    deployment: Arc<Deployment>,
    workers: usize,
    max_batch: usize,
    queue_capacity: Option<usize>,
}

impl ServerBuilder {
    /// Sets the number of worker threads (default:
    /// [`default_workers`](crate::default_workers), clamped to at least
    /// one).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the micro-batch ceiling — queued requests one worker drains
    /// per wakeup (default 4, clamped to at least one).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the submission-queue capacity (default: enough to keep every
    /// worker's next micro-batch queued, `workers * max_batch * 2`, at
    /// least 16; clamped to at least one).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Spawns the worker threads and starts serving.
    pub fn build(self) -> Server {
        let ServerBuilder { deployment, workers, max_batch, queue_capacity } = self;
        let capacity = queue_capacity.unwrap_or_else(|| (workers * max_batch * 2).max(16));
        let pool_deployment = Arc::clone(&deployment);
        let pool = WorkerPool::new(workers, capacity, max_batch, move |_| {
            Session::new(Arc::clone(&pool_deployment))
        });
        Server { pool, stats: Arc::new(StatsCore::new()), deployment }
    }
}

/// The persistent serving runtime: a pool of warm [`Session`] workers
/// over one shared [`Deployment`], fed by a bounded micro-batching
/// queue — [`submit`](Server::submit) blocks on a full queue,
/// [`try_submit`](Server::try_submit) returns
/// [`ServeError::QueueFull`], and a woken worker drains up to
/// `max_batch` queued requests per wakeup onto its warm session.
/// Outputs are **bit-identical** to a serial [`Session::run`] for every
/// worker count, queue capacity and `max_batch` (each request runs
/// whole on one worker's session; sessions are pure scratch).
///
/// The server is `Send + Sync`: any number of producer threads can
/// submit through a shared reference (or an `Arc<Server>`). Dropping it
/// drains all accepted requests, resolves their tickets, and joins the
/// workers; [`Server::shutdown`] does the same explicitly and returns
/// the final [`ServerStats`].
///
/// # Quickstart
///
/// ```
/// use quantmcu::{Engine, Server, SramBudget};
/// use quantmcu::data::classification::ClassificationDataset;
/// use quantmcu::models::{Model, ModelConfig};
/// use quantmcu::nn::init;
///
/// let spec = Model::MobileNetV2.spec(ModelConfig::exec_scale())?;
/// let engine = Engine::builder(init::with_structured_weights(spec, 42))
///     .sram_budget(SramBudget::kib(16))
///     .build();
/// let data = ClassificationDataset::new(32, 10, 7);
/// let deployment = engine.deploy(engine.plan((data, 4))?)?;
///
/// // Spawn the runtime: 2 warm workers, micro-batches of up to 4.
/// let server = Server::builder(deployment).workers(2).max_batch(4).build();
///
/// // Submit from any thread; each request yields a one-shot Ticket.
/// let tickets: Vec<_> =
///     (0..6).map(|i| server.submit(&data.sample(100 + i).0)).collect::<Result<_, _>>()?;
/// for ticket in tickets {
///     let output = ticket.wait()?;
///     assert!(output.data().iter().all(|v| v.is_finite()));
/// }
///
/// let stats = server.shutdown(); // drains the queue, joins the workers
/// assert_eq!(stats.completed, 6);
/// assert!(stats.latency_p50.unwrap() <= stats.latency_p99.unwrap());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Server {
    pool: WorkerPool<Session<Arc<Deployment>>>,
    stats: Arc<StatsCore>,
    deployment: Arc<Deployment>,
}

impl Server {
    /// Starts configuring a server over `deployment` (owned or already
    /// shared — anything convertible into an `Arc<Deployment>`).
    pub fn builder(deployment: impl Into<Arc<Deployment>>) -> ServerBuilder {
        ServerBuilder {
            deployment: deployment.into(),
            workers: default_workers(),
            max_batch: 4,
            queue_capacity: None,
        }
    }

    /// Builds a server with default settings — shorthand for
    /// `Server::builder(deployment).build()`.
    pub fn new(deployment: impl Into<Arc<Deployment>>) -> Self {
        Server::builder(deployment).build()
    }

    /// The deployment being served.
    pub fn deployment(&self) -> &Arc<Deployment> {
        &self.deployment
    }

    /// Worker threads serving the queue.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Micro-batch ceiling: requests a worker drains per wakeup.
    pub fn max_batch(&self) -> usize {
        self.pool.max_batch()
    }

    /// Submission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Packages one request into a pool job wired to a fresh ticket.
    fn request(&self, input: &Tensor) -> (PoolJob<Session<Arc<Deployment>>>, Ticket) {
        let input = input.clone();
        let submitted = Instant::now();
        let stats = Arc::clone(&self.stats);
        let (tx, rx) = mpsc::sync_channel(1);
        let job: PoolJob<Session<Arc<Deployment>>> = Box::new(move |session| {
            let result = session.run(&input);
            stats.latency.record(submitted.elapsed());
            let counter = if result.is_ok() { &stats.completed } else { &stats.failed };
            counter.fetch_add(1, Ordering::Relaxed);
            // A dropped ticket just discards the result.
            let _ = tx.send(result);
        });
        (job, Ticket { rx })
    }

    /// Submits a request, **blocking** while the queue is full, and
    /// returns the [`Ticket`] resolving to its output. The input is
    /// cloned into the queue, so the caller keeps its tensor either way.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] (as [`Error::Serve`]) when
    /// the server is shutting down.
    pub fn submit(&self, input: &Tensor) -> Result<Ticket, Error> {
        let (job, ticket) = self.request(input);
        match self.pool.submit(job) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            Err(e) => Err(Error::Serve(e.into())),
        }
    }

    /// Submits a request **without blocking**.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] (as [`Error::Serve`]) when the
    /// queue is at capacity — the request is not enqueued and nothing
    /// already accepted is affected — or [`ServeError::ShuttingDown`]
    /// when the server is shutting down.
    pub fn try_submit(&self, input: &Tensor) -> Result<Ticket, Error> {
        let (job, ticket) = self.request(input);
        match self.pool.try_submit(job) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            Err(PoolError::Full) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(Error::Serve(ServeError::QueueFull))
            }
            Err(e) => Err(Error::Serve(e.into())),
        }
    }

    /// Serves a whole batch through the queue — submits every input
    /// (blocking on backpressure), then waits for all tickets — and
    /// returns the outputs **in input order**, bit-identical to a serial
    /// [`Session::run`] loop. This is the queue-paced counterpart of the
    /// scoped [`Deployment::run_batch`].
    ///
    /// # Errors
    ///
    /// Returns the first failing input's error (remaining accepted
    /// requests still run to completion).
    pub fn run_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, Error> {
        let tickets: Vec<Ticket> =
            inputs.iter().map(|input| self.submit(input)).collect::<Result<_, _>>()?;
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Snapshots the server's counters and latency quantiles.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            workers: self.pool.workers(),
            max_batch: self.pool.max_batch(),
            queue_capacity: self.pool.capacity(),
            queue_depth: self.pool.queue_depth(),
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            latency_p50: self.stats.latency.quantile(0.50),
            latency_p99: self.stats.latency.quantile(0.99),
        }
    }

    /// Shuts down gracefully: stops accepting requests, drains every
    /// accepted request (resolving its ticket), joins the workers, and
    /// returns the final [`ServerStats`]. Dropping the server performs
    /// the same drain without the stats.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (propagated).
    pub fn shutdown(self) -> ServerStats {
        self.pool.close();
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn serve_errors_display_and_chain_under_the_unified_error() {
        let e = Error::from(ServeError::QueueFull);
        assert!(matches!(e, Error::Serve(ServeError::QueueFull)));
        assert!(e.to_string().contains("serving failed"));
        let source = e.source().expect("ServeError source");
        assert!(source.to_string().contains("queue is full"));
        assert!(Error::from(ServeError::ShuttingDown).to_string().contains("shutting down"));
        assert!(Error::from(ServeError::Lost).to_string().contains("lost"));
    }

    #[test]
    fn pool_errors_map_to_serve_errors() {
        assert_eq!(ServeError::from(PoolError::Full), ServeError::QueueFull);
        assert_eq!(ServeError::from(PoolError::Closed), ServeError::ShuttingDown);
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.quantile(0.5), None, "no samples, no quantiles");
        for micros in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 900] {
            hist.record(Duration::from_micros(micros));
        }
        // 9 of 10 samples land in the 2–4 µs bucket (upper bound 4 µs),
        // the outlier in the 512–1024 µs bucket (upper bound 1024 µs).
        assert_eq!(hist.quantile(0.50), Some(Duration::from_micros(4)));
        assert_eq!(hist.quantile(0.90), Some(Duration::from_micros(4)));
        assert_eq!(hist.quantile(0.99), Some(Duration::from_micros(1024)));
    }

    #[test]
    fn histogram_buckets_are_monotone_and_clamped() {
        assert_eq!(LatencyHistogram::bucket(Duration::ZERO), 1);
        let mut last = 0;
        for micros in [1u64, 2, 3, 9, 1000, 1_000_000, u64::MAX] {
            let b = LatencyHistogram::bucket(Duration::from_micros(micros));
            assert!(b >= last, "bucket not monotone at {micros} µs");
            assert!(b < LATENCY_BUCKETS);
            last = b;
        }
        assert_eq!(last, LATENCY_BUCKETS - 1);
    }
}
