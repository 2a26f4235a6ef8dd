//! The serve workloads: a persistent `Server` fed in a closed loop or on
//! an open-loop schedule, every output checked against serial
//! `Session::run`.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use quantmcu::tensor::Tensor;
use quantmcu::{Server, Ticket};

use crate::report::Tally;
use crate::stats::Samples;
use crate::trace::{SpanId, Trace};

/// Requests the closed loop keeps outstanding.
pub const OUTSTANDING: usize = 4;
/// Requests sent before each timed pass (checked, not timed).
const WARMUP_REQUESTS: u64 = 64;

/// The request pool and the output each pool image must produce.
#[derive(Debug, Clone, Copy)]
pub struct Requests<'a> {
    /// Distinct images, used in turn.
    pub pool: &'a [Tensor],
    /// Serial `Session::run` output per pool image.
    pub reference: &'a [Tensor],
}

impl Requests<'_> {
    fn image(&self, id: u64) -> (usize, &Tensor) {
        let idx = (id % self.pool.len() as u64) as usize;
        (idx, &self.pool[idx])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Queue depth seen at each submit; sampled from `Server::stats` in the
/// traced run only.
fn sample_depth<T: Trace>(
    server: &Server,
    trace: &mut T,
    parent: Option<SpanId>,
    id: u64,
    depth: &mut Vec<f64>,
) {
    if trace.enabled() {
        let s = trace.open("serve.stats", parent, id);
        depth.push(server.stats().queue_depth as f64);
        trace.close(s);
    }
}

/// What a serve pass measured.
#[derive(Debug)]
pub struct ServeRun {
    /// Latency of each correct timed request: from submit in the closed
    /// loop, from the due time in the open loop.
    pub latency_ms: Samples,
    /// Correct outputs per second, from the start of the window (the
    /// first due time in the open loop) to the last output.
    pub throughput_img_s: f64,
    /// Every request sent.
    pub tally: Tally,
    /// Queue depth at each submit (traced run only).
    pub depth: Samples,
    /// Open-loop phases, in schedule order (empty for the closed loop).
    pub phases: Vec<PhaseRun>,
}

struct InFlight {
    ticket: Ticket,
    sent: Instant,
    idx: usize,
    id: u64,
    span: SpanId,
}

/// Sends [`WARMUP_REQUESTS`] requests, [`OUTSTANDING`] at a time, so the
/// workers' sessions and caches are warm before a timed pass. Outputs are
/// checked; nothing is timed.
pub fn warm_up(server: &Server, requests: Requests<'_>) -> Tally {
    let mut tally = Tally::default();
    for first in (0..WARMUP_REQUESTS).step_by(OUTSTANDING) {
        let sent: Vec<_> = (first..first + OUTSTANDING as u64)
            .map(|id| {
                let (idx, image) = requests.image(id);
                (idx, server.submit(image))
            })
            .collect();
        for (idx, ticket) in sent {
            tally.record(ticket.and_then(Ticket::wait).map(|out| out == requests.reference[idx]));
        }
    }
    tally
}

/// One generator thread keeps [`OUTSTANDING`] requests in flight for
/// `seconds`, waiting the oldest ticket before sending the next request.
pub fn closed_loop<T: Trace>(
    server: &Server,
    requests: Requests<'_>,
    seconds: f64,
    trace: &mut T,
) -> ServeRun {
    let mut tally = Tally::default();
    let mut latency = Vec::new();
    let mut depth = Vec::new();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut last_done = start;
    let mut next = 0u64;
    loop {
        while inflight.len() < OUTSTANDING && Instant::now() < deadline {
            let id = next;
            next += 1;
            let (idx, image) = requests.image(id);
            let span = trace.open("serve.request", None, id);
            let submit = trace.open("serve.submit", Some(span), id);
            let sent = Instant::now();
            let ticket = server.submit(image);
            trace.close(submit);
            sample_depth(server, trace, Some(span), id, &mut depth);
            match ticket {
                Ok(ticket) => inflight.push_back(InFlight { ticket, sent, idx, id, span }),
                Err(e) => {
                    trace.close(span);
                    tally.record::<_>(Err(e));
                }
            }
        }
        let Some(req) = inflight.pop_front() else { break };
        let wait = trace.open("ticket.wait", Some(req.span), req.id);
        let output = req.ticket.wait();
        let done = Instant::now();
        trace.close(wait);
        trace.close(req.span);
        let outcome = output.map(|out| out == requests.reference[req.idx]);
        if matches!(outcome, Ok(true)) {
            latency.push(ms(done - req.sent));
            last_done = done;
        }
        tally.record(outcome);
    }
    let window = (last_done - start).as_secs_f64();
    ServeRun {
        throughput_img_s: if window > 0.0 { latency.len() as f64 / window } else { 0.0 },
        latency_ms: Samples::new(latency),
        tally,
        depth: Samples::new(depth),
        phases: Vec::new(),
    }
}

/// One constant-rate stretch of the open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Label used in metric names, e.g. `"r200"`.
    pub name: &'static str,
    /// Requests per second.
    pub rate: f64,
    /// Length of the phase.
    pub seconds: f64,
}

/// What one open-loop phase measured.
#[derive(Debug)]
pub struct PhaseRun {
    /// The phase.
    pub phase: Phase,
    /// Due-to-output latency of each correct request.
    pub latency_ms: Samples,
    /// How late the generator sent each request.
    pub lag_ms: Samples,
    /// Requests sent (submit attempted).
    pub sent: u64,
    /// Requests answered with the reference output.
    pub ok: u64,
    /// Requests that failed or returned a wrong output.
    pub failed: u64,
    /// Queue depth right after the phase's last submit.
    pub end_depth: usize,
}

struct Sent {
    ticket: Ticket,
    due: Instant,
    idx: usize,
    id: u64,
    phase: usize,
}

/// Per-phase results collected by the waiter thread.
#[derive(Default)]
struct Collected {
    latency: Vec<f64>,
    ok: u64,
    failed: u64,
}

/// Sends requests on a fixed schedule regardless of completions. The
/// generator (this thread) sleeps until each request is due and submits
/// it; a second thread waits the tickets in order (a `Ticket` has no
/// non-blocking poll) and times each request from the moment it was due,
/// so a stall also counts against the requests queued behind it.
/// Throughput counts correct outputs from the first due time to the last
/// output, so a backlog left at the end lowers it.
pub fn open_loop<T: Trace + Send>(
    server: &Server,
    requests: Requests<'_>,
    phases: &[Phase],
    trace: &mut T,
) -> ServeRun {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut waiter_trace = trace.fork();
    let mut lag: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    let mut sent = vec![0u64; phases.len()];
    let mut submit_failed = vec![0u64; phases.len()];
    let mut end_depth = vec![0usize; phases.len()];
    let mut depth = Vec::new();
    let start = Instant::now();
    let (collected, waiter_tally, last_done, waiter_trace) = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut collected: Vec<Collected> =
                phases.iter().map(|_| Collected::default()).collect();
            let mut tally = Tally::default();
            let mut last_done = start;
            for req in rx {
                let wait_start = Instant::now();
                let output = req.ticket.wait();
                let done = Instant::now();
                let span = waiter_trace.record("serve.request", None, req.id, req.due, done);
                waiter_trace.record("ticket.wait", Some(span), req.id, wait_start, done);
                let outcome = output.map(|out| out == requests.reference[req.idx]);
                let slot = &mut collected[req.phase];
                if matches!(outcome, Ok(true)) {
                    slot.latency.push(ms(done - req.due));
                    slot.ok += 1;
                    last_done = done;
                } else {
                    slot.failed += 1;
                }
                tally.record(outcome);
            }
            (collected, tally, last_done, waiter_trace)
        });
        let mut phase_start = start;
        let mut id = 0u64;
        for (p, phase) in phases.iter().enumerate() {
            let count = (phase.rate * phase.seconds).round() as u64;
            for i in 0..count {
                let due = phase_start + Duration::from_secs_f64(i as f64 / phase.rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let send = Instant::now();
                lag[p].push(ms(send.saturating_duration_since(due)));
                let (idx, image) = requests.image(id);
                let span = trace.open("loadgen.send", None, id);
                let submit = trace.open("serve.submit", Some(span), id);
                let ticket = server.submit(image);
                trace.close(submit);
                sample_depth(server, trace, Some(span), id, &mut depth);
                trace.close(span);
                sent[p] += 1;
                match ticket {
                    Ok(ticket) => tx
                        .send(Sent { ticket, due, idx, id, phase: p })
                        .expect("the waiter thread outlives the generator"),
                    Err(_) => submit_failed[p] += 1,
                }
                id += 1;
            }
            end_depth[p] = server.stats().queue_depth;
            phase_start += Duration::from_secs_f64(phase.seconds);
        }
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    trace.absorb(waiter_trace);

    let mut tally = waiter_tally;
    tally.attempted += submit_failed.iter().sum::<u64>();
    tally.errors += submit_failed.iter().sum::<u64>();
    let all: Vec<f64> = collected.iter().flat_map(|c| c.latency.iter().copied()).collect();
    let ok: u64 = collected.iter().map(|c| c.ok).sum();
    let span = last_done.saturating_duration_since(start).as_secs_f64();
    let runs = phases
        .iter()
        .zip(collected)
        .enumerate()
        .map(|(p, (&phase, c))| PhaseRun {
            phase,
            latency_ms: Samples::new(c.latency),
            lag_ms: Samples::new(std::mem::take(&mut lag[p])),
            sent: sent[p],
            ok: c.ok,
            failed: c.failed + submit_failed[p],
            end_depth: end_depth[p],
        })
        .collect();
    ServeRun {
        latency_ms: Samples::new(all),
        throughput_img_s: if span > 0.0 { ok as f64 / span } else { 0.0 },
        tally,
        depth: Samples::new(depth),
        phases: runs,
    }
}
