//! Serving-throughput measurement emitting `BENCH_serve.json`, so the
//! serving-speed trajectory is machine-readable across revisions — the
//! serving-side companion of `bench_plan`.
//!
//! Plans and deploys once, then drives an evaluation batch through both
//! serving paths:
//!
//! * **scoped** — `Deployment::run_batch` (fresh sessions per call, one
//!   per worker), swept across worker counts;
//! * **server** — a persistent `quantmcu::Server` (warm sessions, bounded
//!   queue, dynamic micro-batching), swept across worker count ×
//!   `max_batch`, measured through `Server::run_batch` and reporting the
//!   runtime's own p50/p99 latency histogram.
//!
//! Every configuration is cross-checked bit-identical against the serial
//! session (the serving determinism contract), and reports the median
//! batch wall clock over 21 reps (`seconds`, from which the throughput
//! follows) with its quartiles. Set `QUANTMCU_SMOKE=1` to shrink the
//! batch and repetition count (one rep) for CI smoke runs.

use std::time::Instant;

use quantmcu::models::Model;
use quantmcu::nn::kernels::GENERATION;
use quantmcu::tensor::Tensor;
use quantmcu::{Engine, Server, SramBudget};
use quantmcu_bench::{exec_dataset, exec_graph, smoke, EXEC_SRAM};

/// Per-rep wall clocks of one batch runner, sorted.
struct Timing(Vec<f64>);

impl Timing {
    /// The nearest-rank `q`-quantile in seconds.
    fn quantile(&self, q: f64) -> f64 {
        let n = self.0.len();
        self.0[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
    }

    fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `"seconds"` (the median) and its quartiles as JSON fields.
    fn json(&self) -> String {
        format!(
            "\"seconds\": {:.6}, \"seconds_q1\": {:.6}, \"seconds_q3\": {:.6}",
            self.median(),
            self.quantile(0.25),
            self.quantile(0.75)
        )
    }
}

/// Times `reps` calls of one batch runner, returning the timings and the
/// last call's outputs. The median over many reps resolves what a best-of
/// few cannot on a shared host.
fn measure<F>(reps: usize, mut run: F) -> (Timing, Vec<Tensor>)
where
    F: FnMut() -> Vec<Tensor>,
{
    let mut seconds = Vec::with_capacity(reps);
    let mut outputs = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = run();
        seconds.push(start.elapsed().as_secs_f64());
        outputs = Some(out);
    }
    seconds.sort_by(f64::total_cmp);
    (Timing(seconds), outputs.expect("at least one rep"))
}

fn main() {
    let (batch, reps) = if smoke() { (8, 1) } else { (64, 21) };
    let engine = Engine::builder(exec_graph(Model::MobileNetV2))
        .sram_budget(SramBudget::new(EXEC_SRAM))
        .build();
    let ds = exec_dataset();
    let plan = engine.plan(ds.images(8)).expect("plan");
    let deployment = std::sync::Arc::new(engine.deploy(plan).expect("deploy"));
    let inputs: Vec<Tensor> = (100..100 + batch).map(|i| ds.sample(i).0).collect();
    let host_parallelism = quantmcu::default_workers();

    println!(
        "Serving throughput: one Deployment, {batch}-image batches, median [quartiles] \
         of {reps} reps\n"
    );
    println!("scoped Deployment::run_batch (fresh sessions per call):");
    let (serial_time, serial_out) =
        measure(reps, || deployment.run_batch(&inputs, 1).expect("serve"));
    let mut scoped_rows = Vec::new();
    let scoped_serial_secs = serial_time.median();
    for workers in [1usize, 2, 4, 8] {
        let (time, out) = if workers == 1 {
            (Timing(serial_time.0.clone()), serial_out.clone())
        } else {
            measure(reps, || deployment.run_batch(&inputs, workers).expect("serve"))
        };
        let identical = out == serial_out;
        let speedup = scoped_serial_secs / time.median();
        let throughput = batch as f64 / time.median();
        println!(
            "  workers = {workers}: {:8.1} ms [{:.1}, {:.1}]  {throughput:7.1} img/s  \
             speedup {speedup:4.2}x  bit-identical: {identical}",
            time.median() * 1e3,
            time.quantile(0.25) * 1e3,
            time.quantile(0.75) * 1e3,
        );
        assert!(identical, "worker count {workers} changed the outputs");
        scoped_rows.push(format!(
            "    {{\"workers\": {workers}, {}, \"images_per_second\": {throughput:.2}, \
             \"speedup\": {speedup:.4}, \"bit_identical\": {identical}}}",
            time.json()
        ));
    }

    println!("\npersistent Server (warm sessions, bounded queue, micro-batching):");
    let mut server_rows = Vec::new();
    for (workers, max_batch) in [(1usize, 1usize), (1, 8), (2, 8), (4, 8), (8, 8)] {
        let server = Server::builder(std::sync::Arc::clone(&deployment))
            .workers(workers)
            .max_batch(max_batch)
            .queue_capacity(batch.max(16))
            .build();
        // One warm-up pass so the sweep measures steady-state sessions —
        // the persistent runtime's whole point.
        let warmup = server.run_batch(&inputs).expect("serve");
        assert_eq!(warmup, serial_out, "server warm-up changed the outputs");
        let (time, out) = measure(reps, || server.run_batch(&inputs).expect("serve"));
        let identical = out == serial_out;
        let stats = server.shutdown();
        let vs_scoped = scoped_serial_secs / time.median();
        let throughput = batch as f64 / time.median();
        println!(
            "  workers = {workers}, max_batch = {max_batch}: {:8.1} ms [{:.1}, {:.1}]  \
             {throughput:7.1} img/s  vs scoped serial {vs_scoped:4.2}x  p50 {}  p99 {}  \
             bit-identical: {identical}",
            time.median() * 1e3,
            time.quantile(0.25) * 1e3,
            time.quantile(0.75) * 1e3,
            stats.latency_p50.map_or("n/a".into(), |d| format!("{d:?}")),
            stats.latency_p99.map_or("n/a".into(), |d| format!("{d:?}")),
        );
        assert!(identical, "server ({workers} workers, max_batch {max_batch}) changed outputs");
        server_rows.push(format!(
            "    {{\"workers\": {workers}, \"max_batch\": {max_batch}, {}, \
             \"images_per_second\": {throughput:.2}, \"vs_scoped_serial\": {vs_scoped:.4}, \
             \"latency_p50_us\": {}, \"latency_p99_us\": {}, \"bit_identical\": {identical}}}",
            time.json(),
            stats.latency_p50.map_or(0, |d| d.as_micros()),
            stats.latency_p99.map_or(0, |d| d.as_micros()),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"serving_throughput\",\n  \
         \"kernel_generation\": \"{GENERATION}\",\n  \
         \"model\": \"MobileNetV2 (exec scale)\",\n  \
         \"batch\": {batch},\n  \"reps\": {reps},\n  \
         \"host_parallelism\": {host_parallelism},\n  \"sweep\": [\n{}\n  ],\n  \
         \"server_sweep\": [\n{}\n  ]\n}}\n",
        scoped_rows.join(",\n"),
        server_rows.join(",\n")
    );
    // Smoke runs exist to catch runtime panics; don't let their shrunken
    // measurements clobber the committed full-config snapshot.
    let path = if smoke() { "BENCH_serve.smoke.json" } else { "BENCH_serve.json" };
    std::fs::write(path, &json).expect("write serve benchmark JSON");
    println!("\nwrote {path} ({} bytes)", json.len());
}
