//! Micro-kernel throughput snapshot emitting `BENCH_kernels.json`, so the
//! kernel-speed trajectory is machine-readable across revisions — the
//! kernel-level companion of `bench_plan` / `bench_serve`.
//!
//! For each weighted op's integer path, three strategies run the same
//! workload and are cross-checked **bit-identical** before timing counts:
//!
//! * **naive** — the `kernels::naive::*_q` oracle loop nests;
//! * **blocked** — the cache-blocked kernels with the scalar `IntDot`
//!   strategy over unpacked `i8` weights (the pre-tiling integer path);
//! * **tiled** — the same kernels with `PackedDot` computing dot products
//!   directly on packed W8/W4/W2 words, register-tiled accumulator lanes.
//!
//! Conv2d sweeps every packed width (W8/W4/W2), each with naive and
//! blocked rows over the same range-clamped weights, so every speedup in
//! the snapshot compares strategies at one weight width.
//!
//! The binary asserts the perf-regression tripwire (tiled must not be
//! slower than naive on any integer op) and finishes with end-to-end
//! images/second through the float and quantized executors. Set
//! `QUANTMCU_SMOKE=1` to shrink shapes and repetitions for CI.

use std::time::{Duration, Instant};

use quantmcu::models::Model;
use quantmcu::nn::exec::{calibrate_ranges, FloatExecutor, QuantExecutor};
use quantmcu::nn::kernels::{self, naive, FixedMultiplier, IntDot, PackedDot, Requant, GENERATION};
use quantmcu::tensor::{pack, Bitwidth, Shape, Tensor};
use quantmcu_bench::{exec_dataset, exec_graph, smoke};

/// Best-of-N wall clock per call of `run`.
fn measure<R>(reps: usize, iters: usize, mut run: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(run());
        }
        best = best.min(start.elapsed() / iters as u32);
    }
    best
}

/// Deterministic pseudo-random integers in `lo..=hi`.
fn varied_q(len: usize, seed: u64, lo: i32, hi: i32) -> Vec<i32> {
    let span = (hi - lo) as u64 + 1;
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ 0x9E3779B9);
            lo + ((x >> 24) % span) as i32
        })
        .collect()
}

/// Per-channel requantization constants (identical across strategies, so
/// bit-identity of outputs follows from bit-identity of accumulators).
struct Tables {
    bias_q: Vec<i64>,
    scale: Vec<FixedMultiplier>,
}

impl Tables {
    fn new(channels: usize) -> Self {
        Tables {
            bias_q: varied_q(channels, 0xB1A5, -500, 500).into_iter().map(i64::from).collect(),
            scale: (0..channels)
                .map(|ch| FixedMultiplier::from_real(1e-3 * (1.0 + ch as f64 * 0.31) / 0.037))
                .collect(),
        }
    }

    fn requant(&self) -> Requant<'_> {
        Requant { bias_q: &self.bias_q, scale: &self.scale, zp_out: 3, q_min: -128, q_max: 127 }
    }
}

/// One timed strategy row for the JSON snapshot. Speedups compare rows of
/// the same op at the same weight width.
struct Row {
    op: &'static str,
    weight_bits: u32,
    strategy: String,
    seconds: f64,
    vs_naive: f64,
    vs_blocked: f64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"op\": \"{}\", \"weight_bits\": {}, \"strategy\": \"{}\", \"seconds\": {:.6}, \
             \"speedup_vs_naive\": {:.4}, \"speedup_vs_blocked\": {:.4}}}",
            self.op, self.weight_bits, self.strategy, self.seconds, self.vs_naive, self.vs_blocked
        )
    }
}

/// One named strategy closure in a [`sweep`].
type Run<'a> = (String, Box<dyn FnMut() -> Vec<i32> + 'a>);

/// Times the naive/blocked/tiled trio for one op at one weight width.
/// `runs` is `[("naive", f), ("blocked", f), ("tiled_N", f)]`, all over the
/// same `bits`-ranged weights; every entry is asserted bit-identical to
/// the first before timing, and the `tiled_*` entry must beat naive (the
/// CI perf-regression tripwire).
fn sweep(
    op: &'static str,
    bits: Bitwidth,
    reps: usize,
    iters: usize,
    mut runs: Vec<Run<'_>>,
    rows: &mut Vec<Row>,
) {
    let reference = (runs[0].1)();
    for (name, run) in runs.iter_mut().skip(1) {
        assert_eq!(run(), reference, "{op} {bits}: {name} output diverged from naive");
    }
    let timed: Vec<(String, f64)> = runs
        .into_iter()
        .map(|(name, mut run)| (name, measure(reps, iters, &mut run).as_secs_f64()))
        .collect();
    let time_of = |strategy: &str| {
        timed
            .iter()
            .find(|(name, _)| name == strategy)
            .expect("every sweep times naive and blocked")
            .1
    };
    let (naive_t, blocked_t) = (time_of("naive"), time_of("blocked"));
    println!("{op} ({bits} weights):");
    for (name, t) in timed {
        let (vs_naive, vs_blocked) = (naive_t / t, blocked_t / t);
        println!(
            "  {name:9} {:9.3} ms  ({vs_naive:.2}x vs naive, {vs_blocked:.2}x vs blocked)",
            t * 1e3
        );
        if name.starts_with("tiled") {
            // Perf-regression tripwire: the packed tiled path must never
            // fall behind the oracle loops it replaced.
            assert!(t <= naive_t, "{op}: {name} ({t:.6}s) slower than naive ({naive_t:.6}s)");
        }
        let weight_bits = bits.bits();
        rows.push(Row { op, weight_bits, strategy: name, seconds: t, vs_naive, vs_blocked });
    }
    println!();
}

/// `bits`-ranged quantized weights.
fn weights(len: usize, seed: u64, bits: Bitwidth) -> Vec<i8> {
    varied_q(len, seed, bits.min_value(), bits.max_value()).into_iter().map(|v| v as i8).collect()
}

/// Runs `kernel` into a fresh `len`-element output.
fn fresh(len: usize, kernel: impl FnOnce(&mut [i32])) -> Vec<i32> {
    let mut out = vec![0i32; len];
    kernel(&mut out);
    out
}

fn main() {
    let (reps, iters) = if smoke() { (2, 1) } else { (5, 3) };
    // Conv geometry mirrors the acceptance-layer criterion bench
    // (32×32×32 through 32 3×3 filters); smoke shrinks it.
    let (hw, c, oc) = if smoke() { (12, 16, 16) } else { (32, 32, 32) };
    let (k, stride, pad) = (3usize, 1usize, 1usize);
    let zp_in = 4;
    let mut rows = Vec::new();

    println!(
        "Integer micro-kernels ({GENERATION}), best of {reps}x{iters}; \
         all strategies bit-identical to naive\n"
    );

    let shape = Shape::hwc(hw, hw, c);
    let q_in = varied_q(shape.len(), 1, -100, 100);

    // ---- conv2d (pad > 0: per-element zero-point correction) ----
    // One sweep per packed width, each on its own range-clamped weights,
    // so every tiled row is measured against naive and blocked loops
    // running the same arithmetic workload.
    for bits in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
        let out_len = Shape::hwc(hw, hw, oc).len();
        let region = Shape::hwc(hw, hw, oc).full_region();
        let tables = Tables::new(oc);
        let qw = weights(oc * k * k * c, 2, bits);
        let packed = pack::pack(&qw, bits);
        let (qw, q_in, tables) = (&qw, &q_in, &tables);
        let runs: Vec<Run<'_>> = vec![
            (
                "naive".into(),
                Box::new(move || {
                    naive::conv2d_q(q_in, shape, qw, zp_in, &tables.requant(), oc, k, stride, pad)
                }),
            ),
            (
                "blocked".into(),
                Box::new(move || {
                    let dot = IntDot { qw, zp_in, rq: tables.requant() };
                    fresh(out_len, |out| {
                        kernels::conv2d(&dot, q_in, shape, out, oc, k, stride, pad, region)
                    })
                }),
            ),
            (
                format!("tiled_{}", bits.bits()),
                Box::new(|| {
                    let dot = PackedDot::new(&packed, bits, zp_in, tables.requant())
                        .assuming_i16_activations();
                    fresh(out_len, |out| {
                        kernels::conv2d(&dot, q_in, shape, out, oc, k, stride, pad, region)
                    })
                }),
            ),
        ];
        sweep("conv2d_int", bits, reps, iters, runs, &mut rows);
    }

    // ---- dwconv (pad > 0) ----
    {
        let region = shape.full_region();
        let tables = Tables::new(c);
        let qw = weights(k * k * c, 3, Bitwidth::W8);
        let packed = pack::pack(&qw, Bitwidth::W8);
        let (qw, q_in, tables) = (&qw, &q_in, &tables);
        let runs: Vec<Run<'_>> = vec![
            (
                "naive".into(),
                Box::new(move || {
                    naive::dwconv_q(q_in, shape, qw, zp_in, &tables.requant(), k, stride, pad)
                }),
            ),
            (
                "blocked".into(),
                Box::new(move || {
                    let dot = IntDot { qw, zp_in, rq: tables.requant() };
                    fresh(shape.len(), |out| {
                        kernels::dwconv(&dot, q_in, shape, out, k, stride, pad, region)
                    })
                }),
            ),
            (
                "tiled_8".into(),
                Box::new(|| {
                    let dot = PackedDot::new(&packed, Bitwidth::W8, zp_in, tables.requant())
                        .assuming_i16_activations();
                    fresh(shape.len(), |out| {
                        kernels::dwconv(&dot, q_in, shape, out, k, stride, pad, region)
                    })
                }),
            ),
        ];
        sweep("dwconv_int", Bitwidth::W8, reps, iters, runs, &mut rows);
    }

    // ---- dense (folded zero point: every weight touches every output) ----
    {
        let out_f = if smoke() { 32 } else { 64 };
        let fan_in = shape.per_sample();
        let tables = Tables::new(out_f);
        let qw = weights(out_f * fan_in, 5, Bitwidth::W8);
        let packed = pack::pack(&qw, Bitwidth::W8);
        let init: Vec<i64> = (0..out_f)
            .map(|o| {
                let sum: i64 = qw[o * fan_in..(o + 1) * fan_in].iter().map(|&w| w as i64).sum();
                -(zp_in as i64) * sum
            })
            .collect();
        let (qw, q_in, tables, init) = (&qw, &q_in, &tables, &init);
        let runs: Vec<Run<'_>> = vec![
            (
                "naive".into(),
                Box::new(move || naive::dense_q(q_in, shape, qw, zp_in, &tables.requant(), out_f)),
            ),
            (
                "blocked".into(),
                Box::new(move || {
                    let dot = IntDot { qw, zp_in, rq: tables.requant() };
                    fresh(out_f, |out| kernels::dense(&dot, q_in, shape, out, out_f))
                }),
            ),
            (
                "tiled_8".into(),
                Box::new(|| {
                    let dot = PackedDot::with_folded_zero_point(
                        &packed,
                        Bitwidth::W8,
                        init,
                        tables.requant(),
                    )
                    .assuming_i16_activations();
                    fresh(out_f, |out| kernels::dense(&dot, q_in, shape, out, out_f))
                }),
            ),
        ];
        sweep("dense_int", Bitwidth::W8, reps, iters, runs, &mut rows);
    }

    // ---- end-to-end images/second through the executors ----
    let graph = exec_graph(Model::MobileNetV2);
    let ds = exec_dataset();
    let images: Vec<Tensor> = (0..if smoke() { 4 } else { 16 }).map(|i| ds.sample(i).0).collect();
    let ranges = calibrate_ranges(&graph, &images[..2]).expect("calibrate");
    let act = vec![Bitwidth::W8; graph.spec().feature_map_count()];
    let float_t = {
        let mut exec = FloatExecutor::new(&graph);
        measure(reps, 1, || {
            for x in &images {
                std::hint::black_box(exec.run(x).expect("float run"));
            }
        })
    };
    let quant_t = {
        let mut exec =
            QuantExecutor::new(&graph, &ranges, &act, Bitwidth::W8).expect("quant executor");
        measure(reps, 1, || {
            for x in &images {
                std::hint::black_box(exec.run(x).expect("quant run"));
            }
        })
    };
    let float_ips = images.len() as f64 / float_t.as_secs_f64();
    let quant_ips = images.len() as f64 / quant_t.as_secs_f64();
    println!("end-to-end (MobileNetV2 exec scale, {} images):", images.len());
    println!("  float  {float_ips:8.1} img/s");
    println!("  quant  {quant_ips:8.1} img/s (W8 activations, packed W8 weights)");

    let json = format!(
        "{{\n  \"bench\": \"kernel_throughput\",\n  \"kernel_generation\": \"{GENERATION}\",\n  \
         \"host_parallelism\": {},\n  \"reps\": {reps},\n  \"iters\": {iters},\n  \"ops\": [\n{}\n  ],\n  \
         \"end_to_end\": {{\"model\": \"MobileNetV2 (exec scale)\", \"images\": {}, \
         \"float_images_per_second\": {float_ips:.2}, \
         \"quant_images_per_second\": {quant_ips:.2}}}\n}}\n",
        quantmcu::default_workers(),
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n"),
        images.len()
    );
    // Smoke runs exist to catch runtime panics and perf tripwires; don't
    // let their shrunken measurements clobber the committed snapshot.
    let path = if smoke() { "BENCH_kernels.smoke.json" } else { "BENCH_kernels.json" };
    std::fs::write(path, &json).expect("write kernels benchmark JSON");
    println!("\nwrote {path} ({} bytes)", json.len());
}
