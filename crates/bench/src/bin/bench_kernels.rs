//! Micro-kernel throughput snapshot emitting `BENCH_kernels.json`, so the
//! kernel-speed trajectory is machine-readable across revisions — the
//! kernel-level companion of `bench_plan` / `bench_serve`.
//!
//! Each integer op runs four strategies on one shape:
//!
//! * **naive** — the `kernels::naive::*_q` oracle loop nests over `i32`
//!   grid values and unpacked `i8` weights;
//! * **tiled** — the deployed integer kernels (`kernels::{conv2d_q,
//!   dwconv_q, dense_q}`): `i8` feature maps in and out, pixel rows as
//!   `i16` lanes, packed W8/W4/W2 weights decoded a panel of output
//!   channels at a time;
//! * **float** — the float kernels on the same shape, the reference the
//!   integer path should beat (`speedup_vs_float`);
//! * **float_naive** — the float `kernels::naive` loop nests.
//!
//! The tiled output is asserted bit-identical to naive before timing
//! counts, and the float output equal to float naive (depthwise and the
//! pixel-tiled conv) or within 256 ULPs (dense and the lane-split conv of
//! maps under `kernels::PIX` pixels). Conv2d sweeps every packed width
//! (W8/W4/W2), each with its own naive row over the same range-clamped
//! weights; `pwconv_int` is the 1×1 shape that dominates MobileNetV2's
//! integer tail, `pwconv_1px_int` (1×1×480→80) and `pwconv_2x2_int`
//! (2×2×48→288) are the tail's one-pixel and four-pixel 1×1 regimes,
//! `stem_conv_int` is the patch head's stride-2 stem, and
//! `head_pwconv_int` is a 16→48 pointwise conv at the head's resolution.
//! That shape exists only as the folded form of the head's 16→8→48
//! bottleneck pair, which the importer keeps as two convs (folding it
//! would add MACs), so no deployed graph runs it: the row is a mid-size
//! 1×1 reference.
//!
//! The binary asserts the perf-regression tripwire (tiled must not be
//! slower than naive on any integer op, nor float slower than float
//! naive) and finishes with end-to-end
//! images/second through the float and quantized executors. Set
//! `QUANTMCU_SMOKE=1` to shrink shapes and repetitions for CI.

use std::time::{Duration, Instant};

use quantmcu::models::Model;
use quantmcu::nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu::nn::kernels::{
    self, naive, FixedMultiplier, FloatDot, PackedDot, Requant, RowScratch, GENERATION,
};
use quantmcu::tensor::{pack, Bitwidth, Shape, Tensor};
use quantmcu_bench::{exec_dataset, exec_graph, host_cpu, smoke};

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

/// Deterministic pseudo-random floats in `[-0.5, 0.5)`.
fn varied_f(len: usize, seed: u64) -> Vec<f32> {
    varied_q(len, seed, -500, 499).into_iter().map(|v| v as f32 * 1e-3).collect()
}

/// Per-channel requantization onto an 8-bit output grid (identical for
/// naive and tiled, so bit-identity of outputs follows from bit-identity
/// of accumulators).
fn requant(channels: usize) -> Requant {
    let bias_q: Vec<i64> =
        varied_q(channels, 0xB1A5, -500, 500).into_iter().map(i64::from).collect();
    let scale: Vec<FixedMultiplier> = (0..channels)
        .map(|ch| FixedMultiplier::from_real(1e-3 * (1.0 + ch as f64 * 0.31) / 0.037))
        .collect();
    Requant::new(&bias_q, &scale, 3, -128, 127)
}

/// `bits`-ranged quantized weights.
fn weights(len: usize, seed: u64, bits: Bitwidth) -> Vec<i8> {
    varied_q(len, seed, bits.min_value(), bits.max_value()).into_iter().map(|v| v as i8).collect()
}

/// One timed strategy row for the JSON snapshot. Speedups compare rows of
/// the same op at the same weight width.
struct Row {
    op: &'static str,
    weight_bits: u32,
    strategy: String,
    seconds: f64,
    vs_naive: f64,
    vs_float: f64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"op\": \"{}\", \"weight_bits\": {}, \"strategy\": \"{}\", \"seconds\": {:.7}, \
             \"speedup_vs_naive\": {:.4}, \"speedup_vs_float\": {:.4}}}",
            self.op, self.weight_bits, self.strategy, self.seconds, self.vs_naive, self.vs_float
        )
    }
}

/// A weighted layer's shape; `k == 0` marks a dense layer over the whole
/// input.
#[derive(Clone, Copy)]
struct Layer {
    input: Shape,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    depthwise: bool,
}

impl Layer {
    fn conv(input: Shape, out_ch: usize, k: usize, stride: usize, pad: usize) -> Self {
        Layer { input, out_ch, k, stride, pad, depthwise: false }
    }

    fn output(&self) -> Shape {
        if self.k == 0 {
            return Shape::new(self.input.n, 1, 1, self.out_ch);
        }
        let (oh, ow) = kernels::conv_output_hw(self.input, self.k, self.stride, self.pad);
        Shape::new(self.input.n, oh, ow, self.out_ch)
    }

    /// Weight count in the op's canonical layout.
    fn weight_len(&self) -> usize {
        match (self.k, self.depthwise) {
            (0, _) => self.out_ch * self.input.per_sample(),
            (k, true) => k * k * self.input.c,
            (k, false) => self.out_ch * k * k * self.input.c,
        }
    }
}

/// Times naive, tiled and float for one op at one weight width, after
/// asserting tiled is bit-identical to naive, and applies the tripwire.
fn sweep(
    op: &'static str,
    layer: Layer,
    bits: Bitwidth,
    timing: (usize, usize),
    rows: &mut Vec<Row>,
) {
    let (reps, iters) = timing;
    let zp_in = 4;
    let (input, out) = (layer.input, layer.output());
    let (Layer { out_ch, k, stride, pad, .. }, c) = (layer, out.c);
    let q_in = varied_q(input.len(), 1, -100, 100);
    let q8: Vec<i8> = q_in.iter().map(|&q| q as i8).collect();
    let qw = weights(layer.weight_len(), 2, bits);
    let packed = pack::pack(&qw, bits);
    let rq = requant(c);
    let dot = PackedDot::new(&packed, bits, zp_in, &rq);
    let x = varied_f(input.len(), 3);
    let (w, b) = (varied_f(qw.len(), 4), varied_f(c, 5));
    let fdot = FloatDot { weights: &w, bias: &b };

    let naive = || match (k, layer.depthwise) {
        (0, _) => naive::dense_q(&q_in, input, &qw, zp_in, &rq, out_ch),
        (_, true) => naive::dwconv_q(&q_in, input, &qw, zp_in, &rq, k, stride, pad),
        _ => naive::conv2d_q(&q_in, input, &qw, zp_in, &rq, out_ch, k, stride, pad),
    };
    let mut row = RowScratch::default();
    let mut tiled = || {
        let mut o = vec![0i8; out.len()];
        match (k, layer.depthwise) {
            (0, _) => kernels::dense_q(&dot, &q8, input, &mut o, out_ch, &mut row),
            (_, true) => kernels::dwconv_q(&dot, &q8, input, &mut o, k, stride, pad, &mut row),
            _ => kernels::conv2d_q(&dot, &q8, input, &mut o, out_ch, k, stride, pad, &mut row),
        }
        o
    };
    let mut tile = Vec::new();
    let mut float = || {
        let mut o = vec![0.0f32; out.len()];
        let region = out.full_region();
        match (k, layer.depthwise) {
            (0, _) => kernels::dense(&fdot, &x, input, &mut o, out_ch),
            (_, true) => kernels::dwconv(&fdot, &x, input, &mut o, k, stride, pad, region),
            _ => {
                kernels::conv2d(&fdot, &x, input, &mut o, out_ch, k, stride, pad, region, &mut tile)
            }
        }
        o
    };
    let x_t = Tensor::from_vec(input, x.clone()).expect("input length matches");
    let float_naive = || match (k, layer.depthwise) {
        (0, _) => naive::dense(&x_t, &w, &b, out_ch),
        (_, true) => naive::dwconv(&x_t, &w, &b, k, stride, pad),
        _ => naive::conv2d(&x_t, &w, &b, out_ch, k, stride, pad),
    };
    let reference = naive();
    let got: Vec<i32> = tiled().into_iter().map(i32::from).collect();
    assert_eq!(got, reference, "{op} {bits}: tiled output diverged from naive");
    // Depthwise and the pixel-tiled conv sum in naive's order; dense and
    // the lane-split conv of small maps reassociate, within 256 ULPs.
    let exact = layer.depthwise || (k > 0 && out.h * out.w >= kernels::PIX);
    let (got, want) = (float(), float_naive());
    for (i, (&a, &e)) in got.iter().zip(want.data()).enumerate() {
        let ulps = (a.to_bits() as i64 - e.to_bits() as i64).unsigned_abs();
        let close = if exact { a == e } else { (a - e).abs() <= 1e-5 || ulps <= 256 };
        assert!(close, "{op}: float element {i} is {a}, naive {e} (exact: {exact})");
    }

    let tiled_name = format!("tiled_{}", bits.bits());
    let timed = [
        ("naive".to_string(), measure(reps, iters, naive).as_secs_f64()),
        (tiled_name, measure(reps, iters, &mut tiled).as_secs_f64()),
        ("float".to_string(), measure(reps, iters, &mut float).as_secs_f64()),
        ("float_naive".to_string(), measure(reps, iters, float_naive).as_secs_f64()),
    ];
    let (naive_t, tiled_t, float_t, float_naive_t) =
        (timed[0].1, timed[1].1, timed[2].1, timed[3].1);
    println!(
        "{op} ({bits} weights, {}x{}x{} -> {}x{}x{}):",
        input.h, input.w, input.c, out.h, out.w, out.c
    );
    for (name, t) in timed {
        let (vs_naive, vs_float) = (naive_t / t, float_t / t);
        println!(
            "  {name:11} {:10.4} ms  ({vs_naive:.2}x vs naive, {vs_float:.2}x vs float)",
            t * 1e3
        );
        let weight_bits = bits.bits();
        rows.push(Row { op, weight_bits, strategy: name, seconds: t, vs_naive, vs_float });
    }
    // Perf-regression tripwire: the packed integer path and the float
    // kernels must never fall behind the oracle loops they replaced.
    assert!(tiled_t <= naive_t, "{op}: tiled ({tiled_t:.7}s) slower than naive ({naive_t:.7}s)");
    assert!(
        float_t <= float_naive_t,
        "{op}: float ({float_t:.7}s) slower than float naive ({float_naive_t:.7}s)"
    );
    println!();
}

fn main() {
    let (reps, iters) = if smoke() { (2, 1) } else { (15, 5) };
    // A 32×32×32 map through 32 3×3 filters; smoke shrinks it.
    let (hw, c, oc) = if smoke() { (12, 16, 16) } else { (32, 32, 32) };
    let shape = Shape::hwc(hw, hw, c);
    let mut rows = Vec::new();

    println!(
        "Integer micro-kernels ({GENERATION}), best of {reps}x{iters}; \
         tiled bit-identical to naive\n"
    );
    for bits in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
        sweep("conv2d_int", Layer::conv(shape, oc, 3, 1, 1), bits, (reps, iters), &mut rows);
    }
    // MobileNetV2's pointwise expansion at exec scale.
    let pw = Layer::conv(Shape::hwc(8, 8, 16), 96, 1, 1, 0);
    sweep("pwconv_int", pw, Bitwidth::W8, (reps, iters), &mut rows);
    // Full size in smoke runs too: the patch head's stride-2 stem at exec
    // scale, and the folded 16→48 form of its 16→8→48 bottleneck pair,
    // which only an importer that folds it would run.
    let stem = Layer::conv(Shape::hwc(32, 32, 3), 16, 3, 2, 1);
    sweep("stem_conv_int", stem, Bitwidth::W8, (reps, iters), &mut rows);
    let head_pw = Layer::conv(Shape::hwc(16, 16, 16), 48, 1, 1, 0);
    sweep("head_pwconv_int", head_pw, Bitwidth::W8, (reps, iters), &mut rows);
    // The integer tail's two other 1×1 regimes: one pixel, and a 2×2 map.
    let one_pixel = Layer::conv(Shape::hwc(1, 1, 480), 80, 1, 1, 0);
    sweep("pwconv_1px_int", one_pixel, Bitwidth::W8, (reps, iters), &mut rows);
    let four_pixel = Layer::conv(Shape::hwc(2, 2, 48), 288, 1, 1, 0);
    sweep("pwconv_2x2_int", four_pixel, Bitwidth::W8, (reps, iters), &mut rows);
    let dw = Layer { depthwise: true, ..Layer::conv(shape, c, 3, 1, 1) };
    sweep("dwconv_int", dw, Bitwidth::W8, (reps, iters), &mut rows);
    let out_f = if smoke() { 32 } else { 64 };
    let dense = Layer { k: 0, ..Layer::conv(shape, out_f, 0, 1, 0) };
    sweep("dense_int", dense, Bitwidth::W8, (reps, iters), &mut rows);

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
        let compiled = CompiledGraph::with_quantization(&graph, &ranges, &act, Bitwidth::W8)
            .expect("quant executor");
        let mut state = ExecState::new();
        measure(reps, 1, || {
            for x in &images {
                std::hint::black_box(compiled.run_quant(&mut state, x).expect("quant run"));
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
         \"host_parallelism\": {},\n  \"host_cpu\": \"{}\",\n  \"reps\": {reps},\n  \
         \"iters\": {iters},\n  \"ops\": [\n{}\n  ],\n  \
         \"end_to_end\": {{\"model\": \"MobileNetV2 (exec scale)\", \"images\": {}, \
         \"float_images_per_second\": {float_ips:.2}, \
         \"quant_images_per_second\": {quant_ips:.2}}}\n}}\n",
        quantmcu::default_workers(),
        host_cpu(),
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n"),
        images.len()
    );
    // Smoke runs exist to catch runtime panics and perf tripwires; don't
    // let their shrunken measurements clobber the committed snapshot.
    let path = if smoke() { "BENCH_kernels.smoke.json" } else { "BENCH_kernels.json" };
    std::fs::write(path, &json).expect("write kernels benchmark JSON");
    println!("\nwrote {path} ({} bytes)", json.len());
}
