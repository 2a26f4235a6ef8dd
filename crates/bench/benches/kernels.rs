//! Kernel-level micro-benchmarks: integer executor throughput per
//! activation bitwidth, packing, and entropy estimation.
//!
//! These back the cost-model constants: on a host CPU sub-byte execution
//! does not speed up (we unpack to bytes, as CMix-NN does), so this bench
//! documents the *functional* cost of each path rather than MCU speedups —
//! those come from `quantmcu_mcusim::cycles`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use quantmcu::nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu::nn::kernels::{self, naive, FloatDot};
use quantmcu::nn::{init, Graph, GraphSpecBuilder};
use quantmcu::quant::entropy;
use quantmcu::tensor::{pack, Bitwidth, Shape, Tensor};

fn bench_graph() -> Graph {
    let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
        .conv2d(8, 3, 2, 1)
        .relu6()
        .dwconv(3, 1, 1)
        .relu6()
        .pwconv(16)
        .global_avg_pool()
        .dense(10)
        .build()
        .expect("spec builds");
    init::with_structured_weights(spec, 3)
}

fn input() -> Tensor {
    Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i as f32) * 0.13).sin())
}

fn executors(c: &mut Criterion) {
    let graph = bench_graph();
    let x = input();
    let ranges = calibrate_ranges(&graph, std::slice::from_ref(&x)).expect("calibrate");
    let mut group = c.benchmark_group("executor");
    group.sample_size(20);
    group.bench_function("float", |b| {
        let mut exec = FloatExecutor::new(&graph);
        b.iter(|| exec.run(&x).expect("run"))
    });
    for bits in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
        let act = vec![bits; graph.spec().feature_map_count()];
        let compiled =
            CompiledGraph::with_quantization(&graph, &ranges, &act, Bitwidth::W8).expect("exec");
        let mut state = ExecState::new();
        group.bench_with_input(BenchmarkId::new("quant", bits), &bits, |b, _| {
            b.iter(|| compiled.run_quant(&mut state, &x).expect("run"))
        });
    }
    group.finish();
}

fn packing(c: &mut Criterion) {
    let values: Vec<i8> = (0..65536).map(|i| ((i % 15) as i8) - 7).collect();
    let mut group = c.benchmark_group("pack");
    group.sample_size(30);
    for bits in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
        group.bench_with_input(BenchmarkId::new("pack_unpack", bits), &bits, |b, &bits| {
            b.iter(|| {
                let packed = pack::pack(&values, bits);
                pack::unpack(&packed, bits, values.len())
            })
        });
    }
    group.finish();
}

fn entropy_estimator(c: &mut Criterion) {
    let values: Vec<f32> = (0..262_144).map(|i| ((i as f32) * 0.001).sin() * 3.0).collect();
    let mut group = c.benchmark_group("entropy");
    group.sample_size(20);
    for k in [32usize, 256, 2048] {
        group.bench_with_input(BenchmarkId::new("bins", k), &k, |b, &k| {
            b.iter(|| entropy::entropy_reduction(&values, Bitwidth::W4, k).expect("entropy"))
        });
    }
    group.finish();
}

/// Blocked vs naive kernels on the acceptance layer: a 32×32×32 feature
/// map through a 32-filter 3×3 convolution (plus the depthwise and dense
/// counterparts). The blocked kernels must be ≥2× faster than the
/// pre-refactor naive loop nests they replaced.
fn blocked_vs_naive(c: &mut Criterion) {
    let shape = Shape::hwc(32, 32, 32);
    let input = Tensor::from_fn(shape, |i| ((i as f32) * 0.13).sin());
    let varied = |len: usize, seed: u64| -> Vec<f32> {
        (0..len).map(|i| (((i as u64 ^ seed) as f32) * 0.07).sin() * 0.5).collect()
    };

    let mut group = c.benchmark_group("conv2d_32x32x32");
    group.sample_size(20);
    let (oc, k) = (32, 3);
    let weights = varied(oc * k * k * shape.c, 3);
    let bias = varied(oc, 5);
    group.bench_function("naive", |b| {
        b.iter(|| naive::conv2d(&input, &weights, &bias, oc, k, 1, 1))
    });
    group.bench_function("blocked", |b| {
        let mut out = vec![0.0f32; 32 * 32 * oc];
        let mut tile = Vec::new();
        b.iter(|| {
            kernels::conv2d(
                &FloatDot { weights: &weights, bias: &bias },
                input.data(),
                shape,
                &mut out,
                oc,
                k,
                1,
                1,
                shape.full_region(),
                &mut tile,
            );
            out[0]
        })
    });
    group.finish();

    let mut group = c.benchmark_group("dwconv_32x32x32");
    group.sample_size(20);
    let dw_weights = varied(k * k * shape.c, 7);
    let dw_bias = varied(shape.c, 9);
    group.bench_function("naive", |b| {
        b.iter(|| naive::dwconv(&input, &dw_weights, &dw_bias, k, 1, 1))
    });
    group.bench_function("blocked", |b| {
        let mut out = vec![0.0f32; shape.len()];
        b.iter(|| {
            kernels::dwconv(
                &FloatDot { weights: &dw_weights, bias: &dw_bias },
                input.data(),
                shape,
                &mut out,
                k,
                1,
                1,
                shape.full_region(),
            );
            out[0]
        })
    });
    group.finish();

    let mut group = c.benchmark_group("dense_32768x64");
    group.sample_size(20);
    let out_f = 64;
    let d_weights = varied(out_f * shape.len(), 11);
    let d_bias = varied(out_f, 13);
    group.bench_function("naive", |b| b.iter(|| naive::dense(&input, &d_weights, &d_bias, out_f)));
    group.bench_function("blocked", |b| {
        let mut out = vec![0.0f32; out_f];
        b.iter(|| {
            kernels::dense(
                &FloatDot { weights: &d_weights, bias: &d_bias },
                input.data(),
                shape,
                &mut out,
                out_f,
            );
            out[0]
        })
    });
    group.finish();
}

criterion_group!(benches, executors, packing, entropy_estimator, blocked_vs_naive);
criterion_main!(benches);
