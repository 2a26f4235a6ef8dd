//! Patch-engine benchmarks: the numeric cost of computing a network's
//! head patch by patch versus layer by layer, per grid fineness — the
//! host-side counterpart of Fig. 1b's redundancy overhead. Both rows time
//! the same work: the float head up to the split, producing the stage
//! output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use quantmcu::nn::exec::{CompiledGraph, ExecState};
use quantmcu::nn::{init, Graph, GraphSpecBuilder};
use quantmcu::patch::{PatchExecutor, PatchPlan, PatchState};
use quantmcu::tensor::{Shape, Tensor};

/// Node boundary between the head and the tail.
const SPLIT: usize = 5;

fn graph() -> Graph {
    let spec = GraphSpecBuilder::new(Shape::hwc(32, 32, 3))
        .conv2d(8, 3, 1, 1)
        .relu6()
        .conv2d(8, 3, 2, 1)
        .relu6()
        .conv2d(16, 3, 2, 1)
        .global_avg_pool()
        .dense(10)
        .build()
        .expect("spec builds");
    init::with_structured_weights(spec, 5)
}

fn head_patched_vs_layer(c: &mut Criterion) {
    let g = graph();
    let x = Tensor::from_fn(Shape::hwc(32, 32, 3), |i| ((i as f32) * 0.07).sin());
    let mut group = c.benchmark_group("patch_engine");
    group.sample_size(20);
    group.bench_function("head_layer_based", |b| {
        let (head_spec, _) = g.spec().split_at(SPLIT).expect("split");
        let params = (0..SPLIT).map(|i| g.params(i).clone()).collect();
        let head = CompiledGraph::new(Graph::new(head_spec, params)).expect("compiles");
        let mut state = ExecState::new();
        let mut out = Tensor::zeros(head.spec().output_shape());
        b.iter(|| head.run_float_into(&mut state, &x, &mut out).expect("run"))
    });
    for grid in [2usize, 3, 4] {
        let plan = PatchPlan::new(g.spec(), SPLIT, grid, grid).expect("plan");
        let pe = PatchExecutor::stage_only(&g, plan).expect("executor");
        let mut state = PatchState::new();
        let mut out = pe.make_output();
        group.bench_with_input(BenchmarkId::new("head_patched", grid), &grid, |b, _| {
            b.iter(|| pe.run_stage_into(&mut state, &x, None, &mut out).expect("run"))
        });
    }
    group.finish();
}

criterion_group!(benches, head_patched_vs_layer);
criterion_main!(benches);
