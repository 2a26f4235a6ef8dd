//! Allocation-regression test: after one warm-up inference, the
//! arena-backed executors perform **zero** heap allocations per run.
//!
//! A counting global allocator (the `alloc-counter` shim) intercepts
//! every `alloc`/`realloc` (counted per thread, so tests running in
//! parallel do not interfere); the steady-state loop below must not move the
//! counter at all. This pins down the executor-owned
//! [`quantmcu_tensor::Arena`] + liveness-schedule design: every feature
//! map buffer is recycled once its last consumer has fired, and the
//! streaming `run_with` path touches the heap only during warm-up.

use quantmcu_nn::exec::{calibrate_ranges, FloatExecutor, QuantExecutor};
use quantmcu_nn::{init, GraphSpecBuilder};
use quantmcu_tensor::{Bitwidth, Shape, Tensor};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// A graph exercising every kernel family: conv, dwconv, pointwise conv,
/// residual add, pooling, global pooling and dense.
fn graph() -> quantmcu_nn::Graph {
    let spec = {
        let b = GraphSpecBuilder::new(Shape::hwc(16, 16, 3)).conv2d(8, 3, 1, 1).relu6();
        let entry = b.mark();
        b.dwconv(3, 1, 1)
            .relu6()
            .pwconv(8)
            .add_from(entry)
            .max_pool(2, 2)
            .conv2d(12, 3, 2, 1)
            .relu()
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    };
    init::with_structured_weights(spec, 42)
}

fn input() -> Tensor {
    Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i as f32) * 0.17).sin())
}

#[test]
fn float_executor_is_allocation_free_after_warmup() {
    let g = graph();
    let x = input();
    let mut exec = FloatExecutor::new(&g);
    // Warm-up: populates the arena with one buffer per live shape.
    exec.run_with(&x, |_, _| {}).unwrap();
    exec.run_with(&x, |_, _| {}).unwrap();

    let before = alloc_counter::allocation_count();
    for _ in 0..20 {
        exec.run_with(&x, |_, _| {}).unwrap();
    }
    let after = alloc_counter::allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state run_with must not allocate ({} allocations over 20 runs)",
        after - before
    );
}

#[test]
fn quant_executor_is_allocation_free_after_warmup() {
    let g = graph();
    let x = input();
    let ranges = calibrate_ranges(&g, std::slice::from_ref(&x)).unwrap();
    let bits = vec![Bitwidth::W8; g.spec().feature_map_count()];
    let mut exec = QuantExecutor::new(&g, &ranges, &bits, Bitwidth::W8).unwrap();
    exec.run_with(&x, |_, _| {}).unwrap();
    exec.run_with(&x, |_, _| {}).unwrap();

    let before = alloc_counter::allocation_count();
    for _ in 0..20 {
        exec.run_with(&x, |_, _| {}).unwrap();
    }
    let after = alloc_counter::allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state quantized run_with must not allocate ({} allocations over 20 runs)",
        after - before
    );
}

#[test]
fn observer_sees_live_maps_while_arena_recycles() {
    // Sanity companion to the counter tests: the zero-allocation path
    // still yields every feature map with correct contents.
    let g = graph();
    let x = input();
    let mut exec = FloatExecutor::new(&g);
    let expected = exec.run_trace(&x).unwrap();
    let mut count = 0;
    exec.run_with(&x, |fm, t| {
        assert_eq!(t, &expected[fm.0]);
        count += 1;
    })
    .unwrap();
    assert_eq!(count, expected.len());
}
