//! Allocation-regression test for the patch stage: after one warm-up run,
//! the whole per-patch stage — every branch through the compiled head,
//! stitched into the stage output — performs **zero** heap allocations
//! when driven through [`PatchExecutor::run_stage_into`] with a reused
//! [`PatchState`] and [`PatchOutput`], with or without per-branch grids.
//!
//! This pins the compile-once design: the head is a `CompiledGraph`
//! built at construction, and every branch recycles its feature maps
//! through the one `ExecState` the caller passes in.
//!
//! [`PatchState`]: quantmcu_patch::PatchState
//! [`PatchOutput`]: quantmcu_patch::PatchOutput

use quantmcu_nn::exec::FloatExecutor;
use quantmcu_nn::{init, GraphSpecBuilder};
use quantmcu_patch::{PatchExecutor, PatchPlan, PatchState};
use quantmcu_tensor::{Bitwidth, QuantParams, Shape, Tensor};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn graph() -> quantmcu_nn::Graph {
    let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
        .conv2d(8, 3, 2, 1)
        .relu6()
        .dwconv(3, 1, 1)
        .relu6()
        .pwconv(12)
        .global_avg_pool()
        .dense(10)
        .build()
        .unwrap();
    init::with_structured_weights(spec, 21)
}

fn input() -> Tensor {
    Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i as f32) * 0.31).sin())
}

/// Allocations made by 20 warm runs of the 2×2 stage, optionally with
/// per-branch grids; also checks the warm runs stay bit-identical.
fn warm_stage_allocations(per_branch: Option<&[Vec<QuantParams>]>) -> u64 {
    let g = graph();
    let x = input();
    let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
    let pe = PatchExecutor::stage_only(&g, plan).unwrap();
    let mut state = PatchState::new();
    let mut out = pe.make_output();
    // Warm-up: the arena reaches its fixed point, the slot vector its
    // steady capacity.
    pe.run_stage_into(&mut state, &x, per_branch, &mut out).unwrap();
    pe.run_stage_into(&mut state, &x, per_branch, &mut out).unwrap();
    let expected = out.clone();

    let before = alloc_counter::allocation_count();
    for _ in 0..20 {
        pe.run_stage_into(&mut state, &x, per_branch, &mut out).unwrap();
    }
    let after = alloc_counter::allocation_count();
    assert_eq!(out, expected, "zero-allocation path must stay bit-identical");
    after - before
}

#[test]
fn full_patch_inference_is_allocation_free_after_warmup() {
    let n = warm_stage_allocations(None);
    assert_eq!(n, 0, "steady-state patch stage must not allocate ({n} allocations over 20 runs)");
}

#[test]
fn quantized_patch_inference_is_allocation_free_after_warmup() {
    // Per-branch 8-bit params from a float trace (setup may allocate).
    let trace = FloatExecutor::new(&graph()).run_trace(&input()).unwrap();
    let params: Vec<QuantParams> =
        trace[..6].iter().map(|t| QuantParams::from_tensor(t, Bitwidth::W8)).collect();
    let n = warm_stage_allocations(Some(&vec![params; 4]));
    assert_eq!(
        n, 0,
        "steady-state fake-quantized patch stage must not allocate ({n} allocations over 20 runs)"
    );
}

#[test]
fn reused_output_matches_fresh_run() {
    // Sanity companion: a state and output reused from a run on another
    // input compute the same numbers as fresh ones.
    let g = graph();
    let x = input();
    let other = Tensor::from_fn(x.shape(), |i| ((i as f32) * 0.17).cos());
    let plan = PatchPlan::new(g.spec(), 5, 3, 3).unwrap();
    let pe = PatchExecutor::stage_only(&g, plan).unwrap();
    let mut fresh = pe.make_output();
    pe.run_stage_into(&mut PatchState::new(), &x, None, &mut fresh).unwrap();
    let mut state = PatchState::new();
    let mut reused = pe.make_output();
    pe.run_stage_into(&mut state, &other, None, &mut reused).unwrap();
    pe.run_stage_into(&mut state, &x, None, &mut reused).unwrap();
    assert_eq!(fresh, reused);
}
