//! Integration tests for DAG-shaped patch stages: the engine must stay
//! bit-exact when residual adds and fire-style concats sit inside the
//! per-patch stage (and on every zoo model), and the cost models must stay
//! consistent with the numeric engine on those graphs.

use quantmcu::mcusim::{Device, LatencyModel};
use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::cost::BitwidthAssignment;
use quantmcu::nn::exec::FloatExecutor;
use quantmcu::nn::{init, Graph, GraphSpecBuilder};
use quantmcu::patch::{largest_straight_prefix, redundancy, PatchExecutor, PatchPlan, PatchState};
use quantmcu::tensor::{Bitwidth, Shape, Tensor};

fn input(shape: Shape, seed: u64) -> Tensor {
    Tensor::from_fn(shape, |i| (((i as u64).wrapping_mul(seed + 3) % 997) as f32 * 0.011).sin())
}

/// A graph whose patchable prefix contains a residual add.
fn residual_graph() -> Graph {
    let spec = {
        let b = GraphSpecBuilder::new(Shape::hwc(16, 16, 6));
        let entry = b.mark();
        b.conv2d(6, 3, 1, 1)
            .relu6()
            .conv2d(6, 3, 1, 1)
            .add_from(entry)
            .conv2d(12, 3, 2, 1)
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap()
    };
    init::with_structured_weights(spec, 17)
}

/// A graph whose patchable prefix contains a fire-style concat.
fn concat_graph() -> Graph {
    let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 8))
        .fire(4, 6, 6)
        .conv2d(12, 3, 2, 1)
        .global_avg_pool()
        .dense(4)
        .build()
        .unwrap();
    init::with_structured_weights(spec, 23)
}

/// The stitched stage output of a `rows`×`cols` plan split at `split`.
fn patched_stage(g: &Graph, x: &Tensor, split: usize, rows: usize, cols: usize) -> Tensor {
    let plan = PatchPlan::new(g.spec(), split, rows, cols).unwrap();
    let pe = PatchExecutor::stage_only(g, plan).unwrap();
    let mut out = pe.make_output();
    pe.run_stage_into(&mut PatchState::new(), x, None, &mut out).unwrap();
    out.stage_output
}

/// Number of values where `a` and `b` differ bit for bit.
fn bit_mismatches(a: &Tensor, b: &Tensor) -> usize {
    assert_eq!(a.shape(), b.shape());
    a.data().iter().zip(b.data()).filter(|(x, y)| x.to_bits() != y.to_bits()).count()
}

#[test]
fn residual_head_patching_is_exact() {
    let g = residual_graph();
    // Split after the strided conv: head = conv,relu6,conv,add,conv.
    let x = input(Shape::hwc(16, 16, 6), 1);
    let full = FloatExecutor::new(&g).run_trace(&x).unwrap();
    let mismatches = bit_mismatches(&patched_stage(&g, &x, 5, 2, 2), &full[5]);
    assert_eq!(mismatches, 0, "residual-head patching diverged in {mismatches} values");
}

#[test]
fn concat_head_patching_is_exact() {
    let g = concat_graph();
    // Head covers the whole fire module (6 nodes) plus the strided conv.
    let split = largest_straight_prefix(g.spec());
    assert!(split >= 7, "fire module should be patchable, prefix = {split}");
    let x = input(Shape::hwc(16, 16, 8), 2);
    let full = FloatExecutor::new(&g).run_trace(&x).unwrap();
    assert_eq!(bit_mismatches(&patched_stage(&g, &x, split, 3, 3), &full[split]), 0);
}

#[test]
fn zoo_patch_stages_are_bit_exact() {
    // Every zoo model, split at its earliest and its deepest boundary that
    // hosts a 3x3 grid, at 2x2 and 3x3: the stitched stage equals the full
    // float run's map at the split, bit for bit. Exec-scale resolution at
    // a quarter width keeps the debug-build run to a few seconds.
    for model in Model::ALL {
        let spec = model.spec(ModelConfig::new(32, 0.25, 10)).unwrap();
        let g = init::with_structured_weights(spec, 7);
        let x = input(g.spec().input_shape(), 5);
        let full = FloatExecutor::new(&g).run_trace(&x).unwrap();
        let splits: Vec<usize> = (1..=largest_straight_prefix(g.spec()))
            .filter(|&at| PatchPlan::new(g.spec(), at, 3, 3).is_ok())
            .collect();
        let (&early, &last) = (splits.first().unwrap(), splits.last().unwrap());
        for split in [early, last] {
            for grid in [2, 3] {
                let stage = patched_stage(&g, &x, split, grid, grid);
                let mismatches = bit_mismatches(&stage, &full[split]);
                assert_eq!(mismatches, 0, "{} split {split} grid {grid}", model.name());
            }
        }
    }
}

#[test]
fn residual_head_redundancy_counts_both_paths() {
    let g = residual_graph();
    let plan = PatchPlan::new(g.spec(), 4, 2, 2).unwrap();
    let report = redundancy::analyze(g.spec(), &plan).unwrap();
    // Two 3x3 convs in the head; halos must cost something at 2x2.
    assert!(report.redundant_macs() > 0);
    assert!(report.overhead_ratio() > 1.0 && report.overhead_ratio() < 2.0);
}

#[test]
fn latency_model_is_monotone_in_bits_on_dag_heads() {
    let g = residual_graph();
    let spec = g.spec();
    let plan = PatchPlan::new(spec, 5, 2, 2).unwrap();
    let (head, tail) = spec.split_at(5).unwrap();
    let model = LatencyModel::new(Device::nano33_ble_sense());
    let lat = |b: Bitwidth| {
        let bb = vec![vec![b; head.len() + 1]; plan.branch_count()];
        let tb = vec![b; tail.feature_map_count()];
        model.patch_based(spec, &plan, &bb, &tb, Bitwidth::W8).unwrap()
    };
    assert!(lat(Bitwidth::W2) < lat(Bitwidth::W4));
    assert!(lat(Bitwidth::W4) < lat(Bitwidth::W8));
}

#[test]
fn layer_latency_scales_with_clock_and_assignment() {
    let g = concat_graph();
    let spec = g.spec();
    let model = LatencyModel::new(Device::nano33_ble_sense());
    let t8 =
        model.layer_based(spec, &BitwidthAssignment::uniform(spec, Bitwidth::W8), Bitwidth::W8);
    let t4 =
        model.layer_based(spec, &BitwidthAssignment::uniform(spec, Bitwidth::W4), Bitwidth::W8);
    assert!(t4 < t8, "4-bit activations must be faster: {t4:?} vs {t8:?}");
}
