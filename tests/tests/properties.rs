//! Property-based integration tests over the public API: invariants that
//! must hold for arbitrary shapes, grids and bitwidth assignments.

use proptest::prelude::*;

use quantmcu::nn::cost::{self, BitwidthAssignment};
use quantmcu::nn::receptive::backward_regions;
use quantmcu::nn::{exec::FloatExecutor, init, GraphSpecBuilder};
use quantmcu::patch::{redundancy, Branch, PatchExecutor, PatchPlan, PatchState};
use quantmcu::tensor::{pack, Bitwidth, QuantParams, Region, Shape, Tensor};

fn arb_bitwidth() -> impl Strategy<Value = Bitwidth> {
    prop_oneof![Just(Bitwidth::W2), Just(Bitwidth::W4), Just(Bitwidth::W8)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packing roundtrips for every bitwidth and any in-range payload.
    #[test]
    fn pack_roundtrip(values in prop::collection::vec(-2i8..=1, 0..200), b in arb_bitwidth()) {
        let packed = pack::pack(&values, b);
        prop_assert_eq!(pack::unpack(&packed, b, values.len()), values);
    }

    /// Quantize→dequantize error is bounded by half a step for in-range
    /// values.
    #[test]
    fn quantization_error_bounded(
        lo in -100.0f32..0.0,
        span in 0.1f32..200.0,
        v in 0.0f32..1.0,
        b in arb_bitwidth(),
    ) {
        let hi = lo + span;
        let params = QuantParams::from_min_max(lo, hi, b).unwrap();
        let x = lo + span * v;
        let err = (params.dequantize(params.quantize(x)) - x).abs();
        prop_assert!(err <= params.scale() * 0.5 + 1e-4);
    }

    /// Patch grids tile the plane exactly, without overlap, for any
    /// geometry.
    #[test]
    fn grids_tile_exactly(h in 1usize..40, w in 1usize..40, rows in 1usize..6, cols in 1usize..6) {
        prop_assume!(rows <= h && cols <= w);
        let regions = quantmcu::patch::grid_regions(h, w, rows, cols);
        let area: usize = regions.iter().map(Region::area).sum();
        prop_assert_eq!(area, h * w);
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                prop_assert!(regions[i].intersect(&regions[j]).is_none());
            }
        }
    }

    /// Receptive-field back-propagation always yields regions that contain
    /// the projected output region and stay in bounds.
    #[test]
    fn backward_regions_contain_demand(
        size in 8usize..24,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
    ) {
        prop_assume!(size > k);
        let spec = GraphSpecBuilder::new(Shape::hwc(size, size, 2))
            .conv2d(4, k, stride, k / 2)
            .relu6()
            .build()
            .unwrap();
        let out = spec.output_shape();
        let region = Region::new(0, 0, out.h, out.w);
        let regions = backward_regions(&spec, region);
        prop_assert!(regions[0].y_end() <= size && regions[0].x_end() <= size);
        // Full output demand requires (at least almost) the full input.
        prop_assert!(regions[0].area() >= (out.h * stride).min(size) * (out.w * stride).min(size) / 2);
    }

    /// The patched float stage equals plain execution at the split, bit
    /// for bit, for any grid.
    #[test]
    fn patch_execution_is_exact(rows in 1usize..4, cols in 1usize..4, seed in 0u64..50) {
        let spec = GraphSpecBuilder::new(Shape::hwc(12, 12, 3))
            .conv2d(4, 3, 1, 1)
            .relu6()
            .conv2d(6, 3, 2, 1)
            .global_avg_pool()
            .dense(5)
            .build()
            .unwrap();
        let graph = init::with_structured_weights(spec, seed);
        let plan = PatchPlan::new(graph.spec(), 3, rows, cols).unwrap();
        let pe = PatchExecutor::stage_only(&graph, plan).unwrap();
        let input = Tensor::from_fn(Shape::hwc(12, 12, 3), |i| ((i as u64 ^ seed) as f32 * 0.01).sin());
        let mut patched = pe.make_output();
        pe.run_stage_into(&mut PatchState::new(), &input, None, &mut patched).unwrap();
        let full = FloatExecutor::new(&graph).run_trace(&input).unwrap();
        prop_assert!(patched.stage_output.data().iter().zip(full[3].data()).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// Redundant MACs are nonnegative and zero only for 1x1 grids.
    #[test]
    fn redundancy_nonnegative(rows in 1usize..5, cols in 1usize..5) {
        let spec = GraphSpecBuilder::new(Shape::hwc(20, 20, 3))
            .conv2d(4, 3, 1, 1)
            .relu6()
            .conv2d(4, 3, 1, 1)
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        let plan = PatchPlan::new(&spec, 3, rows, cols).unwrap();
        let report = redundancy::analyze(&spec, &plan).unwrap();
        prop_assert!(report.patch_based_total() >= report.layer_based_total());
        if rows == 1 && cols == 1 {
            prop_assert_eq!(report.redundant_macs(), 0);
        }
    }

    /// Narrowing any feature map never increases total BitOPs or peak
    /// memory.
    #[test]
    fn narrowing_is_monotone(fm in 0usize..6, b in arb_bitwidth()) {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .pwconv(8)
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        let base = BitwidthAssignment::uniform(&spec, Bitwidth::W8);
        let mut narrowed = base.clone();
        narrowed.set(quantmcu::nn::FeatureMapId(fm), b);
        prop_assert!(
            cost::total_bitops(&spec, Bitwidth::W8, &narrowed)
                <= cost::total_bitops(&spec, Bitwidth::W8, &base)
        );
        prop_assert!(
            cost::peak_activation_bytes(&spec, &narrowed)
                <= cost::peak_activation_bytes(&spec, &base)
        );
    }

    /// Branch MAC accounting is consistent: summed branch MACs equal the
    /// redundancy report's patched head MACs.
    #[test]
    fn branch_macs_match_redundancy_report(rows in 1usize..4, cols in 1usize..4) {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(4, 3, 1, 1)
            .relu6()
            .conv2d(8, 3, 2, 1)
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        let plan = PatchPlan::new(&spec, 3, rows, cols).unwrap();
        let (head, _) = spec.split_at(3).unwrap();
        let branches = Branch::build_all(&spec, &plan);
        let sum: u64 = branches.iter().map(|b| b.total_macs(&head)).sum();
        let report = redundancy::analyze(&spec, &plan).unwrap();
        prop_assert_eq!(sum, report.head_patch_macs);
    }
}
