//! HAQ (Wang et al., CVPR 2019): hardware-aware automated quantization
//! with reinforcement learning.
//!
//! HAQ's DDPG agent proposes per-layer bitwidths, deploys them, observes a
//! reward mixing accuracy and resource use, and iterates for hundreds of
//! episodes — effective but expensive (Table II prices it at 90 minutes,
//! and notably HAQ's chosen configuration *spends* BitOPs to buy accuracy:
//! 42.8 G, above the 8/8 baseline's 19.2 G, because its reward weighs
//! accuracy heavily). The reproduction keeps the same episodic
//! propose-evaluate-reward loop but replaces the DDPG policy with seeded
//! simulated annealing — the search dynamics and cost structure are
//! preserved, the deep-RL machinery is not.
//!
//! The reward uses output fidelity (negative MSE against the float model
//! on an evaluation batch) with a mild BitOPs bonus, mirroring HAQ's
//! accuracy-dominant latency-constrained formulation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use quantmcu_nn::cost::{self, BitwidthAssignment};
use quantmcu_nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu_nn::{Graph, GraphError};
use quantmcu_tensor::{Bitwidth, Tensor};

use super::{QuantizerOutcome, TimeModel};

/// Episodes the annealer runs; the modeled time charges each one at the
/// published per-episode cost.
pub const EPISODES: usize = 60;

/// Runs the HAQ-style episodic search.
///
/// # Errors
///
/// Propagates executor errors from calibration or episode evaluation.
pub fn run(
    graph: &Graph,
    calib: &[Tensor],
    eval: &[Tensor],
    seed: u64,
    time: &TimeModel,
) -> Result<QuantizerOutcome, GraphError> {
    let start = Instant::now();
    let spec = graph.spec();
    let ranges = calibrate_ranges(graph, calib)?;
    let mut float_exec = FloatExecutor::new(graph);
    let float_outputs: Vec<Tensor> =
        eval.iter().map(|t| float_exec.run(t)).collect::<Result<_, _>>()?;

    let fm_count = spec.feature_map_count();
    let candidates = [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2];
    let mut rng = StdRng::seed_from_u64(seed);

    let evaluate = |bits: &[Bitwidth]| -> Result<f64, GraphError> {
        let compiled = CompiledGraph::with_quantization(graph, &ranges, bits, Bitwidth::W8)?;
        let mut state = ExecState::new();
        let mut mse = 0.0f64;
        for (input, fref) in eval.iter().zip(&float_outputs) {
            let q = compiled.run_quant(&mut state, input)?;
            let d: f64 =
                q.data().iter().zip(fref.data()).map(|(a, b)| ((a - b) as f64).powi(2)).sum();
            mse += d / fref.data().len() as f64;
        }
        mse /= eval.len().max(1) as f64;
        let assignment = BitwidthAssignment::from_vec(spec, bits.to_vec());
        let bitops = cost::total_bitops(spec, Bitwidth::W8, &assignment) as f64;
        let base = cost::total_macs(spec) as f64 * 64.0;
        // Accuracy-dominant reward with a small computation bonus.
        Ok(-mse - 0.02 * (bitops / base))
    };

    let mut current = vec![Bitwidth::W8; fm_count];
    let mut current_reward = evaluate(&current)?;
    let mut best = current.clone();
    let mut best_reward = current_reward;
    for episode in 0..EPISODES {
        // Propose: mutate 1-2 feature maps.
        let mut proposal = current.clone();
        for _ in 0..rng.gen_range(1..=2usize) {
            let fm = rng.gen_range(0..fm_count);
            proposal[fm] = candidates[rng.gen_range(0..candidates.len())];
        }
        let reward = evaluate(&proposal)?;
        let temperature = 1.0 - episode as f64 / EPISODES as f64;
        let accept =
            reward > current_reward || rng.gen_range(0.0..1.0) < (0.15 * temperature).max(1e-6);
        if accept {
            current = proposal;
            current_reward = reward;
        }
        if current_reward > best_reward {
            best = current.clone();
            best_reward = current_reward;
        }
    }

    Ok(QuantizerOutcome {
        name: "HAQ",
        weight_bits: Bitwidth::W8,
        assignment: BitwidthAssignment::from_vec(spec, best),
        ranges,
        // Published flow: hundreds of DDPG episodes; charge ours at the
        // same per-episode price scaled to the published 300-episode run.
        modeled_search_minutes: 300.0 * time.minutes_per_episode,
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
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 4)
    }

    fn tensors(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| Tensor::from_fn(Shape::hwc(8, 8, 3), |i| ((i + 101 * s) as f32 * 0.17).sin()))
            .collect()
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let g = graph();
        let a = run(&g, &tensors(2), &tensors(1), 7, &TimeModel::paper()).unwrap();
        let b = run(&g, &tensors(2), &tensors(1), 7, &TimeModel::paper()).unwrap();
        assert_eq!(a.assignment, b.assignment);
        let c = run(&g, &tensors(2), &tensors(1), 8, &TimeModel::paper()).unwrap();
        // Different seeds may coincide, but the search must still be valid.
        assert_eq!(c.assignment.as_slice().len(), g.spec().feature_map_count());
    }

    #[test]
    fn keeps_accuracy_dominant_assignments() {
        // With an accuracy-dominant reward the search must not collapse to
        // all-2-bit; the output layer especially should stay wide.
        let g = graph();
        let out = run(&g, &tensors(2), &tensors(2), 3, &TimeModel::paper()).unwrap();
        let avg_bits: f64 = out.assignment.as_slice().iter().map(|b| b.bits() as f64).sum::<f64>()
            / out.assignment.as_slice().len() as f64;
        assert!(avg_bits > 3.0, "average bits collapsed to {avg_bits}");
        assert!((out.modeled_search_minutes - 90.0).abs() < 1e-9);
    }
}
