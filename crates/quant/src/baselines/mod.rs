//! The quantization methods QuantMCU is compared against in Table II.
//!
//! Every baseline consumes an executable [`Graph`](quantmcu_nn::Graph) plus
//! a calibration set and produces a [`QuantizerOutcome`]: a per-feature-map
//! activation bitwidth assignment, a weight bitwidth, and a **search-time
//! model**. The reproduction cannot run the original methods' training
//! loops (no GPUs, no ImageNet), so each outcome carries
//! `modeled_search_minutes` — the method's published wall-clock cost
//! structure (epochs × minutes-per-epoch for QAT-in-the-loop methods,
//! episodes × minutes-per-episode for RL) evaluated at the actual number of
//! evaluations this run performed — alongside the measured wall-clock of
//! the reproduction's own search.

pub mod haq;
pub mod hawq;
pub mod pact;
pub mod rusci;

use std::time::Duration;

use quantmcu_nn::cost::BitwidthAssignment;
use quantmcu_tensor::Bitwidth;

/// The result of running a quantization method.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizerOutcome {
    /// Display name matching Table II.
    pub name: &'static str,
    /// Weight bitwidth deployed.
    pub weight_bits: Bitwidth,
    /// Per-feature-map activation bitwidths.
    pub assignment: BitwidthAssignment,
    /// Activation ranges the method calibrated (PACT clips differ from
    /// plain min/max); feed these to the quantized executor.
    pub ranges: Vec<(f32, f32)>,
    /// Search cost under the method's published cost structure.
    pub modeled_search_minutes: f64,
    /// Wall-clock of this reproduction's search.
    pub measured_search: Duration,
}

/// Published per-evaluation costs (minutes) used by the search-time model.
/// A "training evaluation" is one QAT epoch or RL episode on the paper's
/// ImageNet setup; an "analysis evaluation" is one entropy/statistics pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeModel {
    /// Minutes per QAT epoch (PACT, Rusci, HAWQ fine-tuning).
    pub minutes_per_epoch: f64,
    /// Minutes per RL episode (HAQ).
    pub minutes_per_episode: f64,
    /// Minutes per analysis-only evaluation (VDQS entropy pass).
    pub minutes_per_analysis: f64,
}

impl TimeModel {
    /// Constants calibrated so the methods' published configurations land
    /// on Table II's "Time" column: PACT ≈ 45 min (15 epochs), Rusci ≈ 33
    /// min (11 epochs), HAQ ≈ 90 min (300 episodes), HAWQ-V3 ≈ 30 min
    /// (10 epochs), VDQS ≈ 0.5 min.
    pub fn paper() -> Self {
        TimeModel { minutes_per_epoch: 3.0, minutes_per_episode: 0.3, minutes_per_analysis: 0.005 }
    }
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_time_model_reproduces_table2_times() {
        let t = TimeModel::paper();
        assert!((15.0 * t.minutes_per_epoch - 45.0).abs() < 1e-9);
        assert!((11.0 * t.minutes_per_epoch - 33.0).abs() < 1e-9);
        assert!((300.0 * t.minutes_per_episode - 90.0).abs() < 1e-9);
        assert!((10.0 * t.minutes_per_epoch - 30.0).abs() < 1e-9);
    }
}
