//! Dataflow restructuring for active memory reduction (Cipolletta &
//! Calimera, DATE 2021).
//!
//! Their algorithm searches for the patch split layer and dataflow-branch
//! length that minimize active (peak) memory, accepting whatever
//! recomputation that costs. The reproduction performs the same search
//! exhaustively: every splittable straight-chain depth × every grid up to
//! 4×4, scored by peak memory with MACs as the tie-breaker. Relative to
//! MCUNetV2 this finds lower peak memory and higher redundant computation,
//! matching the ordering in Table I.

use quantmcu_nn::GraphSpec;
use quantmcu_tensor::Bitwidth;

use crate::error::PatchError;
use crate::memory::uniform8_peak;
use crate::plan::PatchPlan;
use crate::redundancy;

use super::ScheduleCost;

/// The restructured schedule found by the search.
#[derive(Debug, Clone, PartialEq)]
pub struct RestructuredSchedule {
    /// The minimum-peak-memory plan.
    pub plan: PatchPlan,
    /// Its cost summary (uniform 8-bit).
    pub cost: ScheduleCost,
}

/// Exhaustively searches split depths × grids for the minimum-peak-memory
/// schedule.
///
/// # Errors
///
/// Returns [`PatchError::NotSplittable`] when no candidate plan exists
/// (e.g. the graph starts with a dense layer).
pub fn schedule(spec: &GraphSpec) -> Result<RestructuredSchedule, PatchError> {
    let mut best: Option<(PatchPlan, usize, u64)> = None;
    for at in 1..=spec.len() {
        if !spec.splittable_at(at) {
            continue;
        }
        for grid in [2usize, 3, 4] {
            let plan = match PatchPlan::new(spec, at, grid, grid) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let peak = uniform8_peak(spec, &plan)?;
            let macs = redundancy::analyze(spec, &plan)?.patch_based_total();
            let better = match &best {
                None => true,
                Some((_, best_peak, best_macs)) => {
                    peak < *best_peak || (peak == *best_peak && macs < *best_macs)
                }
            };
            if better {
                best = Some((plan, peak, macs));
            }
        }
    }
    let (plan, peak, macs) = best.ok_or(PatchError::NotSplittable { at: 0 })?;
    Ok(RestructuredSchedule {
        plan,
        cost: ScheduleCost {
            peak_memory_bytes: peak,
            macs,
            bitops: ScheduleCost::uniform_bitops(macs, Bitwidth::W8, Bitwidth::W8),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{layer_based, mcunetv2};
    use quantmcu_nn::GraphSpecBuilder;
    use quantmcu_tensor::Shape;

    fn spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(32, 32, 3))
            .conv2d(16, 3, 1, 1)
            .relu6()
            .conv2d(16, 3, 2, 1)
            .relu6()
            .conv2d(32, 3, 2, 1)
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    }

    #[test]
    fn restructuring_finds_memory_at_or_below_mcunetv2() {
        let s = spec();
        let restructured = schedule(&s).unwrap();
        let mcunet = mcunetv2::schedule(&s, usize::MAX).unwrap();
        assert!(restructured.cost.peak_memory_bytes <= mcunet.cost.peak_memory_bytes);
    }

    #[test]
    fn restructuring_beats_layer_based_memory() {
        let s = spec();
        let restructured = schedule(&s).unwrap();
        let layer = layer_based::cost(&s);
        assert!(restructured.cost.peak_memory_bytes < layer.peak_memory_bytes);
        // It pays in computation.
        assert!(restructured.cost.macs >= layer.macs);
    }

    #[test]
    fn unsplittable_graph_is_an_error() {
        let s =
            GraphSpecBuilder::new(Shape::hwc(4, 4, 3)).global_avg_pool().dense(10).build().unwrap();
        assert!(schedule(&s).is_err());
    }
}
