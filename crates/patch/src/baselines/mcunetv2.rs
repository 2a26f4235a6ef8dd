//! MCUNetV2-style patch-based inference (Lin et al., 2021).
//!
//! MCUNetV2 runs the memory-dominant early stage patch-by-patch. Its
//! scheduling policy here: take the deepest straight-chain prefix as the
//! per-patch stage, then choose the smallest patch grid (3×3 first, then
//! 4×4, 5×5 — the grid sizes MCUNetV2's published configurations use)
//! whose peak memory fits the SRAM budget — finer grids save memory but
//! add halo recomputation, which MCUNetV2 accepts as the price of fitting
//! the device. Everything stays uniformly 8-bit; reducing the redundancy
//! via mixed precision is exactly QuantMCU's contribution.

use quantmcu_nn::GraphSpec;
use quantmcu_tensor::Bitwidth;

use crate::error::PatchError;
use crate::memory::uniform8_peak;
use crate::plan::{largest_straight_prefix, PatchPlan};
use crate::redundancy;

use super::ScheduleCost;

/// The schedule MCUNetV2 would pick for `spec` under `sram_bytes`.
#[derive(Debug, Clone, PartialEq)]
pub struct McuNetV2Schedule {
    /// The chosen plan.
    pub plan: PatchPlan,
    /// Its cost summary (uniform 8-bit).
    pub cost: ScheduleCost,
}

/// Builds the MCUNetV2 schedule: deepest stage, coarsest grid that fits.
///
/// When even the finest grid exceeds the budget the last (finest) candidate
/// is returned — the deployment simply does not fit, which Table I shows as
/// a peak-memory value above the device's SRAM.
///
/// # Errors
///
/// Returns [`PatchError`] when `spec` has no splittable prefix at all.
pub fn schedule(spec: &GraphSpec, sram_bytes: usize) -> Result<McuNetV2Schedule, PatchError> {
    let mut chosen: Option<(PatchPlan, usize)> = None;
    for grid in [3usize, 4, 5] {
        let plan = match PatchPlan::fitted(spec, grid, sram_bytes) {
            Ok(p) => p,
            Err(PatchError::GridTooFine { .. } | PatchError::NotSplittable { .. }) => continue,
            Err(e) => return Err(e),
        };
        let peak = uniform8_peak(spec, &plan)?;
        match &chosen {
            Some((_, best)) if *best <= peak => {}
            _ => chosen = Some((plan, peak)),
        }
        if peak <= sram_bytes {
            break;
        }
    }
    let (plan, peak) =
        chosen.ok_or(PatchError::NotSplittable { at: largest_straight_prefix(spec) })?;
    let report = redundancy::analyze(spec, &plan)?;
    let macs = report.patch_based_total();
    Ok(McuNetV2Schedule {
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
    use crate::baselines::layer_based;
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
    fn fits_generous_budget_with_coarse_grid() {
        let s = spec();
        let sched = schedule(&s, 10 * 1024 * 1024).unwrap();
        assert_eq!(sched.plan.rows(), 3);
    }

    #[test]
    fn tight_budget_forces_finer_grid() {
        let s = spec();
        let generous = schedule(&s, 10 * 1024 * 1024).unwrap();
        let tight = schedule(&s, generous.cost.peak_memory_bytes - 1).unwrap();
        assert!(
            tight.plan.rows() > 3
                || tight.cost.peak_memory_bytes <= generous.cost.peak_memory_bytes
        );
    }

    #[test]
    fn memory_below_layer_based_but_macs_above() {
        // Under memory pressure (a budget just below the layer-based
        // peak), the schedule must fit the budget while paying MACs.
        let s = spec();
        let layer = layer_based::cost(&s);
        let budget = layer.peak_memory_bytes - 1;
        let sched = schedule(&s, budget).unwrap();
        assert!(
            sched.cost.peak_memory_bytes <= budget,
            "{} > {budget}",
            sched.cost.peak_memory_bytes
        );
        // A shallow split recomputes nothing; MACs never drop below
        // layer-based either way.
        assert!(sched.cost.macs >= layer.macs);

        // Stronger pressure forces a deeper stage whose halos cost MACs.
        let tight = schedule(&s, layer.peak_memory_bytes / 2).unwrap();
        assert!(tight.cost.macs > layer.macs);
        assert!(tight.cost.bitops > layer.bitops);
    }
}
