//! Fleet exploration: plan a *grid* of deployments — every model × every
//! device × every SRAM budget — in one call, and mark the Pareto-optimal
//! operating points.
//!
//! The paper evaluates QuantMCU at a handful of hand-picked (model,
//! device, budget) combinations; provisioning a real fleet asks the dual
//! question — *given these networks and these boards, which budget rungs
//! are worth deploying?* [`plan_fleet`] answers it by sweeping each
//! model's budget ladder through [`Planner::plan_sweep_each`] (so all
//! budgets sharing a patch split also share one calibration prologue, one
//! VDPC pass and one set of entropy/score tables), evaluating every plan
//! on every device's latency model, and flagging the points on the
//! (BitOPs, peak SRAM, latency) Pareto frontier of each (model, device)
//! group.
//!
//! Plans are device-independent (the search depends only on the budget),
//! so the grid costs `models × budgets` searches — not
//! `models × devices × budgets` — and each plan is bit-identical to an
//! independent [`Planner::plan`] call at its budget.

use std::sync::Arc;
use std::time::Duration;

use quantmcu_mcusim::Device;
use quantmcu_nn::Graph;
use quantmcu_tensor::Tensor;

use crate::config::QuantMcuConfig;
use crate::engine::SramBudget;
use crate::error::PlanError;
use crate::pipeline::Planner;
use crate::plan::DeploymentPlan;

/// One network in the fleet: a display name, the graph, and its
/// calibration set.
#[derive(Debug, Clone)]
pub struct FleetModel {
    /// Display name carried into every [`FleetPoint`].
    pub name: String,
    /// The network.
    pub graph: Arc<Graph>,
    /// Calibration images for the planning prologue.
    pub calibration: Vec<Tensor>,
}

impl FleetModel {
    /// A fleet model.
    pub fn new(
        name: impl Into<String>,
        graph: impl Into<Arc<Graph>>,
        calibration: Vec<Tensor>,
    ) -> Self {
        FleetModel { name: name.into(), graph: graph.into(), calibration }
    }
}

/// One (model, device, budget) operating point of the fleet grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// The model's display name.
    pub model: String,
    /// The device's display name.
    pub device: &'static str,
    /// The SRAM budget the plan was searched against.
    pub budget: SramBudget,
    /// Total inference BitOPs of the plan.
    pub bitops: u64,
    /// Peak activation SRAM of the plan in bytes.
    pub peak_bytes: usize,
    /// Modeled inference latency on the device.
    pub latency: Duration,
    /// Whether the plan's peak SRAM fits the device's physical SRAM
    /// (a budget can legitimately exceed a small board's memory — such
    /// points are kept, unflagged, for cross-device comparison).
    pub deployable: bool,
    /// Whether the point is on its (model, device) group's Pareto
    /// frontier: no other budget of the same group is at least as good on
    /// all of (BitOPs, peak SRAM, latency) and strictly better on one.
    /// Budgets that yield the same (BitOPs, peak SRAM, latency) share one
    /// frontier entry: only the smallest of them is marked.
    pub pareto: bool,
}

/// One budget rung that failed to plan (or to evaluate) for a model.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFailure {
    /// The model's display name.
    pub model: String,
    /// The failed budget.
    pub budget: SramBudget,
    /// Why — the same error an independent [`Planner::plan`] call at this
    /// budget produces.
    pub error: PlanError,
}

/// The fleet grid's outcome: every evaluated point plus every per-budget
/// failure, in (model, device, budget) iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetReport {
    /// Evaluated operating points.
    pub points: Vec<FleetPoint>,
    /// Budget rungs that could not plan.
    pub failures: Vec<FleetFailure>,
}

impl FleetReport {
    /// The points of one (model, device) group, in budget order.
    pub fn group(&self, model: &str, device: &str) -> Vec<&FleetPoint> {
        self.points.iter().filter(|p| p.model == model && p.device == device).collect()
    }

    /// The Pareto-frontier points of one (model, device) group.
    pub fn frontier(&self, model: &str, device: &str) -> Vec<&FleetPoint> {
        self.group(model, device).into_iter().filter(|p| p.pareto).collect()
    }
}

/// Plans the full fleet grid: for each model, one budget sweep (shared
/// prologue per patch split); for each produced plan, one latency
/// evaluation per device; then per-(model, device) Pareto marking.
///
/// # Errors
///
/// Fails only on failures no budget can escape for some model — an empty
/// calibration set or an uncompilable graph. Per-budget infeasibility
/// lands in [`FleetReport::failures`] instead.
pub fn plan_fleet(
    cfg: &QuantMcuConfig,
    models: &[FleetModel],
    devices: &[Device],
    budgets: &[SramBudget],
) -> Result<FleetReport, PlanError> {
    let planner = Planner::new(cfg.clone());
    let bytes: Vec<usize> = budgets.iter().map(|b| b.bytes()).collect();
    let mut report = FleetReport::default();
    for model in models {
        let outcomes = planner.plan_sweep_each(&model.graph, &model.calibration, &bytes)?;
        let mut plans: Vec<(SramBudget, DeploymentPlan)> = Vec::with_capacity(outcomes.len());
        for (outcome, &budget) in outcomes.into_iter().zip(budgets) {
            match outcome {
                Ok(plan) => plans.push((budget, plan)),
                Err(error) => {
                    report.failures.push(FleetFailure { model: model.name.clone(), budget, error })
                }
            }
        }
        for device in devices {
            let start = report.points.len();
            for (budget, plan) in &plans {
                let (peak_bytes, latency) = match (plan.peak_memory_bytes(), plan.latency(device)) {
                    (Ok(peak), Ok(latency)) => (peak, latency),
                    (Err(e), _) | (_, Err(e)) => {
                        report.failures.push(FleetFailure {
                            model: model.name.clone(),
                            budget: *budget,
                            error: e.into(),
                        });
                        continue;
                    }
                };
                report.points.push(FleetPoint {
                    model: model.name.clone(),
                    device: device.name,
                    budget: *budget,
                    bitops: plan.bitops(),
                    peak_bytes,
                    latency,
                    deployable: peak_bytes <= device.sram_bytes,
                    pareto: false,
                });
            }
            mark_pareto(&mut report.points[start..]);
        }
    }
    Ok(report)
}

/// Marks the Pareto frontier of one (model, device) group in place: a
/// point is on the frontier iff no other point weakly dominates it on
/// (BitOPs, peak SRAM, latency) while being strictly better somewhere.
/// Of points with identical metric tuples, only the one with the
/// smallest budget (the earliest, on equal budgets) is kept: a larger
/// budget buys nothing the smaller one does not already deliver.
fn mark_pareto(group: &mut [FleetPoint]) {
    let metrics: Vec<(u64, usize, Duration, SramBudget)> =
        group.iter().map(|p| (p.bitops, p.peak_bytes, p.latency, p.budget)).collect();
    for (i, point) in group.iter_mut().enumerate() {
        let (b, m, l, budget) = metrics[i];
        let dominated = metrics.iter().enumerate().any(|(j, &(ob, om, ol, obudget))| {
            // Weakly better everywhere: strictly better somewhere, or the
            // same tuple at a smaller budget.
            j != i
                && ob <= b
                && om <= m
                && ol <= l
                && ((ob, om, ol) != (b, m, l) || (obudget, j) < (budget, i))
        });
        point.pareto = !dominated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::Shape;

    fn graph(seed: u64) -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .pwconv(12)
            .relu6()
            .conv2d(16, 3, 2, 1)
            .relu6()
            .global_avg_pool()
            .dense(6)
            .build()
            .unwrap();
        init::with_structured_weights(spec, seed)
    }

    fn calib(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i + 97 * s) as f32 * 0.19).sin()))
            .collect()
    }

    fn fleet() -> Vec<FleetModel> {
        vec![
            FleetModel::new("net-a", graph(31), calib(3)),
            FleetModel::new("net-b", graph(77), calib(3)),
        ]
    }

    #[test]
    fn grid_covers_model_device_budget_cross_product() {
        let budgets = [SramBudget::kib(8), SramBudget::kib(64), SramBudget::kib(256)];
        let report =
            plan_fleet(&QuantMcuConfig::paper(), &fleet(), &Device::table1_platforms(), &budgets)
                .unwrap();
        assert_eq!(report.points.len(), 2 * 2 * 3);
        assert!(report.failures.is_empty());
        for p in &report.points {
            assert!(p.bitops > 0 && p.peak_bytes > 0 && p.latency > Duration::ZERO);
        }
    }

    #[test]
    fn every_group_has_a_nonempty_consistent_frontier() {
        let budgets = [SramBudget::kib(4), SramBudget::kib(32), SramBudget::kib(256)];
        let report =
            plan_fleet(&QuantMcuConfig::paper(), &fleet(), &Device::table1_platforms(), &budgets)
                .unwrap();
        for model in ["net-a", "net-b"] {
            for device in Device::table1_platforms() {
                let group = report.group(model, device.name);
                assert_eq!(group.len(), budgets.len());
                let frontier = report.frontier(model, device.name);
                assert!(!frontier.is_empty(), "{model} on {} has no frontier", device.name);
                // No frontier point may be dominated by any group point.
                for f in &frontier {
                    for p in &group {
                        let dominates = p.bitops <= f.bitops
                            && p.peak_bytes <= f.peak_bytes
                            && p.latency <= f.latency
                            && (p.bitops < f.bitops
                                || p.peak_bytes < f.peak_bytes
                                || p.latency < f.latency);
                        assert!(!dominates, "dominated point flagged pareto");
                    }
                }
            }
        }
    }

    #[test]
    fn budgets_with_identical_plans_keep_only_the_smallest_on_the_frontier() {
        // Both budgets are generous enough that the search returns the
        // same plan; listing the larger first pins the rule to the budget,
        // not the input order.
        let budgets = [SramBudget::kib(512), SramBudget::kib(256)];
        let models = vec![FleetModel::new("net-a", graph(31), calib(3))];
        let report =
            plan_fleet(&QuantMcuConfig::paper(), &models, &[Device::nano33_ble_sense()], &budgets)
                .unwrap();
        let [large, small] = &report.points[..] else { panic!("expected two points") };
        assert_eq!(
            (large.bitops, large.peak_bytes, large.latency),
            (small.bitops, small.peak_bytes, small.latency)
        );
        assert!(small.pareto, "the smallest identical budget represents the tuple");
        assert!(!large.pareto, "a larger budget with the same plan is not a frontier point");
    }

    #[test]
    fn infeasible_budget_rungs_become_failures_not_errors() {
        let budgets = [SramBudget::new(64), SramBudget::kib(256)];
        let models = vec![FleetModel::new("net-a", graph(31), calib(3))];
        let report =
            plan_fleet(&QuantMcuConfig::paper(), &models, &[Device::nano33_ble_sense()], &budgets)
                .unwrap();
        // The 64-byte rung fails once per model (planning is
        // device-independent); the workable rung yields one point per
        // device.
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].budget, SramBudget::new(64));
        assert_eq!(report.points.len(), 1);
        assert!(report.points[0].pareto);
    }

    #[test]
    fn fleet_points_match_independent_plans() {
        let budgets = [SramBudget::kib(256)];
        let models = vec![FleetModel::new("net-a", graph(31), calib(3))];
        let dev = Device::nano33_ble_sense();
        let report = plan_fleet(&QuantMcuConfig::paper(), &models, &[dev], &budgets).unwrap();
        let plan = Planner::new(QuantMcuConfig::paper())
            .plan(&models[0].graph, &models[0].calibration, budgets[0].bytes())
            .unwrap();
        let p = &report.points[0];
        assert_eq!(p.bitops, plan.bitops());
        assert_eq!(p.peak_bytes, plan.peak_memory_bytes().unwrap());
        assert_eq!(p.latency, plan.latency(&dev).unwrap());
        assert!(p.deployable);
    }
}
