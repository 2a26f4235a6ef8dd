use std::borrow::Borrow;

use quantmcu_nn::exec::{CompiledGraph, ExecState};
use quantmcu_nn::Graph;
use quantmcu_tensor::{QuantParams, Tensor};

use crate::branch::Branch;
use crate::error::PatchError;
use crate::plan::PatchPlan;

/// The result of one patch-stage run.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchOutput {
    /// The stitched stage output (input of the tail).
    pub stage_output: Tensor,
}

/// The per-thread scratch of a [`PatchExecutor`]: the compiled head's
/// [`ExecState`], reused by every branch. Construction allocates nothing;
/// the buffers warm up over the first run and every later run on the same
/// executor is allocation-free.
pub type PatchState = ExecState;

/// Executes the per-patch stage of a [`PatchPlan`] numerically.
///
/// The head (the nodes before the plan's split) is compiled **once** into
/// a [`CompiledGraph`] over the head's own weights. Each branch runs that
/// compiled head with its region schedule ([`Branch::regions`]): every
/// node computes only the region the branch's receptive field requires,
/// halo included, through the same float loop a full-graph run uses — so
/// the stitched stage output is bit-identical to full execution. Passing per-branch quantization parameters snaps every
/// computed region to its grid as it is produced, which is how
/// mixed-precision dataflow branches (the heart of QuantMCU) are evaluated
/// numerically; the integer tail runs separately through
/// [`CompiledGraph::run_quant`].
///
/// The executor is immutable and `Send + Sync`, so one executor serves any
/// number of threads; all mutable scratch lives in a caller-owned
/// [`PatchState`]. With a reused state and [`PatchOutput`],
/// [`PatchExecutor::run_stage_into`] performs zero steady-state heap
/// allocations.
#[derive(Debug)]
pub struct PatchExecutor {
    /// The head sub-graph, compiled once.
    head: CompiledGraph,
    branches: Vec<Branch>,
}

impl PatchExecutor {
    /// Prepares an executor for the per-patch stage of `plan` over
    /// `graph`, copying only the head's weights.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::NotSplittable`] when the plan's split point
    /// lies past the graph's end, [`PatchError::Graph`] when it does not
    /// fit the graph (e.g. a skip edge crosses it), and
    /// [`PatchError::PlanMismatch`] when the plan tiles a stage output of
    /// another size than the graph's head produces — a plan made for a
    /// different graph.
    pub fn stage_only(graph: impl Borrow<Graph>, plan: PatchPlan) -> Result<Self, PatchError> {
        let graph = graph.borrow();
        let spec = graph.spec();
        if plan.split_at() > spec.len() {
            return Err(PatchError::NotSplittable { at: plan.split_at() });
        }
        let (head, _) = spec.split_at(plan.split_at())?;
        let stage = head.output_shape();
        if plan.stage_size() != (stage.h, stage.w) {
            return Err(PatchError::PlanMismatch {
                planned: plan.stage_size(),
                actual: (stage.h, stage.w),
            });
        }
        let branches = Branch::build_all(spec, &plan);
        let params = (0..plan.split_at()).map(|i| graph.params(i).clone()).collect();
        let head = CompiledGraph::new(Graph::new(head, params))?;
        Ok(PatchExecutor { head, branches })
    }

    /// A zeroed [`PatchOutput`] with the shapes this executor produces,
    /// for reuse across [`PatchExecutor::run_stage_into`] calls.
    pub fn make_output(&self) -> PatchOutput {
        PatchOutput { stage_output: Tensor::zeros(self.head.spec().output_shape()) }
    }

    /// Runs the per-patch stage — every branch, stitched — into
    /// `out.stage_output`. `out` should come from
    /// [`PatchExecutor::make_output`] (or an earlier run); a stage output
    /// of the wrong shape is reallocated once and reused thereafter.
    ///
    /// `branch_quant`, when present, provides one `Vec<QuantParams>` per
    /// branch with one entry per head feature map (head length + 1); the
    /// region of feature map `i` computed by that branch is snapped to the
    /// corresponding grid right after it is produced.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::BitwidthLength`] when a parameter vector has
    /// the wrong length, or [`PatchError::Graph`] when the input shape
    /// does not match the graph.
    pub fn run_stage_into(
        &self,
        state: &mut PatchState,
        input: &Tensor,
        branch_quant: Option<&[Vec<QuantParams>]>,
        out: &mut PatchOutput,
    ) -> Result<(), PatchError> {
        if let Some(q) = branch_quant {
            if q.len() != self.branches.len() {
                return Err(PatchError::BitwidthLength {
                    expected: self.branches.len(),
                    actual: q.len(),
                });
            }
            let fm_count = self.head.spec().feature_map_count();
            if let Some(params) = q.iter().find(|p| p.len() != fm_count) {
                return Err(PatchError::BitwidthLength {
                    expected: fm_count,
                    actual: params.len(),
                });
            }
        }
        let stage_shape = self.head.spec().output_shape();
        if out.stage_output.shape() != stage_shape {
            out.stage_output = Tensor::zeros(stage_shape);
        }
        for (bi, branch) in self.branches.iter().enumerate() {
            let grids = branch_quant.map(|q| q[bi].as_slice());
            self.head.run_float_region_into(
                state,
                input,
                branch.regions(),
                grids,
                &mut out.stage_output,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::exec::FloatExecutor;
    use quantmcu_nn::{init, GraphError, GraphSpec, GraphSpecBuilder};
    use quantmcu_tensor::{Bitwidth, Shape};

    fn spec(side: usize) -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(side, side, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .relu6()
            .pwconv(12)
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    }

    fn graph() -> Graph {
        init::with_structured_weights(spec(16), 21)
    }

    fn input() -> Tensor {
        Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i as f32) * 0.31).sin())
    }

    /// The stitched stage output of a `grid`×`grid` plan split at 5.
    fn stage(g: &Graph, grid: usize, quant: Option<&[Vec<QuantParams>]>) -> Tensor {
        let plan = PatchPlan::new(g.spec(), 5, grid, grid).unwrap();
        let pe = PatchExecutor::stage_only(g, plan).unwrap();
        let mut out = pe.make_output();
        pe.run_stage_into(&mut PatchState::new(), &input(), quant, &mut out).unwrap();
        out.stage_output
    }

    /// Asserts `a` and `b` are equal bit for bit.
    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        let mismatches = a.data().iter().zip(b.data()).filter(|(x, y)| x.to_bits() != y.to_bits());
        assert_eq!(mismatches.count(), 0, "stage output differs from full execution");
    }

    /// Per-branch grids at `bits` from a float trace of the head maps.
    fn grids(g: &Graph, bits: Bitwidth) -> Vec<Vec<QuantParams>> {
        let trace = FloatExecutor::new(g).run_trace(&input()).unwrap();
        let params: Vec<QuantParams> =
            trace[..6].iter().map(|t| QuantParams::from_tensor(t, bits)).collect();
        vec![params; 4]
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn executor_is_send_sync_for_shareable_graphs() {
        assert_send_sync::<PatchExecutor>();
        fn assert_send<T: Send>() {}
        assert_send::<PatchState>();
    }

    #[test]
    fn owned_and_borrowed_executors_agree() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let borrowed = PatchExecutor::stage_only(&g, plan.clone()).unwrap();
        let owned = PatchExecutor::stage_only(std::sync::Arc::new(g.clone()), plan).unwrap();
        let mut a = borrowed.make_output();
        let mut b = owned.make_output();
        borrowed.run_stage_into(&mut PatchState::new(), &input(), None, &mut a).unwrap();
        owned.run_stage_into(&mut PatchState::new(), &input(), None, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stitched_equals_full_execution() {
        let g = graph();
        let full = FloatExecutor::new(&g).run_trace(&input()).unwrap();
        // The stage output is feature map 5 of the full run, bit for bit.
        assert_bits_eq(&stage(&g, 2, None), &full[5]);
    }

    #[test]
    fn three_by_three_grid_also_exact() {
        let g = graph();
        let full = FloatExecutor::new(&g).run_trace(&input()).unwrap();
        assert_bits_eq(&stage(&g, 3, None), &full[5]);
    }

    #[test]
    fn repeated_runs_reuse_buffers_and_agree() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::stage_only(&g, plan).unwrap();
        let mut state = PatchState::new();
        let fresh = stage(&g, 2, None);
        // A wrong-shaped output is fixed up once, then reused.
        let mut reused = PatchOutput { stage_output: Tensor::zeros(Shape::hwc(1, 1, 1)) };
        for _ in 0..3 {
            pe.run_stage_into(&mut state, &input(), None, &mut reused).unwrap();
            assert_eq!(fresh, reused.stage_output, "reused-buffer run must be bit-identical");
        }
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::stage_only(&g, plan).unwrap();
        assert!(matches!(
            pe.run_stage_into(
                &mut PatchState::new(),
                &Tensor::zeros(Shape::hwc(15, 16, 3)),
                None,
                &mut pe.make_output()
            ),
            Err(PatchError::Graph(GraphError::InputShapeMismatch { .. }))
        ));
    }

    #[test]
    fn plan_for_another_graph_is_rejected() {
        // A plan made for a 16x16 input tiles an 8x8 stage output, which a
        // 32x32 graph's head does not produce — and the other way round.
        let small = spec(16);
        let large = init::with_structured_weights(spec(32), 21);
        let plan = PatchPlan::new(&small, 5, 3, 3).unwrap();
        assert!(matches!(
            PatchExecutor::stage_only(&large, plan),
            Err(PatchError::PlanMismatch { planned: (8, 8), actual: (16, 16) })
        ));
        let plan = PatchPlan::new(large.spec(), 5, 3, 3).unwrap();
        assert!(matches!(
            PatchExecutor::stage_only(graph(), plan.clone()),
            Err(PatchError::PlanMismatch { planned: (16, 16), actual: (8, 8) })
        ));
        // A split past the graph's end is an error, not a panic.
        let short =
            GraphSpecBuilder::new(Shape::hwc(32, 32, 3)).conv2d(8, 3, 2, 1).build().unwrap();
        assert!(matches!(
            PatchExecutor::stage_only(init::with_structured_weights(short, 1), plan),
            Err(PatchError::NotSplittable { at: 5 })
        ));
    }

    #[test]
    fn quantized_branches_stay_close_at_8_bit() {
        let g = graph();
        let q = stage(&g, 2, Some(&grids(&g, Bitwidth::W8)));
        let f = stage(&g, 2, None);
        let denom = f.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        assert!(q.mean_abs_diff(&f) / denom < 0.05);
    }

    #[test]
    fn two_bit_branches_lose_more_than_8_bit() {
        let g = graph();
        let f = stage(&g, 2, None);
        let e8 = stage(&g, 2, Some(&grids(&g, Bitwidth::W8))).mean_abs_diff(&f);
        let e2 = stage(&g, 2, Some(&grids(&g, Bitwidth::W2))).mean_abs_diff(&f);
        assert!(e2 > e8, "2-bit error {e2} should exceed 8-bit error {e8}");
    }

    #[test]
    fn mixed_per_branch_bitwidths_accepted() {
        let g = graph();
        // Branch 0 at 8-bit (outlier class), others at 2-bit.
        let mut per_branch = grids(&g, Bitwidth::W2);
        per_branch[0] = grids(&g, Bitwidth::W8).swap_remove(0);
        let out = stage(&g, 2, Some(&per_branch));
        assert!(out.data().iter().all(|v| v.is_finite()));
        assert_ne!(out, stage(&g, 2, Some(&grids(&g, Bitwidth::W2))));
    }

    #[test]
    fn wrong_quant_lengths_rejected() {
        let g = graph();
        let plan = PatchPlan::new(g.spec(), 5, 2, 2).unwrap();
        let pe = PatchExecutor::stage_only(&g, plan).unwrap();
        let mut state = PatchState::new();
        let mut out = pe.make_output();
        let bad: Vec<Vec<QuantParams>> = vec![Vec::new(); 4];
        assert!(matches!(
            pe.run_stage_into(&mut state, &input(), Some(&bad), &mut out),
            Err(PatchError::BitwidthLength { expected: 6, actual: 0 })
        ));
        let bad_count: Vec<Vec<QuantParams>> = Vec::new();
        assert!(matches!(
            pe.run_stage_into(&mut state, &input(), Some(&bad_count), &mut out),
            Err(PatchError::BitwidthLength { expected: 4, actual: 0 })
        ));
    }
}
