//! The executable serving artifact: immutable [`Deployment`] plus
//! per-thread [`Session`]s.

use std::borrow::Borrow;
use std::sync::Arc;
use std::thread;

use quantmcu_nn::exec::{CompiledGraph, ExecState, ScopedPool};
use quantmcu_nn::{Graph, GraphError};
use quantmcu_patch::{PatchExecutor, PatchOutput, PatchState};
use quantmcu_tensor::{QuantParams, Tensor};

use crate::artifact::{graph_fingerprint, PlanArtifact};
use crate::error::{Error, PlanError};
use crate::plan::DeploymentPlan;

/// An executable QuantMCU deployment: quantized patch branches plus a
/// quantized tail, runnable on host for fidelity measurements — and the
/// **immutable** serving artifact one process shares across threads.
///
/// The branch stage runs the compiled head once per branch over the
/// branch's region schedule, snapping every computed region to the
/// branch's grids (fake quantization over float weights); the tail runs
/// through the integer executor.
///
/// A deployment holds its graph behind an `Arc` (no lifetime parameter),
/// is `Send + Sync`, and otherwise holds **only** compiled state: the
/// stage-only patch executor (the head compiled once over a copy of the
/// head's weights), the integer tail (weights quantized and packed,
/// requantization tables built — all once, at construction) and the
/// per-branch quantization grids. All of it is derived from the graph
/// and the [`DeploymentPlan`] by [`Deployment::new`], the one
/// construction path: a calibrated plan and a plan restored from a
/// `.qplan` artifact both take it. Everything mutable lives in a
/// [`Session`]; put the deployment in an `Arc` and open one session per
/// thread:
///
/// ```
/// use std::sync::Arc;
/// use quantmcu::{Engine, Session, SramBudget};
/// use quantmcu::data::classification::ClassificationDataset;
/// use quantmcu::models::{Model, ModelConfig};
/// use quantmcu::nn::init;
///
/// let spec = Model::MobileNetV2.spec(ModelConfig::exec_scale())?;
/// let engine = Engine::builder(init::with_structured_weights(spec, 42))
///     .sram_budget(SramBudget::kib(16))
///     .build();
/// let data = ClassificationDataset::new(32, 10, 7);
/// let deployment = Arc::new(engine.deploy(engine.plan((data, 4))?)?);
/// let image = data.sample(100).0;
/// let handles: Vec<_> = (0..2)
///     .map(|_| {
///         let dep = Arc::clone(&deployment);
///         let image = image.clone();
///         std::thread::spawn(move || Session::new(dep).run(&image).unwrap())
///     })
///     .collect();
/// for h in handles {
///     assert!(h.join().unwrap().data().iter().all(|v| v.is_finite()));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Deployment {
    graph: Arc<Graph>,
    executor: PatchExecutor,
    branch_params: Vec<Vec<QuantParams>>,
    /// The tail, compiled with the plan's tail quantization.
    tail: CompiledGraph,
    plan: DeploymentPlan,
}

impl Deployment {
    /// Compiles a plan into a runnable deployment over `graph` (owned or
    /// already shared — anything convertible into an `Arc<Graph>`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Plan`] when the plan was made for a different
    /// graph ([`PlanError::GraphMismatch`]), [`Error::Graph`] when its
    /// quantization cannot be materialized (a non-finite range, weights
    /// or an activation grid wider than 8 bits, or a `Q001` accumulator
    /// overflow), or [`Error::Patch`] when the plan's split does not fit
    /// the graph.
    pub fn new(graph: impl Into<Arc<Graph>>, plan: DeploymentPlan) -> Result<Self, Error> {
        let graph = graph.into();
        // A plan for another graph would apply its grids, regions and tail
        // ranges to maps they were never fitted to.
        if plan.spec() != graph.spec() {
            return Err(Error::Plan(PlanError::GraphMismatch));
        }
        // The tail's widths are checked where it compiles; branch grids
        // follow the same rule, since their maps are the device's too.
        for &bits in plan.branch_bits.iter().flatten() {
            bits.check_storage()?;
        }
        let branch_params = Deployment::branch_params_for(&plan)?;
        let tail = CompiledGraph::with_quantization(
            Deployment::tail_graph(&graph, &plan)?,
            &plan.tail_ranges,
            &plan.tail_bits,
            plan.weight_bits,
        )?;
        let executor = PatchExecutor::stage_only(&*graph, plan.patch_plan().clone())?;
        Ok(Deployment { graph, executor, branch_params, tail, plan })
    }

    /// Per-branch activation grids from the plan's calibrated ranges.
    fn branch_params_for(plan: &DeploymentPlan) -> Result<Vec<Vec<QuantParams>>, Error> {
        let mut branch_params = Vec::with_capacity(plan.branch_bits.len());
        for (ranges, bits) in plan.branch_ranges.iter().zip(&plan.branch_bits) {
            let params = ranges
                .iter()
                .zip(bits)
                .map(|(&(lo, hi), &b)| QuantParams::from_min_max(lo, hi, b))
                .collect::<Result<Vec<_>, _>>()
                .map_err(GraphError::Tensor)?;
            branch_params.push(params);
        }
        Ok(branch_params)
    }

    /// The tail sub-graph (weights cloned) the plan's split selects.
    fn tail_graph(graph: &Arc<Graph>, plan: &DeploymentPlan) -> Result<Graph, Error> {
        let split = plan.patch_plan().split_at();
        let spec = graph.spec();
        let (_, tail_spec) = spec.split_at(split).map_err(quantmcu_patch::PatchError::from)?;
        let tail_params = (split..spec.len()).map(|i| graph.params(i).clone()).collect();
        Ok(Graph::new(tail_spec, tail_params))
    }

    /// Serializes this deployment to `.qplan` bytes: the full plan,
    /// bound to the served model's fingerprint.
    /// [`crate::Engine::deploy_from_artifact`] restores a bit-identical
    /// deployment from them with no calibration source at all.
    ///
    /// # Errors
    ///
    /// None today: every deployment serializes. The `Result` leaves room
    /// for encode-time checks without breaking callers.
    pub fn save(&self) -> Result<Vec<u8>, Error> {
        Ok(self.artifact().encode())
    }

    /// Writes this deployment to a `.qplan` file — the file-path
    /// spelling of [`Deployment::save`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] when the file cannot be written.
    pub fn save_to_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), Error> {
        Ok(self.artifact().encode_to_path(path)?)
    }

    /// The artifact capturing this deployment.
    fn artifact(&self) -> PlanArtifact {
        PlanArtifact::new(graph_fingerprint(self.graph()), self.plan.clone())
    }

    /// The plan being executed.
    pub fn plan(&self) -> &DeploymentPlan {
        &self.plan
    }

    /// The served network.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Opens a session borrowing this deployment — the single-threaded
    /// convenience. For detached threads, wrap the deployment in an `Arc`
    /// and use [`Session::new`].
    pub fn session(&self) -> Session<&Deployment> {
        Session::new(self)
    }

    /// Serves a batch over a [`ScopedPool`] of `workers` threads, each
    /// with its own fresh [`Session`] against this shared deployment,
    /// returning outputs in input order. Results are **bit-identical for
    /// every worker count**; `workers = 1` is exactly the serial session
    /// loop. For long-lived traffic that should keep warm sessions, a
    /// bounded queue and micro-batching between calls, wrap the
    /// deployment in a persistent [`Server`](crate::Server) instead.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing input's error.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (propagated).
    pub fn run_batch(&self, inputs: &[Tensor], workers: usize) -> Result<Vec<Tensor>, Error> {
        thread::scope(|scope| {
            let pool = ScopedPool::spawned(scope, workers.min(inputs.len()), |_| self.session());
            pool.map(inputs.iter().collect(), |session, input| session.run(input))
        })
    }
}

/// The mutable, per-thread half of serving: one in-flight inference's
/// scratch (the head's [`PatchState`], the tail's [`ExecState`], the
/// reused stage [`PatchOutput`]) over a shared [`Deployment`].
///
/// Generic over how the deployment is held — `Session<&Deployment>`
/// (from [`Deployment::session`]) borrows for scoped use,
/// `Session<Arc<Deployment>>` (the default parameter) owns a handle and
/// can move onto a detached thread. Construction allocates only the
/// reused stage-output buffers; the arenas warm up over the first
/// inference, after which steady-state runs reuse every buffer — so keep
/// sessions alive across requests rather than opening one per request
/// (the persistent [`Server`](crate::Server) runtime does exactly that,
/// one warm session per pooled worker).
#[derive(Debug)]
pub struct Session<D: Borrow<Deployment> = Arc<Deployment>> {
    deployment: D,
    patch_state: PatchState,
    tail_state: ExecState,
    /// Reused patch-stage output buffers.
    scratch: PatchOutput,
}

impl<D: Borrow<Deployment>> Session<D> {
    /// Opens a session over `deployment`.
    pub fn new(deployment: D) -> Self {
        let scratch = deployment.borrow().executor.make_output();
        Session {
            deployment,
            patch_state: PatchState::new(),
            tail_state: ExecState::new(),
            scratch,
        }
    }

    /// The deployment this session serves.
    pub fn deployment(&self) -> &Deployment {
        self.deployment.borrow()
    }

    /// Runs one input through the quantized deployment, returning the
    /// final output (dequantized). After the first call, steady-state
    /// heap traffic is limited to the returned output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Patch`] for input-shape mismatches.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor, Error> {
        let d: &Deployment = self.deployment.borrow();
        d.executor.run_stage_into(
            &mut self.patch_state,
            input,
            Some(&d.branch_params),
            &mut self.scratch,
        )?;
        Ok(d.tail.run_quant(&mut self.tail_state, &self.scratch.stage_output)?)
    }

    /// Runs a batch serially on this session, returning one output per
    /// input. For multi-threaded serving use [`Deployment::run_batch`].
    ///
    /// # Errors
    ///
    /// Returns the first input's error, if any.
    pub fn run_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, Error> {
        inputs.iter().map(|input| self.run(input)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Planner, QuantMcuConfig, SramBudget};
    use quantmcu_nn::exec::FloatExecutor;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::{Bitwidth, Shape, TensorError};

    fn graph() -> Graph {
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
        init::with_structured_weights(spec, 31)
    }

    fn inputs(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| Tensor::from_fn(Shape::hwc(16, 16, 3), |i| ((i + 97 * s) as f32 * 0.19).sin()))
            .collect()
    }

    #[test]
    fn deployment_is_send_sync_and_lifetime_free() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Deployment>();
        assert_send_sync::<Session<Arc<Deployment>>>();
    }

    #[test]
    fn deployment_runs_and_tracks_float() {
        let g = graph();
        let calib = inputs(4);
        let plan = Planner::new(QuantMcuConfig::paper()).plan(&g, &calib, 256 * 1024).unwrap();
        let dep = Deployment::new(g.clone(), plan).unwrap();
        let test = inputs(8);
        let quant_outs = dep.session().run_batch(&test).unwrap();
        let mut float_exec = FloatExecutor::new(&g);
        let mut agree = 0;
        for (input, q) in test.iter().zip(&quant_outs) {
            let f = float_exec.run(input).unwrap();
            assert_eq!(q.shape(), f.shape());
            if q.argmax(0) == f.argmax(0) {
                agree += 1;
            }
        }
        // The paper claims <1% accuracy loss; at this toy scale demand a
        // clear majority agreement.
        assert!(agree >= 6, "only {agree}/8 agreed with the float model");
    }

    #[test]
    fn parallel_batches_are_bit_identical_to_serial() {
        let g = graph();
        let engine = Engine::builder(g).sram_budget(SramBudget::kib(256)).build();
        let dep = engine.deploy(engine.plan(inputs(4)).unwrap()).unwrap();
        let test = inputs(9);
        let serial = dep.session().run_batch(&test).unwrap();
        for workers in [1, 2, 3, 8] {
            let parallel = dep.run_batch(&test, workers).unwrap();
            assert_eq!(serial, parallel, "worker count {workers} changed outputs");
            assert!(dep.run_batch(&[], workers).unwrap().is_empty());
        }
    }

    #[test]
    fn sessions_over_one_deployment_agree() {
        let g = graph();
        let engine = Engine::builder(g).sram_budget(SramBudget::kib(256)).build();
        let dep = Arc::new(engine.deploy(engine.plan(inputs(4)).unwrap()).unwrap());
        let test = inputs(3);
        let a = Session::new(Arc::clone(&dep)).run_batch(&test).unwrap();
        let b = dep.session().run_batch(&test).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn artifact_round_trip_restores_bit_identical_deployment() {
        let engine = Engine::builder(graph()).sram_budget(SramBudget::kib(256)).build();
        let dep = engine.deploy(engine.plan(inputs(4)).unwrap()).unwrap();
        let bytes = dep.save().unwrap();
        let restored = engine.deploy_from_artifact(&bytes).unwrap();
        assert_eq!(dep.plan(), restored.plan());
        let test = inputs(6);
        let original = dep.session().run_batch(&test).unwrap();
        let cold = restored.session().run_batch(&test).unwrap();
        assert_eq!(original, cold, "cold-start outputs must be bit-identical");
    }

    #[test]
    fn extreme_inputs_saturate_to_the_grid_edges() {
        let engine = Engine::builder(graph()).sram_budget(SramBudget::kib(256)).build();
        // Calibrating on `[-0.1, 0.9]` puts every branch's input zero point
        // well below 0: the case where adding it to a saturated quotient
        // used to overflow.
        let calib: Vec<Tensor> = inputs(4).iter().map(|t| t.map(|v| 0.5 * v + 0.4)).collect();
        let dep = engine.deploy(engine.plan(calib).unwrap()).unwrap();
        let plan = dep.plan();
        for (ranges, bits) in plan.branch_ranges.iter().zip(&plan.branch_bits) {
            let (lo, hi) = ranges[0];
            assert!(QuantParams::from_min_max(lo, hi, bits[0]).unwrap().zero_point() < 0);
        }
        let base = inputs(1).remove(0);
        let with = |v: f32| {
            let mut x = base.clone();
            x.data_mut()[5] = v;
            x
        };
        let mut session = dep.session();
        // ±1e6 is far outside the grid yet far inside `i32` quotients.
        let low = session.run(&with(-1e6)).unwrap();
        for v in [-1e9, -1e30, f32::NEG_INFINITY] {
            assert_eq!(session.run(&with(v)).unwrap(), low, "input {v}");
        }
        let high = session.run(&with(1e6)).unwrap();
        for v in [1e9, 1e30, f32::INFINITY] {
            assert_eq!(session.run(&with(v)).unwrap(), high, "input {v}");
        }
        assert_eq!(session.run(&with(f32::NAN)).unwrap(), session.run(&with(0.0)).unwrap());
    }

    #[test]
    fn bitwidths_the_integer_layout_cannot_hold_are_a_typed_error() {
        let g = graph();
        let plan = Planner::new(QuantMcuConfig::paper()).plan(&g, &inputs(4), 256 * 1024).unwrap();
        for bits in [Bitwidth::W16, Bitwidth::W32] {
            let mut wide_weights = plan.clone();
            wide_weights.weight_bits = bits;
            let mut wide_branch = plan.clone();
            wide_branch.branch_bits[0][0] = bits;
            let mut wide_tail = plan.clone();
            *wide_tail.tail_bits.last_mut().unwrap() = bits;
            for (what, plan) in
                [("weights", wide_weights), ("branch", wide_branch), ("tail", wide_tail)]
            {
                assert!(
                    matches!(
                        Deployment::new(g.clone(), plan),
                        Err(Error::Graph(GraphError::Tensor(TensorError::UnsupportedBitwidth(b)))) if b == bits.bits()
                    ),
                    "{bits} {what}"
                );
            }
        }
    }

    #[test]
    fn vdpc_plan_is_at_least_as_faithful_as_no_vdpc() {
        let g = graph();
        let calib = inputs(4);
        let test = inputs(10);
        let mut float_exec = FloatExecutor::new(&g);
        let mut fidelity = |cfg: QuantMcuConfig| -> usize {
            let plan = Planner::new(cfg).plan(&g, &calib, 256 * 1024).unwrap();
            let dep = Deployment::new(g.clone(), plan).unwrap();
            let mut session = dep.session();
            test.iter()
                .filter(|t| {
                    session.run(t).unwrap().argmax(0) == float_exec.run(t).unwrap().argmax(0)
                })
                .count()
        };
        let with_vdpc = fidelity(QuantMcuConfig::paper());
        let without = fidelity(QuantMcuConfig::without_vdpc());
        assert!(with_vdpc >= without, "VDPC {with_vdpc} vs no-VDPC {without}");
    }
}
