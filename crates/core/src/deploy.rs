//! The executable serving artifact: immutable [`Deployment`] plus
//! per-thread [`Session`]s.

use std::borrow::Borrow;
use std::sync::Arc;
use std::thread;

use quantmcu_nn::exec::{CompiledGraph, ExecState, QuantState, ScopedPool};
use quantmcu_nn::{Graph, GraphError};
use quantmcu_patch::{PatchExecutor, PatchOutput, PatchState};
use quantmcu_tensor::{QuantParams, Tensor};

use crate::artifact::{graph_fingerprint, ArtifactError, PlanArtifact};
use crate::error::Error;
use crate::plan::DeploymentPlan;

/// An executable QuantMCU deployment: quantized patch branches plus a
/// quantized tail, runnable on host for fidelity measurements — and the
/// **immutable** serving artifact one process shares across threads.
///
/// The branch stage runs through the region-restricted patch executor with
/// per-branch fake quantization; the tail runs through the integer
/// executor. Both paths mirror what the MCU kernels compute (see the
/// `quantmcu_nn::exec` docs for the validation of that equivalence).
///
/// A deployment owns its graph behind an `Arc` (no lifetime parameter),
/// is `Send + Sync`, and holds **only** compiled state: the patch
/// executor with its float tail, the integer tail (weights regrouped and
/// quantized, requantization tables built — all once, at construction)
/// and the per-branch quantization grids. Everything mutable lives in a
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
    executor: PatchExecutor<Arc<Graph>>,
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
    /// Returns [`Error::Plan`] when the plan's quantization metadata
    /// cannot be materialized (degenerate calibration ranges), or
    /// [`Error::Patch`] when the plan's split does not fit the graph.
    pub fn new(graph: impl Into<Arc<Graph>>, plan: DeploymentPlan) -> Result<Self, Error> {
        let graph: Arc<Graph> = graph.into();
        let branch_params = Deployment::branch_params_for(&plan)?;
        let tail = CompiledGraph::with_quantization(
            Deployment::tail_graph(&graph, &plan)?,
            &plan.tail_ranges,
            &plan.tail_bits,
            plan.weight_bits,
        )?;
        // Stage-only: the serving path runs the integer tail compiled
        // above, so the executor's float tail (a second copy of the tail
        // weights) is never built.
        let executor = PatchExecutor::stage_only(Arc::clone(&graph), plan.patch_plan().clone())?;
        Ok(Deployment { executor, branch_params, tail, plan })
    }

    /// Restores a deployment from a decoded plan artifact with **zero**
    /// calibration work: the branch grids are rebuilt from the stored
    /// ranges and the integer tail is re-seated from the artifact's
    /// packed quantized state instead of being re-derived from float
    /// weights — outputs are bit-identical to the calibrated original.
    pub(crate) fn from_artifact(graph: Arc<Graph>, artifact: PlanArtifact) -> Result<Self, Error> {
        let (_, plan, state) = artifact.into_parts();
        let branch_params = Deployment::branch_params_for(&plan)?;
        let tail = CompiledGraph::with_quant_state(Deployment::tail_graph(&graph, &plan)?, state)?;
        let executor = PatchExecutor::stage_only(Arc::clone(&graph), plan.patch_plan().clone())?;
        Ok(Deployment { executor, branch_params, tail, plan })
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

    /// Serializes this deployment to `.qplan` bytes: the full plan plus
    /// the packed quantized weights and requantization tables of the
    /// compiled integer tail, bound to the served model's fingerprint.
    /// [`crate::Engine::deploy_from_artifact`] restores a bit-identical
    /// deployment from them with no calibration source at all.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] only for internally inconsistent
    /// deployments (a tail without quantization state).
    pub fn save(&self) -> Result<Vec<u8>, Error> {
        Ok(self.artifact()?.encode())
    }

    /// Writes this deployment to a `.qplan` file — the file-path
    /// spelling of [`Deployment::save`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] when the file cannot be written.
    pub fn save_to_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), Error> {
        Ok(self.artifact()?.encode_to_path(path)?)
    }

    /// The artifact capturing this deployment.
    fn artifact(&self) -> Result<PlanArtifact, Error> {
        let state: QuantState = self.tail.quant_state().ok_or_else(|| ArtifactError::Plan {
            detail: "deployment tail carries no quantization state".to_string(),
        })?;
        Ok(PlanArtifact::new(graph_fingerprint(self.graph()), self.plan.clone(), state))
    }

    /// The plan being executed.
    pub fn plan(&self) -> &DeploymentPlan {
        &self.plan
    }

    /// The served network.
    pub fn graph(&self) -> &Arc<Graph> {
        self.executor.graph_handle()
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
/// scratch (patch arenas, tail [`ExecState`], the reused stage
/// [`PatchOutput`]) over a shared [`Deployment`].
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
    use quantmcu_tensor::Shape;

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
