//! The owned serving entry point: [`Engine`] plans and deploys over an
//! [`Arc<Graph>`], replacing the borrow-everything
//! `Planner::new(cfg).plan(graph, &images, bytes)` call shape for
//! serving-style callers (the [`crate::Planner`] façade remains for the
//! paper-reproduction binaries).

use std::sync::{Arc, Mutex, PoisonError};

use quantmcu_mcusim::Device;
use quantmcu_nn::Graph;
use quantmcu_tensor::Bitwidth;

use crate::analysis::AnalysisConfig;
use crate::calibration::CalibrationSource;
use crate::config::QuantMcuConfig;
use crate::deploy::Deployment;
use crate::error::Error;
use crate::pipeline::{PlanWorkspace, Planner};
use crate::plan::DeploymentPlan;

/// A typed SRAM budget (Eq. 7's `M`), replacing the bare `usize` byte
/// count the planner used to take — so a call site reads
/// `SramBudget::kib(256)` instead of a unit-ambiguous literal.
///
/// # Example
///
/// ```
/// use quantmcu::SramBudget;
/// use quantmcu::mcusim::Device;
///
/// assert_eq!(SramBudget::kib(256).bytes(), 256 * 1024);
/// assert_eq!(SramBudget::from(4096).bytes(), 4096);
/// let dev = Device::nano33_ble_sense();
/// assert_eq!(SramBudget::of_device(&dev).bytes(), dev.sram_bytes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SramBudget(usize);

impl SramBudget {
    /// A budget of `n` bytes.
    #[must_use]
    pub const fn new(n: usize) -> Self {
        SramBudget(n)
    }

    /// A budget of `n` KiB.
    #[must_use]
    pub const fn kib(n: usize) -> Self {
        SramBudget(n * 1024)
    }

    /// A budget of `n` MiB.
    #[must_use]
    pub const fn mib(n: usize) -> Self {
        SramBudget(n * 1024 * 1024)
    }

    /// The full SRAM of a modeled device.
    #[must_use]
    pub fn of_device(device: &Device) -> Self {
        SramBudget(device.sram_bytes)
    }

    /// The budget in bytes.
    #[must_use]
    pub const fn bytes(self) -> usize {
        self.0
    }
}

impl From<usize> for SramBudget {
    fn from(bytes: usize) -> Self {
        SramBudget(bytes)
    }
}

impl std::fmt::Display for SramBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} KiB", self.0 as f64 / 1024.0)
    }
}

/// The serving entry point: one engine owns the network
/// (`Arc<Graph>`), the QuantMCU configuration and the SRAM budget, and
/// turns calibration data into [`DeploymentPlan`]s and owned, shareable
/// [`Deployment`]s.
///
/// An engine is `Send + Sync` and cheap to clone (the graph is behind an
/// `Arc`); deployments it produces share the same graph, so a server can
/// keep one engine alive, re-plan as calibration data drifts, and swap
/// `Arc<Deployment>`s under its serving threads without ever copying
/// weights.
///
/// Planning stays warm: between plans, an idle engine keeps its planning
/// workspace — one executor state per planning worker and the buffers
/// that hold the stored tail maps' calibration values (about 6.9 MB for
/// exec-scale MobileNetV2 on 32 images) — so re-planning on a calibration
/// set of the same size reserves no new memory. A call made while another
/// is planning on the same engine plans in a workspace of its own instead
/// of waiting. A clone starts with an empty workspace.
///
/// # Example
///
/// ```
/// use quantmcu::{Engine, SramBudget};
/// use quantmcu::data::classification::ClassificationDataset;
/// use quantmcu::models::{Model, ModelConfig};
/// use quantmcu::nn::init;
///
/// let spec = Model::MobileNetV2.spec(ModelConfig::exec_scale())?;
/// let graph = init::with_structured_weights(spec, 42);
/// let engine = Engine::builder(graph).sram_budget(SramBudget::kib(16)).build();
/// let data = ClassificationDataset::new(32, 10, 7);
/// let plan = engine.plan((data, 4))?;
/// let deployment = engine.deploy(plan)?;
/// let out = deployment.session().run(&data.sample(100).0)?;
/// assert!(out.data().iter().all(|v| v.is_finite()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    graph: Arc<Graph>,
    cfg: QuantMcuConfig,
    budget: SramBudget,
    /// `None` while a plan has it out, or before the first plan.
    workspace: Mutex<Option<PlanWorkspace>>,
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            graph: Arc::clone(&self.graph),
            cfg: self.cfg.clone(),
            budget: self.budget,
            workspace: Mutex::new(None),
        }
    }
}

/// Fluent construction for [`Engine`] (see [`Engine::builder`]).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    graph: Arc<Graph>,
    cfg: QuantMcuConfig,
    budget: SramBudget,
}

impl Engine {
    /// The default SRAM budget when none is configured: 256 KiB, the
    /// paper's Nano 33 BLE Sense class.
    pub const DEFAULT_SRAM_BUDGET: SramBudget = SramBudget::kib(256);

    /// Starts building an engine over `graph` (owned or already shared —
    /// anything convertible into an `Arc<Graph>`).
    pub fn builder(graph: impl Into<Arc<Graph>>) -> EngineBuilder {
        EngineBuilder {
            graph: graph.into(),
            cfg: QuantMcuConfig::default(),
            budget: Engine::DEFAULT_SRAM_BUDGET,
        }
    }

    /// An engine over `graph` with the paper configuration and the
    /// default budget — shorthand for `Engine::builder(graph).build()`.
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        Engine::builder(graph).build()
    }

    /// Starts building an engine from serialized `.qmcu` model bytes
    /// (see [`quantmcu_nn::import`]): the model is decoded, run through
    /// the graph-optimizer pass pipeline, validated by the static
    /// analyzer, and lowered into an executable graph.
    ///
    /// # Example
    ///
    /// ```
    /// use quantmcu::{Engine, SramBudget};
    /// use quantmcu::nn::{import, init, GraphSpecBuilder};
    /// use quantmcu::tensor::Shape;
    ///
    /// let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
    ///     .conv2d(4, 3, 1, 1)
    ///     .relu6()
    ///     .global_avg_pool()
    ///     .dense(10)
    ///     .build()?;
    /// let graph = init::with_structured_weights(spec, 42);
    /// let bytes = import::save_model(&graph);
    ///
    /// let engine = Engine::import(&bytes)?.sram_budget(SramBudget::kib(256)).build();
    /// assert_eq!(engine.graph().as_ref(), &graph);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::Import`] when the bytes are damaged, use an unknown
    /// opcode or format version, or fail analyzer validation.
    pub fn import(bytes: &[u8]) -> Result<EngineBuilder, Error> {
        let graph = quantmcu_nn::import::load_model(bytes)?;
        Ok(Engine::builder(graph))
    }

    /// Starts building an engine from a `.qmcu` model file — the
    /// file-path spelling of [`Engine::import`].
    ///
    /// # Errors
    ///
    /// [`Error::Import`] when the file cannot be read or the model
    /// cannot be imported (see [`Engine::import`]).
    pub fn from_model_path(path: impl AsRef<std::path::Path>) -> Result<EngineBuilder, Error> {
        let graph = quantmcu_nn::import::load_model_from_path(path)?;
        Ok(Engine::builder(graph))
    }

    /// The served network.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The active configuration.
    pub fn config(&self) -> &QuantMcuConfig {
        &self.cfg
    }

    /// The SRAM budget plans are searched against.
    pub fn sram_budget(&self) -> SramBudget {
        self.budget
    }

    /// Runs the full QuantMCU pipeline — calibrate → patch split → VDPC →
    /// per-branch VDQS → tail VDQS — against the engine's budget.
    ///
    /// `calibration` is any [`CalibrationSource`]: a `&[Tensor]`, an owned
    /// `Vec<Tensor>`, a [`crate::CalibrationStream`] over a lazy iterator,
    /// or a classification dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Analysis`] when the static analyzer rejects the
    /// graph or proves the budget infeasible — before any calibration
    /// work runs — and [`Error::Plan`] for an empty calibration set, an
    /// unsplittable graph, or a budget the search cannot satisfy (Eq. 7
    /// unsatisfiable even at the narrowest candidates).
    pub fn plan<'a>(
        &self,
        calibration: impl CalibrationSource<'a>,
    ) -> Result<DeploymentPlan, Error> {
        self.verify()?;
        let images = calibration.into_images();
        let (plan, _) = self.planning(|planner, ws| {
            planner.plan_in(ws, &self.graph, &images, self.budget.bytes())
        })?;
        Ok(plan)
    }

    /// Runs `plan` with the engine's planning workspace, taken out for the
    /// call and put back after it, or with a fresh one when another call
    /// has it out.
    fn planning<R>(&self, plan: impl FnOnce(&Planner, &mut PlanWorkspace) -> R) -> R {
        let slot = || self.workspace.lock().unwrap_or_else(PoisonError::into_inner);
        let mut ws = slot().take().unwrap_or_default();
        let out = plan(&Planner::new(self.cfg.clone()), &mut ws);
        slot().get_or_insert(ws);
        out
    }

    /// Plans one deployment per budget in `budgets` (in order), sharing
    /// every budget-independent planning stage across budgets that fit
    /// the same patch split — the calibration prologue, VDPC pass and
    /// entropy/score tables are computed once per split point, so a
    /// ladder of `B` budgets costs roughly one full plan plus `B - 1`
    /// VDQS searches. Each plan is bit-identical to what
    /// [`Engine::plan`] at that budget produces.
    ///
    /// The engine's own budget is ignored; the static analyzer runs once
    /// against the *widest* swept budget (per-rung feasibility is what
    /// the sweep itself establishes).
    ///
    /// # Errors
    ///
    /// Fails on the first budget (lowest index) any stage fails for; use
    /// [`Engine::plan_sweep_each`] to keep per-budget outcomes.
    pub fn plan_sweep<'a>(
        &self,
        calibration: impl CalibrationSource<'a>,
        budgets: &[SramBudget],
    ) -> Result<Vec<DeploymentPlan>, Error> {
        self.verify_for_sweep(budgets)?;
        let images = calibration.into_images();
        let bytes: Vec<usize> = budgets.iter().map(|b| b.bytes()).collect();
        let outcomes =
            self.planning(|planner, ws| planner.sweep_in(ws, &self.graph, &images, &bytes))?;
        Ok(outcomes
            .into_iter()
            .map(|outcome| outcome.map(|(plan, _)| plan))
            .collect::<Result<_, _>>()?)
    }

    /// [`Engine::plan_sweep`] with per-budget outcomes: a budget whose
    /// patch fit or VDQS search fails yields an `Err` in its slot without
    /// failing the budgets that do plan — the fleet-exploration building
    /// block (see [`crate::fleet`]).
    ///
    /// # Errors
    ///
    /// The outer `Err` is reserved for failures no budget can escape: a
    /// rejected graph, an empty calibration set, or an uncompilable graph.
    pub fn plan_sweep_each<'a>(
        &self,
        calibration: impl CalibrationSource<'a>,
        budgets: &[SramBudget],
    ) -> Result<Vec<Result<DeploymentPlan, crate::error::PlanError>>, Error> {
        self.verify_for_sweep(budgets)?;
        let images = calibration.into_images();
        let bytes: Vec<usize> = budgets.iter().map(|b| b.bytes()).collect();
        let outcomes =
            self.planning(|planner, ws| planner.sweep_in(ws, &self.graph, &images, &bytes))?;
        Ok(outcomes.into_iter().map(|outcome| outcome.map(|(plan, _)| plan)).collect())
    }

    /// Sweep-time verification: the analyzer's budget-feasibility checks
    /// run against the widest swept budget (falling back to the engine's
    /// own when `budgets` is empty) so one tight rung cannot veto the
    /// whole sweep.
    fn verify_for_sweep(&self, budgets: &[SramBudget]) -> Result<(), Error> {
        let widest = budgets.iter().copied().max().unwrap_or(self.budget);
        let cfg = AnalysisConfig::for_engine(&self.cfg, widest);
        let report = crate::analysis::analyze(&self.graph, &cfg);
        if report.has_errors() {
            return Err(Error::Analysis(report));
        }
        Ok(())
    }

    /// Builds a *uniform* plan at `bits` over the same patch schedule —
    /// the MCUNetV2-style baseline, runnable through the same
    /// [`Deployment`] machinery.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::plan`], minus the search errors.
    pub fn plan_uniform<'a>(
        &self,
        calibration: impl CalibrationSource<'a>,
        bits: Bitwidth,
    ) -> Result<DeploymentPlan, Error> {
        self.verify()?;
        let images = calibration.into_images();
        Ok(self.planning(|planner, ws| {
            planner.plan_uniform_in(ws, &self.graph, &images, bits, self.budget.bytes())
        })?)
    }

    /// Compiles `plan` into an owned, `Send + Sync` [`Deployment`]
    /// sharing the engine's graph. Wrap it in an `Arc` and open one
    /// [`crate::Session`] per serving thread.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Analysis`] when the static analyzer rejects the
    /// graph, and otherwise the errors of [`Deployment::new`]: a plan made
    /// for a different graph
    /// ([`PlanError::GraphMismatch`](crate::PlanError::GraphMismatch)),
    /// quantization that cannot be materialized, or a split that does not
    /// fit the graph.
    pub fn deploy(&self, plan: DeploymentPlan) -> Result<Deployment, Error> {
        self.verify()?;
        Deployment::new(Arc::clone(&self.graph), plan)
    }

    /// Restores a [`Deployment`] from `.qplan` plan-artifact bytes (see
    /// [`crate::artifact`]) with **no calibration source at all** — the
    /// cold-start path. The artifact is decoded and fully re-validated,
    /// its stored graph fingerprint is checked against the engine's
    /// graph, and the decoded plan then takes the same [`Engine::deploy`]
    /// path a calibrated plan takes (analyzer gate, then compilation of
    /// the branch grids and the integer tail from the plan's ranges).
    /// The restored deployment computes outputs **bit-identical** to the
    /// calibrated deployment that [`Deployment::save`]d the artifact.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] when the bytes are damaged, use an
    /// unsupported format version, decode to an invalid plan, or were
    /// saved for a different model
    /// ([`ArtifactError::FingerprintMismatch`](crate::artifact::ArtifactError::FingerprintMismatch));
    /// otherwise the same errors as [`Engine::deploy`].
    pub fn deploy_from_artifact(&self, bytes: &[u8]) -> Result<Deployment, Error> {
        let artifact = crate::artifact::PlanArtifact::decode(bytes)?;
        self.deploy_decoded(artifact)
    }

    /// Restores a [`Deployment`] from a `.qplan` file — the file-path
    /// spelling of [`Engine::deploy_from_artifact`].
    ///
    /// # Errors
    ///
    /// [`Error::Artifact`] when the file cannot be read, otherwise the
    /// same errors as [`Engine::deploy_from_artifact`].
    pub fn deploy_from_artifact_path(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Deployment, Error> {
        let artifact = crate::artifact::PlanArtifact::decode_from_path(path)?;
        self.deploy_decoded(artifact)
    }

    fn deploy_decoded(&self, artifact: crate::artifact::PlanArtifact) -> Result<Deployment, Error> {
        let expected = crate::artifact::graph_fingerprint(&self.graph);
        if artifact.fingerprint() != expected {
            return Err(crate::artifact::ArtifactError::FingerprintMismatch {
                expected,
                found: artifact.fingerprint(),
            }
            .into());
        }
        self.deploy(artifact.plan)
    }

    /// Runs the static analyzer in strict mode against the engine's
    /// configuration and budget (see [`crate::analyze`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Analysis`] carrying the full diagnostic report
    /// when any error-severity diagnostic fires.
    pub fn verify(&self) -> Result<(), Error> {
        let cfg = AnalysisConfig::for_engine(&self.cfg, self.budget);
        let report = crate::analysis::analyze(&self.graph, &cfg);
        if report.has_errors() {
            return Err(Error::Analysis(report));
        }
        Ok(())
    }
}

impl EngineBuilder {
    /// Replaces the whole configuration at once.
    #[must_use]
    pub fn config(mut self, cfg: QuantMcuConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the SRAM budget (Eq. 7's `M`).
    #[must_use]
    pub fn sram_budget(mut self, budget: impl Into<SramBudget>) -> Self {
        self.budget = budget.into();
        self
    }

    /// Sets the worker-thread count for **planning** (the calibration
    /// prologue, activation ranging and entropy tables). Serving
    /// parallelism is chosen per call via
    /// [`Deployment::run_batch`](crate::Deployment::run_batch)'s
    /// `workers` argument — a deployment has no baked-in thread count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Sets the patch grid side (`grid` × `grid` patches).
    #[must_use]
    pub fn grid(mut self, grid: usize) -> Self {
        self.cfg.grid = grid;
        self
    }

    /// Sets the deployed weight bitwidth.
    #[must_use]
    pub fn weight_bits(mut self, bits: Bitwidth) -> Self {
        self.cfg.weight_bits = bits;
        self
    }

    /// Enables or disables VDPC (the Fig. 4 ablation toggle).
    #[must_use]
    pub fn vdpc(mut self, enabled: bool) -> Self {
        self.cfg.enable_vdpc = enabled;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> Engine {
        Engine {
            graph: self.graph,
            cfg: self.cfg,
            budget: self.budget,
            workspace: Mutex::new(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_nn::{init, GraphSpecBuilder};
    use quantmcu_tensor::{Shape, Tensor};

    fn graph() -> Graph {
        graph_at(16)
    }

    /// The test network at a `side`×`side` input.
    fn graph_at(side: usize) -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(side, side, 3))
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

    fn calib(n: usize) -> Vec<Tensor> {
        calib_at(16, n)
    }

    fn calib_at(side: usize, n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|s| {
                Tensor::from_fn(Shape::hwc(side, side, 3), |i| ((i + 97 * s) as f32 * 0.19).sin())
            })
            .collect()
    }

    #[test]
    fn engine_is_send_sync_and_clonable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn builder_defaults_match_planner_paper_config() {
        let e = Engine::new(graph());
        assert_eq!(*e.config(), QuantMcuConfig::paper());
        assert_eq!(e.sram_budget(), Engine::DEFAULT_SRAM_BUDGET);
    }

    #[test]
    fn builder_setters_apply() {
        let e = Engine::builder(graph())
            .sram_budget(SramBudget::kib(16))
            .workers(1)
            .grid(2)
            .weight_bits(Bitwidth::W4)
            .vdpc(false)
            .build();
        assert_eq!(e.sram_budget().bytes(), 16 * 1024);
        assert_eq!(e.config().workers, 1);
        assert_eq!(e.config().grid, 2);
        assert_eq!(e.config().weight_bits, Bitwidth::W4);
        assert!(!e.config().enable_vdpc);
    }

    #[test]
    fn engine_plan_matches_planner_facade() {
        let g = graph();
        let engine = Engine::builder(g.clone()).sram_budget(SramBudget::kib(256)).build();
        let via_engine = engine.plan(calib(4)).unwrap().timeless();
        let via_planner = Planner::new(QuantMcuConfig::paper())
            .plan(&g, &calib(4), 256 * 1024)
            .unwrap()
            .timeless();
        assert_eq!(via_engine, via_planner);
    }

    #[test]
    fn engine_sweep_matches_independent_engine_plans() {
        let g = graph();
        let budgets = [SramBudget::kib(8), SramBudget::kib(64), SramBudget::kib(256)];
        let engine = Engine::builder(g).build();
        let sweep = engine.plan_sweep(calib(4), &budgets).unwrap();
        assert_eq!(sweep.len(), budgets.len());
        for (plan, &budget) in sweep.into_iter().zip(&budgets) {
            let single = Engine::builder(engine.graph().clone())
                .config(engine.config().clone())
                .sram_budget(budget)
                .build()
                .plan(calib(4))
                .unwrap();
            assert_eq!(plan.timeless(), single.timeless(), "diverged at {budget}");
        }
    }

    #[test]
    fn a_warm_engine_plans_as_a_fresh_planner() {
        // One engine, one workspace, planning in turn on set A, on a set B
        // of another size, uniformly, as a sweep, and on A again: every
        // plan must be the one a fresh `Planner` call makes.
        let g = graph();
        let (a, b) = (calib(5), calib(3));
        let budget = SramBudget::kib(256);
        let budgets = [SramBudget::kib(8), SramBudget::kib(64), budget];
        let bytes: Vec<usize> = budgets.iter().map(|b| b.bytes()).collect();
        for workers in [1, 2, 3] {
            let cfg = QuantMcuConfig { workers, ..QuantMcuConfig::paper() };
            let engine = Engine::builder(g.clone()).config(cfg.clone()).sram_budget(budget).build();
            let planner = Planner::new(cfg);
            let fresh =
                |images: &[Tensor]| planner.plan(&g, images, budget.bytes()).unwrap().timeless();
            assert_eq!(engine.plan(&a).unwrap().timeless(), fresh(&a), "A, {workers} workers");
            assert_eq!(engine.plan(&b).unwrap().timeless(), fresh(&b), "B, {workers} workers");
            assert_eq!(
                engine.plan_uniform(&a, Bitwidth::W4).unwrap().timeless(),
                planner.plan_uniform(&g, &a, Bitwidth::W4, budget.bytes()).unwrap().timeless(),
                "uniform, {workers} workers"
            );
            let sweep = engine.plan_sweep(&b, &budgets).unwrap();
            let expected = planner.plan_sweep(&g, &b, &bytes).unwrap();
            for (plan, expected) in sweep.into_iter().zip(expected) {
                assert_eq!(plan.timeless(), expected.timeless(), "sweep, {workers} workers");
            }
            assert_eq!(
                engine.plan(&a).unwrap().timeless(),
                fresh(&a),
                "A again, {workers} workers"
            );
        }
    }

    #[test]
    fn concurrent_plans_on_one_engine_agree() {
        // While one call has the engine's workspace out, the other plans
        // in a workspace of its own; both must get the same plan.
        let engine = Engine::builder(graph()).workers(2).build();
        let images = calib(4);
        let expected = engine.plan(&images).unwrap().timeless();
        let start = std::sync::Barrier::new(2);
        for _ in 0..4 {
            let plans: Vec<DeploymentPlan> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            engine.plan(&images).unwrap().timeless()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(plans.iter().all(|plan| *plan == expected));
        }
    }

    #[test]
    fn engine_sweep_each_keeps_workable_budgets() {
        let engine = Engine::builder(graph()).build();
        let outcomes =
            engine.plan_sweep_each(calib(3), &[SramBudget::new(64), SramBudget::kib(256)]).unwrap();
        assert!(outcomes[0].is_err());
        assert!(outcomes[1].is_ok());
    }

    #[test]
    fn artifact_from_a_different_model_is_rejected() {
        use crate::artifact::ArtifactError;
        let engine = Engine::builder(graph()).sram_budget(SramBudget::kib(256)).build();
        let bytes = engine.deploy(engine.plan(calib(4)).unwrap()).unwrap().save().unwrap();
        // Same spec, different weights: the fingerprint must catch it.
        let other = init::with_structured_weights(graph().spec().clone(), 32);
        let other_engine = Engine::builder(other).sram_budget(SramBudget::kib(256)).build();
        let err = other_engine.deploy_from_artifact(&bytes).unwrap_err();
        assert!(matches!(
            err,
            crate::Error::Artifact(ArtifactError::FingerprintMismatch { expected, found })
                if expected != found
        ));
    }

    #[test]
    fn plan_for_another_input_size_is_rejected() {
        // Without the check, a 16x16 plan on the 32x32 network served
        // `Ok` outputs whose stage map was zero outside its top-left
        // quarter; the other way round it failed only at run time.
        let small = Engine::builder(graph_at(16)).sram_budget(SramBudget::kib(256)).build();
        let large = Engine::builder(graph_at(32)).sram_budget(SramBudget::kib(256)).build();
        let small_plan = small.plan(calib_at(16, 3)).unwrap();
        let large_plan = large.plan(calib_at(32, 3)).unwrap();
        for (engine, plan) in [(&large, small_plan), (&small, large_plan)] {
            assert!(matches!(
                engine.deploy(plan),
                Err(crate::Error::Plan(crate::PlanError::GraphMismatch))
            ));
        }
    }

    #[test]
    fn missing_artifact_file_is_a_typed_io_error() {
        use crate::artifact::ArtifactError;
        let engine = Engine::builder(graph()).build();
        let err = engine.deploy_from_artifact_path("/nonexistent/model.qplan").unwrap_err();
        assert!(matches!(err, crate::Error::Artifact(ArtifactError::Io { .. })));
    }

    #[test]
    fn shared_graph_is_not_duplicated_across_deployments() {
        let engine = Engine::builder(graph()).sram_budget(SramBudget::kib(256)).build();
        let plan = engine.plan(calib(4)).unwrap();
        let a = engine.deploy(plan.clone()).unwrap();
        let b = engine.deploy(plan).unwrap();
        assert!(Arc::ptr_eq(a.graph(), b.graph()));
        assert!(Arc::ptr_eq(a.graph(), engine.graph()));
    }
}
