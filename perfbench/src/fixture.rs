//! The benchmark's inputs and the untimed preparation every workload
//! shares: MobileNetV2 at exec scale under the 16 KiB budget, its `.qmcu`
//! bytes, a `.qplan` plan artifact, and seeded image sets.

use std::sync::Arc;
use std::time::Instant;

use quantmcu::data::classification::ClassificationDataset;
use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::exec::FloatExecutor;
use quantmcu::nn::import;
use quantmcu::tensor::Tensor;
use quantmcu::{Deployment, Engine, Error, Server, SramBudget};
use quantmcu_bench::{exec_graph, EXEC_SRAM};

use crate::trace::{step, Trace};

/// Calibration images per plan.
pub const CALIBRATION_IMAGES: usize = 32;
/// Images each plan-and-evaluate round serves.
pub const EVAL_IMAGES: usize = 64;
/// Distinct images the serve workloads cycle through.
pub const POOL_IMAGES: usize = 64;
/// Server workers, and `Deployment::run_batch` workers.
pub const WORKERS: usize = 2;
/// Server micro-batch ceiling (the server's default).
pub const MAX_BATCH: usize = 4;
/// Cold starts per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// The seeded image sets, disjoint by dataset index.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Calibration set for every plan.
    pub calibration: Vec<Tensor>,
    /// Evaluation set of the plan-and-evaluate rounds.
    pub eval: Vec<Tensor>,
    /// Request pool of the serve workloads.
    pub pool: Vec<Tensor>,
}

impl Inputs {
    /// Generates every image from `seed`: the same seed gives the same
    /// images.
    pub fn from_seed(seed: u64) -> Self {
        let cfg = ModelConfig::exec_scale();
        let ds = ClassificationDataset::new(cfg.resolution, cfg.classes, seed);
        let take = |from: usize, n: usize| (from..from + n).map(|i| ds.sample(i).0).collect();
        Inputs {
            calibration: take(0, CALIBRATION_IMAGES),
            eval: take(CALIBRATION_IMAGES, EVAL_IMAGES),
            pool: take(CALIBRATION_IMAGES + EVAL_IMAGES, POOL_IMAGES),
        }
    }
}

/// The model as a serving user ships it: `.qmcu` bytes.
pub fn model_bytes() -> Vec<u8> {
    import::save_model(&exec_graph(Model::MobileNetV2))
}

/// Imports `.qmcu` bytes into an engine under the exec-scale budget.
///
/// # Errors
///
/// Propagates import errors.
pub fn engine(model_bytes: &[u8]) -> Result<Engine, Error> {
    Ok(Engine::import(model_bytes)?.sram_budget(SramBudget::new(EXEC_SRAM)).build())
}

/// Plans on the calibration set and saves the deployment as `.qplan`
/// bytes. The engine must be the *imported* one: the optimizer rewrites
/// the zoo graph on import, and an artifact is bound to the exact graph.
///
/// # Errors
///
/// Propagates planning, deployment and encoding errors.
pub fn artifact_bytes(engine: &Engine, calibration: &[Tensor]) -> Result<Vec<u8>, Error> {
    engine.deploy(engine.plan(calibration)?)?.save()
}

/// Float-model outputs, the reference top-1 agreement is measured
/// against.
///
/// # Errors
///
/// Propagates executor errors.
pub fn float_outputs(engine: &Engine, images: &[Tensor]) -> Result<Vec<Tensor>, Error> {
    let mut exec = FloatExecutor::new(engine.graph());
    Ok(images.iter().map(|t| exec.run(t)).collect::<Result<_, _>>()?)
}

/// Serial `Session::run` outputs, the reference served outputs must
/// equal bit for bit.
///
/// # Errors
///
/// Propagates session errors.
pub fn serial_outputs(deployment: &Deployment, images: &[Tensor]) -> Result<Vec<Tensor>, Error> {
    deployment.session().run_batch(images)
}

/// Bytes the serve workloads start from.
#[derive(Debug, Clone)]
pub struct ServeFixture {
    /// `.qmcu` model bytes.
    pub model: Vec<u8>,
    /// `.qplan` bytes saved from the imported engine.
    pub artifact: Vec<u8>,
}

impl ServeFixture {
    /// Prepares the bytes (untimed).
    ///
    /// # Errors
    ///
    /// Propagates import, planning and encoding errors.
    pub fn prepare(inputs: &Inputs) -> Result<Self, Error> {
        let model = model_bytes();
        let artifact = artifact_bytes(&engine(&model)?, &inputs.calibration)?;
        Ok(ServeFixture { model, artifact })
    }

    /// One calibration-free cold start: import the model, restore the
    /// deployment from the artifact, spawn the server, and send one
    /// warm-up request per worker. Returns the server, its engine, and
    /// the wall time in seconds.
    ///
    /// # Errors
    ///
    /// Propagates every step's error.
    pub fn cold_start<T: Trace>(
        &self,
        warmup: &[Tensor],
        trace: &mut T,
        rep: u64,
    ) -> Result<(Server, Engine, f64), Error> {
        let start = Instant::now();
        let root = trace.open("setup", None, rep);
        let engine = step(trace, "import", Some(root), rep, || engine(&self.model))?;
        let deployment = step(trace, "artifact.deploy", Some(root), rep, || {
            engine.deploy_from_artifact(&self.artifact)
        })?;
        let server = step(trace, "serve.spawn", Some(root), rep, || {
            Server::builder(Arc::new(deployment)).workers(WORKERS).max_batch(MAX_BATCH).build()
        });
        step(trace, "serve.warmup", Some(root), rep, || {
            let tickets = warmup
                .iter()
                .cycle()
                .take(WORKERS)
                .map(|t| server.submit(t))
                .collect::<Result<Vec<_>, _>>()?;
            tickets.into_iter().try_for_each(|t| t.wait().map(drop))
        })?;
        trace.close(root);
        Ok((server, engine, start.elapsed().as_secs_f64()))
    }
}
