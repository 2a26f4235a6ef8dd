//! The paper's own loop, repeated: plan on a calibration set, deploy,
//! serve an evaluation batch through `Deployment::run_batch`, and measure
//! top-1 agreement with the float model.

use std::time::{Duration, Instant};

use quantmcu::data::metrics::agreement_top1;
use quantmcu::tensor::Tensor;
use quantmcu::{DeploymentPlan, Engine, Error};

use crate::fixture::WORKERS;
use crate::report::Tally;
use crate::stats::Samples;
use crate::trace::{step, Trace};

/// The references each round is checked against, computed untimed.
#[derive(Debug)]
pub struct Expected {
    /// The plan every round must reproduce (search time stripped).
    pub plan: DeploymentPlan,
    /// Serial `Session::run` outputs of that plan's deployment on the
    /// evaluation set.
    pub outputs: Vec<Tensor>,
    /// Float-model outputs on the evaluation set.
    pub float: Vec<Tensor>,
}

impl Expected {
    /// Plans once and runs the evaluation set serially and in float.
    ///
    /// # Errors
    ///
    /// Propagates planning and execution errors.
    pub fn compute(
        engine: &Engine,
        calibration: &[Tensor],
        eval: &[Tensor],
    ) -> Result<Self, Error> {
        let plan = engine.plan(calibration)?.timeless();
        let deployment = engine.deploy(plan.clone())?;
        Ok(Expected {
            outputs: crate::fixture::serial_outputs(&deployment, eval)?,
            float: crate::fixture::float_outputs(engine, eval)?,
            plan,
        })
    }
}

/// What the rounds measured.
#[derive(Debug)]
pub struct PlanEvalRun {
    /// `Engine::plan` plus `Engine::deploy`, per round.
    pub plan_ms: Samples,
    /// Evaluation images per second of `Deployment::run_batch`, per round.
    pub eval_img_s: Samples,
    /// Top-1 agreement with the float model, the same every round.
    pub top1_agreement: f64,
    /// One operation per round.
    pub tally: Tally,
}

/// Runs rounds until `seconds` have passed. A round fails when any call
/// errors, when its plan differs from the expected plan, or when its
/// batch outputs differ from the serial reference.
pub fn rounds<T: Trace>(
    engine: &Engine,
    calibration: &[Tensor],
    eval: &[Tensor],
    expected: &Expected,
    seconds: f64,
    trace: &mut T,
) -> PlanEvalRun {
    let mut plan_ms = Vec::new();
    let mut eval_img_s = Vec::new();
    let mut tally = Tally::default();
    let mut top1_agreement = f64::NAN;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline {
        let span = trace.open("round", None, round);
        let t0 = Instant::now();
        let outcome = (|| -> Result<bool, Error> {
            let plan = step(trace, "engine.plan", Some(span), round, || engine.plan(calibration))?;
            let same_plan = plan.clone().timeless() == expected.plan;
            let deployment =
                step(trace, "engine.deploy", Some(span), round, || engine.deploy(plan))?;
            let t1 = Instant::now();
            let outputs = step(trace, "deploy.run_batch", Some(span), round, || {
                deployment.run_batch(eval, WORKERS)
            })?;
            let t2 = Instant::now();
            plan_ms.push((t1 - t0).as_secs_f64() * 1e3);
            eval_img_s.push(eval.len() as f64 / (t2 - t1).as_secs_f64());
            top1_agreement = agreement_top1(&expected.float, &outputs);
            Ok(same_plan && outputs == expected.outputs)
        })();
        trace.close(span);
        tally.record(outcome);
        round += 1;
    }
    PlanEvalRun {
        plan_ms: Samples::new(plan_ms),
        eval_img_s: Samples::new(eval_img_s),
        top1_agreement,
        tally,
    }
}
