//! The traced run's per-layer probe: times the public calls of each layer
//! on the workload's own deployment, from the benchmark's code alone.
//!
//! The deployed path is split by rebuilding it from its parts — the
//! stage-only `PatchExecutor` with branch grids from
//! `plan.branch_ranges()`/`branch_bits()`, then the tail compiled with
//! `CompiledGraph::with_quantization` — and the replica is checked bit for
//! bit against `Session::run` on every image, so the split times the same
//! program the server runs.

use std::sync::Arc;
use std::time::Instant;

use quantmcu::artifact::PlanArtifact;
use quantmcu::mcusim::Device;
use quantmcu::nn::exec::{CompiledGraph, ExecState};
use quantmcu::nn::{cost, import, Graph};
use quantmcu::patch::{PatchExecutor, PatchState};
use quantmcu::tensor::{QuantParams, Tensor};
use quantmcu::{analyze, AnalysisConfig, Deployment, Engine, Error, PlanStats, Planner};

use crate::fixture::{Inputs, WORKERS};
use crate::report::{Metric, Tally};
use crate::stats::Samples;
use crate::trace::{by_name, step, NameStats, Trace, Tracer};

/// Calls per cheap layer (import, analyze, artifact, deploy, batch).
const REPS: u64 = 11;
/// Planner calls.
const PLAN_REPS: u64 = 5;
/// Serial image runs through each deployed-path piece.
const IMAGE_RUNS: u64 = 1000;

/// Float op kinds reported as metrics: (`OpSpec::name`, span name and
/// metric stem). A kind the model lacks reports zero.
pub const FLOAT_OPS: [(&str, &str); 6] = [
    ("conv2d", "float.op.conv2d"),
    ("dwconv", "float.op.dwconv"),
    ("dense", "float.op.dense"),
    ("relu6", "float.op.relu6"),
    ("add", "float.op.add"),
    ("gap", "float.op.global_avg_pool"),
];

/// Span name of float nodes of any other kind (shown in the span table).
const FLOAT_OTHER: &str = "float.op.other";

/// What the probe runs against.
#[derive(Debug, Clone, Copy)]
pub struct Subject<'a> {
    /// The imported engine.
    pub engine: &'a Engine,
    /// The deployment the workload served.
    pub deployment: &'a Deployment,
    /// `.qmcu` bytes of the model.
    pub model: &'a [u8],
    /// `.qplan` bytes of the deployment.
    pub artifact: &'a [u8],
    /// The workload's images.
    pub inputs: &'a Inputs,
}

/// The probe's numbers.
#[derive(Debug)]
pub struct Probe {
    /// Per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Replica-versus-session checks and planner determinism checks.
    pub tally: Tally,
    /// Median serial `Session::run` time, for the serving overhead.
    pub session_ms: f64,
}

/// The tail sub-graph a plan's split selects, with its weights.
fn tail_graph(graph: &Graph, split: usize) -> Result<Graph, Error> {
    let spec = graph.spec();
    let (_, tail) = spec.split_at(split).map_err(quantmcu::patch::PatchError::from)?;
    Ok(Graph::new(tail, (split..spec.len()).map(|i| graph.params(i).clone()).collect()))
}

/// Runs every layer probe, recording spans into `tr`.
///
/// # Errors
///
/// Propagates errors from building the replica; per-call failures are
/// counted in the returned tally instead.
pub fn probe(s: Subject<'_>, tr: &mut Tracer) -> Result<Probe, Error> {
    let mut tally = Tally::default();
    let mut own = tr.fork();
    let engine = s.engine;
    let plan = s.deployment.plan();

    // nn::import + nn::opt
    let mut rewrites = 0;
    for r in 0..REPS {
        tally.record(
            step(&mut own, "import.decode", None, r, || import::decode(s.model)).map(|_| true),
        );
        let loaded =
            step(&mut own, "import.load", None, r, || import::load_model_with_stats(s.model));
        tally.record(loaded.map(|(graph, stats)| {
            rewrites = stats.total();
            graph == **engine.graph()
        }));
    }

    // nn::analyze
    let cfg = AnalysisConfig::for_engine(engine.config(), engine.sram_budget());
    for r in 0..REPS {
        let report = step(&mut own, "analyze", None, r, || analyze(engine.graph(), &cfg));
        tally.record::<()>(Ok(!report.has_errors()));
    }

    // core::artifact and core::deploy
    for r in 0..REPS {
        let decoded =
            step(&mut own, "artifact.decode", None, r, || PlanArtifact::decode(s.artifact));
        tally.record(decoded.map(|a| a.plan() == plan));
        let restored =
            step(&mut own, "artifact.deploy", None, r, || engine.deploy_from_artifact(s.artifact));
        tally.record(restored.map(|d| d.plan() == plan));
        let compiled = step(&mut own, "deploy.compile", None, r, || engine.deploy(plan.clone()));
        tally.record(compiled.map(|d| d.plan() == plan));
    }

    // core::pipeline + quant, with the engine's configuration
    let planner = Planner::new(engine.config().clone());
    let mut stages: Vec<PlanStats> = Vec::new();
    for r in 0..PLAN_REPS {
        let planned = step(&mut own, "planner.plan", None, r, || {
            planner.plan_with_stats(
                engine.graph(),
                &s.inputs.calibration,
                engine.sram_budget().bytes(),
            )
        });
        tally.record(planned.map(|(p, st)| {
            stages.push(st);
            p.timeless() == plan.clone().timeless()
        }));
    }

    // The deployed path, piece by piece, against Session::run.
    let graph: Arc<Graph> = Arc::clone(engine.graph());
    let executor = PatchExecutor::stage_only(Arc::clone(&graph), plan.patch_plan().clone())?;
    let branch_params = plan
        .branch_ranges()
        .iter()
        .zip(plan.branch_bits())
        .map(|(ranges, bits)| {
            ranges
                .iter()
                .zip(bits)
                .map(|(&(lo, hi), &b)| QuantParams::from_min_max(lo, hi, b))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tail = CompiledGraph::with_quantization(
        tail_graph(&graph, plan.patch_plan().split_at())?,
        plan.tail_ranges(),
        plan.tail_bits(),
        plan.weight_bits(),
    )?;
    let float = CompiledGraph::new(Arc::clone(&graph))?;
    let kinds: Vec<Option<usize>> = graph
        .spec()
        .nodes()
        .iter()
        .map(|n| FLOAT_OPS.iter().position(|(k, _)| *k == n.op.name()))
        .collect();
    let mut stamps = vec![Instant::now(); graph.spec().feature_map_count()];
    let mut kind_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(IMAGE_RUNS as usize); FLOAT_OPS.len()];

    let mut session = s.deployment.session();
    let mut patch_state = PatchState::new();
    let mut stage = executor.make_output();
    let mut int_state = ExecState::new();
    let mut float_tail_state = ExecState::new();
    let mut float_state = ExecState::new();
    let pool = &s.inputs.pool;
    for r in 0..IMAGE_RUNS {
        let image: &Tensor = &pool[r as usize % pool.len()];
        let served = step(&mut own, "session.run", None, r, || session.run(image));
        let root = own.open("replica", None, r);
        let staged = step(&mut own, "patch.stage", Some(root), r, || {
            executor.run_stage_into(&mut patch_state, image, Some(&branch_params), &mut stage)
        });
        let replica = staged.map_err(Error::from).and_then(|()| {
            step(&mut own, "tail.int", Some(root), r, || {
                tail.run_quant(&mut int_state, &stage.stage_output)
            })
            .map_err(Error::from)
        });
        own.close(root);
        tally.record(served.and_then(|a| replica.map(|b| a == b)));
        let tail_float = step(&mut own, "tail.float", None, r, || {
            tail.run_float(&mut float_tail_state, &stage.stage_output)
        });
        tally.record(tail_float.map(|_| true));

        let full = own.open("float.full", None, r);
        let ran =
            float.run_float_with(&mut float_state, image, |fm, _| stamps[fm.0] = Instant::now());
        own.close(full);
        tally.record(ran.map(|()| true));
        let mut per_kind = [0.0f64; FLOAT_OPS.len()];
        for (node, &kind) in kinds.iter().enumerate() {
            let (start, end) = (stamps[node], stamps[node + 1]);
            own.record(kind.map_or(FLOAT_OTHER, |k| FLOAT_OPS[k].1), Some(full), r, start, end);
            if let Some(k) = kind {
                per_kind[k] += (end - start).as_secs_f64() * 1e3;
            }
        }
        for (samples, v) in kind_ms.iter_mut().zip(per_kind) {
            samples.push(v);
        }
    }
    for r in 0..REPS {
        let batch = step(&mut own, "batch.run", None, r, || {
            s.deployment.run_batch(&s.inputs.eval, WORKERS)
        });
        tally.record(batch.map(|_| true));
    }
    let modelled = plan.latency(&Device::stm32h743())?;

    let named = by_name(own.spans());
    let med =
        |name: &str| named.get(name).and_then(|n: &NameStats| n.total.median()).unwrap_or(f64::NAN);
    let session_ms = med("session.run");
    let session_p99 =
        named.get("session.run").and_then(|n| n.total.quantile(0.99)).unwrap_or(f64::NAN);
    let stage_ms = med("patch.stage");
    let int_ms = med("tail.int");
    let tail_float_ms = med("tail.float");
    let float_ms = med("float.full");
    let eval_img_s = Samples::new(
        named
            .get("batch.run")
            .map_or(&[][..], |n| n.total.values())
            .iter()
            .map(|ms| s.inputs.eval.len() as f64 * 1e3 / ms)
            .collect(),
    )
    .median()
    .unwrap_or(f64::NAN);
    let stage_med = |f: fn(&PlanStats) -> std::time::Duration| {
        Samples::new(stages.iter().map(|st| f(st).as_secs_f64() * 1e3).collect())
            .median()
            .unwrap_or(f64::NAN)
    };
    let head = plan.head();
    let head_macs: u64 = plan.branches().iter().map(|b| b.total_macs(&head)).sum();

    let n = |count: usize| format!("n={count}");
    let mut metrics = vec![
        Metric::new("session.run_ms_p50", session_ms, "ms").note(n(IMAGE_RUNS as usize)),
        Metric::new("session.run_ms_p99", session_p99, "ms").note(n(IMAGE_RUNS as usize)),
        Metric::new("batch.speedup_vs_serial", eval_img_s * session_ms / 1e3, "ratio")
            .note(format!("{eval_img_s:.1} img/s over {WORKERS} workers vs serial")),
        Metric::new("deploy.compile_ms", med("deploy.compile"), "ms").note(n(REPS as usize)),
        Metric::new("patch.stage_ms", stage_ms, "ms").note(n(IMAGE_RUNS as usize)),
        Metric::new("patch.stage_share", stage_ms / session_ms, "fraction").note("of session.run"),
        Metric::new("patch.branches", plan.branches().len() as f64, "count"),
        Metric::new("patch.head_macs", head_macs as f64, "MACs"),
        Metric::new(
            "patch.halo_overhead",
            head_macs as f64 / cost::total_macs(&head) as f64,
            "ratio",
        )
        .note("head MACs / layer-wise head MACs"),
        Metric::new("tail.int_ms", int_ms, "ms").note(n(IMAGE_RUNS as usize)),
        Metric::new("tail.int_share", int_ms / session_ms, "fraction").note("of session.run"),
        Metric::new("tail.macs", cost::total_macs(&plan.tail()) as f64, "MACs"),
        Metric::new("tail.float_ms", tail_float_ms, "ms").note(n(IMAGE_RUNS as usize)),
        Metric::new("tail.int_over_float", int_ms / tail_float_ms, "ratio"),
        Metric::new("float.full_ms", float_ms, "ms").note(n(IMAGE_RUNS as usize)),
    ];
    for ((_, stem), samples) in FLOAT_OPS.iter().zip(kind_ms) {
        let ms = Samples::new(samples).median().unwrap_or(f64::NAN);
        metrics.push(Metric::new(format!("{stem}_ms"), ms, "ms"));
        metrics.push(
            Metric::new(format!("{stem}_share"), ms / float_ms, "fraction").note("of float.full"),
        );
    }
    let plan_total = med("planner.plan");
    let entropy_ms = stage_med(|st| st.entropy);
    metrics.extend([
        Metric::new("plan.total_ms", plan_total, "ms").note(n(PLAN_REPS as usize)),
        Metric::new("plan.prologue_ms", stage_med(|st| st.prologue), "ms"),
        Metric::new("plan.vdpc_ms", stage_med(|st| st.vdpc), "ms"),
        Metric::new("plan.entropy_ms", entropy_ms, "ms"),
        Metric::new("plan.vdqs_ms", stage_med(|st| st.vdqs), "ms"),
        Metric::new("plan.entropy_share", entropy_ms / plan_total, "fraction")
            .note("of planner.plan"),
        Metric::new("plan.outlier_patches", plan.outlier_patch_count() as f64, "count"),
        Metric::new("plan.mean_branch_bits", plan.mean_branch_bits(), "bits"),
        Metric::new("import.bytes", s.model.len() as f64, "bytes"),
        Metric::new("import.decode_ms", med("import.decode"), "ms").note(n(REPS as usize)),
        Metric::new("import.load_ms", med("import.load"), "ms").note(n(REPS as usize)),
        Metric::new("opt.rewrites", rewrites as f64, "count"),
        Metric::new("analyze.ms", med("analyze"), "ms").note(n(REPS as usize)),
        Metric::new("artifact.bytes", s.artifact.len() as f64, "bytes"),
        Metric::new("artifact.decode_ms", med("artifact.decode"), "ms").note(n(REPS as usize)),
        Metric::new("artifact.restore_ms", med("artifact.deploy") - med("artifact.decode"), "ms")
            .note("deploy_from_artifact - decode"),
        Metric::new("mcusim.latency_ms", modelled.as_secs_f64() * 1e3, "ms-modelled")
            .note("STM32H743, deterministic"),
    ]);
    tr.absorb(own);
    Ok(Probe { metrics, tally, session_ms })
}
