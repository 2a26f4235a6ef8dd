//! The repository benchmark. Runs one named workload against the public
//! QuantMCU API, checks every output, and prints its metrics; the last
//! stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_closed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! workload untraced and then traced, reports the per-layer metrics and
//! the tracing overhead, and writes the spans to `perfbench/out/`. See
//! `README.md` for every metric and the end-to-end metric each per-layer
//! metric is expected to move.

mod fixture;
mod layers;
mod plan_eval;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use quantmcu::data::metrics::agreement_top1;
use quantmcu::nn::kernels::GENERATION;
use quantmcu::{DeploymentPlan, Engine, Error, Server};

use fixture::{Inputs, ServeFixture, MAX_BATCH, SETUP_REPS, WORKERS};
use report::{peak_rss_mib, result_json, row, Metric, Tally};
use serve::{Phase, Requests, ServeRun};
use stats::{level_label, Samples};
use trace::{by_name, NoTrace, Trace, Tracer};

const USAGE: &str = "usage: perfbench --workload <serve_closed|serve_open|plan_eval|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The named workloads, in report order.
const WORKLOADS: [&str; 3] = ["serve_closed", "serve_open", "plan_eval"];

/// Seconds of closed-loop serving in `plan_eval`'s traced run, which has
/// no server of its own to take the `serve.*` metrics from.
const SERVE_PROBE_SECONDS: f64 = 2.0;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// Length of one pass. The traced run splits its window between the
    /// untraced and the traced pass, so it takes about as long as an
    /// untraced run plus the per-layer probe.
    fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed: seed.ok_or("missing --seed")?, seconds: f64::from(seconds), trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut checks_passed = true;
    for name in &names {
        match run_workload(name, &args) {
            Ok(result) => {
                tally.absorb(result.tally);
                checks_passed &= result.checks_passed;
                let prefix = if names.len() > 1 { format!("{name}/") } else { String::new() };
                metrics.extend(result.metrics.into_iter().map(|mut m| {
                    m.name = format!("{prefix}{}", m.name);
                    m
                }));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_json(&tally, checks_passed, &metrics));
    ExitCode::SUCCESS
}

/// One workload's contribution to the result line.
struct WorkloadResult {
    tally: Tally,
    checks_passed: bool,
    /// End-to-end metrics untraced, per-layer metrics traced.
    metrics: Vec<Metric>,
}

/// The numbers one untraced or traced pass of a workload produced.
struct Pass {
    tally: Tally,
    /// The `BENCHMARK.json` end-to-end metrics.
    end_to_end: Vec<Metric>,
    /// The workload's own headline metrics.
    headline: Vec<Metric>,
    /// Extra report lines (open-loop phases).
    details: Vec<String>,
    /// Queue depth samples (serve workloads, traced pass only).
    depth: Samples,
    /// Median latency, the serving overhead is computed from.
    latency_p50_ms: f64,
}

fn print_block(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("{}", row(m));
    }
}

fn run_workload(name: &str, args: &Args) -> Result<WorkloadResult, Error> {
    println!(
        "# perfbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host_parallelism={} kernels={GENERATION} model=MobileNetV2/exec-scale sram_budget={}B \
         server_workers={WORKERS} max_batch={MAX_BATCH} setup_reps={SETUP_REPS}",
        quantmcu::default_workers(),
        quantmcu_bench::EXEC_SRAM,
    );
    let inputs = Inputs::from_seed(args.seed);
    let mut tracer = Tracer::new(Instant::now());
    let run = match name {
        "plan_eval" => PlanEvalWorkload::prepare(&inputs)?.run(args, &mut tracer)?,
        _ => ServeWorkload::prepare(name, &inputs)?.run(args, &mut tracer)?,
    };
    let Run { untraced, traced } = run;

    let mut tally = untraced.tally;
    let mut checks_passed = untraced.end_to_end.iter().all(|m| m.value.is_finite());
    print_block("end-to-end (untraced):", &untraced.headline);
    for line in &untraced.details {
        println!("{line}");
    }
    print_block("result metrics (untraced):", &untraced.end_to_end);
    let metrics = match traced {
        None => untraced.end_to_end,
        Some(Traced { pass: traced, layers, tally: probe_tally }) => {
            tally.absorb(traced.tally);
            tally.absorb(probe_tally);
            print_block("end-to-end (traced):", &traced.headline);
            println!("tracing overhead (traced - untraced):");
            for (t, u) in traced.end_to_end.iter().zip(&untraced.end_to_end) {
                println!("  {:<32} {:>+14.4} {}", t.name, t.value - u.value, t.unit);
            }
            let spans = tracer.into_spans();
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{name}-seed{}.tsv", args.seed));
            match trace::write_tsv(&path, &spans) {
                Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
                Err(e) => {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                    checks_passed = false;
                }
            }
            print_span_table(&spans);
            let overhead =
                (traced.latency_p50_ms - untraced.latency_p50_ms) / untraced.latency_p50_ms * 100.0;
            let mut metrics = layers;
            metrics.push(Metric::new("trace.spans", spans.len() as f64, "count"));
            metrics.push(
                Metric::new("trace.overhead_pct", overhead, "%")
                    .note("latency_p50_ms traced vs untraced"),
            );
            print_block("per-layer (traced):", &metrics);
            metrics
        }
    };
    println!(
        "error_rate {} ({} failed of {} attempted: {} errors, {} rejected, {} mismatched)",
        tally.error_rate(),
        tally.failed(),
        tally.attempted,
        tally.errors,
        tally.rejected,
        tally.mismatched
    );
    checks_passed &= metrics.iter().all(|m| m.value.is_finite());
    Ok(WorkloadResult { tally, checks_passed, metrics })
}

/// Span names by total time, with self time: where the traced run went.
fn print_span_table(spans: &[trace::Span]) {
    let mut rows: Vec<_> = by_name(spans).into_iter().collect();
    rows.sort_by(|a, b| {
        let sum = |s: &trace::NameStats| s.total.values().iter().sum::<f64>();
        sum(&b.1).total_cmp(&sum(&a.1))
    });
    println!("spans by total time:");
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>12}",
        "name", "count", "total_ms", "self_ms", "p50_ms"
    );
    for (name, s) in rows {
        println!(
            "  {:<28} {:>8} {:>12.2} {:>12.2} {:>12.4}",
            name,
            s.total.len(),
            s.total.values().iter().sum::<f64>(),
            s.own.values().iter().sum::<f64>(),
            s.total.median().unwrap_or(f64::NAN)
        );
    }
}

/// What a workload's run returns.
struct Run {
    untraced: Pass,
    /// Only in the traced run.
    traced: Option<Traced>,
}

/// The traced run's extra results.
struct Traced {
    pass: Pass,
    /// Per-layer metrics.
    layers: Vec<Metric>,
    /// Checks made by the per-layer and serve probes.
    tally: Tally,
}

fn plan_quality(plan: &DeploymentPlan) -> Result<[Metric; 2], Error> {
    Ok([
        Metric::new("plan_mbitops", plan.bitops() as f64 / 1e6, "MBitOPs"),
        Metric::new("plan_peak_sram_kib", plan.peak_memory_bytes()? as f64 / 1024.0, "KiB"),
    ])
}

fn rss_metric() -> Metric {
    Metric::new("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB").note("VmHWM")
}

fn setup_metric(setup_s: &Samples) -> Metric {
    Metric::new("setup_s", setup_s.median().unwrap_or(f64::NAN), "s")
        .note(format!("median of {}", setup_s.len()))
}

/// A percentile in milliseconds, noting its sample count and how many
/// samples lie beyond it.
fn percentile(name: impl Into<String>, samples: &Samples, q: f64) -> Metric {
    Metric::new(name, samples.quantile(q).unwrap_or(f64::NAN), "ms").note(format!(
        "{} n={} beyond={}",
        level_label(q),
        samples.len(),
        samples.beyond(q)
    ))
}

/// The result-line metrics, in `BENCHMARK.json` order.
fn end_to_end(
    throughput: Metric,
    latency: &Samples,
    setup_s: &Samples,
    top1: f64,
    quality: &[Metric; 2],
) -> Vec<Metric> {
    vec![
        throughput,
        percentile("latency_p50_ms", latency, 0.5),
        setup_metric(setup_s),
        rss_metric(),
        Metric::new("top1_agreement", top1, "fraction"),
        quality[0].clone(),
        quality[1].clone(),
    ]
}

/// The `serve_closed` and `serve_open` workloads.
struct ServeWorkload<'a> {
    /// `serve_open` when set, `serve_closed` otherwise.
    open: bool,
    inputs: &'a Inputs,
    fixture: ServeFixture,
}

impl<'a> ServeWorkload<'a> {
    fn prepare(name: &str, inputs: &'a Inputs) -> Result<Self, Error> {
        let open = name == "serve_open";
        Ok(ServeWorkload { open, inputs, fixture: ServeFixture::prepare(inputs)? })
    }

    fn run(&self, args: &Args, tracer: &mut Tracer) -> Result<Run, Error> {
        let (server, engine, setup_s) = if args.trace {
            setup(&self.fixture, self.inputs, tracer)?
        } else {
            setup(&self.fixture, self.inputs, &mut NoTrace)?
        };
        let deployment = Arc::clone(server.deployment());
        let reference = fixture::serial_outputs(&deployment, &self.inputs.pool)?;
        let float = fixture::float_outputs(&engine, &self.inputs.pool)?;
        let top1 = agreement_top1(&float, &reference);
        let quality = plan_quality(deployment.plan())?;
        let requests = Requests { pool: &self.inputs.pool, reference: &reference };
        let untraced = self.pass(
            &server,
            requests,
            args.pass_seconds(),
            &setup_s,
            top1,
            &quality,
            &mut NoTrace,
        );
        if !args.trace {
            return Ok(Run { untraced, traced: None });
        }
        let traced =
            self.pass(&server, requests, args.pass_seconds(), &setup_s, top1, &quality, tracer);
        let stats = server.shutdown();
        let probe = layers::probe(
            layers::Subject {
                engine: &engine,
                deployment: &deployment,
                model: &self.fixture.model,
                artifact: &self.fixture.artifact,
                inputs: self.inputs,
            },
            tracer,
        )?;
        let mut metrics = serve_layer_metrics(
            tracer,
            &traced.depth,
            &stats,
            untraced.latency_p50_ms - probe.session_ms,
        );
        metrics.extend(probe.metrics);
        let traced = Traced { pass: traced, layers: metrics, tally: probe.tally };
        Ok(Run { untraced, traced: Some(traced) })
    }

    #[allow(clippy::too_many_arguments)]
    fn pass<T: Trace + Send>(
        &self,
        server: &Server,
        requests: Requests<'_>,
        seconds: f64,
        setup_s: &Samples,
        top1: f64,
        quality: &[Metric; 2],
        trace: &mut T,
    ) -> Pass {
        let warm = serve::warm_up(server, requests);
        let mut run: ServeRun = if self.open {
            let phases = [
                Phase { name: "r200", rate: 200.0, seconds: seconds / 2.0 },
                Phase { name: "r400", rate: 400.0, seconds: seconds / 2.0 },
            ];
            serve::open_loop(server, requests, &phases, trace)
        } else {
            serve::closed_loop(server, requests, seconds, trace)
        };
        run.tally.absorb(warm);
        let n = run.latency_ms.len();
        let throughput =
            Metric::new("throughput_img_s", run.throughput_img_s, "img/s").note(format!("n={n}"));
        let mut headline = Vec::new();
        let mut details = Vec::new();
        if run.phases.is_empty() {
            headline.push(throughput.clone());
            headline.push(percentile("latency_p50_ms", &run.latency_ms, 0.5));
            headline.push(percentile("latency_p99_ms", &run.latency_ms, 0.99));
        }
        for p in &run.phases {
            let tag = p.phase.name;
            headline.push(percentile(format!("open_p50_ms.{tag}"), &p.latency_ms, 0.5));
            headline.push(percentile(format!("open_p99_ms.{tag}"), &p.latency_ms, 0.99));
            details.push(format!(
                "  phase {tag}: rate {} img/s for {:.1} s; sent {} ok {} failed {}; generator lag p50 \
                 {:.3} ms p99 {:.3} ms max {:.3} ms; queue depth at phase end {}",
                p.phase.rate,
                p.phase.seconds,
                p.sent,
                p.ok,
                p.failed,
                p.lag_ms.median().unwrap_or(f64::NAN),
                p.lag_ms.quantile(0.99).unwrap_or(f64::NAN),
                p.lag_ms.max().unwrap_or(f64::NAN),
                p.end_depth,
            ));
        }
        headline.push(setup_metric(setup_s));
        headline.push(Metric::new("error_rate", run.tally.error_rate(), "fraction"));
        headline.push(rss_metric());
        let latency_p50_ms = run.latency_ms.median().unwrap_or(f64::NAN);
        Pass {
            tally: run.tally,
            end_to_end: end_to_end(throughput, &run.latency_ms, setup_s, top1, quality),
            headline,
            details,
            depth: run.depth,
            latency_p50_ms,
        }
    }
}

/// `SETUP_REPS` calibration-free cold starts; keeps the last server.
fn setup<T: Trace>(
    fixture: &ServeFixture,
    inputs: &Inputs,
    trace: &mut T,
) -> Result<(Server, Engine, Samples), Error> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Dropping the previous server joins its workers, outside the
        // timed cold start.
        drop(last.take());
        let (server, engine, secs) = fixture.cold_start(&inputs.pool, trace, rep as u64)?;
        times.push(secs);
        last = Some((server, engine));
    }
    let (server, engine) = last.expect("at least one cold start");
    Ok((server, engine, Samples::new(times)))
}

/// The `serve.*` per-layer metrics.
fn serve_layer_metrics(
    tracer: &Tracer,
    depth: &Samples,
    stats: &quantmcu::ServerStats,
    overhead_ms: f64,
) -> Vec<Metric> {
    let named = by_name(tracer.spans());
    let med = |n: &str| named.get(n).and_then(|s| s.total.median()).unwrap_or(f64::NAN);
    let count = |n: &str| named.get(n).map_or(0, |s| s.total.len());
    println!(
        "server stats: accepted {} completed {} failed {} rejected {}",
        stats.accepted, stats.completed, stats.failed, stats.rejected
    );
    vec![
        Metric::new("serve.queue_depth_mean", depth.mean().unwrap_or(f64::NAN), "count")
            .note(format!("n={}", depth.len())),
        Metric::new("serve.queue_depth_max", depth.max().unwrap_or(f64::NAN), "count"),
        Metric::new("serve.accepted", stats.accepted as f64, "count"),
        Metric::new("serve.completed", stats.completed as f64, "count"),
        Metric::new("serve.overhead_ms_p50", overhead_ms, "ms")
            .note("untraced latency p50 - session.run p50"),
        Metric::new("serve.spawn_ms", med("serve.spawn"), "ms")
            .note(format!("n={}", count("serve.spawn"))),
        Metric::new("serve.warmup_ms", med("serve.warmup"), "ms")
            .note(format!("n={}", count("serve.warmup"))),
    ]
}

/// The `plan_eval` workload.
struct PlanEvalWorkload<'a> {
    inputs: &'a Inputs,
    model: Vec<u8>,
}

impl<'a> PlanEvalWorkload<'a> {
    fn prepare(inputs: &'a Inputs) -> Result<Self, Error> {
        Ok(PlanEvalWorkload { inputs, model: fixture::model_bytes() })
    }

    fn run(&self, args: &Args, tracer: &mut Tracer) -> Result<Run, Error> {
        // Set-up: the import plus building the engine.
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut engine = None;
        for rep in 0..SETUP_REPS {
            let start = Instant::now();
            let built = if args.trace {
                trace::step(tracer, "import", None, rep as u64, || fixture::engine(&self.model))
            } else {
                fixture::engine(&self.model)
            }?;
            times.push(start.elapsed().as_secs_f64());
            engine = Some(built);
        }
        let engine = engine.expect("at least one set-up");
        let setup_s = Samples::new(times);
        let inputs = self.inputs;
        let expected = plan_eval::Expected::compute(&engine, &inputs.calibration, &inputs.eval)?;
        let quality = plan_quality(&expected.plan)?;

        let untraced =
            self.pass(&engine, &expected, args.pass_seconds(), &setup_s, &quality, &mut NoTrace);
        if !args.trace {
            return Ok(Run { untraced, traced: None });
        }
        let traced = self.pass(&engine, &expected, args.pass_seconds(), &setup_s, &quality, tracer);

        // No server of its own: serve briefly from the same plan for the
        // serve.* metrics.
        let artifact = fixture::artifact_bytes(&engine, &inputs.calibration)?;
        let serve_fixture = ServeFixture { model: self.model.clone(), artifact };
        let (server, _, _) = setup(&serve_fixture, inputs, tracer)?;
        let deployment = Arc::clone(server.deployment());
        let reference = fixture::serial_outputs(&deployment, &inputs.pool)?;
        let requests = Requests { pool: &inputs.pool, reference: &reference };
        let warm = serve::warm_up(&server, requests);
        let served = serve::closed_loop(&server, requests, SERVE_PROBE_SECONDS, tracer);
        let stats = server.shutdown();
        let probe = layers::probe(
            layers::Subject {
                engine: &engine,
                deployment: &deployment,
                model: &self.model,
                artifact: &serve_fixture.artifact,
                inputs,
            },
            tracer,
        )?;
        let mut metrics = serve_layer_metrics(
            tracer,
            &served.depth,
            &stats,
            served.latency_ms.median().unwrap_or(f64::NAN) - probe.session_ms,
        );
        metrics.extend(probe.metrics);
        let mut tally = probe.tally;
        tally.absorb(served.tally);
        tally.absorb(warm);
        Ok(Run { untraced, traced: Some(Traced { pass: traced, layers: metrics, tally }) })
    }

    fn pass<T: Trace>(
        &self,
        engine: &Engine,
        expected: &plan_eval::Expected,
        seconds: f64,
        setup_s: &Samples,
        quality: &[Metric; 2],
        trace: &mut T,
    ) -> Pass {
        let inputs = self.inputs;
        let run =
            plan_eval::rounds(engine, &inputs.calibration, &inputs.eval, expected, seconds, trace);
        let rounds = run.plan_ms.len();
        let eval = Metric::new("eval_img_s", run.eval_img_s.median().unwrap_or(f64::NAN), "img/s")
            .note(format!("median of {rounds} rounds x {} images", inputs.eval.len()));
        let plan_ms = percentile("plan_ms", &run.plan_ms, 0.5);
        let mut throughput = eval.clone();
        throughput.name = "throughput_img_s".into();
        let top1 = Metric::new("top1_agreement", run.top1_agreement, "fraction")
            .note(format!("{} images vs float", inputs.eval.len()));
        let headline = vec![
            plan_ms.clone(),
            eval,
            top1,
            quality[0].clone(),
            quality[1].clone(),
            setup_metric(setup_s),
            Metric::new("error_rate", run.tally.error_rate(), "fraction"),
            rss_metric(),
        ];
        Pass {
            tally: run.tally,
            end_to_end: end_to_end(throughput, &run.plan_ms, setup_s, run.top1_agreement, quality),
            headline,
            details: Vec::new(),
            depth: Samples::default(),
            latency_p50_ms: plan_ms.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `plan_mbitops`, `plan_peak_sram_kib` and `top1_agreement` for a
    /// seed, as `plan_eval` and the serve workloads derive them.
    fn deterministic_metrics(seed: u64) -> Vec<f64> {
        let inputs = Inputs::from_seed(seed);
        let model = fixture::model_bytes();
        let engine = fixture::engine(&model).expect("import");
        let expected = plan_eval::Expected::compute(&engine, &inputs.calibration, &inputs.eval)
            .expect("plan and evaluate");
        let served = engine
            .deploy_from_artifact(&ServeFixture::prepare(&inputs).expect("artifact").artifact)
            .expect("cold start");
        let quality = plan_quality(&expected.plan).expect("plan quality");
        let served_quality = plan_quality(served.plan()).expect("served plan quality");
        assert_eq!(quality, served_quality, "serve and plan_eval must plan alike");
        let top1 = agreement_top1(&expected.float, &expected.outputs);
        vec![quality[0].value, quality[1].value, top1]
    }

    #[test]
    fn a_seed_repeats_its_deterministic_metrics() {
        let first = deterministic_metrics(2);
        assert_eq!(first, deterministic_metrics(2));
        assert!(first.iter().all(|v| v.is_finite() && *v > 0.0), "{first:?}");
    }

    #[test]
    fn seeds_generate_different_inputs() {
        let (a, b) = (Inputs::from_seed(2), Inputs::from_seed(3));
        assert_eq!(a.pool.len(), fixture::POOL_IMAGES);
        assert_ne!(a.pool[0], b.pool[0]);
        assert_ne!(a.calibration[0], a.eval[0]);
    }
}
