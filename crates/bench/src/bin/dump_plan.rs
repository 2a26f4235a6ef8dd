//! `dump_plan` — export, inspect and verify `.qplan` plan artifacts.
//!
//! The manual-inspection companion to plan-artifact persistence
//! (`quantmcu::artifact`):
//!
//! * `dump_plan export <dir> [seed]` — plan every zoo model at exec
//!   scale (deterministic structured weights + calibration set), deploy,
//!   and save each deployment into `<dir>/<name>.qplan`.
//! * `dump_plan show <file>` — decode an artifact and print its byte
//!   size, header, patch schedule and quantization summary.
//! * `dump_plan verify <file ...>` — decode each artifact, re-encode it,
//!   and check the round trip is byte-identical.
//! * `dump_plan coldstart <file> [seed]` — the calibration-free restore
//!   check: match the artifact's fingerprint against the zoo, restore a
//!   deployment via `Engine::deploy_from_artifact` with **no**
//!   calibration data, and demand outputs bit-identical to a freshly
//!   calibrated deployment (reporting the cold-start speedup).

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use quantmcu::artifact::PlanArtifact;
use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::Graph;
use quantmcu::tensor::Tensor;
use quantmcu::{Engine, SramBudget};
use quantmcu_bench::{calibration, evaluation, exec_dataset, EXEC_SRAM};

/// Default weight seed — matches the integration-test fixtures.
const DEFAULT_SEED: u64 = 77;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "export" && !rest.is_empty() => {
            let seed = match parse_seed(rest.get(1)) {
                Ok(s) => s,
                Err(code) => return code,
            };
            export(Path::new(&rest[0]), seed)
        }
        Some((cmd, [file])) if cmd == "show" => show(file),
        Some((cmd, files)) if cmd == "verify" && !files.is_empty() => verify(files),
        Some((cmd, rest)) if cmd == "coldstart" && !rest.is_empty() => {
            let seed = match parse_seed(rest.get(1)) {
                Ok(s) => s,
                Err(code) => return code,
            };
            coldstart(&rest[0], seed)
        }
        _ => usage("expected a subcommand"),
    }
}

fn parse_seed(arg: Option<&String>) -> Result<u64, ExitCode> {
    match arg.map(|s| s.parse::<u64>()) {
        None => Ok(DEFAULT_SEED),
        Some(Ok(s)) => Ok(s),
        Some(Err(_)) => Err(usage("seed must be an integer")),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("dump_plan: {err}");
    eprintln!(
        "usage: dump_plan export <dir> [seed] | show <file> | verify <file ...> | \
         coldstart <file> [seed]"
    );
    ExitCode::FAILURE
}

/// Exec-scale zoo graph at `seed` — the shared derivation `export` writes
/// with and `coldstart` re-derives to match fingerprints against.
fn zoo_graph(model: Model, seed: u64) -> Result<Graph, quantmcu::nn::GraphError> {
    model.graph(ModelConfig::exec_scale(), seed)
}

fn engine_for(graph: Graph) -> Engine {
    Engine::builder(graph).sram_budget(SramBudget::new(EXEC_SRAM)).build()
}

/// Plans, deploys and saves the whole zoo at exec scale into `dir`.
fn export(dir: &Path, seed: u64) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("dump_plan: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let calib = calibration(&exec_dataset());
    for model in Model::ALL {
        let graph = match zoo_graph(model, seed) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("dump_plan: {model}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let engine = engine_for(graph);
        let start = Instant::now();
        let dep = match engine.plan(calib.clone()).and_then(|p| engine.deploy(p)) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("dump_plan: {model}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let planned = start.elapsed();
        let file = dir.join(format!("{}.qplan", model.name().to_lowercase()));
        if let Err(e) = dep.save_to_path(&file) {
            eprintln!("dump_plan: {e}");
            return ExitCode::FAILURE;
        }
        let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
        println!(
            "exported {:<28} split {:>2} {:>9} byte(s)  planned in {:7.1} ms",
            file.display(),
            dep.plan().patch_plan().split_at(),
            bytes,
            planned.as_secs_f64() * 1e3
        );
    }
    println!("dump_plan: exported {} plan(s) (seed {seed})", Model::ALL.len());
    ExitCode::SUCCESS
}

/// Decodes and prints one artifact's size, header and plan summary.
fn show(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("dump_plan: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let artifact = match PlanArtifact::decode(&bytes) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dump_plan: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = artifact.plan();
    let s = plan.spec().input_shape();
    let pp = plan.patch_plan();
    println!("{path}");
    println!("size         {} byte(s)", bytes.len());
    println!("fingerprint  {:#018x}", artifact.fingerprint());
    println!("input        {}x{}x{} (n={})", s.h, s.w, s.c, s.n);
    println!("nodes        {}", plan.spec().len());
    println!(
        "split        {} ({}x{} grid, {} branches)",
        pp.split_at(),
        pp.rows(),
        pp.cols(),
        pp.branch_count()
    );
    println!("weights      {} bit", plan.weight_bits().bits());
    println!(
        "patches      {} outlier / {} total, mean branch bits {:.2}",
        plan.outlier_patch_count(),
        plan.patch_classes().len(),
        plan.mean_branch_bits()
    );
    println!("tail         {} feature map(s)", plan.tail_bits().len());
    println!("search time  {:.1} ms", plan.search_time().as_secs_f64() * 1e3);
    ExitCode::SUCCESS
}

/// Decodes each artifact and checks the re-encode round trip is
/// byte-identical.
fn verify(files: &[String]) -> ExitCode {
    let mut failures = 0usize;
    for path in files {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                println!("FAIL  {path}: {e}");
                failures += 1;
                continue;
            }
        };
        let artifact = match PlanArtifact::decode(&bytes) {
            Ok(a) => a,
            Err(e) => {
                println!("FAIL  {path}: {e}");
                failures += 1;
                continue;
            }
        };
        let reencoded = artifact.encode();
        if reencoded != bytes {
            println!("FAIL  {path}: re-encode round trip diverged");
            failures += 1;
            continue;
        }
        match PlanArtifact::decode(&reencoded) {
            Ok(back) if back == artifact => {
                println!(
                    "ok    {:<28} {} node(s), {} byte(s)",
                    path,
                    artifact.plan().spec().len(),
                    bytes.len()
                );
            }
            Ok(_) => {
                println!("FAIL  {path}: re-decode diverged");
                failures += 1;
            }
            Err(e) => {
                println!("FAIL  {path}: re-decode rejected: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("dump_plan: {} file(s) verified", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("dump_plan: {failures} failure(s)");
        ExitCode::FAILURE
    }
}

/// Restores a deployment from `path` with no calibration data and checks
/// it is bit-identical to a freshly calibrated one.
fn coldstart(path: &str, seed: u64) -> ExitCode {
    let artifact = match PlanArtifact::decode_from_path(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dump_plan: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Match the artifact against the zoo by fingerprint.
    let matched = Model::ALL.into_iter().find_map(|model| {
        let graph = zoo_graph(model, seed).ok()?;
        (quantmcu::artifact::graph_fingerprint(&graph) == artifact.fingerprint())
            .then_some((model, graph))
    });
    let Some((model, graph)) = matched else {
        eprintln!(
            "dump_plan: {path}: fingerprint {:#018x} matches no zoo model at seed {seed}",
            artifact.fingerprint()
        );
        return ExitCode::FAILURE;
    };
    let engine = engine_for(graph);

    let start = Instant::now();
    let cold = match engine.deploy_from_artifact_path(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("dump_plan: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cold_time = start.elapsed();

    let ds = exec_dataset();
    let start = Instant::now();
    let calibrated = match engine.plan(calibration(&ds)).and_then(|p| engine.deploy(p)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("dump_plan: {model}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm_time = start.elapsed();

    let inputs: Vec<Tensor> = evaluation(&ds);
    let a = calibrated.session().run_batch(&inputs).expect("calibrated outputs");
    let b = cold.session().run_batch(&inputs).expect("cold-start outputs");
    if a != b {
        eprintln!("dump_plan: {path}: cold-start outputs diverged from calibrated deployment");
        return ExitCode::FAILURE;
    }
    println!(
        "ok    {model}: {} input(s) bit-identical; cold start {:.1} ms vs calibrated {:.1} ms ({:.0}x)",
        inputs.len(),
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() / cold_time.as_secs_f64().max(1e-9)
    );
    ExitCode::SUCCESS
}
