//! `dump_model` — export, inspect and verify `.qmcu` model files.
//!
//! The manual-inspection companion to the import front end
//! (`quantmcu::nn::import`):
//!
//! * `dump_model export <dir> [seed]` — serialize every zoo model at
//!   exec scale (deterministic structured weights) into
//!   `<dir>/<name>.qmcu`.
//! * `dump_model show <file>` — decode a model file (without optimizing)
//!   and print its header, its node records and the analyzer's report on
//!   the decoded IR (`lint_model` sees files only after the optimizer has
//!   removed dead nodes; this shows the file as written).
//! * `dump_model verify <file ...>` — import each file through the full
//!   pipeline (decode → optimizer passes → analyzer → lower), re-export
//!   it, and check the round trip reproduces the same graph bit-exactly.
//!   A file whose optimized import costs more MACs
//!   (`quantmcu::nn::cost::total_macs`) than the graph it decodes to
//!   fails: the optimizer must never make a model more expensive.

use std::path::Path;
use std::process::ExitCode;

use quantmcu::models::{Model, ModelConfig};
use quantmcu::nn::analyze::{analyze_ir, AnalyzeOptions, RawInput};
use quantmcu::nn::cost::total_macs;
use quantmcu::nn::import::{
    decode, load_model_unoptimized, load_model_with_stats, save_model, save_model_to_path,
};
use quantmcu::nn::opt::ModelIr;

/// Default weight seed — matches the integration-test fixtures.
const DEFAULT_SEED: u64 = 77;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "export" && !rest.is_empty() => {
            let seed = match rest.get(1).map(|s| s.parse::<u64>()) {
                None => DEFAULT_SEED,
                Some(Ok(s)) => s,
                Some(Err(_)) => return usage("export takes an integer seed"),
            };
            export(Path::new(&rest[0]), seed)
        }
        Some((cmd, [file])) if cmd == "show" => show(file),
        Some((cmd, files)) if cmd == "verify" && !files.is_empty() => verify(files),
        _ => usage("expected a subcommand"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("dump_model: {err}");
    eprintln!("usage: dump_model export <dir> [seed] | show <file> | verify <file ...>");
    ExitCode::FAILURE
}

/// Serializes the whole zoo at exec scale into `dir`.
fn export(dir: &Path, seed: u64) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("dump_model: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for model in Model::ALL {
        let graph = match model.graph(ModelConfig::exec_scale(), seed) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("dump_model: {model}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let file = dir.join(format!("{}.qmcu", model.name().to_lowercase()));
        if let Err(e) = save_model_to_path(&graph, &file) {
            eprintln!("dump_model: {e}");
            return ExitCode::FAILURE;
        }
        let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
        println!(
            "exported {:<24} {:>4} node(s) {:>9} byte(s)",
            file.display(),
            graph.spec().len(),
            bytes
        );
    }
    println!("dump_model: exported {} model(s) (seed {seed})", Model::ALL.len());
    ExitCode::SUCCESS
}

/// Decodes and prints one model file without optimizing it.
fn show(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("dump_model: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ir = match decode(&bytes) {
        Ok(ir) => ir,
        Err(e) => {
            eprintln!("dump_model: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = ir.input_shape;
    println!("{path}: {} byte(s)", bytes.len());
    println!("input  {}x{}x{} (n={})", s.h, s.w, s.c, s.n);
    match ir.output_id() {
        Some(id) => println!("output node {id}"),
        None => println!("output <empty graph>"),
    }
    println!("nodes  {}", ir.nodes.len());
    for n in &ir.nodes {
        let inputs: Vec<String> = n
            .inputs
            .iter()
            .map(|i| match i {
                RawInput::Image => "image".to_string(),
                RawInput::Node(id) => format!("#{id}"),
            })
            .collect();
        println!(
            "  #{:<4} {:<28} <- {:<16} w={} b={}",
            n.id,
            n.op.to_string(),
            inputs.join(", "),
            n.weights.len(),
            n.bias.len()
        );
    }
    println!("analysis (unoptimized): {}", analyze_ir(&ir, &AnalyzeOptions::default()));
    ExitCode::SUCCESS
}

/// Imports each file through the full pipeline and checks the re-export
/// round trip is bit-exact and the optimizer added no MACs.
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
        let (graph, stats) = match load_model_with_stats(&bytes) {
            Ok(v) => v,
            Err(e) => {
                println!("FAIL  {path}: {e}");
                failures += 1;
                continue;
            }
        };
        // The optimizer may only remove work.
        match load_model_unoptimized(&bytes) {
            Ok(decoded) => {
                let (before, after) = (total_macs(decoded.spec()), total_macs(graph.spec()));
                if after > before {
                    println!("FAIL  {path}: optimizer raised MACs {before} -> {after} ({stats})");
                    failures += 1;
                }
            }
            Err(e) => {
                println!("FAIL  {path}: unoptimized import rejected: {e}");
                failures += 1;
            }
        }
        // Re-export the optimized graph and reload: must reproduce the
        // exact same graph (the format is bit-preserving).
        let reexported = save_model(&graph);
        match quantmcu::nn::import::load_model(&reexported) {
            Ok(back) if back == graph => {
                println!("ok    {:<24} {} node(s), optimizer: {}", path, graph.spec().len(), stats);
            }
            Ok(_) => {
                println!("FAIL  {path}: re-export round trip diverged");
                failures += 1;
            }
            Err(e) => {
                println!("FAIL  {path}: re-export rejected: {e}");
                failures += 1;
            }
        }
        // The IR-level round trip must be bit-exact too.
        let ir = ModelIr::from_graph(&graph);
        if decode(&save_model(&graph)) != Ok(ir) {
            println!("FAIL  {path}: IR round trip diverged");
            failures += 1;
        }
    }
    if failures == 0 {
        println!("dump_model: {} file(s) verified", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("dump_model: {failures} failure(s)");
        ExitCode::FAILURE
    }
}
