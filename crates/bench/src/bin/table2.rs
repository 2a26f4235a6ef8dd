//! Table II — quantization-method comparison on MobileNetV2 (ImageNet
//! proxy): bitwidths, Top-1 (projected), BitOPs, peak memory, search time.
//!
//! Expected shape: QuantMCU's VDQS beats the mixed-precision baselines on
//! accuracy and memory, with a search measured in *seconds* of wall clock
//! where the training-in-the-loop methods cost tens of modeled minutes.
//! HAQ lands above the 8/8 baseline's BitOPs (its reward buys accuracy
//! with computation), matching the paper's 42.8 G row.

use quantmcu::data::accuracy::{PaperAnchors, ProjectedAccuracy};
use quantmcu::data::metrics::agreement_top1;
use quantmcu::mcusim::Device;
use quantmcu::models::Model;
use quantmcu::nn::cost::{self, BitwidthAssignment};
use quantmcu::nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu::nn::Graph;
use quantmcu::quant::baselines::{haq, hawq, pact, rusci, QuantizerOutcome, TimeModel};
use quantmcu::quant::{entropy, score::ScoreTable, vdqs, VdqsConfig};
use quantmcu::tensor::{Bitwidth, Tensor};
use quantmcu_bench::{calibration, evaluation, exec_dataset, exec_graph, header, kb, row};

const WIDTHS: [usize; 6] = [14, 9, 7, 12, 12, 10];

fn main() {
    let graph = std::sync::Arc::new(exec_graph(Model::MobileNetV2));
    let ds = exec_dataset();
    let calib = calibration(&ds);
    let eval = evaluation(&ds);
    let device = Device::nano33_ble_sense();
    let time = TimeModel::paper();

    println!("Table II: quantization methods on MobileNetV2 (ImageNet proxy)\n");
    header(&["Method", "W/A-Bits", "Top-1", "BitOPs (M)", "Memory (KB)", "Time (min)"], &WIDTHS);

    // Baseline 8/8.
    let base_ranges = calibrate_ranges(&graph, &calib).expect("calibrate");
    let base = QuantizerOutcome {
        name: "Baseline",
        weight_bits: Bitwidth::W8,
        assignment: BitwidthAssignment::uniform(graph.spec(), Bitwidth::W8),
        ranges: base_ranges.clone(),
        modeled_search_minutes: 0.0,
        measured_search: std::time::Duration::ZERO,
    };
    report(&graph, &eval, &base, "8/8", None);

    let p = pact::run(&graph, &calib, &time).expect("pact");
    report(&graph, &eval, &p, "4/4", None);

    let r = rusci::run(&graph, &calib, 14 * 1024, device.flash_bytes, &time).expect("rusci");
    report(&graph, &eval, &r, "MP/MP", None);

    let h = haq::run(&graph, &calib, &eval[..4], 7, &time).expect("haq");
    report(&graph, &eval, &h, "MP/MP", None);

    let hw = hawq::run(&graph, &calib, &eval[..4], 0.71, &time).expect("hawq");
    report(&graph, &eval, &hw, "MP/MP", None);

    // QuantMCU: the full method (VDPC + per-branch VDQS in its
    // patch-based deployment) — Table II's row is the method, not bare
    // VDQS, whose unprotected collapse is exactly the Fig. 4 ablation.
    // A bare-VDQS variant is reported on the next line for contrast.
    let plan = quantmcu::Planner::new(quantmcu::QuantMcuConfig::paper())
        .plan(&graph, &calib, quantmcu_bench::EXEC_SRAM)
        .expect("plan");
    let q_time = plan.search_time();
    let q_bitops = plan.bitops();
    let q_mem = plan.peak_memory_bytes().expect("plan memory");
    let fidelity = quantmcu_bench::deployment_fidelity(&graph, plan, &eval).expect("deployment");
    let top1 = ProjectedAccuracy::new(PaperAnchors::imagenet_top1(Model::MobileNetV2), fidelity);
    println!(
        "{}",
        row(
            &[
                "QuantMCU".to_string(),
                "8/MP".to_string(),
                format!("{:.1}%", top1.percent()),
                format!("{:.1}", q_bitops as f64 / 1e6),
                kb(q_mem),
                format!("{:.2}*", q_time.as_secs_f64() / 60.0),
            ],
            &WIDTHS
        )
    );

    // Ablation: VDQS alone on the layer-based deployment (no VDPC).
    let start = std::time::Instant::now();
    let vdqs_outcome = run_vdqs(&graph, &calib, 24 * 1024);
    let measured = start.elapsed();
    let q = QuantizerOutcome {
        name: "VDQS only",
        weight_bits: Bitwidth::W8,
        assignment: vdqs_outcome,
        ranges: base_ranges,
        modeled_search_minutes: measured.as_secs_f64() / 60.0,
        measured_search: measured,
    };
    report(&graph, &eval, &q, "8/MP", Some(measured));
}

/// VDQS over the full layer-based graph (the Table II setting applies the
/// quantizer without patching).
fn run_vdqs(graph: &Graph, calib: &[Tensor], sram: usize) -> BitwidthAssignment {
    let spec = graph.spec();
    let cfg = VdqsConfig::paper();
    let mut exec = FloatExecutor::new(graph);
    let mut fm_values: Vec<Vec<f32>> = vec![Vec::new(); spec.feature_map_count()];
    for input in calib {
        exec.run_with(input, |fm, t| fm_values[fm.0].extend_from_slice(t.data())).expect("trace");
    }
    let et = entropy::build_table(&fm_values, &cfg.candidates, cfg.hist_bins).expect("entropy");
    let reference =
        cost::total_bitops(spec, Bitwidth::W8, &BitwidthAssignment::uniform(spec, Bitwidth::W8));
    let table = ScoreTable::build(
        &et,
        |i, b| cost::bitops_reduction(spec, quantmcu::nn::FeatureMapId(i), b, Bitwidth::W8),
        reference.max(1),
        &cfg,
    )
    .expect("score table");
    let elems: Vec<usize> =
        spec.feature_map_ids().map(|id| spec.feature_map_shape(id).len()).collect();
    let outcome = vdqs::determine_with_elem_counts(&table, &elems, sram).expect("search");
    BitwidthAssignment::from_vec(spec, outcome.bitwidths)
}

fn report(
    graph: &Graph,
    eval: &[Tensor],
    outcome: &QuantizerOutcome,
    bits_label: &str,
    measured: Option<std::time::Duration>,
) {
    let spec = graph.spec();
    let compiled = CompiledGraph::with_quantization(
        graph,
        &outcome.ranges,
        outcome.assignment.as_slice(),
        outcome.weight_bits,
    )
    .expect("executor");
    let mut state = ExecState::new();
    let mut float_exec = FloatExecutor::new(graph);
    let float: Vec<Tensor> = eval.iter().map(|t| float_exec.run(t).expect("float")).collect();
    let quant: Vec<Tensor> =
        eval.iter().map(|t| compiled.run_quant(&mut state, t).expect("quant")).collect();
    let fidelity = agreement_top1(&float, &quant);
    let top1 = ProjectedAccuracy::new(PaperAnchors::imagenet_top1(Model::MobileNetV2), fidelity);
    let bitops = cost::total_bitops(spec, outcome.weight_bits, &outcome.assignment);
    let memory = cost::peak_activation_bytes(spec, &outcome.assignment);
    let time_label = match measured {
        Some(d) => format!("{:.2}*", d.as_secs_f64() / 60.0),
        None => format!("{:.0}", outcome.modeled_search_minutes),
    };
    println!(
        "{}",
        row(
            &[
                outcome.name.to_string(),
                bits_label.to_string(),
                format!("{:.1}%", top1.percent()),
                format!("{:.1}", bitops as f64 / 1e6),
                kb(memory),
                time_label,
            ],
            &WIDTHS
        )
    );
}
