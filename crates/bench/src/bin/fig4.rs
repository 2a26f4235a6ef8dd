//! Fig. 4 — accuracy of MCUNetV2 (8-bit patches), QuantMCU w/o VDPC, and
//! QuantMCU across five networks, projected onto ImageNet Top-1 (4a) and
//! Pascal VOC mAP (4b).
//!
//! Expected shape: QuantMCU ≈ MCUNetV2 (the paper reports <1 point loss),
//! while the w/o-VDPC ablation drops 10-15 points.
//!
//! Fidelity is measured as Top-1 agreement of the deployed (quantized)
//! pipeline against the float model at exec scale; Fig. 4b additionally
//! validates the detection machinery with a real cross-mAP run on the
//! MobileNetV2-backbone SSD detector.

use quantmcu::data::accuracy::{PaperAnchors, ProjectedAccuracy};
use quantmcu::data::detection::{decode, nms, DetectionDataset, GroundTruth};
use quantmcu::data::metrics::mean_average_precision;
use quantmcu::models::{detection_head, Model, ModelConfig};
use quantmcu::nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu::nn::init;
use quantmcu::tensor::Bitwidth;
use quantmcu::{Planner, QuantMcuConfig};
use quantmcu_bench::{
    calibration, deployment_fidelity, evaluation, exec_dataset, exec_graph, header, row, SEED,
};

const WIDTHS: [usize; 4] = [12, 10, 12, 10];

fn main() {
    println!("Fig 4a: Top-1 accuracy on the ImageNet proxy (projected %)\n");
    header(&["Network", "MCUNetV2", "w/o VDPC", "QuantMCU"], &WIDTHS);
    let ds = exec_dataset();
    let calib = calibration(&ds);
    let eval = evaluation(&ds);
    let mut fidelities = Vec::new();
    for model in Model::FIG4 {
        let graph = std::sync::Arc::new(exec_graph(model));
        let planner8 = Planner::new(QuantMcuConfig::paper());
        let f_mcunet = deployment_fidelity(
            &graph,
            planner8
                .plan_uniform(&graph, &calib, Bitwidth::W8, quantmcu_bench::EXEC_SRAM)
                .expect("plan"),
            &eval,
        )
        .expect("run");
        let f_ablate = deployment_fidelity(
            &graph,
            Planner::new(QuantMcuConfig::without_vdpc())
                .plan(&graph, &calib, quantmcu_bench::EXEC_SRAM)
                .expect("plan"),
            &eval,
        )
        .expect("run");
        let f_quantmcu = deployment_fidelity(
            &graph,
            Planner::new(QuantMcuConfig::paper())
                .plan(&graph, &calib, quantmcu_bench::EXEC_SRAM)
                .expect("plan"),
            &eval,
        )
        .expect("run");
        let anchor = PaperAnchors::imagenet_top1(model);
        println!(
            "{}",
            row(
                &[
                    model.name().to_string(),
                    format!("{:.1}", ProjectedAccuracy::new(anchor, f_mcunet).percent()),
                    format!("{:.1}", ProjectedAccuracy::new(anchor, f_ablate).percent()),
                    format!("{:.1}", ProjectedAccuracy::new(anchor, f_quantmcu).percent()),
                ],
                &WIDTHS
            )
        );
        fidelities.push((model, f_mcunet, f_ablate, f_quantmcu));
    }

    println!("\nFig 4b: mAP on the Pascal VOC proxy (projected %, backbone fidelity)\n");
    header(&["Network", "MCUNetV2", "w/o VDPC", "QuantMCU"], &WIDTHS);
    for (model, f_mc, f_ab, f_qm) in &fidelities {
        let anchor = PaperAnchors::voc_map(*model);
        println!(
            "{}",
            row(
                &[
                    model.name().to_string(),
                    format!("{:.1}", ProjectedAccuracy::new(anchor, *f_mc).percent()),
                    format!("{:.1}", ProjectedAccuracy::new(anchor, *f_ab).percent()),
                    format!("{:.1}", ProjectedAccuracy::new(anchor, *f_qm).percent()),
                ],
                &WIDTHS
            )
        );
    }

    println!("\nDetection cross-check: MobileNetV2-SSD cross-mAP (quantized vs float)");
    detection_cross_check();
}

/// Runs the real detection pipeline once: the float detector's decoded
/// detections act as pseudo-ground-truth; the quantized detector's
/// detections are scored against them with mAP@0.5.
fn detection_cross_check() {
    let cfg = ModelConfig::new(64, 0.5, 5);
    let (spec, det) = detection_head(cfg, 2).expect("detector builds");
    let graph = init::with_structured_weights(spec, SEED);
    let ds = DetectionDataset::new(64, 5, SEED);
    let scenes = ds.batch(8);
    let inputs: Vec<_> = scenes.iter().map(|s| s.image.clone()).collect();
    let ranges = calibrate_ranges(&graph, &inputs[..2]).expect("calibrate");
    let mut float_exec = FloatExecutor::new(&graph);

    for bits in [Bitwidth::W8, Bitwidth::W4] {
        let act_bits = vec![bits; graph.spec().feature_map_count()];
        let compiled = CompiledGraph::with_quantization(&graph, &ranges, &act_bits, Bitwidth::W8)
            .expect("exec");
        let mut state = ExecState::new();
        let mut float_dets = Vec::new();
        let mut quant_dets = Vec::new();
        for input in &inputs {
            let f = float_exec.run(input).expect("float");
            let q = compiled.run_quant(&mut state, input).expect("quant");
            float_dets.push(nms(decode(&f, &det, 0.3), 0.5));
            quant_dets.push(nms(decode(&q, &det, 0.3), 0.5));
        }
        // Float detections become pseudo ground truth.
        let pseudo_gt: Vec<Vec<GroundTruth>> = float_dets
            .iter()
            .map(|ds| ds.iter().map(|d| GroundTruth { bbox: d.bbox, class: d.class }).collect())
            .collect();
        let cross = mean_average_precision(&quant_dets, &pseudo_gt, det.classes, 0.5);
        println!("  activations at {bits}: cross-mAP = {:.3}", cross);
    }
}
