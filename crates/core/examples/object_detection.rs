//! Object detection end to end: build the MobileNetV2-SSD detector, run it
//! on synthetic VOC-style scenes in float and int8, decode boxes, apply
//! NMS and score mAP — the machinery behind Fig. 4b and the Pascal-VOC
//! rows of Table I.
//!
//! ```text
//! cargo run --release -p quantmcu-examples --bin object_detection
//! ```

use quantmcu::data::detection::{decode, nms, DetectionDataset, GroundTruth};
use quantmcu::data::metrics::mean_average_precision;
use quantmcu::models::{detection_head, ModelConfig};
use quantmcu::nn::exec::{calibrate_ranges, CompiledGraph, ExecState, FloatExecutor};
use quantmcu::nn::init;
use quantmcu::tensor::Bitwidth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ModelConfig::new(64, 0.5, 5);
    let (spec, det) = detection_head(cfg, 2)?;
    println!(
        "detector: {} nodes, {}x{} grid, {} anchors, {} boxes/image",
        spec.len(),
        det.grid_h,
        det.grid_w,
        det.anchors,
        det.total_boxes()
    );
    let graph = init::with_structured_weights(spec, 99);
    let dataset = DetectionDataset::new(64, 5, 99);
    let scenes = dataset.batch(12);
    let images: Vec<_> = scenes.iter().map(|s| s.image.clone()).collect();
    let truths: Vec<Vec<GroundTruth>> = scenes.iter().map(|s| s.objects.clone()).collect();

    // Float detections (the untrained detector's boxes are not meaningful
    // against ground truth; what matters is the float-vs-quantized
    // fidelity, measured as cross-mAP below).
    let mut float_exec = FloatExecutor::new(&graph);
    let float_dets: Vec<_> = images
        .iter()
        .map(|img| {
            Ok::<_, quantmcu::nn::GraphError>(nms(decode(&float_exec.run(img)?, &det, 0.3), 0.5))
        })
        .collect::<Result<_, _>>()?;
    let boxes: usize = float_dets.iter().map(Vec::len).sum();
    println!("float model emits {boxes} detections over {} scenes", scenes.len());
    println!(
        "float-vs-ground-truth mAP@0.5 (untrained, expectedly low): {:.3}",
        mean_average_precision(&float_dets, &truths, det.classes, 0.5)
    );

    // Quantized detector fidelity: float detections as pseudo-ground-truth.
    let ranges = calibrate_ranges(&graph, &images[..3])?;
    let pseudo_gt: Vec<Vec<GroundTruth>> = float_dets
        .iter()
        .map(|ds| ds.iter().map(|d| GroundTruth { bbox: d.bbox, class: d.class }).collect())
        .collect();
    for bits in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
        let act = vec![bits; graph.spec().feature_map_count()];
        let compiled = CompiledGraph::with_quantization(&graph, &ranges, &act, Bitwidth::W8)?;
        let mut state = ExecState::new();
        let quant_dets: Vec<_> = images
            .iter()
            .map(|img| {
                let q = compiled.run_quant(&mut state, img)?;
                Ok::<_, quantmcu::nn::GraphError>(nms(decode(&q, &det, 0.3), 0.5))
            })
            .collect::<Result<_, _>>()?;
        println!(
            "{bits} activations: cross-mAP vs float = {:.3}",
            mean_average_precision(&quant_dets, &pseudo_gt, det.classes, 0.5)
        );
    }
    Ok(())
}
