//! Determinism of the parallel planner: `Planner::plan` (and
//! `plan_uniform`) must produce a **bit-identical** `DeploymentPlan` for
//! every worker count. The parallel calibration prologue folds the head
//! maps' ranges per chunk and merges the folds in image order, the head
//! entropy pass adds per-chunk counts (exact integers), and the tail maps
//! keep one value buffer per chunk, read as their concatenation, so
//! nothing downstream — VDPC classification, entropy tables, the VDQS
//! searches, the calibrated ranges — can observe which worker count
//! produced its inputs.

use quantmcu::models::Model;
use quantmcu::tensor::{Bitwidth, Shape, Tensor};
use quantmcu::{Planner, QuantMcuConfig};

fn graph() -> quantmcu::nn::Graph {
    let spec = quantmcu::nn::GraphSpecBuilder::new(Shape::hwc(16, 16, 3))
        .conv2d(8, 3, 2, 1)
        .relu6()
        .dwconv(3, 1, 1)
        .relu6()
        .pwconv(16)
        .relu6()
        .conv2d(24, 3, 2, 1)
        .relu6()
        .global_avg_pool()
        .dense(10)
        .build()
        .unwrap();
    quantmcu::nn::init::with_structured_weights(spec, 13)
}

fn calib(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| {
            Tensor::from_fn(Shape::hwc(16, 16, 3), |i| {
                let base = ((i + 311 * s) as f32 * 0.23).sin() * 0.5;
                let (y, x) = ((i / 3) / 16, (i / 3) % 16);
                if s % 2 == 0 && y < 4 && x < 4 {
                    base + 8.0
                } else {
                    base
                }
            })
        })
        .collect()
}

fn planner(workers: usize) -> Planner {
    Planner::new(QuantMcuConfig { workers, ..QuantMcuConfig::paper() })
}

#[test]
fn parallel_plan_is_bit_identical_to_serial_for_any_worker_count() {
    let g = graph();
    let images = calib(7);
    let serial = planner(1).plan(&g, &images, 256 * 1024).unwrap().timeless();
    for workers in [2, 3, 4, 7, 16] {
        let parallel = planner(workers).plan(&g, &images, 256 * 1024).unwrap().timeless();
        assert_eq!(serial, parallel, "worker count {workers} changed the plan");
    }
}

#[test]
fn mixed_class_plans_are_bit_identical_across_worker_counts() {
    // The bright blob makes some branches outlier-class (pinned to 8 bits,
    // no entropy rows) while the rest are searched on rows from the
    // streamed head pass: both kinds of head target in one plan.
    let g = graph();
    let images = calib(6);
    let serial = planner(1).plan(&g, &images, 256 * 1024).unwrap().timeless();
    let outliers = serial.outlier_patch_count();
    let branches = serial.patch_classes().len();
    assert!(0 < outliers && outliers < branches, "{outliers} of {branches} branches are outliers");
    for workers in [2, 4] {
        let parallel = planner(workers).plan(&g, &images, 256 * 1024).unwrap().timeless();
        assert_eq!(serial, parallel, "worker count {workers} changed the mixed-class plan");
    }
}

#[test]
fn parallel_plan_uniform_is_bit_identical_to_serial() {
    let g = graph();
    let images = calib(6);
    let serial = planner(1).plan_uniform(&g, &images, Bitwidth::W8, 256 * 1024).unwrap().timeless();
    for workers in [2, 4, 6] {
        let parallel = planner(workers)
            .plan_uniform(&g, &images, Bitwidth::W8, 256 * 1024)
            .unwrap()
            .timeless();
        assert_eq!(serial, parallel, "worker count {workers} changed the uniform plan");
    }
}

#[test]
fn ranges_and_classes_survive_odd_chunkings() {
    // Worker counts that do not divide the calibration set exercise the
    // ragged-final-chunk path of the chunked prologue.
    let g = graph();
    let images = calib(5);
    let serial = planner(1).plan(&g, &images, 256 * 1024).unwrap().timeless();
    for workers in [2, 3, 4] {
        let parallel = planner(workers).plan(&g, &images, 256 * 1024).unwrap().timeless();
        assert_eq!(serial.branch_ranges(), parallel.branch_ranges());
        assert_eq!(serial.patch_classes(), parallel.patch_classes());
        assert_eq!(serial.branch_bits(), parallel.branch_bits());
        assert_eq!(serial.tail_bits(), parallel.tail_bits());
    }
}

#[test]
fn exec_scale_ranges_are_bit_identical_across_worker_counts() {
    // MobileNetV2's exec-scale tail maps over 32 images are long enough
    // that the percentile clip subsamples with a stride above 1, across
    // chunk boundaries — a path the 16x16 graph above never reaches.
    let g = quantmcu_integration::graph(Model::MobileNetV2);
    let images = quantmcu_integration::calib(32);
    let bits = |ranges: &[(f32, f32)]| -> Vec<(u32, u32)> {
        ranges.iter().map(|(lo, hi)| (lo.to_bits(), hi.to_bits())).collect()
    };
    let serial = planner(1).plan(&g, &images, 16 * 1024).unwrap().timeless();
    for workers in [2, 3] {
        let parallel = planner(workers).plan(&g, &images, 16 * 1024).unwrap().timeless();
        for (b, (s, p)) in serial.branch_ranges().iter().zip(parallel.branch_ranges()).enumerate() {
            assert_eq!(bits(s), bits(p), "{workers} workers moved branch {b}'s ranges");
        }
        assert_eq!(
            bits(serial.tail_ranges()),
            bits(parallel.tail_ranges()),
            "{workers} workers moved the tail ranges"
        );
        assert_eq!(serial, parallel, "worker count {workers} changed the plan");
    }
}

#[test]
fn the_planner_stores_only_the_underived_tail_maps_values() {
    // MobileNetV2 at exec scale on 32 images under 16 KiB: 101,050 tail
    // values per image, of which the 46,816 of maps a ReLU6 computes from
    // a stored map are read through it instead of stored: 54,234 stored
    // values per image, 4 B each. Head maps keep no values, whether every
    // branch is outlier-class (this calibration set) or every branch is
    // searched (VDPC off, so every head target gets an entropy row).
    let g = quantmcu_integration::graph(Model::MobileNetV2);
    let images = quantmcu::data::classification::ClassificationDataset::new(32, 10, 7).images(32);
    for cfg in [QuantMcuConfig::paper(), QuantMcuConfig::without_vdpc()] {
        let searched = !cfg.enable_vdpc;
        let (plan, stats) = Planner::new(cfg).plan_with_stats(&g, &images, 16 * 1024).unwrap();
        let expected = if searched { 0 } else { plan.patch_classes().len() };
        assert_eq!(plan.outlier_patch_count(), expected, "searched: {searched}");
        assert_eq!(stats.sample_bytes, 6_941_952, "searched: {searched}");
    }
}
