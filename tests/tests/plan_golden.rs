//! Golden plan fingerprints: zoo models planned at exec scale must come out
//! exactly as the committed table says, at every worker count, with VDPC
//! on and off. A fingerprint is the FNV-1a-64 hash of the plan's `Debug`
//! text with its search time stripped, so any change to a range, a
//! bitwidth, a patch class or the patch schedule changes it. Rewrites of
//! the planner's memory handling must leave every entry untouched; a
//! change that means to move plans updates the table and says why.

use quantmcu::models::Model;
use quantmcu::{Planner, QuantMcuConfig};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// (model, VDPC enabled, fingerprint) for 6 calibration images under
/// 16 KiB.
const GOLDEN: [(Model, bool, u64); 6] = [
    (Model::MobileNetV2, true, 0x0c74_72f5_9cf6_4d2b),
    (Model::MobileNetV2, false, 0xdbb9_664a_8150_358b),
    (Model::ResNet18, true, 0x7748_9b31_8145_c570),
    (Model::ResNet18, false, 0xecc8_9ff8_4b02_4660),
    (Model::SqueezeNet, true, 0xa938_d74b_d28c_2147),
    (Model::SqueezeNet, false, 0x5828_d34f_d19e_1bf7),
];

#[test]
fn zoo_plans_match_their_golden_fingerprints() {
    let images = quantmcu_integration::calib(6);
    let mut mismatches = Vec::new();
    for &(model, vdpc, golden) in &GOLDEN {
        let graph = quantmcu_integration::graph(model);
        for workers in [1, 2] {
            let cfg = QuantMcuConfig { workers, enable_vdpc: vdpc, ..QuantMcuConfig::paper() };
            let plan = Planner::new(cfg).plan(&graph, &images, 16 * 1024).unwrap().timeless();
            let got = fnv1a64(format!("{plan:?}").as_bytes());
            if got != golden {
                mismatches.push(format!("({model:?}, {vdpc}, {got:#018x}) at {workers} workers"));
            }
        }
    }
    assert!(mismatches.is_empty(), "plans moved:\n{}", mismatches.join("\n"));
}
