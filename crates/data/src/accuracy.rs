//! The accuracy projection model.
//!
//! Absolute ImageNet / VOC accuracies are unreachable without the real
//! datasets and trained weights. The reproduction therefore reports
//! accuracy as `projected = paper_float_accuracy × fidelity`, where
//! *fidelity* is measured on the synthetic evaluation set: Top-1 agreement
//! with the float model for classification, cross-mAP (float detections as
//! pseudo-ground-truth) for detection. The ordering and gaps between
//! methods come from real execution of the quantized graphs; only the
//! absolute scale is anchored to the paper.

use quantmcu_models::Model;

/// Published full-precision reference accuracies used as anchors.
///
/// Sources: the paper's Table II (MobileNetV2 8/8 = 71.9% Top-1) and the
/// architectures' commonly reported ImageNet Top-1 / VOC mAP figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperAnchors;

impl PaperAnchors {
    /// ImageNet Top-1 (%) of the float model.
    pub fn imagenet_top1(model: Model) -> f64 {
        match model {
            Model::MobileNetV2 => 71.9, // Table II baseline
            Model::McuNet => 70.7,
            Model::MnasNet => 75.2,
            Model::FbnetA => 73.0,
            Model::OfaCpu => 75.3,
            Model::SqueezeNet => 58.1,
            Model::ResNet18 => 69.8,
            Model::Vgg16 => 71.5,
            Model::InceptionV3 => 77.2,
        }
    }

    /// ImageNet Top-5 (%) of the float model (used by the Fig. 5 sweep).
    pub fn imagenet_top5(model: Model) -> f64 {
        match model {
            Model::MobileNetV2 => 90.3,
            Model::McuNet => 89.3,
            Model::MnasNet => 92.5,
            Model::FbnetA => 90.9,
            Model::OfaCpu => 92.6,
            Model::SqueezeNet => 80.4,
            Model::ResNet18 => 89.1,
            Model::Vgg16 => 90.4,
            Model::InceptionV3 => 93.4,
        }
    }

    /// Pascal VOC mAP (%) of the float detector.
    pub fn voc_map(model: Model) -> f64 {
        match model {
            Model::MobileNetV2 => 68.0,
            Model::McuNet => 64.5,
            Model::MnasNet => 69.0,
            Model::FbnetA => 68.5,
            Model::OfaCpu => 69.5,
            Model::SqueezeNet => 55.0,
            Model::ResNet18 => 67.0,
            Model::Vgg16 => 70.5,
            Model::InceptionV3 => 71.0,
        }
    }
}

/// A projected accuracy: an anchor scaled by measured fidelity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedAccuracy {
    /// The float model's paper-scale accuracy (%).
    pub anchor: f64,
    /// Measured fidelity in `[0, 1]` (agreement or cross-mAP).
    pub fidelity: f64,
}

impl ProjectedAccuracy {
    /// Combines an anchor with a measured fidelity.
    ///
    /// `fidelity` is clamped into `[0, 1]`.
    pub fn new(anchor: f64, fidelity: f64) -> Self {
        ProjectedAccuracy { anchor, fidelity: fidelity.clamp(0.0, 1.0) }
    }

    /// The projected accuracy in percent.
    pub fn percent(&self) -> f64 {
        self.anchor * self.fidelity
    }

    /// Accuracy loss versus the anchor, in percentage points.
    pub fn loss_points(&self) -> f64 {
        self.anchor - self.percent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_fidelity_recovers_the_anchor() {
        let p = ProjectedAccuracy::new(71.9, 1.0);
        assert_eq!(p.percent(), 71.9);
        assert_eq!(p.loss_points(), 0.0);
    }

    #[test]
    fn fidelity_scales_linearly() {
        let p = ProjectedAccuracy::new(70.0, 0.9);
        assert!((p.percent() - 63.0).abs() < 1e-9);
        assert!((p.loss_points() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fidelity_is_clamped() {
        assert_eq!(ProjectedAccuracy::new(70.0, 1.5).percent(), 70.0);
        assert_eq!(ProjectedAccuracy::new(70.0, -0.3).percent(), 0.0);
    }

    #[test]
    fn anchors_cover_the_zoo() {
        for m in Model::ALL {
            assert!(PaperAnchors::imagenet_top1(m) > 50.0);
            assert!(PaperAnchors::voc_map(m) > 50.0);
        }
        // The Table II anchor is exact.
        assert_eq!(PaperAnchors::imagenet_top1(Model::MobileNetV2), 71.9);
    }
}
