use quantmcu_tensor::Shape;

/// Configuration shared by every zoo model: input resolution, width
/// multiplier and classifier width.
///
/// The paper adjusts "the width multiplier and resolution of the model ...
/// to fit MCU memory" (Table I caption); [`ModelConfig`] makes that an
/// explicit, reproducible knob.
///
/// # Example
///
/// ```
/// use quantmcu_models::ModelConfig;
///
/// let cfg = ModelConfig::new(96, 0.35, 100);
/// assert_eq!(cfg.scale_ch(32), 16); // 32 * 0.35 = 11.2 → rounded up to /8
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Square input resolution (pixels per side).
    pub resolution: usize,
    /// Channel width multiplier (1.0 = the architecture's published width).
    pub width_mult: f32,
    /// Number of output classes.
    pub classes: usize,
}

impl ModelConfig {
    /// Creates a configuration.
    pub fn new(resolution: usize, width_mult: f32, classes: usize) -> Self {
        ModelConfig { resolution, width_mult, classes }
    }

    /// The full-size ImageNet configuration used in Table II (224×224,
    /// width 1.0, 1000 classes).
    pub fn paper_scale() -> Self {
        ModelConfig::new(224, 1.0, 1000)
    }

    /// A laptop-runnable configuration exercising identical code paths
    /// (32×32, width 0.5, 10 classes). Numeric experiments (entropy,
    /// VDPC, agreement accuracy) run at this scale.
    /// Width 0.5 (not 0.25) keeps the stem→first-block channel change of
    /// the full architectures, so the straight-chain patch prefix survives
    /// scaling.
    pub fn exec_scale() -> Self {
        ModelConfig::new(32, 0.5, 10)
    }

    /// The RGB input shape at this resolution.
    pub fn input_shape(&self) -> Shape {
        Shape::hwc(self.resolution, self.resolution, 3)
    }

    /// Applies the width multiplier to a channel count, rounding to a
    /// multiple of 8 (the divisor MobileNet-family implementations use so
    /// SIMD kernels stay aligned), never below 8.
    pub fn scale_ch(&self, channels: usize) -> usize {
        let scaled = (channels as f32 * self.width_mult).round() as usize;
        (scaled.div_ceil(8) * 8).max(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_rounds_to_multiple_of_8() {
        let cfg = ModelConfig::new(224, 1.0, 1000);
        assert_eq!(cfg.scale_ch(32), 32);
        let half = ModelConfig::new(224, 0.5, 1000);
        assert_eq!(half.scale_ch(32), 16);
        assert_eq!(half.scale_ch(24), 16);
        let tiny = ModelConfig::new(224, 0.1, 1000);
        assert_eq!(tiny.scale_ch(16), 8); // floor of 8
    }

    #[test]
    fn input_shape_is_rgb() {
        assert_eq!(ModelConfig::exec_scale().input_shape(), Shape::hwc(32, 32, 3));
    }
}
