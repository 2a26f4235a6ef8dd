use crate::bitwidth::Bitwidth;
use crate::error::TensorError;
use crate::tensor::Tensor;

/// Affine (asymmetric) quantization parameters for one tensor:
/// `real = scale * (q - zero_point)`.
///
/// This is the per-tensor scheme used by TFLite for activations. The scheme
/// supports any [`Bitwidth`] from 2 to 8 bits; quantized values are clamped
/// to the bitwidth's signed range.
///
/// # Example
///
/// ```
/// use quantmcu_tensor::{Bitwidth, QuantParams};
///
/// let p = QuantParams::from_min_max(-1.0, 1.0, Bitwidth::W8)?;
/// let q = p.quantize(0.5);
/// assert!((p.dequantize(q) - 0.5).abs() < p.scale());
/// # Ok::<(), quantmcu_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
    bitwidth: Bitwidth,
}

impl QuantParams {
    /// Builds parameters covering the real range `[min, max]`.
    ///
    /// The range is widened to include zero (a TFLite requirement so that
    /// padding quantizes exactly), and degenerate ranges are expanded to a
    /// tiny non-zero width.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidScale`] if `min`/`max` are non-finite.
    pub fn from_min_max(min: f32, max: f32, bitwidth: Bitwidth) -> Result<Self, TensorError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(TensorError::InvalidScale(f32::NAN));
        }
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min).max(1e-8);
        let qmin = bitwidth.min_value() as f32;
        let qmax = bitwidth.max_value() as f32;
        let scale = span / (qmax - qmin);
        let zero_point = (qmin - min / scale).round().clamp(qmin, qmax) as i32;
        Ok(QuantParams { scale, zero_point, bitwidth })
    }

    /// Builds parameters from a tensor's observed min/max.
    ///
    /// Empty tensors get a unit range.
    pub fn from_tensor(t: &Tensor, bitwidth: Bitwidth) -> Self {
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in t.data() {
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() || !max.is_finite() {
            min = 0.0;
            max = 1.0;
        }
        // min/max are finite here, so from_min_max cannot fail.
        QuantParams::from_min_max(min, max, bitwidth).expect("finite range")
    }

    /// Builds parameters from a clipped range `[-clip, clip]`, the form used
    /// by PACT-style quantizers.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidScale`] when `clip` is not a positive
    /// finite number.
    pub fn symmetric(clip: f32, bitwidth: Bitwidth) -> Result<Self, TensorError> {
        if !clip.is_finite() || clip <= 0.0 {
            return Err(TensorError::InvalidScale(clip));
        }
        QuantParams::from_min_max(-clip, clip, bitwidth)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The integer value that represents real 0.0.
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// The bitwidth values are clamped to.
    pub fn bitwidth(&self) -> Bitwidth {
        self.bitwidth
    }

    /// Quantizes one real value to the clamped integer grid.
    #[inline]
    pub fn quantize(&self, v: f32) -> i32 {
        let q = (v / self.scale).round() as i32 + self.zero_point;
        q.clamp(self.bitwidth.min_value(), self.bitwidth.max_value())
    }

    /// Recovers the real value of a quantized integer.
    #[inline]
    pub fn dequantize(&self, q: i32) -> f32 {
        self.scale * (q - self.zero_point) as f32
    }

    /// Quantize-dequantize in the real domain ("fake quantization").
    ///
    /// This is how the entropy estimator and the accuracy-agreement
    /// experiments observe the information loss of a bitwidth without
    /// running integer kernels.
    pub fn fake_quantize_tensor(&self, t: &Tensor) -> Tensor {
        t.map(|v| self.dequantize(self.quantize(v)))
    }
}

/// Per-channel symmetric quantization parameters for convolution weights
/// (one scale per output channel), matching the scheme of Rusci et al. and
/// TFLite per-channel conv.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQuantParams {
    scales: Vec<f32>,
    bitwidth: Bitwidth,
}

impl ChannelQuantParams {
    /// Fits one symmetric scale per output channel.
    ///
    /// `weights` must be laid out `[out_ch, ...]` with `per_channel` values
    /// for each of the `channels` output channels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `weights.len()` is not
    /// `channels * per_channel`.
    pub fn fit(
        weights: &[f32],
        channels: usize,
        per_channel: usize,
        bitwidth: Bitwidth,
    ) -> Result<Self, TensorError> {
        if weights.len() != channels * per_channel {
            return Err(TensorError::ShapeMismatch {
                expected: channels * per_channel,
                actual: weights.len(),
            });
        }
        let qmax = bitwidth.max_value() as f32;
        let scales = (0..channels)
            .map(|ch| {
                let slice = &weights[ch * per_channel..(ch + 1) * per_channel];
                let absmax = slice.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-8);
                absmax / qmax
            })
            .collect();
        Ok(ChannelQuantParams { scales, bitwidth })
    }

    /// Scale for output channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics when `ch` is out of range.
    pub fn scale(&self, ch: usize) -> f32 {
        self.scales[ch]
    }

    /// Number of channels fitted.
    pub fn channels(&self) -> usize {
        self.scales.len()
    }

    /// The weight bitwidth.
    pub fn bitwidth(&self) -> Bitwidth {
        self.bitwidth
    }

    /// Quantizes the weight value `v` belonging to channel `ch`.
    #[inline]
    pub fn quantize(&self, ch: usize, v: f32) -> i32 {
        let q = (v / self.scales[ch]).round() as i32;
        q.clamp(self.bitwidth.min_value(), self.bitwidth.max_value())
    }

    /// Dequantizes the integer `q` belonging to channel `ch`.
    #[inline]
    pub fn dequantize(&self, ch: usize, q: i32) -> f32 {
        self.scales[ch] * q as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn roundtrip_error_bounded_by_scale() {
        let p = QuantParams::from_min_max(-3.0, 5.0, Bitwidth::W8).unwrap();
        for v in [-3.0, -1.2, 0.0, 0.7, 4.99, 5.0] {
            let err = (p.dequantize(p.quantize(v)) - v).abs();
            assert!(err <= p.scale() * 0.5 + 1e-6, "v={v} err={err}");
        }
    }

    #[test]
    fn zero_quantizes_near_exactly() {
        for b in Bitwidth::SEARCH_CANDIDATES {
            let p = QuantParams::from_min_max(-1.0, 7.0, b).unwrap();
            assert!(p.dequantize(p.quantize(0.0)).abs() < p.scale() * 0.51);
        }
    }

    #[test]
    fn values_clamp_to_bitwidth_range() {
        let p = QuantParams::from_min_max(-1.0, 1.0, Bitwidth::W2).unwrap();
        assert!(p.quantize(100.0) <= Bitwidth::W2.max_value());
        assert!(p.quantize(-100.0) >= Bitwidth::W2.min_value());
    }

    #[test]
    fn lower_bitwidth_has_coarser_scale() {
        let p8 = QuantParams::from_min_max(-1.0, 1.0, Bitwidth::W8).unwrap();
        let p4 = QuantParams::from_min_max(-1.0, 1.0, Bitwidth::W4).unwrap();
        let p2 = QuantParams::from_min_max(-1.0, 1.0, Bitwidth::W2).unwrap();
        assert!(p2.scale() > p4.scale());
        assert!(p4.scale() > p8.scale());
    }

    #[test]
    fn degenerate_range_is_widened() {
        let p = QuantParams::from_min_max(2.0, 2.0, Bitwidth::W8).unwrap();
        assert!(p.scale() > 0.0);
        // Range must include zero.
        assert!(p.dequantize(p.quantize(0.0)).abs() < p.scale());
    }

    #[test]
    fn non_finite_range_is_rejected() {
        assert!(QuantParams::from_min_max(f32::NAN, 1.0, Bitwidth::W8).is_err());
        assert!(QuantParams::symmetric(0.0, Bitwidth::W4).is_err());
        assert!(QuantParams::symmetric(-1.0, Bitwidth::W4).is_err());
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let t = Tensor::from_fn(Shape::hwc(4, 4, 2), |i| (i as f32 * 0.37).sin());
        let p = QuantParams::from_tensor(&t, Bitwidth::W4);
        let once = p.fake_quantize_tensor(&t);
        let twice = p.fake_quantize_tensor(&once);
        assert!(once.mean_abs_diff(&twice) < 1e-6);
    }

    #[test]
    fn per_channel_fits_each_channel() {
        // Channel 0 small weights, channel 1 large weights.
        let w = vec![0.1, -0.05, 0.08, 0.02, 10.0, -8.0, 6.0, -2.0];
        let p = ChannelQuantParams::fit(&w, 2, 4, Bitwidth::W8).unwrap();
        assert!(p.scale(1) > p.scale(0) * 50.0);
        // Roundtrip error bounded by each channel's scale.
        for (i, &v) in w.iter().enumerate() {
            let ch = i / 4;
            let err = (p.dequantize(ch, p.quantize(ch, v)) - v).abs();
            assert!(err <= p.scale(ch) * 0.5 + 1e-6);
        }
    }

    #[test]
    fn per_channel_rejects_bad_layout() {
        assert!(ChannelQuantParams::fit(&[0.0; 7], 2, 4, Bitwidth::W8).is_err());
    }
}
