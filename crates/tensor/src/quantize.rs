use std::fmt;

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

    /// Quantizes one real value to the clamped integer grid: `v / scale`
    /// rounded half away from zero, plus the zero point, clamped to the
    /// bitwidth's range. NaN maps to the zero point; infinities and
    /// quotients beyond `i32` saturate to the nearer end of the range.
    ///
    /// The quotient is clamped to `[qmin − zp, qmax − zp]` *before* the
    /// zero point is added, so no value can overflow. Clamping first gives
    /// the same level as clamping last, because rounding is monotone and
    /// the bounds are integers. Grids up to 16 bits share the branch-free
    /// form of [`QuantParams::quantize_slice`]; 32-bit grids, whose bounds
    /// the `f32` rounding trick cannot represent exactly, round in `f64`.
    #[inline]
    pub fn quantize(&self, v: f32) -> i32 {
        if self.bitwidth == Bitwidth::W32 {
            let (below, above) = self.quotient_bounds_f64();
            let x = (v / self.scale) as f64;
            let x = if x.is_nan() { 0.0 } else { x.clamp(below, above) };
            (x.round() as i64 + self.zero_point as i64) as i32
        } else {
            let (below, above) = self.quotient_bounds();
            to_int(self.offset_level(v, below, above)) + self.zero_point
        }
    }

    /// Recovers the real value of a quantized integer.
    #[inline]
    pub fn dequantize(&self, q: i32) -> f32 {
        self.scale * (q - self.zero_point) as f32
    }

    /// [`QuantParams::quantize`] over a slice, storing each level as `T`.
    /// For grids up to 16 bits the loop is branch-free and vectorizes.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length or when the grid is wider
    /// than `T` holds ([`Level::BITS`]).
    pub fn quantize_slice<T: Level>(&self, src: &[f32], dst: &mut [T]) {
        assert_eq!(src.len(), dst.len(), "quantize_slice length mismatch");
        assert!(
            self.bitwidth.bits() <= T::BITS,
            "{} grid does not fit the level type",
            self.bitwidth
        );
        if self.bitwidth == Bitwidth::W32 {
            for (q, &v) in dst.iter_mut().zip(src) {
                *q = T::from_level(self.quantize(v));
            }
            return;
        }
        let (below, above) = self.quotient_bounds();
        let zp = self.zero_point;
        for (q, &v) in dst.iter_mut().zip(src) {
            *q = T::from_level(to_int(self.offset_level(v, below, above)) + zp);
        }
    }

    /// [`QuantParams::dequantize`] over a slice.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length.
    pub fn dequantize_slice<T: Level>(&self, src: &[T], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "dequantize_slice length mismatch");
        for (o, &q) in dst.iter_mut().zip(src) {
            *o = self.dequantize(q.level());
        }
    }

    /// Quantize-dequantizes `values` in place: bit-identical to
    /// `dequantize(quantize(v))` per element, and for grids up to 16 bits
    /// a branch-free loop that vectorizes.
    pub fn fake_quantize_slice(&self, values: &mut [f32]) {
        if self.bitwidth == Bitwidth::W32 {
            for v in values {
                *v = self.dequantize(self.quantize(*v));
            }
            return;
        }
        let (below, above) = self.quotient_bounds();
        for v in values {
            // The offset level is the exact integer `q − zp`, so this is
            // `dequantize`'s own product.
            *v = self.scale * self.offset_level(*v, below, above);
        }
    }

    /// Quantize-dequantize in the real domain ("fake quantization").
    ///
    /// This is how the entropy estimator and the accuracy-agreement
    /// experiments observe the information loss of a bitwidth without
    /// running integer kernels.
    pub fn fake_quantize_tensor(&self, t: &Tensor) -> Tensor {
        let mut out = t.clone();
        self.fake_quantize_slice(out.data_mut());
        out
    }

    /// `[qmin − zp, qmax − zp]`: the quotients `v / scale` that round to
    /// an unclamped level. Exact in `f32` up to 16 bits.
    #[inline(always)]
    fn quotient_bounds(&self) -> (f32, f32) {
        let (below, above) = self.quotient_bounds_f64();
        (below as f32, above as f32)
    }

    #[inline(always)]
    fn quotient_bounds_f64(&self) -> (f64, f64) {
        let zp = self.zero_point as i64;
        (
            (self.bitwidth.min_value() as i64 - zp) as f64,
            (self.bitwidth.max_value() as i64 - zp) as f64,
        )
    }

    /// `quantize(v) − zero_point` as an exact integral `f32`, for grids up
    /// to 16 bits, computed branch-free: clamp `v / scale` to `[below,
    /// above]` (NaN to 0), round to nearest-even with [`MAGIC`], then move
    /// the ties away from zero. Inside the clamp `|x| < 2¹⁷`, where the
    /// remainder `x − r` is exact, so comparing it with ±0.5 finds every
    /// tie. The result is never `-0.0`.
    #[inline(always)]
    fn offset_level(&self, v: f32, below: f32, above: f32) -> f32 {
        let x = v / self.scale;
        let x = if x.is_nan() { 0.0 } else { x };
        let x = if x > below { x } else { below };
        let x = if x < above { x } else { above };
        let r = (x + MAGIC) - MAGIC;
        let d = x - r;
        if d == 0.5 && x > 0.0 {
            r + 1.0
        } else if d == -0.5 && x < 0.0 {
            r - 1.0
        } else {
            r
        }
    }
}

/// `1.5 · 2²³`. Adding it to an `f32` below 2²² in magnitude leaves a sum
/// in `[2²³, 2²⁴)`, where the spacing of `f32`s is exactly 1: the addition
/// rounds to the nearest integer (ties to even), and the sum's low
/// mantissa bits hold that integer. Unlike `round` (a libm call) and the
/// saturating `as i32`, both vectorize.
const MAGIC: f32 = 12_582_912.0;

/// The value of an integral `x` with `|x| < 2²²`, read from the low
/// mantissa bits of `x + MAGIC`.
#[inline(always)]
fn to_int(x: f32) -> i32 {
    (x + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32
}

/// An integer type a grid value is stored in: `i8` holds the storage
/// grids (at most 8 bits, the CMix-NN widths), the only maps the integer
/// executor keeps; `i32` holds any grid, for callers such as the entropy
/// estimator that count levels of the wider accounting grids too.
pub trait Level: Copy + Default + fmt::Debug + Send + Sync + 'static {
    /// The widest grid, in bits, this type holds.
    const BITS: u32;

    /// Stores grid value `q`, which must fit [`Level::BITS`].
    fn from_level(q: i32) -> Self;

    /// The stored grid value.
    fn level(self) -> i32;
}

impl Level for i8 {
    const BITS: u32 = 8;

    #[inline(always)]
    fn from_level(q: i32) -> i8 {
        debug_assert!(i8::try_from(q).is_ok(), "grid value {q} exceeds i8 storage");
        q as i8
    }

    #[inline(always)]
    fn level(self) -> i32 {
        self as i32
    }
}

impl Level for i32 {
    const BITS: u32 = 32;

    #[inline(always)]
    fn from_level(q: i32) -> i32 {
        q
    }

    #[inline(always)]
    fn level(self) -> i32 {
        self
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

    /// [`ChannelQuantParams::quantize`] over a run of channel `ch`'s
    /// weights, storing each level as `T`: bit-identical per value, and a
    /// branch-free loop for grids up to 16 bits. A channel's grid is the
    /// affine grid with zero point 0, whose rounding (half away from
    /// zero) and clamping are `quantize`'s own.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length, when `ch` is out of
    /// range, or when the grid is wider than `T` holds.
    pub fn quantize_slice<T: Level>(&self, ch: usize, src: &[f32], dst: &mut [T]) {
        let grid = QuantParams { scale: self.scales[ch], zero_point: 0, bitwidth: self.bitwidth };
        grid.quantize_slice(src, dst);
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
    fn extremes_saturate_instead_of_overflowing() {
        // A zero point away from 0 at every width: adding it to a
        // saturated quotient used to overflow.
        for b in [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8, Bitwidth::W16, Bitwidth::W32] {
            for (lo, hi) in [(-0.2f32, 3.0f32), (-3.0, 0.2)] {
                let p = QuantParams::from_min_max(lo, hi, b).unwrap();
                assert_ne!(p.zero_point(), 0, "{b} [{lo}, {hi}]");
                let (qmin, qmax) = (b.min_value(), b.max_value());
                let cases =
                    [(-1e30, qmin), (f32::NEG_INFINITY, qmin), (f32::INFINITY, qmax), (1e30, qmax)];
                for (v, want) in cases {
                    assert_eq!(p.quantize(v), want, "{b} [{lo}, {hi}] v={v}");
                }
                assert_eq!(p.quantize(f32::NAN), p.zero_point(), "{b} NaN");
                let src = [-1e30, f32::NEG_INFINITY, f32::INFINITY, f32::NAN];
                let mut q = [0i32; 4];
                p.quantize_slice(&src, &mut q);
                assert_eq!(q, [qmin, qmin, qmax, p.zero_point()], "{b} slice");
            }
        }
    }

    #[test]
    fn narrow_slices_match_wide_slices() {
        let src: Vec<f32> = (0..97).map(|i| (i as f32 * 0.61).sin() * 4.0).collect();
        for b in Bitwidth::SEARCH_CANDIDATES {
            let p = QuantParams::from_min_max(-1.5, 2.5, b).unwrap();
            let (mut narrow, mut wide) = (vec![0i8; src.len()], vec![0i32; src.len()]);
            p.quantize_slice(&src, &mut narrow);
            p.quantize_slice(&src, &mut wide);
            assert!(narrow.iter().zip(&wide).all(|(&n, &w)| n as i32 == w));
            let mut back = vec![0.0f32; src.len()];
            p.dequantize_slice(&narrow, &mut back);
            let mut fake = src.clone();
            p.fake_quantize_slice(&mut fake);
            assert_eq!(back, fake);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit the level type")]
    fn wide_grids_refuse_narrow_storage() {
        let p = QuantParams::from_min_max(-1.0, 1.0, Bitwidth::W16).unwrap();
        p.quantize_slice(&[0.0], &mut [0i8]);
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
