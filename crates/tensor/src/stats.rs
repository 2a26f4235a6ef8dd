//! Statistics used by value-driven quantization.
//!
//! Three pieces of the paper live here:
//!
//! * the **empirical entropy** of a feature map (Eq. 3–4), estimated by a
//!   uniform `k`-bin histogram over the activation range;
//! * the **Gaussian fit** of an activation distribution (Fig. 2a), used by
//!   value-driven patch classification;
//! * the **probit function** (inverse standard-normal CDF), which converts
//!   the paper's φ threshold — read as central probability mass, the one
//!   reading of Eq. (1) that matches Fig. 5's sweep — into a z-score cut
//!   for outlier detection.

use crate::error::TensorError;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Sample mean (µ in the paper's Eq. 1).
    pub mean: f32,
    /// Sample standard deviation (σ in the paper's Eq. 1).
    pub std: f32,
    /// Smallest value.
    pub min: f32,
    /// Largest value.
    pub max: f32,
}

/// Computes mean, standard deviation, min and max of a sample.
///
/// # Errors
///
/// Returns [`TensorError::EmptyTensor`] for an empty sample.
pub fn moments(values: &[f32]) -> Result<Moments, TensorError> {
    if values.is_empty() {
        return Err(TensorError::EmptyTensor);
    }
    let n = values.len() as f64;
    let mut sum = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in values {
        sum += v as f64;
        min = min.min(v);
        max = max.max(v);
    }
    let mean = sum / n;
    let var = values.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
    Ok(Moments { mean: mean as f32, std: var.sqrt() as f32, min, max })
}

/// [`moments`] over a sample stored in several parts, visited in order —
/// bit-identical to [`moments`] of the concatenation, without ever
/// materializing it. This is how VDPC fits its Gaussian across a
/// calibration set: one `&[f32]` per image, no flattened copy.
///
/// # Errors
///
/// Returns [`TensorError::EmptyTensor`] when the parts hold no values.
pub fn moments_parts<'a, I>(parts: I) -> Result<Moments, TensorError>
where
    I: IntoIterator<Item = &'a [f32]> + Clone,
{
    let mut n = 0usize;
    let mut sum = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for part in parts.clone() {
        n += part.len();
        for &v in part {
            sum += v as f64;
            min = min.min(v);
            max = max.max(v);
        }
    }
    if n == 0 {
        return Err(TensorError::EmptyTensor);
    }
    let mean = sum / n as f64;
    let mut var_sum = 0.0f64;
    for part in parts {
        for &v in part {
            var_sum += (v as f64 - mean).powi(2);
        }
    }
    let var = var_sum / n as f64;
    Ok(Moments { mean: mean as f32, std: var.sqrt() as f32, min, max })
}

/// A uniform-bin histogram over a fixed range.
///
/// This is the empirical distribution of Eq. (3): the activation range is
/// divided into `k` bins and each value contributes to the bin it falls in.
///
/// # Example
///
/// ```
/// use quantmcu_tensor::stats::Histogram;
///
/// let h = Histogram::build(&[0.0, 0.1, 0.9, 1.0], 2)?;
/// assert_eq!(h.counts(), &[2, 2]);
/// # Ok::<(), quantmcu_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    lo: f32,
    hi: f32,
}

impl Histogram {
    /// Builds a histogram with `k` uniform bins spanning the sample's range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty sample and
    /// [`TensorError::UnsupportedBitwidth`] is never returned here;
    /// `k == 0` yields [`TensorError::ShapeMismatch`].
    pub fn build(values: &[f32], k: usize) -> Result<Self, TensorError> {
        if k == 0 {
            return Err(TensorError::ShapeMismatch { expected: 1, actual: 0 });
        }
        let m = moments(values)?;
        Ok(Self::build_in_range(values, k, m.min, m.max))
    }

    /// Builds a histogram over an explicit `[lo, hi]` range; values outside
    /// the range clamp to the edge bins. Using a fixed range lets entropy of
    /// quantized and full-precision variants of the same feature map be
    /// compared on identical support, which Eq. (5) requires.
    pub fn build_in_range(values: &[f32], k: usize, lo: f32, hi: f32) -> Self {
        let k = k.max(1);
        let span = (hi - lo).max(1e-12);
        let mut counts = vec![0u64; k];
        for &v in values {
            let t = ((v - lo) / span * k as f32).floor();
            let bin = (t as i64).clamp(0, k as i64 - 1) as usize;
            counts[bin] += 1;
        }
        Histogram { counts, total: values.len() as u64, lo, hi }
    }

    /// Wraps precomputed bin counts into a histogram over a known
    /// `[lo, hi]` range — the constructor for callers that already
    /// scattered their values (the entropy engine's counting scan) or
    /// already know the range and don't want [`Histogram::build`]'s
    /// moments re-scan. The total is the sum of the counts, exactly what
    /// [`Histogram::build_in_range`] would have recorded for the same
    /// scatter.
    pub fn from_counts(counts: Vec<u64>, lo: f32, hi: f32) -> Self {
        let total = counts.iter().sum();
        Histogram { counts, total, lo, hi }
    }

    /// Bin occupancy counts (`x_j` in Eq. 3).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples (`n_i` in Eq. 3).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The histogram's `[lo, hi]` support.
    pub fn range(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }

    /// Shannon entropy of the empirical distribution in nats (Eq. 4):
    /// `H = -Σ_j p̂_j ln p̂_j` with `p̂_j = x_j / n`.
    ///
    /// Empty histograms have zero entropy.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        self.counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    }
}

/// Shannon entropy of a sample using a `k`-bin histogram over its own range.
///
/// Convenience wrapper over [`Histogram`]; this is `H(i, b)` of Eq. (4) when
/// applied to a (fake-)quantized feature map.
///
/// # Errors
///
/// Propagates the errors of [`Histogram::build`].
pub fn entropy(values: &[f32], k: usize) -> Result<f64, TensorError> {
    Ok(Histogram::build(values, k)?.entropy())
}

/// The standard normal probability density function.
pub fn normal_pdf(x: f64, mean: f64, std: f64) -> f64 {
    let std = std.max(1e-12);
    let z = (x - mean) / std;
    (-0.5 * z * z).exp() / (std * (2.0 * std::f64::consts::PI).sqrt())
}

/// Inverse of the standard normal CDF (the probit function), using the
/// Acklam rational approximation (relative error below 1.15e-9 on (0, 1)).
///
/// # Panics
///
/// Panics when `p` is outside the open interval `(0, 1)`.
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit requires p in (0, 1), got {p}");
    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The z-score such that the central `phi` probability mass of a standard
/// normal lies within `[-z, z]`.
///
/// This converts the paper's φ hyperparameter into the outlier cut used by
/// VDPC: a value `x` is an outlier iff `|x - µ| > z(φ) · σ`.
///
/// # Panics
///
/// Panics when `phi` is outside `(0, 1)`.
pub fn central_z(phi: f64) -> f64 {
    probit((1.0 + phi) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_sample() {
        let m = moments(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((m.mean - 2.5).abs() < 1e-6);
        assert!((m.std - (1.25f32).sqrt()).abs() < 1e-6);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
    }

    #[test]
    fn moments_rejects_empty() {
        assert_eq!(moments(&[]), Err(TensorError::EmptyTensor));
    }

    #[test]
    fn moments_parts_is_bit_identical_to_flat_moments() {
        let flat: Vec<f32> = (0..1000).map(|i| ((i * 37) as f32 * 0.013).sin() * 3.0).collect();
        let whole = moments(&flat).unwrap();
        // Any partition of the sample — including empty parts — must
        // reproduce the flat moments bit for bit.
        for cuts in [vec![0, 1000], vec![0, 1, 1000], vec![0, 333, 333, 998, 1000]] {
            let parts: Vec<&[f32]> = cuts.windows(2).map(|w| &flat[w[0]..w[1]]).collect();
            let m = moments_parts(parts.iter().copied()).unwrap();
            assert_eq!(m, whole, "partition {cuts:?} changed the moments");
        }
    }

    #[test]
    fn moments_parts_rejects_all_empty() {
        assert_eq!(moments_parts([[].as_slice(), &[]]), Err(TensorError::EmptyTensor));
        assert_eq!(moments_parts(std::iter::empty::<&[f32]>()), Err(TensorError::EmptyTensor));
    }

    #[test]
    fn from_counts_matches_build_in_range() {
        let values: Vec<f32> = (0..512).map(|i| (i as f32 * 0.037).sin()).collect();
        let built = Histogram::build_in_range(&values, 16, -1.0, 1.0);
        let wrapped = Histogram::from_counts(built.counts().to_vec(), -1.0, 1.0);
        assert_eq!(wrapped, built);
        assert_eq!(wrapped.total(), values.len() as u64);
        assert_eq!(wrapped.entropy(), built.entropy());
    }

    #[test]
    fn histogram_bins_cover_range() {
        let h = Histogram::build(&[0.0, 0.25, 0.5, 0.75, 1.0], 4).unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts().iter().sum::<u64>(), 5);
        // Max value lands in the last bin.
        assert!(h.counts()[3] >= 1);
    }

    #[test]
    fn uniform_distribution_maximizes_entropy() {
        let uniform: Vec<f32> = (0..1024).map(|i| i as f32 / 1023.0).collect();
        let peaked: Vec<f32> = (0..1024).map(|i| if i < 1000 { 0.0 } else { 1.0 }).collect();
        let hu = entropy(&uniform, 16).unwrap();
        let hp = entropy(&peaked, 16).unwrap();
        assert!(hu > hp);
        assert!((hu - (16f64).ln()).abs() < 0.05);
    }

    #[test]
    fn constant_signal_has_zero_entropy() {
        assert_eq!(entropy(&[3.0; 100], 8).unwrap(), 0.0);
    }

    #[test]
    fn entropy_never_negative_and_bounded_by_ln_k() {
        let vals: Vec<f32> = (0..500).map(|i| ((i * 37) % 97) as f32).collect();
        for k in [1, 2, 8, 64] {
            let h = entropy(&vals, k).unwrap();
            assert!(h >= 0.0);
            assert!(h <= (k as f64).ln() + 1e-9);
        }
    }

    #[test]
    fn quantization_reduces_entropy() {
        use crate::{Bitwidth, QuantParams, Shape, Tensor};
        let t = Tensor::from_fn(Shape::hwc(16, 16, 4), |i| ((i as f32) * 0.618).sin() * 3.0);
        let h_full = entropy(t.data(), 256).unwrap();
        let p2 = QuantParams::from_tensor(&t, Bitwidth::W2);
        let h2 = entropy(p2.fake_quantize_tensor(&t).data(), 256).unwrap();
        assert!(h2 < h_full, "2-bit entropy {h2} should fall below {h_full}");
    }

    #[test]
    fn probit_matches_known_quantiles() {
        assert!(probit(0.5).abs() < 1e-8);
        assert!((probit(0.975) - 1.959964).abs() < 1e-4);
        assert!((probit(0.025) + 1.959964).abs() < 1e-4);
        assert!((probit(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn central_z_is_monotone_in_phi() {
        let zs: Vec<f64> = [0.5, 0.8, 0.9, 0.96, 0.99].iter().map(|&p| central_z(p)).collect();
        assert!(zs.windows(2).all(|w| w[0] < w[1]));
        // The paper's φ = 0.96 corresponds to roughly 2.05σ.
        assert!((central_z(0.96) - 2.0537).abs() < 1e-3);
    }

    #[test]
    fn normal_pdf_peaks_at_mean() {
        let at_mean = normal_pdf(0.0, 0.0, 1.0);
        assert!((at_mean - 0.3989).abs() < 1e-3);
        assert!(normal_pdf(1.0, 0.0, 1.0) < at_mean);
        assert!(normal_pdf(-3.0, 0.0, 1.0) < normal_pdf(-1.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "probit requires p in (0, 1)")]
    fn probit_rejects_unit_boundary() {
        probit(1.0);
    }
}
