//! Activation-entropy accuracy proxy (Eq. 3–5).
//!
//! Training the model at every search step is what makes RL/NAS-based
//! mixed-precision search slow; VDQS instead scores a bitwidth by how much
//! *entropy* the quantized feature map retains. The estimate: fake-quantize
//! the feature map's values to `b` bits, histogram them into `k` uniform
//! bins over the full-precision range (Eq. 3), and take the Shannon entropy
//! (Eq. 4). The accuracy impact of quantizing map `i` to `b` bits is the
//! normalized entropy reduction (Eq. 5).
//!
//! ## Fused fast path vs. the naive oracle
//!
//! The textbook evaluation ([`naive`]) makes `3 + 7·C` passes over a
//! feature map with `C` candidates: every `(map, candidate)` pair re-runs
//! the moments scan, materializes a dequantized `Vec<f32>` copy, and
//! histograms it from scratch. The functions at this level are the *fused*
//! engine: **one** min/max pass and **one** full-precision histogram pass
//! per map, then one alloc-free pass per candidate that maps each value to
//! its quantization level and scatters through a precomputed level→bin
//! lookup table (≤ 256 entries for the search candidates). The arithmetic
//! applied to every value is exactly the naive path's — same
//! [`QuantParams::quantize`], same bin formula on the same support — so
//! the results are **bit-identical**, which the proptest parity suite
//! (`tests/entropy_parity.rs`) pins against [`naive`] permanently.

use quantmcu_tensor::stats::Histogram;
use quantmcu_tensor::{Bitwidth, QuantParams};

use crate::error::QuantError;

/// Candidates up to this many quantization levels use the precomputed
/// level→bin LUT; wider grids (W16/W32 — never in the search set) fall
/// back to binning each dequantized value directly, which is the same
/// arithmetic without the table.
const MAX_LUT_LEVELS: usize = 256;

/// The textbook multi-pass evaluation, retained verbatim as the parity
/// oracle for the fused engine (see the [module docs](self)).
pub mod naive {
    use quantmcu_tensor::stats::{self, Histogram};
    use quantmcu_tensor::{Bitwidth, QuantParams};

    use crate::error::QuantError;

    /// Entropy of a feature map's values at full precision, `k` bins.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] for an empty sample.
    pub fn full_precision_entropy(values: &[f32], k: usize) -> Result<f64, QuantError> {
        Ok(Histogram::build(values, k.max(1))?.entropy())
    }

    /// `H(i, b)` of Eq. (4): entropy of the feature map after `b`-bit
    /// quantization, measured on the same `k`-bin support as the
    /// full-precision histogram so the two are comparable.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] for an empty sample.
    pub fn quantized_entropy(values: &[f32], b: Bitwidth, k: usize) -> Result<f64, QuantError> {
        let m = stats::moments(values)?;
        let params = QuantParams::from_min_max(m.min, m.max, b)?;
        let quantized: Vec<f32> =
            values.iter().map(|&v| params.dequantize(params.quantize(v))).collect();
        Ok(Histogram::build_in_range(&quantized, k.max(1), m.min, m.max).entropy())
    }

    /// `ΔH(i, b)` of Eq. (5): the entropy lost by quantizing to `b` bits,
    /// clamped at zero (binning noise can make the quantized estimate a
    /// hair larger on tiny samples).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] for an empty sample.
    pub fn entropy_reduction(values: &[f32], b: Bitwidth, k: usize) -> Result<f64, QuantError> {
        let h_full = full_precision_entropy(values, k)?;
        let h_q = quantized_entropy(values, b, k)?;
        Ok((h_full - h_q).max(0.0))
    }

    /// One feature map's table row: `(H, ΔH per candidate)`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] for an empty sample.
    pub fn table_row(
        values: &[f32],
        candidates: &[Bitwidth],
        k: usize,
    ) -> Result<(f64, Vec<f64>), QuantError> {
        let full = full_precision_entropy(values, k)?;
        let row = candidates
            .iter()
            .map(|&b| entropy_reduction(values, b, k))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((full, row))
    }

    /// [`crate::entropy::build_table`]'s oracle: one [`table_row`] per map.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] when any feature map's sample is
    /// empty.
    pub fn build_table(
        fm_values: &[Vec<f32>],
        candidates: &[Bitwidth],
        k: usize,
    ) -> Result<super::EntropyTable, QuantError> {
        let mut full = Vec::with_capacity(fm_values.len());
        let mut reductions = Vec::with_capacity(fm_values.len());
        for values in fm_values {
            let (h, row) = table_row(values, candidates, k)?;
            full.push(h);
            reductions.push(row);
        }
        Ok(super::EntropyTable { full, reductions })
    }
}

/// Entropy of a feature map's values at full precision, `k` bins.
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample.
pub fn full_precision_entropy(values: &[f32], k: usize) -> Result<f64, QuantError> {
    let map = MapEntropy::scan(values, k)?;
    Ok(map.h_full)
}

/// `H(i, b)` of Eq. (4): entropy of the feature map after `b`-bit
/// quantization, measured on the same `k`-bin support as the
/// full-precision histogram so the two are comparable.
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample.
pub fn quantized_entropy(values: &[f32], b: Bitwidth, k: usize) -> Result<f64, QuantError> {
    let map = MapEntropy::scan(values, k)?;
    map.quantized_entropy(values, b)
}

/// `ΔH(i, b)` of Eq. (5): the entropy lost by quantizing to `b` bits,
/// clamped at zero (binning noise can make the quantized estimate a hair
/// larger on tiny samples).
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample.
pub fn entropy_reduction(values: &[f32], b: Bitwidth, k: usize) -> Result<f64, QuantError> {
    let map = MapEntropy::scan(values, k)?;
    map.reduction(values, b)
}

/// The per-feature-map entropy table a VDQS run needs: `H` at full
/// precision and `ΔH` per candidate bitwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyTable {
    /// Full-precision entropy per feature map.
    pub full: Vec<f64>,
    /// `reductions[i][j]` = ΔH of feature map `i` at candidate `j`.
    pub reductions: Vec<Vec<f64>>,
}

/// Builds the table for a branch: `fm_values[i]` holds the sampled values
/// of feature map `i`.
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] when any feature map's sample is
/// empty.
pub fn build_table(
    fm_values: &[Vec<f32>],
    candidates: &[Bitwidth],
    k: usize,
) -> Result<EntropyTable, QuantError> {
    let mut full = Vec::with_capacity(fm_values.len());
    let mut reductions = Vec::with_capacity(fm_values.len());
    for values in fm_values {
        let (h, row) = table_row(values, candidates, k)?;
        full.push(h);
        reductions.push(row);
    }
    Ok(EntropyTable { full, reductions })
}

/// One feature map's table row: `(H, ΔH per candidate)` through the fused
/// engine — the unit of work the planner fans out over its worker pool
/// (one row per feature map, assembled in map order).
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample.
pub fn table_row(
    values: &[f32],
    candidates: &[Bitwidth],
    k: usize,
) -> Result<(f64, Vec<f64>), QuantError> {
    let map = MapEntropy::scan(values, k)?;
    let row =
        candidates.iter().map(|&b| map.reduction(values, b)).collect::<Result<Vec<_>, _>>()?;
    Ok((map.h_full, row))
}

/// The per-map state of the fused engine after its two initial passes:
/// the sample range and the full-precision entropy, plus a reusable
/// scatter buffer for the per-candidate passes.
struct MapEntropy {
    lo: f32,
    hi: f32,
    k: usize,
    h_full: f64,
    /// Scratch counts reused across candidates (cleared per candidate).
    scratch: std::cell::RefCell<Vec<u64>>,
}

impl MapEntropy {
    /// Pass 1: min/max (folded exactly like `stats::moments`, so NaN and
    /// range edge cases agree with the naive path). Pass 2: the
    /// full-precision histogram on `[lo, hi]`.
    fn scan(values: &[f32], k: usize) -> Result<Self, QuantError> {
        let k = k.max(1);
        if values.is_empty() {
            // The naive path surfaces this from `stats::moments`.
            return Err(quantmcu_tensor::TensorError::EmptyTensor.into());
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let h_full = Histogram::build_in_range(values, k, lo, hi).entropy();
        Ok(MapEntropy { lo, hi, k, h_full, scratch: std::cell::RefCell::new(vec![0u64; k]) })
    }

    /// The bin a real value falls in — the exact arithmetic of
    /// `Histogram::build_in_range` on this map's support.
    #[inline]
    fn bin(&self, v: f32) -> usize {
        let span = (self.hi - self.lo).max(1e-12);
        let t = ((v - self.lo) / span * self.k as f32).floor();
        (t as i64).clamp(0, self.k as i64 - 1) as usize
    }

    /// `H(i, b)`: one fused pass quantizing each value and scattering its
    /// level's bin — no dequantized copy. A level→bin LUT covers every
    /// search-candidate bitwidth; wider grids bin the dequantized value
    /// directly (identical arithmetic, no table).
    fn quantized_entropy(&self, values: &[f32], b: Bitwidth) -> Result<f64, QuantError> {
        let params = QuantParams::from_min_max(self.lo, self.hi, b)?;
        let qmin = b.min_value();
        let levels = b.max_value() as i64 - qmin as i64 + 1;
        let mut counts = self.scratch.borrow_mut();
        counts.fill(0);
        if levels <= MAX_LUT_LEVELS as i64 {
            let mut lut = [0u32; MAX_LUT_LEVELS];
            for (level, slot) in lut.iter_mut().enumerate().take(levels as usize) {
                *slot = self.bin(params.dequantize(qmin + level as i32)) as u32;
            }
            for &v in values {
                counts[lut[(params.quantize(v) - qmin) as usize] as usize] += 1;
            }
        } else {
            for &v in values {
                counts[self.bin(params.dequantize(params.quantize(v)))] += 1;
            }
        }
        Ok(Histogram::from_counts(counts.clone(), self.lo, self.hi).entropy())
    }

    /// `ΔH(i, b)` against this map's full-precision entropy.
    fn reduction(&self, values: &[f32], b: Bitwidth) -> Result<f64, QuantError> {
        let h_q = self.quantized_entropy(values, b)?;
        Ok((self.h_full - h_q).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_signal() -> Vec<f32> {
        (0..8192).map(|i| ((i as f32) * 0.01).sin() * 3.0 + ((i as f32) * 0.003).cos()).collect()
    }

    #[test]
    fn lower_bits_lose_more_entropy() {
        let v = rich_signal();
        let d8 = entropy_reduction(&v, Bitwidth::W8, 2048).unwrap();
        let d4 = entropy_reduction(&v, Bitwidth::W4, 2048).unwrap();
        let d2 = entropy_reduction(&v, Bitwidth::W2, 2048).unwrap();
        assert!(d2 > d4, "2-bit ΔH {d2} must exceed 4-bit {d4}");
        assert!(d4 > d8, "4-bit ΔH {d4} must exceed 8-bit {d8}");
    }

    #[test]
    fn reduction_is_nonnegative_and_bounded() {
        let v = rich_signal();
        let h = full_precision_entropy(&v, 2048).unwrap();
        for b in Bitwidth::SEARCH_CANDIDATES {
            let d = entropy_reduction(&v, b, 2048).unwrap();
            assert!(d >= 0.0);
            assert!(d <= h + 1e-9, "{b}: ΔH {d} exceeds H {h}");
        }
    }

    #[test]
    fn two_bit_map_has_at_most_four_levels_of_entropy() {
        let v = rich_signal();
        let h2 = quantized_entropy(&v, Bitwidth::W2, 2048).unwrap();
        assert!(h2 <= 4f64.ln() + 1e-9, "2-bit entropy {h2} exceeds ln 4");
    }

    #[test]
    fn table_shapes_match_inputs() {
        let fms = vec![rich_signal(), rich_signal().iter().map(|v| v * 0.5).collect()];
        let t = build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, 512).unwrap();
        assert_eq!(t.full.len(), 2);
        assert_eq!(t.reductions.len(), 2);
        assert_eq!(t.reductions[0].len(), 3);
    }

    #[test]
    fn empty_feature_map_is_an_error() {
        assert!(build_table(&[Vec::new()], &Bitwidth::SEARCH_CANDIDATES, 512).is_err());
        assert!(naive::build_table(&[Vec::new()], &Bitwidth::SEARCH_CANDIDATES, 512).is_err());
    }

    #[test]
    fn fused_table_is_bit_identical_to_naive_oracle() {
        let fms: Vec<Vec<f32>> = (0..5)
            .map(|s| {
                (0..3000).map(|i| ((i + 131 * s) as f32 * 0.011).sin() * (s as f32 + 0.5)).collect()
            })
            .collect();
        let fast = build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, 512).unwrap();
        let oracle = naive::build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, 512).unwrap();
        assert_eq!(fast, oracle);
    }

    #[test]
    fn wide_grids_take_the_lut_free_path_and_still_match_naive() {
        // W16 has 65536 levels — far past the LUT cap — so this pins the
        // direct-binning fallback. (W32 is excluded: `QuantParams::quantize`
        // overflows its i32 grid there for both paths alike; it has never
        // been a search candidate.)
        let v = rich_signal();
        let b = Bitwidth::W16;
        let fast = quantized_entropy(&v, b, 256).unwrap();
        let slow = naive::quantized_entropy(&v, b, 256).unwrap();
        assert_eq!(fast.to_bits(), slow.to_bits(), "{b} diverged from the oracle");
    }

    #[test]
    fn nan_values_agree_with_naive() {
        let mut v = rich_signal();
        v[17] = f32::NAN;
        v[4000] = f32::NAN;
        for b in Bitwidth::SEARCH_CANDIDATES {
            let fast = entropy_reduction(&v, b, 128).unwrap();
            let slow = naive::entropy_reduction(&v, b, 128).unwrap();
            assert_eq!(fast.to_bits(), slow.to_bits(), "{b} diverged on a NaN-bearing sample");
        }
    }
}
