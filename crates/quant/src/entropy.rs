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
//! ## Fused engine vs. the naive oracle
//!
//! The textbook evaluation ([`naive`]) makes `3 + 7·C` passes over a
//! feature map with `C` candidates: every `(map, candidate)` pair re-runs
//! the moments scan, materializes a dequantized `Vec<f32>` copy, and
//! histograms it from scratch. The functions at this level are the *fused*
//! engine, which reads each value **twice** however many candidates there
//! are: a min/max fold ([`Sample::new`]), then one scan
//! ([`Sample::table_row`]). The scan walks the sample in fixed-size
//! blocks, computes each value's full-precision bin and its level on every
//! candidate grid, and scatters them into per-level counters; after the
//! scan, each candidate's level counts become bin counts through a
//! precomputed level→bin lookup table (≤ 256 entries for the search
//! candidates). A sample may come in segments — the planner keeps one
//! buffer per calibration chunk — and is read as their concatenation.
//!
//! `floor` and `round` become branch-free equivalents the compiler can
//! vectorize (`Bins::index` here, [`QuantParams::quantize_slice`] for the
//! levels), exact on every input;
//! everything else is the naive path's arithmetic — the same
//! [`QuantParams`] grids, the same bin formula on the same support — so
//! the results are **bit-identical**, which the proptest parity suite
//! (`tests/entropy_parity.rs`) pins against [`naive`] permanently.

use quantmcu_tensor::stats::Histogram;
use quantmcu_tensor::{Bitwidth, QuantParams};

use crate::error::QuantError;

/// Candidates up to this many quantization levels count per level and
/// bin through a level→bin LUT; wider grids (W16/W32 — never in the
/// search set) bin each dequantized value directly, which is the same
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
/// Returns [`QuantError::Statistics`] for an empty sample and
/// [`QuantError::MalformedInput`] for more than 2²² bins.
pub fn full_precision_entropy(values: &[f32], k: usize) -> Result<f64, QuantError> {
    Ok(Sample::new(&[values]).entropies(&[], k)?.0)
}

/// `H(i, b)` of Eq. (4): entropy of the feature map after `b`-bit
/// quantization, measured on the same `k`-bin support as the
/// full-precision histogram so the two are comparable.
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample and
/// [`QuantError::MalformedInput`] for more than 2²² bins.
pub fn quantized_entropy(values: &[f32], b: Bitwidth, k: usize) -> Result<f64, QuantError> {
    Ok(Sample::new(&[values]).entropies(&[b], k)?.1[0])
}

/// `ΔH(i, b)` of Eq. (5): the entropy lost by quantizing to `b` bits,
/// clamped at zero (binning noise can make the quantized estimate a hair
/// larger on tiny samples).
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample and
/// [`QuantError::MalformedInput`] for more than 2²² bins.
pub fn entropy_reduction(values: &[f32], b: Bitwidth, k: usize) -> Result<f64, QuantError> {
    Ok(table_row(values, &[b], k)?.1[0])
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
/// empty and [`QuantError::MalformedInput`] for more than 2²² bins.
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
/// engine — [`Sample::table_row`] on a one-segment sample.
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample and
/// [`QuantError::MalformedInput`] for more than 2²² bins.
pub fn table_row(
    values: &[f32],
    candidates: &[Bitwidth],
    k: usize,
) -> Result<(f64, Vec<f64>), QuantError> {
    Sample::new(&[values]).table_row(candidates, k)
}

/// Values per block of the fused scan: small enough that a block's bin
/// and level indices stay in registers and L1, large enough that the
/// compiler vectorizes the index arithmetic over it.
const BLOCK: usize = 64;

/// One feature map's sample, held as ordered segments (the planner keeps
/// one buffer per calibration chunk) and read as their concatenation,
/// together with its min/max fold — the first of the fused engine's two
/// passes, whose range the second pass bins and fits its grids on.
#[derive(Debug)]
pub struct Sample<'a, S> {
    parts: &'a [S],
    len: usize,
    lo: f32,
    hi: f32,
}

impl<'a, S: AsRef<[f32]>> Sample<'a, S> {
    /// Folds min/max over the concatenated segments, skipping NaN values.
    /// The result is that of the in-order fold `stats::moments` makes
    /// with `f32::min`/`f32::max`, where a tie keeps the earlier value —
    /// so a zero extreme carries the sign of the sample's first zero.
    pub fn new(parts: &'a [S]) -> Self {
        // Independent lanes let the compiler vectorize the fold. A lane
        // skips NaN the way the in-order fold does (a comparison with NaN
        // is false); visiting values out of order can only change the
        // sign of a zero extreme, which is restored below.
        const LANES: usize = 16;
        let mut lo = [f32::INFINITY; LANES];
        let mut hi = [f32::NEG_INFINITY; LANES];
        let mut len = 0;
        for part in parts {
            let part = part.as_ref();
            len += part.len();
            let mut chunks = part.chunks_exact(LANES);
            for chunk in &mut chunks {
                for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
                    *l = if v < *l { v } else { *l };
                    *h = if v > *h { v } else { *h };
                }
            }
            for &v in chunks.remainder() {
                lo[0] = if v < lo[0] { v } else { lo[0] };
                hi[0] = if v > hi[0] { v } else { hi[0] };
            }
        }
        let mut lo = lo.into_iter().fold(f32::INFINITY, |a, v| if v < a { v } else { a });
        let mut hi = hi.into_iter().fold(f32::NEG_INFINITY, |a, v| if v > a { v } else { a });
        if lo == 0.0 || hi == 0.0 {
            // In order, the first zero replaces the running extreme and
            // every later zero ties with it.
            let first_zero = parts
                .iter()
                .flat_map(|part| part.as_ref())
                .copied()
                .find(|&v| v == 0.0)
                .expect("a zero extreme is a value of the sample");
            if lo == 0.0 {
                lo = first_zero;
            }
            if hi == 0.0 {
                hi = first_zero;
            }
        }
        Sample { parts, len, lo, hi }
    }

    /// `(min, max)` over the non-NaN values; `(+∞, −∞)` when there are
    /// none.
    pub fn range(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }

    /// The map's table row, `(H, ΔH per candidate)`, from one fused scan.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] for an empty sample and
    /// [`QuantError::MalformedInput`] for more than 2²² bins.
    pub fn table_row(
        &self,
        candidates: &[Bitwidth],
        k: usize,
    ) -> Result<(f64, Vec<f64>), QuantError> {
        let (h_full, h_q) = self.entropies(candidates, k)?;
        Ok((h_full, h_q.into_iter().map(|h| (h_full - h).max(0.0)).collect()))
    }

    /// The second pass: `H` at full precision and `H(i, b)` per candidate.
    /// Each block of values gets its full-precision bins, then its levels
    /// on each candidate grid, and both scatter into counters; level
    /// counts become bin counts through the grid's level→bin table after
    /// the pass.
    fn entropies(&self, candidates: &[Bitwidth], k: usize) -> Result<(f64, Vec<f64>), QuantError> {
        if self.len == 0 {
            // The naive path surfaces this from `stats::moments`.
            return Err(quantmcu_tensor::TensorError::EmptyTensor.into());
        }
        if k > MAX_BINS {
            return Err(QuantError::MalformedInput { detail: "more than 2^22 histogram bins" });
        }
        let bins = Bins::new(self.lo, self.hi, k);
        let mut grids = candidates
            .iter()
            .map(|&b| Grid::new(&bins, self.lo, self.hi, b))
            .collect::<Result<Vec<_>, _>>()?;
        let mut full = vec![0u64; bins.k];
        let mut idx = [0u32; BLOCK];
        let mut levels = [0i32; BLOCK];
        for part in self.parts {
            for block in part.as_ref().chunks(BLOCK) {
                let idx = &mut idx[..block.len()];
                for (i, &v) in idx.iter_mut().zip(block) {
                    *i = bins.index(v);
                }
                for &i in idx.iter() {
                    full[i as usize] += 1;
                }
                for grid in &mut grids {
                    grid.scatter(block, &bins, &mut levels);
                }
            }
        }
        let h_q = grids.into_iter().map(|g| g.entropy(&bins, self.lo, self.hi)).collect();
        Ok((Histogram::from_counts(full, self.lo, self.hi).entropy(), h_q))
    }
}

/// `k` uniform bins over a map's `[lo, hi]`, as
/// `Histogram::build_in_range` lays them out.
struct Bins {
    lo: f32,
    span: f32,
    k: usize,
    k_f32: f32,
    /// `k − 1`, exact in `f32` (see [`MAX_BINS`]).
    top: f32,
}

impl Bins {
    fn new(lo: f32, hi: f32, k: usize) -> Self {
        let k = k.max(1);
        Bins { lo, span: (hi - lo).max(1e-12), k, k_f32: k as f32, top: (k - 1) as f32 }
    }

    /// `Histogram::build_in_range`'s bin for `v`, `floor(t)` clamped to
    /// `[0, k − 1]`, computed branch-free: clamp `t` to `[0, k − 1]` first
    /// (NaN goes to 0, as `floor(NaN) as i64` is 0), then floor — exact
    /// on the clamped range, and clamping commutes with `floor` because
    /// the bounds are integers.
    #[inline(always)]
    fn index(&self, v: f32) -> u32 {
        let t = (v - self.lo) / self.span * self.k_f32;
        let t = if t > 0.0 { t } else { 0.0 };
        let t = if t < self.top { t } else { self.top };
        let r = round_even(t);
        to_int(if r > t { r - 1.0 } else { r }) as u32
    }
}

/// `1.5 · 2²³`. Adding it to an `f32` below 2²² in magnitude leaves a sum
/// in `[2²³, 2²⁴)`, where the spacing of `f32`s is exactly 1.
const MAGIC: f32 = 12_582_912.0;

/// The largest bin count the fused engine takes: every bin index, and
/// `k − 1` itself, stays below 2²², where [`round_even`] and [`to_int`]
/// are exact.
const MAX_BINS: usize = 1 << 22;

/// `x` rounded to the nearest integer, ties to even, for `|x| < 2²²`:
/// the rounding the addition of [`MAGIC`] applies. Unlike `round`, a libm
/// call, this vectorizes.
#[inline(always)]
fn round_even(x: f32) -> f32 {
    (x + MAGIC) - MAGIC
}

/// The value of an integral `x` with `|x| < 2²²`, read from the low
/// mantissa bits of `x + MAGIC`. Unlike the saturating `x as i32`, which
/// x86-64's baseline target converts one lane at a time, this vectorizes.
#[inline(always)]
fn to_int(x: f32) -> i32 {
    (x + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32
}

/// One candidate bitwidth's grid and its counters for the fused scan.
struct Grid {
    params: QuantParams,
    /// Level `q` counts at `q − qmin`.
    qmin: i32,
    /// Level→bin table for grids of at most [`MAX_LUT_LEVELS`] levels;
    /// `None` for wider grids (W16/W32, never in the search set), which
    /// bin each dequantized value directly.
    lut: Option<Vec<u32>>,
    /// Per-level counts with a table, per-bin counts without.
    counts: Vec<u64>,
}

impl Grid {
    fn new(bins: &Bins, lo: f32, hi: f32, b: Bitwidth) -> Result<Self, QuantError> {
        let params = QuantParams::from_min_max(lo, hi, b)?;
        let (qmin, qmax) = (b.min_value(), b.max_value());
        let levels = qmax as i64 - qmin as i64 + 1;
        let lut: Option<Vec<u32>> = (levels <= MAX_LUT_LEVELS as i64).then(|| {
            (0..levels as i32).map(|level| bins.index(params.dequantize(qmin + level))).collect()
        });
        let counts = vec![0u64; if lut.is_some() { levels as usize } else { bins.k }];
        Ok(Grid { params, qmin, lut, counts })
    }

    /// Counts one block of values, using `levels` as scratch. With a
    /// table, each value's level comes from the branch-free
    /// [`QuantParams::quantize_slice`], bit-identical to `quantize`.
    #[inline(always)]
    fn scatter(&mut self, block: &[f32], bins: &Bins, levels: &mut [i32; BLOCK]) {
        if self.lut.is_none() {
            for &v in block {
                let q = self.params.quantize(v);
                self.counts[bins.index(self.params.dequantize(q)) as usize] += 1;
            }
            return;
        }
        let levels = &mut levels[..block.len()];
        self.params.quantize_slice(block, levels);
        for &level in levels.iter() {
            self.counts[level.wrapping_sub(self.qmin) as usize] += 1;
        }
    }

    /// `H(i, b)` from the counters.
    fn entropy(self, bins: &Bins, lo: f32, hi: f32) -> f64 {
        let counts = match self.lut {
            Some(lut) => {
                let mut by_bin = vec![0u64; bins.k];
                for (&count, &bin) in self.counts.iter().zip(&lut) {
                    by_bin[bin as usize] += count;
                }
                by_bin
            }
            None => self.counts,
        };
        Histogram::from_counts(counts, lo, hi).entropy()
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
    fn range_keeps_the_in_order_fold_for_nan_and_signed_zeros() {
        // The in-order fold: NaN skipped, ties keep the earlier value.
        let in_order = |values: &[f32]| {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in values {
                lo = if v < lo { v } else { lo };
                hi = if v > hi { v } else { hi };
            }
            (lo.to_bits(), hi.to_bits())
        };
        for len in [3, 16, 17, 100, 1000] {
            for (a, b) in [(0, len - 1), (len - 1, 0), (len / 2, 1), (1, len / 2)] {
                for sign in [1.0f32, -1.0] {
                    let mut v: Vec<f32> = (0..len).map(|i| sign * (1.0 + i as f32)).collect();
                    v[a] = 0.0;
                    v[b] = -0.0;
                    v[len / 3] = f32::NAN;
                    let (head, tail) = v.split_at(len / 2);
                    for parts in [vec![&v[..]], vec![head, &[], tail]] {
                        let (lo, hi) = Sample::new(&parts).range();
                        assert_eq!((lo.to_bits(), hi.to_bits()), in_order(&v), "{v:?}");
                    }
                }
            }
        }
        let none: [&[f32]; 2] = [&[f32::NAN], &[]];
        assert_eq!(Sample::new(&none).range(), (f32::INFINITY, f32::NEG_INFINITY));
    }

    #[test]
    fn oversized_histograms_are_rejected() {
        let err = table_row(&[1.0, 2.0], &[Bitwidth::W8], MAX_BINS + 1).unwrap_err();
        assert!(matches!(err, QuantError::MalformedInput { .. }), "{err:?}");
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
