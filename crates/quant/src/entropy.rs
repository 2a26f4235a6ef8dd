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
//! ## Counting engine vs. the naive oracle
//!
//! The textbook evaluation ([`naive`]) makes `3 + 7·C` passes over a
//! feature map with `C` candidates: every `(map, candidate)` pair re-runs
//! the moments scan, materializes a dequantized `Vec<f32>` copy, and
//! histograms it from scratch. The functions at this level read each
//! value at most **twice** however many candidates there are: a min/max
//! fold ([`Sample::new`]), skipped when the caller already knows the range
//! ([`Sample::clamped`]), then one counting scan ([`Sample::table_row`]).
//! A sample may come in segments — the planner keeps one buffer per
//! calibration chunk — and is read as their concatenation.
//!
//! Both reads also come in a streaming form, for a caller that produces
//! the values and would rather not keep them: [`RangeFold`] folds the
//! range piece by piece, and a [`Scan`] planned on that range counts
//! pieces into [`Counts`] that add exactly. [`Sample`] is a thin wrapper
//! over the two, so a streamed range or row is the materialized one, bit
//! for bit, however the values were split.
//!
//! The scan rests on one observation: a value's full-precision bin and
//! its level on every candidate grid are all non-decreasing step
//! functions of the value. The scan computes one of them arithmetically,
//! the *base* — whichever has the most distinct values on the sample's
//! range: the fine bins, or the widest grid's levels. The others change
//! value at most a few times inside one base cell, at thresholds that are
//! exact `f32`s, found once per map by searching out one ULP at a time
//! from each analytic boundary. A value then lands in one counter: its
//! base cell, and how many of that cell's thresholds it reaches. Base
//! cells are computed a block of values at a time with no per-value
//! branch — NaN's cell is selected after the arithmetic, not around it —
//! so the division vectorizes; only the threshold comparisons and the
//! increment run value by value. After the scan, a walk over the counters
//! in value order rebuilds the full-precision histogram and every grid's
//! histogram on the same bins; NaN values, kept in a counter of their
//! own, join bin 0 and the zero point's bin, where the oracle puts them.
//!
//! Each threshold is the least `f32` at which its step function —
//! evaluated with the oracle's own arithmetic (`Histogram::build_in_range`'s
//! bin formula, [`QuantParams::quantize`]) — reaches the next value, so
//! the counts are those of evaluating every function on every value, and
//! the results are **bit-identical** to [`naive`]. The proptest parity
//! suite (`tests/entropy_parity.rs`) pins that permanently. Grids wider
//! than 16 bits are rejected: their level tables would not fit.

use quantmcu_tensor::stats::Histogram;
use quantmcu_tensor::{Bitwidth, QuantParams};

use crate::error::QuantError;

/// The textbook multi-pass evaluation, retained verbatim as the parity
/// oracle for the counting engine (see the [module docs](self)).
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
/// [`QuantError::MalformedInput`] for more than 2²² bins or a grid wider
/// than 16 bits.
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
/// [`QuantError::MalformedInput`] for more than 2²² bins or a grid wider
/// than 16 bits.
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
/// empty and [`QuantError::MalformedInput`] for more than 2²² bins or a
/// grid wider than 16 bits.
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

/// One feature map's table row: `(H, ΔH per candidate)` through the counting
/// engine — [`Sample::table_row`] on a one-segment sample.
///
/// # Errors
///
/// Returns [`QuantError::Statistics`] for an empty sample and
/// [`QuantError::MalformedInput`] for more than 2²² bins or a grid wider
/// than 16 bits.
pub fn table_row(
    values: &[f32],
    candidates: &[Bitwidth],
    k: usize,
) -> Result<(f64, Vec<f64>), QuantError> {
    Sample::new(&[values]).table_row(candidates, k)
}

/// Values per block of the counting scan: small enough that a block's
/// clamped values and cell indices stay in L1, large enough that the
/// compiler vectorizes the cell arithmetic over it.
const BLOCK: usize = 64;

/// Independent lanes of the min/max fold, which let the compiler vectorize
/// it.
const LANES: usize = 16;

/// The min/max fold of [`Sample::new`], fed a sample's values in pieces —
/// in order, or folded per piece and [merged](RangeFold::merge) in order —
/// so a caller that streams values need not keep them. Any split of a
/// sample folds to the range of the whole, bit for bit.
#[derive(Debug, Clone)]
pub struct RangeFold {
    lo: [f32; LANES],
    hi: [f32; LANES],
    len: usize,
    /// The first zero of the first piece after which the running min or
    /// max was a zero: the sample's first zero whenever its min or max is
    /// one (then every value lies on one side of zero, so the first piece
    /// holding a zero makes it an extreme).
    first_zero: Option<f32>,
}

impl Default for RangeFold {
    fn default() -> Self {
        RangeFold {
            lo: [f32::INFINITY; LANES],
            hi: [f32::NEG_INFINITY; LANES],
            len: 0,
            first_zero: None,
        }
    }
}

impl RangeFold {
    /// An empty fold: range `(+∞, −∞)`.
    pub fn new() -> Self {
        RangeFold::default()
    }

    /// Folds the next values of the sample.
    pub fn feed(&mut self, values: &[f32]) {
        // A lane skips NaN the way the in-order fold does (a comparison
        // with NaN is false); visiting values out of order can only change
        // the sign of a zero extreme, which `range` restores.
        self.len += values.len();
        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            for ((l, h), &v) in self.lo.iter_mut().zip(&mut self.hi).zip(chunk) {
                *l = if v < *l { v } else { *l };
                *h = if v > *h { v } else { *h };
            }
        }
        for &v in chunks.remainder() {
            self.lo[0] = if v < self.lo[0] { v } else { self.lo[0] };
            self.hi[0] = if v > self.hi[0] { v } else { self.hi[0] };
        }
        if self.first_zero.is_none() {
            let (lo, hi) = self.lanes();
            if lo == 0.0 || hi == 0.0 {
                self.first_zero = values.iter().copied().find(|&v| v == 0.0);
            }
        }
    }

    /// Folds in `later`, the fold of the values that follow this fold's.
    pub fn merge(&mut self, later: &RangeFold) {
        for (l, &v) in self.lo.iter_mut().zip(&later.lo) {
            *l = if v < *l { v } else { *l };
        }
        for (h, &v) in self.hi.iter_mut().zip(&later.hi) {
            *h = if v > *h { v } else { *h };
        }
        self.len += later.len;
        self.first_zero = self.first_zero.or(later.first_zero);
    }

    /// How many values were folded, NaN included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value was folded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(min, max)` over the non-NaN values, as the in-order fold
    /// `stats::moments` makes with `f32::min`/`f32::max`, where a tie keeps
    /// the earlier value — so a zero extreme carries the sign of the
    /// sample's first zero. `(+∞, −∞)` when there are none.
    pub fn range(&self) -> (f32, f32) {
        let (mut lo, mut hi) = self.lanes();
        // In order, the first zero replaces the running extreme and every
        // later zero ties with it.
        if lo == 0.0 {
            lo = self.first_zero.expect("a zero extreme is a value of the sample");
        }
        if hi == 0.0 {
            hi = self.first_zero.expect("a zero extreme is a value of the sample");
        }
        (lo, hi)
    }

    /// The lanes' min and max, up to the sign of a zero.
    fn lanes(&self) -> (f32, f32) {
        let lo = self.lo.iter().fold(f32::INFINITY, |a, &v| if v < a { v } else { a });
        let hi = self.hi.iter().fold(f32::NEG_INFINITY, |a, &v| if v > a { v } else { a });
        (lo, hi)
    }
}

/// One feature map's sample, held as ordered segments (the planner keeps
/// one buffer per calibration chunk) and read as their concatenation,
/// together with the range the counting scan bins and fits its grids on.
#[derive(Debug)]
pub struct Sample<'a, S> {
    parts: &'a [S],
    len: usize,
    lo: f32,
    hi: f32,
    /// Every value is read as `v.clamp(clamp.0, clamp.1)`; `(−∞, +∞)`
    /// reads it unchanged.
    clamp: (f32, f32),
}

impl<'a, S: AsRef<[f32]>> Sample<'a, S> {
    /// Folds min/max over the concatenated segments with a [`RangeFold`],
    /// skipping NaN values: see [`RangeFold::range`].
    pub fn new(parts: &'a [S]) -> Self {
        let mut fold = RangeFold::new();
        for part in parts {
            fold.feed(part.as_ref());
        }
        let (lo, hi) = fold.range();
        Sample { parts, len: fold.len(), lo, hi, clamp: (f32::NEG_INFINITY, f32::INFINITY) }
    }

    /// The sample read as `v.clamp(lo, hi)` value by value, with no
    /// min/max fold: the range is taken to be `(lo, hi)`. When `lo` and
    /// `hi` are both values of the sample, that is exactly the clamped
    /// values' min and max, up to the sign of a zero end — which no bin
    /// and no grid depends on — so every entropy equals that of the
    /// clamped sample under [`Sample::new`]. For other bounds the scan is
    /// still well-defined, but it bins on `(lo, hi)`, not on the clamped
    /// values' range.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or either is NaN, as [`f32::clamp`] does.
    pub fn clamped(parts: &'a [S], lo: f32, hi: f32) -> Self {
        assert!(lo <= hi, "clamp range [{lo}, {hi}] is empty or NaN");
        let len = parts.iter().map(|p| p.as_ref().len()).sum();
        Sample { parts, len, lo, hi, clamp: (lo, hi) }
    }

    /// `(min, max)` over the non-NaN values; `(+∞, −∞)` when there are
    /// none.
    pub fn range(&self) -> (f32, f32) {
        (self.lo, self.hi)
    }

    /// The map's table row, `(H, ΔH per candidate)`, from one counting
    /// scan ([`Scan`]) over the segments.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] for an empty sample and
    /// [`QuantError::MalformedInput`] for more than 2²² bins or a grid
    /// wider than 16 bits.
    pub fn table_row(
        &self,
        candidates: &[Bitwidth],
        k: usize,
    ) -> Result<(f64, Vec<f64>), QuantError> {
        let (h_full, h_q) = self.entropies(candidates, k)?;
        Ok((h_full, reductions(h_full, h_q)))
    }

    /// `H` at full precision and `H(i, b)` per candidate.
    fn entropies(&self, candidates: &[Bitwidth], k: usize) -> Result<(f64, Vec<f64>), QuantError> {
        if self.len == 0 {
            // The naive path surfaces this from `stats::moments`.
            return Err(quantmcu_tensor::TensorError::EmptyTensor.into());
        }
        let scan = Scan::build((self.lo, self.hi), self.clamp, candidates, k)?;
        let mut counts = scan.counts();
        for part in self.parts {
            scan.feed(&mut counts, part.as_ref());
        }
        scan.entropies(&counts)
    }
}

/// `ΔH` per candidate from `H` and `H(i, b)`, clamped at zero.
fn reductions(h_full: f64, h_q: Vec<f64>) -> Vec<f64> {
    h_q.into_iter().map(|h| (h_full - h).max(0.0)).collect()
}

/// The counting scan of [`Sample::table_row`], planned once from a map's
/// range and fed its values in pieces: each piece lands in a [`Counts`],
/// and the counts of any split of a sample — pieces fed in any order, or
/// counted apart and [merged](Counts::merge) — are the counts of the
/// whole, exactly. A caller that streams values can so build a row without
/// keeping them, as long as it knows the range before the values come.
#[derive(Debug)]
pub struct Scan {
    lo: f32,
    hi: f32,
    /// Every value is read as `v.clamp(clamp.0, clamp.1)`; `(−∞, +∞)`
    /// reads it unchanged.
    clamp: (f32, f32),
    steps: Vec<Step>,
    cells: Cells,
}

/// A [`Scan`]'s counters: one per (cell, thresholds reached), plus the
/// number of values counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    counts: Vec<u64>,
    len: usize,
}

impl Counts {
    /// Adds `other`'s counters, which must come from the same [`Scan`].
    ///
    /// # Panics
    ///
    /// Panics when the two were made by scans of different shapes.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.counts.len(), other.counts.len(), "counts of different scans");
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.len += other.len;
    }

    /// How many values were counted, NaN included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value was counted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Scan {
    /// Plans the scan of a sample whose [`RangeFold::range`] is `range`,
    /// for the bin count `k` and the candidate grids.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::MalformedInput`] for more than 2²² bins or a
    /// grid wider than 16 bits, and [`QuantError::Statistics`] when a
    /// candidate grid cannot be fitted on `range` (one end not finite).
    pub fn new(range: (f32, f32), candidates: &[Bitwidth], k: usize) -> Result<Self, QuantError> {
        Scan::build(range, (f32::NEG_INFINITY, f32::INFINITY), candidates, k)
    }

    fn build(
        (lo, hi): (f32, f32),
        clamp: (f32, f32),
        candidates: &[Bitwidth],
        k: usize,
    ) -> Result<Self, QuantError> {
        if k > MAX_BINS {
            return Err(QuantError::MalformedInput { detail: "more than 2^22 histogram bins" });
        }
        let mut steps = vec![Step::Bin(Bins::new(lo, hi, k))];
        for &b in candidates {
            let params = QuantParams::from_min_max(lo, hi, b)?;
            if b.bits() > MAX_GRID_BITS {
                return Err(QuantError::MalformedInput { detail: "grid wider than 16 bits" });
            }
            steps.push(Step::Level(params));
        }
        let cells = Cells::plan(&steps, lo, hi);
        Ok(Scan { lo, hi, clamp, steps, cells })
    }

    /// Zeroed counters for this scan.
    pub fn counts(&self) -> Counts {
        Counts { counts: vec![0; (self.cells.count + 1) * (self.cells.width + 1)], len: 0 }
    }

    /// Counts `values` into `counts`, which must come from this scan.
    ///
    /// # Panics
    ///
    /// Panics when `counts` was made by a scan of another shape.
    pub fn feed(&self, counts: &mut Counts, values: &[f32]) {
        assert_eq!(counts.counts.len(), (self.cells.count + 1) * (self.cells.width + 1));
        counts.len += values.len();
        let base = &self.steps[self.cells.base];
        match self.cells.width {
            // Literal widths let the compiler unroll the threshold
            // comparisons of the common cases.
            0 => self.count(base, &mut counts.counts, values, 0),
            1 => self.count(base, &mut counts.counts, values, 1),
            2 => self.count(base, &mut counts.counts, values, 2),
            3 => self.count(base, &mut counts.counts, values, 3),
            width => self.count(base, &mut counts.counts, values, width),
        }
    }

    /// The row, `(H, ΔH per candidate)`, of the values counted into
    /// `counts`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Statistics`] when nothing was counted.
    pub fn row(&self, counts: &Counts) -> Result<(f64, Vec<f64>), QuantError> {
        if counts.is_empty() {
            return Err(quantmcu_tensor::TensorError::EmptyTensor.into());
        }
        let (h_full, h_q) = self.entropies(counts)?;
        Ok((h_full, reductions(h_full, h_q)))
    }

    /// `H` at full precision and `H(i, b)` per candidate from the counters.
    fn entropies(&self, counts: &Counts) -> Result<(f64, Vec<f64>), QuantError> {
        let hists = self.cells.tally(&self.steps, &counts.counts, self.lo);
        debug_assert!(hists.iter().all(|h| h.iter().sum::<u64>() == counts.len as u64));
        let mut h =
            hists.into_iter().map(|h| Histogram::from_counts(h, self.lo, self.hi).entropy());
        let full = h.next().expect("the bin step comes first");
        Ok((full, h.collect()))
    }

    /// One piece of the scan: one base cell per value, computed
    /// arithmetically and branch-free for a block at a time, then one
    /// counter per value at `cell · (width + 1) + r`, where `r` counts the
    /// cell's thresholds at or below the value.
    #[inline(always)]
    fn count(&self, base: &Step, counts: &mut [u64], values: &[f32], width: usize) {
        let cells = &self.cells;
        let stride = width + 1;
        let nan_cell = cells.count as u32;
        let (lo, hi) = self.clamp;
        let mut clamped = [0f32; BLOCK];
        let mut index = [0u32; BLOCK];
        let mut levels = [0i32; BLOCK];
        // `f32::clamp`'s comparisons: NaN passes through.
        let clamp = |v: f32| {
            let v = if v < lo { lo } else { v };
            if v > hi {
                hi
            } else {
                v
            }
        };
        for block in values.chunks(BLOCK) {
            let index = &mut index[..block.len()];
            match base {
                Step::Bin(bins) => {
                    for (c, &v) in index.iter_mut().zip(block) {
                        *c = bins.index(clamp(v));
                    }
                }
                Step::Level(params) => {
                    let clamped = &mut clamped[..block.len()];
                    for (x, &v) in clamped.iter_mut().zip(block) {
                        *x = clamp(v);
                    }
                    let levels = &mut levels[..block.len()];
                    let qmin = params.bitwidth().min_value();
                    params.quantize_slice(clamped, levels);
                    for (c, &q) in index.iter_mut().zip(levels.iter()) {
                        *c = q.wrapping_sub(qmin) as u32;
                    }
                }
            }
            // NaN's cell is selected after every lane's cell is computed:
            // a per-value branch around the arithmetic keeps it scalar.
            for (c, &v) in index.iter_mut().zip(block) {
                *c = if v.is_nan() { nan_cell } else { *c };
            }
            // Every threshold lies in `(lo, hi]`, where a value and its
            // clamp compare alike; the `+∞` padding is reached only by `+∞`,
            // which the walk counts at its cell's last threshold.
            for (&c, &v) in index.iter().zip(block) {
                let c = c as usize;
                let at = &cells.thresholds[c * width..c * width + width];
                let r: usize = at.iter().map(|&t| (v >= t) as usize).sum();
                counts[c * stride + r] += 1;
            }
        }
    }
}

/// Grids up to this many bits are scanned; a 32-bit grid has more levels
/// than any counter table can hold (and `QuantParams::quantize` overflows
/// its `i32` grid there).
const MAX_GRID_BITS: u32 = 16;

/// `k` uniform bins over a map's `[lo, hi]`, as
/// `Histogram::build_in_range` lays them out.
#[derive(Debug, Clone, Copy)]
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

/// The largest bin count the engine takes: every bin index, and `k − 1`
/// itself, stays below 2²², where [`round_even`] and [`to_int`] are
/// exact.
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

/// One of the monotone step functions a value is counted under: its bin
/// on the full-precision support, or its level on a candidate grid. Both
/// are non-decreasing in `v` and give `−0.0` and `+0.0` the same value.
#[derive(Debug, Clone, Copy)]
enum Step {
    Bin(Bins),
    Level(QuantParams),
}

impl Step {
    /// The step's value at `v`: `Histogram::build_in_range`'s bin, or
    /// `QuantParams::quantize`'s level.
    fn at(&self, v: f32) -> i32 {
        match self {
            Step::Bin(bins) => bins.index(v) as i32,
            Step::Level(params) => params.quantize(v),
        }
    }

    /// The scan's cell for a value whose step value is `value` (bins count
    /// from 0, levels from the grid's minimum), and its inverse.
    fn cell(&self, value: i32) -> usize {
        match self {
            Step::Bin(_) => value as usize,
            Step::Level(params) => (value - params.bitwidth().min_value()) as usize,
        }
    }

    fn value(&self, cell: usize) -> i32 {
        match self {
            Step::Bin(_) => cell as i32,
            Step::Level(params) => cell as i32 + params.bitwidth().min_value(),
        }
    }

    /// Every value the step can take: `k` bins or `2^bits` levels.
    fn cells(&self) -> usize {
        match self {
            Step::Bin(bins) => bins.k,
            Step::Level(params) => 1 << params.bitwidth().bits(),
        }
    }

    /// Where the step reaches `s` in exact arithmetic — the start for the
    /// exact search in [`threshold`]. A level's boundary is the half-level
    /// tie below it.
    fn boundary(&self, s: i32) -> f64 {
        match self {
            Step::Bin(bins) => bins.lo as f64 + s as f64 * bins.span as f64 / bins.k as f64,
            Step::Level(p) => ((s - p.zero_point()) as f64 - 0.5) * p.scale() as f64,
        }
    }

    /// The histogram bin a value with step value `value` counts in.
    fn bin(&self, bins: &Bins, value: i32) -> usize {
        match self {
            Step::Bin(_) => value as usize,
            Step::Level(params) => bins.index(params.dequantize(value)) as usize,
        }
    }
}

/// The counting plan of one sample. The scan computes one step function
/// arithmetically, the *base* — the one with the most distinct values on
/// `[lo, hi]` — and splits each of its cells at the exact thresholds
/// where another step function changes value inside it. Within a cell,
/// the joint value of every step is then fixed by how many of the cell's
/// thresholds a value reaches, so one counter per (cell, count) holds the
/// whole joint histogram.
#[derive(Debug)]
struct Cells {
    /// Index of the base into the step list.
    base: usize,
    /// The base's cell count; cell `count` collects NaN.
    count: usize,
    /// The most thresholds any cell holds.
    width: usize,
    /// `width` ascending thresholds per cell (NaN's cell included), padded
    /// with `+∞`, which only `+∞` itself reaches: read clamped to a finite
    /// range, it lands in the top cell's first padding slot.
    thresholds: Vec<f32>,
    /// Where each other step changes value, ordered by cell, then by
    /// threshold; `at` is `−∞` when the change falls on the cell's lowest
    /// value, so the whole cell sees it.
    events: Vec<Event>,
}

/// Step `step` takes `value` from `at` on, in base cell `cell`.
#[derive(Debug)]
struct Event {
    cell: usize,
    at: f32,
    step: usize,
    value: i32,
}

impl Cells {
    /// Plans the scan of values in `[lo, hi]` (or NaN). Each threshold is
    /// found once per map, by an exact search from its analytic boundary.
    fn plan(steps: &[Step], lo: f32, hi: f32) -> Cells {
        // With a candidate grid, `QuantParams::from_min_max` has already
        // proven `[lo, hi]` finite; without one, the bin step is alone.
        let spread = |s: &Step| if steps.len() > 1 { s.at(hi) - s.at(lo) } else { 0 };
        let mut base = 0;
        for (j, step) in steps.iter().enumerate() {
            if spread(step) > spread(&steps[base]) {
                base = j;
            }
        }
        let b = &steps[base];
        let mut events = Vec::new();
        for (j, step) in steps.iter().enumerate().filter(|&(j, _)| j != base) {
            let first = events.len();
            for s in step.at(lo) + 1..=step.at(hi) {
                let t = threshold(step, s, lo, hi);
                match events[first..].last_mut() {
                    // A step that jumps several values at one float.
                    Some(Event { at, value, .. }) if at.to_bits() == t.to_bits() => *value = s,
                    _ => events.push(Event { cell: 0, at: t, step: j, value: s }),
                }
            }
        }
        // Place each threshold in its base cell; one on the cell's lowest
        // value (`t > lo`, so `t` has a predecessor in `[lo, t)`) applies
        // to the whole cell.
        for e in &mut events {
            let cell = b.at(e.at);
            if b.at(from_key(key(e.at) - 1)) < cell {
                e.at = f32::NEG_INFINITY;
            }
            e.cell = b.cell(cell);
        }
        events.sort_by(|x, y| x.cell.cmp(&y.cell).then(x.at.total_cmp(&y.at)));
        // The distinct thresholds inside each cell, in order: `(cell,
        // position in the cell, threshold)`.
        let mut inner: Vec<(usize, usize, f32)> = Vec::new();
        for e in events.iter().filter(|e| e.at > f32::NEG_INFINITY) {
            match inner.last() {
                Some(&(cell, _, at)) if cell == e.cell && at == e.at => {}
                Some(&(cell, r, _)) if cell == e.cell => inner.push((cell, r + 1, e.at)),
                _ => inner.push((e.cell, 0, e.at)),
            }
        }
        let count = b.cells();
        let width = inner.iter().map(|&(_, r, _)| r + 1).max().unwrap_or(0);
        let mut thresholds = vec![f32::INFINITY; (count + 1) * width];
        for (cell, r, at) in inner {
            thresholds[cell * width + r] = at;
        }
        Cells { base, count, width, thresholds, events }
    }

    /// Turns the scan's counters into one bin-count vector per step (the
    /// full-precision histogram first, then one per grid), walking the
    /// cells in order and applying each event where its threshold falls.
    fn tally(&self, steps: &[Step], counts: &[u64], lo: f32) -> Vec<Vec<u64>> {
        let Step::Bin(bins) = steps[0] else { unreachable!("the bin step comes first") };
        let stride = self.width + 1;
        let mut hists = vec![vec![0u64; bins.k]; steps.len()];
        // Each step's bin at the walk's position, recomputed only where the
        // step changes value.
        let mut bin: Vec<usize> = steps.iter().map(|s| s.bin(&bins, s.at(lo))).collect();
        let base = &steps[self.base];
        let mut events = self.events.iter().peekable();
        for cell in 0..self.count {
            bin[self.base] = base.bin(&bins, base.value(cell));
            let at = &self.thresholds[cell * self.width..(cell + 1) * self.width];
            let slots = &counts[cell * stride..(cell + 1) * stride];
            for r in 0..stride {
                let from = if r == 0 { f32::NEG_INFINITY } else { at[r - 1] };
                while let Some(e) = events.next_if(|e| e.cell == cell && e.at == from) {
                    bin[e.step] = steps[e.step].bin(&bins, e.value);
                }
                // From the first padding slot on, no event fires (every
                // threshold is finite), so the cell's remaining slots —
                // where only a clamped read's `+∞` lands — share one state.
                let padding = from == f32::INFINITY;
                let n = if padding { slots[r..].iter().sum() } else { slots[r] };
                if n > 0 {
                    for (hist, &b) in hists.iter_mut().zip(&bin) {
                        hist[b] += n;
                    }
                }
                if padding {
                    break;
                }
            }
        }
        debug_assert!(events.next().is_none(), "every event lies in a cell");
        // NaN: bin 0 at full precision (`floor(NaN) as i64` is 0), the
        // zero point's bin on every grid (`quantize(NaN)` is the zero
        // point).
        let nan = counts[self.count * stride];
        for (hist, step) in hists.iter_mut().zip(steps) {
            let bin = match step {
                Step::Bin(_) => 0,
                Step::Level(params) => step.bin(&bins, params.zero_point()),
            };
            hist[bin] += nan;
        }
        hists
    }
}

/// The smallest non-NaN `f32` at which `step` reaches `s`, given
/// `step.at(lo) < s <= step.at(hi)`. The search starts from the analytic
/// boundary and steps outward one ULP, doubling the step until it
/// brackets the threshold, then bisects: a few evaluations when the
/// boundary is near, as it is unless the cells are only a few ULPs wide.
fn threshold(step: &Step, s: i32, lo: f32, hi: f32) -> f32 {
    let reaches = |k: i64| step.at(from_key(k)) >= s;
    // Invariant: `below` does not reach `s`, `above` does.
    let (mut below, mut above) = (key(lo), key(hi));
    // `max`/`min` also send a NaN boundary to `lo`.
    let guess = key((step.boundary(s) as f32).max(lo).min(hi));
    let mut d = 1;
    if reaches(guess) {
        above = guess;
        while above - d > below && reaches(above - d) {
            above -= d;
            d *= 2;
        }
        below = below.max(above - d);
    } else {
        below = below.max(guess);
        while below + d < above && !reaches(below + d) {
            below += d;
            d *= 2;
        }
        above = above.min(below + d);
    }
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        if reaches(mid) {
            above = mid;
        } else {
            below = mid;
        }
    }
    from_key(above)
}

/// `v`'s position in the total order of non-NaN `f32`s (`−0.0` just below
/// `+0.0`), as an integer: consecutive floats have consecutive keys.
fn key(v: f32) -> i64 {
    let b = v.to_bits() as i32;
    (b ^ (((b >> 31) as u32) >> 1) as i32) as i64
}

/// The `f32` at position `k` of [`key`]'s order.
fn from_key(k: i64) -> f32 {
    let k = k as i32;
    f32::from_bits((k ^ (((k >> 31) as u32) >> 1) as i32) as u32)
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
        // W16 has 65536 levels, far more than the 256 bins, so its levels
        // are the scan's base and the bins become thresholds inside them.
        let v = rich_signal();
        let b = Bitwidth::W16;
        let fast = quantized_entropy(&v, b, 256).unwrap();
        let slow = naive::quantized_entropy(&v, b, 256).unwrap();
        assert_eq!(fast.to_bits(), slow.to_bits(), "{b} diverged from the oracle");
        // W32 is rejected: its level table would not fit, and
        // `QuantParams::quantize` overflows its i32 grid there.
        let err = quantized_entropy(&v, Bitwidth::W32, 256).unwrap_err();
        assert!(matches!(err, QuantError::MalformedInput { .. }), "{err:?}");
    }

    #[test]
    fn the_base_is_the_step_with_the_most_values() {
        let v = rich_signal();
        let (lo, hi) = Sample::new(&[&v[..]]).range();
        let plan = |k: usize, grids: &[Bitwidth]| {
            let mut steps = vec![Step::Bin(Bins::new(lo, hi, k))];
            steps.extend(
                grids.iter().map(|&b| Step::Level(QuantParams::from_min_max(lo, hi, b).unwrap())),
            );
            Cells::plan(&steps, lo, hi)
        };
        // The tail's 512 bins are finer than W8's levels; every bin then
        // holds at most one W8 and one W4 step.
        let tail = plan(512, &[Bitwidth::W8, Bitwidth::W4]);
        assert_eq!((tail.base, tail.width), (0, 2));
        // A branch row's 32 bins are coarser than W8: W8 is the base. (W4
        // and W2 steps fall on W8 steps up to rounding, so the width may
        // be below 3.)
        let branch = plan(32, &Bitwidth::SEARCH_CANDIDATES);
        assert_eq!(branch.base, 1);
        assert!((1..=3).contains(&branch.width), "width {}", branch.width);
        // Equal spreads keep the bins.
        assert_eq!(plan(1, &[]).base, 0);
    }

    #[test]
    fn thresholds_are_the_least_float_reaching_each_value() {
        let v = rich_signal();
        let (lo, hi) = Sample::new(&[&v[..]]).range();
        let steps = [
            Step::Bin(Bins::new(lo, hi, 512)),
            Step::Level(QuantParams::from_min_max(lo, hi, Bitwidth::W4).unwrap()),
        ];
        for step in &steps {
            for s in step.at(lo) + 1..=step.at(hi) {
                let t = threshold(step, s, lo, hi);
                assert!(step.at(t) >= s, "{step:?} misses {s} at {t}");
                assert!(step.at(from_key(key(t) - 1)) < s, "{step:?} reaches {s} below {t}");
            }
        }
        // The key order is the float order, with −0 just below +0.
        for x in [-3.5f32, -0.0, 0.0, 1e-45, 2.0, f32::INFINITY] {
            assert_eq!(from_key(key(x)).to_bits(), x.to_bits());
        }
        assert_eq!(key(0.0) - key(-0.0), 1);
        assert_eq!(from_key(key(1.0) + 1), 1.0 + f32::EPSILON);
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
