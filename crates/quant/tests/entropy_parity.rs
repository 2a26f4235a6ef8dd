//! Property tests pinning the counting entropy engine **bit-identical**
//! to the retained `entropy::naive` oracle.
//!
//! The engine replaces naive's `3 + 7·C` passes per feature map (moments
//! re-scans, dequantized `Vec<f32>` copies, fresh histograms) with at most
//! one min/max fold and one scan that computes one step function per
//! value — the fine bin or the finest grid's level — and finds every other
//! bin and level from exact per-cell thresholds, reading the sample as
//! ordered segments, optionally clamped as it reads. Every output must
//! match to the last mantissa bit across arbitrary samples,
//! segmentations, candidate sets, bin counts and clamp ranges, including
//! bin counts that collide with a grid's level count. This is the
//! contract that lets the planner swap the fast path in without
//! perturbing a single deployment plan.

use proptest::prelude::*;

use quantmcu_quant::entropy::{self, naive, Sample};
use quantmcu_quant::QuantError;
use quantmcu_tensor::{Bitwidth, TensorError};

/// Deterministic pseudo-random sample with tunable spread and offset;
/// optionally salted with NaN values (which the range fold and the bin
/// clamp must treat exactly as the oracle does).
fn sample(len: usize, seed: u64, spread: f32, offset: f32, nans: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((x >> 16) as f32 * 1e-6).sin() * spread + offset
        })
        .collect();
    for j in 0..nans.min(len) {
        let at = ((seed as usize).wrapping_mul(31).wrapping_add(j * 97)) % len;
        v[at] = f32::NAN;
    }
    v
}

/// Seeded 64-bit mixer (SplitMix64's finalizer).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A sample on the edges the engine's arithmetic must get exactly right.
/// The range is `[qmin·s, qmax·s]` of `tie_bits` with `s = 2^exp`, so that
/// grid's scale is exactly `s`, its zero point 0, and `(n + ½)·s` lies
/// exactly on a half-level tie for every level `n`. Around the ties: both
/// range ends, masses of `+0.0`, `-0.0` and of the top value (what ReLU6
/// maps hold), uniform values in between, and `nans` NaNs.
fn edge_sample(len: usize, seed: u64, exp: i32, tie_bits: Bitwidth, nans: usize) -> Vec<f32> {
    let s = 2f32.powi(exp);
    let (qmin, qmax) = (tie_bits.min_value(), tie_bits.max_value());
    let (lo, hi) = (qmin as f32 * s, qmax as f32 * s);
    let mut v = vec![lo, hi];
    v.extend((qmin..qmax).map(|n| (n as f32 + 0.5) * s));
    for i in 0..len as u64 {
        let r = mix(seed ^ (i << 8));
        v.push(match r % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => hi,
            _ => lo + (hi - lo) * ((r >> 11) as f32 / (1u64 << 53) as f32),
        });
    }
    for j in 0..nans {
        let at = mix(seed.wrapping_add(j as u64)) as usize % v.len();
        v[at] = f32::NAN;
    }
    // Shuffle so ties, zeros and range ends spread across segments.
    for i in (1..v.len()).rev() {
        v.swap(i, mix(seed ^ i as u64) as usize % (i + 1));
    }
    v
}

/// Splits `v` into `n` segments at seeded cut points; cut points may
/// coincide, so some segments are empty.
fn split(v: &[f32], n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut cuts: Vec<usize> =
        (1..n).map(|j| mix(seed.wrapping_mul(31) + j as u64) as usize % (v.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(v.len());
    let mut start = 0;
    cuts.into_iter()
        .map(|end| {
            let part = v[start..end].to_vec();
            start = end;
            part
        })
        .collect()
}

/// Bit-level equality for f64 — `==` would paper over -0.0 vs 0.0.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_rows_match_naive_bit_for_bit(
        len in 1usize..3000,
        seed in 0u64..10_000,
        spread in prop::sample::select(vec![1e-6f32, 0.5, 3.0, 1000.0]),
        offset in prop::sample::select(vec![-5.0f32, 0.0, 0.25, 100.0]),
        k in prop::sample::select(vec![1usize, 2, 31, 32, 512, 513]),
        nans in 0usize..3,
    ) {
        let v = sample(len, seed, spread, offset, nans);
        let candidates = [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2];
        let (h_fast, row_fast) = entropy::table_row(&v, &candidates, k).unwrap();
        let (h_slow, row_slow) = naive::table_row(&v, &candidates, k).unwrap();
        prop_assert!(bits_eq(h_fast, h_slow), "H diverged: {h_fast} vs {h_slow}");
        for (j, (f, s)) in row_fast.iter().zip(&row_slow).enumerate() {
            prop_assert!(bits_eq(*f, *s), "ΔH[{j}] diverged: {f} vs {s}");
        }
    }

    #[test]
    fn fused_tables_match_naive_bit_for_bit(
        maps in 1usize..6,
        len in 1usize..800,
        seed in 0u64..10_000,
        k in prop::sample::select(vec![1usize, 32, 512]),
    ) {
        let fms: Vec<Vec<f32>> = (0..maps)
            .map(|m| sample(len, seed ^ (m as u64 * 0x9E37), 1.0 + m as f32, -0.5, 0))
            .collect();
        let fast = entropy::build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, k).unwrap();
        let slow = naive::build_table(&fms, &Bitwidth::SEARCH_CANDIDATES, k).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn segmented_rows_match_naive_on_the_concatenation(
        len in 0usize..2500,
        seed in 0u64..10_000,
        exp in -12i32..4,
        tie_bits in prop::sample::select(vec![Bitwidth::W2, Bitwidth::W4, Bitwidth::W8]),
        k in prop::sample::select(vec![1usize, 2, 31, 32, 512, 513]),
        segments in 1usize..6,
        nans in 0usize..3,
    ) {
        let v = edge_sample(len, seed, exp, tie_bits, nans);
        let parts = split(&v, segments, seed);
        let candidates = [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2, Bitwidth::W16];
        let (h_fast, row_fast) = Sample::new(&parts).table_row(&candidates, k).unwrap();
        let (h_slow, row_slow) = naive::table_row(&v, &candidates, k).unwrap();
        prop_assert!(bits_eq(h_fast, h_slow), "H diverged: {h_fast} vs {h_slow}");
        for (b, (f, s)) in candidates.iter().zip(row_fast.iter().zip(&row_slow)) {
            prop_assert!(bits_eq(*f, *s), "ΔH at {b} diverged: {f} vs {s}");
        }
    }

    #[test]
    fn constant_and_degenerate_samples_agree(
        len in 1usize..64,
        value in prop::sample::select(vec![0.0f32, -0.0, 1.0, -3.5, 1e-30, 1e30]),
        k in prop::sample::select(vec![1usize, 7, 64]),
    ) {
        let v = vec![value; len];
        for b in Bitwidth::SEARCH_CANDIDATES {
            let fast = entropy::entropy_reduction(&v, b, k).unwrap();
            let slow = naive::entropy_reduction(&v, b, k).unwrap();
            prop_assert!(bits_eq(fast, slow), "{b} diverged on constant {value}: {fast} vs {slow}");
        }
    }
}

/// Asserts that `sample`'s row equals the oracle's row of `values`, bit
/// for bit.
fn check_row(
    sample: Sample<'_, Vec<f32>>,
    values: &[f32],
    candidates: &[Bitwidth],
    k: usize,
) -> Result<(), TestCaseError> {
    let (h_fast, row_fast) = sample.table_row(candidates, k).unwrap();
    let (h_slow, row_slow) = naive::table_row(values, candidates, k).unwrap();
    prop_assert!(bits_eq(h_fast, h_slow), "H diverged: {h_fast} vs {h_slow}");
    for (b, (f, s)) in candidates.iter().zip(row_fast.iter().zip(&row_slow)) {
        prop_assert!(bits_eq(*f, *s), "ΔH at {b} diverged: {f} vs {s}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The planner's tail configuration: 512 bins, W8 and W4, and the
    /// sample read clamped to a range whose ends are values of the sample
    /// (the percentile clip), with no min/max fold. The oracle sees the
    /// clamped values.
    #[test]
    fn clamped_tail_rows_match_naive_on_the_clamped_values(
        len in 1usize..3000,
        seed in 0u64..10_000,
        exp in -12i32..4,
        tie_bits in prop::sample::select(vec![Bitwidth::W4, Bitwidth::W8]),
        end_a in 0usize..1000,
        end_b in 0usize..1000,
        segments in 1usize..6,
        nans in 0usize..3,
    ) {
        let v = edge_sample(len, seed, exp, tie_bits, nans);
        let finite: Vec<f32> = v.iter().copied().filter(|x| !x.is_nan()).collect();
        prop_assume!(!finite.is_empty());
        let (a, b) = (finite[end_a % finite.len()], finite[end_b % finite.len()]);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let parts = split(&v, segments, seed);
        let clamped: Vec<f32> = v.iter().map(|x| x.clamp(lo, hi)).collect();
        let candidates = [Bitwidth::W8, Bitwidth::W4];
        check_row(Sample::clamped(&parts, lo, hi), &clamped, &candidates, 512)?;
    }

    /// Bin counts equal to (or one off) a grid's level count put bin and
    /// level steps on nearly the same values: the scan's base must still
    /// split every cell exactly, clamped or not.
    #[test]
    fn colliding_bin_and_level_counts_match_naive(
        len in 1usize..3000,
        seed in 0u64..10_000,
        exp in -12i32..4,
        collision in prop::sample::select(vec![
            (256usize, Bitwidth::W8),
            (255, Bitwidth::W8),
            (257, Bitwidth::W8),
            (16, Bitwidth::W4),
            (15, Bitwidth::W4),
            (4, Bitwidth::W2),
        ]),
        segments in 1usize..6,
        nans in 0usize..3,
        clamp in 0u64..3,
    ) {
        let (k, bits) = collision;
        let v = edge_sample(len, seed, exp, bits, nans);
        let parts = split(&v, segments, seed);
        for candidates in [&[bits][..], &[Bitwidth::W8, Bitwidth::W4, Bitwidth::W2]] {
            if clamp == 0 {
                check_row(Sample::new(&parts), &v, candidates, k)?;
            } else {
                // Clamp to the range of a middle slice of the sample.
                let mid: Vec<f32> = v[v.len() / 4..v.len() / 4 * 3 + 1]
                    .iter()
                    .copied()
                    .filter(|x| !x.is_nan())
                    .collect();
                prop_assume!(!mid.is_empty());
                let lo = mid.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = mid.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let clamped: Vec<f32> = v.iter().map(|x| x.clamp(lo, hi)).collect();
                check_row(Sample::clamped(&parts, lo, hi), &clamped, candidates, k)?;
            }
        }
    }
}

#[test]
fn all_empty_segments_are_an_empty_tensor() {
    let none: [Vec<f32>; 0] = [];
    for parts in [&none[..], &[Vec::new(), Vec::new(), Vec::new()][..]] {
        let err = Sample::new(parts).table_row(&Bitwidth::SEARCH_CANDIDATES, 32).unwrap_err();
        assert_eq!(err, QuantError::Statistics(TensorError::EmptyTensor));
    }
    let oracle = naive::table_row(&[], &Bitwidth::SEARCH_CANDIDATES, 32).unwrap_err();
    assert_eq!(oracle, QuantError::Statistics(TensorError::EmptyTensor));
}
