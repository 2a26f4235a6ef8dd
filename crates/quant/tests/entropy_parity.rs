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

use quantmcu_quant::entropy::{self, naive, Sample, Scan};
use quantmcu_quant::QuantError;
use quantmcu_tensor::stats::Histogram;
use quantmcu_tensor::{Bitwidth, QuantParams, TensorError};

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

/// Values per block of the counting scan (`entropy::BLOCK`): the lengths
/// below put the end of a sample just short of, on, and just past a block
/// edge, and two blocks plus a remainder.
const BLOCK: usize = 64;

/// `v`'s position in the total order of non-NaN `f32`s, `−0.0` just below
/// `+0.0`: consecutive floats have consecutive keys.
fn key(v: f32) -> i64 {
    let b = v.to_bits() as i32;
    (b ^ (((b >> 31) as u32) >> 1) as i32) as i64
}

/// The `f32` at position `k` of [`key`]'s order.
fn from_key(k: i64) -> f32 {
    let k = k as i32;
    f32::from_bits((k ^ (((k >> 31) as u32) >> 1) as i32) as u32)
}

/// Every least `f32` in `(lo, hi]` at which the non-decreasing step `f`
/// exceeds its value just below, found by bisection over [`key`]s.
fn steps_of(lo: f32, hi: f32, f: impl Fn(f32) -> i64) -> Vec<f32> {
    let mut at = Vec::new();
    let mut below = key(lo);
    while f(hi) > f(from_key(below)) {
        let (mut b, mut a) = (below, key(hi));
        let level = f(from_key(below));
        while a - b > 1 {
            let mid = b + (a - b) / 2;
            if f(from_key(mid)) > level {
                a = mid;
            } else {
                b = mid;
            }
        }
        at.push(from_key(a));
        below = a;
    }
    at
}

/// Values at every edge of a scan over `[lo, hi]`: both ends, `±0.0`, and
/// every bin's and every grid level's threshold, each with the float just
/// below it. Bins and levels come from the oracle's own arithmetic
/// (`Histogram::build_in_range`, `QuantParams::quantize`).
fn edge_values(lo: f32, hi: f32, candidates: &[Bitwidth], k: usize) -> Vec<f32> {
    let bin = |v: f32| {
        let h = Histogram::build_in_range(&[v], k, lo, hi);
        h.counts().iter().position(|&c| c == 1).expect("one value, one bin") as i64
    };
    let mut thresholds = steps_of(lo, hi, bin);
    for &b in candidates {
        let params = QuantParams::from_min_max(lo, hi, b).unwrap();
        thresholds.extend(steps_of(lo, hi, |v| params.quantize(v) as i64));
    }
    let mut pool = vec![lo, hi, 0.0, -0.0];
    for t in thresholds {
        pool.extend([t, from_key(key(t) - 1)]);
    }
    pool
}

/// Asserts two rows equal bit for bit.
fn assert_rows(fast: (f64, Vec<f64>), slow: (f64, Vec<f64>), what: &str) {
    assert!(bits_eq(fast.0, slow.0), "{what}: H diverged: {} vs {}", fast.0, slow.0);
    assert_eq!(fast.1.len(), slow.1.len(), "{what}: row lengths");
    for (j, (f, s)) in fast.1.iter().zip(&slow.1).enumerate() {
        assert!(bits_eq(*f, *s), "{what}: ΔH[{j}] diverged: {f} vs {s}");
    }
}

/// The scan's block edges — a partial block, one full block, a full block
/// and one value, two blocks and a remainder — with a NaN at every
/// position, and every other value on an edge of the scan's arithmetic:
/// the range ends, `±0.0`, and each bin's and level's threshold. Both
/// bases run: the bins (the tail's 512 bins over W8 and W4) and the
/// levels (a branch's 32 bins over W8, W4 and W2). Each sample is fed
/// whole, one value at a time, and read clamped to its range (with finite
/// values and `±∞` beyond it); every row equals the oracle's, and both
/// feeds count alike.
#[test]
fn block_edges_match_naive_with_a_nan_at_every_position() {
    let configs: [(&[Bitwidth], usize); 2] =
        [(&[Bitwidth::W8, Bitwidth::W4], 512), (&[Bitwidth::W8, Bitwidth::W4, Bitwidth::W2], 32)];
    for (lo, hi) in [(-3.7f32, 5.3f32), (0.0, 6.0)] {
        for (candidates, k) in configs {
            let pool = edge_values(lo, hi, candidates, k);
            let scan = Scan::new((lo, hi), candidates, k).unwrap();
            let mut offset = 0;
            for len in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3] {
                for nan in 0..len {
                    let mut v: Vec<f32> =
                        (0..len).map(|i| pool[(offset + i) % pool.len()]).collect();
                    offset += len;
                    v[(nan + 1) % len] = lo;
                    v[(nan + 2) % len] = hi;
                    v[nan] = f32::NAN;
                    let what = format!("[{lo}, {hi}], k = {k}, len {len}, NaN at {nan}");
                    let oracle = naive::table_row(&v, candidates, k).unwrap();
                    assert_eq!(Sample::new(&[&v[..]]).range(), (lo, hi), "{what}");
                    let row = Sample::new(&[&v[..]]).table_row(candidates, k).unwrap();
                    assert_rows(row, oracle.clone(), &format!("{what}, whole"));

                    let mut whole = scan.counts();
                    scan.feed(&mut whole, &v);
                    let mut each = scan.counts();
                    for x in v.chunks(1) {
                        scan.feed(&mut each, x);
                    }
                    assert_eq!(whole, each, "{what}: counts of one feed and of single values");
                    assert_rows(scan.row(&each).unwrap(), oracle, &format!("{what}, streamed"));

                    // Clamped: values beyond both ends, infinities among
                    // them, read clamped to them. A raw `+∞` reaches the
                    // top cell's `+∞` padding thresholds.
                    v[(nan + 3) % len] = hi + (hi - lo);
                    v[(nan + 4) % len] = lo - (hi - lo);
                    v[(nan + 5) % len] = f32::INFINITY;
                    v[(nan + 6) % len] = f32::NEG_INFINITY;
                    let clamped: Vec<f32> = v.iter().map(|x| x.clamp(lo, hi)).collect();
                    let row = Sample::clamped(&[&v[..]], lo, hi).table_row(candidates, k).unwrap();
                    let oracle = naive::table_row(&clamped, candidates, k).unwrap();
                    assert_rows(row, oracle, &format!("{what}, clamped"));
                }
            }
        }
    }
}
