//! Property tests pinning the streaming forms of the entropy engine —
//! [`RangeFold`] and [`Scan`] with [`Counts`] — to the materialized
//! [`Sample`] and to the `entropy::naive` oracle, **bit for bit**.
//!
//! The planner streams head-map values through both forms instead of
//! keeping them: each calibration chunk folds and counts its own values,
//! fed one row run (here: one seeded block) at a time, and the chunks
//! merge in chunk order. Whatever the split into chunks and blocks, the
//! range must be the whole sample's — NaN skipped, ±∞ kept, a zero extreme
//! carrying the sign of the first zero — and the row must be the one the
//! whole sample gives, so plans cannot depend on the worker count.

use proptest::prelude::*;

use quantmcu_quant::entropy::{naive, Counts, RangeFold, Sample, Scan};
use quantmcu_quant::QuantError;
use quantmcu_tensor::{Bitwidth, TensorError};

/// Seeded 64-bit mixer (SplitMix64's finalizer).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded values of one of five kinds: ReLU6-like masses of `+0.0`,
/// `-0.0` and 6 among uniform values; values of one sign with zeros of
/// both signs at the extreme; one repeated value; mixed values salted with
/// NaN and ±∞; and all NaN but a few.
fn values(len: usize, seed: u64, kind: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let r = mix(seed ^ (i << 8));
            let uniform = (r >> 11) as f32 / (1u64 << 53) as f32;
            match (kind, r % 16) {
                (0, 0..=3) => 0.0,
                (0, 4 | 5) => -0.0,
                (0, 6 | 7) => 6.0,
                (0, _) => 6.0 * uniform,
                (1, 0) => 0.0,
                (1, 1) => -0.0,
                (1, _) if seed % 2 == 0 => 1.0 + uniform,
                (1, _) => -1.0 - uniform,
                (2, _) => 2.5,
                (3, 0) => f32::NAN,
                (3, 1) => f32::INFINITY,
                (3, 2) => f32::NEG_INFINITY,
                (3, 3) => -0.0,
                (3, _) => 20.0 * uniform - 10.0,
                (_, 0) => uniform,
                (_, _) => f32::NAN,
            }
        })
        .collect()
}

/// Splits `v` into `n` chunks at seeded cut points; cut points may
/// coincide, so some chunks are empty.
fn chunks(v: &[f32], n: usize, seed: u64) -> Vec<Vec<f32>> {
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

/// `chunk` in seeded blocks of 1 to `max_block` values, in order.
fn blocks(chunk: &[f32], max_block: usize, seed: u64) -> Vec<&[f32]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < chunk.len() {
        let len = 1 + mix(seed ^ i) as usize % max_block;
        let end = (start + len).min(chunk.len());
        out.push(&chunk[start..end]);
        start = end;
        i += 1;
    }
    out
}

/// The in-order fold `stats::moments` makes: NaN skipped, ties keep the
/// earlier value.
fn in_order(values: &[f32]) -> (f32, f32) {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in values {
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
    }
    (lo, hi)
}

/// Each chunk folded block by block, the folds merged in chunk order.
fn streamed_range(parts: &[Vec<f32>], max_block: usize, seed: u64) -> RangeFold {
    let mut total = RangeFold::new();
    for (c, chunk) in parts.iter().enumerate() {
        let mut fold = RangeFold::new();
        for block in blocks(chunk, max_block, seed ^ c as u64) {
            fold.feed(block);
        }
        total.merge(&fold);
    }
    total
}

/// Each chunk counted block by block, the counts merged in chunk order.
fn streamed_counts(scan: &Scan, parts: &[Vec<f32>], max_block: usize, seed: u64) -> Counts {
    let mut total = scan.counts();
    for (c, chunk) in parts.iter().enumerate() {
        let mut counts = scan.counts();
        for block in blocks(chunk, max_block, seed ^ c as u64) {
            scan.feed(&mut counts, block);
        }
        total.merge(&counts);
    }
    total
}

fn bits((lo, hi): (f32, f32)) -> (u32, u32) {
    (lo.to_bits(), hi.to_bits())
}

/// Bit-level equality of two rows — `==` would paper over -0.0 vs 0.0.
fn same_row((h, row): &(f64, Vec<f64>), (h2, row2): &(f64, Vec<f64>)) -> bool {
    h.to_bits() == h2.to_bits()
        && row.len() == row2.len()
        && row.iter().zip(row2).all(|(a, b)| a.to_bits() == b.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streamed_ranges_equal_the_materialized_range(
        len in prop::sample::select(vec![0usize, 1, 2, 15, 16, 17, 100, 1000, 2500]),
        seed in 0u64..10_000,
        kind in 0u64..5,
        n_chunks in 1usize..6,
        max_block in 1usize..70,
    ) {
        let v = values(len, seed, kind);
        let parts = chunks(&v, n_chunks, seed);
        let fold = streamed_range(&parts, max_block, seed);
        let whole = Sample::new(&parts).range();
        prop_assert!(bits(fold.range()) == bits(whole), "streamed vs Sample::new on {:?}", v);
        prop_assert!(bits(whole) == bits(in_order(&v)), "Sample::new vs in-order on {:?}", v);
        prop_assert_eq!(fold.len(), len);
    }

    #[test]
    fn streamed_rows_equal_the_materialized_row(
        len in prop::sample::select(vec![0usize, 1, 2, 17, 64, 65, 500, 2500]),
        seed in 0u64..10_000,
        kind in 0u64..5,
        n_chunks in 1usize..6,
        max_block in 1usize..200,
        k in prop::sample::select(vec![1usize, 32, 255, 512]),
        candidates in prop::sample::select(vec![
            vec![Bitwidth::W8, Bitwidth::W4, Bitwidth::W2],
            vec![Bitwidth::W8, Bitwidth::W4],
            vec![Bitwidth::W16, Bitwidth::W2],
        ]),
    ) {
        let v = values(len, seed, kind);
        let parts = chunks(&v, n_chunks, seed);
        let sample = Sample::new(&parts);
        let materialized = sample.table_row(&candidates, k);
        // The planner plans a scan only for a sample with values: an
        // empty one has no range to plan on.
        let streamed = if len == 0 {
            Err(QuantError::Statistics(TensorError::EmptyTensor))
        } else {
            let range = streamed_range(&parts, max_block, seed).range();
            Scan::new(range, &candidates, k).and_then(|scan| {
                let counts = streamed_counts(&scan, &parts, max_block, seed);
                // Any split counts alike: one block per chunk, or the
                // whole sample fed at once.
                let mut whole = scan.counts();
                scan.feed(&mut whole, &v);
                assert_eq!(counts, whole, "counts depend on the split");
                assert_eq!(counts.len(), len);
                scan.row(&counts)
            })
        };
        match (&streamed, &materialized) {
            (Ok(s), Ok(m)) => {
                prop_assert!(same_row(s, m), "streamed {:?} vs Sample {:?}", s, m);
                let oracle = naive::table_row(&v, &candidates, k).unwrap();
                prop_assert!(same_row(s, &oracle), "streamed {:?} vs naive {:?}", s, oracle);
            }
            // Compared as text: an `InvalidScale(NaN)` is unequal to itself.
            (s, m) => prop_assert_eq!(format!("{s:?}"), format!("{m:?}")),
        }
    }
}

#[test]
fn an_empty_scan_is_an_empty_tensor() {
    let scan = Scan::new((0.0, 1.0), &Bitwidth::SEARCH_CANDIDATES, 32).unwrap();
    let mut counts = scan.counts();
    scan.feed(&mut counts, &[]);
    assert!(counts.is_empty());
    assert_eq!(scan.row(&counts).unwrap_err(), QuantError::Statistics(TensorError::EmptyTensor));
    let fold = RangeFold::new();
    assert!(fold.is_empty());
    assert_eq!(fold.range(), (f32::INFINITY, f32::NEG_INFINITY));
}

#[test]
fn a_zero_extreme_keeps_the_sign_of_the_first_zero_across_chunks() {
    // The first zero is in the second chunk, behind an all-NaN first
    // chunk, and a zero of the other sign follows in a later block.
    for (first, later) in [(-0.0f32, 0.0f32), (0.0, -0.0)] {
        for sign in [1.0f32, -1.0] {
            let parts = [vec![f32::NAN; 20], vec![3.0 * sign, first, 2.0 * sign], vec![later]];
            let fold = streamed_range(&parts, 1, 7);
            let (lo, hi) = fold.range();
            let zero_end = if sign > 0.0 { lo } else { hi };
            assert_eq!(zero_end.to_bits(), first.to_bits(), "{parts:?}");
            assert_eq!(bits(fold.range()), bits(Sample::new(&parts).range()));
        }
    }
}

#[test]
fn a_single_value_streams_to_its_own_range_and_row() {
    for x in [0.0f32, -0.0, 2.5, -1e30] {
        let mut fold = RangeFold::new();
        fold.feed(&[x]);
        assert_eq!(bits(fold.range()), (x.to_bits(), x.to_bits()));
        let scan = Scan::new(fold.range(), &Bitwidth::SEARCH_CANDIDATES, 32).unwrap();
        let mut counts = scan.counts();
        scan.feed(&mut counts, &[x]);
        let streamed = scan.row(&counts).unwrap();
        let oracle = naive::table_row(&[x], &Bitwidth::SEARCH_CANDIDATES, 32).unwrap();
        assert!(same_row(&streamed, &oracle), "{x}: {streamed:?} vs {oracle:?}");
    }
}
