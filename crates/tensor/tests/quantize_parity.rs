//! The branch-free slice quantizer against the scalar formula it
//! replaced.
//!
//! [`QuantParams::quantize_slice`] and [`QuantParams::fake_quantize_slice`]
//! clamp `v / scale` to the grid first and round with a magic-number
//! addition, so their loops vectorize. The reference is the textbook
//! `clamp(round(v / scale) + zp)` with `f32::round`. Wherever that formula
//! cannot overflow (`|v / scale| < 2³¹`) the two must agree bit for bit,
//! including exact ties `(k + ½)·scale`, NaN, ±0 and ±∞.

use proptest::prelude::*;

use quantmcu_tensor::{Bitwidth, ChannelQuantParams, QuantParams};

/// The scalar reference: round half away from zero, add the zero point,
/// clamp. The saturating add only matters for ±∞, which the `i32` form
/// overflowed on.
fn reference(p: &QuantParams, v: f32) -> i32 {
    let q = ((v / p.scale()).round() as i64).saturating_add(p.zero_point() as i64);
    let b = p.bitwidth();
    q.clamp(b.min_value() as i64, b.max_value() as i64) as i32
}

/// Checks every entry point on `values` against [`reference`].
fn check(p: &QuantParams, values: &[f32]) -> Result<(), TestCaseError> {
    let expected: Vec<i32> = values.iter().map(|&v| reference(p, v)).collect();
    let mut wide = vec![0i32; values.len()];
    p.quantize_slice(values, &mut wide);
    prop_assert_eq!(&wide, &expected);
    for (&v, &e) in values.iter().zip(&expected) {
        prop_assert!(p.quantize(v) == e, "scalar quantize({}) = {} vs {}", v, p.quantize(v), e);
    }
    if p.bitwidth().bits() <= 8 {
        let mut narrow = vec![0i8; values.len()];
        p.quantize_slice(values, &mut narrow);
        prop_assert!(narrow.iter().zip(&expected).all(|(&n, &e)| n as i32 == e));
    }
    let mut fake = values.to_vec();
    p.fake_quantize_slice(&mut fake);
    for ((&v, &f), &e) in values.iter().zip(&fake).zip(&expected) {
        let want = p.dequantize(e);
        prop_assert!(f.to_bits() == want.to_bits(), "fake({}) = {} vs {}", v, f, want);
    }
    Ok(())
}

const GRIDS: [Bitwidth; 4] = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8, Bitwidth::W16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Quotients across the whole non-overflowing range, near the grid
    /// and far from it, plus the special values.
    #[test]
    fn slice_quantizer_matches_the_scalar_formula(
        bits in prop::sample::select(GRIDS.to_vec()),
        lo in -20.0f32..0.5,
        hi in -0.5f32..20.0,
        log2_quotient in -4.0f64..31.0,
        near in -70_000.0f64..70_000.0,
        seed in 0u64..1_000_000,
    ) {
        let p = QuantParams::from_min_max(lo, hi, bits).unwrap();
        let s = p.scale() as f64;
        let far = log2_quotient.exp2().min(2147483000.0);
        let mut values = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            (far * s) as f32,
            (-far * s) as f32,
            (near * s) as f32,
            lo,
            hi,
        ];
        // Exact ties `(k + ½)·scale` around and beyond the grid.
        let span = bits.levels() as i64;
        for j in 0..16i64 {
            let k = ((seed as i64 + j * 7919) % (2 * span + 8)) - span - 4;
            values.push(((k as f64 + 0.5) * s) as f32);
            values.push((k as f64 + 0.5) as f32 * p.scale());
        }
        check(&p, &values)?;
    }
}

#[test]
fn every_w8_level_and_midpoint_matches() {
    for (lo, hi) in [(-1.0f32, 1.0f32), (-0.37, 5.9), (-6.1, 0.2), (0.0, 1.0)] {
        let p = QuantParams::from_min_max(lo, hi, Bitwidth::W8).unwrap();
        let values: Vec<f32> = (-600..600)
            .map(|h| h as f32 * 0.5 * p.scale())
            .chain((-600..600).map(|h| h as f32 * 0.25))
            .collect();
        check(&p, &values).unwrap();
    }
}

#[test]
fn channel_slices_match_the_scalar_channel_quantizer() {
    // Per-channel symmetric weight grids: every channel's run through
    // `quantize_slice` must equal `quantize` value by value, exact ties
    // `(k + ½)·scale`, the clamp beyond ±qmax, NaN, ±0 and ±∞ included.
    for bits in [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8] {
        let per_channel = 64;
        let weights: Vec<f32> = (0..3 * per_channel)
            .map(|j| ((j * 37 % 101) as f32 - 50.0) * 0.013 * (1 + j / per_channel) as f32)
            .collect();
        let p = ChannelQuantParams::fit(&weights, 3, per_channel, bits).unwrap();
        for ch in 0..3 {
            let s = p.scale(ch);
            let mut run: Vec<f32> = weights[ch * per_channel..(ch + 1) * per_channel].to_vec();
            run.extend([0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30]);
            run.extend((-12..12).map(|k| (k as f32 + 0.5) * s));
            let mut narrow = vec![0i8; run.len()];
            p.quantize_slice(ch, &run, &mut narrow);
            for (&v, &q) in run.iter().zip(&narrow) {
                assert_eq!(q as i32, p.quantize(ch, v), "{bits} channel {ch} at {v}");
            }
        }
    }
}
