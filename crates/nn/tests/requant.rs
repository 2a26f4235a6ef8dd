//! Fixed-point requantization against the real-valued formula it
//! replaced.
//!
//! [`Requant::finish`] rescales `acc + bias_q` by a per-channel
//! [`FixedMultiplier`] (a 31-bit mantissa and a shift) instead of the
//! `f64` expression `round(x · acc_scale / out_scale)`. The mantissa is
//! within a relative `2^-31` of `acc_scale / out_scale`, so the two agree
//! to one grid step everywhere, and exactly unless the real value sits
//! within `|v| · 2^-31` of a half-integer — for `|v| ≤ 2^10`, which covers
//! every value that survives the clamp of an 8-bit grid, that is within
//! `2^-20`. Separately, `finish` must equal the exact `i128` product of
//! the sum and the pair, rounded half away from zero ([`exact`]).

use proptest::prelude::*;

use quantmcu_nn::analyze::ACC_LIMIT;
use quantmcu_nn::kernels::{FixedMultiplier, Requant};
use quantmcu_tensor::Bitwidth;

const ACC: i64 = ACC_LIMIT as i64;

/// The `f64` requantization `clamp(round(x · acc_scale / out_scale) + zp)`
/// with the clamp taken in `f64`, so extreme inputs saturate instead of
/// wrapping. Returns the unrounded real value and the grid value.
fn float_finish(x: i128, acc_scale: f64, out_scale: f64, zp: i32, bits: Bitwidth) -> (f64, i64) {
    let real = x as f64 * acc_scale / out_scale;
    let q = (real.round() + zp as f64).clamp(bits.min_value() as f64, bits.max_value() as f64);
    (real, q as i64)
}

/// `finish` for one channel with the given constants. `finish` takes an
/// `i32` accumulator and depends only on `acc + bias`, so any part of
/// `acc` beyond `i32` moves into the bias (saturating, which only the
/// range-only extreme test reaches).
fn fixed_finish(acc: i64, bias: i64, m: FixedMultiplier, zp: i32, bits: Bitwidth) -> i64 {
    let acc32 = acc.clamp(i32::MIN as i64, i32::MAX as i64);
    let bias = bias.saturating_add(acc - acc32);
    let rq = Requant::new(&[bias], &[m], zp, bits.min_value(), bits.max_value());
    rq.finish(acc32 as i32, 0) as i64
}

/// `x · multiplier · 2^-(31 + shift)` in exact `i128` arithmetic, rounded
/// half away from zero: the reference every route of `finish` must hit.
fn exact(m: FixedMultiplier, x: i128) -> i128 {
    let scaled = x * m.multiplier() as i128;
    let unit = 1i128 << (31 + m.shift());
    let (quotient, remainder) = (scaled / unit, scaled % unit);
    quotient + if 2 * remainder.abs() >= unit { scaled.signum() } else { 0 }
}

/// Distance from `v` to the nearest half-integer.
fn half_distance(v: f64) -> f64 {
    ((v.abs().fract()) - 0.5).abs()
}

/// Checks one case against the `f64` formula and the exact `i128` route.
fn check(
    acc: i64,
    bias: i64,
    acc_scale: f64,
    out_scale: f64,
    zp: i32,
    bits: Bitwidth,
) -> Result<(), TestCaseError> {
    let m = FixedMultiplier::from_real(acc_scale / out_scale);
    let x = acc as i128 + bias as i128;
    let fixed = fixed_finish(acc, bias, m, zp, bits);
    let exact =
        (exact(m, x) + zp as i128).clamp(bits.min_value() as i128, bits.max_value() as i128);
    prop_assert!(fixed as i128 == exact, "finish {} vs exact product {}", fixed, exact);
    let (real, float) = float_finish(x, acc_scale, out_scale, zp, bits);
    prop_assert!(
        (fixed - float).abs() <= 1,
        "x={} real={} fixed={} float={}",
        x,
        real,
        fixed,
        float
    );
    if half_distance(real) > 2f64.powi(-20).max(real.abs() * 2f64.powi(-30)) {
        prop_assert!(fixed == float, "x={} real={} m={:?}: {} vs {}", x, real, m, fixed, float);
    }
    Ok(())
}

const GRIDS: [Bitwidth; 4] = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8, Bitwidth::W16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Multipliers from `2^-30` to above 1, accumulators up to the
    /// analyzer's `ACC_LIMIT`, biases beyond `i32`.
    #[test]
    fn fixed_point_matches_the_f64_formula(
        log2_m in -30.0f64..1.5,
        log2_acc_scale in -24.0f64..-4.0,
        acc in -ACC..=ACC,
        bias in -(1i64 << 32)..=(1i64 << 32),
        small in -4096i64..=4096,
        bits in prop::sample::select(GRIDS.to_vec()),
        zp_at in 0.0f64..1.0,
    ) {
        let acc_scale = log2_acc_scale.exp2();
        let out_scale = acc_scale / log2_m.exp2();
        let zp = bits.min_value() + ((bits.max_value() - bits.min_value()) as f64 * zp_at) as i32;
        check(acc, bias, acc_scale, out_scale, zp, bits)?;
        // Small sums land inside the grid for most multipliers.
        check(small, 0, acc_scale, out_scale, zp, bits)?;
    }

    /// Values aimed at both clamp edges and at the half-integers next to
    /// them.
    #[test]
    fn fixed_point_matches_at_the_clamp_edges(
        log2_m in -30.0f64..1.5,
        bits in prop::sample::select(GRIDS.to_vec()),
        zp_at in 0.0f64..1.0,
        offset in prop::sample::select(vec![-1.5f64, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5]),
        upper in prop::sample::select(vec![false, true]),
    ) {
        let acc_scale = 1e-4;
        let ratio = log2_m.exp2();
        let out_scale = acc_scale / ratio;
        let zp = bits.min_value() + ((bits.max_value() - bits.min_value()) as f64 * zp_at) as i32;
        let edge = if upper { bits.max_value() } else { bits.min_value() } - zp;
        let x = ((edge as f64 + offset) / ratio).round() as i64;
        for acc in [x - 1, x, x + 1] {
            check(acc, 0, acc_scale, out_scale, zp, bits)?;
        }
    }

    /// The pair read off an `f64` is within `2^-31` of it, normalized, and
    /// shifts left (negative shift) exactly when the multiplier is ≥ 1.
    #[test]
    fn multipliers_are_normalized_and_accurate(log2_m in -64.0f64..31.0) {
        let real = log2_m.exp2();
        let m = FixedMultiplier::from_real(real);
        prop_assert!((1 << 30..=i32::MAX).contains(&m.multiplier()), "{:?}", m);
        prop_assert!((-31..=63).contains(&m.shift()), "{:?}", m);
        prop_assert!((m.shift() < 0) == (real >= 1.0), "{:?} for {}", m, real);
        let back = m.multiplier() as f64 * (-(31 + m.shift()) as f64).exp2();
        prop_assert!(((back - real) / real).abs() <= 2f64.powi(-31), "{} vs {}", back, real);
    }
}

#[test]
fn unit_and_power_of_two_multipliers_are_exact() {
    let pair = |m: FixedMultiplier| (m.multiplier(), m.shift());
    assert_eq!(pair(FixedMultiplier::from_real(1.0)), (1 << 30, -1));
    assert_eq!(pair(FixedMultiplier::from_real(0.5)), (1 << 30, 0));
    for acc in [-7i64, -3, -1, 0, 1, 2, 5, 1 << 40] {
        let scaled =
            |real| fixed_finish(acc, 0, FixedMultiplier::from_real(real), 0, Bitwidth::W32);
        assert_eq!(scaled(1.0), acc.clamp(i32::MIN as i64, i32::MAX as i64));
        assert_eq!(scaled(4.0), (4 * acc).clamp(i32::MIN as i64, i32::MAX as i64));
    }
    // Ties round away from zero, like f64::round.
    let half = FixedMultiplier::from_real(0.5);
    let finish = |acc| fixed_finish(acc, 0, half, 0, Bitwidth::W16);
    assert_eq!([finish(3), finish(-3), finish(5), finish(-5)], [2, -2, 3, -3]);
    let quarter = FixedMultiplier::from_real(0.25);
    let finish = |acc| fixed_finish(acc, 0, quarter, 0, Bitwidth::W16);
    assert_eq!([finish(2), finish(-2), finish(6), finish(-6), finish(-5)], [1, -1, 2, -2, -1]);
}

#[test]
fn out_of_range_multipliers_saturate_or_vanish() {
    assert_eq!(FixedMultiplier::from_real(2f64.powi(-70)), FixedMultiplier::ZERO);
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE / 2.0] {
        assert_eq!(FixedMultiplier::from_real(bad), FixedMultiplier::ZERO, "{bad}");
    }
    let saturated = FixedMultiplier::from_real(2f64.powi(40));
    assert_eq!((saturated.multiplier(), saturated.shift()), (i32::MAX, -31));
}

/// Every combination of extreme accumulators, biases, multipliers and
/// grids finishes without wrapping (overflow checks are on in test
/// builds, so a wrap would panic) and lands on the grid.
#[test]
fn extreme_inputs_never_panic() {
    let values = [i64::MIN, -(1 << 40), -ACC, -1, 0, 1, ACC, 1 << 40, i64::MAX];
    let reals =
        [2f64.powi(-80), 2f64.powi(-64), 2f64.powi(-30), 0.7, 1.0, 3.0, 2f64.powi(30), 1e300];
    let grids = [Bitwidth::W2, Bitwidth::W8, Bitwidth::W16, Bitwidth::W32];
    for &acc in &values {
        for &bias in &values {
            for &real in &reals {
                for bits in grids {
                    for zp in [bits.min_value(), 0, bits.max_value()] {
                        let m = FixedMultiplier::from_real(real);
                        let q = fixed_finish(acc, bias, m, zp, bits);
                        assert!((bits.min_value() as i64..=bits.max_value() as i64).contains(&q));
                    }
                }
            }
        }
    }
}

/// Run constants for [`finish_run`] checks: per channel a bias, a
/// multiplier and a grid, chosen so both routes occur — biases beyond
/// `2^30` and total shifts of 1 and above 61 force the `i128` route for
/// the whole node.
fn run_requant(channels: &[(i64, f64)], zp: i32, bits: Bitwidth) -> Requant {
    let bias: Vec<i64> = channels.iter().map(|&(b, _)| b).collect();
    let scale: Vec<FixedMultiplier> =
        channels.iter().map(|&(_, m)| FixedMultiplier::from_real(m)).collect();
    Requant::new(&bias, &scale, zp, bits.min_value(), bits.max_value())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `finish_run` finishes a run on one route per node; every element
    /// must equal the scalar reference `finish`, on either route.
    #[test]
    fn finish_run_equals_finish_element_for_element(
        accs in prop::collection::vec(i32::MIN..=i32::MAX, 1..40),
        seed in 0u64..1_000_000,
        wide in prop::sample::select(vec![false, true]),
        bits in prop::sample::select(vec![Bitwidth::W2, Bitwidth::W4, Bitwidth::W8]),
        zp_at in 0.0f64..1.0,
    ) {
        let n = accs.len();
        let pick = |i: usize, salt: u64| {
            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed ^ salt) >> 11
        };
        // Multipliers span total shifts of 1 (real ≈ 2^29) to above 61
        // (real ≈ 2^-33), so both route bounds are crossed.
        let channels: Vec<(i64, f64)> = (0..n)
            .map(|i| {
                let log2_m = -34.0 + (pick(i, 1) % 6400) as f64 / 100.0;
                let bias_span = if wide { 1i64 << 40 } else { 1 << 30 };
                let bias = (pick(i, 2) % (2 * bias_span as u64 + 1)) as i64 - bias_span;
                (bias, log2_m.exp2())
            })
            .collect();
        let zp = bits.min_value() + ((bits.max_value() - bits.min_value()) as f64 * zp_at) as i32;
        let rq = run_requant(&channels, zp, bits);
        let mut out = vec![0i8; accs.len()];
        rq.finish_run(&accs, &mut out);
        for (j, (&acc, &o)) in accs.iter().zip(&out).enumerate() {
            let want = rq.finish(acc, j);
            prop_assert!(o as i32 == want, "channel {}: {} vs {}", j, o, want);
        }
    }

    /// Accumulators aimed at both clamp edges of the grid, on both routes.
    #[test]
    fn finish_run_equals_finish_at_the_clamp_edges(
        log2_m in -30.0f64..1.5,
        bits in prop::sample::select(vec![Bitwidth::W2, Bitwidth::W4, Bitwidth::W8]),
        zp_at in 0.0f64..1.0,
        wide in prop::sample::select(vec![false, true]),
    ) {
        let ratio = log2_m.exp2();
        let zp = bits.min_value() + ((bits.max_value() - bits.min_value()) as f64 * zp_at) as i32;
        // A huge bias on a second channel sends the node to the i128 route
        // without moving channel 0's values.
        let extra = if wide { 1i64 << 40 } else { 0 };
        let rq = run_requant(&[(0, ratio), (extra, ratio)], zp, bits);
        let mut accs = Vec::new();
        for edge in [bits.min_value() - zp, bits.max_value() - zp] {
            for offset in [-1.5f64, -0.5, 0.0, 0.5, 1.5] {
                let x = ((edge as f64 + offset) / ratio).round();
                let x = x.clamp(i32::MIN as f64 + 1.0, i32::MAX as f64 - 1.0) as i32;
                accs.extend([x - 1, x, x + 1]);
            }
        }
        for acc in accs {
            let mut out = [0i8; 1];
            rq.finish_run(&[acc], &mut out);
            let want = rq.finish(acc, 0);
            prop_assert!(out[0] as i32 == want, "acc {}: {} vs {}", acc, out[0], want);
        }
    }
}

/// Exact ties (`±0.5` of a grid step) round away from zero on both
/// routes of `finish_run`, as in `finish`.
#[test]
fn finish_run_rounds_ties_like_finish() {
    for real in [0.5, 0.25, 2f64.powi(-10), 3.0] {
        for extra in [0, 1i64 << 40] {
            let rq = run_requant(&[(0, real), (extra, real)], 0, Bitwidth::W8);
            let accs: Vec<i32> = (-3000..=3000).collect();
            let mut out = vec![0i8; accs.len()];
            for (a, o) in accs.iter().zip(out.iter_mut()) {
                rq.finish_run(&[*a], std::slice::from_mut(o));
            }
            for (&acc, &o) in accs.iter().zip(&out) {
                assert_eq!(o as i32, rq.finish(acc, 0), "acc {acc}, real {real}, extra {extra}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "must fit i8")]
fn finish_run_rejects_grids_wider_than_i8() {
    let rq = run_requant(&[(0, 0.5)], 0, Bitwidth::W16);
    rq.finish_run(&[1], &mut [0i8]);
}
