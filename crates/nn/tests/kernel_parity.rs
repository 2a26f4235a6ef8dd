//! Property tests pinning the tiled micro-kernels to the naive reference
//! loops across arbitrary shapes, strides and padding — deliberately
//! including awkward geometry the tiles must handle raggedly: channel and
//! fan-in counts not divisible by the lane width, 1×1 and single-channel
//! convolutions, odd strides and padding.
//!
//! The parity contract is split by domain:
//!
//! * **Integer paths are bit-for-bit.** `i64` integer addition is
//!   associative, so regrouping a dot product into register lanes cannot
//!   change any output element. Every integer strategy — the scalar
//!   [`IntDot`] baseline and [`PackedDot`] over W8/W4/W2 words in both
//!   per-element and folded-zero-point modes — must equal
//!   `kernels::naive`'s `*_q` loops exactly.
//! * **Float paths are ULP-bounded.** The lane-unrolled [`FloatDot`]
//!   *reassociates* each run's `f32` summation (four partial sums
//!   combined pairwise instead of one serial chain), which legitimately
//!   changes rounding at the last few bits. The kernels remain
//!   deterministic — the decomposition is a pure function of tap
//!   geometry — so parity is asserted to a documented ULP tolerance
//!   rather than bit equality. Depthwise float stays bit-exact: its
//!   channels-in-lockstep `mac_rows` loop already gave every channel an
//!   independent accumulator, so tiling never touched its ordering.

use proptest::prelude::*;

use quantmcu_nn::kernels::{self, naive, FixedMultiplier, FloatDot, IntDot, PackedDot, Requant};
use quantmcu_tensor::{pack, Bitwidth, Shape, Tensor};

/// Deterministic pseudo-random buffer (the proptest shim drives shape and
/// seed diversity; values just need to be varied and sign-mixed).
fn varied(len: usize, seed: u64) -> Vec<f32> {
    (0..len).map(|i| (((i as u64).wrapping_mul(2654435761) ^ seed) as f32 * 1e-6).sin()).collect()
}

/// Deterministic pseudo-random integers in `lo..=hi`.
fn varied_q(len: usize, seed: u64, lo: i32, hi: i32) -> Vec<i32> {
    let span = (hi - lo) as u64 + 1;
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ 0x9E3779B9);
            lo + ((x >> 24) % span) as i32
        })
        .collect()
}

/// ULP tolerance for the reassociated float kernels: far above observed
/// drift (a handful of ULPs), far below any semantic difference. The
/// absolute floor covers catastrophic-cancellation cases where a
/// near-zero sum makes relative ULP distance meaningless.
fn ulp_close(a: f32, e: f32) -> bool {
    let ulps = (a.to_bits() as i64 - e.to_bits() as i64).unsigned_abs();
    (a - e).abs() <= 1e-5 || ulps <= 256
}

/// Per-channel requantization tables sized for `channels`, with varied
/// but deterministic constants. Parity only requires both kernels to run
/// the *same* requantization, so the values just need to exercise
/// rounding and clamping.
struct RequantTables {
    bias_q: Vec<i64>,
    scale: Vec<FixedMultiplier>,
}

impl RequantTables {
    fn new(channels: usize, seed: u64) -> Self {
        let bias_q =
            varied_q(channels, seed ^ 0xB1A5, -500, 500).into_iter().map(i64::from).collect();
        let scale = (0..channels)
            .map(|ch| {
                let acc_scale = 1e-3 * (1.0 + (ch as f64 + (seed % 7) as f64) * 0.31);
                FixedMultiplier::from_real(acc_scale / 0.037)
            })
            .collect();
        RequantTables { bias_q, scale }
    }

    fn requant(&self) -> Requant<'_> {
        Requant { bias_q: &self.bias_q, scale: &self.scale, zp_out: 3, q_min: -128, q_max: 127 }
    }
}

/// Quantized weights clamped to `bits`'s two's-complement range.
fn varied_weights(len: usize, seed: u64, bits: Bitwidth) -> Vec<i8> {
    varied_q(len, seed, bits.min_value(), bits.max_value()).into_iter().map(|v| v as i8).collect()
}

/// Per-channel folded init terms `-zp_in * Σ w[ch]` for a channel-major
/// weight layout (conv OHWI rows, dense rows).
fn folded_init(qw: &[i8], channels: usize, per_channel: usize, zp_in: i32) -> Vec<i64> {
    (0..channels)
        .map(|ch| {
            let sum: i64 =
                qw[ch * per_channel..(ch + 1) * per_channel].iter().map(|&w| w as i64).sum();
            -(zp_in as i64) * sum
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiled_conv2d_matches_naive_within_ulps(
        h in 3usize..14,
        w in 3usize..14,
        c in 1usize..6,
        oc in 1usize..12,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        seed in 0u64..1_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let input = Tensor::from_vec(Shape::hwc(h, w, c), varied(h * w * c, seed)).unwrap();
        let weights = varied(oc * k * k * c, seed ^ 0xABCD);
        let bias = varied(oc, seed ^ 0x1234);
        let reference = naive::conv2d(&input, &weights, &bias, oc, k, stride, pad);
        let mut out = vec![0.0f32; reference.shape().len()];
        kernels::conv2d(
            &FloatDot { weights: &weights, bias: &bias },
            input.data(),
            input.shape(),
            &mut out,
            oc,
            k,
            stride,
            pad,
            reference.shape().full_region(),
        );
        for (i, (&a, &e)) in out.iter().zip(reference.data()).enumerate() {
            prop_assert!(
                ulp_close(a, e),
                "conv2d element {} diverged beyond tolerance: {} vs {}", i, a, e
            );
        }
    }

    #[test]
    fn tiled_dwconv_matches_naive_bit_for_bit(
        h in 3usize..14,
        w in 3usize..14,
        c in 1usize..40,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        seed in 0u64..1_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let input = Tensor::from_vec(Shape::hwc(h, w, c), varied(h * w * c, seed)).unwrap();
        let weights = varied(k * k * c, seed ^ 0xBEEF);
        let bias = varied(c, seed ^ 0x77);
        let reference = naive::dwconv(&input, &weights, &bias, k, stride, pad);
        let mut out = vec![0.0f32; reference.shape().len()];
        kernels::dwconv(
            &FloatDot { weights: &weights, bias: &bias },
            input.data(),
            input.shape(),
            &mut out,
            k,
            stride,
            pad,
            reference.shape().full_region(),
        );
        // Depthwise goes through `mac_rows` (one accumulator per channel,
        // never regrouped), so float parity stays exact here.
        prop_assert_eq!(out.as_slice(), reference.data());
    }

    #[test]
    fn tiled_dense_matches_naive_within_ulps(
        h in 1usize..8,
        w in 1usize..8,
        c in 1usize..20,
        out_f in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let input = Tensor::from_vec(Shape::hwc(h, w, c), varied(h * w * c, seed)).unwrap();
        let fan_in = input.shape().per_sample();
        let weights = varied(out_f * fan_in, seed ^ 0xF00D);
        let bias = varied(out_f, seed ^ 0x9);
        let reference = naive::dense(&input, &weights, &bias, out_f);
        let mut out = vec![0.0f32; out_f];
        kernels::dense(
            &FloatDot { weights: &weights, bias: &bias },
            input.data(),
            input.shape(),
            &mut out,
            out_f,
        );
        for (i, (&a, &e)) in out.iter().zip(reference.data()).enumerate() {
            prop_assert!(
                ulp_close(a, e),
                "dense element {} diverged beyond tolerance: {} vs {}", i, a, e
            );
        }
    }

    #[test]
    fn packed_conv2d_matches_naive_bit_for_bit(
        h in 3usize..11,
        w in 3usize..11,
        c in 1usize..7,
        oc in 1usize..10,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        which_bits in 0usize..3,
        zp_in in -8i32..=8,
        seed in 0u64..1_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which_bits];
        let shape = Shape::hwc(h, w, c);
        let q_in = varied_q(shape.len(), seed, -100, 100);
        let qw = varied_weights(oc * k * k * c, seed ^ 0xACE, bits);
        let tables = RequantTables::new(oc, seed);
        let rq = tables.requant();
        let reference = naive::conv2d_q(&q_in, shape, &qw, zp_in, &rq, oc, k, stride, pad);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let out_shape = Shape::hwc(oh, ow, oc);
        let packed = pack::pack(&qw, bits);

        // Scalar i8 baseline through the tiled kernels.
        let mut out = vec![0i32; out_shape.len()];
        let dot = IntDot { qw: &qw, zp_in, rq: tables.requant() };
        kernels::conv2d(&dot, &q_in, shape, &mut out, oc, k, stride, pad,
            out_shape.full_region());
        prop_assert_eq!(out.as_slice(), reference.as_slice());

        // Packed words, per-element zero-point correction.
        let mut out = vec![0i32; out_shape.len()];
        let dot = PackedDot::new(&packed, bits, zp_in, tables.requant())
            .assuming_i16_activations();
        kernels::conv2d(&dot, &q_in, shape, &mut out, oc, k, stride, pad,
            out_shape.full_region());
        prop_assert_eq!(out.as_slice(), reference.as_slice());

        // Folded zero point is exact only without padding (every weight
        // participates in every output element).
        if pad == 0 {
            let init = folded_init(&qw, oc, k * k * c, zp_in);
            let mut out = vec![0i32; out_shape.len()];
            let dot = PackedDot::with_folded_zero_point(&packed, bits, &init, tables.requant());
            kernels::conv2d(&dot, &q_in, shape, &mut out, oc, k, stride, pad,
                out_shape.full_region());
            prop_assert_eq!(out.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn packed_dwconv_matches_naive_bit_for_bit(
        h in 3usize..11,
        w in 3usize..11,
        c in 1usize..22,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        which_bits in 0usize..3,
        zp_in in -8i32..=8,
        seed in 0u64..1_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which_bits];
        let shape = Shape::hwc(h, w, c);
        let q_in = varied_q(shape.len(), seed, -100, 100);
        let qw = varied_weights(k * k * c, seed ^ 0xD0E, bits);
        let tables = RequantTables::new(c, seed);
        let rq = tables.requant();
        let reference = naive::dwconv_q(&q_in, shape, &qw, zp_in, &rq, k, stride, pad);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let out_shape = Shape::hwc(oh, ow, c);
        let packed = pack::pack(&qw, bits);

        let mut out = vec![0i32; out_shape.len()];
        let dot = IntDot { qw: &qw, zp_in, rq: tables.requant() };
        kernels::dwconv(&dot, &q_in, shape, &mut out, k, stride, pad, out_shape.full_region());
        prop_assert_eq!(out.as_slice(), reference.as_slice());

        let mut out = vec![0i32; out_shape.len()];
        let dot = PackedDot::new(&packed, bits, zp_in, tables.requant())
            .assuming_i16_activations();
        kernels::dwconv(&dot, &q_in, shape, &mut out, k, stride, pad, out_shape.full_region());
        prop_assert_eq!(out.as_slice(), reference.as_slice());

        if pad == 0 {
            // Depthwise layout is [kh][kw][c]: channel ch's taps sit at
            // stride c, so the fold sums stride through the buffer.
            let init: Vec<i64> = (0..c)
                .map(|ch| {
                    let sum: i64 = qw[ch..].iter().step_by(c).map(|&wv| wv as i64).sum();
                    -(zp_in as i64) * sum
                })
                .collect();
            let mut out = vec![0i32; out_shape.len()];
            let dot = PackedDot::with_folded_zero_point(&packed, bits, &init, tables.requant());
            kernels::dwconv(&dot, &q_in, shape, &mut out, k, stride, pad,
                out_shape.full_region());
            prop_assert_eq!(out.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn packed_dense_matches_naive_bit_for_bit(
        h in 1usize..7,
        w in 1usize..7,
        c in 1usize..20,
        out_f in 1usize..24,
        which_bits in 0usize..3,
        zp_in in -8i32..=8,
        seed in 0u64..1_000,
    ) {
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which_bits];
        let shape = Shape::hwc(h, w, c);
        let fan_in = shape.per_sample();
        let q_in = varied_q(shape.len(), seed, -100, 100);
        let qw = varied_weights(out_f * fan_in, seed ^ 0xFEE, bits);
        let tables = RequantTables::new(out_f, seed);
        let rq = tables.requant();
        let reference = naive::dense_q(&q_in, shape, &qw, zp_in, &rq, out_f);
        let packed = pack::pack(&qw, bits);

        let mut out = vec![0i32; out_f];
        let dot = IntDot { qw: &qw, zp_in, rq: tables.requant() };
        kernels::dense(&dot, &q_in, shape, &mut out, out_f);
        prop_assert_eq!(out.as_slice(), reference.as_slice());

        let mut out = vec![0i32; out_f];
        let dot = PackedDot::new(&packed, bits, zp_in, tables.requant())
            .assuming_i16_activations();
        kernels::dense(&dot, &q_in, shape, &mut out, out_f);
        prop_assert_eq!(out.as_slice(), reference.as_slice());

        // Dense always folds: every weight touches every output.
        let init = folded_init(&qw, out_f, fan_in, zp_in);
        let mut out = vec![0i32; out_f];
        let dot = PackedDot::with_folded_zero_point(&packed, bits, &init, tables.requant());
        kernels::dense(&dot, &q_in, shape, &mut out, out_f);
        prop_assert_eq!(out.as_slice(), reference.as_slice());
    }
}
