//! Property tests pinning the tiled micro-kernels to the naive reference
//! loops across arbitrary shapes, strides and padding — deliberately
//! including awkward geometry the tiles must handle raggedly: channel and
//! fan-in counts not divisible by the lane width, 1×1 and single-channel
//! convolutions, odd strides and padding.
//!
//! The parity contract is split by domain:
//!
//! * **Integer paths are bit-for-bit.** Integer addition is associative,
//!   so gathering a receptive row and reducing it in any order cannot
//!   change any output element. The conv and dense cases reach past one
//!   decoded weight panel and one multiply-add group in both channel
//!   directions, at odd counts, with one-pixel and odd-pixel 1×1 maps,
//!   and past one block of pixel rows. The integer kernels
//!   (`kernels::{conv2d_q, dwconv_q, dense_q}` over a [`PackedDot`] of
//!   W8/W4/W2 words, `i8` maps in and out, `i16` lanes) must equal
//!   `kernels::naive`'s `*_q` loops exactly.
//! * **Float paths are ULP-bounded.** The lane-unrolled [`FloatDot`]
//!   *reassociates* each run's `f32` summation (four partial sums
//!   combined pairwise instead of one serial chain), which legitimately
//!   changes rounding at the last few bits. The kernels remain
//!   deterministic — the decomposition is a pure function of tap
//!   geometry — so parity is asserted to a documented ULP tolerance
//!   rather than bit equality. Two float paths are exact: depthwise,
//!   whose channels-in-lockstep `mac_rows` loop gives every channel an
//!   independent accumulator, and conv2d on maps of at least
//!   [`kernels::PIX`] output pixels, whose pixel-tiled micro-kernel sums
//!   every element in naive's order.
//! * **Float conv values are region-independent.** Computing any
//!   sub-region reproduces the full-map values bit for bit there and
//!   writes nothing else, which is what lets patch branches stitch.

use proptest::prelude::*;

use quantmcu_nn::kernels::{
    self, naive, FixedMultiplier, FloatDot, PackedDot, Requant, RowScratch,
};
use quantmcu_tensor::{pack, Bitwidth, Region, Shape, Tensor};

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

/// Per-channel requantization sized for `channels`, with varied but
/// deterministic constants onto an 8-bit output grid. Parity only
/// requires both kernels to run the *same* requantization, so the values
/// just need to exercise rounding and clamping.
fn requant(channels: usize, seed: u64) -> Requant {
    let bias_q: Vec<i64> =
        varied_q(channels, seed ^ 0xB1A5, -500, 500).into_iter().map(i64::from).collect();
    let scale: Vec<FixedMultiplier> = (0..channels)
        .map(|ch| {
            let acc_scale = 1e-3 * (1.0 + (ch as f64 + (seed % 7) as f64) * 0.31);
            FixedMultiplier::from_real(acc_scale / 0.037)
        })
        .collect();
    Requant::new(&bias_q, &scale, 3, -128, 127)
}

/// Quantized weights clamped to `bits`'s two's-complement range.
fn varied_weights(len: usize, seed: u64, bits: Bitwidth) -> Vec<i8> {
    varied_q(len, seed, bits.min_value(), bits.max_value()).into_iter().map(|v| v as i8).collect()
}

/// An input feature map on an 8-bit grid as grid values (the naive
/// reference's input) and as the `i8` storage the kernels read, and a
/// zero point on that grid.
fn varied_input(len: usize, seed: u64, zp_at: f64) -> (Vec<i32>, Vec<i8>, i32) {
    let (lo, hi) = (Bitwidth::W8.min_value(), Bitwidth::W8.max_value());
    let zp = lo + ((hi - lo) as f64 * zp_at) as i32;
    let q = varied_q(len, seed, lo, hi);
    let stored = q.iter().map(|&v| v as i8).collect();
    (q, stored, zp)
}

/// `i8` kernel outputs as grid values.
fn levels(out: &[i8]) -> Vec<i32> {
    out.iter().map(|&v| v as i32).collect()
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
            &mut Vec::new(),
        );
        let os = reference.shape();
        if os.h * os.w >= kernels::PIX {
            // The pixel-tiled path sums in naive's order.
            prop_assert_eq!(out.as_slice(), reference.data());
        }
        for (i, (&a, &e)) in out.iter().zip(reference.data()).enumerate() {
            prop_assert!(
                ulp_close(a, e),
                "conv2d element {} diverged beyond tolerance: {} vs {}", i, a, e
            );
        }
    }

    #[test]
    fn conv2d_region_reproduces_full_map_values(
        h in 1usize..14,
        w in 1usize..14,
        c in 1usize..7,
        oc in 1usize..10,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        at_y in 0.0f64..1.0,
        at_x in 0.0f64..1.0,
        frac_h in 0.0f64..1.0,
        frac_w in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let shape = Shape::hwc(h, w, c);
        let (oh, ow) = kernels::conv_output_hw(shape, k, stride, pad);
        let os = Shape::hwc(oh, ow, oc);
        let (y, x) = ((at_y * oh as f64) as usize, (at_x * ow as f64) as usize);
        let region = Region::new(
            y,
            x,
            1 + (frac_h * (oh - y) as f64) as usize,
            1 + (frac_w * (ow - x) as f64) as usize,
        );
        let input = varied(shape.len(), seed);
        let weights = varied(oc * k * k * c, seed ^ 0xC0DE);
        let bias = varied(oc, seed ^ 0x3);
        let dot = FloatDot { weights: &weights, bias: &bias };
        // One scratch across both calls, as an executor reuses it.
        let tile = &mut Vec::new();
        let mut full = vec![0.0f32; os.len()];
        kernels::conv2d(&dot, &input, shape, &mut full, oc, k, stride, pad, os.full_region(), tile);
        let mut part = vec![f32::NAN; os.len()];
        kernels::conv2d(&dot, &input, shape, &mut part, oc, k, stride, pad, region, tile);
        for oy in 0..oh {
            for ox in 0..ow {
                let inside = oy >= region.y && oy < region.y_end()
                    && ox >= region.x && ox < region.x_end();
                for ch in 0..oc {
                    let (got, want) = (part[os.index(0, oy, ox, ch)], full[os.index(0, oy, ox, ch)]);
                    if inside {
                        prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "({}, {}, {}): region {} vs full {}", oy, ox, ch, got, want
                        );
                    } else {
                        prop_assert!(got.is_nan(), "({}, {}, {}) written outside the region", oy, ox, ch);
                    }
                }
            }
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
        c in 1usize..41,
        oc in 1usize..41,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        which_bits in 0usize..3,
        zp_at in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which_bits];
        let shape = Shape::hwc(h, w, c);
        let (q_in, x, zp_in) = varied_input(shape.len(), seed, zp_at);
        let qw = varied_weights(oc * k * k * c, seed ^ 0xACE, bits);
        let rq = requant(oc, seed);
        let reference = naive::conv2d_q(&q_in, shape, &qw, zp_in, &rq, oc, k, stride, pad);
        let packed = pack::pack(&qw, bits);
        let dot = PackedDot::new(&packed, bits, zp_in, &rq);
        let mut out = vec![0i8; reference.len()];
        kernels::conv2d_q(&dot, &x, shape, &mut out, oc, k, stride, pad, &mut RowScratch::default());
        prop_assert_eq!(levels(&out), reference);
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
        zp_at in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which_bits];
        let shape = Shape::hwc(h, w, c);
        let (q_in, x, zp_in) = varied_input(shape.len(), seed, zp_at);
        let qw = varied_weights(k * k * c, seed ^ 0xD0E, bits);
        let rq = requant(c, seed);
        let reference = naive::dwconv_q(&q_in, shape, &qw, zp_in, &rq, k, stride, pad);
        let packed = pack::pack(&qw, bits);
        let dot = PackedDot::new(&packed, bits, zp_in, &rq);
        let mut out = vec![0i8; reference.len()];
        kernels::dwconv_q(&dot, &x, shape, &mut out, k, stride, pad, &mut RowScratch::default());
        prop_assert_eq!(levels(&out), reference);
    }

    /// The 1×1 stride-1 unpadded conv, whose rows are copied straight
    /// from the input map: one pixel, odd pixel counts, and channel counts on both
    /// sides of the panel and group widths.
    #[test]
    fn packed_pointwise_matches_naive_bit_for_bit(
        h in 1usize..6,
        w in 1usize..6,
        c in 1usize..41,
        oc in 1usize..41,
        which_bits in 0usize..3,
        zp_at in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which_bits];
        let shape = Shape::hwc(h, w, c);
        let (q_in, x, zp_in) = varied_input(shape.len(), seed, zp_at);
        let qw = varied_weights(oc * c, seed ^ 0xB0B, bits);
        let rq = requant(oc, seed);
        let reference = naive::conv2d_q(&q_in, shape, &qw, zp_in, &rq, oc, 1, 1, 0);
        let packed = pack::pack(&qw, bits);
        let dot = PackedDot::new(&packed, bits, zp_in, &rq);
        let mut out = vec![0i8; reference.len()];
        kernels::conv2d_q(&dot, &x, shape, &mut out, oc, 1, 1, 0, &mut RowScratch::default());
        prop_assert_eq!(levels(&out), reference);
    }

    #[test]
    fn packed_dense_matches_naive_bit_for_bit(
        h in 1usize..7,
        w in 1usize..7,
        c in 1usize..41,
        out_f in 1usize..41,
        which_bits in 0usize..3,
        zp_at in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let bits = [Bitwidth::W2, Bitwidth::W4, Bitwidth::W8][which_bits];
        let shape = Shape::hwc(h, w, c);
        let fan_in = shape.per_sample();
        let (q_in, x, zp_in) = varied_input(shape.len(), seed, zp_at);
        let qw = varied_weights(out_f * fan_in, seed ^ 0xFEE, bits);
        let rq = requant(out_f, seed);
        let reference = naive::dense_q(&q_in, shape, &qw, zp_in, &rq, out_f);
        let packed = pack::pack(&qw, bits);
        let dot = PackedDot::new(&packed, bits, zp_in, &rq);
        let mut out = vec![0i8; reference.len()];
        kernels::dense_q(&dot, &x, shape, &mut out, out_f, &mut RowScratch::default());
        prop_assert_eq!(levels(&out), reference);
    }
}
