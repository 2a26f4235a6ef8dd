//! Shared operator kernels.
//!
//! [`CompiledGraph`](crate::exec::CompiledGraph)'s float and integer loops
//! and the patch engine's region-restricted branch evaluation dispatch
//! into this module, so every operator's loop nest exists exactly once.
//! The float weighted kernels ([`conv2d`], [`dwconv`], [`dense`]) run a
//! [`FloatDot`]; their integer twins ([`conv2d_q`], [`dwconv_q`],
//! [`dense_q`]) run a [`PackedDot`]: dot products computed *directly on
//! packed W2/W4/W8 words* from [`quantmcu_tensor::pack`], `i32`
//! accumulation and per-channel fixed-point requantization by [`Requant`].
//!
//! # Float tiling and micro-kernels
//!
//! [`conv2d`] is a pixel-tiled micro-kernel, the register-tile shape of
//! Goto & van de Geijn's GEMM ("Anatomy of High-Performance Matrix
//! Multiplication", TOMS 2008). [`PIX`] output pixels of the region at a
//! time are gathered transposed into a `[k·k·c][PIX]` scratch tile —
//! padding taps as 0, only the tile's receptive field read — and each
//! block of four output channels accumulates a `4 × PIX` register tile,
//! vectorized over pixels and reading the OHWI weights in place (no
//! repacking, no extra weight memory). It needs no long contiguous run, so
//! strided convs over three input channels (the stem) and short 1×1
//! reductions (the head's pointwise convs) vectorize as well as wide ones.
//! Maps of fewer than [`PIX`] output pixels — the 1×1 tail maps, where a
//! tile would be mostly empty lanes — run a lane-split [`FloatDot`]
//! instead: the valid `(kx, ic)` block of one kernel row is contiguous in
//! the input at any stride and in the weights, so it is one dot-product
//! run, fed to [`LANES`] independent accumulator lanes (explicit unrolling
//! on the stable toolchain — no `std::simd`). [`dwconv`] runs channel
//! tiles of independent per-channel accumulators; [`dense`] tiles output
//! features over fan-in chunks with the same lane-split dot.
//!
//! # Integer storage and the gathered row
//!
//! Integer feature maps are stored as `i8`: every grid the integer path
//! executes has at most 8 bits. The integer kernels take `i8` maps in and
//! write `i8` maps out. For each output pixel, [`conv2d_q`] gathers the
//! pixel's receptive row once as zero-point-corrected `i16` lanes
//! `q − zp_in` (`|q − zp| ≤ 255`), with padding taps set to 0, and then
//! runs one multiply-add reduction per output channel over that row and
//! the channel's packed weights — two pixels at a time, so each decoded
//! weight serves both rows (the shape of CMSIS-NN's
//! `arm_nn_mat_mult_kernel_s8_s16`). Dense is the one-pixel case.
//! Depthwise reads its taps straight from storage, with the same lanes.
//! There is one zero-point mode: every product is `(q − zp) · w`, and a
//! padding tap contributes an exact 0.
//!
//! # Parity contract
//!
//! Integer arithmetic is exact, so regrouping cannot change results: the
//! integer kernels are **bit-for-bit** identical to the scalar [`naive`]
//! reference loops. Accumulators are `i32`, which cannot overflow on any
//! graph that passed the static analyzer's `Q001` proof (it bounds the
//! whole accumulator by [`crate::analyze::ACC_LIMIT`], half the `i32`
//! range — see [`crate::analyze::accumulator_bound`]); [`Requant::finish`]
//! widens to `i64` only to add the bias and rescale.
//!
//! Float sums are exact only in one order. The pixel-tiled [`conv2d`] and
//! [`dwconv`] use naive's: bias first, then the taps in `(ky, kx, ic)`
//! order, a padding tap adding an exact ±0 — so they equal [`naive`]
//! (`==`; a `-0.0` sum may come out as `+0.0`). Lane accumulation
//! *reassociates* the summation, so [`dense`] and the lane-split conv of
//! small maps match [`naive`] to an ULP bound instead. Either way an
//! element's value is a pure function of its own taps — conv picks its
//! path from the node's output shape, never from the region, tile or
//! worker count — so float execution is deterministic run-to-run,
//! thread-count-independent, and region-independent: a patch branch
//! computes exactly the values of the full map. The kernel-parity
//! proptest suite pins all three properties down.
//!
//! The float kernels write into a caller-provided output slice and take a
//! [`Region`] selecting the output rows/columns to compute (pass
//! [`Shape::full_region`] for whole-map execution), which is what lets the
//! patch engine compute only the halo-expanded regions a branch needs.
//! The integer kernels always compute the whole map.

use quantmcu_tensor::{pack, Bitwidth, Region, Shape};

/// Identifies the kernel generation in benchmark snapshots
/// (`BENCH_kernels.json`, `BENCH_serve.json`), so throughput trajectories
/// recorded before and after a kernel rewrite stay comparable.
pub const GENERATION: &str = "pixel-tile-v3";

/// Accumulator-lane width of the unrolled float micro-kernel.
pub const LANES: usize = 4;

/// The full-precision strategy: `f32` elements, `f32` accumulation, bias
/// preloaded into the accumulator.
#[derive(Debug, Clone, Copy)]
pub struct FloatDot<'a> {
    /// Flattened weights in the node's canonical layout (see
    /// [`crate::OpParams`]).
    pub weights: &'a [f32],
    /// One bias per output channel / feature.
    pub bias: &'a [f32],
}

impl FloatDot<'_> {
    /// Initial accumulator for output channel `oc`: its bias.
    #[inline]
    fn init(&self, oc: usize) -> f32 {
        self.bias[oc]
    }

    /// Register-tiled dot product: [`LANES`] independent partial sums over
    /// the run, combined pairwise, then the sub-lane tail. The lane split
    /// reassociates the `f32` summation (the documented ULP-level
    /// divergence from [`naive`]); the combination order is fixed, so the
    /// result is still a deterministic function of the run.
    #[inline]
    fn dot(&self, acc: f32, x: &[f32], w_base: usize) -> f32 {
        let w = &self.weights[w_base..w_base + x.len()];
        let split = x.len() - x.len() % LANES;
        let mut lanes = [0.0f32; LANES];
        for (xq, wq) in x[..split].chunks_exact(LANES).zip(w[..split].chunks_exact(LANES)) {
            lanes[0] += xq[0] * wq[0];
            lanes[1] += xq[1] * wq[1];
            lanes[2] += xq[2] * wq[2];
            lanes[3] += xq[3] * wq[3];
        }
        let mut tail = 0.0f32;
        for (&xv, &wv) in x[split..].iter().zip(&w[split..]) {
            tail += xv * wv;
        }
        acc + (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail)
    }

    /// Depthwise per-channel MAC: `acc[j] += x[j] * w[w_base + j]`. Each
    /// channel owns an independent accumulator, so the loop is
    /// lane-parallel as written and stays bit-exact vs naive.
    #[inline]
    fn mac_rows(&self, acc: &mut [f32], x: &[f32], w_base: usize) {
        let w = &self.weights[w_base..w_base + acc.len()];
        for ((a, &xv), &wv) in acc.iter_mut().zip(x).zip(w) {
            *a += xv * wv;
        }
    }
}

/// A positive real multiplier in fixed point: `multiplier · 2^-(31 + shift)`,
/// the (Q31 mantissa, shift) pair gemmlowp and CMSIS-NN's
/// `arm_nn_requantize` apply between layers.
///
/// The mantissa is normalized to `[2^30, 2^31)`, so it carries 31
/// significant bits and any representable multiplier is within a relative
/// `2^-31` of the real one. `shift` is the right shift after the Q31
/// product; multipliers ≥ 1 have a negative shift (fewer bits shifted
/// out), down to `-31` (a total shift of 0). Multipliers ≥ `2^31`
/// saturate to that largest pair, and multipliers below `2^-64` (whose
/// product with any `i64` accumulator plus bias rounds to 0) become the
/// zero multiplier.
///
/// The fields are private so every pair in existence came out of
/// [`FixedMultiplier::from_real`] and keeps the shift in range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedMultiplier {
    multiplier: i32,
    shift: i32,
}

impl FixedMultiplier {
    /// The zero multiplier.
    pub const ZERO: FixedMultiplier = FixedMultiplier { multiplier: 0, shift: 0 };

    /// The pair nearest to `real`, read exactly off its `f64` bits: the
    /// 53-bit significand rounds to 31 bits (half up), so the result is a
    /// pure function of `real` on every host. Non-positive, non-finite
    /// and subnormal inputs give [`FixedMultiplier::ZERO`].
    pub fn from_real(real: f64) -> Self {
        if !(real.is_finite() && real > 0.0) {
            return FixedMultiplier::ZERO;
        }
        let bits = real.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        if biased == 0 {
            return FixedMultiplier::ZERO;
        }
        // real = significand · 2^(biased - 1075), significand in [2^52, 2^53).
        let significand = (bits & ((1 << 52) - 1)) | (1 << 52);
        let mut mantissa = (significand + (1 << 21)) >> 22;
        // real ≈ mantissa · 2^exp.
        let mut exp = biased - 1075 + 22;
        if mantissa == 1 << 31 {
            mantissa >>= 1;
            exp += 1;
        }
        let shift = -exp - 31;
        if shift > 63 {
            FixedMultiplier::ZERO
        } else if shift < -31 {
            FixedMultiplier { multiplier: i32::MAX, shift: -31 }
        } else {
            FixedMultiplier { multiplier: mantissa as i32, shift }
        }
    }

    /// The Q31 mantissa, in `[2^30, 2^31)`, or `0` for the zero multiplier.
    pub fn multiplier(self) -> i32 {
        self.multiplier
    }

    /// The right shift applied after the Q31 product, in `-31..=63`.
    pub fn shift(self) -> i32 {
        self.shift
    }
}

/// Per-channel requantization, fixed when a node is compiled: bias enters
/// the accumulator in its own grid, then the total is rescaled to the
/// output feature map's grid by a [`FixedMultiplier`] (the per-channel
/// `acc_scale / out_scale`), shifted by the output zero point and clamped
/// to the output bitwidth — integer arithmetic only, as the device
/// executes it.
#[derive(Debug, Clone)]
pub struct Requant {
    channels: Vec<ChannelRequant>,
    zp_out: i32,
    q_min: i32,
    q_max: i32,
}

/// One channel's requantization constants, with the choice of route made
/// once instead of per element.
#[derive(Debug, Clone, Copy)]
struct ChannelRequant {
    /// Bias in accumulator grid units.
    bias: i64,
    /// The [`FixedMultiplier`] mantissa.
    multiplier: i64,
    /// Total right shift, `31 + shift`.
    total: u32,
    /// `true` when the `i64` route is exact for every `i32` accumulator:
    /// `|bias| ≤ 2^30` and `1 ≤ total ≤ 61`. Then `|acc + bias| < 3·2^30`,
    /// the product stays below `3·2^61` in magnitude, and adding the
    /// rounding half (`≤ 2^60`) cannot leave `i64`.
    fast: bool,
}

impl Requant {
    /// The requantization of one node: `bias_q` (accumulator grid units)
    /// and `scale` (accumulator-to-output rescale `s_in · s_w(oc) /
    /// s_out`) per output channel, then the output grid's zero point and
    /// range.
    ///
    /// # Panics
    ///
    /// Panics when `bias_q` and `scale` differ in length.
    pub fn new(
        bias_q: &[i64],
        scale: &[FixedMultiplier],
        zp_out: i32,
        q_min: i32,
        q_max: i32,
    ) -> Self {
        assert_eq!(bias_q.len(), scale.len(), "one bias and one multiplier per channel");
        let channels = bias_q
            .iter()
            .zip(scale)
            .map(|(&bias, m)| {
                let total = (31 + m.shift) as u32;
                let fast = bias.unsigned_abs() <= 1 << 30 && (1..=61).contains(&total);
                ChannelRequant { bias, multiplier: m.multiplier as i64, total, fast }
            })
            .collect();
        Requant { channels, zp_out, q_min, q_max }
    }

    /// Finalizes an `i32` accumulator into output channel `oc`'s grid:
    /// `clamp(round(scale(oc) · (acc + bias_q(oc))) + zp_out)`, rounding
    /// ties away from zero like `f64::round`. Never wraps or panics, for
    /// any accumulator and bias.
    ///
    /// On the `i64` route (see `ChannelRequant::fast`),
    /// `(p + half - [p < 0]) >> total` is round-half-away-from-zero
    /// division by a power of two; other channels take the same formula
    /// in `i128`.
    #[inline(always)]
    pub fn finish(&self, acc: i32, oc: usize) -> i32 {
        let ch = self.channels[oc];
        if !ch.fast {
            return self.finish_wide(acc, ch);
        }
        let product = (acc as i64 + ch.bias) * ch.multiplier;
        let v = (product + (1i64 << (ch.total - 1)) - (product < 0) as i64) >> ch.total;
        (v + self.zp_out as i64).clamp(self.q_min as i64, self.q_max as i64) as i32
    }

    /// [`Requant::finish`] in `i128`: `|acc + bias| < 2^64` times a
    /// 31-bit mantissa stays below `2^95`, so nothing wraps.
    #[cold]
    #[inline(never)]
    fn finish_wide(&self, acc: i32, ch: ChannelRequant) -> i32 {
        let product = (acc as i128 + ch.bias as i128) * ch.multiplier as i128;
        let magnitude = ((product.unsigned_abs() + ((1u128 << ch.total) >> 1)) >> ch.total) as i128;
        let v = if product < 0 { -magnitude } else { magnitude };
        (v + self.zp_out as i128).clamp(self.q_min as i128, self.q_max as i128) as i32
    }
}

/// A weighted node's integer form: its weights **packed** W2/W4/W8 words
/// in the node's canonical execution layout (the SRAM layout, decoded in
/// registers as they are consumed, never unpacked into a buffer), the
/// input grid's zero point and the node's [`Requant`].
#[derive(Debug, Clone, Copy)]
pub struct PackedDot<'a> {
    packed: &'a [u8],
    bits: Bitwidth,
    zp_in: i32,
    rq: &'a Requant,
}

impl<'a> PackedDot<'a> {
    /// The integer form over `packed` weights of width `bits`.
    ///
    /// # Panics
    ///
    /// Panics for weight widths above 8 bits, which have no packed layout,
    /// and for an output grid `rq` clamps to that `i8` cannot hold.
    pub fn new(packed: &'a [u8], bits: Bitwidth, zp_in: i32, rq: &'a Requant) -> Self {
        assert!(bits.bits() <= 8, "packed weights must have a storage layout");
        assert!(
            rq.q_min >= i8::MIN as i32 && rq.q_max <= i8::MAX as i32,
            "the output grid must fit i8 storage"
        );
        PackedDot { packed, bits, zp_in, rq }
    }

    /// `Σ row[j] · w[start + j]` in `i32`.
    #[inline(always)]
    fn dot(&self, row: &[i16], start: usize) -> i32 {
        match self.bits {
            Bitwidth::W8 => dot_w8(&self.packed[start..start + row.len()], row),
            Bitwidth::W4 => dot_w4(self.packed, start, row),
            Bitwidth::W2 => dot_w2(self.packed, start, row),
            _ => unreachable!("the constructor rejects accounting-only widths"),
        }
    }

    /// Weight `index`, sign-extended.
    #[inline(always)]
    fn weight(&self, index: usize) -> i8 {
        pack::field_at(self.packed, self.bits, index)
    }

    /// Output channel `oc` of a finished accumulator, stored as `i8`
    /// (the constructor checks the output grid fits).
    #[inline(always)]
    fn finish(&self, acc: i32, oc: usize) -> i8 {
        self.rq.finish(acc, oc) as i8
    }

    /// The zero-point-corrected lane `q − zp_in`: `|q − zp| ≤ 255` on any
    /// grid `i8` holds, so it fits `i16`.
    #[inline(always)]
    fn lane(&self, q: i8) -> i16 {
        q as i16 - self.zp_in as i16
    }
}

/// Packed-`W8` reduction: bytes *are* the fields. Integer addition is
/// associative, so the compiler vectorizes the sum as i16×i16→i32
/// multiply-adds.
#[inline(always)]
fn dot_w8(w: &[u8], row: &[i16]) -> i32 {
    row.iter().zip(w).fold(0i32, |acc, (&x, &b)| acc + x as i32 * (b as i8 as i32))
}

/// [`dot_w8`] over two rows sharing the weights.
#[inline(always)]
fn dot2_w8(w: &[u8], r0: &[i16], r1: &[i16]) -> (i32, i32) {
    w.iter().zip(r0).zip(r1).fold((0i32, 0i32), |(a0, a1), ((&b, &x0), &x1)| {
        let w = b as i8 as i32;
        (a0 + x0 as i32 * w, a1 + x1 as i32 * w)
    })
}

/// Packed-`W4` reduction: a ragged head up to the byte boundary, then
/// bytes decoded two fields at a time, then the ragged tail.
#[inline(always)]
fn dot_w4(packed: &[u8], start: usize, row: &[i16]) -> i32 {
    let mut acc = 0i32;
    let mut j = 0;
    if start % 2 == 1 && !row.is_empty() {
        acc += row[0] as i32 * pack::field_at(packed, Bitwidth::W4, start) as i32;
        j = 1;
    }
    let body = (row.len() - j) / 2 * 2;
    let bytes = &packed[(start + j) / 2..(start + j + body) / 2];
    for (&b, x) in bytes.iter().zip(row[j..j + body].chunks_exact(2)) {
        let [w0, w1] = pack::decode_w4(b);
        acc += x[0] as i32 * w0 as i32 + x[1] as i32 * w1 as i32;
    }
    for (t, &x) in row.iter().enumerate().skip(j + body) {
        acc += x as i32 * pack::field_at(packed, Bitwidth::W4, start + t) as i32;
    }
    acc
}

/// Packed-`W2` reduction: a ragged head up to the byte boundary, then
/// bytes decoded four fields at a time, then the ragged tail.
#[inline(always)]
fn dot_w2(packed: &[u8], start: usize, row: &[i16]) -> i32 {
    let mut acc = 0i32;
    let mut j = 0;
    while (start + j) % 4 != 0 && j < row.len() {
        acc += row[j] as i32 * pack::field_at(packed, Bitwidth::W2, start + j) as i32;
        j += 1;
    }
    let body = (row.len() - j) / 4 * 4;
    let bytes = &packed[(start + j) / 4..(start + j + body) / 4];
    for (&b, x) in bytes.iter().zip(row[j..j + body].chunks_exact(4)) {
        let [w0, w1, w2, w3] = pack::decode_w2(b);
        let pair = x[0] as i32 * w0 as i32 + x[1] as i32 * w1 as i32;
        acc += pair + x[2] as i32 * w2 as i32 + x[3] as i32 * w3 as i32;
    }
    for (t, &x) in row.iter().enumerate().skip(j + body) {
        acc += x as i32 * pack::field_at(packed, Bitwidth::W2, start + t) as i32;
    }
    acc
}

/// Output-channel tile width of the blocked dense kernel.
const OC_TILE: usize = 8;
/// Output pixels per register tile of the float convolution.
pub const PIX: usize = 8;
/// Output channels per register tile of the float convolution.
const OC_BLOCK: usize = 4;
/// Channel tile width of the depthwise kernel.
const CH_TILE: usize = 16;
/// Fan-in chunk length of the blocked dense kernel.
const FAN_CHUNK: usize = 256;

/// Spatial output extent of a convolution/pool window.
pub fn conv_output_hw(in_shape: Shape, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    ((in_shape.h + 2 * pad - k) / stride + 1, (in_shape.w + 2 * pad - k) / stride + 1)
}

/// Valid kernel-tap range `[lo, hi)` for output position `o`: taps whose
/// input coordinate `o * stride + t - pad` falls inside `[0, extent)`.
#[inline]
fn valid_taps(o: usize, stride: usize, k: usize, pad: usize, extent: usize) -> (usize, usize) {
    let base = o * stride;
    let lo = pad.saturating_sub(base);
    let hi = (extent + pad).saturating_sub(base).min(k);
    (lo.min(hi), hi)
}

/// Standard convolution (OHWI weights, bias from the strategy), zero
/// padding outside the input.
///
/// Maps of at least [`PIX`] output pixels per sample run the pixel-tiled
/// micro-kernel: [`PIX`] output pixels of `region` at a time are gathered
/// transposed into `tile` (`[k·k·c][PIX]`, padding taps 0), then each
/// block of four output channels accumulates a register tile of `4 × PIX`
/// sums, vectorized over pixels, reading the OHWI weights in place. Every
/// element is summed in naive's order — bias, then its taps in
/// `(ky, kx, ic)` order, a padding tap adding an exact ±0 — so it equals
/// [`naive::conv2d`]. Smaller maps (the 1×1 tails) run one
/// [`FloatDot`] lane-split run per kernel row instead: the valid
/// `(kx, ic)` block of a kernel row is contiguous in the input at any
/// stride and in the weights. The path is chosen from the node's output
/// shape alone, so either way an element's value depends only on its own
/// taps, never on `region`.
///
/// `out` must hold the full output map; only positions inside `region`
/// (clamped to the map) are written. `tile` is caller scratch, grown to
/// `k·k·c·PIX` values on first use.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    s: &FloatDot<'_>,
    input: &[f32],
    in_shape: Shape,
    out: &mut [f32],
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    region: Region,
    tile: &mut Vec<f32>,
) {
    debug_assert!(k > 0 && stride > 0, "degenerate conv window k={k} stride={stride}");
    debug_assert!(in_shape.h + 2 * pad >= k && in_shape.w + 2 * pad >= k);
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    let (oh, ow) = conv_output_hw(in_shape, k, stride, pad);
    let os = Shape::new(in_shape.n, oh, ow, out_ch);
    debug_assert_eq!(out.len(), os.len());
    debug_assert_eq!(s.weights.len(), out_ch * k * k * in_shape.c);
    let y_end = region.y_end().min(oh);
    let x_end = region.x_end().min(ow);
    if y_end <= region.y || x_end <= region.x {
        return;
    }
    let window = ConvWindow { in_shape, k, stride, pad };
    if oh * ow < PIX {
        for n in 0..in_shape.n {
            for oy in region.y..y_end {
                for ox in region.x..x_end {
                    let o_base = os.index(n, oy, ox, 0);
                    window.lanes(s, input, (n, oy, ox), &mut out[o_base..o_base + out_ch]);
                }
            }
        }
        return;
    }
    // Every used column is gathered in full, so stale values can only sit
    // in the unused lanes of a partial tile, whose sums are discarded.
    tile.resize(k * k * in_shape.c * PIX, 0.0);
    let pixels = in_shape.n * (y_end - region.y) * (x_end - region.x);
    let mut bases = [0usize; PIX];
    // The next output pixel, walking `region` in `(n, oy, ox)` order.
    let (mut n, mut oy, mut ox) = (0, region.y, region.x);
    for t0 in (0..pixels).step_by(PIX) {
        let np = (pixels - t0).min(PIX);
        for (p, base) in bases.iter_mut().enumerate().take(np) {
            window.gather(input, (n, oy, ox), tile, p);
            *base = os.index(n, oy, ox, 0);
            ox += 1;
            if ox == x_end {
                ox = region.x;
                oy += 1;
                if oy == y_end {
                    oy = region.y;
                    n += 1;
                }
            }
        }
        let blocks = out_ch - out_ch % OC_BLOCK;
        for oc0 in (0..blocks).step_by(OC_BLOCK) {
            let acc = tile_block::<OC_BLOCK>(s, oc0, tile);
            for (p, &base) in bases.iter().enumerate().take(np) {
                for (j, lane) in acc.iter().enumerate() {
                    out[base + oc0 + j] = lane[p];
                }
            }
        }
        for oc in blocks..out_ch {
            let [lane] = tile_block::<1>(s, oc, tile);
            for (p, &base) in bases.iter().enumerate().take(np) {
                out[base + oc] = lane[p];
            }
        }
    }
}

/// An output pixel `(n, oy, ox)`.
type Pixel = (usize, usize, usize);

/// The input side of a convolution window.
#[derive(Clone, Copy)]
struct ConvWindow {
    in_shape: Shape,
    k: usize,
    stride: usize,
    pad: usize,
}

impl ConvWindow {
    /// Gathers `pixel`'s receptive field into column `p` of the transposed
    /// `[k·k·c][PIX]` tile: tap `q` in `(ky, kx, ic)` order lands at
    /// `tile[q · PIX + p]`, padding taps as 0. Within one kernel row the
    /// valid taps are adjacent in the input at any stride, so each row
    /// copies one run.
    #[inline(always)]
    fn gather(&self, input: &[f32], (n, oy, ox): Pixel, tile: &mut [f32], p: usize) {
        let ConvWindow { in_shape, k, stride, pad } = *self;
        let (c, span) = (in_shape.c, k * in_shape.c);
        let (ky_lo, ky_hi) = valid_taps(oy, stride, k, pad, in_shape.h);
        let (kx_lo, kx_hi) = valid_taps(ox, stride, k, pad, in_shape.w);
        for ky in 0..k {
            let mut col = tile[ky * span * PIX + p..].iter_mut().step_by(PIX).take(span);
            if (ky_lo..ky_hi).contains(&ky) && kx_lo < kx_hi {
                let at = in_shape.index(n, oy * stride + ky - pad, ox * stride + kx_lo - pad, 0);
                col.by_ref().take(kx_lo * c).for_each(|d| *d = 0.0);
                // `src` leads the zip, so the column is not advanced past it.
                for (&v, d) in input[at..at + (kx_hi - kx_lo) * c].iter().zip(col.by_ref()) {
                    *d = v;
                }
            }
            col.for_each(|d| *d = 0.0);
        }
    }

    /// All output channels of `pixel` by the lane-split [`FloatDot`], one
    /// run per valid kernel row.
    #[inline]
    fn lanes(&self, s: &FloatDot<'_>, input: &[f32], (n, oy, ox): Pixel, out: &mut [f32]) {
        let ConvWindow { in_shape, k, stride, pad } = *self;
        let c = in_shape.c;
        let (ky_lo, ky_hi) = valid_taps(oy, stride, k, pad, in_shape.h);
        let (kx_lo, kx_hi) = valid_taps(ox, stride, k, pad, in_shape.w);
        for (oc, o) in out.iter_mut().enumerate() {
            let mut acc = s.init(oc);
            // (The `kx_lo < kx_hi` guard skips empty tap ranges, whose `ix`
            // would underflow.)
            if kx_lo < kx_hi {
                for ky in ky_lo..ky_hi {
                    let at =
                        in_shape.index(n, oy * stride + ky - pad, ox * stride + kx_lo - pad, 0);
                    let x = &input[at..at + (kx_hi - kx_lo) * c];
                    acc = s.dot(acc, x, ((oc * k + ky) * k + kx_lo) * c);
                }
            }
            *o = acc;
        }
    }
}

/// One `J × PIX` register tile of output channels `oc0..oc0 + J`: each
/// lane starts at its channel's bias and adds `w[oc][q] · x[q][p]` over
/// the gathered taps `q` in order.
#[inline(always)]
fn tile_block<const J: usize>(s: &FloatDot<'_>, oc0: usize, tile: &[f32]) -> [[f32; PIX]; J] {
    let taps = tile.len() / PIX;
    let w: [&[f32]; J] = std::array::from_fn(|j| &s.weights[(oc0 + j) * taps..][..taps]);
    let mut acc: [[f32; PIX]; J] = std::array::from_fn(|j| [s.init(oc0 + j); PIX]);
    for (q, x) in tile.chunks_exact(PIX).enumerate() {
        let x: &[f32; PIX] = x.try_into().expect("chunks are PIX long");
        for (a, w) in acc.iter_mut().zip(&w) {
            let wv = w[q];
            for p in 0..PIX {
                a[p] += wv * x[p];
            }
        }
    }
    acc
}

/// Cache-blocked depthwise convolution (`[kh][kw][c]` weights), zero
/// padding outside the input. Channels are processed in tiles so the
/// per-channel MACs of one kernel tap run over contiguous slices.
#[allow(clippy::too_many_arguments)]
pub fn dwconv(
    s: &FloatDot<'_>,
    input: &[f32],
    in_shape: Shape,
    out: &mut [f32],
    k: usize,
    stride: usize,
    pad: usize,
    region: Region,
) {
    debug_assert!(k > 0 && stride > 0, "degenerate dwconv window k={k} stride={stride}");
    debug_assert!(in_shape.h + 2 * pad >= k && in_shape.w + 2 * pad >= k);
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    let (oh, ow) = conv_output_hw(in_shape, k, stride, pad);
    let c = in_shape.c;
    let os = Shape::new(in_shape.n, oh, ow, c);
    debug_assert_eq!(out.len(), os.len());
    let y_end = region.y_end().min(oh);
    let x_end = region.x_end().min(ow);
    for n in 0..in_shape.n {
        for oy in region.y..y_end {
            let (ky_lo, ky_hi) = valid_taps(oy, stride, k, pad, in_shape.h);
            for ox in region.x..x_end {
                let (kx_lo, kx_hi) = valid_taps(ox, stride, k, pad, in_shape.w);
                for c0 in (0..c).step_by(CH_TILE) {
                    let cn = (c - c0).min(CH_TILE);
                    let mut acc = [s.init(c0); CH_TILE];
                    for (j, a) in acc.iter_mut().enumerate().take(cn).skip(1) {
                        *a = s.init(c0 + j);
                    }
                    for ky in ky_lo..ky_hi {
                        let iy = oy * stride + ky - pad;
                        for kx in kx_lo..kx_hi {
                            let ix = ox * stride + kx - pad;
                            let base = in_shape.index(n, iy, ix, 0) + c0;
                            s.mac_rows(
                                &mut acc[..cn],
                                &input[base..base + cn],
                                (ky * k + kx) * c + c0,
                            );
                        }
                    }
                    let o_base = os.index(n, oy, ox, c0);
                    for (j, &a) in acc.iter().enumerate().take(cn) {
                        out[o_base + j] = a;
                    }
                }
            }
        }
    }
}

/// Blocked dense (fully connected) layer over the flattened input:
/// output features are tiled and the sample is consumed in fan-in chunks
/// so one cached chunk serves the whole output tile.
pub fn dense(s: &FloatDot<'_>, input: &[f32], in_shape: Shape, out: &mut [f32], out_f: usize) {
    let fan_in = in_shape.per_sample();
    debug_assert!(fan_in > 0 && out_f > 0, "degenerate dense fan_in={fan_in} out={out_f}");
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    debug_assert_eq!(out.len(), in_shape.n * out_f);
    for n in 0..in_shape.n {
        let sample = &input[n * fan_in..(n + 1) * fan_in];
        for o0 in (0..out_f).step_by(OC_TILE) {
            let on = (out_f - o0).min(OC_TILE);
            let mut acc = [s.init(o0); OC_TILE];
            for (j, a) in acc.iter_mut().enumerate().take(on).skip(1) {
                *a = s.init(o0 + j);
            }
            let mut start = 0;
            while start < fan_in {
                let len = (fan_in - start).min(FAN_CHUNK);
                let x = &sample[start..start + len];
                for (j, a) in acc.iter_mut().enumerate().take(on) {
                    *a = s.dot(*a, x, (o0 + j) * fan_in + start);
                }
                start += len;
            }
            for (j, &a) in acc.iter().enumerate().take(on) {
                out[n * out_f + o0 + j] = a;
            }
        }
    }
}

/// Integer standard convolution (OHWI packed weights) over the whole
/// output map, zero padding outside the input: `i8` maps in and out.
///
/// For each output pixel the receptive row — `k·k·c` lanes in the
/// weights' `(ky, kx, ic)` order — is gathered once into `row` as `i16`
/// lanes `q − zp_in` (padding taps are 0), then each output channel is one
/// reduction of that row against its contiguous weights. Within one kernel
/// row the valid taps are adjacent in the input at any stride, so the
/// gather copies one run per kernel row. Pixels run in pairs (flattened
/// `(n, oy, ox)` order), so each weight is decoded once for two rows.
/// `row` is caller scratch, grown to two rows on first use.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_q(
    s: &PackedDot<'_>,
    input: &[i8],
    in_shape: Shape,
    out: &mut [i8],
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    row: &mut Vec<i16>,
) {
    debug_assert!(k > 0 && stride > 0, "degenerate conv window k={k} stride={stride}");
    debug_assert!(in_shape.h + 2 * pad >= k && in_shape.w + 2 * pad >= k);
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    debug_assert_eq!(s.rq.channels.len(), out_ch, "one requantization channel per output");
    let (oh, ow) = conv_output_hw(in_shape, k, stride, pad);
    debug_assert_eq!(out.len(), in_shape.n * oh * ow * out_ch);
    let c = in_shape.c;
    let span = k * c;
    let len = k * span;
    // Output pixel `p` (flattened `(n, oy, ox)`) gathered into `dst`.
    let gather = |p: usize, dst: &mut [i16]| {
        let (n, oy, ox) = (p / (oh * ow), p / ow % oh, p % ow);
        let (ky_lo, ky_hi) = valid_taps(oy, stride, k, pad, in_shape.h);
        let (kx_lo, kx_hi) = valid_taps(ox, stride, k, pad, in_shape.w);
        for (ky, dst) in dst.chunks_exact_mut(span).enumerate() {
            if ky < ky_lo || ky >= ky_hi || kx_lo >= kx_hi {
                dst.fill(0);
                continue;
            }
            let iy = oy * stride + ky - pad;
            let ix = ox * stride + kx_lo - pad;
            let base = in_shape.index(n, iy, ix, 0);
            let src = &input[base..base + (kx_hi - kx_lo) * c];
            dst[..kx_lo * c].fill(0);
            for (d, &q) in dst[kx_lo * c..kx_hi * c].iter_mut().zip(src) {
                *d = s.lane(q);
            }
            dst[kx_hi * c..].fill(0);
        }
    };
    row.clear();
    row.resize(2 * len, 0);
    let (r0, r1) = row.split_at_mut(len);
    // Pixels go in pairs, so each decoded weight serves two rows.
    let mut pairs = out.chunks_exact_mut(2 * out_ch);
    for (i, pair) in pairs.by_ref().enumerate() {
        gather(2 * i, r0);
        gather(2 * i + 1, r1);
        let (o0, o1) = pair.split_at_mut(out_ch);
        dot_channels2(s, r0, r1, o0, o1);
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        gather(in_shape.n * oh * ow - 1, r0);
        dot_channels(s, r0, last);
    }
}

/// Integer dense layer over the flattened input: the one-pixel case of
/// [`conv2d_q`], whose gathered row is the whole sample.
pub fn dense_q(
    s: &PackedDot<'_>,
    input: &[i8],
    in_shape: Shape,
    out: &mut [i8],
    out_f: usize,
    row: &mut Vec<i16>,
) {
    let fan_in = in_shape.per_sample();
    debug_assert!(fan_in > 0 && out_f > 0, "degenerate dense fan_in={fan_in} out={out_f}");
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    debug_assert_eq!(out.len(), in_shape.n * out_f);
    debug_assert_eq!(s.rq.channels.len(), out_f, "one requantization channel per output");
    for (sample, pixel) in input.chunks_exact(fan_in).zip(out.chunks_exact_mut(out_f)) {
        row.clear();
        row.extend(sample.iter().map(|&q| s.lane(q)));
        dot_channels(s, row, pixel);
    }
}

/// One output pixel: channel `oc` reduces `row` against weights
/// `oc · row.len()..`, then requantizes.
#[inline(always)]
fn dot_channels(s: &PackedDot<'_>, row: &[i16], pixel: &mut [i8]) {
    for (oc, o) in pixel.iter_mut().enumerate() {
        *o = s.finish(s.dot(row, oc * row.len()), oc);
    }
}

/// [`dot_channels`] for two pixels at once. At `W8` each weight is
/// loaded and sign-extended once for both rows.
#[inline(always)]
fn dot_channels2(s: &PackedDot<'_>, r0: &[i16], r1: &[i16], o0: &mut [i8], o1: &mut [i8]) {
    let len = r0.len();
    for (oc, (a, b)) in o0.iter_mut().zip(o1.iter_mut()).enumerate() {
        let (x, y) = if s.bits == Bitwidth::W8 {
            dot2_w8(&s.packed[oc * len..(oc + 1) * len], r0, r1)
        } else {
            (s.dot(r0, oc * len), s.dot(r1, oc * len))
        };
        *a = s.finish(x, oc);
        *b = s.finish(y, oc);
    }
}

/// Integer depthwise convolution (`[kh][kw][c]` packed weights) over the
/// whole output map, zero padding outside the input: `i8` maps in and
/// out. Channels run in tiles of `i32` accumulators; each valid tap reads
/// its input run straight from storage as `q − zp_in` lanes.
#[allow(clippy::too_many_arguments)]
pub fn dwconv_q(
    s: &PackedDot<'_>,
    input: &[i8],
    in_shape: Shape,
    out: &mut [i8],
    k: usize,
    stride: usize,
    pad: usize,
) {
    debug_assert!(k > 0 && stride > 0, "degenerate dwconv window k={k} stride={stride}");
    debug_assert!(in_shape.h + 2 * pad >= k && in_shape.w + 2 * pad >= k);
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    let (oh, ow) = conv_output_hw(in_shape, k, stride, pad);
    let c = in_shape.c;
    debug_assert_eq!(out.len(), in_shape.n * oh * ow * c);
    debug_assert_eq!(s.rq.channels.len(), c, "one requantization channel per channel");
    let os = Shape::new(in_shape.n, oh, ow, c);
    for n in 0..in_shape.n {
        for oy in 0..oh {
            let (ky_lo, ky_hi) = valid_taps(oy, stride, k, pad, in_shape.h);
            for ox in 0..ow {
                let (kx_lo, kx_hi) = valid_taps(ox, stride, k, pad, in_shape.w);
                for c0 in (0..c).step_by(CH_TILE) {
                    let cn = (c - c0).min(CH_TILE);
                    let mut acc = [0i32; CH_TILE];
                    let acc = &mut acc[..cn];
                    for ky in ky_lo..ky_hi {
                        let iy = oy * stride + ky - pad;
                        for kx in kx_lo..kx_hi {
                            let ix = ox * stride + kx - pad;
                            let base = in_shape.index(n, iy, ix, 0) + c0;
                            let x = &input[base..base + cn];
                            let w_base = (ky * k + kx) * c + c0;
                            if s.bits == Bitwidth::W8 {
                                let w = &s.packed[w_base..w_base + cn];
                                for ((a, &q), &wv) in acc.iter_mut().zip(x).zip(w) {
                                    *a += s.lane(q) as i32 * (wv as i8 as i32);
                                }
                            } else {
                                // Depthwise runs are short and start at
                                // arbitrary sub-byte offsets: decode per field.
                                for (j, (a, &q)) in acc.iter_mut().zip(x).enumerate() {
                                    *a += s.lane(q) as i32 * s.weight(w_base + j) as i32;
                                }
                            }
                        }
                    }
                    let o_base = os.index(n, oy, ox, c0);
                    for (j, (o, &a)) in
                        out[o_base..o_base + cn].iter_mut().zip(acc.iter()).enumerate()
                    {
                        *o = s.finish(a, c0 + j);
                    }
                }
            }
        }
    }
}

/// Max pooling (no padding) over `region` of the output map.
pub fn max_pool(
    input: &[f32],
    in_shape: Shape,
    out: &mut [f32],
    k: usize,
    stride: usize,
    region: Region,
) {
    pool_impl(
        input,
        in_shape,
        out,
        k,
        stride,
        region,
        f32::NEG_INFINITY,
        |o, v| *o = o.max(v),
        |_| {},
    )
}

/// Integer max pooling (no padding) over `region`: the window maximum of
/// grid values, on the input's grid. Because dequantization is monotone,
/// this selects exactly the element [`max_pool`] selects on the
/// dequantized map, so requantizing its result reproduces the float
/// round trip bit-for-bit.
pub(crate) fn max_pool_q(
    input: &[i8],
    in_shape: Shape,
    out: &mut [i8],
    k: usize,
    stride: usize,
    region: Region,
) {
    pool_impl(input, in_shape, out, k, stride, region, i8::MIN, |o, v| *o = (*o).max(v), |_| {})
}

/// Average pooling (no padding) over `region` of the output map.
pub fn avg_pool(
    input: &[f32],
    in_shape: Shape,
    out: &mut [f32],
    k: usize,
    stride: usize,
    region: Region,
) {
    let inv = 1.0 / (k * k) as f32;
    pool_impl(
        input,
        in_shape,
        out,
        k,
        stride,
        region,
        0.0,
        |o, v| *o += v,
        |cell| {
            for o in cell {
                *o *= inv;
            }
        },
    )
}

/// The shared pooling loop nest: every output cell of `region` starts at
/// `init`, folds in each window row with `fold`, then passes through
/// `finish`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pool_impl<T: Copy>(
    input: &[T],
    in_shape: Shape,
    out: &mut [T],
    k: usize,
    stride: usize,
    region: Region,
    init: T,
    fold: impl Fn(&mut T, T),
    finish: impl Fn(&mut [T]),
) {
    debug_assert!(k > 0 && stride > 0, "degenerate pool window k={k} stride={stride}");
    debug_assert!(in_shape.h >= k && in_shape.w >= k, "pool window exceeds the input");
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    let oh = (in_shape.h - k) / stride + 1;
    let ow = (in_shape.w - k) / stride + 1;
    let c = in_shape.c;
    let os = Shape::new(in_shape.n, oh, ow, c);
    debug_assert_eq!(out.len(), os.len());
    let y_end = region.y_end().min(oh);
    let x_end = region.x_end().min(ow);
    for n in 0..in_shape.n {
        for oy in region.y..y_end {
            for ox in region.x..x_end {
                let o_base = os.index(n, oy, ox, 0);
                let cell = &mut out[o_base..o_base + c];
                cell.fill(init);
                for ky in 0..k {
                    for kx in 0..k {
                        let i_base = in_shape.index(n, oy * stride + ky, ox * stride + kx, 0);
                        for (o, &v) in cell.iter_mut().zip(&input[i_base..i_base + c]) {
                            fold(o, v);
                        }
                    }
                }
                finish(cell);
            }
        }
    }
}

/// Global average pooling to `1×1` spatial extent.
pub fn global_avg_pool(input: &[f32], in_shape: Shape, out: &mut [f32]) {
    let c = in_shape.c;
    debug_assert!(in_shape.h * in_shape.w > 0, "global pool over an empty map");
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    debug_assert_eq!(out.len(), in_shape.n * c);
    let inv = 1.0 / (in_shape.h * in_shape.w) as f32;
    for n in 0..in_shape.n {
        let cell = &mut out[n * c..(n + 1) * c];
        cell.fill(0.0);
        for y in 0..in_shape.h {
            for x in 0..in_shape.w {
                let base = in_shape.index(n, y, x, 0);
                for (o, &v) in cell.iter_mut().zip(&input[base..base + c]) {
                    *o += v;
                }
            }
        }
        for o in cell.iter_mut() {
            *o *= inv;
        }
    }
}

/// Elementwise addition of two same-shape maps over `region`.
pub fn add(a: &[f32], b: &[f32], shape: Shape, out: &mut [f32], region: Region) {
    debug_assert!(a.len() == shape.len() && b.len() == shape.len() && out.len() == shape.len());
    for_row_runs(shape, region, |start, len| {
        for ((o, &p), &q) in out[start..start + len]
            .iter_mut()
            .zip(&a[start..start + len])
            .zip(&b[start..start + len])
        {
            *o = p + q;
        }
    });
}

/// ReLU over `region`: `max(v, 0)` clamped at `hi` when `hi` is finite
/// (ReLU6 passes `6.0`, plain ReLU `f32::INFINITY`).
pub fn relu(input: &[f32], shape: Shape, out: &mut [f32], hi: f32, region: Region) {
    debug_assert!(input.len() == shape.len() && out.len() == shape.len());
    debug_assert!(!hi.is_nan() && hi > 0.0, "relu upper bound must be positive");
    for_row_runs(shape, region, |start, len| {
        if hi.is_finite() {
            for (o, &v) in out[start..start + len].iter_mut().zip(&input[start..start + len]) {
                *o = v.clamp(0.0, hi);
            }
        } else {
            for (o, &v) in out[start..start + len].iter_mut().zip(&input[start..start + len]) {
                *o = v.max(0.0);
            }
        }
    });
}

/// Channel concatenation over `region`: each part's channels are copied
/// into consecutive channel offsets of the output. Parts are consumed one
/// at a time, so callers can stream them without materializing a slice of
/// references.
pub fn concat<'a>(
    parts: impl IntoIterator<Item = (&'a [f32], Shape)>,
    out: &mut [f32],
    out_shape: Shape,
    region: Region,
) {
    let y_end = region.y_end().min(out_shape.h);
    let x_end = region.x_end().min(out_shape.w);
    let mut c_off = 0;
    for (data, s) in parts {
        debug_assert_eq!(data.len(), s.len(), "part buffer disagrees with its shape");
        debug_assert!(
            s.n == out_shape.n && s.h == out_shape.h && s.w == out_shape.w,
            "concat parts must agree with the output spatially"
        );
        for n in 0..s.n {
            for y in region.y..y_end {
                for x in region.x..x_end {
                    let src = s.index(n, y, x, 0);
                    let dst = out_shape.index(n, y, x, c_off);
                    out[dst..dst + s.c].copy_from_slice(&data[src..src + s.c]);
                }
            }
        }
        c_off += s.c;
    }
    debug_assert_eq!(c_off, out_shape.c);
}

/// Invokes `f(start, len)` for each contiguous row run of `region` inside
/// `shape` (used by the pointwise kernels and the head's fake
/// quantization).
pub(crate) fn for_row_runs(shape: Shape, region: Region, mut f: impl FnMut(usize, usize)) {
    let y_end = region.y_end().min(shape.h);
    let x_end = region.x_end().min(shape.w);
    if x_end <= region.x {
        return;
    }
    let len = (x_end - region.x) * shape.c;
    for n in 0..shape.n {
        for y in region.y..y_end {
            f(shape.index(n, y, region.x, 0), len);
        }
    }
}

/// The pre-blocking reference loop nests.
///
/// These are the executors' original naive implementations, retained as
/// the ground truth for the kernel-parity property tests and as the
/// baseline the kernels benchmarks measure the tiled kernels against.
/// The float functions allocate their outputs and use per-element
/// index arithmetic; the `*_q` functions are the scalar integer ground
/// truth — textbook `(q - zp) · w` loops over unpacked `i32` grid values
/// and `i8` weights, folding straight into an `i64` accumulator — that
/// [`conv2d_q`], [`dwconv_q`] and [`dense_q`] must match **bit-for-bit**.
pub mod naive {
    use quantmcu_tensor::{Shape, Tensor};

    use super::Requant;

    /// An accumulator as the `i32` [`Requant::finish`] takes. The `Q001`
    /// proof bounds every deployed accumulator to half the `i32` range.
    fn narrow(acc: i64) -> i32 {
        i32::try_from(acc).expect("accumulator exceeds i32; Q001 rejects such graphs")
    }

    /// Naive standard convolution (OHWI weights, bias preloaded).
    pub fn conv2d(
        input: &Tensor,
        weights: &[f32],
        bias: &[f32],
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let is = input.shape();
        let oh = (is.h + 2 * pad - k) / stride + 1;
        let ow = (is.w + 2 * pad - k) / stride + 1;
        let os = Shape::new(is.n, oh, ow, out_ch);
        let mut out = Tensor::zeros(os);
        for n in 0..is.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for (oc, &b) in bias.iter().enumerate().take(out_ch) {
                        let mut acc = b;
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= is.h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= is.w {
                                    continue;
                                }
                                let in_base = is.index(n, iy as usize, ix as usize, 0);
                                let w_base = ((oc * k + ky) * k + kx) * is.c;
                                for ic in 0..is.c {
                                    acc += input.data()[in_base + ic] * weights[w_base + ic];
                                }
                            }
                        }
                        out.set(n, oy, ox, oc, acc);
                    }
                }
            }
        }
        out
    }

    /// Naive depthwise convolution (`[kh][kw][c]` weights, bias preloaded).
    pub fn dwconv(
        input: &Tensor,
        weights: &[f32],
        bias: &[f32],
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let is = input.shape();
        let oh = (is.h + 2 * pad - k) / stride + 1;
        let ow = (is.w + 2 * pad - k) / stride + 1;
        let os = Shape::new(is.n, oh, ow, is.c);
        let mut out = Tensor::zeros(os);
        for n in 0..is.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for c in 0..is.c {
                        let mut acc = bias[c];
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= is.h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= is.w {
                                    continue;
                                }
                                acc += input.at(n, iy as usize, ix as usize, c)
                                    * weights[(ky * k + kx) * is.c + c];
                            }
                        }
                        out.set(n, oy, ox, c, acc);
                    }
                }
            }
        }
        out
    }

    /// Naive dense layer (`[out][in]` weights, bias preloaded).
    pub fn dense(input: &Tensor, weights: &[f32], bias: &[f32], out_f: usize) -> Tensor {
        let is = input.shape();
        let fan_in = is.per_sample();
        let os = Shape::new(is.n, 1, 1, out_f);
        let mut out = Tensor::zeros(os);
        for n in 0..is.n {
            let sample = &input.data()[n * fan_in..(n + 1) * fan_in];
            for o in 0..out_f {
                let row = &weights[o * fan_in..(o + 1) * fan_in];
                let acc = sample.iter().zip(row).fold(bias[o], |a, (&x, &w)| a + x * w);
                out.set(n, 0, 0, o, acc);
            }
        }
        out
    }

    /// Naive integer convolution: OHWI `i8` weights, per-element
    /// zero-point correction, scalar `i64` accumulation, requantization
    /// via `rq`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_q(
        input: &[i32],
        in_shape: Shape,
        qw: &[i8],
        zp_in: i32,
        rq: &Requant,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<i32> {
        let is = in_shape;
        let (oh, ow) = super::conv_output_hw(is, k, stride, pad);
        let os = Shape::new(is.n, oh, ow, out_ch);
        let mut out = vec![0i32; os.len()];
        for n in 0..is.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for oc in 0..out_ch {
                        let mut acc = 0i64;
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= is.h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= is.w {
                                    continue;
                                }
                                let in_base = is.index(n, iy as usize, ix as usize, 0);
                                let w_base = ((oc * k + ky) * k + kx) * is.c;
                                for ic in 0..is.c {
                                    acc += ((input[in_base + ic] - zp_in) * qw[w_base + ic] as i32)
                                        as i64;
                                }
                            }
                        }
                        out[os.index(n, oy, ox, oc)] = rq.finish(narrow(acc), oc);
                    }
                }
            }
        }
        out
    }

    /// Naive integer depthwise convolution (`[kh][kw][c]` `i8` weights).
    #[allow(clippy::too_many_arguments)]
    pub fn dwconv_q(
        input: &[i32],
        in_shape: Shape,
        qw: &[i8],
        zp_in: i32,
        rq: &Requant,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<i32> {
        let is = in_shape;
        let (oh, ow) = super::conv_output_hw(is, k, stride, pad);
        let os = Shape::new(is.n, oh, ow, is.c);
        let mut out = vec![0i32; os.len()];
        for n in 0..is.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for c in 0..is.c {
                        let mut acc = 0i64;
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= is.h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= is.w {
                                    continue;
                                }
                                let q = input[is.index(n, iy as usize, ix as usize, c)];
                                acc += ((q - zp_in) * qw[(ky * k + kx) * is.c + c] as i32) as i64;
                            }
                        }
                        out[os.index(n, oy, ox, c)] = rq.finish(narrow(acc), c);
                    }
                }
            }
        }
        out
    }

    /// Naive integer dense layer (`[out][in]` `i8` weights).
    pub fn dense_q(
        input: &[i32],
        in_shape: Shape,
        qw: &[i8],
        zp_in: i32,
        rq: &Requant,
        out_f: usize,
    ) -> Vec<i32> {
        let fan_in = in_shape.per_sample();
        let mut out = vec![0i32; in_shape.n * out_f];
        for n in 0..in_shape.n {
            let sample = &input[n * fan_in..(n + 1) * fan_in];
            for o in 0..out_f {
                let row = &qw[o * fan_in..(o + 1) * fan_in];
                let acc = sample
                    .iter()
                    .zip(row)
                    .fold(0i64, |a, (&q, &w)| a + ((q - zp_in) * w as i32) as i64);
                out[n * out_f + o] = rq.finish(narrow(acc), o);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantmcu_tensor::Tensor;

    fn test_weights(len: usize, seed: u64) -> Vec<f32> {
        (0..len).map(|i| (((i as u64 ^ seed) as f32) * 0.37).sin() * 0.5).collect()
    }

    /// Float parity vs naive is ULP-bounded, not bit-exact: the lane-
    /// unrolled micro-kernels reassociate each run's `f32` summation (see
    /// the module docs). 256 ULPs with a small absolute floor for
    /// near-zero sums is far above observed drift yet far below any
    /// semantic difference.
    fn assert_ulp_close(actual: &[f32], expected: &[f32], what: &str) {
        assert_eq!(actual.len(), expected.len(), "{what}: length mismatch");
        for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
            let ulps = (a.to_bits() as i64 - e.to_bits() as i64).unsigned_abs();
            assert!(
                (a - e).abs() <= 1e-5 || ulps <= 256,
                "{what}: element {i} diverged: {a} vs {e} ({ulps} ulps)"
            );
        }
    }

    #[test]
    fn tiled_conv_matches_naive_within_ulps() {
        // The first four take the pixel-tiled path, the last two (fewer
        // than `PIX` output pixels) the lane-split one.
        for (h, w, c, oc, k, stride, pad) in [
            (7, 9, 3, 5, 3, 1, 1),
            (8, 8, 4, 16, 3, 2, 0),
            (5, 5, 2, 9, 5, 1, 2),
            (6, 6, 1, 1, 1, 1, 0),
            (1, 1, 40, 6, 1, 1, 0),
            (4, 3, 9, 5, 3, 2, 1),
        ] {
            let input = Tensor::from_fn(Shape::hwc(h, w, c), |i| ((i as f32) * 0.11).sin());
            let weights = test_weights(oc * k * k * c, 3);
            let bias = test_weights(oc, 7);
            let reference = naive::conv2d(&input, &weights, &bias, oc, k, stride, pad);
            let mut out = vec![0.0f32; reference.shape().len()];
            conv2d(
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
            let what = format!("conv2d h={h} w={w} c={c} oc={oc} k={k} s={stride} p={pad}");
            let os = reference.shape();
            if os.h * os.w >= PIX {
                assert_eq!(out, reference.data(), "{what}: tiled path must sum in naive's order");
            } else {
                assert_ulp_close(&out, reference.data(), &what);
            }
        }
    }

    #[test]
    fn blocked_dwconv_matches_naive_bitwise() {
        for (h, w, c, k, stride, pad) in
            [(7, 9, 3, 3, 1, 1), (8, 8, 20, 3, 2, 1), (5, 5, 17, 5, 1, 2)]
        {
            let input = Tensor::from_fn(Shape::hwc(h, w, c), |i| ((i as f32) * 0.23).cos());
            let weights = test_weights(k * k * c, 5);
            let bias = test_weights(c, 11);
            let reference = naive::dwconv(&input, &weights, &bias, k, stride, pad);
            let mut out = vec![0.0f32; reference.shape().len()];
            dwconv(
                &FloatDot { weights: &weights, bias: &bias },
                input.data(),
                input.shape(),
                &mut out,
                k,
                stride,
                pad,
                reference.shape().full_region(),
            );
            assert_eq!(out, reference.data(), "dwconv h={h} w={w} c={c} k={k} s={stride} p={pad}");
        }
    }

    #[test]
    fn tiled_dense_matches_naive_within_ulps() {
        for (h, w, c, of) in [(4, 4, 3, 10), (1, 1, 600, 17), (3, 5, 7, 1)] {
            let input = Tensor::from_fn(Shape::hwc(h, w, c), |i| ((i as f32) * 0.31).sin());
            let fan_in = input.shape().per_sample();
            let weights = test_weights(of * fan_in, 13);
            let bias = test_weights(of, 17);
            let reference = naive::dense(&input, &weights, &bias, of);
            let mut out = vec![0.0f32; of];
            dense(
                &FloatDot { weights: &weights, bias: &bias },
                input.data(),
                input.shape(),
                &mut out,
                of,
            );
            assert_ulp_close(&out, reference.data(), &format!("dense {h}x{w}x{c} -> {of}"));
        }
    }

    #[test]
    fn region_restricted_conv_only_touches_region() {
        let input = Tensor::from_fn(Shape::hwc(8, 8, 2), |i| i as f32 * 0.01);
        let weights = test_weights(4 * 9 * 2, 19);
        let bias = vec![0.0; 4];
        // The region-restricted reference is the kernel itself on the
        // full region: an output element's value depends only on its own
        // taps, so restricting the region must reproduce the full-map
        // values exactly.
        let os = Shape::new(1, 8, 8, 4);
        let mut full = vec![0.0f32; os.len()];
        let dot = FloatDot { weights: &weights, bias: &bias };
        let tile = &mut Vec::new();
        conv2d(&dot, input.data(), input.shape(), &mut full, 4, 3, 1, 1, os.full_region(), tile);
        let region = Region::new(2, 3, 3, 4);
        let mut out = vec![f32::NAN; os.len()];
        conv2d(&dot, input.data(), input.shape(), &mut out, 4, 3, 1, 1, region, tile);
        for y in 0..os.h {
            for x in 0..os.w {
                for ch in 0..os.c {
                    let v = out[os.index(0, y, x, ch)];
                    let inside =
                        y >= region.y && y < region.y_end() && x >= region.x && x < region.x_end();
                    if inside {
                        assert_eq!(v, full[os.index(0, y, x, ch)]);
                    } else {
                        assert!(v.is_nan(), "position ({y},{x},{ch}) written outside region");
                    }
                }
            }
        }
    }

    /// A plausible requantization table for strategy-level tests: varied
    /// per-channel scales and biases, full `W8` output grid.
    fn test_requant(channels: usize, out_scale: f64, zp_out: i32) -> Requant {
        let bias_q: Vec<i64> = (0..channels).map(|c| (c as i64 * 7) % 23 - 11).collect();
        let scale: Vec<FixedMultiplier> = (0..channels)
            .map(|c| FixedMultiplier::from_real(1e-4 * (1.0 + c as f64 * 0.01) / out_scale))
            .collect();
        let (q_min, q_max) = (Bitwidth::W8.min_value(), Bitwidth::W8.max_value());
        Requant::new(&bias_q, &scale, zp_out, q_min, q_max)
    }

    /// `q` stored as `i8`, the executor's storage.
    fn narrow(q: &[i32]) -> Vec<i8> {
        q.iter().map(|&v| i8::try_from(v).expect("an 8-bit grid value")).collect()
    }

    #[test]
    fn packed_strategies_match_naive_q_exactly() {
        let (h, w, c, oc, k) = (9, 7, 5, 6, 3);
        let input: Vec<i32> = (0..h * w * c).map(|i| ((i * 37) % 256) as i32 - 128).collect();
        let input8 = narrow(&input);
        let in_shape = Shape::hwc(h, w, c);
        let zp = -3;
        let rq = test_requant(oc, 0.05, 2);
        for bits in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
            let (lo, hi) = (bits.min_value() as i8, bits.max_value() as i8);
            let qw: Vec<i8> =
                (0..oc * k * k * c).map(|i| (((i * 11) % 29) as i8 - 14).clamp(lo, hi)).collect();
            let packed = pack::pack(&qw, bits);
            let s = PackedDot::new(&packed, bits, zp, &rq);
            for (stride, pad) in [(1, 1), (2, 0), (1, 0), (3, 2)] {
                let reference = naive::conv2d_q(&input, in_shape, &qw, zp, &rq, oc, k, stride, pad);
                let mut out = vec![0i8; reference.len()];
                conv2d_q(&s, &input8, in_shape, &mut out, oc, k, stride, pad, &mut Vec::new());
                assert_eq!(out, narrow(&reference), "packed conv {bits} s={stride} p={pad}");
            }
        }
    }

    #[test]
    fn packed_dwconv_and_dense_match_naive_q_exactly() {
        let (h, w, c) = (8, 6, 19); // c not divisible by any tile width
        let input: Vec<i32> = (0..h * w * c).map(|i| ((i * 53) % 200) as i32 - 100).collect();
        let input8 = narrow(&input);
        let in_shape = Shape::hwc(h, w, c);
        let zp = 5;
        for bits in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
            let (lo, hi) = (bits.min_value() as i8, bits.max_value() as i8);
            let (k, stride, pad) = (3, 1, 1);
            let qw: Vec<i8> =
                (0..k * k * c).map(|i| (((i * 13) % 31) as i8 - 15).clamp(lo, hi)).collect();
            let rq = test_requant(c, 0.04, -1);
            let reference = naive::dwconv_q(&input, in_shape, &qw, zp, &rq, k, stride, pad);
            let packed = pack::pack(&qw, bits);
            let s = PackedDot::new(&packed, bits, zp, &rq);
            let mut out = vec![0i8; reference.len()];
            dwconv_q(&s, &input8, in_shape, &mut out, k, stride, pad);
            assert_eq!(out, narrow(&reference), "packed dwconv {bits}");

            let out_f = 7;
            let fan_in = in_shape.per_sample();
            let dqw: Vec<i8> =
                (0..out_f * fan_in).map(|i| (((i * 17) % 27) as i8 - 13).clamp(lo, hi)).collect();
            let rq = test_requant(out_f, 0.03, 0);
            let reference = naive::dense_q(&input, in_shape, &dqw, zp, &rq, out_f);
            let packed = pack::pack(&dqw, bits);
            let s = PackedDot::new(&packed, bits, zp, &rq);
            let mut out = vec![0i8; out_f];
            dense_q(&s, &input8, in_shape, &mut out, out_f, &mut Vec::new());
            assert_eq!(out, narrow(&reference), "packed dense {bits}");
        }
    }

    #[test]
    fn pools_match_direct_computation() {
        let input = Tensor::from_fn(Shape::hwc(4, 4, 3), |i| (i as f32 * 1.7).sin());
        let is = input.shape();
        let mut max_out = vec![0.0f32; 2 * 2 * 3];
        let mut avg_out = vec![0.0f32; 2 * 2 * 3];
        let region = Region::new(0, 0, 2, 2);
        max_pool(input.data(), is, &mut max_out, 2, 2, region);
        avg_pool(input.data(), is, &mut avg_out, 2, 2, region);
        let os = Shape::hwc(2, 2, 3);
        for oy in 0..2 {
            for ox in 0..2 {
                for ch in 0..3 {
                    let vals = [
                        input.at(0, oy * 2, ox * 2, ch),
                        input.at(0, oy * 2, ox * 2 + 1, ch),
                        input.at(0, oy * 2 + 1, ox * 2, ch),
                        input.at(0, oy * 2 + 1, ox * 2 + 1, ch),
                    ];
                    let m = vals.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v));
                    let s: f32 = vals.iter().sum();
                    assert_eq!(max_out[os.index(0, oy, ox, ch)], m);
                    assert!((avg_out[os.index(0, oy, ox, ch)] - s / 4.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn concat_add_relu_cover_full_region() {
        let a = Tensor::from_fn(Shape::hwc(3, 3, 2), |i| i as f32 - 8.0);
        let b = Tensor::from_fn(Shape::hwc(3, 3, 1), |i| -(i as f32));
        let out_shape = Shape::hwc(3, 3, 3);
        let mut out = vec![0.0f32; out_shape.len()];
        concat(
            [(a.data(), a.shape()), (b.data(), b.shape())],
            &mut out,
            out_shape,
            out_shape.full_region(),
        );
        assert_eq!(out[out_shape.index(0, 1, 1, 0)], a.at(0, 1, 1, 0));
        assert_eq!(out[out_shape.index(0, 1, 1, 2)], b.at(0, 1, 1, 0));

        let mut sum = vec![0.0f32; a.shape().len()];
        add(a.data(), a.data(), a.shape(), &mut sum, a.shape().full_region());
        assert_eq!(sum[3], 2.0 * a.data()[3]);

        let mut r6 = vec![0.0f32; a.shape().len()];
        relu(a.data(), a.shape(), &mut r6, 6.0, a.shape().full_region());
        assert!(r6.iter().all(|&v| (0.0..=6.0).contains(&v)));
        let mut r = vec![0.0f32; a.shape().len()];
        relu(a.data(), a.shape(), &mut r, f32::INFINITY, a.shape().full_region());
        assert_eq!(r[0], 0.0);
        assert_eq!(r[16], a.data()[16].max(0.0));
    }
}
