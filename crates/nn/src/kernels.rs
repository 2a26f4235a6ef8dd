//! Shared operator kernels.
//!
//! [`CompiledGraph`](crate::exec::CompiledGraph)'s float and integer loops
//! and the patch engine's region-restricted branch evaluation dispatch
//! into this module, so every operator's loop nest exists exactly once.
//! The float weighted kernels ([`conv2d`], [`dwconv`], [`dense`]) run a
//! [`FloatDot`]; their integer twins ([`conv2d_q`], [`dwconv_q`],
//! [`dense_q`]) run a [`PackedDot`]: packed W2/W4/W8 weights from
//! [`quantmcu_tensor::pack`], `i32` accumulation and per-channel
//! fixed-point requantization by [`Requant`].
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
//! # Integer storage and the row kernel
//!
//! Integer feature maps are stored as `i8`: every grid the integer path
//! executes has at most 8 bits. The integer kernels take `i8` maps in and
//! write `i8` maps out, with one zero-point mode: every product is
//! `(q − zp) · w` over `i16` lanes `q − zp_in` (`|q − zp| ≤ 255`), and a
//! padding tap contributes an exact 0.
//!
//! [`conv2d_q`] and [`dense_q`] run one row kernel over pixel rows, `BLOCK`
//! rows at a time in scratch. A 1×1 conv with stride 1 and no padding, and
//! a dense layer, copy each row straight from the input map (one
//! contiguous run widened to `i16`); other convs gather their receptive
//! rows. Rows are zero-padded to whole groups of eight lanes. Output
//! channels then go `PANEL` at a time: the panel's packed W8, W4 or W2
//! weight rows are decoded once per block into `i16` scratch
//! ([`pack::decode_into`], a byte at a time, not a field per
//! multiply-add), and each pixel row runs against every panel row in
//! `pmaddwd` steps — eight products summed in pairs into four `i32` lanes
//! over two contiguous loads — reduced once per output. The weights stay
//! packed in their canonical layout (no reordering); only the panel being
//! consumed is decoded, into scratch. Each pixel's accumulators are
//! requantized as one run by
//! [`Requant::finish_run`], which holds its per-channel constants as
//! struct-of-arrays and picks the `i64` or `i128` route once per node.
//! All of this is safe Rust that LLVM vectorizes for baseline x86-64
//! (SSE2); the kernel is chosen from the node's shape, never at run time.
//!
//! [`dwconv_q`] decodes its whole kernel once into `i16` the same way,
//! reads its taps straight from `i8` storage, and accumulates each output
//! pixel's channels in one `i32` row, requantized as one run.
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
pub const GENERATION: &str = "row-panel-v4";

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
///
/// The per-channel constants are held as struct-of-arrays, and the choice
/// between the `i64` and `i128` routes is made once per node:
/// [`Requant::finish_run`] finishes a whole run of channels on one route,
/// while [`Requant::finish`] is the scalar per-element reference.
#[derive(Debug, Clone)]
pub struct Requant {
    /// Bias per channel, in accumulator grid units.
    bias: Vec<i64>,
    /// The [`FixedMultiplier`] mantissa per channel.
    multiplier: Vec<i32>,
    /// Total right shift per channel, `31 + shift` (`0..=94`).
    total: Vec<u8>,
    /// Whether every channel takes the `i64` route (see [`fits_i64`]).
    narrow: bool,
    zp_out: i32,
    q_min: i32,
    q_max: i32,
}

/// `true` when the `i64` route is exact for every `i32` accumulator of a
/// channel: `|bias| ≤ 2^30` and `1 ≤ total ≤ 61`. Then
/// `|acc + bias| < 3·2^30`, the product stays below `3·2^61` in magnitude,
/// and adding the rounding half (`≤ 2^60`) cannot leave `i64`.
#[inline(always)]
fn fits_i64(bias: i64, total: u32) -> bool {
    bias.unsigned_abs() <= 1 << 30 && (1..=61).contains(&total)
}

/// `round((acc + bias) · multiplier · 2^-total)`, ties away from zero, in
/// `i64`: `(p + half - [p < 0]) >> total` is round-half-away-from-zero
/// division by a power of two. Exact only where [`fits_i64`] holds.
#[inline(always)]
fn rescale_i64(acc: i32, bias: i64, multiplier: i64, total: u32) -> i64 {
    let product = (acc as i64 + bias) * multiplier;
    (product + (1i64 << (total - 1)) - (product < 0) as i64) >> total
}

/// [`rescale_i64`] in `i128`: `|acc + bias| < 2^64` times a 31-bit
/// mantissa stays below `2^95`, so nothing wraps for any bias and shift.
#[inline(always)]
fn rescale_i128(acc: i32, bias: i64, multiplier: i64, total: u32) -> i128 {
    let product = (acc as i128 + bias as i128) * multiplier as i128;
    let magnitude = ((product.unsigned_abs() + ((1u128 << total) >> 1)) >> total) as i128;
    if product < 0 {
        -magnitude
    } else {
        magnitude
    }
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
        let total: Vec<u8> = scale.iter().map(|m| (31 + m.shift) as u8).collect();
        let narrow = bias_q.iter().zip(&total).all(|(&b, &t)| fits_i64(b, t as u32));
        let multiplier = scale.iter().map(|m| m.multiplier).collect();
        Requant { bias: bias_q.to_vec(), multiplier, total, narrow, zp_out, q_min, q_max }
    }

    /// Number of output channels.
    fn channels(&self) -> usize {
        self.bias.len()
    }

    /// Finalizes an `i32` accumulator into output channel `oc`'s grid:
    /// `clamp(round(scale(oc) · (acc + bias_q(oc))) + zp_out)`, rounding
    /// ties away from zero like `f64::round`. Never wraps or panics, for
    /// any accumulator and bias. This is the scalar reference: it picks
    /// the `i64` or `i128` route per element, from the channel alone.
    pub fn finish(&self, acc: i32, oc: usize) -> i32 {
        let (bias, multiplier) = (self.bias[oc], self.multiplier[oc] as i64);
        let total = self.total[oc] as u32;
        if fits_i64(bias, total) {
            let v = rescale_i64(acc, bias, multiplier, total);
            (v + self.zp_out as i64).clamp(self.q_min as i64, self.q_max as i64) as i32
        } else {
            let v = rescale_i128(acc, bias, multiplier, total);
            (v + self.zp_out as i128).clamp(self.q_min as i128, self.q_max as i128) as i32
        }
    }

    /// [`Requant::finish`] over a run of channels from 0: `out[j] =
    /// finish(acc[j], j)`, stored as `i8`. The whole run takes the node's
    /// route, chosen at construction: `i64` when every channel fits it,
    /// `i128` otherwise (exact for all channels, so the values equal
    /// `finish`'s).
    ///
    /// # Panics
    ///
    /// Panics when the output grid does not fit `i8`, when `acc` and
    /// `out` differ in length, or when the run is longer than the node.
    pub fn finish_run(&self, acc: &[i32], out: &mut [i8]) {
        assert!(
            self.q_min >= i8::MIN as i32 && self.q_max <= i8::MAX as i32,
            "the output grid must fit i8 storage"
        );
        assert_eq!(acc.len(), out.len(), "one output per accumulator");
        let n = acc.len();
        let lanes =
            acc.iter().zip(&self.bias[..n]).zip(&self.multiplier[..n]).zip(&self.total[..n]);
        if self.narrow {
            let (zp, lo, hi) = (self.zp_out as i64, self.q_min as i64, self.q_max as i64);
            for ((((&a, &b), &m), &t), o) in lanes.zip(out) {
                *o = (rescale_i64(a, b, m as i64, t as u32) + zp).clamp(lo, hi) as i8;
            }
        } else {
            let (zp, lo, hi) = (self.zp_out as i128, self.q_min as i128, self.q_max as i128);
            for ((((&a, &b), &m), &t), o) in lanes.zip(out) {
                *o = (rescale_i128(a, b, m as i64, t as u32) + zp).clamp(lo, hi) as i8;
            }
        }
    }
}

/// A weighted node's integer form: its weights **packed** W2/W4/W8 words
/// in the node's canonical layout (see [`crate::OpParams`]), packed by
/// [`pack::pack`] — the SRAM layout, decoded into transient scratch as the
/// kernels consume it — plus the input grid's zero point and the node's
/// [`Requant`].
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

    /// The zero-point-corrected lane `q − zp_in`: `|q − zp| ≤ 255` on any
    /// grid `i8` holds, so it fits `i16`.
    #[inline(always)]
    fn lane(&self, q: i8) -> i16 {
        q as i16 - self.zp_in as i16
    }

    /// `dst[j] = lane(src[j])`.
    #[inline(always)]
    fn widen(&self, src: &[i8], dst: &mut [i16]) {
        for (d, &q) in dst.iter_mut().zip(src) {
            *d = self.lane(q);
        }
    }
}

/// Lanes per multiply-add step: one 128-bit `pmaddwd` of eight `i16`s.
const GROUP: usize = 8;
/// Output channels per decoded weight panel of the row kernel.
const PANEL: usize = 8;
/// Pixel rows per block of the row kernel: each panel is decoded once per
/// block, and the block's accumulators are requantized a pixel at a time.
const BLOCK: usize = 64;

/// Caller scratch of the integer weighted kernels ([`conv2d_q`],
/// [`dense_q`], [`dwconv_q`]): one block of pixel rows as `i16` lanes,
/// decoded `i16` weights (one panel, or a depthwise node's whole kernel)
/// and `i32` accumulators (one block's, or a depthwise pixel's). Each
/// buffer grows to its largest use and is then reused, so a warm executor
/// allocates nothing here.
#[derive(Debug, Default)]
pub struct RowScratch {
    rows: Vec<i16>,
    panel: Vec<i16>,
    acc: Vec<i32>,
}

/// One multiply-add step, the semantics of `pmaddwd`: lane `l` of `acc`
/// adds `x[2l]·w[2l] + x[2l+1]·w[2l+1]`. Written as eight products, then
/// pair sums: on baseline x86-64 LLVM lowers it to `pmaddwd` on the two
/// contiguous loads (one instruction, or, under thin LTO, two over the
/// masked halves of each pair).
#[inline(always)]
fn madd(acc: &mut [i32; 4], x: &[i16], w: &[i16]) {
    let p: [i32; GROUP] = std::array::from_fn(|j| x[j] as i32 * w[j] as i32);
    for (l, a) in acc.iter_mut().enumerate() {
        *a += p[2 * l] + p[2 * l + 1];
    }
}

/// `out[c] = Σ_j x[j] · panel[c][j]` for the panel's rows (each
/// `x.len()` lanes, a whole number of `GROUP`s): one multiply-add per
/// group into four lanes, reduced once at the end. The lanes live in
/// `lanes`, memory the caller owns, zeroed here and stored back after
/// each row: that is the shape LLVM reliably turns into `pmaddwd` steps
/// on two contiguous loads.
#[inline(always)]
fn dots(out: &mut [i32], x: &[i16], panel: &[i16], lanes: &mut [[i32; 4]; PANEL]) {
    *lanes = [[0; 4]; PANEL];
    for (a, w) in lanes.iter_mut().zip(panel.chunks_exact(x.len())) {
        for (xg, wg) in x.chunks_exact(GROUP).zip(w.chunks_exact(GROUP)) {
            madd(a, xg, wg);
        }
    }
    for (o, a) in out.iter_mut().zip(lanes.iter()) {
        *o = a.iter().sum();
    }
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
/// Every output pixel's receptive field is one row of `k·k·c` lanes
/// `q − zp_in`, in the weights' `(ky, kx, ic)` order, and the rows run
/// through the row kernel (see [`RowScratch`]). A 1×1 conv with stride 1
/// and no padding reads each pixel's row straight from the input map.
/// Other convs gather it, padding taps as 0; within one kernel row the
/// valid taps are adjacent in the input at any stride, so the gather
/// copies one run per kernel row.
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
    scratch: &mut RowScratch,
) {
    debug_assert!(k > 0 && stride > 0, "degenerate conv window k={k} stride={stride}");
    debug_assert!(in_shape.h + 2 * pad >= k && in_shape.w + 2 * pad >= k);
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    debug_assert_eq!(s.rq.channels(), out_ch, "one requantization channel per output");
    let (oh, ow) = conv_output_hw(in_shape, k, stride, pad);
    debug_assert_eq!(out.len(), in_shape.n * oh * ow * out_ch);
    let c = in_shape.c;
    if k == 1 && stride == 1 && pad == 0 {
        return rows_q(s, c, out, out_ch, scratch, |p, dst| s.widen(&input[p * c..][..c], dst));
    }
    let span = k * c;
    rows_q(s, k * span, out, out_ch, scratch, |p, dst| {
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
            dst[..kx_lo * c].fill(0);
            s.widen(&input[base..base + (kx_hi - kx_lo) * c], &mut dst[kx_lo * c..kx_hi * c]);
            dst[kx_hi * c..].fill(0);
        }
    });
}

/// Integer dense layer over the flattened input: each sample is one row
/// of the row kernel (see [`RowScratch`]), read straight from the input.
pub fn dense_q(
    s: &PackedDot<'_>,
    input: &[i8],
    in_shape: Shape,
    out: &mut [i8],
    out_f: usize,
    scratch: &mut RowScratch,
) {
    let fan_in = in_shape.per_sample();
    debug_assert!(fan_in > 0 && out_f > 0, "degenerate dense fan_in={fan_in} out={out_f}");
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    debug_assert_eq!(out.len(), in_shape.n * out_f);
    debug_assert_eq!(s.rq.channels(), out_f, "one requantization channel per output");
    rows_q(s, fan_in, out, out_f, scratch, |p, dst| {
        s.widen(&input[p * fan_in..][..fan_in], dst);
    });
}

/// The row kernel: `out[p·out_ch + oc] = finish(Σ_j row_p[j] · w[oc][j])`
/// for every output pixel `p`, whose row of `len` lanes `q − zp_in`
/// `gather(p, row)` writes. Rows go `BLOCK` at a time into scratch,
/// zero-padded to whole `GROUP`s. Within a block, output channels go
/// `PANEL` at a time: the panel's weight rows are decoded once into `i16`
/// rows (W8, W4 and W2 alike), then every pixel row runs against them in
/// `pmaddwd` steps. Each pixel's accumulators are requantized as one run.
fn rows_q(
    s: &PackedDot<'_>,
    len: usize,
    out: &mut [i8],
    out_ch: usize,
    scratch: &mut RowScratch,
    gather: impl Fn(usize, &mut [i16]),
) {
    let width = len.next_multiple_of(GROUP);
    let block = BLOCK.min(out.len() / out_ch).max(1);
    let RowScratch { rows, panel, acc } = scratch;
    // The lanes past `len` stay 0: the gather writes only the first `len`,
    // and a row's zero lanes make the panel's need no clearing.
    rows.clear();
    rows.resize(block * width, 0);
    panel.resize(PANEL * width, 0);
    acc.resize(block * out_ch, 0);
    let mut lanes = [[0i32; 4]; PANEL];
    for (b, out) in out.chunks_mut(block * out_ch).enumerate() {
        let np = out.len() / out_ch;
        let (rows, acc) = (&mut rows[..np * width], &mut acc[..np * out_ch]);
        for (p, row) in rows.chunks_exact_mut(width).enumerate() {
            gather(b * block + p, &mut row[..len]);
        }
        for c0 in (0..out_ch).step_by(PANEL) {
            let nc = (out_ch - c0).min(PANEL);
            let panel = &mut panel[..nc * width];
            for (c, w) in panel.chunks_exact_mut(width).enumerate() {
                pack::decode_into(s.packed, s.bits, (c0 + c) * len, &mut w[..len]);
            }
            for (x, a) in rows.chunks_exact(width).zip(acc.chunks_exact_mut(out_ch)) {
                dots(&mut a[c0..c0 + nc], x, panel, &mut lanes);
            }
        }
        for (a, o) in acc.chunks_exact(out_ch).zip(out.chunks_exact_mut(out_ch)) {
            s.rq.finish_run(a, o);
        }
    }
}

/// Integer depthwise convolution (`[kh][kw][c]` packed weights) over the
/// whole output map, zero padding outside the input: `i8` maps in and
/// out. The weights are decoded once into `i16` (the scratch's panel, W8,
/// W4 and W2 alike), and each output pixel accumulates all its channels in
/// one `i32` row: every valid tap adds one contiguous run of `c` products
/// `(q − zp_in) · w`, formed exactly in `i16` (`|q − zp| ≤ 255` and
/// `|w| ≤ 128`, so `|product| ≤ 32640`). The row is then requantized as one
/// run.
#[allow(clippy::too_many_arguments)]
pub fn dwconv_q(
    s: &PackedDot<'_>,
    input: &[i8],
    in_shape: Shape,
    out: &mut [i8],
    k: usize,
    stride: usize,
    pad: usize,
    scratch: &mut RowScratch,
) {
    debug_assert!(k > 0 && stride > 0, "degenerate dwconv window k={k} stride={stride}");
    debug_assert!(in_shape.h + 2 * pad >= k && in_shape.w + 2 * pad >= k);
    debug_assert_eq!(input.len(), in_shape.len(), "input buffer disagrees with in_shape");
    let (oh, ow) = conv_output_hw(in_shape, k, stride, pad);
    let c = in_shape.c;
    debug_assert_eq!(out.len(), in_shape.n * oh * ow * c);
    debug_assert_eq!(s.rq.channels(), c, "one requantization channel per channel");
    let RowScratch { panel, acc, .. } = scratch;
    panel.resize(k * k * c, 0);
    let weights = &mut panel[..k * k * c];
    pack::decode_into(s.packed, s.bits, 0, weights);
    acc.resize(c, 0);
    let acc = &mut acc[..c];
    for (p, o) in out.chunks_exact_mut(c).enumerate() {
        let (n, oy, ox) = (p / (oh * ow), p / ow % oh, p % ow);
        let (ky_lo, ky_hi) = valid_taps(oy, stride, k, pad, in_shape.h);
        let (kx_lo, kx_hi) = valid_taps(ox, stride, k, pad, in_shape.w);
        acc.fill(0);
        for ky in ky_lo..ky_hi {
            for kx in kx_lo..kx_hi {
                let base = in_shape.index(n, oy * stride + ky - pad, ox * stride + kx - pad, 0);
                let w = &weights[(ky * k + kx) * c..][..c];
                for ((a, &q), &wv) in acc.iter_mut().zip(&input[base..base + c]).zip(w) {
                    *a += (s.lane(q) * wv) as i32;
                }
            }
        }
        s.rq.finish_run(acc, o);
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
            let rows = &mut RowScratch::default();
            for (stride, pad) in [(1, 1), (2, 0), (1, 0), (3, 2)] {
                let reference = naive::conv2d_q(&input, in_shape, &qw, zp, &rq, oc, k, stride, pad);
                let mut out = vec![0i8; reference.len()];
                conv2d_q(&s, &input8, in_shape, &mut out, oc, k, stride, pad, rows);
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
            dwconv_q(&s, &input8, in_shape, &mut out, k, stride, pad, &mut RowScratch::default());
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
            dense_q(&s, &input8, in_shape, &mut out, out_f, &mut RowScratch::default());
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
