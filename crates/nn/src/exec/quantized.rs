//! The integer half of [`CompiledGraph`]: quantization tables built at
//! compile time and the integer loop that runs them.
//!
//! [`CompiledGraph::with_quantization`] is the one gate for what can
//! execute: every activation grid and the weight width must have at most
//! 8 bits ([`Bitwidth::check_storage`]), and the analyzer's `Q001` proof
//! must bound every `i32` accumulator. So every integer feature map is
//! stored as `i8`, and each node takes one of three arms, fixed at compile
//! time:
//!
//! * **Weighted** (`Conv2d`, `DepthwiseConv2d`, `Dense`): the packed-weight
//!   kernels ([`kernels::conv2d_q`], [`kernels::dwconv_q`],
//!   [`kernels::dense_q`]). Conv and dense run pixel rows of `i16` lanes
//!   `q − zp_in` against decoded weight panels, depthwise one row of
//!   channels per pixel against its decoded kernel (the scratch lives in
//!   [`ExecState`]). All accumulate in `i32` — which the `Q001` proof
//!   bounds — and requantize each pixel's run of channels through the
//!   node's [`Requant`]: a per-channel
//!   [`FixedMultiplier`] derived from `acc_scale / out_scale`, with the
//!   `i64`-or-`i128` route chosen once per node at compile time. There is
//!   one zero-point mode: padding taps gather as 0, so `(q − zp) · w`
//!   covers padded and unpadded nodes alike.
//! * **Table** (`Relu`, `Relu6`, `MaxPool`): one lookup per element in a
//!   table built from the float round trip's own arithmetic, so the
//!   outputs are exactly the round trip's; `MaxPool` first takes the
//!   integer window maximum.
//! * **Round trip** (`Add`, `Concat`, `AvgPool`, `GlobalAvgPool`):
//!   dequantize the inputs, run the float loop's own kernel dispatch, and
//!   requantize with [`QuantParams::quantize_slice`].
//!
//! Both the multipliers and the tables are derived at compile time from
//! the graph's float weights and the activation ranges, so two
//! compilations of one graph from the same ranges and bitwidths execute
//! bit-identically: a deployment restored from a plan artifact
//! recompiles its tail this way.

use std::borrow::{Borrow, Cow};

use quantmcu_tensor::{pack, Arena, Bitwidth, ChannelQuantParams, QuantParams, Shape, Tensor};

use super::compile::{check_input, eval_node, source_fm, CompiledGraph, ExecState};
use crate::analyze::{overflow_diagnostic, Report};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::kernels::{self, FixedMultiplier, PackedDot, Requant, RowScratch};
use crate::spec::{FeatureMapId, GraphSpec, OpSpec};

/// The quantized half of a compiled graph: activation grids, per-channel
/// quantized weights kept **packed** (the CMix-NN SRAM layout — the
/// [`PackedDot`] kernels decode them into transient scratch as they
/// consume them, so only the packed words persist after compilation), and
/// requantization tables.
#[derive(Debug)]
pub(super) struct QuantTables {
    pub(super) act_params: Vec<QuantParams>,
    /// Packed weight words per node, in the node's execution layout.
    packed_weights: Vec<Vec<u8>>,
    /// Requantization per weighted node (`None` for weightless nodes).
    requant: Vec<Option<Requant>>,
    /// Exact activation tables per node (see [`ActivationLut`]); `None`
    /// for nodes that take another arm of the integer loop.
    pub(super) luts: Vec<Option<ActivationLut>>,
    weight_bits: Bitwidth,
}

/// The integer form of a `Relu`, `Relu6` or `MaxPool` node: one output
/// grid value per input grid level, `out.quantize(f(in.dequantize(q)))`
/// with `f` the node's float kernel — the exact arithmetic of the
/// dequantize → float kernel → requantize round trip, evaluated once per
/// level at compile time instead of once per element at run time.
/// `MaxPool` takes the window maximum on the input grid first
/// ([`kernels::max_pool_q`]); dequantize is monotone, so that is the
/// element the float max selects.
#[derive(Debug)]
pub(super) struct ActivationLut {
    /// Smallest input grid level (entry 0).
    q_min: i32,
    /// Output grid value per input level, `2^bits` entries.
    table: Vec<i8>,
}

impl ActivationLut {
    /// The table for node `op` between grids `input` and `output`, both
    /// of at most 8 bits; `None` when the op has no table form.
    fn new(op: OpSpec, input: QuantParams, output: QuantParams) -> Option<Self> {
        let hi = match op {
            OpSpec::Relu => Some(f32::INFINITY),
            OpSpec::Relu6 => Some(6.0),
            OpSpec::MaxPool { .. } => None,
            _ => return None,
        };
        let bits = input.bitwidth();
        let one = Shape::hwc(1, 1, 1);
        let table = (bits.min_value()..=bits.max_value())
            .map(|q| {
                let x = [input.dequantize(q)];
                let mut y = x;
                if let Some(hi) = hi {
                    kernels::relu(&x, one, &mut y, hi, one.full_region());
                }
                output.quantize(y[0]) as i8
            })
            .collect();
        Some(ActivationLut { q_min: bits.min_value(), table })
    }

    /// The output grid value of input level `q`.
    #[inline]
    fn get(&self, q: i8) -> i8 {
        self.table[(q as i32 - self.q_min) as usize]
    }

    /// Maps every input level of `x` into `out`.
    fn apply(&self, x: &[i8], out: &mut [i8]) {
        for (o, &q) in out.iter_mut().zip(x) {
            *o = self.get(q);
        }
    }
}

impl<G: Borrow<Graph>> CompiledGraph<G> {
    /// Runs the graph through the integer pipeline, returning the
    /// dequantized final feature map.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingQuantization`] when the graph was
    /// compiled without quantization, or
    /// [`GraphError::InputShapeMismatch`] when `input` does not match the
    /// spec.
    pub fn run_quant(&self, state: &mut ExecState, input: &Tensor) -> Result<Tensor, GraphError> {
        let qt = self.execute_quant(state, input, None)?;
        let spec = self.spec();
        let last = spec.feature_map_count() - 1;
        let q = state.qslots[last].as_ref().expect("final feature map is never released early");
        let shape = spec.feature_map_shape(FeatureMapId(last));
        let mut out = vec![0.0f32; shape.len()];
        qt.act_params[last].dequantize_slice(q, &mut out);
        state.release_all_quant();
        Ok(Tensor::from_vec(shape, out).expect("lengths match"))
    }

    /// Runs the integer pipeline, streaming every feature map to
    /// `observer` dequantized to `f32` (index 0 is the
    /// quantize-dequantized input). Quantized buffers are recycled once
    /// their last consumer has fired.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledGraph::run_quant`].
    pub fn run_quant_with(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        mut observer: impl FnMut(FeatureMapId, &Tensor),
    ) -> Result<(), GraphError> {
        self.execute_quant(state, input, Some(&mut observer))?;
        state.release_all_quant();
        Ok(())
    }

    /// Core loop over the graph in `i8` storage, one arm per node (see the
    /// module docs). When `observer` is present, each map is dequantized
    /// into arena scratch and yielded. Returns the tables it ran.
    fn execute_quant(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        mut observer: Option<MapObserver<'_>>,
    ) -> Result<&QuantTables, GraphError> {
        let qt = self.quant.as_ref().ok_or(GraphError::MissingQuantization { feature_map: 0 })?;
        let graph = self.graph();
        let spec = graph.spec();
        check_input(spec, input.shape())?;
        state.ensure_slots(spec.feature_map_count());
        let ExecState { arena_f, arena_q, slots, qslots, rows, tile } = state;
        let mut q0 = arena_q.take(input.data().len());
        qt.act_params[0].quantize_slice(input.data(), &mut q0);
        qslots[0] = Some(q0);
        if let Some(obs) = observer.as_deref_mut() {
            yield_map(arena_f, spec, &qt.act_params, qslots, 0, obs);
        }
        for (i, node) in spec.nodes().iter().enumerate() {
            let out_shape = spec.node_shape(i);
            let mut qout = arena_q.take(out_shape.len());
            let in0_fm = source_fm(node.inputs[0]);
            let in_shape = spec.feature_map_shape(FeatureMapId(in0_fm));
            let q_in = qslots[in0_fm].as_deref().expect("liveness keeps inputs alive");
            match (node.op.has_weights(), &qt.luts[i]) {
                (true, _) => {
                    let rq = qt.requant[i].as_ref().expect("weighted node has requantization");
                    let zp_in = qt.act_params[in0_fm].zero_point();
                    let dot = PackedDot::new(&qt.packed_weights[i], qt.weight_bits, zp_in, rq);
                    weighted(node.op, &dot, q_in, in_shape, &mut qout, rows);
                }
                (false, Some(lut)) => match node.op {
                    OpSpec::MaxPool { kernel, stride } => {
                        let region = out_shape.full_region();
                        kernels::max_pool_q(q_in, in_shape, &mut qout, kernel, stride, region);
                        for v in qout.iter_mut() {
                            *v = lut.get(*v);
                        }
                    }
                    _ => lut.apply(q_in, &mut qout),
                },
                (false, None) => {
                    // The value-preserving ops: dequantize the inputs into
                    // float slots, run the float loop's kernel dispatch,
                    // requantize, and hand the float buffers back. An
                    // input used twice is dequantized once.
                    for &s in &node.inputs {
                        let fm = source_fm(s);
                        if slots[fm].is_none() {
                            let shape = spec.feature_map_shape(FeatureMapId(fm));
                            let mut buf = arena_f.take(shape.len());
                            let q = qslots[fm].as_deref().expect("liveness keeps inputs alive");
                            qt.act_params[fm].dequantize_slice(q, &mut buf);
                            slots[fm] = Some(Tensor::from_vec(shape, buf).expect("arena length"));
                        }
                    }
                    let mut out = Tensor::from_vec(out_shape, arena_f.take(out_shape.len()))
                        .expect("arena length matches");
                    eval_node(graph, slots, i, &mut out, out_shape.full_region(), tile);
                    qt.act_params[i + 1].quantize_slice(out.data(), &mut qout);
                    arena_f.give(out.into_vec());
                    for &s in &node.inputs {
                        if let Some(t) = slots[source_fm(s)].take() {
                            arena_f.give(t.into_vec());
                        }
                    }
                }
            }
            qslots[i + 1] = Some(qout);
            if let Some(obs) = observer.as_deref_mut() {
                yield_map(arena_f, spec, &qt.act_params, qslots, i + 1, obs);
            }
            for &fm in &self.release_after[i] {
                if let Some(q) = qslots[fm].take() {
                    arena_q.give(q);
                }
            }
        }
        Ok(qt)
    }
}

/// Runs weighted node `op` over `input` into `out`, with `rows` as the
/// scratch of the conv and dense kernels.
fn weighted(
    op: OpSpec,
    dot: &PackedDot<'_>,
    input: &[i8],
    in_shape: Shape,
    out: &mut [i8],
    rows: &mut RowScratch,
) {
    match op {
        OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
            kernels::conv2d_q(dot, input, in_shape, out, out_ch, kernel, stride, pad, rows)
        }
        OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
            kernels::dwconv_q(dot, input, in_shape, out, kernel, stride, pad, rows)
        }
        OpSpec::Dense { out: out_f } => kernels::dense_q(dot, input, in_shape, out, out_f, rows),
        _ => unreachable!("only weighted ops have requantization"),
    }
}

impl QuantTables {
    /// Checks that the integer path can run `graph` at these widths, then
    /// quantizes every weighted node's parameters and precomputes the
    /// requantization and activation tables (see
    /// [`CompiledGraph::with_quantization`]).
    pub(super) fn build(
        graph: &Graph,
        ranges: &[(f32, f32)],
        act_bits: &[Bitwidth],
        weight_bits: Bitwidth,
    ) -> Result<Self, GraphError> {
        for &bits in std::iter::once(&weight_bits).chain(act_bits) {
            bits.check_storage()?;
        }
        let spec = graph.spec();
        let fm_count = spec.feature_map_count();
        if act_bits.len() == fm_count {
            check_accumulators(spec, |fm| act_bits[fm], weight_bits)?;
        }
        if ranges.len() != fm_count {
            return Err(GraphError::MissingQuantization { feature_map: ranges.len() });
        }
        if act_bits.len() != fm_count {
            return Err(GraphError::MissingQuantization { feature_map: act_bits.len() });
        }
        let mut act_params = Vec::with_capacity(fm_count);
        for (i, (&(lo, hi), &bits)) in ranges.iter().zip(act_bits).enumerate() {
            let p = QuantParams::from_min_max(lo, hi, bits)
                .map_err(|_| GraphError::MissingQuantization { feature_map: i })?;
            act_params.push(p);
        }
        let mut packed_weights = Vec::with_capacity(spec.len());
        let mut requant = Vec::with_capacity(spec.len());
        for i in 0..spec.len() {
            let w = graph.params(i).weights();
            if w.is_empty() {
                packed_weights.push(Vec::new());
                requant.push(None);
                continue;
            }
            let op = spec.nodes()[i].op;
            let in_shape = spec.input_shapes_of(i)[0];
            let (channels, per_channel) = weight_channel_layout(op, in_shape, w.len());
            let params = ChannelQuantParams::fit(
                &regroup_by_channel(op, in_shape, w),
                channels,
                per_channel,
                weight_bits,
            )?;
            // Weights are quantized in their *execution* layout (the one
            // the shared kernels index), so each value maps to its own
            // channel's grid: depthwise is `[kh][kw][c]` (channel =
            // j % c), conv/dense rows are already channel-major, one
            // contiguous run per channel.
            let qw: Vec<i8> = match op {
                OpSpec::DepthwiseConv2d { .. } => w
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| params.quantize(j % in_shape.c, v) as i8)
                    .collect(),
                _ => {
                    let mut qw = vec![0i8; w.len()];
                    for (ch, (src, dst)) in
                        w.chunks(per_channel).zip(qw.chunks_mut(per_channel)).enumerate()
                    {
                        params.quantize_slice(ch, src, dst);
                    }
                    qw
                }
            };
            let s_in = act_params[source_fm(spec.nodes()[i].inputs[0])].scale() as f64;
            let bias = graph.params(i).bias();
            // `s_in * s_w(oc)`: the accumulator's real-value scale.
            let acc_scale: Vec<f64> =
                (0..channels).map(|ch| s_in * params.scale(ch) as f64).collect();
            let bias_q: Vec<i64> =
                bias.iter().zip(&acc_scale).map(|(&b, &s)| (b as f64 / s).round() as i64).collect();
            let out = act_params[i + 1];
            let s_out = out.scale() as f64;
            let scale: Vec<FixedMultiplier> =
                acc_scale.iter().map(|&s| FixedMultiplier::from_real(s / s_out)).collect();
            let (q_min, q_max) = (out.bitwidth().min_value(), out.bitwidth().max_value());
            // The i8 working copy dies here: only the packed words — the
            // form the device would keep in SRAM — survive compilation.
            packed_weights.push(pack::pack(&qw, weight_bits));
            requant.push(Some(Requant::new(&bias_q, &scale, out.zero_point(), q_min, q_max)));
        }
        let luts = spec
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                ActivationLut::new(
                    node.op,
                    act_params[source_fm(node.inputs[0])],
                    act_params[i + 1],
                )
            })
            .collect();
        Ok(QuantTables { act_params, packed_weights, requant, luts, weight_bits })
    }
}

/// A streaming observer over dequantized feature maps.
type MapObserver<'o> = &'o mut dyn FnMut(FeatureMapId, &Tensor);

/// Dequantizes feature map `fm` into arena scratch and yields it.
fn yield_map(
    arena_f: &mut Arena<f32>,
    spec: &GraphSpec,
    act_params: &[QuantParams],
    qslots: &[Option<Vec<i8>>],
    fm: usize,
    observer: &mut dyn FnMut(FeatureMapId, &Tensor),
) {
    let shape = spec.feature_map_shape(FeatureMapId(fm));
    let q = qslots[fm].as_deref().expect("just produced");
    let mut buf = arena_f.take(shape.len());
    act_params[fm].dequantize_slice(q, &mut buf);
    let t = Tensor::from_vec(shape, buf).expect("arena length matches");
    observer(FeatureMapId(fm), &t);
    arena_f.give(t.into_vec());
}

/// The strict `Q001` gate of the integer path: every weighted node's
/// worst-case `i32` accumulator, at its input map's activation width
/// (`act_bits(feature map)`) and `weight_bits`, must be provably in range.
fn check_accumulators(
    spec: &GraphSpec,
    act_bits: impl Fn(usize) -> Bitwidth,
    weight_bits: Bitwidth,
) -> Result<(), GraphError> {
    let mut report = Report::new();
    for (i, node) in spec.nodes().iter().enumerate() {
        let in_fm = source_fm(node.inputs[0]);
        let in_shape = spec.feature_map_shape(FeatureMapId(in_fm));
        if let Some(d) = overflow_diagnostic(i, node.op, in_shape, act_bits(in_fm), weight_bits) {
            report.push(d);
        }
    }
    if report.is_empty() {
        Ok(())
    } else {
        Err(GraphError::Analysis(report))
    }
}

/// Channel grouping of a weighted op's buffer: `(channels, per_channel)`.
fn weight_channel_layout(op: OpSpec, in_shape: Shape, w_len: usize) -> (usize, usize) {
    match op {
        OpSpec::Conv2d { out_ch, .. } => (out_ch, w_len / out_ch),
        OpSpec::DepthwiseConv2d { kernel, .. } => (in_shape.c, kernel * kernel),
        OpSpec::Dense { out } => (out, w_len / out),
        _ => (1, w_len),
    }
}

/// Rearranges weights so each channel's values are contiguous, the layout
/// [`ChannelQuantParams::fit`] expects. Conv (OHWI) and dense are already
/// channel-major; depthwise is stored `[kh][kw][c]` and must be transposed
/// to `[c][kh][kw]`, the only copy made. Only the *fit* uses this
/// grouping — execution keeps the canonical layout the shared kernels
/// index.
fn regroup_by_channel(op: OpSpec, in_shape: Shape, w: &[f32]) -> Cow<'_, [f32]> {
    match op {
        OpSpec::DepthwiseConv2d { kernel, .. } => {
            let c = in_shape.c;
            let kk = kernel * kernel;
            let mut out = vec![0.0f32; w.len()];
            for ch in 0..c {
                for t in 0..kk {
                    out[ch * kk + t] = w[t * c + ch];
                }
            }
            Cow::Owned(out)
        }
        _ => Cow::Borrowed(w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;
    use crate::exec::{calibrate_ranges, FloatExecutor};
    use crate::init;

    fn small_graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .relu6()
            .pwconv(12)
            .global_avg_pool()
            .dense(5)
            .build()
            .unwrap();
        init::with_structured_weights(spec, 11)
    }

    fn calib_inputs(shape: Shape, count: usize) -> Vec<Tensor> {
        (0..count)
            .map(|s| Tensor::from_fn(shape, |i| (((i + s * 131) as f32) * 0.7).sin()))
            .collect()
    }

    fn uniform_bits(graph: &Graph, b: Bitwidth) -> Vec<Bitwidth> {
        vec![b; graph.spec().feature_map_count()]
    }

    /// `g` compiled for the integer path at `act_bits` with 8-bit weights.
    fn compile<'g>(
        g: &'g Graph,
        ranges: &[(f32, f32)],
        act_bits: &[Bitwidth],
    ) -> CompiledGraph<&'g Graph> {
        CompiledGraph::with_quantization(g, ranges, act_bits, Bitwidth::W8).unwrap()
    }

    #[test]
    fn int8_tracks_float_closely() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 4);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let compiled = compile(&g, &ranges, &uniform_bits(&g, Bitwidth::W8));
        let f_out = FloatExecutor::new(&g).run(&inputs[0]).unwrap();
        let q_out = compiled.run_quant(&mut ExecState::new(), &inputs[0]).unwrap();
        let denom = f_out.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        let rel = f_out.mean_abs_diff(&q_out) / denom;
        assert!(rel < 0.1, "int8 relative error too large: {rel}");
    }

    #[test]
    fn lower_bits_increase_error_monotonically() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 4);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let f_out = FloatExecutor::new(&g).run(&inputs[0]).unwrap();
        let mut state = ExecState::new();
        let mut errs = Vec::new();
        for b in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
            let compiled = compile(&g, &ranges, &uniform_bits(&g, b));
            errs.push(f_out.mean_abs_diff(&compiled.run_quant(&mut state, &inputs[0]).unwrap()));
        }
        assert!(errs[0] <= errs[1] + 1e-6, "8-bit ({}) should beat 4-bit ({})", errs[0], errs[1]);
        assert!(errs[1] <= errs[2] + 1e-6, "4-bit ({}) should beat 2-bit ({})", errs[1], errs[2]);
    }

    #[test]
    fn mixed_plan_runs_and_is_between_uniform_extremes() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 4);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let fm = g.spec().feature_map_count();
        // First half of the maps at 4-bit, rest at 8-bit.
        let bits: Vec<Bitwidth> =
            (0..fm).map(|i| if i < fm / 2 { Bitwidth::W4 } else { Bitwidth::W8 }).collect();
        let out = compile(&g, &ranges, &bits).run_quant(&mut ExecState::new(), &inputs[0]).unwrap();
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_wrong_metadata_lengths() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 1);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let bits = uniform_bits(&g, Bitwidth::W8);
        for (ranges, bits) in [(&ranges[..2], &bits[..]), (&ranges[..], &bits[..2])] {
            assert!(matches!(
                CompiledGraph::with_quantization(&g, ranges, bits, Bitwidth::W8),
                Err(GraphError::MissingQuantization { .. })
            ));
        }
    }

    #[test]
    fn trace_lengths_match_feature_maps() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 2);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let compiled = compile(&g, &ranges, &uniform_bits(&g, Bitwidth::W8));
        let mut seen = Vec::new();
        compiled
            .run_quant_with(&mut ExecState::new(), &inputs[0], |fm, _| seen.push(fm.0))
            .unwrap();
        assert_eq!(seen, (0..g.spec().feature_map_count()).collect::<Vec<_>>());
    }

    #[test]
    fn quantized_steady_state_reuses_arena_buffers() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 2);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let compiled = compile(&g, &ranges, &uniform_bits(&g, Bitwidth::W8));
        let mut state = ExecState::new();
        compiled.run_quant_with(&mut state, &inputs[0], |_, _| {}).unwrap();
        let warm = state.fresh_allocations();
        for _ in 0..5 {
            compiled.run_quant_with(&mut state, &inputs[1], |_, _| {}).unwrap();
        }
        assert_eq!(state.fresh_allocations(), warm);
    }
}
