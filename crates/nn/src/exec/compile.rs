//! The compile-once / execute-many split.
//!
//! [`CompiledGraph`] holds everything about a network that is immutable
//! across inferences: the graph (borrowed or owned, via
//! [`Borrow<Graph>`]), the feature-map liveness schedule, and — when
//! compiled with quantization — the per-channel quantized weights (kept
//! in the packed CMix-NN layout; the integer micro-kernels read the
//! packed words directly) and requantization tables the integer path
//! needs. It is `Send + Sync`, so
//! one compiled graph can be shared by any number of workers.
//!
//! [`ExecState`] is the cheap per-worker half: the scratch arenas and
//! feature-map slots one in-flight inference needs. Constructing one
//! allocates nothing; the arenas warm up over the first inference and
//! every later run is allocation-free. A
//! [`ScopedPool`](crate::exec::ScopedPool) pairs one shared
//! `CompiledGraph` with one `ExecState` per worker thread.
//!
//! The [`FloatExecutor`](crate::exec::FloatExecutor) and
//! [`QuantExecutor`](crate::exec::QuantExecutor) façades bundle the two
//! halves back together for single-threaded callers.
//!
//! # The float loop
//!
//! One loop serves full-graph runs and patch branches. A full run computes
//! every node's whole output map. A branch run
//! ([`CompiledGraph::run_float_region_into`]) passes a region schedule —
//! one region per feature map, from receptive-field back-propagation — and
//! node `i` computes only `regions[i + 1]`, optionally snapped to a
//! per-feature-map grid (fake quantization). Both go through the same
//! kernel dispatch, so a branch's region is bit-identical to the same
//! region of a full run.
//!
//! # The integer loop
//!
//! Integer feature maps are stored as `i8` when their grid has at most 8
//! bits (every storage width the search assigns) and as `i32` for the
//! wider accounting grids. Each node takes one of three arms, fixed at
//! compile time:
//!
//! * **Weighted** (`Conv2d`, `DepthwiseConv2d`, `Dense`): the packed-weight
//!   kernels ([`kernels::conv2d_q`], [`kernels::dwconv_q`],
//!   [`kernels::dense_q`]). Each output pixel gathers its receptive row
//!   once as `q − zp_in` lanes (`i16` from `i8` storage, `i32` from wide
//!   storage; the gather scratch lives in [`ExecState`]), accumulates in
//!   `i32` — which the `Q001` proof bounds — and requantizes through the
//!   node's [`Requant`]: a per-channel [`FixedMultiplier`] derived from
//!   `acc_scale / out_scale`, with the `i64`-or-`i128` route chosen per
//!   channel at compile time. There is one zero-point mode: padding taps
//!   gather as 0, so `(q − zp) · w` covers padded and unpadded nodes alike.
//! * **Table** (`Relu`, `Relu6`, `MaxPool` over a ≤ 8-bit input grid): one
//!   lookup per element in a table built from the float round trip's own
//!   arithmetic, so the outputs are exactly the round trip's; `MaxPool`
//!   first takes the integer window maximum.
//! * **Round trip** (`Add`, `Concat`, `AvgPool`, `GlobalAvgPool`, and
//!   activations over accounting-width grids): dequantize the inputs, run
//!   the float kernel, requantize with [`QuantParams::quantize_slice`].
//!
//! Both the multipliers and the tables are derived at compile time from
//! the graph's float weights and the activation ranges, so two
//! compilations of one graph from the same ranges and bitwidths execute
//! bit-identically: a deployment restored from a plan artifact
//! recompiles its tail this way.

use std::borrow::{Borrow, Cow};

use quantmcu_tensor::{
    pack, Arena, Bitwidth, ChannelQuantParams, Level, QuantParams, Region, Shape, Tensor,
};

use crate::analyze::{overflow_diagnostic, Report};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::kernels::{self, FixedMultiplier, FloatDot, PackedDot, Requant};
use crate::spec::{FeatureMapId, GraphSpec, OpSpec, Source};

/// An immutable, shareable compilation of a [`Graph`].
///
/// Generic over `G: Borrow<Graph>`, so it can *borrow* a graph
/// (`CompiledGraph<&Graph>`, the façades' choice), *own* it
/// (`CompiledGraph<Graph>`, how the patch executor holds its head), or
/// share it (`CompiledGraph<std::sync::Arc<Graph>>`). A compiled graph is
/// `Send + Sync`; execution mutates only the caller's [`ExecState`].
///
/// # Example
///
/// ```
/// use quantmcu_nn::exec::{CompiledGraph, ExecState};
/// use quantmcu_nn::{init, GraphSpecBuilder};
/// use quantmcu_tensor::{Shape, Tensor};
///
/// let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 1)).relu6().build()?;
/// let graph = init::with_structured_weights(spec, 0);
/// let compiled = CompiledGraph::new(&graph)?;
/// let mut state = ExecState::new();
/// let out = compiled.run_float(&mut state, &Tensor::full(Shape::hwc(4, 4, 1), 9.0))?;
/// assert!(out.data().iter().all(|&v| v == 6.0));
/// # Ok::<(), quantmcu_nn::GraphError>(())
/// ```
#[derive(Debug)]
pub struct CompiledGraph<G: Borrow<Graph> = Graph> {
    graph: G,
    /// Feature maps whose last consumer is node `i`, releasable once it
    /// has fired.
    release_after: Vec<Vec<usize>>,
    quant: Option<QuantTables>,
}

/// The quantized half of a compiled graph: activation grids, per-channel
/// quantized weights kept **packed** (the CMix-NN SRAM layout — the
/// [`PackedDot`] micro-kernels compute dot products directly on the
/// packed words, so no unpacked weight buffer exists at any point after
/// compilation), and requantization tables.
#[derive(Debug)]
struct QuantTables {
    act_params: Vec<QuantParams>,
    /// Packed weight words per node, in the node's execution layout.
    packed_weights: Vec<Vec<u8>>,
    /// Requantization per weighted node (`None` for weightless nodes).
    requant: Vec<Option<Requant>>,
    /// Exact activation tables per node (see [`ActivationLut`]); `None`
    /// for nodes that take another arm of the integer loop.
    luts: Vec<Option<ActivationLut>>,
    weight_bits: Bitwidth,
}

/// The integer form of a `Relu`, `Relu6` or `MaxPool` node whose input
/// grid is a storage grid (≤ 8 bits): one output grid value per input
/// grid level, `out.quantize(f(in.dequantize(q)))` with `f` the node's
/// float kernel — the exact arithmetic of the dequantize → float kernel
/// → requantize round trip, evaluated once per level at compile time
/// instead of once per element at run time. `MaxPool` takes the window
/// maximum on the input grid first ([`kernels::max_pool_q`]); dequantize
/// is monotone, so that is the element the float max selects.
#[derive(Debug)]
struct ActivationLut {
    /// Smallest input grid level (entry 0).
    q_min: i32,
    /// Output grid value per input level, `2^bits` entries.
    table: Vec<i32>,
}

impl ActivationLut {
    /// The table for node `op` between grids `input` and `output`; `None`
    /// when the op has no table form or the input grid is wider than
    /// 8 bits.
    fn new(op: OpSpec, input: QuantParams, output: QuantParams) -> Option<Self> {
        let bits = input.bitwidth();
        if bits.bits() > 8 {
            return None;
        }
        let hi = match op {
            OpSpec::Relu => Some(f32::INFINITY),
            OpSpec::Relu6 => Some(6.0),
            OpSpec::MaxPool { .. } => None,
            _ => return None,
        };
        let one = Shape::hwc(1, 1, 1);
        let table = (bits.min_value()..=bits.max_value())
            .map(|q| {
                let x = [input.dequantize(q)];
                let mut y = x;
                if let Some(hi) = hi {
                    kernels::relu(&x, one, &mut y, hi, one.full_region());
                }
                output.quantize(y[0])
            })
            .collect();
        Some(ActivationLut { q_min: bits.min_value(), table })
    }

    /// The output grid value of input level `q`.
    #[inline]
    fn get(&self, q: i8) -> i32 {
        self.table[(q as i32 - self.q_min) as usize]
    }

    /// Maps every input level of `x` into `out`.
    fn apply<O: Level>(&self, x: &[i8], out: &mut [O]) {
        for (o, &q) in out.iter_mut().zip(x) {
            *o = O::from_level(self.get(q));
        }
    }
}

/// One [`ActivationLut`] slot per node of `spec` under `act_params`.
fn activation_luts(spec: &GraphSpec, act_params: &[QuantParams]) -> Vec<Option<ActivationLut>> {
    spec.nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            ActivationLut::new(node.op, act_params[source_fm(node.inputs[0])], act_params[i + 1])
        })
        .collect()
}

impl<G: Borrow<Graph>> CompiledGraph<G> {
    /// Compiles `graph` for float execution: derives the feature-map
    /// liveness schedule from [`GraphSpec::consumers_of`].
    ///
    /// No structural check runs here: [`GraphSpec::new`], a spec's only
    /// constructor, already rejects bad arity, forward references and
    /// shape errors, with the same shape inference the analyzer uses.
    ///
    /// # Errors
    ///
    /// None today: every [`Graph`] compiles for float execution. The
    /// `Result` leaves room for compile-time checks without breaking
    /// callers.
    pub fn new(graph: G) -> Result<Self, GraphError> {
        let release_after = release_schedule(graph.borrow().spec());
        Ok(CompiledGraph { graph, release_after, quant: None })
    }

    /// Compiles `graph` for both float and integer execution: on top of
    /// [`CompiledGraph::new`], quantizes every weighted node's parameters
    /// per channel (in the execution layout the shared kernels index) and
    /// precomputes the requantization tables.
    ///
    /// `ranges` and `act_bits` carry one entry per feature map;
    /// `weight_bits` applies to all weighted nodes (the paper deploys
    /// 8-bit weights; Table II baselines use 4-bit).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingQuantization`] when `ranges` or
    /// `act_bits` do not have one entry per feature map, or when a range
    /// is degenerate, and [`GraphError::Analysis`] when the analyzer
    /// proves a deployed `i32` accumulator could overflow at the assigned
    /// bitwidths (`Q001`; so the integer kernels never need a runtime
    /// check).
    pub fn with_quantization(
        graph: G,
        ranges: &[(f32, f32)],
        act_bits: &[Bitwidth],
        weight_bits: Bitwidth,
    ) -> Result<Self, GraphError> {
        let spec = graph.borrow().spec();
        if act_bits.len() == spec.feature_map_count() {
            check_accumulators(spec, |fm| act_bits[fm], weight_bits)?;
        }
        let quant = QuantTables::build(graph.borrow(), ranges, act_bits, weight_bits)?;
        let release_after = release_schedule(graph.borrow().spec());
        Ok(CompiledGraph { graph, release_after, quant: Some(quant) })
    }

    /// The compiled graph.
    pub fn graph(&self) -> &Graph {
        self.graph.borrow()
    }

    /// The compiled graph's spec.
    pub fn spec(&self) -> &GraphSpec {
        self.graph().spec()
    }

    /// `true` when the graph was compiled with quantization tables (the
    /// integer path is available).
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The deployed weight bitwidth, when compiled with quantization.
    pub fn weight_bits(&self) -> Option<Bitwidth> {
        self.quant.as_ref().map(|q| q.weight_bits)
    }

    /// Activation parameters of feature map `fm`.
    ///
    /// # Panics
    ///
    /// Panics when the graph was compiled without quantization or `fm` is
    /// out of range.
    pub fn activation_params(&self, fm: usize) -> QuantParams {
        self.quant.as_ref().expect("compiled without quantization").act_params[fm]
    }

    // ---- float path ----

    /// Runs the graph in float precision, returning the final feature map.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] when `input` does not
    /// match the spec.
    pub fn run_float(&self, state: &mut ExecState, input: &Tensor) -> Result<Tensor, GraphError> {
        self.execute_float(state, input, None, |_, _| {})?;
        let last = self.spec().feature_map_count() - 1;
        // Copy the final map into an exact-size buffer (the documented one
        // steady-state allocation) instead of handing out the recycled
        // arena buffer, which may be oversized and would drain the pool.
        let out = {
            let t = state.slots[last].as_ref().expect("final feature map is never released early");
            Tensor::from_vec(t.shape(), t.data().to_vec()).expect("lengths match")
        };
        state.release_all_float();
        Ok(out)
    }

    /// Runs the graph in float precision, writing the final feature map
    /// into `out`. When `out` already has the output shape this performs
    /// zero heap allocations in the steady state; otherwise `out` is
    /// reallocated once.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] when `input` does not
    /// match the spec.
    pub fn run_float_into(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), GraphError> {
        self.execute_float(state, input, None, |_, _| {})?;
        let last = self.spec().feature_map_count() - 1;
        let t = state.slots[last].as_ref().expect("final feature map is never released early");
        if out.shape() == t.shape() {
            out.data_mut().copy_from_slice(t.data());
        } else {
            *out = Tensor::from_vec(t.shape(), t.data().to_vec()).expect("lengths match");
        }
        state.release_all_float();
        Ok(())
    }

    /// Runs the graph in float precision, streaming every feature map to
    /// `observer` as it is produced: index 0 is the input, index `i + 1`
    /// the output of node `i` (matching [`FeatureMapId`] numbering). Each
    /// map's buffer is recycled once its last consumer has fired, so at
    /// any instant only the live maps exist — this is the zero-allocation
    /// path calibration uses to avoid materializing full traces.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] when `input` does not
    /// match the spec.
    pub fn run_float_with(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        observer: impl FnMut(FeatureMapId, &Tensor),
    ) -> Result<(), GraphError> {
        self.execute_float(state, input, None, observer)?;
        state.release_all_float();
        Ok(())
    }

    /// Runs one dataflow branch of a patch-based stage: node `i` computes
    /// only `regions[i + 1]` of its output map, snapped to `grids[i + 1]`
    /// when grids are given (the input's `regions[0]` too). The final map's
    /// region is copied into the same region of the output-shaped `out`,
    /// and the rest of `out` is left as is, so branches that tile the
    /// output stitch into one map. Map values outside a branch's regions
    /// are arena scratch, which a receptive-field schedule never reads.
    /// Allocation-free once warm.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] for a wrong input,
    /// [`GraphError::InvalidHyperparameter`] unless `regions` (and `grids`)
    /// hold one entry per feature map, and [`GraphError::Tensor`] when a
    /// region does not fit its map or `out` is not output-shaped.
    pub fn run_float_region_into(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        regions: &[Region],
        grids: Option<&[QuantParams]>,
        out: &mut Tensor,
    ) -> Result<(), GraphError> {
        let spec = self.spec();
        let fm_count = spec.feature_map_count();
        if regions.len() != fm_count || grids.is_some_and(|g| g.len() != fm_count) {
            return Err(GraphError::InvalidHyperparameter {
                op: "region schedule",
                detail: "needs one region (and grid) per feature map",
            });
        }
        for (fm, region) in regions.iter().enumerate() {
            let shape = spec.feature_map_shape(FeatureMapId(fm));
            region.check_within(shape.h, shape.w)?;
        }
        self.execute_float(state, input, Some((regions, grids)), |_, _| {})?;
        let last = state.slots[fm_count - 1].as_ref().expect("final feature map is never released");
        let copied = out.copy_region(last, regions[fm_count - 1]);
        state.release_all_float();
        Ok(copied?)
    }

    /// Core float loop: computes every node, yielding maps to `observer`
    /// and recycling them per the liveness schedule. Leaves unreleased
    /// maps (at least the final one) in `state.slots` for the caller.
    ///
    /// Without a `schedule` every node computes its whole output map; with
    /// one, node `i` computes only `regions[i + 1]`, snapped to
    /// `grids[i + 1]` when grids are given (see
    /// [`CompiledGraph::run_float_region_into`]).
    fn execute_float(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        schedule: Option<RegionSchedule<'_>>,
        mut observer: impl FnMut(FeatureMapId, &Tensor),
    ) -> Result<(), GraphError> {
        let graph = self.graph();
        let spec = graph.spec();
        check_input(spec, input.shape())?;
        state.ensure_slots(spec.feature_map_count());
        let buf = state.arena_f.take(input.data().len());
        let mut t0 = Tensor::from_vec(input.shape(), buf).expect("arena length matches");
        match schedule {
            // A branch reads only its input region; the rest stays scratch.
            Some((regions, grids)) => {
                t0.copy_region(input, regions[0]).expect("regions are checked by the caller");
                if let Some(grids) = grids {
                    fake_quant_region(&mut t0, regions[0], &grids[0]);
                }
            }
            None => t0.data_mut().copy_from_slice(input.data()),
        }
        state.slots[0] = Some(t0);
        observer(FeatureMapId::INPUT, state.slots[0].as_ref().expect("just stored"));
        for i in 0..spec.len() {
            let out_shape = spec.node_shape(i);
            let mut out = Tensor::from_vec(out_shape, state.arena_f.take(out_shape.len()))
                .expect("arena length matches");
            let region = schedule.map_or(out_shape.full_region(), |(regions, _)| regions[i + 1]);
            eval_node(graph, &state.slots, i, &mut out, region, &mut state.tile);
            if let Some((_, Some(grids))) = schedule {
                fake_quant_region(&mut out, region, &grids[i + 1]);
            }
            state.slots[i + 1] = Some(out);
            observer(FeatureMapId::of_node(i), state.slots[i + 1].as_ref().expect("just stored"));
            for &fm in &self.release_after[i] {
                if let Some(t) = state.slots[fm].take() {
                    state.arena_f.give(t.into_vec());
                }
            }
        }
        Ok(())
    }

    // ---- integer path ----

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
        self.execute_quant(state, input, None)?;
        let qt = self.quant.as_ref().expect("checked by execute_quant");
        let spec = self.spec();
        let last = spec.feature_map_count() - 1;
        let q = state.qslots[last].as_ref().expect("final feature map is never released early");
        let shape = spec.feature_map_shape(FeatureMapId(last));
        let mut out = vec![0.0f32; shape.len()];
        q.dequantize_into(&qt.act_params[last], &mut out);
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

    /// Core loop over the graph in quantized storage, one arm per node
    /// (see the module docs). When `observer` is present, each map is
    /// dequantized into arena scratch and yielded.
    fn execute_quant(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        mut observer: Option<MapObserver<'_>>,
    ) -> Result<(), GraphError> {
        let qt = self.quant.as_ref().ok_or(GraphError::MissingQuantization { feature_map: 0 })?;
        let graph = self.graph();
        let spec = graph.spec();
        check_input(spec, input.shape())?;
        state.ensure_slots(spec.feature_map_count());
        let ExecState { arena_f, arena_q, qslots, scratch, gather, .. } = state;
        let p0 = &qt.act_params[0];
        let mut q0 = arena_q.take(p0.bitwidth(), input.data().len());
        q0.quantize_from(p0, input.data());
        qslots[0] = Some(q0);
        if let Some(obs) = observer.as_deref_mut() {
            yield_map(arena_f, spec, &qt.act_params, qslots, 0, obs);
        }
        for (i, node) in spec.nodes().iter().enumerate() {
            let out_fm = i + 1;
            let out_shape = spec.node_shape(i);
            let p_out = &qt.act_params[out_fm];
            let mut qout = arena_q.take(p_out.bitwidth(), out_shape.len());
            let in0_fm = source_fm(node.inputs[0]);
            let in_shape = spec.feature_map_shape(FeatureMapId(in0_fm));
            let q_in = qslots[in0_fm].as_ref().expect("liveness keeps inputs alive");
            match (node.op.has_weights(), &qt.luts[i]) {
                (true, _) => {
                    let rq = qt.requant[i].as_ref().expect("weighted node has requantization");
                    let zp_in = qt.act_params[in0_fm].zero_point();
                    let dot = PackedDot::new(&qt.packed_weights[i], qt.weight_bits, zp_in, rq);
                    match (q_in, &mut qout) {
                        (QMap::Narrow(x), QMap::Narrow(o)) => {
                            weighted(node.op, &dot, x, in_shape, o, &mut gather.narrow)
                        }
                        (QMap::Narrow(x), QMap::Wide(o)) => {
                            weighted(node.op, &dot, x, in_shape, o, &mut gather.narrow)
                        }
                        (QMap::Wide(x), QMap::Narrow(o)) => {
                            weighted(node.op, &dot, x, in_shape, o, &mut gather.wide)
                        }
                        (QMap::Wide(x), QMap::Wide(o)) => {
                            weighted(node.op, &dot, x, in_shape, o, &mut gather.wide)
                        }
                    }
                }
                (false, Some(lut)) => {
                    let QMap::Narrow(x) = q_in else {
                        unreachable!("tables exist only for ≤ 8-bit input grids")
                    };
                    match (node.op, &mut qout) {
                        (OpSpec::MaxPool { kernel, stride }, QMap::Narrow(o)) => {
                            kernels::max_pool_q(
                                x,
                                in_shape,
                                o,
                                kernel,
                                stride,
                                out_shape.full_region(),
                            );
                            for v in o.iter_mut() {
                                *v = i8::from_level(lut.get(*v));
                            }
                        }
                        (OpSpec::MaxPool { kernel, stride }, QMap::Wide(o)) => {
                            let mut pooled = arena_q.narrow.take(out_shape.len());
                            let region = out_shape.full_region();
                            kernels::max_pool_q(x, in_shape, &mut pooled, kernel, stride, region);
                            lut.apply(&pooled, o);
                            arena_q.narrow.give(pooled);
                        }
                        (_, QMap::Narrow(o)) => lut.apply(x, o),
                        (_, QMap::Wide(o)) => lut.apply(x, o),
                    }
                }
                (false, None) => {
                    // Remaining value-preserving ops (and activations over
                    // accounting-width grids): dequantize inputs into arena
                    // scratch, run the shared float kernel, requantize.
                    for &s in &node.inputs {
                        let fm = source_fm(s);
                        let shape = spec.feature_map_shape(FeatureMapId(fm));
                        let mut buf = arena_f.take(shape.len());
                        let q = qslots[fm].as_ref().expect("liveness keeps inputs alive");
                        q.dequantize_into(&qt.act_params[fm], &mut buf);
                        scratch.push(Tensor::from_vec(shape, buf).expect("arena length matches"));
                    }
                    let mut outf = arena_f.take(out_shape.len());
                    let region = out_shape.full_region();
                    let s0 = &scratch[0];
                    match node.op {
                        OpSpec::MaxPool { kernel, stride } => kernels::max_pool(
                            s0.data(),
                            s0.shape(),
                            &mut outf,
                            kernel,
                            stride,
                            region,
                        ),
                        OpSpec::AvgPool { kernel, stride } => kernels::avg_pool(
                            s0.data(),
                            s0.shape(),
                            &mut outf,
                            kernel,
                            stride,
                            region,
                        ),
                        OpSpec::GlobalAvgPool => {
                            kernels::global_avg_pool(s0.data(), s0.shape(), &mut outf)
                        }
                        OpSpec::Relu => {
                            kernels::relu(s0.data(), s0.shape(), &mut outf, f32::INFINITY, region)
                        }
                        OpSpec::Relu6 => {
                            kernels::relu(s0.data(), s0.shape(), &mut outf, 6.0, region)
                        }
                        OpSpec::Add => {
                            kernels::add(s0.data(), scratch[1].data(), out_shape, &mut outf, region)
                        }
                        OpSpec::Concat => kernels::concat(
                            scratch.iter().map(|t| (t.data(), t.shape())),
                            &mut outf,
                            out_shape,
                            region,
                        ),
                        _ => unreachable!("weighted ops handled above"),
                    }
                    qout.quantize_from(p_out, &outf);
                    arena_f.give(outf);
                    for t in scratch.drain(..) {
                        arena_f.give(t.into_vec());
                    }
                }
            }
            qslots[out_fm] = Some(qout);
            if let Some(obs) = observer.as_deref_mut() {
                yield_map(arena_f, spec, &qt.act_params, qslots, out_fm, obs);
            }
            for &fm in &self.release_after[i] {
                if let Some(q) = qslots[fm].take() {
                    arena_q.give(q);
                }
            }
        }
        Ok(())
    }
}

/// Runs weighted node `op` over `input` into `out`, with `row` as the
/// gather scratch of the conv and dense kernels.
fn weighted<I: Level, O: Level>(
    op: OpSpec,
    dot: &PackedDot<'_>,
    input: &[I],
    in_shape: Shape,
    out: &mut [O],
    row: &mut Vec<I::Lane>,
) {
    match op {
        OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
            kernels::conv2d_q(dot, input, in_shape, out, out_ch, kernel, stride, pad, row)
        }
        OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
            kernels::dwconv_q(dot, input, in_shape, out, kernel, stride, pad)
        }
        OpSpec::Dense { out: out_f } => kernels::dense_q(dot, input, in_shape, out, out_f, row),
        _ => unreachable!("only weighted ops have requantization"),
    }
}

impl QuantTables {
    /// Quantizes every weighted node's parameters and precomputes the
    /// requantization tables (see [`CompiledGraph::with_quantization`]).
    fn build(
        graph: &Graph,
        ranges: &[(f32, f32)],
        act_bits: &[Bitwidth],
        weight_bits: Bitwidth,
    ) -> Result<Self, GraphError> {
        let spec = graph.spec();
        let fm_count = spec.feature_map_count();
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
        let luts = activation_luts(spec, &act_params);
        Ok(QuantTables { act_params, packed_weights, requant, luts, weight_bits })
    }
}

/// The per-worker half of an inference: scratch arenas plus feature-map
/// slots. Construction allocates nothing; the arenas warm up over the
/// first inference and reach a fixed point, after which every run on the
/// same compiled graph is allocation-free.
///
/// A state is not tied to a particular graph — the slot vectors are
/// (re)sized lazily on each run — but reusing one state across graphs of
/// different shapes re-warms the arenas.
#[derive(Debug, Default)]
pub struct ExecState {
    arena_f: Arena<f32>,
    arena_q: QArena,
    /// Live float feature maps, indexed by [`FeatureMapId`].
    slots: Vec<Option<Tensor>>,
    /// Live quantized feature maps, indexed by [`FeatureMapId`].
    qslots: Vec<Option<QMap>>,
    /// Dequantized input scratch for value-preserving ops.
    scratch: Vec<Tensor>,
    /// Receptive-row scratch of the integer conv and dense kernels.
    gather: Gather,
    /// Transposed pixel-tile scratch of the float conv kernel.
    tile: Vec<f32>,
}

/// One quantized feature map in its storage width: `i8` for grids of at
/// most 8 bits, `i32` for the wider accounting grids.
#[derive(Debug)]
enum QMap {
    Narrow(Vec<i8>),
    Wide(Vec<i32>),
}

impl QMap {
    /// Quantizes `src` onto grid `p` into this map.
    fn quantize_from(&mut self, p: &QuantParams, src: &[f32]) {
        match self {
            QMap::Narrow(q) => p.quantize_slice(src, q),
            QMap::Wide(q) => p.quantize_slice(src, q),
        }
    }

    /// Dequantizes this map (on grid `p`) into `dst`.
    fn dequantize_into(&self, p: &QuantParams, dst: &mut [f32]) {
        match self {
            QMap::Narrow(q) => p.dequantize_slice(q, dst),
            QMap::Wide(q) => p.dequantize_slice(q, dst),
        }
    }
}

/// The two buffer pools behind [`QMap`].
#[derive(Debug, Default)]
struct QArena {
    narrow: Arena<i8>,
    wide: Arena<i32>,
}

impl QArena {
    /// A `len`-element map in the storage width of a `bits` grid.
    fn take(&mut self, bits: Bitwidth, len: usize) -> QMap {
        if bits.bits() <= i8::BITS {
            QMap::Narrow(self.narrow.take(len))
        } else {
            QMap::Wide(self.wide.take(len))
        }
    }

    fn give(&mut self, map: QMap) {
        match map {
            QMap::Narrow(q) => self.narrow.give(q),
            QMap::Wide(q) => self.wide.give(q),
        }
    }

    fn fresh_allocations(&self) -> usize {
        self.narrow.fresh_allocations() + self.wide.fresh_allocations()
    }
}

/// Gathered receptive rows: `i16` lanes from `i8` storage, `i32` lanes
/// from wide storage.
#[derive(Debug, Default)]
struct Gather {
    narrow: Vec<i16>,
    wide: Vec<i32>,
}

impl ExecState {
    /// An empty state; allocates nothing until the first run.
    pub fn new() -> Self {
        ExecState::default()
    }

    /// A state pre-sized for `compiled` (purely an up-front convenience —
    /// [`ExecState::new`] reaches the same fixed point after one run).
    pub fn for_graph<G: Borrow<Graph>>(compiled: &CompiledGraph<G>) -> Self {
        let mut state = ExecState::new();
        state.ensure_slots(compiled.spec().feature_map_count());
        state
    }

    /// Total warm-up allocation count of the state's arenas (stable once
    /// every feature-map shape has been seen; see
    /// [`Arena::fresh_allocations`]).
    pub fn fresh_allocations(&self) -> usize {
        self.arena_f.fresh_allocations() + self.arena_q.fresh_allocations()
    }

    fn ensure_slots(&mut self, fm_count: usize) {
        if self.slots.len() != fm_count {
            self.release_all_float();
            self.slots.clear();
            self.slots.resize_with(fm_count, || None);
        }
        if self.qslots.len() != fm_count {
            self.release_all_quant();
            self.qslots.clear();
            self.qslots.resize_with(fm_count, || None);
        }
    }

    /// Returns every still-live float feature map buffer to the arena.
    fn release_all_float(&mut self) {
        for slot in &mut self.slots {
            if let Some(t) = slot.take() {
                self.arena_f.give(t.into_vec());
            }
        }
    }

    /// Returns every still-live quantized buffer to the arena.
    fn release_all_quant(&mut self) {
        for slot in &mut self.qslots {
            if let Some(q) = slot.take() {
                self.arena_q.give(q);
            }
        }
    }
}

/// A streaming observer over dequantized feature maps.
type MapObserver<'o> = &'o mut dyn FnMut(FeatureMapId, &Tensor);

/// A branch's per-feature-map regions plus, optionally, the grid each
/// computed region is snapped to (see
/// [`CompiledGraph::run_float_region_into`]).
type RegionSchedule<'s> = (&'s [Region], Option<&'s [QuantParams]>);

/// Evaluates node `i` within `region` of `out`, dispatching to the shared
/// kernel layer. Reads outside an input map's bounds behave as zero
/// padding; non-spatial ops (`Dense`, `GlobalAvgPool`) compute all of
/// `out`. `tile` is the float conv kernel's scratch.
fn eval_node(
    graph: &Graph,
    slots: &[Option<Tensor>],
    i: usize,
    out: &mut Tensor,
    region: Region,
    tile: &mut Vec<f32>,
) {
    let spec = graph.spec();
    let node = &spec.nodes()[i];
    let slot = |s: Source| -> &Tensor {
        slots[source_fm(s)].as_ref().expect("liveness schedule keeps inputs alive")
    };
    let in0 = slot(node.inputs[0]);
    let in_shape = in0.shape();
    let out_shape = out.shape();
    let dot = FloatDot { weights: graph.params(i).weights(), bias: graph.params(i).bias() };
    match node.op {
        OpSpec::Conv2d { out_ch, kernel, stride, pad } => kernels::conv2d(
            &dot,
            in0.data(),
            in_shape,
            out.data_mut(),
            out_ch,
            kernel,
            stride,
            pad,
            region,
            tile,
        ),
        OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
            kernels::dwconv(&dot, in0.data(), in_shape, out.data_mut(), kernel, stride, pad, region)
        }
        OpSpec::Dense { out: out_f } => {
            kernels::dense(&dot, in0.data(), in_shape, out.data_mut(), out_f)
        }
        OpSpec::MaxPool { kernel, stride } => {
            kernels::max_pool(in0.data(), in_shape, out.data_mut(), kernel, stride, region)
        }
        OpSpec::AvgPool { kernel, stride } => {
            kernels::avg_pool(in0.data(), in_shape, out.data_mut(), kernel, stride, region)
        }
        OpSpec::GlobalAvgPool => kernels::global_avg_pool(in0.data(), in_shape, out.data_mut()),
        OpSpec::Relu => kernels::relu(in0.data(), in_shape, out.data_mut(), f32::INFINITY, region),
        OpSpec::Relu6 => kernels::relu(in0.data(), in_shape, out.data_mut(), 6.0, region),
        OpSpec::Add => {
            kernels::add(in0.data(), slot(node.inputs[1]).data(), out_shape, out.data_mut(), region)
        }
        OpSpec::Concat => kernels::concat(
            node.inputs.iter().map(|&s| {
                let t = slot(s);
                (t.data(), t.shape())
            }),
            out.data_mut(),
            out_shape,
            region,
        ),
    }
}

/// Quantize-dequantizes the values inside `region` (all channels) in
/// place, one contiguous row run of `(x_end − x)·c` values at a time,
/// leaving the rest of the tensor untouched.
fn fake_quant_region(t: &mut Tensor, region: Region, params: &QuantParams) {
    let shape = t.shape();
    let data = t.data_mut();
    kernels::for_row_runs(shape, region, |start, len| {
        params.fake_quantize_slice(&mut data[start..start + len]);
    });
}

/// Dequantizes feature map `fm` into arena scratch and yields it.
fn yield_map(
    arena_f: &mut Arena<f32>,
    spec: &GraphSpec,
    act_params: &[QuantParams],
    qslots: &[Option<QMap>],
    fm: usize,
    observer: &mut dyn FnMut(FeatureMapId, &Tensor),
) {
    let shape = spec.feature_map_shape(FeatureMapId(fm));
    let q = qslots[fm].as_ref().expect("just produced");
    let mut buf = arena_f.take(shape.len());
    q.dequantize_into(&act_params[fm], &mut buf);
    let t = Tensor::from_vec(shape, buf).expect("arena length matches");
    observer(FeatureMapId(fm), &t);
    arena_f.give(t.into_vec());
}

/// Validates an executor input against the spec's declared input shape.
pub(crate) fn check_input(spec: &GraphSpec, actual: Shape) -> Result<(), GraphError> {
    let expected = spec.input_shape();
    if actual == expected {
        Ok(())
    } else {
        Err(GraphError::InputShapeMismatch { expected, actual })
    }
}

/// Slot index of a node input source ([`FeatureMapId`] numbering).
pub(crate) fn source_fm(s: Source) -> usize {
    s.feature_map().0
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

/// The feature-map liveness schedule executors recycle buffers by: entry
/// `i` lists the maps whose *last* consumer is node `i`, releasable to
/// the arena once it has fired. Maps without consumers (at least the
/// final output) appear in no entry and stay live until the run ends.
fn release_schedule(spec: &GraphSpec) -> Vec<Vec<usize>> {
    let mut release_after = vec![Vec::new(); spec.len()];
    for fm in 0..spec.feature_map_count() {
        if let Some(last) = spec.consumers_of(FeatureMapId(fm)).into_iter().max() {
            release_after[last].push(fm);
        }
    }
    release_after
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
    use proptest::prelude::*;

    use super::*;
    use crate::builder::GraphSpecBuilder;
    use crate::init;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_graph_is_send_and_sync() {
        assert_send_sync::<CompiledGraph<Graph>>();
        assert_send_sync::<CompiledGraph<&Graph>>();
        assert_send_sync::<CompiledGraph<std::sync::Arc<Graph>>>();
        fn assert_send<T: Send>() {}
        assert_send::<ExecState>();
    }

    #[test]
    fn owned_and_borrowed_compilations_agree() {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(4, 3, 1, 1)
            .relu6()
            .global_avg_pool()
            .dense(5)
            .build()
            .unwrap();
        let graph = init::with_structured_weights(spec, 3);
        let input = Tensor::from_fn(Shape::hwc(8, 8, 3), |i| (i as f32 * 0.1).sin());
        let borrowed = CompiledGraph::new(&graph).expect("validated graphs pass analysis");
        let mut state = ExecState::for_graph(&borrowed);
        let a = borrowed.run_float(&mut state, &input).unwrap();
        let owned = CompiledGraph::new(graph.clone()).expect("validated graphs pass analysis");
        let b = owned.run_float(&mut ExecState::new(), &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn one_compiled_graph_serves_many_states() {
        let spec = GraphSpecBuilder::new(Shape::hwc(6, 6, 2))
            .conv2d(3, 3, 1, 1)
            .relu()
            .global_avg_pool()
            .dense(4)
            .build()
            .unwrap();
        let graph = init::with_structured_weights(spec, 7);
        let compiled = CompiledGraph::new(&graph).expect("validated graphs pass analysis");
        let input = Tensor::from_fn(Shape::hwc(6, 6, 2), |i| (i as f32 * 0.2).cos());
        let mut s1 = ExecState::new();
        let mut s2 = ExecState::new();
        let a = compiled.run_float(&mut s1, &input).unwrap();
        let b = compiled.run_float(&mut s2, &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_quant_without_tables_is_an_error() {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 1)).relu6().build().unwrap();
        let graph = init::with_structured_weights(spec, 0);
        let compiled = CompiledGraph::new(&graph).expect("validated graphs pass analysis");
        assert!(matches!(
            compiled.run_quant(&mut ExecState::new(), &Tensor::zeros(Shape::hwc(4, 4, 1))),
            Err(GraphError::MissingQuantization { .. })
        ));
    }

    #[test]
    fn run_float_into_reuses_the_output_buffer() {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 2)).conv2d(3, 3, 1, 1).build().unwrap();
        let graph = init::with_structured_weights(spec, 5);
        let compiled = CompiledGraph::new(&graph).expect("validated graphs pass analysis");
        let mut state = ExecState::new();
        let input = Tensor::from_fn(Shape::hwc(4, 4, 2), |i| i as f32 * 0.01);
        let expected = compiled.run_float(&mut state, &input).unwrap();
        // Wrong-shaped target is fixed up; right-shaped target is reused.
        let mut out = Tensor::zeros(Shape::hwc(1, 1, 1));
        compiled.run_float_into(&mut state, &input, &mut out).unwrap();
        assert_eq!(out, expected);
        compiled.run_float_into(&mut state, &input, &mut out).unwrap();
        assert_eq!(out, expected);
    }

    /// `compiled` with every activation table dropped, so each
    /// `Relu`/`Relu6`/`MaxPool` node takes the float round-trip arm the
    /// tables replace.
    fn round_trip_twin(mut compiled: CompiledGraph<&Graph>) -> CompiledGraph<&Graph> {
        for lut in &mut compiled.quant.as_mut().expect("compiled with quantization").luts {
            *lut = None;
        }
        compiled
    }

    /// The pre-table integer arm for one weightless node: dequantize,
    /// run the float kernel, requantize.
    fn round_trip(
        op: OpSpec,
        q: &[i32],
        in_shape: Shape,
        p_in: QuantParams,
        p_out: QuantParams,
    ) -> Vec<i32> {
        let x: Vec<f32> = q.iter().map(|&v| p_in.dequantize(v)).collect();
        let out_shape = match op {
            OpSpec::MaxPool { kernel, stride } => Shape::new(
                in_shape.n,
                (in_shape.h - kernel) / stride + 1,
                (in_shape.w - kernel) / stride + 1,
                in_shape.c,
            ),
            _ => in_shape,
        };
        let mut y = vec![0.0f32; out_shape.len()];
        let region = out_shape.full_region();
        match op {
            OpSpec::Relu => kernels::relu(&x, in_shape, &mut y, f32::INFINITY, region),
            OpSpec::Relu6 => kernels::relu(&x, in_shape, &mut y, 6.0, region),
            OpSpec::MaxPool { kernel, stride } => {
                kernels::max_pool(&x, in_shape, &mut y, kernel, stride, region)
            }
            _ => unreachable!("only table ops"),
        }
        y.iter().map(|&v| p_out.quantize(v)).collect()
    }

    /// Deterministic pseudo-random grid level in `lo..=hi`.
    fn level(i: usize, seed: u64, lo: i32, hi: i32) -> i32 {
        let x =
            (i as u64 ^ seed).wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lo + ((x >> 33) % (hi - lo + 1) as u64) as i32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every input level of every storage grid, through the table arm
        /// of the executor, equals the dequantize → float kernel →
        /// requantize reference and the executor's own round-trip arm.
        #[test]
        fn table_activations_match_the_round_trip_at_every_level(
            in_bits in prop::sample::select(vec![Bitwidth::W2, Bitwidth::W4, Bitwidth::W8]),
            out_bits in prop::sample::select(vec![Bitwidth::W2, Bitwidth::W4, Bitwidth::W8, Bitwidth::W16]),
            in_lo in -9.0f32..0.5,
            in_hi in -0.5f32..9.0,
            out_lo in -9.0f32..0.5,
            out_hi in -0.5f32..9.0,
            seed in 0u64..1_000_000,
        ) {
            let (q_min, q_max) = (in_bits.min_value(), in_bits.max_value());
            let n = (q_max - q_min + 1) as usize;
            for op in [OpSpec::Relu, OpSpec::Relu6, OpSpec::MaxPool { kernel: 2, stride: 2 }] {
                // Relu sees each level once; MaxPool gets one 2×2 window
                // per level whose maximum is that level.
                let (in_shape, q) = match op {
                    OpSpec::MaxPool { .. } => {
                        let shape = Shape::hwc(2, 2 * n, 1);
                        let mut q = vec![0i32; shape.len()];
                        for j in 0..n {
                            let top = q_min + j as i32;
                            let peak = level(j, seed, 0, 3) as usize;
                            for t in 0..4 {
                                let v = if t == peak { top } else { level(4 * j + t, seed, q_min, top) };
                                q[shape.index(0, t / 2, 2 * j + t % 2, 0)] = v;
                            }
                        }
                        (shape, q)
                    }
                    _ => {
                        let shape = Shape::hwc(1, n, 1);
                        (shape, (0..n).map(|j| q_min + ((j + seed as usize) % n) as i32).collect())
                    }
                };
                let spec = match op {
                    OpSpec::Relu => GraphSpecBuilder::new(in_shape).relu(),
                    OpSpec::Relu6 => GraphSpecBuilder::new(in_shape).relu6(),
                    _ => GraphSpecBuilder::new(in_shape).max_pool(2, 2),
                }
                .build()
                .unwrap();
                let graph = init::with_structured_weights(spec, 0);
                let compile = || {
                    CompiledGraph::with_quantization(
                        &graph,
                        &[(in_lo, in_hi), (out_lo, out_hi)],
                        &[in_bits, out_bits],
                        Bitwidth::W8,
                    )
                    .unwrap()
                };
                let compiled = compile();
                prop_assert!(compiled.quant.as_ref().unwrap().luts[0].is_some());
                let (p_in, p_out) = (compiled.activation_params(0), compiled.activation_params(1));
                let input = Tensor::from_vec(in_shape, q.iter().map(|&v| p_in.dequantize(v)).collect()).unwrap();
                prop_assert!(input.data().iter().zip(&q).all(|(&x, &v)| p_in.quantize(x) == v));
                let expected = round_trip(op, &q, in_shape, p_in, p_out);
                let table = compiled.run_quant(&mut ExecState::new(), &input).unwrap();
                let old = round_trip_twin(compile()).run_quant(&mut ExecState::new(), &input).unwrap();
                for (j, &e) in expected.iter().enumerate() {
                    let e = p_out.dequantize(e).to_bits();
                    prop_assert!(table.data()[j].to_bits() == e, "{} table level {}", op.name(), j);
                    prop_assert!(old.data()[j].to_bits() == e, "{} round trip level {}", op.name(), j);
                }
            }
        }

        /// A whole graph mixing convolutions, `Relu`, `Relu6`, `MaxPool`
        /// and storage grids of every width gives bit-identical outputs
        /// with and without the tables, from the same ranges and bitwidths.
        #[test]
        fn whole_graph_table_arm_matches_the_round_trip_arm(
            seed in 0u64..1_000_000,
            bits in prop::collection::vec(prop::sample::select(vec![Bitwidth::W2, Bitwidth::W4, Bitwidth::W8]), 11),
        ) {
            let spec = GraphSpecBuilder::new(Shape::hwc(12, 12, 3))
                .conv2d(8, 3, 1, 1)
                .relu()
                .max_pool(2, 2)
                .dwconv(3, 1, 1)
                .relu6()
                .conv2d(6, 1, 1, 0)
                .relu6()
                .max_pool(3, 1)
                .global_avg_pool()
                .dense(5)
                .build()
                .unwrap();
            let graph = init::with_structured_weights(spec, seed);
            let fm_count = graph.spec().feature_map_count();
            prop_assert_eq!(fm_count, bits.len());
            let ranges: Vec<(f32, f32)> = (0..fm_count)
                .map(|i| (-(level(i, seed, 1, 40) as f32) * 0.1, level(i, seed ^ 7, 1, 80) as f32 * 0.1))
                .collect();
            let compile = || CompiledGraph::with_quantization(&graph, &ranges, &bits, Bitwidth::W4).unwrap();
            let compiled = compile();
            let twin = round_trip_twin(compile());
            for k in 0..4u64 {
                let input = Tensor::from_fn(Shape::hwc(12, 12, 3), |i| ((i as u64 * 31 + k * 7 + seed) as f32 * 0.37).sin() * 3.0);
                let a = compiled.run_quant(&mut ExecState::new(), &input).unwrap();
                let b = twin.run_quant(&mut ExecState::new(), &input).unwrap();
                prop_assert!(a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn accounting_width_inputs_keep_the_round_trip() {
        let spec =
            GraphSpecBuilder::new(Shape::hwc(4, 4, 2)).relu6().max_pool(2, 2).build().unwrap();
        let graph = init::with_structured_weights(spec, 0);
        let ranges = vec![(-3.0, 7.0); 3];
        let compiled = CompiledGraph::with_quantization(
            &graph,
            &ranges,
            &[Bitwidth::W16, Bitwidth::W8, Bitwidth::W8],
            Bitwidth::W8,
        )
        .unwrap();
        let luts = &compiled.quant.as_ref().unwrap().luts;
        assert!(luts[0].is_none(), "a 16-bit input grid gets no table");
        assert!(luts[1].is_some(), "an 8-bit input grid does");
    }
}
