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

use std::borrow::Borrow;

use quantmcu_tensor::{pack, Arena, Bitwidth, ChannelQuantParams, QuantParams, Shape, Tensor};

use crate::error::GraphError;
use crate::graph::Graph;
use crate::kernels::{self, FloatDot, PackedDot, Requant};
use crate::spec::{FeatureMapId, GraphSpec, OpSpec, Source};

/// An immutable, shareable compilation of a [`Graph`].
///
/// Generic over `G: Borrow<Graph>`, so it can *borrow* a graph
/// (`CompiledGraph<&Graph>`, the façades' choice), *own* it
/// (`CompiledGraph<Graph>`, how the patch executor caches its tail), or
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

/// Per-node integer requantization constants, precomputed once.
#[derive(Debug)]
struct NodeQuant {
    /// Bias in accumulator grid units, per output channel.
    bias_q: Vec<i64>,
    /// `s_in * s_w(oc)`: the accumulator's real-value scale, per channel.
    acc_scale: Vec<f64>,
    /// `-zp_in * Σ w[oc]` per channel when the node's zero-point
    /// correction can be folded into [`kernels::Dot::init`] (dense layers
    /// and unpadded convolutions — every weight participates in every
    /// output element); empty when padding forces per-element correction.
    zp_fold: Vec<i64>,
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
    node_quant: Vec<Option<NodeQuant>>,
    weight_bits: Bitwidth,
}

/// A serializable snapshot of one weighted node's integer tables: the
/// packed CMix-NN weight words plus the requantization constants the
/// executor's per-node tables carry. Weightless nodes carry all-empty
/// buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeQuantState {
    /// Packed weight words in the node's execution layout; empty for
    /// weightless nodes.
    pub packed_weights: Vec<u8>,
    /// Bias in accumulator grid units, per output channel.
    pub bias_q: Vec<i64>,
    /// The accumulator's real-value scale, per output channel.
    pub acc_scale: Vec<f64>,
    /// Folded zero-point init terms; empty when the node's geometry
    /// requires per-element correction.
    pub zp_fold: Vec<i64>,
}

/// A serializable snapshot of a compiled graph's quantized half — what
/// plan artifacts persist so a deployment can be restored bit-exactly
/// without recompiling (or recalibrating) anything.
///
/// Produced by [`CompiledGraph::quant_state`], consumed by
/// [`CompiledGraph::with_quant_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantState {
    /// Activation grid per feature map.
    pub act_params: Vec<QuantParams>,
    /// Per-node packed weights and requantization tables, one entry per
    /// graph node (all-empty for weightless nodes).
    pub nodes: Vec<NodeQuantState>,
    /// The deployed weight bitwidth.
    pub weight_bits: Bitwidth,
}

impl<G: Borrow<Graph>> CompiledGraph<G> {
    /// Compiles `graph` for float execution: runs the static analyzer in
    /// strict mode ([`crate::analyze::verify_spec`]) and derives the
    /// feature-map liveness schedule from [`GraphSpec::consumers_of`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Analysis`] when the analyzer finds a
    /// structural or shape error. A [`GraphSpec`] that came out of
    /// [`GraphSpec::new`] always passes; the gate exists for graphs that
    /// arrive through less-validated paths (e.g. a future importer).
    pub fn new(graph: G) -> Result<Self, GraphError> {
        let report = crate::analyze::verify_spec(graph.borrow().spec());
        if report.has_errors() {
            return Err(GraphError::Analysis(report));
        }
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
    /// rejects the graph or proves a deployed `i32` accumulator could
    /// overflow at the assigned bitwidths (so the integer kernels never
    /// need a runtime check).
    pub fn with_quantization(
        graph: G,
        ranges: &[(f32, f32)],
        act_bits: &[Bitwidth],
        weight_bits: Bitwidth,
    ) -> Result<Self, GraphError> {
        let spec = graph.borrow().spec();
        let mut report = crate::analyze::verify_spec(spec);
        if act_bits.len() == spec.feature_map_count() {
            for (i, node) in spec.nodes().iter().enumerate() {
                if !node.op.has_weights() {
                    continue;
                }
                let in_fm = source_fm(node.inputs[0]);
                let in_shape = spec.feature_map_shape(FeatureMapId(in_fm));
                if let Some(d) = crate::analyze::overflow_diagnostic(
                    i,
                    node.op,
                    in_shape,
                    act_bits[in_fm],
                    weight_bits,
                ) {
                    report.push(d);
                }
            }
        }
        if report.has_errors() {
            return Err(GraphError::Analysis(report));
        }
        let quant = QuantTables::build(graph.borrow(), ranges, act_bits, weight_bits)?;
        let release_after = release_schedule(graph.borrow().spec());
        Ok(CompiledGraph { graph, release_after, quant: Some(quant) })
    }

    /// Recompiles a graph from a previously captured [`QuantState`]
    /// instead of quantizing from calibration ranges — the bit-exact
    /// restore path plan artifacts use. The same analyzer gates as
    /// [`CompiledGraph::with_quantization`] run (strict structural
    /// verification plus accumulator overflow proofs at the state's
    /// activation bitwidths), and every buffer length is validated
    /// against the graph before the state is accepted.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingQuantization`] when the state does
    /// not carry one activation grid per feature map,
    /// [`GraphError::QuantState`] when a node's buffers do not fit the
    /// graph's geometry, and [`GraphError::Analysis`] when the analyzer
    /// rejects the graph or the overflow proof fails.
    pub fn with_quant_state(graph: G, state: QuantState) -> Result<Self, GraphError> {
        let spec = graph.borrow().spec();
        let fm_count = spec.feature_map_count();
        if state.act_params.len() != fm_count {
            return Err(GraphError::MissingQuantization { feature_map: state.act_params.len() });
        }
        if state.nodes.len() != spec.len() {
            return Err(GraphError::QuantState {
                node: state.nodes.len(),
                detail: "state carries the wrong number of node entries",
            });
        }
        let mut report = crate::analyze::verify_spec(spec);
        for (i, node) in spec.nodes().iter().enumerate() {
            if !node.op.has_weights() {
                continue;
            }
            let in_fm = source_fm(node.inputs[0]);
            let in_shape = spec.feature_map_shape(FeatureMapId(in_fm));
            if let Some(d) = crate::analyze::overflow_diagnostic(
                i,
                node.op,
                in_shape,
                state.act_params[in_fm].bitwidth(),
                state.weight_bits,
            ) {
                report.push(d);
            }
        }
        if report.has_errors() {
            return Err(GraphError::Analysis(report));
        }
        let mut packed_weights = Vec::with_capacity(spec.len());
        let mut node_quant = Vec::with_capacity(spec.len());
        for (i, ns) in state.nodes.into_iter().enumerate() {
            let w_len = graph.borrow().params(i).weights().len();
            if w_len == 0 {
                if !ns.packed_weights.is_empty()
                    || !ns.bias_q.is_empty()
                    || !ns.acc_scale.is_empty()
                    || !ns.zp_fold.is_empty()
                {
                    return Err(GraphError::QuantState {
                        node: i,
                        detail: "weightless node carries quantization tables",
                    });
                }
                packed_weights.push(Vec::new());
                node_quant.push(None);
                continue;
            }
            let op = spec.nodes()[i].op;
            let in_shape = spec.input_shapes_of(i)[0];
            let (channels, _) = weight_channel_layout(op, in_shape, w_len);
            if ns.packed_weights.len() != state.weight_bits.bytes_for(w_len) {
                return Err(GraphError::QuantState {
                    node: i,
                    detail: "packed weight buffer length does not match the node",
                });
            }
            if ns.bias_q.len() != channels || ns.acc_scale.len() != channels {
                return Err(GraphError::QuantState {
                    node: i,
                    detail: "requantization tables do not carry one entry per channel",
                });
            }
            if !(ns.zp_fold.is_empty() || ns.zp_fold.len() == channels) {
                return Err(GraphError::QuantState {
                    node: i,
                    detail: "zero-point fold does not carry one entry per channel",
                });
            }
            if ns.acc_scale.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                return Err(GraphError::QuantState {
                    node: i,
                    detail: "accumulator scale is not a positive finite number",
                });
            }
            packed_weights.push(ns.packed_weights);
            node_quant.push(Some(NodeQuant {
                bias_q: ns.bias_q,
                acc_scale: ns.acc_scale,
                zp_fold: ns.zp_fold,
            }));
        }
        let quant = QuantTables {
            act_params: state.act_params,
            packed_weights,
            node_quant,
            weight_bits: state.weight_bits,
        };
        let release_after = release_schedule(graph.borrow().spec());
        Ok(CompiledGraph { graph, release_after, quant: Some(quant) })
    }

    /// Captures the quantized half of this compilation as a serializable
    /// [`QuantState`] (see [`CompiledGraph::with_quant_state`]). `None`
    /// when the graph was compiled without quantization.
    pub fn quant_state(&self) -> Option<QuantState> {
        let qt = self.quant.as_ref()?;
        let nodes = qt
            .packed_weights
            .iter()
            .zip(&qt.node_quant)
            .map(|(packed, nq)| match nq {
                Some(nq) => NodeQuantState {
                    packed_weights: packed.clone(),
                    bias_q: nq.bias_q.clone(),
                    acc_scale: nq.acc_scale.clone(),
                    zp_fold: nq.zp_fold.clone(),
                },
                None => NodeQuantState {
                    packed_weights: Vec::new(),
                    bias_q: Vec::new(),
                    acc_scale: Vec::new(),
                    zp_fold: Vec::new(),
                },
            })
            .collect();
        Some(QuantState { act_params: qt.act_params.clone(), nodes, weight_bits: qt.weight_bits })
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
        self.execute_float(state, input, |_, _| {})?;
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
        self.execute_float(state, input, |_, _| {})?;
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
        self.execute_float(state, input, observer)?;
        state.release_all_float();
        Ok(())
    }

    /// Core float loop: computes every node, yielding maps to `observer`
    /// and recycling them per the liveness schedule. Leaves unreleased
    /// maps (at least the final one) in `state.slots` for the caller.
    fn execute_float(
        &self,
        state: &mut ExecState,
        input: &Tensor,
        mut observer: impl FnMut(FeatureMapId, &Tensor),
    ) -> Result<(), GraphError> {
        let graph = self.graph();
        let spec = graph.spec();
        check_input(spec, input.shape())?;
        state.ensure_slots(spec.feature_map_count());
        let mut buf = state.arena_f.take(input.data().len());
        buf.copy_from_slice(input.data());
        state.slots[0] = Some(Tensor::from_vec(input.shape(), buf).expect("arena length matches"));
        observer(FeatureMapId::INPUT, state.slots[0].as_ref().expect("just stored"));
        for i in 0..spec.len() {
            let out_shape = spec.node_shape(i);
            let mut out = Tensor::from_vec(out_shape, state.arena_f.take(out_shape.len()))
                .expect("arena length matches");
            eval_node(graph, &state.slots, i, &mut out);
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
        let p = qt.act_params[last];
        let out =
            Tensor::from_fn(spec.feature_map_shape(FeatureMapId(last)), |j| p.dequantize(q[j]));
        state.release_all_quant();
        Ok(out)
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

    /// Core loop over the graph in quantized storage. When `observer` is
    /// present, each map is dequantized into arena scratch and yielded.
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
        let ExecState { arena_f, arena_q, qslots, scratch, .. } = state;
        let mut q0 = arena_q.take(input.data().len());
        for (q, &v) in q0.iter_mut().zip(input.data()) {
            *q = qt.act_params[0].quantize(v);
        }
        qslots[0] = Some(q0);
        if let Some(obs) = observer.as_deref_mut() {
            yield_map(arena_f, spec, &qt.act_params, qslots, 0, obs);
        }
        for (i, node) in spec.nodes().iter().enumerate() {
            let out_fm = i + 1;
            let out_shape = spec.node_shape(i);
            let mut qout = arena_q.take(out_shape.len());
            let in0_fm = source_fm(node.inputs[0]);
            let in_shape = spec.feature_map_shape(FeatureMapId(in0_fm));
            match node.op {
                OpSpec::Conv2d { out_ch, kernel, stride, pad } => {
                    let dot = qt.dot(i, in0_fm, out_fm);
                    kernels::conv2d(
                        &dot,
                        qslots[in0_fm].as_ref().expect("liveness keeps inputs alive"),
                        in_shape,
                        &mut qout,
                        out_ch,
                        kernel,
                        stride,
                        pad,
                        out_shape.full_region(),
                    );
                }
                OpSpec::DepthwiseConv2d { kernel, stride, pad } => {
                    let dot = qt.dot(i, in0_fm, out_fm);
                    kernels::dwconv(
                        &dot,
                        qslots[in0_fm].as_ref().expect("liveness keeps inputs alive"),
                        in_shape,
                        &mut qout,
                        kernel,
                        stride,
                        pad,
                        out_shape.full_region(),
                    );
                }
                OpSpec::Dense { out } => {
                    let dot = qt.dot(i, in0_fm, out_fm);
                    kernels::dense(
                        &dot,
                        qslots[in0_fm].as_ref().expect("liveness keeps inputs alive"),
                        in_shape,
                        &mut qout,
                        out,
                    );
                }
                _ => {
                    // Value-preserving ops: dequantize inputs into arena
                    // scratch, run the shared float kernel, requantize.
                    for &s in &node.inputs {
                        let fm = source_fm(s);
                        let shape = spec.feature_map_shape(FeatureMapId(fm));
                        let p = qt.act_params[fm];
                        let q = qslots[fm].as_ref().expect("liveness keeps inputs alive");
                        let mut buf = arena_f.take(shape.len());
                        for (o, &qv) in buf.iter_mut().zip(q) {
                            *o = p.dequantize(qv);
                        }
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
                    let p = qt.act_params[out_fm];
                    for (q, &v) in qout.iter_mut().zip(&outf) {
                        *q = p.quantize(v);
                    }
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
        let mut node_quant = Vec::with_capacity(spec.len());
        for i in 0..spec.len() {
            let w = graph.params(i).weights();
            if w.is_empty() {
                packed_weights.push(Vec::new());
                node_quant.push(None);
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
            // j % c), conv/dense rows are already channel-major.
            let qw: Vec<i8> = match op {
                OpSpec::DepthwiseConv2d { .. } => w
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| params.quantize(j % in_shape.c, v) as i8)
                    .collect(),
                _ => w
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| params.quantize(j / per_channel, v) as i8)
                    .collect(),
            };
            let zp_in = act_params[source_fm(spec.nodes()[i].inputs[0])].zero_point() as i64;
            let zp_fold = zero_point_fold(op, in_shape, &qw, channels, per_channel, zp_in);
            let s_in = act_params[source_fm(spec.nodes()[i].inputs[0])].scale() as f64;
            let bias = graph.params(i).bias();
            let acc_scale: Vec<f64> =
                (0..channels).map(|ch| s_in * params.scale(ch) as f64).collect();
            let bias_q: Vec<i64> =
                bias.iter().zip(&acc_scale).map(|(&b, &s)| (b as f64 / s).round() as i64).collect();
            // The i8 working copy dies here: only the packed words — the
            // form the device would keep in SRAM — survive compilation.
            packed_weights.push(pack::pack(&qw, weight_bits));
            node_quant.push(Some(NodeQuant { bias_q, acc_scale, zp_fold }));
        }
        Ok(QuantTables { act_params, packed_weights, node_quant, weight_bits })
    }

    /// Builds the integer kernel strategy for weighted node `i`: a
    /// [`PackedDot`] over the node's packed words, in folded-zero-point
    /// mode whenever the fold is exact for the node's geometry.
    fn dot(&self, i: usize, in_fm: usize, out_fm: usize) -> PackedDot<'_> {
        let out_params = self.act_params[out_fm];
        let nq = self.node_quant[i].as_ref().expect("weighted node has quantization");
        let rq = Requant {
            bias_q: &nq.bias_q,
            acc_scale: &nq.acc_scale,
            out_scale: out_params.scale() as f64,
            zp_out: out_params.zero_point(),
            q_min: out_params.bitwidth().min_value(),
            q_max: out_params.bitwidth().max_value(),
        };
        let dot = if nq.zp_fold.is_empty() {
            let zp_in = self.act_params[in_fm].zero_point();
            PackedDot::new(&self.packed_weights[i], self.weight_bits, zp_in, rq)
        } else {
            PackedDot::with_folded_zero_point(
                &self.packed_weights[i],
                self.weight_bits,
                &nq.zp_fold,
                rq,
            )
        };
        // Storage activation grids (≤ 8 bits) keep `q - zp` within i16,
        // unlocking the widening-multiply lanes; accounting-width
        // activations fall back to full i32 multiplies.
        if self.act_params[in_fm].bitwidth().bits() <= 8 {
            dot.assuming_i16_activations()
        } else {
            dot
        }
    }
}

/// Per-channel `-zp_in * Σ w[ch]` init terms when the zero-point
/// correction can fold into [`kernels::Dot::init`], empty otherwise.
///
/// The identity `Σ (q - zp)·w = Σ q·w - zp · Σ w` holds per output element
/// only when every weight of the channel participates in that element:
/// dense layers always, convolutions only when `pad == 0` (zero padding
/// makes tap participation element-dependent, so padded nodes keep the
/// per-element correction).
fn zero_point_fold(
    op: OpSpec,
    in_shape: Shape,
    qw: &[i8],
    channels: usize,
    per_channel: usize,
    zp_in: i64,
) -> Vec<i64> {
    match op {
        OpSpec::Conv2d { pad: 0, .. } | OpSpec::Dense { .. } => (0..channels)
            .map(|ch| {
                let sum: i64 =
                    qw[ch * per_channel..(ch + 1) * per_channel].iter().map(|&w| w as i64).sum();
                -zp_in * sum
            })
            .collect(),
        OpSpec::DepthwiseConv2d { pad: 0, .. } => {
            // Execution layout is `[kh][kw][c]`: channel `ch`'s taps sit
            // at stride `c`.
            let c = in_shape.c;
            (0..channels)
                .map(|ch| {
                    let sum: i64 = qw[ch..].iter().step_by(c).map(|&w| w as i64).sum();
                    -zp_in * sum
                })
                .collect()
        }
        _ => Vec::new(),
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
    arena_q: Arena<i32>,
    /// Live float feature maps, indexed by [`FeatureMapId`].
    slots: Vec<Option<Tensor>>,
    /// Live quantized feature maps, indexed by [`FeatureMapId`].
    qslots: Vec<Option<Vec<i32>>>,
    /// Dequantized input scratch for value-preserving ops.
    scratch: Vec<Tensor>,
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

/// Evaluates node `i` into `out`, dispatching to the shared kernel layer.
fn eval_node(graph: &Graph, slots: &[Option<Tensor>], i: usize, out: &mut Tensor) {
    let spec = graph.spec();
    let node = &spec.nodes()[i];
    let slot = |s: Source| -> &Tensor {
        slots[source_fm(s)].as_ref().expect("liveness schedule keeps inputs alive")
    };
    let in0 = slot(node.inputs[0]);
    let in_shape = in0.shape();
    let out_shape = out.shape();
    let region = out_shape.full_region();
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

/// Dequantizes feature map `fm` into arena scratch and yields it.
fn yield_map(
    arena_f: &mut Arena<f32>,
    spec: &GraphSpec,
    act_params: &[QuantParams],
    qslots: &[Option<Vec<i32>>],
    fm: usize,
    observer: &mut dyn FnMut(FeatureMapId, &Tensor),
) {
    let shape = spec.feature_map_shape(FeatureMapId(fm));
    let p = act_params[fm];
    let q = qslots[fm].as_ref().expect("just produced");
    let mut buf = arena_f.take(shape.len());
    for (o, &qv) in buf.iter_mut().zip(q) {
        *o = p.dequantize(qv);
    }
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
/// to `[c][kh][kw]`. Only the *fit* uses this grouping — execution keeps
/// the canonical layout the shared kernels index.
fn regroup_by_channel(op: OpSpec, in_shape: Shape, w: &[f32]) -> Vec<f32> {
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
            out
        }
        _ => w.to_vec(),
    }
}

#[cfg(test)]
mod tests {
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
    fn quant_state_round_trip_is_bit_identical() {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(4, 3, 1, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .global_avg_pool()
            .dense(5)
            .build()
            .unwrap();
        let graph = init::with_structured_weights(spec, 11);
        let ranges: Vec<(f32, f32)> =
            (0..graph.spec().feature_map_count()).map(|i| (-1.0 - i as f32 * 0.1, 2.0)).collect();
        let act_bits = vec![Bitwidth::W8; graph.spec().feature_map_count()];
        let compiled =
            CompiledGraph::with_quantization(&graph, &ranges, &act_bits, Bitwidth::W4).unwrap();
        let state = compiled.quant_state().expect("compiled with quantization");
        let restored = CompiledGraph::with_quant_state(&graph, state.clone()).unwrap();
        assert_eq!(restored.quant_state().unwrap(), state);
        let input = Tensor::from_fn(Shape::hwc(8, 8, 3), |i| (i as f32 * 0.13).sin());
        let a = compiled.run_quant(&mut ExecState::new(), &input).unwrap();
        let b = restored.run_quant(&mut ExecState::new(), &input).unwrap();
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn quant_state_that_does_not_fit_is_rejected() {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 2)).conv2d(3, 3, 1, 1).build().unwrap();
        let graph = init::with_structured_weights(spec, 2);
        let ranges = vec![(-1.0, 1.0); 2];
        let act_bits = vec![Bitwidth::W8; 2];
        let compiled =
            CompiledGraph::with_quantization(&graph, &ranges, &act_bits, Bitwidth::W8).unwrap();
        let state = compiled.quant_state().unwrap();

        let mut short = state.clone();
        short.act_params.pop();
        assert!(matches!(
            CompiledGraph::with_quant_state(&graph, short),
            Err(GraphError::MissingQuantization { feature_map: 1 })
        ));

        let mut bad_packed = state.clone();
        bad_packed.nodes[0].packed_weights.pop();
        assert!(matches!(
            CompiledGraph::with_quant_state(&graph, bad_packed),
            Err(GraphError::QuantState { node: 0, .. })
        ));

        let mut bad_bias = state.clone();
        bad_bias.nodes[0].bias_q.push(0);
        assert!(matches!(
            CompiledGraph::with_quant_state(&graph, bad_bias),
            Err(GraphError::QuantState { node: 0, .. })
        ));

        let mut bad_scale = state;
        bad_scale.nodes[0].acc_scale[0] = f64::NAN;
        assert!(matches!(
            CompiledGraph::with_quant_state(&graph, bad_scale),
            Err(GraphError::QuantState { node: 0, .. })
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
}
