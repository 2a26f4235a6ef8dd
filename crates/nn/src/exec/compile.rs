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
//! [`FloatExecutor`](crate::exec::FloatExecutor) bundles a borrowed
//! compilation with its own state for single-threaded float callers.
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
//! [`CompiledGraph::with_quantization`] is the only way into the integer
//! path, and its one gate: grids and weights wider than 8 bits are a typed
//! [`TensorError::UnsupportedBitwidth`](quantmcu_tensor::TensorError)
//! error, and a possible `i32` accumulator overflow is a `Q001` error. So
//! every integer feature map is stored as `i8`. The loop's three arms —
//! packed-weight kernels, exact activation tables, and a round trip
//! through the float loop's own kernel dispatch for the value-preserving
//! ops — live in the `quantized` module beside this one.

use std::borrow::Borrow;

use quantmcu_tensor::{Arena, Bitwidth, QuantParams, Region, Shape, Tensor};

use super::quantized::QuantTables;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::kernels::{self, FloatDot};
use crate::spec::{FeatureMapId, GraphSpec, OpSpec, Source};

/// An immutable, shareable compilation of a [`Graph`].
///
/// Generic over `G: Borrow<Graph>`, so it can *borrow* a graph
/// (`CompiledGraph<&Graph>`, the float façade's choice), *own* it
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
    pub(super) release_after: Vec<Vec<usize>>,
    pub(super) quant: Option<QuantTables>,
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
    /// precomputes the requantization and activation tables. This is the
    /// only way into the integer path, and the one check of what it can
    /// run.
    ///
    /// `ranges` and `act_bits` carry one entry per feature map;
    /// `weight_bits` applies to all weighted nodes (the paper deploys
    /// 8-bit weights; Table II baselines use 4-bit).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Tensor`] with
    /// [`TensorError::UnsupportedBitwidth`](quantmcu_tensor::TensorError)
    /// when `weight_bits` or an activation grid is wider than 8 bits (the
    /// accounting-only `W16`/`W32`, which no `i8` map or packed weight
    /// holds), [`GraphError::Analysis`] when the analyzer proves a
    /// deployed `i32` accumulator could overflow at the assigned bitwidths
    /// (`Q001`; so the integer kernels never need a runtime check), and
    /// [`GraphError::MissingQuantization`] when `ranges` or `act_bits` do
    /// not have one entry per feature map, or when a range is not finite.
    pub fn with_quantization(
        graph: G,
        ranges: &[(f32, f32)],
        act_bits: &[Bitwidth],
        weight_bits: Bitwidth,
    ) -> Result<Self, GraphError> {
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

    /// Activation parameters of feature map `fm`.
    ///
    /// # Panics
    ///
    /// Panics when the graph was compiled without quantization or `fm` is
    /// out of range.
    pub fn activation_params(&self, fm: usize) -> QuantParams {
        self.quant.as_ref().expect("compiled without quantization").act_params[fm]
    }

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
    pub(super) arena_f: Arena<f32>,
    pub(super) arena_q: Arena<i8>,
    /// Live float feature maps, indexed by [`FeatureMapId`]. The integer
    /// loop borrows them to dequantize the inputs of its round-trip arm.
    pub(super) slots: Vec<Option<Tensor>>,
    /// Live quantized feature maps, indexed by [`FeatureMapId`].
    pub(super) qslots: Vec<Option<Vec<i8>>>,
    /// Row, decoded-weight and accumulator scratch of the integer weighted
    /// kernels.
    pub(super) rows: crate::kernels::RowScratch,
    /// Transposed pixel-tile scratch of the float conv kernel.
    pub(super) tile: Vec<f32>,
}

impl ExecState {
    /// An empty state; allocates nothing until the first run.
    pub fn new() -> Self {
        ExecState::default()
    }

    /// Total warm-up allocation count of the state's arenas (stable once
    /// every feature-map shape has been seen; see
    /// [`Arena::fresh_allocations`]).
    pub fn fresh_allocations(&self) -> usize {
        self.arena_f.fresh_allocations() + self.arena_q.fresh_allocations()
    }

    pub(super) fn ensure_slots(&mut self, fm_count: usize) {
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
    pub(super) fn release_all_quant(&mut self) {
        for slot in &mut self.qslots {
            if let Some(q) = slot.take() {
                self.arena_q.give(q);
            }
        }
    }
}

/// A branch's per-feature-map regions plus, optionally, the grid each
/// computed region is snapped to (see
/// [`CompiledGraph::run_float_region_into`]).
type RegionSchedule<'s> = (&'s [Region], Option<&'s [QuantParams]>);

/// Evaluates node `i` within `region` of `out`, dispatching to the shared
/// kernel layer. Reads outside an input map's bounds behave as zero
/// padding; non-spatial ops (`Dense`, `GlobalAvgPool`) compute all of
/// `out`. `tile` is the float conv kernel's scratch. The integer loop's
/// round-trip arm dispatches through here too.
pub(super) fn eval_node(
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use quantmcu_tensor::TensorError;

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
        let a = borrowed.run_float(&mut ExecState::new(), &input).unwrap();
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
            out_bits in prop::sample::select(vec![Bitwidth::W2, Bitwidth::W4, Bitwidth::W8]),
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

    /// A 4×4×2 input and one 1×1 conv 2→2, compiled at `act` (input and
    /// output grid) and `weights`.
    fn compile_at(act: Bitwidth, weights: Bitwidth) -> Result<(), GraphError> {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 2)).conv2d(2, 1, 1, 0).build().unwrap();
        let graph = init::with_structured_weights(spec, 0);
        CompiledGraph::with_quantization(&graph, &[(-3.0, 7.0); 2], &[act; 2], weights).map(|_| ())
    }

    #[test]
    fn accounting_widths_are_a_typed_error() {
        for (act, weights, bits) in [
            (Bitwidth::W16, Bitwidth::W8, 16),
            (Bitwidth::W32, Bitwidth::W8, 32),
            (Bitwidth::W8, Bitwidth::W16, 16),
        ] {
            assert!(
                matches!(
                    compile_at(act, weights),
                    Err(GraphError::Tensor(TensorError::UnsupportedBitwidth(b))) if b == bits
                ),
                "{act} activations, {weights} weights"
            );
        }
        for bits in Bitwidth::SEARCH_CANDIDATES {
            compile_at(bits, bits).unwrap();
        }
    }
}
