use quantmcu_tensor::{Bitwidth, QuantParams, Tensor};

use crate::error::GraphError;
use crate::exec::{CompiledGraph, ExecState, FloatExecutor};
use crate::graph::Graph;
use crate::spec::FeatureMapId;

/// Collects per-feature-map activation ranges by streaming the float
/// executor over a calibration set.
///
/// Ranges are accumulated incrementally from
/// [`FloatExecutor::run_with`] — no trace is materialized, so peak memory
/// is one live set of feature maps regardless of calibration-set size.
///
/// Returns one `(min, max)` per feature map (input included), the inputs
/// to [`QuantExecutor::new`].
///
/// # Errors
///
/// Propagates executor errors; an empty calibration set yields unit ranges.
pub fn calibrate_ranges(graph: &Graph, inputs: &[Tensor]) -> Result<Vec<(f32, f32)>, GraphError> {
    let fm_count = graph.spec().feature_map_count();
    let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); fm_count];
    let mut exec = FloatExecutor::new(graph);
    for input in inputs {
        exec.run_with(input, |fm, t| {
            let r = &mut ranges[fm.0];
            for &v in t.data() {
                r.0 = r.0.min(v);
                r.1 = r.1.max(v);
            }
        })?;
    }
    for r in &mut ranges {
        if !r.0.is_finite() || !r.1.is_finite() {
            *r = (0.0, 1.0);
        }
    }
    Ok(ranges)
}

/// Integer executor modeling the CMSIS-NN / CMix-NN deployment stack: a
/// thin façade bundling a quantization-compiled [`CompiledGraph`] with
/// its own [`ExecState`].
///
/// Weighted operators (convolutions, dense) run in true integer
/// arithmetic through the same cache-blocked, register-tiled kernels as
/// the float executor ([`crate::kernels`]), instantiated with the packed
/// integer strategy ([`crate::kernels::PackedDot`]): weights stay in
/// their packed W2/W4/W8 words, the input zero-point correction is
/// folded into the accumulator seed where exact (per-element otherwise),
/// and the finished `i64` accumulator is rescaled to the output feature
/// map's grid. Value-preserving operators
/// (activations, pooling, add, concat) are evaluated through
/// dequantize→kernel→requantize, which is numerically equivalent to their
/// fixed-point forms and keeps the kernel inventory small.
///
/// Feature maps live in the state's arenas and are recycled per the
/// graph's liveness schedule, so steady-state runs perform no heap
/// allocations beyond the returned tensor.
///
/// Each feature map carries its own [`Bitwidth`], so a mixed-precision
/// plan from the VDQS search is evaluated by passing its bitwidth vector
/// here. To share one quantized compilation across threads, use
/// [`CompiledGraph::with_quantization`] with one [`ExecState`] per worker
/// (for example as the per-worker state of a
/// [`ScopedPool`](crate::exec::ScopedPool)).
#[derive(Debug)]
pub struct QuantExecutor<'g> {
    compiled: CompiledGraph<&'g Graph>,
    state: ExecState,
}

impl<'g> QuantExecutor<'g> {
    /// Prepares an executor from calibration ranges and a per-feature-map
    /// activation bitwidth assignment.
    ///
    /// `weight_bits` applies to all weighted nodes (the paper deploys 8-bit
    /// weights; Table II baselines use 4-bit).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingQuantization`] when `ranges` or
    /// `act_bits` do not have one entry per feature map.
    pub fn new(
        graph: &'g Graph,
        ranges: &[(f32, f32)],
        act_bits: &[Bitwidth],
        weight_bits: Bitwidth,
    ) -> Result<Self, GraphError> {
        let compiled = CompiledGraph::with_quantization(graph, ranges, act_bits, weight_bits)?;
        let state = ExecState::for_graph(&compiled);
        Ok(QuantExecutor { compiled, state })
    }

    /// Wraps an already-compiled quantized graph with a fresh execution
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingQuantization`] when `compiled` was
    /// built without quantization tables.
    pub fn from_compiled(compiled: CompiledGraph<&'g Graph>) -> Result<Self, GraphError> {
        if !compiled.is_quantized() {
            return Err(GraphError::MissingQuantization { feature_map: 0 });
        }
        let state = ExecState::for_graph(&compiled);
        Ok(QuantExecutor { compiled, state })
    }

    /// The underlying compilation (shareable across threads).
    pub fn compiled(&self) -> &CompiledGraph<&'g Graph> {
        &self.compiled
    }

    /// Activation parameters of feature map `fm`.
    ///
    /// # Panics
    ///
    /// Panics when `fm` is out of range.
    pub fn activation_params(&self, fm: usize) -> QuantParams {
        self.compiled.activation_params(fm)
    }

    /// Runs the graph, returning the dequantized final feature map.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] when `input` does not
    /// match the spec.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor, GraphError> {
        self.compiled.run_quant(&mut self.state, input)
    }

    /// Runs the graph, streaming every feature map to `observer`
    /// dequantized to `f32` (index 0 is the quantize-dequantized input).
    /// Quantized buffers are recycled once their last consumer has fired.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] when `input` does not
    /// match the spec.
    pub fn run_with(
        &mut self,
        input: &Tensor,
        observer: impl FnMut(FeatureMapId, &Tensor),
    ) -> Result<(), GraphError> {
        self.compiled.run_quant_with(&mut self.state, input, observer)
    }

    /// Runs the graph, returning every feature map dequantized to `f32`
    /// (index 0 is the quantize-dequantized input).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] when `input` does not
    /// match the spec.
    pub fn run_trace(&mut self, input: &Tensor) -> Result<Vec<Tensor>, GraphError> {
        let mut trace = Vec::with_capacity(self.compiled.spec().feature_map_count());
        self.run_with(input, |_, t| trace.push(t.clone()))?;
        Ok(trace)
    }

    /// Warm-up allocation count of the executor's arenas (stable once
    /// every feature-map shape has been seen; see
    /// [`ExecState::fresh_allocations`]).
    pub fn arena_allocations(&self) -> usize {
        self.state.fresh_allocations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;
    use crate::init;
    use quantmcu_tensor::Shape;

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

    #[test]
    fn int8_tracks_float_closely() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 4);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let mut qe =
            QuantExecutor::new(&g, &ranges, &uniform_bits(&g, Bitwidth::W8), Bitwidth::W8).unwrap();
        let mut fe = FloatExecutor::new(&g);
        let f_out = fe.run(&inputs[0]).unwrap();
        let q_out = qe.run(&inputs[0]).unwrap();
        let denom = f_out.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        let rel = f_out.mean_abs_diff(&q_out) / denom;
        assert!(rel < 0.1, "int8 relative error too large: {rel}");
    }

    #[test]
    fn lower_bits_increase_error_monotonically() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 4);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let mut fe = FloatExecutor::new(&g);
        let f_out = fe.run(&inputs[0]).unwrap();
        let mut errs = Vec::new();
        for b in [Bitwidth::W8, Bitwidth::W4, Bitwidth::W2] {
            let mut qe =
                QuantExecutor::new(&g, &ranges, &uniform_bits(&g, b), Bitwidth::W8).unwrap();
            errs.push(f_out.mean_abs_diff(&qe.run(&inputs[0]).unwrap()));
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
        let mut qe = QuantExecutor::new(&g, &ranges, &bits, Bitwidth::W8).unwrap();
        let out = qe.run(&inputs[0]).unwrap();
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_wrong_metadata_lengths() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 1);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let short = &ranges[..2];
        assert!(matches!(
            QuantExecutor::new(&g, short, &uniform_bits(&g, Bitwidth::W8), Bitwidth::W8),
            Err(GraphError::MissingQuantization { .. })
        ));
    }

    #[test]
    fn trace_lengths_match_feature_maps() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 2);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let mut qe =
            QuantExecutor::new(&g, &ranges, &uniform_bits(&g, Bitwidth::W8), Bitwidth::W8).unwrap();
        let trace = qe.run_trace(&inputs[0]).unwrap();
        assert_eq!(trace.len(), g.spec().feature_map_count());
    }

    #[test]
    fn calibration_ranges_cover_observations() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 3);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let trace = FloatExecutor::new(&g).run_trace(&inputs[1]).unwrap();
        for (fm, t) in trace.iter().enumerate() {
            for &v in t.data() {
                assert!(v >= ranges[fm].0 - 1e-6 && v <= ranges[fm].1 + 1e-6);
            }
        }
    }

    #[test]
    fn quantized_steady_state_reuses_arena_buffers() {
        let g = small_graph();
        let inputs = calib_inputs(g.spec().input_shape(), 2);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let mut qe =
            QuantExecutor::new(&g, &ranges, &uniform_bits(&g, Bitwidth::W8), Bitwidth::W8).unwrap();
        qe.run_with(&inputs[0], |_, _| {}).unwrap();
        let warm = qe.arena_allocations();
        for _ in 0..5 {
            qe.run_with(&inputs[1], |_, _| {}).unwrap();
        }
        assert_eq!(qe.arena_allocations(), warm);
    }

    #[test]
    fn from_compiled_requires_quantization_tables() {
        let g = small_graph();
        assert!(QuantExecutor::from_compiled(
            CompiledGraph::new(&g).expect("validated graphs pass analysis")
        )
        .is_err());
        let inputs = calib_inputs(g.spec().input_shape(), 2);
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let compiled = CompiledGraph::with_quantization(
            &g,
            &ranges,
            &uniform_bits(&g, Bitwidth::W8),
            Bitwidth::W8,
        )
        .unwrap();
        let mut qe = QuantExecutor::from_compiled(compiled).unwrap();
        assert!(qe.run(&inputs[0]).is_ok());
    }
}
