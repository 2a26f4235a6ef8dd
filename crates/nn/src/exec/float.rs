use quantmcu_tensor::Tensor;

use crate::error::GraphError;
use crate::exec::{CompiledGraph, ExecState};
use crate::graph::Graph;
use crate::spec::FeatureMapId;

/// Collects per-feature-map activation ranges by streaming the float
/// executor over a calibration set.
///
/// Ranges are accumulated incrementally from
/// [`FloatExecutor::run_with`] — no trace is materialized, so peak memory
/// is one live set of feature maps regardless of calibration-set size.
///
/// Returns one `(min, max)` per feature map (input included), the ranges
/// [`CompiledGraph::with_quantization`] takes.
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

/// Full-precision reference executor: a thin façade bundling a borrowed
/// [`CompiledGraph`] with its own [`ExecState`].
///
/// Feature maps live in the state's arena: each map's buffer is taken
/// when its producer fires and returned once its last consumer has run
/// (the liveness schedule is derived from
/// [`GraphSpec::consumers_of`](crate::GraphSpec::consumers_of) at
/// compilation). After a warm-up inference the steady state performs
/// zero heap allocations — [`FloatExecutor::run_with`] streams each
/// feature map to an observer without materializing a trace, and
/// [`FloatExecutor::run`]'s only steady-state allocation is the returned
/// tensor's buffer.
///
/// To share one compilation across threads, use [`CompiledGraph`] with
/// one [`ExecState`] per worker directly (for example as the per-worker
/// state of a [`ScopedPool`](crate::exec::ScopedPool)); this façade is
/// the single-threaded convenience.
///
/// # Example
///
/// ```
/// use quantmcu_nn::{exec::FloatExecutor, GraphSpecBuilder, init};
/// use quantmcu_tensor::{Shape, Tensor};
///
/// let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 1)).relu6().build()?;
/// let graph = init::with_structured_weights(spec, 0);
/// let out = FloatExecutor::new(&graph).run(&Tensor::full(Shape::hwc(4, 4, 1), 9.0))?;
/// assert!(out.data().iter().all(|&v| v == 6.0));
/// # Ok::<(), quantmcu_nn::GraphError>(())
/// ```
#[derive(Debug)]
pub struct FloatExecutor<'g> {
    compiled: CompiledGraph<&'g Graph>,
    state: ExecState,
}

impl<'g> FloatExecutor<'g> {
    /// Creates an executor over `graph`, compiling the feature-map
    /// liveness schedule.
    ///
    /// # Panics
    ///
    /// Panics when the static analyzer rejects the graph — impossible for
    /// a [`Graph`] built from a validated [`crate::GraphSpec`]. Callers
    /// holding unvalidated graphs should go through
    /// [`CompiledGraph::new`] and handle the error.
    pub fn new(graph: &'g Graph) -> Self {
        let compiled = CompiledGraph::new(graph).expect("validated graphs pass analysis");
        FloatExecutor { compiled, state: ExecState::new() }
    }

    /// Runs the graph, returning the final feature map.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InputShapeMismatch`] when `input` does not
    /// match the spec.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor, GraphError> {
        self.compiled.run_float(&mut self.state, input)
    }

    /// Runs the graph, streaming every feature map to `observer` as it is
    /// produced: index 0 is the input, index `i + 1` the output of node
    /// `i` (matching [`FeatureMapId`] numbering). Each map's buffer is
    /// recycled once its last consumer has fired, so at any instant only
    /// the live maps exist — this is the zero-allocation path calibration
    /// uses to avoid materializing full traces.
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
        self.compiled.run_float_with(&mut self.state, input, observer)
    }

    /// Runs the graph, returning every feature map as an owned trace.
    ///
    /// Prefer [`FloatExecutor::run_with`] when the maps can be consumed
    /// incrementally; this method clones each map and is kept for callers
    /// that genuinely need the whole trace at once.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;
    use crate::graph::OpParams;
    use crate::init;
    use quantmcu_tensor::Shape;

    /// A 1-channel 3x3 identity convolution (center tap 1).
    fn identity_conv_graph() -> Graph {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 1)).conv2d(1, 3, 1, 1).build().unwrap();
        let mut weights = vec![0.0f32; 9];
        weights[4] = 1.0; // center of the 3x3 kernel
        Graph::new(spec, vec![OpParams::Weights { weights, bias: vec![0.0] }])
    }

    #[test]
    fn identity_conv_preserves_input() {
        let g = identity_conv_graph();
        let input = Tensor::from_fn(Shape::hwc(4, 4, 1), |i| i as f32);
        let out = FloatExecutor::new(&g).run(&input).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn conv_sum_kernel_counts_neighbors() {
        let spec = GraphSpecBuilder::new(Shape::hwc(3, 3, 1)).conv2d(1, 3, 1, 1).build().unwrap();
        let g =
            Graph::new(spec, vec![OpParams::Weights { weights: vec![1.0; 9], bias: vec![0.0] }]);
        let input = Tensor::full(Shape::hwc(3, 3, 1), 1.0);
        let out = FloatExecutor::new(&g).run(&input).unwrap();
        // Center position sees all 9 ones; corner sees 4.
        assert_eq!(out.at(0, 1, 1, 0), 9.0);
        assert_eq!(out.at(0, 0, 0, 0), 4.0);
    }

    #[test]
    fn strided_conv_downsamples() {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 1)).conv2d(1, 1, 2, 0).build().unwrap();
        let g = Graph::new(spec, vec![OpParams::Weights { weights: vec![1.0], bias: vec![0.0] }]);
        let input = Tensor::from_fn(Shape::hwc(4, 4, 1), |i| i as f32);
        let out = FloatExecutor::new(&g).run(&input).unwrap();
        assert_eq!(out.shape(), Shape::hwc(2, 2, 1));
        assert_eq!(out.at(0, 0, 0, 0), input.at(0, 0, 0, 0));
        assert_eq!(out.at(0, 1, 1, 0), input.at(0, 2, 2, 0));
    }

    #[test]
    fn depthwise_is_per_channel() {
        let spec = GraphSpecBuilder::new(Shape::hwc(2, 2, 2)).dwconv(1, 1, 0).build().unwrap();
        // Channel 0 scaled by 2, channel 1 by -1.
        let g = Graph::new(
            spec,
            vec![OpParams::Weights { weights: vec![2.0, -1.0], bias: vec![0.0, 0.0] }],
        );
        let input = Tensor::full(Shape::hwc(2, 2, 2), 3.0);
        let out = FloatExecutor::new(&g).run(&input).unwrap();
        assert_eq!(out.at(0, 0, 0, 0), 6.0);
        assert_eq!(out.at(0, 0, 0, 1), -3.0);
    }

    #[test]
    fn pools_and_gap() {
        let spec = GraphSpecBuilder::new(Shape::hwc(2, 2, 1)).max_pool(2, 2).build().unwrap();
        let g = init::with_structured_weights(spec, 0);
        let input = Tensor::from_vec(Shape::hwc(2, 2, 1), vec![1.0, 5.0, -2.0, 3.0]).unwrap();
        let out = FloatExecutor::new(&g).run(&input).unwrap();
        assert_eq!(out.at(0, 0, 0, 0), 5.0);

        let spec = GraphSpecBuilder::new(Shape::hwc(2, 2, 1)).global_avg_pool().build().unwrap();
        let g = init::with_structured_weights(spec, 0);
        let out = FloatExecutor::new(&g).run(&input).unwrap();
        assert!((out.at(0, 0, 0, 0) - 1.75).abs() < 1e-6);
    }

    #[test]
    fn residual_add_doubles_identity_path() {
        let spec = {
            let b = GraphSpecBuilder::new(Shape::hwc(4, 4, 1));
            let entry = b.mark();
            b.conv2d(1, 3, 1, 1).add_from(entry).build().unwrap()
        };
        let mut weights = vec![0.0f32; 9];
        weights[4] = 1.0;
        let g =
            Graph::new(spec, vec![OpParams::Weights { weights, bias: vec![0.0] }, OpParams::None]);
        let input = Tensor::from_fn(Shape::hwc(4, 4, 1), |i| i as f32);
        let out = FloatExecutor::new(&g).run(&input).unwrap();
        assert_eq!(out.at(0, 2, 3, 0), 2.0 * input.at(0, 2, 3, 0));
    }

    #[test]
    fn concat_stacks_channels_in_order() {
        let spec = GraphSpecBuilder::new(Shape::hwc(2, 2, 2)).fire(1, 2, 2).build().unwrap();
        let g = init::with_structured_weights(spec, 1);
        let out = FloatExecutor::new(&g).run(&Tensor::full(Shape::hwc(2, 2, 2), 1.0)).unwrap();
        assert_eq!(out.shape().c, 4);
    }

    #[test]
    fn trace_has_one_entry_per_feature_map() {
        let spec =
            GraphSpecBuilder::new(Shape::hwc(4, 4, 1)).conv2d(2, 3, 1, 1).relu6().build().unwrap();
        let g = init::with_structured_weights(spec, 2);
        let trace = FloatExecutor::new(&g).run_trace(&Tensor::zeros(Shape::hwc(4, 4, 1))).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].shape(), Shape::hwc(4, 4, 1));
        assert_eq!(trace[1].shape(), Shape::hwc(4, 4, 2));
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let g = identity_conv_graph();
        let bad = Tensor::zeros(Shape::hwc(5, 4, 1));
        assert!(matches!(
            FloatExecutor::new(&g).run(&bad),
            Err(GraphError::InputShapeMismatch { .. })
        ));
    }

    #[test]
    fn streaming_observer_sees_each_map_once_in_order() {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(4, 3, 1, 1)
            .relu6()
            .global_avg_pool()
            .dense(5)
            .build()
            .unwrap();
        let g = init::with_structured_weights(spec, 9);
        let mut exec = FloatExecutor::new(&g);
        let mut seen = Vec::new();
        exec.run_with(&Tensor::zeros(Shape::hwc(8, 8, 3)), |fm, t| {
            seen.push((fm.0, t.shape()));
        })
        .unwrap();
        assert_eq!(seen.len(), g.spec().feature_map_count());
        for (i, (fm, shape)) in seen.iter().enumerate() {
            assert_eq!(*fm, i);
            assert_eq!(*shape, g.spec().feature_map_shape(FeatureMapId(i)));
        }
    }

    #[test]
    fn steady_state_runs_reuse_arena_buffers() {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(4, 3, 2, 1)
            .relu6()
            .pwconv(8)
            .global_avg_pool()
            .dense(5)
            .build()
            .unwrap();
        let g = init::with_structured_weights(spec, 4);
        let input = Tensor::from_fn(Shape::hwc(8, 8, 3), |i| (i as f32 * 0.1).sin());
        let mut exec = FloatExecutor::new(&g);
        exec.run_with(&input, |_, _| {}).unwrap();
        let warm = exec.state.fresh_allocations();
        for _ in 0..5 {
            exec.run_with(&input, |_, _| {}).unwrap();
        }
        assert_eq!(exec.state.fresh_allocations(), warm, "steady-state runs must not allocate");
    }

    #[test]
    fn calibration_ranges_cover_observations() {
        let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
            .conv2d(8, 3, 2, 1)
            .relu6()
            .dwconv(3, 1, 1)
            .global_avg_pool()
            .dense(5)
            .build()
            .unwrap();
        let g = init::with_structured_weights(spec, 11);
        let inputs: Vec<Tensor> = (0..3)
            .map(|s| Tensor::from_fn(Shape::hwc(8, 8, 3), |i| (((i + s * 131) as f32) * 0.7).sin()))
            .collect();
        let ranges = calibrate_ranges(&g, &inputs).unwrap();
        let trace = FloatExecutor::new(&g).run_trace(&inputs[1]).unwrap();
        for (fm, t) in trace.iter().enumerate() {
            for &v in t.data() {
                assert!(v >= ranges[fm].0 - 1e-6 && v <= ranges[fm].1 + 1e-6);
            }
        }
    }

    #[test]
    fn streaming_and_trace_agree() {
        let spec = GraphSpecBuilder::new(Shape::hwc(6, 6, 2))
            .conv2d(3, 3, 1, 1)
            .relu()
            .avg_pool(2, 2)
            .build()
            .unwrap();
        let g = init::with_structured_weights(spec, 77);
        let input = Tensor::from_fn(Shape::hwc(6, 6, 2), |i| (i as f32 * 0.3).cos());
        let mut exec = FloatExecutor::new(&g);
        let trace = exec.run_trace(&input).unwrap();
        let mut streamed = Vec::new();
        exec.run_with(&input, |_, t| streamed.push(t.clone())).unwrap();
        assert_eq!(trace, streamed);
    }
}
