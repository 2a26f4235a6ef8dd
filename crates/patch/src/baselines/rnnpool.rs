//! RNNPool (Saha et al., NeurIPS 2020): replacing the memory-dominant early
//! stage with an aggressive pooling operator.
//!
//! RNNPool sweeps a recurrent cell over each pooling window to downsample
//! 4× in one operator, so the large early feature maps never materialize.
//! The substrate has no recurrent cells; the reproduction models the
//! operator as a *pooling pyramid* — stacked 2×2 max/avg pools achieving
//! the same 4× spatial reduction with comparable (tiny) compute — which
//! preserves exactly the properties Table I measures: the big early maps
//! disappear (lowest early-stage memory of the non-quantized baselines),
//! MACs stay close to layer-based, and accuracy suffers from the lossy
//! aggregation (observable through the agreement metrics since the variant
//! graph is executable).
//!
//! Following the published usage, the pool replaces the stage after the
//! first convolution block; the rest of the network is unchanged.

use quantmcu_nn::{cost, GraphError, GraphSpec, NodeSpec, OpSpec, Source};
use quantmcu_tensor::Bitwidth;

use super::ScheduleCost;

/// The RNNPool-transformed model plus its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnPoolSchedule {
    /// The transformed, executable spec.
    pub spec: GraphSpec,
    /// Cost summary (uniform 8-bit, layer-based execution of the transformed
    /// graph — RNNPool removes the need for patching).
    pub cost: ScheduleCost,
}

/// Applies the RNNPool transform to `spec`: the straight-chain prefix after
/// the first weighted layer is replaced by a 4× pooling pyramid, and the
/// remainder of the network is rebuilt on the pooled shape.
///
/// The transform requires the pooled shape to be spatially compatible with
/// the original stage output; when the original stage downsampled by a
/// factor other than 4, the pyramid is adjusted (2× per pool stage) to
/// match, so the tail attaches unchanged.
///
/// # Errors
///
/// Returns [`GraphError`] when the prefix's downsampling cannot be matched
/// by a pyramid of 2× pools (e.g. an odd downsampling factor).
pub fn schedule(spec: &GraphSpec) -> Result<RnnPoolSchedule, GraphError> {
    // The published operator replaces the early stage down to a 4×
    // (fallback 2×) spatial reduction; pick the deepest boundary with that
    // exact power-of-two downsampling.
    let in_shape = spec.input_shape();
    let deepest = crate::plan::largest_straight_prefix(spec);
    let mut split = 0;
    for factor in [4usize, 2] {
        if in_shape.h % factor != 0 {
            continue;
        }
        let target = in_shape.h / factor;
        if let Some(at) = (1..=deepest).rev().find(|&at| {
            spec.splittable_at(at)
                && spec.node_shape(at - 1).h == target
                && spec.node_shape(at - 1).w == in_shape.w / factor
        }) {
            split = at;
            break;
        }
    }
    if split == 0 {
        return Err(GraphError::InvalidHyperparameter {
            op: "rnnpool",
            detail: "graph has no power-of-two-downsampling prefix to replace",
        });
    }
    let (head, _tail) = spec.split_at(split)?;
    let stage_out = head.output_shape();
    // The pyramid must reproduce the stage's spatial reduction and channels.
    if in_shape.h % stage_out.h != 0 || in_shape.w % stage_out.w != 0 {
        return Err(GraphError::InvalidHyperparameter {
            op: "rnnpool",
            detail: "stage downsampling is not an integer factor",
        });
    }
    let factor_h = in_shape.h / stage_out.h;
    if !factor_h.is_power_of_two() || factor_h != in_shape.w / stage_out.w {
        return Err(GraphError::InvalidHyperparameter {
            op: "rnnpool",
            detail: "stage downsampling must be a square power of two",
        });
    }

    // New prefix: one 1x1 conv to reach the stage's channel count at full
    // resolution is exactly the memory hog RNNPool avoids — instead pool
    // first, then project channels at the reduced resolution.
    let mut nodes: Vec<NodeSpec> = Vec::new();
    let mut src = Source::Input;
    let mut factor = factor_h;
    while factor > 1 {
        // Alternate max/avg, mimicking RNNPool's two aggregation passes.
        let op = if factor % 4 == 0 {
            OpSpec::MaxPool { kernel: 2, stride: 2 }
        } else {
            OpSpec::AvgPool { kernel: 2, stride: 2 }
        };
        nodes.push(NodeSpec { op, inputs: vec![src] });
        src = Source::Node(nodes.len() - 1);
        factor /= 2;
    }
    nodes.push(NodeSpec {
        op: OpSpec::Conv2d { out_ch: stage_out.c, kernel: 1, stride: 1, pad: 0 },
        inputs: vec![src],
    });
    let prefix_len = nodes.len();

    // Re-attach the tail, shifting node references.
    for (off, node) in spec.nodes()[split..].iter().enumerate() {
        let idx = split + off;
        let inputs = node
            .inputs
            .iter()
            .map(|s| match s.feature_map().node() {
                Some(n) if n + 1 > split => Source::Node(n - split + prefix_len),
                Some(n) if n + 1 == split => Source::Node(prefix_len - 1),
                _ => {
                    // Validated by splittable_at: tail reads only the boundary.
                    debug_assert!(false, "tail node {idx} reads inside the head");
                    Source::Node(prefix_len - 1)
                }
            })
            .collect();
        nodes.push(NodeSpec { op: node.op, inputs });
    }
    let new_spec = GraphSpec::new(in_shape, nodes)?;
    let macs = cost::total_macs(&new_spec);
    let assignment = cost::BitwidthAssignment::uniform(&new_spec, Bitwidth::W8);
    Ok(RnnPoolSchedule {
        cost: ScheduleCost {
            peak_memory_bytes: cost::peak_activation_bytes(&new_spec, &assignment),
            macs,
            bitops: ScheduleCost::uniform_bitops(macs, Bitwidth::W8, Bitwidth::W8),
        },
        spec: new_spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::layer_based;
    use quantmcu_nn::GraphSpecBuilder;
    use quantmcu_tensor::Shape;

    fn spec() -> GraphSpec {
        GraphSpecBuilder::new(Shape::hwc(32, 32, 3))
            .conv2d(16, 3, 2, 1) // 16x16
            .relu6()
            .conv2d(16, 3, 2, 1) // 8x8 → stage downsamples 4x
            .relu6()
            .conv2d(32, 3, 2, 1)
            .global_avg_pool()
            .dense(10)
            .build()
            .unwrap()
    }

    #[test]
    fn transform_preserves_output_shape() {
        let s = spec();
        let r = schedule(&s).unwrap();
        assert_eq!(r.spec.output_shape(), s.output_shape());
    }

    #[test]
    fn pooling_cuts_macs_and_memory_of_the_stage() {
        let s = spec();
        let r = schedule(&s).unwrap();
        let layer = layer_based::cost(&s);
        assert!(r.cost.macs < layer.macs, "{} vs {}", r.cost.macs, layer.macs);
        assert!(r.cost.peak_memory_bytes <= layer.peak_memory_bytes);
    }

    #[test]
    fn transformed_graph_is_executable() {
        use quantmcu_nn::{exec::FloatExecutor, init};
        use quantmcu_tensor::Tensor;
        let r = schedule(&spec()).unwrap();
        let g = init::with_structured_weights(r.spec.clone(), 9);
        let out = FloatExecutor::new(&g)
            .run(&Tensor::from_fn(Shape::hwc(32, 32, 3), |i| (i as f32 * 0.01).sin()))
            .unwrap();
        assert_eq!(out.shape().c, 10);
    }

    #[test]
    fn rejects_graphs_without_prefix() {
        let s =
            GraphSpecBuilder::new(Shape::hwc(8, 8, 3)).global_avg_pool().dense(4).build().unwrap();
        assert!(schedule(&s).is_err());
    }
}
