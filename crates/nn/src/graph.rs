use quantmcu_tensor::Shape;

use crate::spec::{GraphSpec, OpSpec};

/// Materialized parameters for one node.
///
/// Convolution weights use OHWI layout (`[out_ch][kh][kw][in_ch]`), the
/// layout TFLite and CMSIS-NN use on Cortex-M; depthwise weights are
/// `[kh][kw][ch]`; dense weights are `[out][in]`. Nodes without weights use
/// [`OpParams::None`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpParams {
    /// The node carries no parameters.
    None,
    /// Convolution / depthwise / dense weights plus per-output bias.
    Weights {
        /// Flattened weight buffer in the node's canonical layout.
        weights: Vec<f32>,
        /// One bias per output channel / feature.
        bias: Vec<f32>,
    },
}

impl OpParams {
    /// The weight buffer, empty for parameterless nodes.
    pub fn weights(&self) -> &[f32] {
        match self {
            OpParams::None => &[],
            OpParams::Weights { weights, .. } => weights,
        }
    }

    /// The bias buffer, empty for parameterless nodes.
    pub fn bias(&self) -> &[f32] {
        match self {
            OpParams::None => &[],
            OpParams::Weights { bias, .. } => bias,
        }
    }
}

/// An executable network: a [`GraphSpec`] plus per-node parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    spec: GraphSpec,
    params: Vec<OpParams>,
}

impl Graph {
    /// Pairs a spec with parameters.
    ///
    /// # Panics
    ///
    /// Panics when `params.len()` differs from the node count, or when a
    /// parameterized node's buffers have the wrong length for its spec.
    pub fn new(spec: GraphSpec, params: Vec<OpParams>) -> Self {
        assert_eq!(params.len(), spec.len(), "one OpParams entry per node required");
        for (i, p) in params.iter().enumerate() {
            let (expect_w, expect_b) = expected_param_lens(&spec, i);
            match p {
                OpParams::None => {
                    assert_eq!(expect_w, 0, "node {i} ({}) requires weights", spec.nodes()[i].op)
                }
                OpParams::Weights { weights, bias } => {
                    assert_eq!(weights.len(), expect_w, "node {i} weight length");
                    assert_eq!(bias.len(), expect_b, "node {i} bias length");
                }
            }
        }
        Graph { spec, params }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }

    /// Parameters of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn params(&self, i: usize) -> &OpParams {
        &self.params[i]
    }
}

/// Weight and bias buffer lengths required by node `i` of `spec`.
pub(crate) fn expected_param_lens(spec: &GraphSpec, i: usize) -> (usize, usize) {
    let in_shape: Shape = spec.input_shapes_of(i)[0];
    match spec.nodes()[i].op {
        OpSpec::Conv2d { out_ch, kernel, .. } => (out_ch * kernel * kernel * in_shape.c, out_ch),
        OpSpec::DepthwiseConv2d { kernel, .. } => (kernel * kernel * in_shape.c, in_shape.c),
        OpSpec::Dense { out } => (out * in_shape.per_sample(), out),
        _ => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphSpecBuilder;
    use quantmcu_tensor::Shape;

    #[test]
    fn param_lengths_checked() {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 3)).conv2d(2, 3, 1, 1).build().unwrap();
        let (w, b) = expected_param_lens(&spec, 0);
        assert_eq!(w, 2 * 3 * 3 * 3);
        assert_eq!(b, 2);
        let g =
            Graph::new(spec, vec![OpParams::Weights { weights: vec![0.0; w], bias: vec![0.0; b] }]);
        assert_eq!(g.params(0).weights().len(), w);
    }

    #[test]
    #[should_panic(expected = "requires weights")]
    fn missing_weights_panics() {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 3)).conv2d(2, 3, 1, 1).build().unwrap();
        Graph::new(spec, vec![OpParams::None]);
    }

    #[test]
    fn dense_param_lengths() {
        let spec = GraphSpecBuilder::new(Shape::hwc(2, 2, 3)).dense(5).build().unwrap();
        assert_eq!(expected_param_lens(&spec, 0), (5 * 12, 5));
    }

    #[test]
    fn depthwise_param_lengths() {
        let spec = GraphSpecBuilder::new(Shape::hwc(4, 4, 6)).dwconv(3, 1, 1).build().unwrap();
        assert_eq!(expected_param_lens(&spec, 0), (3 * 3 * 6, 6));
    }
}
