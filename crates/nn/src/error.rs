use std::error::Error;
use std::fmt;

use quantmcu_tensor::{Shape, TensorError};

/// Errors produced when building or executing network graphs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node references a node at or after its own position.
    ForwardReference {
        /// The offending node.
        node: usize,
        /// The referenced (invalid) target.
        target: usize,
    },
    /// An operator received the wrong number of inputs.
    ArityMismatch {
        /// Operator name.
        op: &'static str,
        /// Required input count.
        expected: usize,
        /// Provided input count.
        actual: usize,
    },
    /// Two inputs of a join operator have incompatible shapes.
    ShapeConflict {
        /// Operator name.
        op: &'static str,
        /// First shape.
        left: Shape,
        /// Conflicting shape.
        right: Shape,
    },
    /// An operator hyperparameter is invalid for its input.
    InvalidHyperparameter {
        /// Operator name.
        op: &'static str,
        /// Human-readable reason.
        detail: &'static str,
    },
    /// A split point would sever a residual/skip connection.
    SplitCrossesSkip {
        /// The attempted split boundary.
        at: usize,
        /// The node whose edge crosses the boundary.
        node: usize,
    },
    /// An executor was fed a tensor whose shape differs from the spec.
    InputShapeMismatch {
        /// Shape required by the spec.
        expected: Shape,
        /// Shape actually provided.
        actual: Shape,
    },
    /// An executor is missing quantization parameters for a feature map.
    MissingQuantization {
        /// Index of the feature map without parameters.
        feature_map: usize,
    },
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// Static analysis rejected the graph ([`crate::analyze`]).
    Analysis(crate::analyze::Report),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ForwardReference { node, target } => {
                write!(f, "node {node} references non-earlier node {target}")
            }
            GraphError::ArityMismatch { op, expected, actual } => {
                write!(f, "operator {op} expects {expected} inputs, got {actual}")
            }
            GraphError::ShapeConflict { op, left, right } => {
                write!(f, "operator {op} received incompatible shapes {left} and {right}")
            }
            GraphError::InvalidHyperparameter { op, detail } => {
                write!(f, "operator {op}: {detail}")
            }
            GraphError::SplitCrossesSkip { at, node } => {
                write!(f, "split at {at} severs a skip edge used by node {node}")
            }
            GraphError::InputShapeMismatch { expected, actual } => {
                write!(f, "graph expects input shape {expected}, got {actual}")
            }
            GraphError::MissingQuantization { feature_map } => {
                write!(f, "no quantization parameters for feature map {feature_map}")
            }
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
            GraphError::Analysis(report) => {
                write!(f, "static analysis failed: {} error(s)", report.errors().count())?;
                if let Some(first) = report.errors().next() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            GraphError::Analysis(report) => Some(report),
            _ => None,
        }
    }
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::ArityMismatch { op: "add", expected: 2, actual: 1 };
        assert_eq!(e.to_string(), "operator add expects 2 inputs, got 1");
        let e = GraphError::Tensor(TensorError::EmptyTensor);
        assert!(e.to_string().contains("tensor error"));
    }

    #[test]
    fn source_chains_tensor_errors() {
        use std::error::Error as _;
        let e = GraphError::from(TensorError::EmptyTensor);
        assert!(e.source().is_some());
        assert!(GraphError::SplitCrossesSkip { at: 1, node: 2 }.source().is_none());
    }
}
