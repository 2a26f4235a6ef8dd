use std::error::Error;
use std::fmt;

use quantmcu_nn::GraphError;

/// Errors produced by the patch-based inference engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PatchError {
    /// The requested split point is not a straight-chain prefix boundary.
    NotSplittable {
        /// The requested split point.
        at: usize,
    },
    /// The patch grid does not fit the stage output (more patches than
    /// spatial positions).
    GridTooFine {
        /// Requested grid rows.
        rows: usize,
        /// Requested grid columns.
        cols: usize,
        /// Stage output height.
        out_h: usize,
        /// Stage output width.
        out_w: usize,
    },
    /// The plan was made for a different graph: it tiles a stage output
    /// of another size than the graph's head produces.
    PlanMismatch {
        /// `(height, width)` of the stage output the plan tiles.
        planned: (usize, usize),
        /// `(height, width)` of the stage output the graph's head produces.
        actual: (usize, usize),
    },
    /// A per-branch bitwidth vector has the wrong length.
    BitwidthLength {
        /// Feature maps in the branch (head length + 1).
        expected: usize,
        /// Entries provided.
        actual: usize,
    },
    /// An underlying graph operation failed.
    Graph(GraphError),
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotSplittable { at } => {
                write!(f, "graph is not splittable at node boundary {at}")
            }
            PatchError::GridTooFine { rows, cols, out_h, out_w } => {
                write!(f, "{rows}x{cols} patch grid exceeds the {out_h}x{out_w} stage output")
            }
            PatchError::PlanMismatch { planned: (ph, pw), actual: (h, w) } => write!(
                f,
                "plan tiles a {ph}x{pw} stage output but the graph's head produces {h}x{w}"
            ),
            PatchError::BitwidthLength { expected, actual } => {
                write!(f, "branch bitwidth vector needs {expected} entries, got {actual}")
            }
            PatchError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for PatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PatchError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PatchError {
    fn from(e: GraphError) -> Self {
        PatchError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(PatchError::NotSplittable { at: 3 }.to_string().contains("3"));
        let e = PatchError::GridTooFine { rows: 9, cols: 9, out_h: 4, out_w: 4 };
        assert!(e.to_string().contains("9x9"));
        let e = PatchError::PlanMismatch { planned: (8, 8), actual: (16, 16) };
        assert!(e.to_string().contains("8x8") && e.to_string().contains("16x16"));
    }
}
