use std::fmt;

use quantmcu_nn::GraphError;
use quantmcu_patch::PatchError;
use quantmcu_quant::QuantError;

use crate::serve::ServeError;

/// The one error type the serving surface ([`crate::Engine`],
/// [`crate::Session`], [`crate::Deployment`]) returns, so downstream `?`
/// composes across planning, deployment and inference.
///
/// Each variant wraps the subsystem error it came from and exposes it
/// through [`std::error::Error::source`], so error-reporting crates can
/// walk the full chain down to the leaf (`GraphError`, `TensorError`,
/// `QuantError`, …). The enum is `#[non_exhaustive]`: future subsystems
/// can add variants without a breaking release, so downstream matches
/// need a wildcard arm.
///
/// # Example
///
/// ```
/// use quantmcu::{Engine, Error, PlanError};
/// use quantmcu::nn::{init, GraphSpecBuilder};
/// use quantmcu::tensor::Shape;
///
/// let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3)).conv2d(4, 3, 2, 1).build()?;
/// let engine = Engine::builder(init::with_structured_weights(spec, 0)).build();
/// let err = engine.plan(Vec::new()).unwrap_err();
/// assert!(matches!(err, Error::Plan(PlanError::NoCalibration)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Planning failed: calibration, patch fit, or the VDPC/VDQS search.
    Plan(PlanError),
    /// Graph construction or (tail) execution failed.
    Graph(GraphError),
    /// The patch engine rejected a plan or an input.
    Patch(PatchError),
    /// The serving runtime ([`crate::Server`]) rejected or lost a
    /// request (full queue, shutdown in progress).
    Serve(ServeError),
    /// The static analyzer rejected the graph before planning started;
    /// the [`Report`](quantmcu_nn::analyze::Report) lists every
    /// diagnostic (see [`crate::analyze`]).
    Analysis(quantmcu_nn::analyze::Report),
    /// A serialized model could not be imported (damaged file, unknown
    /// opcode, version mismatch, analyzer rejection — see
    /// [`quantmcu_nn::import`]).
    Import(quantmcu_nn::import::ImportError),
    /// A serialized `.qplan` plan artifact could not be saved or loaded
    /// (damaged file, wrong model fingerprint, invalid plan — see
    /// [`crate::artifact`]).
    Artifact(crate::artifact::ArtifactError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Plan(e) => write!(f, "planning failed: {e}"),
            Error::Graph(e) => write!(f, "graph execution failed: {e}"),
            Error::Patch(e) => write!(f, "patch execution failed: {e}"),
            Error::Serve(e) => write!(f, "serving failed: {e}"),
            Error::Analysis(report) => {
                write!(f, "static analysis failed: {} error(s)", report.errors().count())?;
                if let Some(first) = report.errors().next() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            Error::Import(e) => write!(f, "model import failed: {e}"),
            Error::Artifact(e) => write!(f, "plan artifact failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Plan(e) => Some(e),
            Error::Graph(e) => Some(e),
            Error::Patch(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Analysis(report) => Some(report),
            Error::Import(e) => Some(e),
            Error::Artifact(e) => Some(e),
        }
    }
}

impl From<quantmcu_nn::import::ImportError> for Error {
    fn from(e: quantmcu_nn::import::ImportError) -> Self {
        Error::Import(e)
    }
}

impl From<crate::artifact::ArtifactError> for Error {
    fn from(e: crate::artifact::ArtifactError) -> Self {
        Error::Artifact(e)
    }
}

impl From<PlanError> for Error {
    fn from(e: PlanError) -> Self {
        Error::Plan(e)
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<PatchError> for Error {
    fn from(e: PatchError) -> Self {
        Error::Patch(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<QuantError> for Error {
    fn from(e: QuantError) -> Self {
        Error::Plan(PlanError::Quant(e))
    }
}

impl From<quantmcu_tensor::TensorError> for Error {
    fn from(e: quantmcu_tensor::TensorError) -> Self {
        Error::Graph(GraphError::Tensor(e))
    }
}

/// Errors produced while planning or running a QuantMCU deployment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The patch engine rejected the plan (unsplittable graph, bad grid).
    Patch(PatchError),
    /// The quantization search failed (infeasible memory, bad stats).
    Quant(QuantError),
    /// Graph construction or execution failed.
    Graph(GraphError),
    /// The calibration set is empty.
    NoCalibration,
    /// A calibration image holds `±∞` in the input feature map (the one
    /// map whose distribution VDPC fits unclipped), which then has no
    /// finite mean or spread. (NaN values are skipped, not rejected.)
    NonFiniteCalibration {
        /// Index of the first such image in the calibration set.
        image: usize,
    },
    /// A plan was deployed on a graph other than the one it was made for.
    GraphMismatch,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Patch(e) => write!(f, "patch planning failed: {e}"),
            PlanError::Quant(e) => write!(f, "quantization search failed: {e}"),
            PlanError::Graph(e) => write!(f, "graph error: {e}"),
            PlanError::NoCalibration => write!(f, "calibration set is empty"),
            PlanError::NonFiniteCalibration { image } => {
                write!(f, "calibration image {image} holds an infinite value in the input map")
            }
            PlanError::GraphMismatch => write!(f, "plan was made for a different graph"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Patch(e) => Some(e),
            PlanError::Quant(e) => Some(e),
            PlanError::Graph(e) => Some(e),
            PlanError::NoCalibration
            | PlanError::NonFiniteCalibration { .. }
            | PlanError::GraphMismatch => None,
        }
    }
}

impl From<PatchError> for PlanError {
    fn from(e: PatchError) -> Self {
        PlanError::Patch(e)
    }
}

impl From<QuantError> for PlanError {
    fn from(e: QuantError) -> Self {
        PlanError::Quant(e)
    }
}

impl From<GraphError> for PlanError {
    fn from(e: GraphError) -> Self {
        PlanError::Graph(e)
    }
}

impl From<quantmcu_tensor::TensorError> for PlanError {
    fn from(e: quantmcu_tensor::TensorError) -> Self {
        PlanError::Graph(GraphError::Tensor(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn sources_chain() {
        let e = PlanError::from(PatchError::NotSplittable { at: 2 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("patch planning failed"));
        assert!(PlanError::NoCalibration.source().is_none());
    }

    #[test]
    fn unified_error_chains_to_the_leaf() {
        // Error -> PlanError -> PatchError: three Display levels, two
        // source hops.
        let e = Error::from(PlanError::from(PatchError::NotSplittable { at: 2 }));
        assert!(e.to_string().contains("planning failed"));
        let plan = e.source().expect("PlanError source");
        assert!(plan.to_string().contains("patch planning failed"));
        let patch = plan.source().expect("PatchError source");
        assert!(patch.to_string().contains("not splittable") || !patch.to_string().is_empty());
        // A PatchError from execution maps to its own variant, not Plan.
        let e = Error::from(PatchError::BitwidthLength { expected: 4, actual: 1 });
        assert!(matches!(e, Error::Patch(_)));
        // Graph and tensor errors unify under Graph.
        let e = Error::from(quantmcu_tensor::TensorError::ShapeMismatch { expected: 4, actual: 2 });
        assert!(matches!(e, Error::Graph(GraphError::Tensor(_))));
    }
}
