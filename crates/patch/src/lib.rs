//! Patch-based inference engine for the QuantMCU reproduction.
//!
//! Patch-based inference (Fig. 1a of the paper) splits the input of the
//! network's first stage spatially; each *dataflow branch* computes one
//! patch of the stage's output from the (halo-expanded) input region that
//! influences it, then the remaining layers run layer-by-layer on the
//! stitched result. The per-branch working set is a fraction of the full
//! feature maps, which slashes peak SRAM — at the cost of recomputing the
//! halo overlap, the redundant computation QuantMCU attacks.
//!
//! The crate provides:
//!
//! * [`PatchPlan`] — split point + patch grid, with validity checks;
//! * [`Branch`] — the per-layer regions of one dataflow branch, derived by
//!   receptive-field back-propagation;
//! * [`PatchExecutor`] — runs a plan's per-patch stage numerically: the
//!   head is compiled once into a `quantmcu_nn::exec::CompiledGraph`, and
//!   each branch runs it with its region schedule through the same float
//!   loop a full-graph run uses (optionally snapping every computed
//!   region to a per-feature-map grid, which is how mixed-precision
//!   branches are evaluated). The stitched stage output is bit-identical
//!   to full execution. The executor is immutable and `Send + Sync`; all
//!   per-inference scratch lives in a caller-owned [`PatchState`], so one
//!   executor serves many threads;
//! * [`redundancy`] — the overlap accounting behind Fig. 1b;
//! * [`memory`] — the per-branch peak-SRAM model behind Table I;
//! * [`baselines`] — layer-based inference, MCUNetV2, Cipolletta et al.'s
//!   restructuring search and RNNPool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod branch;
mod engine;
mod error;
pub mod memory;
mod plan;
pub mod redundancy;

pub use branch::Branch;
pub use engine::{PatchExecutor, PatchOutput, PatchState};
pub use error::PatchError;
pub use plan::{grid_regions, largest_straight_prefix, PatchPlan};
