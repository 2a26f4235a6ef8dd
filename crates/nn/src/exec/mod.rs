//! Graph executors, split compile-once / execute-many.
//!
//! [`CompiledGraph`] is the immutable, `Send + Sync` half of an executor:
//! the graph (borrowed or owned via `Borrow<Graph>`), the feature-map
//! liveness schedule, and — when compiled with quantization — per-channel
//! *packed* quantized weights (CMix-NN word layout, kept packed
//! end-to-end) and requantization tables. [`ExecState`] is the
//! cheap per-worker half: the scratch arenas and feature-map slots one
//! in-flight inference needs. One compiled graph plus N states executes
//! on N threads at once, through one of the two parallel primitives in
//! the [`pool`] module: [`ScopedPool`] (workers inside a
//! [`std::thread::scope`], many ordered maps over borrowed data,
//! deterministic input-ordered results) carries the planner's fan-outs
//! and `quantmcu::Deployment::run_batch`, and [`WorkerPool`] (long-lived
//! workers, bounded micro-batching queue) keeps serving runtimes warm
//! across calls.
//!
//! The float loop also runs one dataflow branch of a patch-based stage:
//! [`CompiledGraph::run_float_region_into`] gives it a region schedule,
//! so each node computes only the region the branch needs (optionally
//! snapped to a per-feature-map grid). Full-graph and branch runs share
//! one loop and one kernel dispatch.
//!
//! All execution dispatches into the shared op-kernel layer in
//! [`crate::kernels`] — one cache-blocked, register-tiled loop nest per
//! operator — and holds feature maps in state-owned
//! [`Arena`](quantmcu_tensor::Arena)s, recycling each buffer once the
//! map's last consumer has fired. The streaming `run_*_with` paths perform
//! zero steady-state heap allocations; plain `run_*` adds exactly one —
//! the returned tensor's buffer.
//!
//! The integer path models the CMSIS-NN / CMix-NN kernel stack, and
//! [`CompiledGraph::with_quantization`] is its only entry: `i8` activation
//! storage at a per-feature-map [`Bitwidth`](quantmcu_tensor::Bitwidth) of
//! at most 8 bits (wider grids and weights are a typed error),
//! per-channel weights held in packed W2/W4/W8 words and decoded a panel
//! of output channels at a time as they are consumed, pixel rows as
//! zero-point-corrected `i16` lanes a block at a time (a 1×1 conv's or a
//! dense layer's rows copied from the input map, other convs' receptive
//! rows gathered), `i32` accumulation, fixed-point (multiplier and shift)
//! requantization between layers, and exact lookup tables for
//! `Relu`/`Relu6`/`MaxPool`.
//! Mixed-precision deployment plans are evaluated by giving each feature
//! map its own bitwidth; [`calibrate_ranges`] supplies the ranges.
//!
//! [`FloatExecutor`] is the full-precision reference for single-threaded
//! callers: a borrowed compilation bundled with its own state. Besides
//! plain inference it can stream every intermediate feature map to an
//! observer ([`FloatExecutor::run_with`]), which is what calibration,
//! entropy estimation and value-driven patch classification consume
//! without materializing full traces.

mod compile;
mod float;
pub mod pool;
mod quantized;

pub use compile::{CompiledGraph, ExecState};
pub use float::{calibrate_ranges, FloatExecutor};
pub use pool::{PoolError, PoolJob, ScopedJob, ScopedPool, WorkerPool};
