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
//! All execution dispatches into the shared op-kernel layer in
//! [`crate::kernels`] — one cache-blocked, register-tiled loop nest per
//! operator, generic over an element/accumulator strategy — and holds
//! feature maps in
//! state-owned [`Arena`](quantmcu_tensor::Arena)s, recycling each buffer
//! once the map's last consumer has fired. The streaming `run_*_with`
//! paths perform zero steady-state heap allocations; plain `run_*` adds
//! exactly one — the returned tensor's buffer.
//!
//! Single-threaded callers use the façades, each bundling a borrowed
//! compilation with its own state:
//!
//! * [`FloatExecutor`] — the full-precision reference. Besides plain
//!   inference it can stream every intermediate feature map to an
//!   observer ([`FloatExecutor::run_with`]), which is what calibration,
//!   entropy estimation and value-driven patch classification consume
//!   without materializing full traces.
//! * [`QuantExecutor`] — an integer executor modeling the CMSIS-NN /
//!   CMix-NN kernel stack: integer activation storage at a
//!   per-feature-map [`Bitwidth`](quantmcu_tensor::Bitwidth), per-channel
//!   weights held in packed W2/W4/W8 words and consumed directly by the
//!   packed dot-product kernels (no unpacking pass), `i32` register
//!   lanes widened into an `i64` accumulator with the zero-point term
//!   folded into its seed where exact, and requantization between
//!   layers.
//!   Mixed-precision deployment plans are evaluated by giving each
//!   feature map its own bitwidth.

mod compile;
mod float;
pub mod pool;
mod quantized;

pub use compile::{CompiledGraph, ExecState, NodeQuantState, QuantState};
pub use float::FloatExecutor;
pub use pool::{PoolError, PoolJob, ScopedJob, ScopedPool, WorkerPool};
pub use quantized::{calibrate_ranges, QuantExecutor};
