//! Neural-network substrate for the QuantMCU reproduction.
//!
//! The crate separates a network's *specification* from its *parameters*:
//!
//! * [`GraphSpec`] — a DAG of shape-level operator specs ([`OpSpec`]). All
//!   analytic machinery (shape inference, MAC/BitOPs/parameter counting,
//!   receptive-field algebra, peak-memory estimation) runs on specs alone,
//!   so paper-scale networks (224×224 VGG-16 included) can be analyzed
//!   without allocating their weights.
//! * [`Graph`] — a spec plus materialized `f32` weights, compiled once by
//!   [`exec::CompiledGraph`] for the float loop, or, through
//!   [`exec::CompiledGraph::with_quantization`], for the integer loop that
//!   mimics the CMSIS-NN / CMix-NN kernel stack (i8 storage, i32
//!   accumulate, requantize, sub-byte activations).
//!
//! Feature maps — the unit the paper quantizes — are identified by
//! [`FeatureMapId`]: id 0 is the graph input, id `i + 1` the output of node
//! `i`. The mixed-precision plan produced by VDQS is simply a bitwidth per
//! feature map, consumed by both the cost model ([`cost`]) and the
//! quantized executor.
//!
//! Before anything is compiled or planned, the [`analyze`] module runs a
//! multi-pass static analyzer (structure, shape inference, accumulator
//! overflow, SRAM feasibility) over the graph IR ([`opt::ModelIr`]) and
//! reports typed diagnostics. A [`GraphSpec`] is valid by construction
//! ([`GraphSpec::new`] checks arity, order and shapes), so compiling one
//! needs no second check; the integer path re-proves only the
//! accumulator bounds (`Q001`) at its actual bitwidths
//! ([`exec::CompiledGraph::with_quantization`]).
//!
//! Models also enter from *outside* the process: the [`import`] module
//! defines the versioned `.qmcu` serialized model format
//! ([`import::save_model`] / [`import::load_model`], typed
//! [`import::ImportError`]s), and the [`opt`] module runs a fixed-point
//! graph-optimizer pass pipeline (bias/activation fusion, constant
//! folding, identity removal, dead-node elimination) over every imported
//! model before it is lowered and compiled. The [`codec`] module holds
//! the binary framing, reader/writer and operator table that `.qmcu`
//! shares with the `.qplan` plan artifacts of the `quantmcu` crate.
//!
//! # Example
//!
//! ```
//! use quantmcu_nn::{exec::FloatExecutor, GraphSpecBuilder};
//! use quantmcu_tensor::{Shape, Tensor};
//!
//! let spec = GraphSpecBuilder::new(Shape::hwc(8, 8, 3))
//!     .conv2d(4, 3, 1, 1)
//!     .relu6()
//!     .global_avg_pool()
//!     .dense(10)
//!     .build()?;
//! let graph = quantmcu_nn::init::with_structured_weights(spec, 42);
//! let out = FloatExecutor::new(&graph).run(&Tensor::zeros(Shape::hwc(8, 8, 3)))?;
//! assert_eq!(out.shape().c, 10);
//! # Ok::<(), quantmcu_nn::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod builder;
pub mod codec;
pub mod cost;
mod error;
pub mod exec;
mod graph;
pub mod import;
pub mod init;
pub mod kernels;
pub mod opt;
pub mod receptive;
mod spec;

pub use builder::GraphSpecBuilder;
pub use error::GraphError;
pub use graph::{Graph, OpParams};
pub use spec::{FeatureMapId, GraphSpec, NodeSpec, OpSpec, Source};
