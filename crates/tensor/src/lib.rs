//! Tensor substrate for the QuantMCU reproduction.
//!
//! This crate provides the numeric foundation used by every other crate in
//! the workspace:
//!
//! * [`Shape`] / [`Region`] — NHWC shapes and spatial crops (patches).
//! * [`Tensor`] — a dense `f32` NHWC tensor.
//! * [`Arena`] — a best-fit pool of reusable feature-map buffers, the
//!   allocation-free substrate of the executors in `quantmcu_nn`.
//! * [`Bitwidth`] — the quantization bitwidths supported by the paper
//!   (8/4/2-bit activations, plus 16/32 for accounting).
//! * [`QuantParams`] — affine quantization parameters (per tensor, or
//!   per channel via [`ChannelQuantParams`]).
//! * [`pack`] — CMix-NN-style sub-byte packing (two 4-bit or four 2-bit
//!   values per byte).
//! * [`stats`] — histograms, empirical entropy, Gaussian fitting and the
//!   probit function used by value-driven patch classification.
//!
//! # Example
//!
//! ```
//! use quantmcu_tensor::{Bitwidth, QuantParams, Shape, Tensor};
//!
//! let t = Tensor::from_fn(Shape::new(1, 2, 2, 1), |i| i as f32 - 1.5);
//! let params = QuantParams::from_tensor(&t, Bitwidth::W8);
//! let back = params.dequantize(params.quantize(t.data()[0]));
//! assert!((back - t.data()[0]).abs() < params.scale());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bitwidth;
mod error;
pub mod pack;
mod quantize;
mod shape;
pub mod stats;
mod tensor;

pub use arena::Arena;
pub use bitwidth::Bitwidth;
pub use error::TensorError;
pub use quantize::{ChannelQuantParams, QuantParams};
pub use shape::{Region, Shape};
pub use tensor::Tensor;
