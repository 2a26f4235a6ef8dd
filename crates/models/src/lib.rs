//! Model zoo for the QuantMCU reproduction.
//!
//! Every network the paper evaluates is available as a [`GraphSpec`]
//! builder parameterized by a [`ModelConfig`] (input resolution, width
//! multiplier, class count):
//!
//! * the inverted-residual family — [`mobilenet_v2`], [`mcunet`],
//!   [`mnasnet`], [`fbnet_a`], [`ofa_cpu`] — used by Fig. 1b and Table I;
//! * the classic CNNs of Fig. 4 — [`squeezenet`], [`resnet18`], [`vgg16`],
//!   [`inception_v3`];
//! * an SSD-style detection head ([`detection_head`]) for the Pascal-VOC
//!   experiments.
//!
//! [`Model`] enumerates the zoo and provides the paper-scale,
//! MCU-scale (Table I) and execution-scale (laptop-runnable) configurations
//! of [`ModelConfig`].
//!
//! Inception-V3 is reproduced *structurally* (stem + concat-join inception
//! blocks + classifier) rather than layer-for-layer; the paper uses it only
//! as an accuracy workload, and the reproduction needs its dataflow shape,
//! not its exact 48-layer inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classic;
mod config;
mod detection;
mod ir;
mod zoo;

pub use classic::{inception_v3, resnet18, squeezenet, vgg16};
pub use config::ModelConfig;
pub use detection::{check_output_shape, detection_head, DetectionSpec};
pub use ir::{fbnet_a, mcunet, mnasnet, mobilenet_v2, ofa_cpu, IrBlock};
pub use zoo::Model;

pub use quantmcu_nn::GraphSpec;
