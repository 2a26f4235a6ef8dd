//! Synthetic datasets and evaluation metrics for the QuantMCU
//! reproduction.
//!
//! ImageNet and Pascal VOC are not available offline, so the experiments
//! run on deterministic synthetic stand-ins:
//!
//! * [`classification`] — class-conditioned texture images (the ImageNet
//!   proxy). Each class has a distinctive oriented-sinusoid prototype; a
//!   fraction of images carry bright specular blobs, giving the
//!   heavy-tailed activation statistics VDPC exploits.
//! * [`detection`] — shape scenes with ground-truth boxes (the VOC proxy),
//!   plus SSD-grid decoding and non-maximum suppression.
//! * [`metrics`] — Top-1/Top-5, IoU / AP / mAP, and float-vs-quantized
//!   agreement.
//! * [`accuracy`] — the projection model that anchors measured agreement
//!   to the paper's absolute accuracy scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod classification;
pub mod detection;
pub mod metrics;
