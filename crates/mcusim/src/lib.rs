//! MCU cost simulator for the QuantMCU reproduction.
//!
//! The paper measures on two physical boards; this crate substitutes an
//! analytic device model:
//!
//! * [`Device`] — core, clock, SRAM and flash of the two evaluation
//!   platforms (Arduino Nano 33 BLE Sense, STM32H743);
//! * [`cycles`] — a per-layer cycle model of the CMSIS-NN / CMix-NN kernel
//!   stack with bitwidth-dependent throughput;
//! * [`LatencyModel`] — whole-network latency under layer-based or
//!   patch-based schedules;
//! * [`sram`] — fit checks against the device's SRAM/flash.
//!
//! Absolute milliseconds depend on a per-device fitted constant (flash
//! wait states, DMA and framework overheads are not modeled); every
//! *relative* claim — patch overhead percentages, QuantMCU's speedup —
//! comes from the structural model alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycles;
mod device;
mod latency;
pub mod sram;

pub use device::{Core, Device};
pub use latency::LatencyModel;
