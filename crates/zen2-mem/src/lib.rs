//! Memory-subsystem performance model for Zen 2 "Rome".
//!
//! Rome routes every DRAM access through the I/O die: core → CCX L3 → CCD
//! Infinity Fabric link (GMI) → I/O-die switch → unified memory controller
//! → DDR4 channel. Three clock domains are involved (Section V-D of the
//! paper):
//!
//! * **FCLK** — the Infinity Fabric / I/O-die clock, selected by the BIOS
//!   "I/O die P-state" or by the `auto` hardware control loop,
//! * **UCLK** — the memory-controller clock,
//! * **MEMCLK** — the DRAM clock (1467 MHz for DDR4-2933, 1600 MHz for
//!   DDR4-3200 on the paper's system).
//!
//! The paper's central observation is that *matching* these domains matters
//! more than raising any one of them: the `auto` setting (FCLK coupled to
//! MEMCLK) beats the pinned fastest P-state for latency, and a higher DRAM
//! clock does not help because it forces asynchronous domain crossings.
//! [`fclk::ClockPlan`] captures the mechanism: each crossing is cheap when
//! the two clocks are synchronous or form a small integer ratio (the
//! crossing scheduler can run a fixed pattern) and expensive otherwise.
//!
//! The crate also models the CCX-local L3 whose clock follows the fastest
//! core in the complex ([`latency::L3LatencyModel`], Fig. 4), DRAM load
//! latency ([`latency::DramLatencyModel`], Fig. 5b), and STREAM-style
//! bandwidth saturation ([`bandwidth::StreamBandwidthModel`], Fig. 5a).

pub mod bandwidth;
pub mod fclk;
pub mod latency;

#[cfg(test)]
mod proptests;

pub use bandwidth::StreamBandwidthModel;
pub use fclk::{ClockPlan, CrossingQuality, DramFreq, IodPstate};
pub use latency::{DramLatencyModel, L3LatencyModel};
