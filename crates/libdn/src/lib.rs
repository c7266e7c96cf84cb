//! # fireaxe-libdn — latency-insensitive bounded dataflow networks
//!
//! The host-decoupling layer of FireAxe-rs (paper §II). FPGA-accelerated
//! simulators cannot run target RTL against host-speed peripherals without
//! distorting time; LI-BDNs solve this by gating the target's clock on
//! token availability:
//!
//! * [`ChannelSpec`] — aggregation of target ports into token streams;
//! * [`LiBdn`] — the wrapper (queues + output-channel FSMs + fireFSM)
//!   around any [`TargetModel`];
//! * [`InterpreterTarget`] / [`BehavioralTarget`] — RTL-interpreted and
//!   coarse-behavioral target models;
//! * [`Fame5Group`] — FAME-5 multi-threading of duplicate modules.
//!
//! The key property, tested here and relied on by everything above: the
//! target-visible cycle sequence is independent of host-side token timing
//! (see `host_decoupling_is_timing_independent` in the tests).

#![warn(missing_docs)]

pub mod channel;
pub mod error;
pub mod fame5;
#[allow(clippy::module_inception)]
pub mod libdn;
pub mod target;

pub use channel::ChannelSpec;
pub use error::{LibdnError, Result};
pub use fame5::Fame5Group;
pub use libdn::{LiBdn, LiBdnSpec, OutputChannelSpec, DEFAULT_CHANNEL_CAPACITY};
pub use target::{BehavioralTarget, CycleModel, InterpreterTarget, TargetModel};
