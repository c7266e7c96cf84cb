//! # fireaxe-sim — the multi-FPGA simulation runtime
//!
//! Takes the artifacts FireRipper emits and runs them: every partition
//! thread becomes an LI-BDN node on a simulated FPGA host with its own
//! bitstream clock; tokens cross calibrated transport links; environment
//! I/O is served by [`Bridge`]s. Because the engine is a deterministic
//! discrete-event simulation over virtual time, the *measured* simulation
//! rates (target-MHz) reproduce the paper's performance sweeps, and
//! exact-mode runs are bit-identical to monolithic interpretation.
//!
//! * [`SimBuilder`]/[`DistributedSim`] — build and run; the one surface
//!   every backend and the net worker drive, numbering nodes by their
//!   flat index in the cut also on a build of some of its partitions
//!   ([`PartitionCut`]);
//! * [`BehaviorRegistry`] — binds coarse behavioral models to extern
//!   modules inside partitions;
//! * [`bridge`] — environment token sources/sinks;
//! * [`batch`] — batch-of-seeds execution over the bit-sliced engine:
//!   up to 64 scenario variants per tape pass;
//! * [`perf`] — the closed-form rate preview FireRipper reports;
//! * [`placement()`] — the one rule that packs partitions onto workers.

#![warn(missing_docs)]

pub mod batch;
pub mod bridge;
pub mod control;
pub mod engine;
pub mod error;
pub mod netapi;
pub mod obs;
pub mod perf;
pub mod placement;
pub mod threaded;

pub use batch::{BatchLaneResult, BatchReport, BatchRun, BatchScenario, InputSink};
pub use bridge::{Bridge, ConstBridge, RecordedToken, ScriptBridge};
pub use engine::{
    Backend, BehaviorRegistry, DistributedSim, LinkCounters, NodeCounters, SimBuilder,
    SimCheckpoint, SimMetrics, DEFAULT_CLOCK_MHZ, DEFAULT_DEADLOCK_HORIZON, DEFAULT_MAX_ROLLBACKS,
};
pub use error::{NodeStall, Result, SimError, StallReport};
pub use netapi::PartitionCut;
pub use obs::{ObsReport, ObsSpec};
pub use perf::estimate_target_mhz;
pub use placement::{available_cores, placement, pool_size};
