//! # fireaxe-obs — observability for FireAxe-rs
//!
//! The measurement layer the rest of the stack is profiled with:
//!
//! * [`trace`] — a lock-free per-thread ring-buffer event tracer with
//!   zero-cost-when-disabled [`obs_span!`]/[`obs_counter!`]/
//!   [`obs_instant!`] macros, and [`trace::SpanSeq`] for back-to-back
//!   spans (one per cycle) at one clock read each. When tracing is off
//!   they compile to a single relaxed atomic load; when on, events land
//!   in a pre-allocated thread-local ring without locks or heap
//!   allocation on the hot path.
//! * [`metrics`] — time-resolved metric series: per-node FMR, token
//!   traffic, stall attribution, settle-loop statistics and per-link
//!   reliability activity, sampled every N target cycles, exportable as
//!   JSON or CSV.
//! * [`chrome`] — Chrome `trace_event` JSON export of recorded trace
//!   events, loadable in Perfetto / `chrome://tracing`.
//! * [`vcd`] — a VCD waveform dumper over model time, fed from
//!   `Interpreter::signal_paths`/`peek` via the simulation engine.
//! * [`delta`] — the streaming half of the waveform pipeline: an
//!   incremental delta-VCD encoder plus the client-side reassembler
//!   whose output is byte-identical to a batch [`vcd`] dump, used by
//!   the live-cockpit control plane.
//!
//! Events carry both a host-time stamp (nanoseconds since the tracer
//! epoch) and a virtual-time stamp (picoseconds, 0 when the recording
//! backend has no virtual clock), so traces from the DES and threaded
//! backends are directly comparable.

#![warn(missing_docs)]

pub mod chrome;
pub mod delta;
pub mod metrics;
pub mod trace;
pub mod vcd;

pub use chrome::{to_chrome_json, to_chrome_json_merged, OwnedTraceEvent};
pub use delta::{
    metric_delta_json, signal_table_json, wave_delta_json, DeltaVcdEncoder, DeltaVcdReassembler,
    WaveChange,
};
pub use metrics::{
    Fnv1a, LinkSample, LinkSeries, MetricsSeries, NodeSample, NodeSeries, RecoveryEvent,
};
pub use trace::{EventKind, SpanGuard, SpanSeq, TraceEvent};
pub use vcd::{VcdSignal, VcdWriter};
