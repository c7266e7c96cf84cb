//! Observability hooks: what a run samples and what it hands back.
//!
//! Both backends share the per-node sampling point — the tail of
//! `NodeRt::ingest_and_step` — so metric samples and
//! VCD changes are taken at identical target-cycle boundaries no matter
//! how host execution is scheduled. Host-dependent columns (host
//! cycles, stalls, host time) legitimately differ between backends;
//! the deterministic columns (`cycle`, `state_digest`) and the VCD
//! change set must be identical, which is what the parity tests check.

use fireaxe_ir::Bits;
use fireaxe_libdn::TargetModel;
use fireaxe_obs::{Fnv1a, MetricsSeries, NodeSample};

/// What to observe during a run (see `SimBuilder::observe`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSpec {
    /// Target cycles between metric samples; `0` disables sampling.
    pub sample_interval: u64,
    /// Capture watched signals for VCD waveform export.
    pub vcd: bool,
    /// Signals to watch when `vcd` is on: `"node:path"` pins a signal to
    /// one node; a bare `path` watches it on every node that exposes it.
    /// Empty watches every node's output ports.
    pub signals: Vec<String>,
}

impl ObsSpec {
    /// Whether this spec asks for any observation at all.
    pub fn is_active(&self) -> bool {
        self.sample_interval > 0 || self.vcd
    }
}

/// Everything a run observed, assembled by
/// `DistributedSim::obs_report`: the sampled metric time series and,
/// when VCD capture was requested, the rendered waveform document.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Per-node and per-link metric time series.
    pub metrics: MetricsSeries,
    /// Rendered VCD document (`None` unless `ObsSpec::vcd` was set).
    pub vcd: Option<String>,
}

/// Per-node observation state, embedded in the node runtime so both
/// backends sample through the same code path.
#[derive(Debug, Default)]
pub(crate) struct NodeObs {
    /// Target cycles between samples; 0 = no metric sampling.
    pub(crate) sample_interval: u64,
    /// Next target cycle to sample at.
    pub(crate) next_sample: u64,
    /// Watched VCD signals: `(global signal index, path)`.
    pub(crate) watched: Vec<(u32, String)>,
    /// Collected metric samples, in cycle order.
    pub(crate) samples: Vec<NodeSample>,
    /// Collected VCD changes: `(target cycle, signal index, value)`.
    pub(crate) changes: Vec<(u64, u32, Bits)>,
    /// Virtual time of the edge being serviced (DES sets this before
    /// each service; the threaded backend leaves it 0).
    pub(crate) now_ps: u64,
    /// Last target cycle already observed (VCD captures once per cycle).
    pub(crate) last_seen_cycle: u64,
    /// Fast-path gate: true iff sampling or VCD capture is on.
    pub(crate) active: bool,
}

impl NodeObs {
    /// Observation state for a node under `spec`, with its resolved
    /// watch list.
    pub(crate) fn new(sample_interval: u64, watched: Vec<(u32, String)>) -> Self {
        NodeObs {
            sample_interval,
            next_sample: sample_interval,
            active: sample_interval > 0 || !watched.is_empty(),
            watched,
            ..NodeObs::default()
        }
    }
}

/// FNV-1a digest of a target model's output-port values: deterministic
/// target state, identical across backends at the same target cycle.
pub(crate) fn state_digest(model: &dyn TargetModel) -> u64 {
    let mut h = Fnv1a::default();
    for (name, width) in model.output_ports() {
        h.write_u64(u64::from(width.get()));
        for w in model.peek(&name).as_words() {
            h.write_u64(*w);
        }
    }
    h.finish()
}
