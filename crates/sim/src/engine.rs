//! The distributed multi-FPGA simulation engine.
//!
//! Each partition thread emitted by FireRipper becomes a *node*: an
//! [`LiBdn`]-wrapped target running on a simulated FPGA with its own host
//! clock. Tokens move between nodes over transport links with calibrated
//! latency and per-beat serialization; environment channels are served by
//! [`Bridge`]s at every host edge. The engine is a deterministic
//! discrete-event simulation in virtual picoseconds, so measured target
//! rates (target cycles per virtual second) are reproducible and follow
//! directly from the transport/clock models.
//!
//! FAME-5 partitions (paper §VI-B) are honored by servicing exactly one
//! member thread per host edge, round-robin — N host cycles per target
//! cycle, which is what lets the inter-FPGA latency amortize across
//! threads.
//!
//! Two execution [`Backend`]s drive the same node runtime. The
//! discrete-event backend above is the golden model: single-threaded,
//! virtual-time, fully deterministic. [`Backend::Threads`] instead runs
//! each partition thread on its own OS thread (see [`crate::threaded`]),
//! exchanging tokens over channels with no virtual clock. The LI-BDN
//! protocol guarantees the target-visible cycle sequence is independent
//! of host-side token timing, so both backends produce bit-identical
//! target state for the same cycle budget.

use crate::bridge::{Bridge, ConstBridge};
use crate::error::{NodeStall, Result, SimError, StallReport};
use crate::netapi::PartitionCut;
use crate::obs::{state_digest, NodeObs, ObsReport, ObsSpec};
use fireaxe_ir::{Bits, Dec, Interpreter, Wire};
use fireaxe_libdn::{InterpreterTarget, LiBdn, TargetModel};
use fireaxe_obs::vcd::{VcdSignal, VcdWriter};
use fireaxe_obs::{obs_counter, obs_instant, obs_span};
use fireaxe_obs::{LinkSample, LinkSeries, MetricsSeries, NodeSample, NodeSeries};
use fireaxe_ripper::{LinkSpec, PartitionArtifact, PartitionedDesign};
use fireaxe_transport::fault::{Fault, FaultEvent, FaultPlan, FaultSpec};
use fireaxe_transport::reliable::{des_delivery, RetryPolicy, FRAME_HEADER_BITS};
use fireaxe_transport::{mhz_to_period_ps, LinkModel};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Most recent fault events retained for stall forensics.
const FAULT_LOG_WINDOW: usize = 64;

/// Format tag of [`DistributedSim::snapshot_partition_bytes`] blobs
/// (`FXP2`), bumped on any layout change.
const PARTITION_BLOB_MAGIC: &[u8; 4] = b"FXP2";

/// Factory producing a behavior from `(full key, instance path)`.
type BehaviorFactory = Box<dyn Fn(&str, &str) -> Box<dyn fireaxe_ir::ExternBehavior> + Send + Sync>;
/// Fallback factory that may decline a key.
type BehaviorFallback =
    Box<dyn Fn(&str, &str) -> Option<Box<dyn fireaxe_ir::ExternBehavior>> + Send + Sync>;

/// Factory table binding extern behavior keys to model constructors.
///
/// When a partition circuit contains extern behavioral modules, the
/// builder elaborates the circuit, asks the interpreter which behavior
/// keys it needs, and constructs one model per instance path.
pub struct BehaviorRegistry {
    /// Factories keyed by the behavior *name* (the part of the key before
    /// `?`); each factory receives the full key and the instance path.
    factories: BTreeMap<String, BehaviorFactory>,
    /// Tried in order when no named factory matches; may decline.
    fallbacks: Vec<BehaviorFallback>,
}

impl std::fmt::Debug for BehaviorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BehaviorRegistry")
            .field("names", &self.factories.keys().collect::<Vec<_>>())
            .field("fallbacks", &self.fallbacks.len())
            .finish()
    }
}

impl Default for BehaviorRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl BehaviorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BehaviorRegistry {
            factories: BTreeMap::new(),
            fallbacks: Vec::new(),
        }
    }

    /// Registers a factory for behavior keys whose name (the part before
    /// `?`) equals `name`; the factory receives the full key and the
    /// instance path.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&str, &str) -> Box<dyn fireaxe_ir::ExternBehavior> + Send + Sync + 'static,
    ) -> &mut Self {
        self.factories.insert(name.into(), Box::new(factory));
        self
    }

    /// Adds a fallback factory tried (in registration order) when no
    /// named factory matches; it may return `None` to decline.
    pub fn register_fallback(
        &mut self,
        factory: impl Fn(&str, &str) -> Option<Box<dyn fireaxe_ir::ExternBehavior>>
            + Send
            + Sync
            + 'static,
    ) -> &mut Self {
        self.fallbacks.push(Box::new(factory));
        self
    }

    fn make(&self, key: &str, path: &str) -> Option<Box<dyn fireaxe_ir::ExternBehavior>> {
        let name = key.split('?').next().unwrap_or(key);
        if let Some(f) = self.factories.get(name) {
            return Some(f(key, path));
        }
        self.fallbacks.iter().find_map(|f| f(key, path))
    }

    fn bind_all(&self, node: &str, interp: &mut Interpreter) -> Result<()> {
        for (path, key, bound) in interp.extern_instances() {
            if bound {
                continue;
            }
            let model = self
                .make(&key, &path)
                .ok_or_else(|| SimError::MissingBehavior {
                    node: node.to_string(),
                    path: path.clone(),
                    key: key.clone(),
                })?;
            interp.bind_behavior(&path, model).map_err(SimError::Ir)?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Delivery {
    at_ps: u64,
    seq: u64,
    link: usize,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for min-heap behavior in BinaryHeap.
        (other.at_ps, other.seq).cmp(&(self.at_ps, self.seq))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

pub(crate) struct NodeRt {
    pub(crate) name: String,
    pub(crate) libdn: LiBdn,
    pub(crate) partition: usize,
    /// The simulated FPGA's transmitter: one token serialized at a time
    /// regardless of how many links fan out of the node (limited SERDES /
    /// QSFP cages). This is what degrades rates as more FPGAs join a ring
    /// (paper Fig. 13).
    tx_busy_until_ps: u64,
    pub(crate) env_inputs: Vec<usize>,
    pub(crate) env_outputs: Vec<usize>,
    pub(crate) bridge: Box<dyn Bridge>,
    pub(crate) out_links: Vec<usize>,
    /// Tokens that arrived but couldn't enter a full input queue yet.
    pub(crate) staged: Vec<VecDeque<Bits>>,
    pub(crate) env_produced: u64,
    pub(crate) env_consumed: Vec<u64>,
    last_advance_ps: u64,
    pub(crate) counters: NodeCounters,
    /// Per-input-channel tokens accepted into the LI-BDN queues —
    /// the consumption side of the token-conservation invariant (see
    /// [`DistributedSim::verify_token_conservation`]).
    pub(crate) chan_enqueued: Vec<u64>,
    /// Observation state (metric sampling + VCD capture).
    pub(crate) obs: NodeObs,
    /// DES only: virtual time before which this node provably cannot
    /// progress, so its host edges are charged without servicing it (see
    /// [`DistributedSim::step_one_edge`]); 0 services it normally.
    /// Derived from the event queue, never checkpointed, and cleared by
    /// [`DistributedSim::wake_all`] on every external mutation.
    wake_ps: u64,
}

impl NodeRt {
    /// Backend-independent front half of servicing a node: move staged
    /// link tokens into the LI-BDN input queues, top up environment
    /// input channels from the bridge, and run one host cycle of LI-BDN
    /// work. Returns `true` on any progress.
    ///
    /// `budget` is the target-cycle stop line of the current run: a node
    /// at the budget takes no further host cycles and the bridge is
    /// never asked to produce stimulus for cycles past it, so both
    /// backends consume *exactly* the same bridge cycles and halt every
    /// node at the identical target cycle.
    pub(crate) fn ingest_and_step(&mut self, budget: Option<u64>) -> Result<bool> {
        let mut progressed = false;

        // 1. Move staged link tokens into the LI-BDN queues.
        for chan in 0..self.staged.len() {
            while !self.staged[chan].is_empty() && self.libdn.can_accept(chan) {
                let tok = self.staged[chan].pop_front().expect("nonempty");
                self.libdn.push_input(chan, tok)?;
                self.counters.tokens_enqueued += 1;
                self.chan_enqueued[chan] += 1;
                progressed = true;
            }
        }

        // 2. Top up environment input channels (one token per target
        //    cycle, produced in cycle order, never past the budget).
        for ei in 0..self.env_inputs.len() {
            let chan = self.env_inputs[ei];
            while self.libdn.can_accept(chan) && budget.is_none_or(|b| self.env_produced < b) {
                let cycle = self.env_produced;
                let values = self.bridge.produce(cycle);
                let token = self.libdn.spec().inputs[chan].pack(&values);
                self.libdn.push_input(chan, token)?;
                self.counters.tokens_enqueued += 1;
                self.chan_enqueued[chan] += 1;
                self.env_produced += 1;
            }
        }

        // 3. One host cycle of LI-BDN work, unless this node already hit
        //    the budget (its outputs for every budgeted cycle have
        //    necessarily fired, so peers cannot be waiting on it).
        if budget.is_none_or(|b| self.libdn.target_cycle() < b) {
            let starved = self.libdn.waiting_on_input();
            let before = self.libdn.target_cycle();
            let stepped = self.libdn.host_step()?;
            if self.libdn.target_cycle() == before && starved {
                self.counters.input_stall_host_cycles += 1;
            } else if self.libdn.target_cycle() == before && stepped {
                // A host cycle was consumed with inputs available but no
                // target progress: output backpressure / fireFSM wait.
                self.counters.output_stall_host_cycles += 1;
            }
            progressed |= stepped;
        }
        if self.obs.active {
            self.observe();
        }
        Ok(progressed)
    }

    /// What [`NodeRt::ingest_and_step`] does on a host edge on which the
    /// node cannot progress — the queues are as the last service left
    /// them, nothing is staged that fits, nothing can fire — without
    /// looking: one host cycle, attributed to input starvation when an
    /// input channel is empty, under the same budget rule.
    fn charge_idle_edge(&mut self, budget: Option<u64>) {
        if budget.is_none_or(|b| self.libdn.target_cycle() < b) {
            if self.libdn.waiting_on_input() {
                self.counters.input_stall_host_cycles += 1;
            }
            self.libdn.idle_host_step();
        }
    }

    /// Shared observation point: called after every host step on both
    /// backends, captures watched VCD signals once per completed target
    /// cycle and a metric sample every `sample_interval` cycles. The
    /// target advances at most one cycle per host step, so every cycle
    /// is seen exactly once and interval crossings land exactly.
    fn observe(&mut self) {
        let tc = self.libdn.target_cycle();
        if tc <= self.obs.last_seen_cycle {
            return;
        }
        self.obs.last_seen_cycle = tc;
        if !self.obs.watched.is_empty() {
            let model = self.libdn.model();
            for (sig, path) in &self.obs.watched {
                if let Some(v) = model.peek_path(path) {
                    self.obs.changes.push((tc, *sig, v));
                }
            }
        }
        if self.obs.sample_interval > 0 && tc >= self.obs.next_sample {
            let model = self.libdn.model();
            let stats = model.exec_stats().unwrap_or_default();
            let queued = (self.libdn.inputs_queued()
                + self.staged.iter().map(VecDeque::len).sum::<usize>())
                as u64;
            let sample = NodeSample {
                cycle: tc,
                host_ns: fireaxe_obs::trace::host_ns(),
                time_ps: self.obs.now_ps,
                host_cycles: self.libdn.host_cycles(),
                tokens_enqueued: self.counters.tokens_enqueued,
                tokens_dequeued: self.counters.tokens_dequeued,
                input_stall_host_cycles: self.counters.input_stall_host_cycles,
                output_stall_host_cycles: self.counters.output_stall_host_cycles,
                queue_occupancy: queued,
                settle_passes: stats.settle_passes,
                defs_run: stats.defs_run,
                defs_skipped: stats.defs_skipped,
                state_digest: state_digest(model),
            };
            obs_counter!("node.fmr", self.obs.now_ps, sample.fmr());
            obs_counter!("node.queue_occupancy", self.obs.now_ps, queued);
            self.obs.samples.push(sample);
            self.obs.next_sample = tc + self.obs.sample_interval;
        }
    }

    /// Drains environment output channels into the bridge
    /// (backend-independent tail of servicing). Returns `true` on any
    /// progress.
    pub(crate) fn drain_env_outputs(&mut self) -> bool {
        let mut progressed = false;
        for eo in 0..self.env_outputs.len() {
            let chan = self.env_outputs[eo];
            while let Some(token) = self.libdn.pop_output(chan) {
                let spec = &self.libdn.spec().outputs[chan].channel;
                let values = spec.unpack(&token);
                let cycle = self.env_consumed[eo];
                self.env_consumed[eo] += 1;
                self.counters.tokens_dequeued += 1;
                self.bridge.consume(cycle, &spec.name, &values);
                progressed = true;
            }
        }
        progressed
    }

    /// Writes this node's rewindable state: name, LI-BDN blob (target
    /// registers and memories, extern model state, queues, fireFSMs),
    /// staged tokens, environment channel counts, per-channel enqueue
    /// counts, clocks and counters. This and [`NodeRt::take_state`] are
    /// the one place that layout is written; an in-process checkpoint
    /// and a portable partition blob both hold exactly these bytes.
    fn put_state(&self, b: &mut Vec<u8>) -> Result<()> {
        let model = self
            .libdn
            .snapshot_bytes()
            .ok_or_else(|| SimError::SnapshotUnsupported {
                node: self.name.clone(),
            })?;
        self.name.put(b);
        model.put(b);
        self.staged.put(b);
        self.env_produced.put(b);
        self.env_consumed.put(b);
        self.chan_enqueued.put(b);
        self.tx_busy_until_ps.put(b);
        self.last_advance_ps.put(b);
        let c = &self.counters;
        for v in [
            c.tokens_enqueued,
            c.tokens_dequeued,
            c.input_stall_host_cycles,
            c.output_stall_host_cycles,
            c.host_cycles,
            c.target_cycles,
        ] {
            v.put(b);
        }
        Ok(())
    }

    /// Reads what [`NodeRt::put_state`] wrote, cross-checking the node's
    /// name and channel shapes, and tells the bridge to forget output
    /// tokens that will be consumed again. An error names the part that
    /// did not fit; parts before it have already been restored.
    fn take_state(&mut self, d: &mut Dec<'_>) -> std::result::Result<(), &'static str> {
        fn shaped<T: Wire>(
            d: &mut Dec<'_>,
            len: usize,
            what: &'static str,
        ) -> std::result::Result<Vec<T>, &'static str> {
            d.get::<Vec<T>>()
                .ok()
                .filter(|v| v.len() == len)
                .ok_or(what)
        }
        if d.bytes().ok() != Some(self.name.as_bytes()) {
            return Err("node name mismatch");
        }
        let model = d.bytes().map_err(|_| "truncated model state")?;
        if !self.libdn.restore_bytes(model) {
            return Err("model state does not fit");
        }
        self.staged = shaped(d, self.staged.len(), "bad staged tokens")?;
        self.env_produced = d.get().map_err(|_| "truncated env counters")?;
        self.env_consumed = shaped(d, self.env_consumed.len(), "bad env counters")?;
        self.chan_enqueued = shaped(d, self.chan_enqueued.len(), "bad channel counts")?;
        self.tx_busy_until_ps = d.get().map_err(|_| "truncated clocks")?;
        self.last_advance_ps = d.get().map_err(|_| "truncated clocks")?;
        let c = &mut self.counters;
        for slot in [
            &mut c.tokens_enqueued,
            &mut c.tokens_dequeued,
            &mut c.input_stall_host_cycles,
            &mut c.output_stall_host_cycles,
            &mut c.host_cycles,
            &mut c.target_cycles,
        ] {
            *slot = d.get().map_err(|_| "truncated counters")?;
        }
        let rollback_cycle = self.env_consumed.iter().copied().min().unwrap_or(0);
        self.bridge.rollback_to_cycle(rollback_cycle);
        Ok(())
    }

    /// Snapshot of this node's counters with the live LI-BDN totals
    /// folded in.
    pub(crate) fn counters_snapshot(&self) -> NodeCounters {
        NodeCounters {
            node: self.name.clone(),
            partition: self.partition,
            host_cycles: self.libdn.host_cycles(),
            target_cycles: self.libdn.target_cycle(),
            ..self.counters.clone()
        }
    }
}

/// Resolved reliability-layer configuration, shared by both backends.
#[derive(Debug, Clone)]
pub(crate) struct ReliabilityCfg {
    pub(crate) policy: RetryPolicy,
    pub(crate) spec: FaultSpec,
}

pub(crate) struct LinkRt {
    pub(crate) spec: LinkSpec,
    model: LinkModel,
    busy_until_ps: u64,
    pub(crate) tokens: u64,
    payload: VecDeque<(u64, Bits)>, // (seq, token) awaiting delivery
    /// Deterministic fault schedule (present iff reliability is on).
    pub(crate) plan: Option<FaultPlan>,
    /// Lifetime physical-transmission counter — the fault-plan index.
    /// Deliberately *not* restored on rollback, so finite down windows
    /// are eventually consumed and replay can make progress.
    pub(crate) fault_attempts: u64,
    /// Next fresh frame sequence number on this link.
    next_seq: u64,
    /// Latest scheduled arrival: the wire is in-order (go-back-N keeps no
    /// reorder buffer), so a retransmit-delayed frame also delays its
    /// successors.
    last_arrival_ps: u64,
    /// Traffic/reliability counters (see [`LinkCounters`]); the `link`
    /// index is filled in when snapshotting metrics.
    pub(crate) counters: LinkCounters,
}

struct PartitionRt {
    /// Member nodes; FAME-5 partitions have several, serviced one per
    /// host edge round-robin (single-member partitions degenerate to
    /// normal servicing).
    members: Vec<usize>,
    rr: usize,
    period_ps: u64,
    next_edge_ps: u64,
}

/// Execution backend for [`DistributedSim::run_target_cycles`].
///
/// [`Backend::Des`] is the golden model: a single-threaded
/// discrete-event simulation in virtual picoseconds, fully deterministic
/// and the only backend that models transport/clock timing (so
/// [`SimMetrics::target_mhz`] is meaningful). [`Backend::Threads`] runs
/// the partition threads on a pool of OS worker threads exchanging tokens
/// over channels — a functional backend for raw host throughput. By the
/// LI-BDN timing-independence property, both backends produce
/// bit-identical target state and identical
/// [`SimMetrics::target_cycles`] for the same cycle budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic discrete-event simulation (the default).
    #[default]
    Des,
    /// Partition threads on `min(n, P)` OS worker threads for `P`
    /// partition threads; `Threads(0)` means one worker per available
    /// core (CPU affinity and cgroup quota respected), again at most `P`.
    /// Each worker hosts a contiguous run of partitions in FireRipper's
    /// node order, with run lengths differing by at most one (see
    /// [`crate::placement()`]).
    Threads(usize),
    /// Worker OS *processes* joined over real sockets, each hosting the
    /// contiguous run of partitions [`crate::placement()`] assigns it
    /// (one per partition at `P` workers). The engine lives in
    /// `fireaxe-net`; calling [`DistributedSim::run_target_cycles`]
    /// directly with this backend is a configuration error — a net run
    /// is orchestrated by a coordinator across worker processes
    /// (`fireaxe coordinator` / `fireaxe worker`), each of which
    /// services its partitions' nodes through this type's per-node and
    /// per-link methods, links between two of them in-process.
    Net,
}

/// The one place backend names are parsed: both the `--backend` CLI
/// flag and the JSON config's `"backend"` field go through this impl.
///
/// Accepted spellings: `des`, `threads` (one worker per available core,
/// at most one per partition), `threads:<n>` (capped worker pool), `net`.
impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "des" => Ok(Backend::Des),
            "threads" => Ok(Backend::Threads(0)),
            "net" => Ok(Backend::Net),
            other => match other.strip_prefix("threads:") {
                Some(n) => n.parse::<usize>().map(Backend::Threads).map_err(|_| {
                    format!("`{other}` (worker count after `threads:` must be an integer)")
                }),
                None => Err(format!(
                    "`{other}` (expected `des`, `threads`, `threads:<n>`, or `net`)"
                )),
            },
        }
    }
}

/// Renders the spelling [`Backend`]'s `FromStr` accepts (round-trips).
impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Des => write!(f, "des"),
            Backend::Threads(0) => write!(f, "threads"),
            Backend::Threads(n) => write!(f, "threads:{n}"),
            Backend::Net => write!(f, "net"),
        }
    }
}

fireaxe_ir::wire_struct! {
    /// Per-node (i.e. per partition thread) execution counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct NodeCounters {
        /// Node name.
        pub node: String,
        /// Owning partition index.
        pub partition: usize,
        /// Tokens pushed into this node's LI-BDN input queues (link + env).
        pub tokens_enqueued: u64,
        /// Tokens popped from this node's output queues (link + env).
        pub tokens_dequeued: u64,
        /// Host cycles spent starved — stepped without target progress while
        /// at least one input channel held no token.
        pub input_stall_host_cycles: u64,
        /// Host cycles consumed with inputs available but no target progress
        /// (output backpressure or fireFSM wait).
        pub output_stall_host_cycles: u64,
        /// Total host cycles consumed.
        pub host_cycles: u64,
        /// Completed target cycles.
        pub target_cycles: u64,
    }
}

impl NodeCounters {
    /// FPGA-to-Model cycle Ratio: host cycles per completed target
    /// cycle (lower is better; 1.0 is the decoupled ideal).
    pub fn fmr(&self) -> f64 {
        if self.target_cycles == 0 {
            return f64::INFINITY;
        }
        self.host_cycles as f64 / self.target_cycles as f64
    }

    /// Column header aligned with this type's [`std::fmt::Display`] row.
    pub fn table_header() -> String {
        format!(
            "{:<16} {:>4} {:>10} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "node", "part", "target", "host", "fmr", "enq", "deq", "in-stall", "out-stall"
        )
    }
}

impl std::fmt::Display for NodeCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmr = if self.target_cycles == 0 {
            "inf".to_string()
        } else {
            format!("{:.2}", self.fmr())
        };
        write!(
            f,
            "{:<16} {:>4} {:>10} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            self.node,
            self.partition,
            self.target_cycles,
            self.host_cycles,
            fmr,
            self.tokens_enqueued,
            self.tokens_dequeued,
            self.input_stall_host_cycles,
            self.output_stall_host_cycles
        )
    }
}

fireaxe_ir::wire_struct! {
    /// Per-link traffic and reliability counters for a completed run.
    ///
    /// Without the reliability layer only `tokens`, `sent_frames` and
    /// `delivery_delay_ps` move. With it, the DES backend accumulates these
    /// from the analytic fault-plan walk and the threaded backend from the
    /// live protocol state — the counters describe the same activity but
    /// are host-path-dependent and may differ in detail across backends.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct LinkCounters {
        /// Link index (see `PartitionedDesign::links`).
        pub link: usize,
        /// Fresh tokens committed to the wire.
        pub tokens: u64,
        /// Physical frame transmissions, including retransmissions.
        pub sent_frames: u64,
        /// Frames retransmitted after the original was lost or rejected.
        pub retransmits: u64,
        /// Retry timeouts that escalated into a retransmission round.
        pub timeout_escalations: u64,
        /// Frames the receiver rejected for CRC mismatch.
        pub crc_failures: u64,
        /// Duplicate frames the receiver dropped.
        pub duplicates_dropped: u64,
        /// Cumulative send-to-delivery latency, picoseconds (DES only).
        pub delivery_delay_ps: u64,
    }
}

impl LinkCounters {
    /// Column header aligned with this type's [`std::fmt::Display`] row.
    pub fn table_header() -> String {
        format!(
            "{:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "link", "tokens", "frames", "retx", "timeouts", "crc-fail", "dup-drop"
        )
    }
}

impl std::fmt::Display for LinkCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            self.link,
            self.tokens,
            self.sent_frames,
            self.retransmits,
            self.timeout_escalations,
            self.crc_failures,
            self.duplicates_dropped
        )
    }
}

/// Per-run measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Completed target cycles (minimum across nodes).
    pub target_cycles: u64,
    /// Virtual time elapsed, picoseconds (0 under [`Backend::Threads`],
    /// which has no virtual clock).
    pub time_ps: u64,
    /// Tokens carried per link.
    pub link_tokens: Vec<u64>,
    /// Host cycles consumed per node.
    pub host_cycles: Vec<u64>,
    /// Per-node execution counters (token traffic, stalls, FMR).
    pub counters: Vec<NodeCounters>,
    /// Per-link traffic and reliability counters.
    pub links: Vec<LinkCounters>,
}

impl SimMetrics {
    /// Achieved target frequency in Hz.
    pub fn target_hz(&self) -> f64 {
        if self.time_ps == 0 {
            return 0.0;
        }
        self.target_cycles as f64 / (self.time_ps as f64 * 1e-12)
    }

    /// Achieved target frequency in MHz.
    pub fn target_mhz(&self) -> f64 {
        self.target_hz() / 1e6
    }
}

impl std::fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.time_ps > 0 {
            writeln!(
                f,
                "{} target cycles in {:.3} us virtual time ({:.3} MHz)",
                self.target_cycles,
                self.time_ps as f64 * 1e-6,
                self.target_mhz()
            )?;
        } else {
            writeln!(
                f,
                "{} target cycles (threaded backend: no virtual clock)",
                self.target_cycles
            )?;
        }
        writeln!(f, "{}", NodeCounters::table_header())?;
        for c in &self.counters {
            writeln!(f, "{c}")?;
        }
        if !self.links.is_empty() {
            writeln!(f, "{}", LinkCounters::table_header())?;
            for l in &self.links {
                writeln!(f, "{l}")?;
            }
        }
        Ok(())
    }
}

/// What a [`SimBuilder`] elaborates: the hosted partitions of one cut
/// and the cut-wide tables every partition indexes by.
struct PartitionSet<'a> {
    /// `(partition, artifact, first flat node)` per hosted partition,
    /// ascending.
    parts: Vec<(usize, &'a PartitionArtifact, usize)>,
    /// The cut's partition count.
    n_partitions: usize,
    /// Every node of the cut in flat order: `(name, partition)`.
    nodes: Vec<(String, usize)>,
    links: &'a [LinkSpec],
    /// The cut's resolved VCD signal table, when the set ships one.
    vcd_signals: Option<&'a [VcdSignal]>,
    /// Shipped fast-mode seeds (see [`PartitionCut::seeds`]).
    seeds: Vec<(usize, Bits)>,
}

/// Bitstream clock, MHz, of a partition without its own.
pub const DEFAULT_CLOCK_MHZ: f64 = 30.0;
/// Host edges without target-cycle progress before a run is declared
/// deadlocked.
pub const DEFAULT_DEADLOCK_HORIZON: u64 = 100_000;
/// Checkpoint rollbacks a recovering run may take.
pub const DEFAULT_MAX_ROLLBACKS: u32 = 8;

/// Configures and constructs a [`DistributedSim`].
pub struct SimBuilder<'a> {
    /// The set to elaborate, or why it cannot be.
    set: Result<PartitionSet<'a>>,
    default_transport: LinkModel,
    link_transports: BTreeMap<usize, LinkModel>,
    default_clock_mhz: f64,
    partition_clocks: BTreeMap<usize, f64>,
    channel_capacity: usize,
    bridges: BTreeMap<usize, Box<dyn Bridge>>,
    behaviors: BehaviorRegistry,
    deadlock_horizon_edges: u64,
    backend: Backend,
    fault_spec: Option<FaultSpec>,
    retry_policy: Option<RetryPolicy>,
    checkpoint_interval: u64,
    max_rollbacks: u32,
    obs: ObsSpec,
}

impl<'a> std::fmt::Debug for SimBuilder<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nodes = self.set.as_ref().map_or(0, |s| s.nodes.len());
        f.debug_struct("SimBuilder").field("nodes", &nodes).finish()
    }
}

impl<'a> SimBuilder<'a> {
    /// Starts building a simulation of `design`: the set that hosts every
    /// partition of its cut, elaborated from the design's own artifacts
    /// and tables. The backend defaults to [`Backend::Des`].
    pub fn new(design: &'a PartitionedDesign) -> Self {
        let (mut parts, mut nodes) = (Vec::new(), Vec::new());
        for (pi, p) in design.partitions.iter().enumerate() {
            parts.push((pi, p, nodes.len()));
            nodes.extend(p.threads.iter().map(|t| (t.name.clone(), pi)));
        }
        let set = PartitionSet {
            n_partitions: parts.len(),
            parts,
            nodes,
            links: &design.links,
            vcd_signals: None,
            seeds: Vec::new(),
        };
        Self::hosting(Ok(set), Backend::Des)
    }

    /// Starts building a set of partitions of one cut from one
    /// [`PartitionCut`] per hosted partition. Only their threads are
    /// elaborated and bound to behaviors; every other node is known by
    /// name and partition only. Node, link and VCD signal indices stay
    /// those of the whole cut, so partition blobs, token frames and
    /// reports are the bytes a whole-design build produces, and the
    /// cuts' VCD signal table is adopted as is. Bridges attached to
    /// another process's nodes are dropped. The backend defaults to
    /// [`Backend::Net`], what a worker runs: a set that hosts every
    /// partition of its cut runs on any backend, one missing a partition
    /// only under [`Backend::Net`]. [`SimBuilder::build`] rejects cuts
    /// whose node, link or VCD tables disagree, and a partition given
    /// twice.
    pub fn for_partitions(cuts: &'a [PartitionCut]) -> Self {
        let set = PartitionCut::check_set(cuts).and_then(|(c, n_partitions)| {
            let mut parts = cuts
                .iter()
                .map(|c| Ok((c.partition, &c.artifact, c.first_node()?)))
                .collect::<Result<Vec<_>>>()?;
            parts.sort_by_key(|p| p.0);
            Ok(PartitionSet {
                parts,
                n_partitions,
                nodes: c.nodes.clone(),
                links: &c.links,
                vcd_signals: Some(&c.vcd_signals),
                seeds: cuts.iter().flat_map(|c| c.seeds.iter().cloned()).collect(),
            })
        });
        Self::hosting(set, Backend::Net)
    }

    fn hosting(set: Result<PartitionSet<'a>>, backend: Backend) -> Self {
        SimBuilder {
            set,
            default_transport: LinkModel::qsfp_aurora(),
            link_transports: BTreeMap::new(),
            default_clock_mhz: DEFAULT_CLOCK_MHZ,
            partition_clocks: BTreeMap::new(),
            channel_capacity: fireaxe_libdn::DEFAULT_CHANNEL_CAPACITY,
            bridges: BTreeMap::new(),
            behaviors: BehaviorRegistry::new(),
            deadlock_horizon_edges: DEFAULT_DEADLOCK_HORIZON,
            backend,
            fault_spec: None,
            retry_policy: None,
            checkpoint_interval: 0,
            max_rollbacks: DEFAULT_MAX_ROLLBACKS,
            obs: ObsSpec::default(),
        }
    }

    /// Enables observation: metric sampling every
    /// `ObsSpec::sample_interval` target cycles and/or VCD capture of
    /// the watched signals. Signal names are validated at
    /// [`SimBuilder::build`]; collect results with
    /// [`DistributedSim::obs_report`] after a run.
    pub fn observe(mut self, spec: ObsSpec) -> Self {
        self.obs = spec;
        self
    }

    /// Selects the execution backend for cycle-budgeted runs (see
    /// [`Backend`]); the default is the deterministic DES golden model.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Transport used by links without an explicit override.
    pub fn transport(mut self, model: LinkModel) -> Self {
        self.default_transport = model;
        self
    }

    /// Per-link transport override.
    pub fn link_transport(mut self, link: usize, model: LinkModel) -> Self {
        self.link_transports.insert(link, model);
        self
    }

    /// Host (bitstream) clock for every partition, in MHz.
    pub fn clock_mhz(mut self, mhz: f64) -> Self {
        self.default_clock_mhz = mhz;
        self
    }

    /// Per-partition host clock override, in MHz.
    pub fn partition_clock_mhz(mut self, partition: usize, mhz: f64) -> Self {
        self.partition_clocks.insert(partition, mhz);
        self
    }

    /// Token queue capacity on every channel.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity;
        self
    }

    /// Attaches a bridge to the node with flat index `node` (see
    /// [`PartitionedDesign::node_index`]). Nodes without a bridge get
    /// all-zero inputs.
    pub fn bridge(mut self, node: usize, bridge: Box<dyn Bridge>) -> Self {
        self.bridges.insert(node, bridge);
        self
    }

    /// Registers extern behavior factories.
    pub fn behaviors(mut self, registry: BehaviorRegistry) -> Self {
        self.behaviors = registry;
        self
    }

    /// Host edges without any target-cycle progress (while no tokens are
    /// in flight) before declaring deadlock.
    pub fn deadlock_horizon(mut self, edges: u64) -> Self {
        self.deadlock_horizon_edges = edges;
        self
    }

    /// Enables the reliability layer with a fault-injection campaign.
    /// Validated at [`SimBuilder::build`].
    pub fn fault_spec(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = Some(spec);
        self
    }

    /// Enables the reliability layer with explicit retry/backoff knobs
    /// (fault-free unless a [`SimBuilder::fault_spec`] is also given).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self
    }

    /// Target cycles between automatic checkpoints taken by
    /// [`DistributedSim::run_target_cycles_recovering`]; `0` (the
    /// default) disables checkpointing.
    pub fn checkpoint_interval(mut self, cycles: u64) -> Self {
        self.checkpoint_interval = cycles;
        self
    }

    /// Rollback/replay attempts a recovering run may spend before
    /// propagating [`SimError::LinkDown`] (default 8).
    pub fn max_rollbacks(mut self, rollbacks: u32) -> Self {
        self.max_rollbacks = rollbacks;
        self
    }

    /// Builds the simulation: elaborates every partition circuit, binds
    /// behaviors, wraps LI-BDNs, seeds fast-mode links.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures and missing behaviors.
    pub fn build(mut self) -> Result<DistributedSim> {
        let reliability = if self.fault_spec.is_some() || self.retry_policy.is_some() {
            let spec = self
                .fault_spec
                .take()
                .unwrap_or_else(|| FaultSpec::quiet(0));
            let policy = self.retry_policy.unwrap_or_default();
            spec.validate()?;
            policy.validate()?;
            Some(ReliabilityCfg { policy, spec })
        } else {
            None
        };

        let set = self.set?;
        let unhosted = (0..set.n_partitions).find(|p| set.parts.iter().all(|q| q.0 != *p));
        if let (Some(p), false) = (unhosted, self.backend == Backend::Net) {
            return Err(SimError::Config {
                message: format!(
                    "partition {p} of the cut is not hosted: a partial set runs only under \
                     the net backend, not `{}`",
                    self.backend
                ),
            });
        }
        // An override names an index of the whole cut, on every process.
        let n_global = set.nodes.len();
        for (what, last, count) in [
            ("node", self.bridges.keys().next_back(), n_global),
            (
                "partition",
                self.partition_clocks.keys().next_back(),
                set.n_partitions,
            ),
            (
                "link",
                self.link_transports.keys().next_back(),
                set.links.len(),
            ),
        ] {
            if let Some(i) = last.filter(|&&i| i >= count) {
                return Err(SimError::Config {
                    message: format!("a setting names {what} {i}, but the cut has {count} {what}s"),
                });
            }
        }
        let mut slot: Vec<Option<usize>> = vec![None; n_global];

        let mut nodes = Vec::new();
        let mut partitions: Vec<PartitionRt> = Vec::new();
        for (pi, part, first) in set.parts {
            let mhz = self
                .partition_clocks
                .get(&pi)
                .copied()
                .unwrap_or(self.default_clock_mhz);
            let period_ps = mhz_to_period_ps(mhz)?;
            let mut members = Vec::new();
            for (ti, t) in part.threads.iter().enumerate() {
                let flat = first + ti;
                let local = nodes.len();
                slot[flat] = Some(local);
                let mut interp = Interpreter::new(&t.circuit)?;
                self.behaviors.bind_all(&t.name, &mut interp)?;
                interp.reset();
                let target: Box<dyn TargetModel> =
                    Box::new(InterpreterTarget::from_interpreter(interp));
                let mut libdn = LiBdn::new(t.libdn.clone(), target)?;
                libdn.set_capacity(self.channel_capacity);
                let n_in = t.libdn.inputs.len();
                let n_out_env = t.env_outputs.len();
                let env_ok = |chans: &[usize], n: usize| chans.iter().all(|&c| c < n);
                if !env_ok(&t.env_inputs, n_in) || !env_ok(&t.env_outputs, t.libdn.outputs.len()) {
                    return Err(SimError::Config {
                        message: format!(
                            "thread `{}`: environment channel index out of range",
                            t.name
                        ),
                    });
                }
                let bridge = self
                    .bridges
                    .remove(&flat)
                    .unwrap_or_else(|| Box::new(ConstBridge::zeros()));
                nodes.push(NodeRt {
                    name: t.name.clone(),
                    libdn,
                    partition: pi,
                    tx_busy_until_ps: 0,
                    env_inputs: t.env_inputs.clone(),
                    env_outputs: t.env_outputs.clone(),
                    bridge,
                    out_links: Vec::new(),
                    staged: vec![VecDeque::new(); n_in],
                    env_produced: 0,
                    env_consumed: vec![0; n_out_env],
                    last_advance_ps: 0,
                    counters: NodeCounters::default(),
                    chan_enqueued: vec![0; n_in],
                    obs: NodeObs::default(),
                    wake_ps: 0,
                });
                members.push(local);
            }
            let _ = part.fame5; // threads encode FAME-5; scheduling is uniform
            if members.is_empty() {
                return Err(SimError::Config {
                    message: format!("partition {pi} ({}) has no threads", part.name),
                });
            }
            partitions.push(PartitionRt {
                members,
                rr: 0,
                period_ps,
                next_edge_ps: 0,
            });
        }

        let mut links = Vec::new();
        for (li, l) in set.links.iter().enumerate() {
            let model = self
                .link_transports
                .get(&li)
                .copied()
                .unwrap_or(self.default_transport);
            let bad = |what: &str, idx: usize| SimError::Config {
                message: format!("link {li}: {what} index {idx} out of range"),
            };
            // The endpoint's slot in `nodes`, `None` when another process
            // builds it.
            let endpoint = |node: usize, what: &str| match slot.get(node) {
                Some(s) => Ok(*s),
                None => Err(bad(what, node)),
            };
            let from = endpoint(l.from_node, "from-node")?;
            if let Some(f) = from {
                if l.from_chan >= nodes[f].libdn.spec().outputs.len() {
                    return Err(bad("from-channel", l.from_chan));
                }
            }
            if let Some(t) = endpoint(l.to_node, "to-node")? {
                if l.to_chan >= nodes[t].staged.len() {
                    return Err(bad("to-channel", l.to_chan));
                }
            }
            if let Some(f) = from {
                nodes[f].out_links.push(li);
            }
            links.push(LinkRt {
                spec: l.clone(),
                model,
                busy_until_ps: 0,
                tokens: 0,
                payload: VecDeque::new(),
                plan: reliability.as_ref().map(|r| r.spec.plan_for_link(li)),
                fault_attempts: 0,
                next_seq: 0,
                last_arrival_ps: 0,
                counters: LinkCounters::default(),
            });
        }

        if let Some(r) = &reliability {
            if let Some(dl) = r.spec.down_link {
                if dl >= links.len() {
                    return Err(SimError::Config {
                        message: format!(
                            "fault spec targets down_link {dl} but the design has {} links",
                            links.len()
                        ),
                    });
                }
            }
        }

        // The set's VCD signal table, or the observation spec resolved
        // against the built nodes: each built node watches the rows
        // scoped to it, at their global indices.
        let vcd_signals = match (self.obs.vcd, set.vcd_signals) {
            (false, _) => Vec::new(),
            (true, Some(table)) => table.to_vec(),
            (true, None) => resolve_vcd_signals(&self.obs.signals, &nodes)?,
        };
        let mut watched: Vec<Vec<(u32, String)>> = vec![Vec::new(); nodes.len()];
        for (idx, sig) in vcd_signals.iter().enumerate() {
            let Some(ni) = nodes.iter().position(|n| n.name == sig.scope) else {
                continue;
            };
            let width = nodes[ni].libdn.model().peek_path(&sig.name);
            if width.map(|v| v.width().get()) != Some(sig.width) {
                return Err(SimError::Config {
                    message: format!(
                        "obs.signals: node `{}` has no {}-bit signal `{}`",
                        sig.scope, sig.width, sig.name
                    ),
                });
            }
            watched[ni].push((idx as u32, sig.name.clone()));
        }
        for (node, watched) in nodes.iter_mut().zip(watched) {
            node.obs = NodeObs::new(self.obs.sample_interval, watched);
            // Initial (post-reset) values at model time 0.
            for wi in 0..node.obs.watched.len() {
                let (sig, ref path) = node.obs.watched[wi];
                if let Some(v) = node.libdn.model().peek_path(path) {
                    node.obs.changes.push((0, sig, v));
                }
            }
        }

        let n_links = links.len();
        let mut sim = DistributedSim {
            nodes,
            node_table: set.nodes,
            slot,
            seeds: Vec::new(),
            links,
            partitions,
            pending: BinaryHeap::new(),
            time_ps: 0,
            seq: 0,
            deadlock_horizon_edges: self.deadlock_horizon_edges,
            edges_since_progress: 0,
            backend: self.backend,
            cycle_budget: None,
            reliability,
            checkpoint_interval: self.checkpoint_interval,
            max_rollbacks: self.max_rollbacks,
            rollbacks_taken: 0,
            fault_log: VecDeque::new(),
            obs_interval: self.obs.sample_interval,
            vcd_signals,
            link_samples: vec![Vec::new(); n_links],
            link_next_sample: self.obs.sample_interval,
        };
        sim.seed_fast_mode_links(&set.seeds)?;
        Ok(sim)
    }
}

/// Resolves an observation spec's signal list (empty: every node's
/// output ports) against the built nodes, in watch order, validating
/// every requested signal.
fn resolve_vcd_signals(signals: &[String], nodes: &[NodeRt]) -> Result<Vec<VcdSignal>> {
    let cfg = |message: String| SimError::Config { message };
    let mut sigs = Vec::new();
    let mut watch = |node: &NodeRt, path: &str| -> Result<()> {
        let value = node.libdn.model().peek_path(path).ok_or_else(|| {
            cfg(format!(
                "obs.signals: node `{}` has no signal `{path}`",
                node.name
            ))
        })?;
        sigs.push(VcdSignal {
            scope: node.name.clone(),
            name: path.to_string(),
            width: value.width().get(),
        });
        Ok(())
    };
    if signals.is_empty() {
        for node in nodes {
            for (port, _) in node.libdn.model().output_ports() {
                watch(node, &port)?;
            }
        }
    }
    for entry in signals {
        if let Some((node_name, path)) = entry.split_once(':') {
            let node = nodes.iter().find(|n| n.name == node_name).ok_or_else(|| {
                cfg(format!(
                    "obs.signals: no node named `{node_name}` (in `{entry}`)"
                ))
            })?;
            watch(node, path)?;
            continue;
        }
        let mut found = false;
        for node in nodes {
            if node.libdn.model().peek_path(entry).is_some() {
                watch(node, entry)?;
                found = true;
            }
        }
        if !found {
            return Err(cfg(format!(
                "obs.signals: no node exposes a signal `{entry}`"
            )));
        }
    }
    Ok(sigs)
}

#[derive(Debug)]
struct LinkCheckpoint {
    busy_until_ps: u64,
    tokens: u64,
    payload: VecDeque<(u64, Bits)>,
    next_seq: u64,
    last_arrival_ps: u64,
    counters: LinkCounters,
}

#[derive(Debug)]
struct PartitionCheckpoint {
    rr: usize,
    next_edge_ps: u64,
}

/// Complete captured state of a [`DistributedSim`], produced by
/// [`DistributedSim::checkpoint`] and consumed by
/// [`DistributedSim::restore`].
#[derive(Debug)]
pub struct SimCheckpoint {
    /// Per node, the bytes [`NodeRt::put_state`] writes.
    nodes: Vec<Vec<u8>>,
    links: Vec<LinkCheckpoint>,
    partitions: Vec<PartitionCheckpoint>,
    pending: Vec<Delivery>,
    time_ps: u64,
    seq: u64,
    edges_since_progress: u64,
    target_cycles: u64,
}

impl SimCheckpoint {
    /// Completed target cycles (minimum across nodes) at capture time.
    pub fn target_cycles(&self) -> u64 {
        self.target_cycles
    }
}

/// A running multi-partition simulation.
pub struct DistributedSim {
    /// The nodes of the partitions this process hosts.
    pub(crate) nodes: Vec<NodeRt>,
    /// Every node of the cut in flat order, `(name, partition)`, built
    /// here or not.
    pub(crate) node_table: Vec<(String, usize)>,
    /// Flat node index → index into `nodes`; `None` for a node another
    /// process builds. The identity when every partition is hosted.
    pub(crate) slot: Vec<Option<usize>>,
    /// The fast-mode seed token staged on each seeded link into a built
    /// node, `(link, token)`.
    pub(crate) seeds: Vec<(usize, Bits)>,
    pub(crate) links: Vec<LinkRt>,
    partitions: Vec<PartitionRt>,
    pending: BinaryHeap<Delivery>,
    time_ps: u64,
    seq: u64,
    pub(crate) deadlock_horizon_edges: u64,
    edges_since_progress: u64,
    backend: Backend,
    /// Target-cycle stop line of the current budgeted run; see
    /// [`NodeRt::ingest_and_step`].
    cycle_budget: Option<u64>,
    /// Reliability layer (fault injection + retransmission protocol);
    /// `None` runs the ideal lossless transports.
    pub(crate) reliability: Option<ReliabilityCfg>,
    checkpoint_interval: u64,
    max_rollbacks: u32,
    rollbacks_taken: u64,
    /// Bounded window of recent injected faults, for stall forensics.
    pub(crate) fault_log: VecDeque<FaultEvent>,
    /// Metric sampling cadence in target cycles (0 = off).
    pub(crate) obs_interval: u64,
    /// Global VCD signal declarations, in identifier order.
    pub(crate) vcd_signals: Vec<VcdSignal>,
    /// Per-link metric samples (DES samples at the global cadence; the
    /// threaded backend appends end-of-run totals).
    pub(crate) link_samples: Vec<Vec<LinkSample>>,
    /// Next global target cycle to sample links at.
    link_next_sample: u64,
}

impl std::fmt::Debug for DistributedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedSim")
            .field("nodes", &self.nodes.len())
            .field("time_ps", &self.time_ps)
            .field("target_cycles", &self.target_cycles())
            .finish()
    }
}

impl DistributedSim {
    /// Stages each seeded link's initial token at its consumer: sampled
    /// from the producer when it is built here, else taken from
    /// `shipped` (the seeds of a [`PartitionCut`]). A built producer is
    /// sampled even when its consumer is not, so its state is that of a
    /// whole-design build.
    fn seed_fast_mode_links(&mut self, shipped: &[(usize, Bits)]) -> Result<()> {
        for li in 0..self.links.len() {
            let LinkSpec {
                from_node,
                from_chan,
                to_node,
                to_chan,
                seeded,
                ..
            } = self.links[li].spec;
            if !seeded {
                continue;
            }
            let token = match self.slot[from_node] {
                Some(f) => self.nodes[f].libdn.sample_output(from_chan)?,
                None if self.slot[to_node].is_none() => continue,
                None => shipped
                    .iter()
                    .find(|(l, _)| *l == li)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| SimError::Config {
                        message: format!("no seed token shipped for fast-mode link {li}"),
                    })?,
            };
            if let Some(t) = self.slot[to_node] {
                self.nodes[t].staged[to_chan].push_back(token.clone());
                self.seeds.push((li, token));
            }
        }
        Ok(())
    }

    /// Index into `nodes` of flat node `node` (see
    /// [`PartitionedDesign::node_index`]): every public method addresses
    /// a node by its flat index in the whole cut, also on a partition
    /// build.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or not built in this process.
    fn built(&self, node: usize) -> usize {
        self.slot[node].unwrap_or_else(|| panic!("node {node} is not built in this process"))
    }

    /// Flat node `node`, built here.
    pub(crate) fn rt(&self, node: usize) -> &NodeRt {
        &self.nodes[self.built(node)]
    }

    /// Flat node `node`, built here, for a change made outside the DES
    /// loop: its idle verdict (see [`DistributedSim::step_one_edge`]) is
    /// forgotten.
    pub(crate) fn rt_mut(&mut self, node: usize) -> &mut NodeRt {
        let i = self.built(node);
        let n = &mut self.nodes[i];
        n.wake_ps = 0;
        n
    }

    /// Completed target cycles of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or not built in this process.
    pub fn node_target_cycles(&self, node: usize) -> u64 {
        self.rt(node).libdn.target_cycle()
    }

    /// Completed target cycles (minimum across nodes).
    pub fn target_cycles(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.libdn.target_cycle())
            .min()
            .unwrap_or(0)
    }

    /// Virtual time elapsed, picoseconds.
    pub fn time_ps(&self) -> u64 {
        self.time_ps
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> SimMetrics {
        SimMetrics {
            target_cycles: self.target_cycles(),
            time_ps: self.time_ps,
            link_tokens: self.links.iter().map(|l| l.tokens).collect(),
            host_cycles: self.nodes.iter().map(|n| n.libdn.host_cycles()).collect(),
            counters: self.nodes.iter().map(NodeRt::counters_snapshot).collect(),
            links: self
                .links
                .iter()
                .enumerate()
                .map(|(li, l)| LinkCounters {
                    link: li,
                    tokens: l.tokens,
                    ..l.counters.clone()
                })
                .collect(),
        }
    }

    /// Resets every engine-global run accumulator so an already-built
    /// simulation can be reused for a fresh run, as if newly built.
    ///
    /// Partition-local state (register files, LI-BDN queues, node
    /// counters, observation buffers) lives in partition snapshots and
    /// is reset by restoring a cycle-0
    /// [`DistributedSim::snapshot_partition_bytes`] blob; this method
    /// covers the rest: link traffic totals, link
    /// reliability counters, link metric samples, the DES event queue,
    /// virtual time, and the fault log. Pooled `fireaxe-net` workers
    /// call both on `ResetToIdle` so a cached build serves its next job
    /// bit-identically to a cold build.
    pub fn reset_run_accumulators(&mut self) {
        self.wake_all();
        self.pending.clear();
        self.time_ps = 0;
        self.seq = 0;
        self.edges_since_progress = 0;
        self.cycle_budget = None;
        self.rollbacks_taken = 0;
        self.fault_log.clear();
        for l in &mut self.links {
            l.busy_until_ps = 0;
            l.tokens = 0;
            l.payload.clear();
            l.next_seq = 0;
            l.last_arrival_ps = 0;
            l.fault_attempts = 0;
            l.counters = LinkCounters::default();
        }
        for s in &mut self.link_samples {
            s.clear();
        }
        self.link_next_sample = self.obs_interval;
    }

    /// Everything the run observed so far: the sampled metric series
    /// and, when VCD capture was requested (see [`SimBuilder::observe`]),
    /// the rendered waveform. Callable after any run; accumulates across
    /// consecutive runs on the same simulation.
    pub fn obs_report(&self) -> ObsReport {
        let metrics = MetricsSeries {
            sample_interval: self.obs_interval,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeSeries {
                    node: n.name.clone(),
                    samples: n.obs.samples.clone(),
                })
                .collect(),
            links: self
                .link_samples
                .iter()
                .enumerate()
                .map(|(li, samples)| LinkSeries {
                    link: li,
                    samples: samples.clone(),
                })
                .collect(),
        };
        let vcd = (!self.vcd_signals.is_empty()).then(|| {
            let mut w = VcdWriter::new(self.vcd_signals.clone());
            for n in &self.nodes {
                for (t, s, v) in &n.obs.changes {
                    w.change(*t, *s, v.clone());
                }
            }
            w.render()
        });
        ObsReport { metrics, vcd }
    }

    /// Checks token conservation on every link whose two ends are built
    /// in this process (a link to another process balances across
    /// processes): each token the sender committed to the wire (plus the
    /// fast-mode seed) must be exactly accounted for as ingested by the receiver (`chan_enqueued`),
    /// staged awaiting queue space, or still in transport flight.
    /// Both backends maintain this after any successful run; it is
    /// debug-asserted there and property-tested.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first imbalanced link.
    pub fn verify_token_conservation(&self) -> std::result::Result<(), String> {
        for (li, l) in self.links.iter().enumerate() {
            let (Some(_), Some(to)) = (self.slot[l.spec.from_node], self.slot[l.spec.to_node])
            else {
                continue;
            };
            let n = &self.nodes[to];
            let chan = l.spec.to_chan;
            let sent = l.tokens + u64::from(l.spec.seeded);
            let ingested = n.chan_enqueued[chan];
            let staged = n.staged[chan].len() as u64;
            let in_flight = l.payload.len() as u64;
            if ingested + staged + in_flight != sent {
                return Err(format!(
                    "link {li} ({} -> {}): {sent} token(s) sent (incl. seed) but \
                     {ingested} ingested + {staged} staged + {in_flight} in flight",
                    l.spec.from_node, l.spec.to_node
                ));
            }
        }
        Ok(())
    }

    /// Access a node's bridge (e.g. to read a recorded trace).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or not built in this process.
    pub fn bridge_mut(&mut self, node: usize) -> &mut dyn Bridge {
        self.rt_mut(node).bridge.as_mut()
    }

    /// Access a node's wrapped target model (its elaborated port tables,
    /// signals, state).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or not built in this process.
    pub fn target(&self, node: usize) -> &dyn TargetModel {
        self.rt(node).libdn.model()
    }

    /// Names of every node of the cut, in flat order.
    pub fn node_names(&self) -> Vec<String> {
        self.node_table.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Number of nodes (partition threads) of the whole cut.
    pub fn node_count(&self) -> usize {
        self.node_table.len()
    }

    /// A node's name.
    pub fn node_name(&self, node: usize) -> &str {
        &self.node_table[node].0
    }

    /// The partition a node belongs to (FAME-5 partitions contribute
    /// several nodes).
    pub fn node_partition(&self, node: usize) -> usize {
        self.node_table[node].1
    }

    /// The partitions built in this process, ascending.
    pub fn built_partitions(&self) -> Vec<usize> {
        let mut parts: Vec<usize> = self.nodes.iter().map(|n| n.partition).collect();
        parts.dedup(); // built in partition order
        parts
    }

    /// The inter-partition link table, in link-index order.
    pub fn link_specs(&self) -> Vec<LinkSpec> {
        self.links.iter().map(|l| l.spec.clone()).collect()
    }

    /// The armed retransmission policy, if the reliability layer is on.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.reliability.as_ref().map(|r| r.policy)
    }

    /// Runs until every node has completed *exactly* `cycles` target
    /// cycles (nodes already past `cycles` are left untouched).
    ///
    /// The stop line is enforced per node on both backends: no node
    /// over-runs the budget and no bridge is asked for stimulus past it,
    /// which is what makes final target state bit-identical between
    /// [`Backend::Des`] and [`Backend::Threads`].
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when no progress is possible.
    pub fn run_target_cycles(&mut self, cycles: u64) -> Result<SimMetrics> {
        // The budget decides what a node at the stop line may do, so it
        // is an external mutation on the way in and on the way out.
        self.wake_all();
        let out = match self.backend {
            Backend::Des => {
                let _span = obs_span!("des.run", self.time_ps);
                self.cycle_budget = Some(cycles);
                let out = self.run_to_budget(cycles);
                self.cycle_budget = None;
                self.wake_all();
                out
            }
            Backend::Threads(workers) => {
                let _span = obs_span!("threads.run");
                crate::threaded::run(self, cycles, workers)
            }
            Backend::Net => Err(SimError::Config {
                message: "Backend::Net spans OS processes: drive this simulation \
                          through a fireaxe-net coordinator (`fireaxe coordinator` / \
                          `fireaxe run --backend net`), not run_target_cycles"
                    .into(),
            }),
        };
        if out.is_ok() {
            debug_assert!(
                self.verify_token_conservation().is_ok(),
                "token conservation violated: {}",
                self.verify_token_conservation().unwrap_err()
            );
        }
        out
    }

    /// The backend this simulation executes budgeted runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Rollback/replay recoveries taken so far (see
    /// [`DistributedSim::run_target_cycles_recovering`]).
    pub fn rollbacks_taken(&self) -> u64 {
        self.rollbacks_taken
    }

    /// Appends injected-fault events to the bounded forensics window.
    pub(crate) fn log_faults(&mut self, events: impl IntoIterator<Item = FaultEvent>) {
        for e in events {
            if self.fault_log.len() == FAULT_LOG_WINDOW {
                self.fault_log.pop_front();
            }
            self.fault_log.push_back(e);
        }
    }

    /// Structured forensics of the current stall state: every built
    /// node's target cycle and channel occupancy, tokens still in flight,
    /// and the recent fault history.
    pub fn stall_report(&self) -> StallReport {
        let staged: u64 = self
            .nodes
            .iter()
            .flat_map(|n| n.staged.iter().map(|q| q.len() as u64))
            .sum();
        StallReport {
            time_ps: self.time_ps,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeStall {
                    node: n.name.clone(),
                    target_cycle: n.libdn.target_cycle(),
                    waiting_inputs: n.libdn.input_levels(),
                    fired_outputs: n.libdn.output_fired(),
                })
                .collect(),
            tokens_in_flight: self.pending.len() as u64 + staged,
            recent_faults: self.fault_log.iter().copied().collect(),
        }
    }

    /// Captures the complete simulation state (target registers and
    /// memories, LI-BDN queues and fireFSM state, staged tokens,
    /// in-flight deliveries, per-node cycle counts, virtual clocks) so a
    /// later [`DistributedSim::restore`] replays deterministically. Each
    /// node is held as the bytes a partition blob holds for it (see
    /// [`DistributedSim::snapshot_partition_bytes`]); the observation log
    /// is left out, so a rollback neither loses nor repeats a sample.
    ///
    /// Per-link fault-plan attempt counters are *not* part of a
    /// checkpoint: replaying after a rollback consumes fresh fault-plan
    /// indices, which is what lets a finite down window eventually pass.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotUnsupported`] when a node's target model
    /// cannot be snapshotted (behavioral targets).
    pub fn checkpoint(&self) -> Result<SimCheckpoint> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let mut b = Vec::new();
            n.put_state(&mut b)?;
            nodes.push(b);
        }
        Ok(SimCheckpoint {
            nodes,
            links: self
                .links
                .iter()
                .map(|l| LinkCheckpoint {
                    busy_until_ps: l.busy_until_ps,
                    tokens: l.tokens,
                    payload: l.payload.clone(),
                    next_seq: l.next_seq,
                    last_arrival_ps: l.last_arrival_ps,
                    counters: l.counters.clone(),
                })
                .collect(),
            partitions: self
                .partitions
                .iter()
                .map(|p| PartitionCheckpoint {
                    rr: p.rr,
                    next_edge_ps: p.next_edge_ps,
                })
                .collect(),
            pending: self.pending.iter().copied().collect(),
            time_ps: self.time_ps,
            seq: self.seq,
            edges_since_progress: self.edges_since_progress,
            target_cycles: self.target_cycles(),
        })
    }

    /// Rewinds the simulation to a state captured by
    /// [`DistributedSim::checkpoint`] and tells every bridge to forget
    /// output tokens that will be consumed again.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the checkpoint does not fit this
    /// simulation (different design or node shapes).
    pub fn restore(&mut self, ckpt: &SimCheckpoint) -> Result<()> {
        if ckpt.nodes.len() != self.nodes.len()
            || ckpt.links.len() != self.links.len()
            || ckpt.partitions.len() != self.partitions.len()
        {
            return Err(SimError::Config {
                message: "checkpoint shape does not match this simulation".into(),
            });
        }
        for (n, bytes) in self.nodes.iter_mut().zip(&ckpt.nodes) {
            if let Err(what) = n.take_state(&mut Dec::new(bytes)) {
                return Err(SimError::Config {
                    message: format!("checkpoint does not fit node `{}`: {what}", n.name),
                });
            }
        }
        for (l, c) in self.links.iter_mut().zip(&ckpt.links) {
            l.busy_until_ps = c.busy_until_ps;
            l.tokens = c.tokens;
            l.payload.clone_from(&c.payload);
            l.next_seq = c.next_seq;
            l.last_arrival_ps = c.last_arrival_ps;
            l.counters = c.counters.clone();
            // l.fault_attempts intentionally left running.
        }
        for (p, c) in self.partitions.iter_mut().zip(&ckpt.partitions) {
            p.rr = c.rr;
            p.next_edge_ps = c.next_edge_ps;
        }
        self.pending = ckpt.pending.iter().copied().collect();
        self.time_ps = ckpt.time_ps;
        self.seq = ckpt.seq;
        self.edges_since_progress = ckpt.edges_since_progress;
        self.wake_all();
        Ok(())
    }

    /// Captures one partition's complete state as a *portable* byte blob
    /// that can cross a process boundary: the distributed backend's
    /// cluster checkpoints ship these to the coordinator so a freshly
    /// respawned worker can resume mid-run, and survivors keep a local
    /// copy to rewind from (see `fireaxe-net`).
    ///
    /// Per owned node the blob carries the node's rewindable state —
    /// the LI-BDN byte snapshot (target registers/memories, queues,
    /// fireFSM state, extern behavior state), staged tokens, environment
    /// channel counts, execution counters — and then its observation
    /// state (collected samples and VCD changes — a respawned worker
    /// must still report the pre-crash window). The local link table's token/reliability totals ride
    /// along so merged end-of-run metrics survive a restore. Capture at
    /// a cluster barrier (link quiescence) so peers' marks refer to the
    /// same global point.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotUnsupported`] when an owned node's state is
    /// not byte-portable; [`SimError::Config`] when the partition has no
    /// nodes.
    pub fn snapshot_partition_bytes(&self, partition: usize) -> Result<Vec<u8>> {
        let owned: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].partition == partition)
            .collect();
        if owned.is_empty() {
            return Err(SimError::Config {
                message: format!("partition {partition} has no nodes"),
            });
        }
        let mut b = PARTITION_BLOB_MAGIC.to_vec();
        (owned.len() as u32).put(&mut b);
        for &i in &owned {
            let n = &self.nodes[i];
            n.put_state(&mut b)?;
            (n.obs.next_sample, n.obs.now_ps, n.obs.last_seen_cycle).put(&mut b);
            n.obs.samples.put(&mut b);
            n.obs.changes.put(&mut b);
        }
        (self.links.len() as u32).put(&mut b);
        for l in &self.links {
            let c = &l.counters;
            for v in [
                l.tokens,
                c.tokens,
                c.sent_frames,
                c.retransmits,
                c.timeout_escalations,
                c.crc_failures,
                c.duplicates_dropped,
                c.delivery_delay_ps,
            ] {
                v.put(&mut b);
            }
        }
        Ok(b)
    }

    /// Restores one partition from a [`DistributedSim::snapshot_partition_bytes`]
    /// blob and returns the restored target cycle. Node names, node
    /// count, channel shapes, and the link-table length are all
    /// cross-checked against this simulation; any mismatch (or a
    /// truncated/garbled blob) is rejected as [`SimError::Config`].
    /// Rejection is *not* guaranteed to leave earlier nodes untouched —
    /// restore failures during crash recovery are fatal to the worker
    /// anyway.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the blob does not decode as this
    /// partition's state.
    pub fn restore_partition_bytes(&mut self, partition: usize, bytes: &[u8]) -> Result<u64> {
        self.wake_all();
        let bad = |what: &str| SimError::Config {
            message: format!("partition {partition} blob rejected: {what}"),
        };
        let mut d = Dec::new(bytes);
        d.magic(PARTITION_BLOB_MAGIC, "blob")
            .map_err(|_| bad("bad magic"))?;
        let owned: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].partition == partition)
            .collect();
        if d.get::<u32>().ok() != Some(owned.len() as u32) {
            return Err(bad("node count mismatch"));
        }
        let mut cycle = None;
        for &i in &owned {
            let n = &mut self.nodes[i];
            n.take_state(&mut d).map_err(bad)?;
            (n.obs.next_sample, n.obs.now_ps, n.obs.last_seen_cycle) =
                d.get().map_err(|_| bad("truncated obs state"))?;
            n.obs.samples = d.get().map_err(|_| bad("garbled samples"))?;
            n.obs.changes = d.get().map_err(|_| bad("truncated VCD changes"))?;
            let tc = n.libdn.target_cycle();
            cycle = Some(cycle.map_or(tc, |c: u64| c.min(tc)));
        }
        if d.get::<u32>().ok() != Some(self.links.len() as u32) {
            return Err(bad("link count mismatch"));
        }
        for l in &mut self.links {
            let c = &mut l.counters;
            for slot in [
                &mut l.tokens,
                &mut c.tokens,
                &mut c.sent_frames,
                &mut c.retransmits,
                &mut c.timeout_escalations,
                &mut c.crc_failures,
                &mut c.duplicates_dropped,
                &mut c.delivery_delay_ps,
            ] {
                *slot = d.get().map_err(|_| bad("truncated link state"))?;
            }
            // l.fault_attempts intentionally left running, exactly like
            // the in-process rollback path.
        }
        d.finish().map_err(|_| bad("trailing bytes"))?;
        Ok(cycle.unwrap_or(0))
    }

    /// Like [`DistributedSim::run_target_cycles`], but checkpoints every
    /// `checkpoint_interval` target cycles (see
    /// [`SimBuilder::checkpoint_interval`]) and, when a link exhausts its
    /// retry budget, rolls back to the last checkpoint and replays — up
    /// to [`SimBuilder::max_rollbacks`] times. Because fault plans are
    /// keyed by the link's lifetime attempt counter, each replay consumes
    /// fresh fault-plan indices, so transient link-down windows clear and
    /// the run converges on the same target state as a fault-free run.
    ///
    /// With `checkpoint_interval == 0` this is plain
    /// [`DistributedSim::run_target_cycles`].
    ///
    /// # Errors
    ///
    /// [`SimError::LinkDown`] once the rollback budget is exhausted;
    /// [`SimError::SnapshotUnsupported`] when checkpointing is requested
    /// over a non-snapshottable target; other run errors propagate.
    pub fn run_target_cycles_recovering(&mut self, cycles: u64) -> Result<SimMetrics> {
        if self.checkpoint_interval == 0 {
            return self.run_target_cycles(cycles);
        }
        let mut ckpt = self.checkpoint()?;
        let mut rollbacks_left = self.max_rollbacks;
        while self.target_cycles() < cycles {
            let stop = self
                .target_cycles()
                .saturating_add(self.checkpoint_interval)
                .min(cycles);
            match self.run_target_cycles(stop) {
                Ok(_) => {
                    ckpt = self.checkpoint()?;
                    obs_instant!("checkpoint", self.time_ps);
                }
                Err(e @ SimError::LinkDown { .. }) => {
                    if rollbacks_left == 0 {
                        return Err(e);
                    }
                    rollbacks_left -= 1;
                    self.rollbacks_taken += 1;
                    self.restore(&ckpt)?;
                    obs_instant!("rollback", self.time_ps);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(self.metrics())
    }

    /// Returns `true` if any node's bridge reports done.
    pub fn any_bridge_done(&self) -> bool {
        self.nodes.iter().any(|n| n.bridge.done())
    }

    /// Runs while `cond` holds.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when no progress is possible while `cond`
    /// still holds.
    pub fn run_while(&mut self, cond: impl Fn(&DistributedSim) -> bool) -> Result<SimMetrics> {
        while cond(self) {
            self.step_one_edge()?;
        }
        Ok(self.metrics())
    }

    /// [`DistributedSim::run_while`] for the cycle-budget stop line. The
    /// minimum target cycle over all nodes only moves on an edge that
    /// progressed, so it is recomputed only after one.
    fn run_to_budget(&mut self, cycles: u64) -> Result<SimMetrics> {
        while self.target_cycles() < cycles {
            while !self.step_edge()? {}
        }
        Ok(self.metrics())
    }

    /// Forgets every node's idle verdict (see
    /// [`DistributedSim::step_one_edge`]): called wherever something other
    /// than the event loop itself touches the state the verdict was
    /// derived from on every node — a new cycle budget, a restore, a
    /// capacity change. A change to one node forgets that node's verdict
    /// only (see [`DistributedSim::rt_mut`]).
    pub(crate) fn wake_all(&mut self) {
        for n in &mut self.nodes {
            n.wake_ps = 0;
        }
    }

    /// Deepens every built node's LI-BDN queues to at least `capacity`
    /// host slots (runahead for a backend without a virtual clock) and
    /// returns the previous capacities for
    /// [`DistributedSim::restore_capacities`].
    pub fn deepen_capacities(&mut self, capacity: usize) -> Vec<usize> {
        self.wake_all();
        self.nodes
            .iter_mut()
            .map(|n| {
                let cap = n.libdn.capacity();
                n.libdn.set_capacity(cap.max(capacity));
                cap
            })
            .collect()
    }

    /// Restores queue capacities saved by
    /// [`DistributedSim::deepen_capacities`].
    pub fn restore_capacities(&mut self, saved: Vec<usize>) {
        self.wake_all();
        for (node, cap) in self.nodes.iter_mut().zip(saved) {
            node.libdn.set_capacity(cap);
        }
    }

    /// Stages a delivered link token at the consuming node (it enters
    /// the LI-BDN input queue on the node's next service pass).
    pub fn stage_link_token(&mut self, link: usize, payload: Bits) {
        let LinkSpec {
            to_node, to_chan, ..
        } = self.links[link].spec;
        self.rt_mut(to_node).staged[to_chan].push_back(payload);
    }

    /// Services one node for a backend that owns the scheduling loop:
    /// stage → env top-up → one host step under the target-cycle stop
    /// line `budget`, with the shared observation point at the tail (see
    /// `NodeRt::ingest_and_step`). Returns `true` on any progress.
    ///
    /// # Errors
    ///
    /// Propagates LI-BDN failures.
    pub fn ingest_and_step(&mut self, node: usize, budget: u64) -> Result<bool> {
        self.rt_mut(node).ingest_and_step(Some(budget))
    }

    /// Drains a node's environment output channels into its bridge.
    pub fn drain_env_outputs(&mut self, node: usize) -> bool {
        self.rt_mut(node).drain_env_outputs()
    }

    /// Pops the next fresh token the producing node has fired on `link`,
    /// counting it as dequeued/committed exactly like the in-process
    /// backends do.
    pub fn pop_link_output(&mut self, link: usize) -> Option<Bits> {
        let LinkSpec {
            from_node,
            from_chan,
            ..
        } = self.links[link].spec;
        let from = self.rt_mut(from_node);
        let token = from.libdn.pop_output(from_chan)?;
        from.counters.tokens_dequeued += 1;
        self.links[link].tokens += 1;
        Some(token)
    }

    /// Tokens a node has accepted into one input channel's LI-BDN queue
    /// so far — the consumption point credit-based flow control returns
    /// credits at.
    pub fn chan_enqueued(&self, node: usize, chan: usize) -> u64 {
        self.rt(node).chan_enqueued[chan]
    }

    /// Snapshot of one node's execution counters.
    pub fn node_counters(&self, node: usize) -> NodeCounters {
        self.rt(node).counters_snapshot()
    }

    /// Mutable reliability/traffic counters of one link (a backend that
    /// runs its own link protocol folds its live totals in here).
    pub fn link_counters_mut(&mut self, link: usize) -> &mut LinkCounters {
        &mut self.links[link].counters
    }

    /// Fresh tokens committed to one link so far.
    pub fn link_tokens(&self, link: usize) -> u64 {
        self.links[link].tokens
    }

    /// Validates a link index against the design, as a typed error.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending index.
    pub fn check_link(&self, link: usize) -> Result<()> {
        if link >= self.links.len() {
            return Err(SimError::Config {
                message: format!(
                    "link index {link} out of range ({} links)",
                    self.links.len()
                ),
            });
        }
        Ok(())
    }

    /// Advances virtual time to the next host clock edge and services it.
    ///
    /// A node that made no progress when it was last serviced, holds no
    /// fired token it has yet to put on a wire, and has a delivery in
    /// flight towards it cannot progress before that delivery lands:
    /// its queues only change by its own servicing, and nothing it could
    /// be waiting for — queue space, the transmitter — is outstanding.
    /// Until then its host edges are charged (host cycle, input-stall
    /// attribution, the deadlock horizon's edge count) exactly as a
    /// fruitless service would have charged them, without running one, so
    /// virtual time and every counter are those of servicing every edge.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when the deadlock horizon is exceeded.
    pub fn step_one_edge(&mut self) -> Result<()> {
        self.step_edge().map(drop)
    }

    /// [`DistributedSim::step_one_edge`], reporting whether the edge made
    /// progress.
    fn step_edge(&mut self) -> Result<bool> {
        // Next edge time across partitions (ties: lowest partition index).
        let Some((pi, edge_ps)) = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.next_edge_ps))
            .min_by_key(|&(i, t)| (t, i))
        else {
            return Err(SimError::Config {
                message: "cannot step: the design has no partitions".into(),
            });
        };
        self.time_ps = edge_ps;

        // Deliver tokens due by now.
        while let Some(&d) = self.pending.peek() {
            if d.at_ps > self.time_ps {
                break;
            }
            let d = self.pending.pop().expect("peeked");
            let (_seq, token) = self.links[d.link]
                .payload
                .pop_front()
                .expect("payload queued");
            let to = self.links[d.link].spec.to_node;
            let chan = self.links[d.link].spec.to_chan;
            self.nodes[to].staged[chan].push_back(token);
        }

        // Service the partition: one member under FAME-5, the sole member
        // otherwise.
        let node_idx = {
            let p = &mut self.partitions[pi];
            let idx = p.members[p.rr % p.members.len()];
            p.rr = (p.rr + 1) % p.members.len();
            p.next_edge_ps += p.period_ps;
            idx
        };
        self.nodes[node_idx].obs.now_ps = self.time_ps;
        let progressed = if self.time_ps < self.nodes[node_idx].wake_ps {
            self.nodes[node_idx].charge_idle_edge(self.cycle_budget);
            false
        } else {
            let progressed = self.service_node(node_idx)?;
            let idle = !progressed && self.nodes[node_idx].libdn.outputs_drained();
            self.nodes[node_idx].wake_ps = if idle {
                self.next_delivery_to(node_idx).unwrap_or(0)
            } else {
                0
            };
            progressed
        };

        // Sample every link whenever the global target cycle crosses the
        // observation cadence (DES only; it owns the virtual clock).
        if self.obs_interval > 0 && progressed {
            let tc = self.target_cycles();
            if tc >= self.link_next_sample {
                for (li, l) in self.links.iter().enumerate() {
                    self.link_samples[li].push(LinkSample {
                        cycle: tc,
                        time_ps: self.time_ps,
                        tokens: l.tokens,
                        sent_frames: l.counters.sent_frames,
                        retransmits: l.counters.retransmits,
                        crc_failures: l.counters.crc_failures,
                        duplicates_dropped: l.counters.duplicates_dropped,
                        delivery_delay_ps: l.counters.delivery_delay_ps,
                        in_flight: l.payload.len() as u64,
                    });
                }
                self.link_next_sample = tc + self.obs_interval;
            }
        }

        if progressed {
            self.edges_since_progress = 0;
        } else {
            self.edges_since_progress += 1;
            if self.edges_since_progress > self.deadlock_horizon_edges && self.pending.is_empty() {
                return Err(SimError::Deadlock {
                    report: self.stall_report(),
                });
            }
        }
        Ok(progressed)
    }

    /// Arrival time of the earliest delivery in flight towards node `ni`.
    fn next_delivery_to(&self, ni: usize) -> Option<u64> {
        self.pending
            .iter()
            .filter(|d| self.links[d.link].spec.to_node == ni)
            .map(|d| d.at_ps)
            .min()
    }

    fn service_node(&mut self, ni: usize) -> Result<bool> {
        let now = self.time_ps;

        // 1–3. Stage tokens, top up env inputs, one host cycle.
        let before = self.nodes[ni].libdn.target_cycle();
        let mut progressed = self.nodes[ni].ingest_and_step(self.cycle_budget)?;
        if self.nodes[ni].libdn.target_cycle() > before {
            self.nodes[ni].last_advance_ps = now;
        }

        // 4. Drain output channels into links. With the reliability layer
        //    on, each token is framed (sequence number + CRC) and its
        //    delivery delay is walked through the link's fault plan: every
        //    failed physical attempt charges that retry's backoff timeout
        //    in sender host cycles, exactly the schedule the threaded
        //    backend's live protocol would follow.
        let rel_policy = self.reliability.as_ref().map(|r| r.policy);
        for li_pos in 0..self.nodes[ni].out_links.len() {
            let li = self.nodes[ni].out_links[li_pos];
            loop {
                if self.links[li].busy_until_ps > now || self.nodes[ni].tx_busy_until_ps > now {
                    break;
                }
                let chan = self.links[li].spec.from_chan;
                let Some(token) = self.nodes[ni].libdn.pop_output(chan) else {
                    break;
                };
                let tx_period = self.partitions[self.nodes[ni].partition].period_ps;
                let rx_part = self.nodes[self.links[li].spec.to_node].partition;
                let rx_period = self.partitions[rx_part].period_ps;
                let wire_width = match rel_policy {
                    Some(_) => self.links[li].spec.width.saturating_add(FRAME_HEADER_BITS),
                    None => self.links[li].spec.width,
                };
                let model = self.links[li].model;
                let transfer = model.transfer_ps(wire_width, tx_period, rx_period);
                let ser_tx = model.serialization_cycles(wire_width) * tx_period;
                let delay = match rel_policy {
                    None => {
                        self.links[li].counters.sent_frames += 1;
                        transfer
                    }
                    Some(policy) => {
                        let link = &mut self.links[li];
                        let plan = link.plan.clone().expect("plan exists when reliability on");
                        let frame_seq = link.next_seq;
                        link.next_seq += 1;
                        let start = link.fault_attempts;
                        let mut ctr = start;
                        let outcome =
                            des_delivery(&plan, &policy, frame_seq, &mut ctr, transfer, tx_period);
                        link.fault_attempts = ctr;
                        match outcome {
                            Ok(d) => {
                                let c = &mut self.links[li].counters;
                                c.sent_frames += u64::from(d.attempts);
                                // Each failed attempt expired a timeout and
                                // triggered one retransmission.
                                c.retransmits += u64::from(d.attempts - 1);
                                c.timeout_escalations += u64::from(d.attempts - 1);
                                for e in &d.events {
                                    match e.fault {
                                        Fault::Corrupt { .. } => c.crc_failures += 1,
                                        Fault::Duplicate => c.duplicates_dropped += 1,
                                        _ => {}
                                    }
                                }
                                self.log_faults(d.events);
                                d.delay_ps
                            }
                            Err(attempts) => {
                                // Reconstruct the fatal frame's fault events
                                // (the analytic walk reports only success).
                                let events: Vec<FaultEvent> = (start..ctr)
                                    .filter_map(|attempt| {
                                        plan.fault_at(attempt).map(|fault| FaultEvent {
                                            link: li,
                                            attempt,
                                            seq: frame_seq,
                                            fault,
                                        })
                                    })
                                    .collect();
                                self.log_faults(events);
                                return Err(SimError::LinkDown {
                                    link: li,
                                    attempts,
                                    report: self.stall_report(),
                                });
                            }
                        }
                    }
                };
                self.links[li].counters.delivery_delay_ps += delay;
                self.links[li].busy_until_ps = now + ser_tx.max(1);
                self.nodes[ni].tx_busy_until_ps = now + ser_tx.max(tx_period);
                self.seq += 1;
                self.links[li].payload.push_back((self.seq, token));
                let at_ps = now
                    .saturating_add(delay)
                    .max(self.links[li].last_arrival_ps);
                self.links[li].last_arrival_ps = at_ps;
                self.pending.push(Delivery {
                    at_ps,
                    seq: self.seq,
                    link: li,
                });
                // A receiver sitting out its host edges until a later
                // delivery (see `step_edge`) is woken for this one.
                let to = &mut self.nodes[self.links[li].spec.to_node];
                to.wake_ps = to.wake_ps.min(at_ps);
                self.links[li].tokens += 1;
                self.nodes[ni].counters.tokens_dequeued += 1;
                progressed = true;
            }
        }

        // 5. Drain environment output channels into the bridge.
        progressed |= self.nodes[ni].drain_env_outputs();
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::ScriptBridge;
    use fireaxe_ir::build::ModuleBuilder;
    use fireaxe_ir::Circuit;
    use fireaxe_ripper::{compile, ChannelPolicy, PartitionGroup, PartitionMode, PartitionSpec};

    /// SoC: tile with a *combinational* response path (rsp = acc + req,
    /// like the Fig. 2 adder) + hub logic on the other side. The comb
    /// path is what makes exact-mode need two crossings per cycle.
    fn soc() -> Circuit {
        let mut tile = ModuleBuilder::new("Tile");
        let req = tile.input("req", 8);
        let rsp = tile.output("rsp", 8);
        let acc = tile.reg("acc", 8, 0);
        tile.connect_sig(&acc, &acc.add(&req));
        tile.connect_sig(&rsp, &acc.add(&req));
        let tile = tile.finish();

        let mut top = ModuleBuilder::new("Soc");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("tile0", "Tile");
        let hub = top.reg("hub", 8, 1);
        top.connect_inst("tile0", "req", &hub);
        let rsp = top.inst_port("tile0", "rsp");
        top.connect_sig(&hub, &rsp.xor(&i));
        top.connect_sig(&o, &hub);
        Circuit::from_modules("Soc", vec![top.finish(), tile], "Soc")
    }

    /// Monolithic golden trace of `o` for `cycles` cycles with input 3.
    fn golden(cycles: usize) -> Vec<u64> {
        let c = soc();
        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("i", Bits::from_u64(3, 8));
        let mut out = Vec::new();
        for _ in 0..cycles {
            sim.eval().unwrap();
            out.push(sim.peek("o").to_u64());
            sim.tick();
        }
        out
    }

    fn partitioned_trace(mode: PartitionMode, cycles: u64) -> Vec<u64> {
        let c = soc();
        let spec = PartitionSpec {
            mode,
            channel_policy: ChannelPolicy::Separated,
            groups: vec![PartitionGroup::instances("tile", vec!["tile0".into()])],
        };
        let design = compile(&c, &spec).unwrap();
        let rest = design.node_index(1, 0);
        let bridge = ScriptBridge::new(|_| {
            let mut m = std::collections::BTreeMap::new();
            m.insert("i".to_string(), Bits::from_u64(3, 8));
            m
        })
        .recording();
        let mut sim = SimBuilder::new(&design)
            .transport(LinkModel::qsfp_aurora())
            .bridge(rest, Box::new(bridge))
            .build()
            .unwrap();
        sim.run_target_cycles(cycles).unwrap();
        let b = sim
            .bridge_mut(rest)
            .as_any()
            .downcast_mut::<ScriptBridge>()
            .unwrap();
        let mut trace: Vec<(u64, u64)> = b
            .log()
            .iter()
            .filter(|t| t.values.contains_key("o"))
            .map(|t| (t.cycle, t.values["o"].to_u64()))
            .collect();
        trace.sort();
        trace.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn exact_mode_matches_monolithic_bit_for_bit() {
        let cycles = 50;
        let golden = golden(cycles);
        let trace = partitioned_trace(PartitionMode::Exact, cycles as u64 + 2);
        assert!(trace.len() >= cycles);
        assert_eq!(
            &trace[..cycles],
            &golden[..],
            "exact-mode must be cycle-exact"
        );
    }

    #[test]
    fn fast_mode_is_deterministic_but_not_cycle_exact() {
        let cycles = 50usize;
        let golden = golden(cycles);
        let t1 = partitioned_trace(PartitionMode::Fast, cycles as u64 + 2);
        let t2 = partitioned_trace(PartitionMode::Fast, cycles as u64 + 2);
        assert!(t1.len() >= cycles);
        // Deterministic across runs (cycle-exact w.r.t. the *modified*
        // target, as the paper states)...
        assert_eq!(&t1[..cycles], &t2[..cycles]);
        // ...but not cycle-exact w.r.t. the unmodified RTL: the seed token
        // injects one cycle of boundary latency.
        assert_ne!(&t1[..cycles], &golden[..]);
    }

    #[test]
    fn fast_mode_is_faster_than_exact() {
        let c = soc();
        let rate = |mode| {
            let spec = PartitionSpec {
                mode,
                channel_policy: ChannelPolicy::Separated,
                groups: vec![PartitionGroup::instances("tile", vec!["tile0".into()])],
            };
            let design = compile(&c, &spec).unwrap();
            let mut sim = SimBuilder::new(&design).build().unwrap();
            sim.run_target_cycles(500).unwrap().target_mhz()
        };
        let exact = rate(PartitionMode::Exact);
        let fast = rate(PartitionMode::Fast);
        assert!(
            fast > 1.5 * exact,
            "fast-mode {fast} MHz should be ~2x exact-mode {exact} MHz"
        );
    }

    #[test]
    fn monolithic_channels_deadlock() {
        // Paper Fig. 2: adders on *both* sides of the cut, each fed by the
        // peer's register. With separated channels this simulates; with
        // monolithic channels (Fig. 2a) it deadlocks on the circular token
        // dependency.
        let mut tile = ModuleBuilder::new("Fig2Side");
        let sink_in = tile.input("sink_in", 8);
        let src_in = tile.input("src_in", 8);
        let sink_out = tile.output("sink_out", 8);
        let src_out = tile.output("src_out", 8);
        let x = tile.reg("x", 8, 1);
        tile.connect_sig(&sink_out, &x.add(&sink_in)); // adder P
        tile.connect_sig(&src_out, &x);
        tile.connect_sig(&x, &src_in);
        let tile = tile.finish();

        let mut top = ModuleBuilder::new("Soc");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("t", "Fig2Side");
        let y = top.reg("y", 8, 2);
        // Rest's source output feeds the tile's comb logic...
        top.connect_inst("t", "sink_in", &y);
        // ...and the rest's own adder (sink output) depends on the tile's
        // *register-driven* output, keeping the chain within two crossings.
        let t_src = top.inst_port("t", "src_out");
        top.connect_inst("t", "src_in", &y.add(&t_src)); // adder Q
        let t_snk = top.inst_port("t", "sink_out");
        top.connect_sig(&y, &t_snk.xor(&i));
        top.connect_sig(&o, &y);
        let c = Circuit::from_modules("Soc", vec![top.finish(), tile], "Soc");

        let spec = PartitionSpec {
            mode: PartitionMode::Exact,
            channel_policy: ChannelPolicy::Monolithic,
            groups: vec![PartitionGroup::instances("t", vec!["t".into()])],
        };
        let design = compile(&c, &spec).unwrap();
        let mut sim = SimBuilder::new(&design)
            .deadlock_horizon(200)
            .build()
            .unwrap();
        let err = sim.run_target_cycles(10).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");

        // Separated channels simulate the same design fine.
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances("t", vec!["t".into()])]);
        let design = compile(&c, &spec).unwrap();
        let mut sim = SimBuilder::new(&design).build().unwrap();
        sim.run_target_cycles(10).unwrap();
    }

    #[test]
    fn higher_bitstream_frequency_is_faster() {
        let c = soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tile",
            vec!["tile0".into()],
        )]);
        let design = compile(&c, &spec).unwrap();
        let rate = |mhz: f64| {
            let mut sim = SimBuilder::new(&design).clock_mhz(mhz).build().unwrap();
            sim.run_target_cycles(300).unwrap().target_mhz()
        };
        assert!(rate(90.0) > rate(10.0));
    }

    #[test]
    fn node_target_cycles_tracks_members() {
        let c = soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tile",
            vec!["tile0".into()],
        )]);
        let design = compile(&c, &spec).unwrap();
        let mut sim = SimBuilder::new(&design).build().unwrap();
        sim.run_target_cycles(25).unwrap();
        // Every node is at or past the global minimum.
        let min = sim.target_cycles();
        assert!(min >= 25);
        for n in 0..2 {
            assert!(sim.node_target_cycles(n) >= min);
            assert!(
                sim.node_target_cycles(n) <= min + 4,
                "nodes stay in lockstep"
            );
        }
    }

    #[test]
    fn channel_capacity_changes_rate_not_results() {
        let c = soc();
        let run = |cap: usize| {
            let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
                "tile",
                vec!["tile0".into()],
            )]);
            let design = compile(&c, &spec).unwrap();
            let bridge = ScriptBridge::new(|_| {
                let mut m = std::collections::BTreeMap::new();
                m.insert("i".to_string(), Bits::from_u64(3, 8));
                m
            })
            .recording();
            let mut sim = SimBuilder::new(&design)
                .channel_capacity(cap)
                .bridge(1, Box::new(bridge))
                .build()
                .unwrap();
            sim.run_target_cycles(40).unwrap();
            let b = sim
                .bridge_mut(1)
                .as_any()
                .downcast_mut::<ScriptBridge>()
                .unwrap();
            let mut vals: Vec<(u64, u64)> = b
                .log()
                .iter()
                .filter_map(|t| t.values.get("o").map(|v| (t.cycle, v.to_u64())))
                .collect();
            vals.sort_unstable();
            vals.truncate(40);
            vals
        };
        // Queue depth is a host-side implementation detail: target-visible
        // traces must be identical.
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn per_link_transport_override() {
        let c = soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tile",
            vec!["tile0".into()],
        )]);
        let design = compile(&c, &spec).unwrap();
        // Cripple one direction with host-managed PCIe: the whole system
        // slows to that link's pace.
        let mut slow = SimBuilder::new(&design)
            .transport(LinkModel::qsfp_aurora())
            .link_transport(0, LinkModel::host_pcie())
            .build()
            .unwrap();
        let mut fast = SimBuilder::new(&design)
            .transport(LinkModel::qsfp_aurora())
            .build()
            .unwrap();
        let r_slow = slow.run_target_cycles(30).unwrap().target_mhz();
        let r_fast = fast.run_target_cycles(30).unwrap().target_mhz();
        assert!(r_fast > 5.0 * r_slow, "fast {r_fast} vs slow {r_slow}");
    }

    #[test]
    fn faster_transport_is_faster() {
        let c = soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tile",
            vec!["tile0".into()],
        )]);
        let design = compile(&c, &spec).unwrap();
        let rate = |m: LinkModel| {
            let mut sim = SimBuilder::new(&design).transport(m).build().unwrap();
            sim.run_target_cycles(200).unwrap().target_mhz()
        };
        let qsfp = rate(LinkModel::qsfp_aurora());
        let pcie = rate(LinkModel::peer_pcie());
        let host = rate(LinkModel::host_pcie());
        assert!(qsfp > pcie);
        assert!(pcie > host);
    }

    /// One cut per partition of `design`, cut from a whole-design build
    /// observed under `obs` (the coordinator's passive build).
    fn cut_set(design: &PartitionedDesign, obs: ObsSpec) -> Vec<PartitionCut> {
        let sim = SimBuilder::new(design).observe(obs).build().unwrap();
        (0..design.partitions.len())
            .map(|p| PartitionCut::of(design, &sim, p))
            .collect()
    }

    #[test]
    fn a_complete_cut_set_builds_what_the_whole_design_builds() {
        let obs = ObsSpec {
            sample_interval: 0,
            vcd: true,
            signals: Vec::new(),
        };
        for mode in [PartitionMode::Exact, PartitionMode::Fast] {
            let spec = PartitionSpec {
                mode,
                channel_policy: ChannelPolicy::Separated,
                groups: vec![PartitionGroup::instances("tile", vec!["tile0".into()])],
            };
            let design = compile(&soc(), &spec).unwrap();
            let cuts = cut_set(&design, obs.clone());
            let rest = design.node_index(1, 0);
            // Cycle-0 blobs, then 40 cycles: node digests, VCD, and on the
            // deterministic backend the blobs again.
            let run = |builder: SimBuilder<'_>, backend: Backend| {
                let bridge = ScriptBridge::new(|cycle| {
                    let mut m = BTreeMap::new();
                    m.insert("i".to_string(), Bits::from_u64(cycle % 251, 8));
                    m
                });
                let mut sim = builder
                    .backend(backend)
                    .observe(obs.clone())
                    .bridge(rest, Box::new(bridge))
                    .build()
                    .unwrap();
                let blobs = |sim: &DistributedSim| {
                    (0..2)
                        .map(|p| sim.snapshot_partition_bytes(p).unwrap())
                        .collect::<Vec<_>>()
                };
                let at_0 = blobs(&sim);
                let cycles = sim.run_target_cycles(40).unwrap().target_cycles;
                let digests: Vec<u64> = (0..2).map(|n| sim.node_state_digest(n)).collect();
                let at_40 = (backend == Backend::Des).then(|| blobs(&sim));
                (at_0, cycles, digests, at_40, sim.obs_report().vcd)
            };
            for backend in [Backend::Des, Backend::Threads(2)] {
                assert_eq!(
                    run(SimBuilder::for_partitions(&cuts), backend),
                    run(SimBuilder::new(&design), backend),
                    "{mode:?} on {backend}"
                );
            }
            let err = SimBuilder::for_partitions(&cuts[..1])
                .backend(Backend::Des)
                .build()
                .unwrap_err();
            assert!(
                matches!(&err, SimError::Config { message }
                    if message.contains("partition 1 ") && message.contains("`des`")),
                "{mode:?}: got {err}"
            );
        }
    }

    /// Three partitions: tile `a` (register from 3), tile `b` (register
    /// from 7) and the hub feeding both, so the tiles differ from cycle 0.
    fn three_way() -> PartitionedDesign {
        let tile = |name: &str, init: u64| {
            let mut m = ModuleBuilder::new(name);
            let req = m.input("req", 8);
            let rsp = m.output("rsp", 8);
            let acc = m.reg("acc", 8, init);
            m.connect_sig(&acc, &acc.add(&req));
            m.connect_sig(&rsp, &acc);
            m.finish()
        };
        let mut top = ModuleBuilder::new("Soc");
        let o = top.output("o", 8);
        top.inst("a", "TileA");
        top.inst("b", "TileB");
        let hub = top.reg("hub", 8, 1);
        top.connect_inst("a", "req", &hub);
        top.connect_inst("b", "req", &hub);
        let rsp = top.inst_port("a", "rsp").xor(&top.inst_port("b", "rsp"));
        top.connect_sig(&hub, &rsp);
        top.connect_sig(&o, &hub);
        let modules = vec![top.finish(), tile("TileA", 3), tile("TileB", 7)];
        let spec = PartitionSpec::exact(vec![
            PartitionGroup::instances("a", vec!["a".into()]),
            PartitionGroup::instances("b", vec!["b".into()]),
        ]);
        compile(&Circuit::from_modules("Soc", modules, "Soc"), &spec).unwrap()
    }

    #[test]
    fn a_partition_build_addresses_nodes_by_flat_index() {
        let design = three_way();
        let whole = SimBuilder::new(&design).build().unwrap();
        let cuts = cut_set(&design, ObsSpec::default());
        let sim = SimBuilder::for_partitions(&cuts[1..2])
            .backend(Backend::Net)
            .build()
            .unwrap();
        let n = design.node_index(1, 0);
        let name = &design.partitions[1].threads[0].name;
        assert_eq!(sim.node_count(), 3);
        assert_eq!(sim.node_index_by_name(name), Some(n));
        assert_eq!(sim.node_index_by_name(&whole.node_names()[0]), Some(0));
        assert_eq!(sim.target(n).output_ports(), whole.target(n).output_ports());
        assert_eq!(sim.node_target_cycles(n), whole.node_target_cycles(n));
        assert_eq!(sim.node_state_digest(n), whole.node_state_digest(n));
        // Tile `b`'s register, not tile `a`'s (3).
        assert_eq!(sim.target(n).peek_path("b.acc"), Some(Bits::from_u64(7, 8)));
        assert_eq!(
            sim.peek_signal(&format!("{name}:b.acc")).unwrap(),
            Bits::from_u64(7, 8)
        );
        assert_eq!(sim.peek_signal("b.acc").unwrap(), Bits::from_u64(7, 8));
        assert_eq!(sim.verify_token_conservation(), Ok(()));
        for other in [0, 2] {
            let read = std::panic::AssertUnwindSafe(|| sim.node_target_cycles(other));
            let panic = std::panic::catch_unwind(read).unwrap_err();
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some(format!("node {other} is not built in this process").as_str())
            );
        }
    }

    #[test]
    fn a_token_staged_on_a_waiting_node_is_serviced_on_its_next_edge() {
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tile",
            vec!["tile0".into()],
        )]);
        let design = compile(&soc(), &spec).unwrap();
        let mut sim = SimBuilder::new(&design)
            .transport(LinkModel::qsfp_aurora())
            .build()
            .unwrap();
        // Step until some node sits out its edges waiting on a delivery.
        let n = loop {
            sim.step_one_edge().unwrap();
            if let Some(n) = (0..sim.nodes.len()).find(|&n| sim.nodes[n].wake_ps > sim.time_ps) {
                break n;
            }
        };
        let link = sim.links.iter().position(|l| l.spec.to_node == n).unwrap();
        let width = u32::try_from(sim.links[link].spec.width).unwrap();
        let before = sim.node_counters(n);
        sim.stage_link_token(link, Bits::zero(width));
        while sim.node_counters(n).host_cycles == before.host_cycles {
            sim.step_one_edge().unwrap();
        }
        assert!(
            sim.node_counters(n).tokens_enqueued > before.tokens_enqueued,
            "node {n} was charged an idle edge with a token staged"
        );
    }

    #[test]
    fn bridge_on_nonexistent_node_is_a_config_error() {
        let c = soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tile",
            vec!["tile0".into()],
        )]);
        let design = compile(&c, &spec).unwrap();
        let (n_links, cuts) = (design.links.len(), cut_set(&design, ObsSpec::default()));
        // An index past the cut, on a whole-design build and on a set:
        // (what the message names, the count it gives, the builder).
        type Case<'a> = (
            String,
            usize,
            Box<dyn Fn(SimBuilder<'a>) -> SimBuilder<'a> + 'a>,
        );
        let cases: Vec<Case<'_>> = vec![
            (
                "node 99".into(),
                2,
                Box::new(|b| b.bridge(99, Box::new(ScriptBridge::new(|_| Default::default())))),
            ),
            (
                "partition 2".into(),
                2,
                Box::new(|b| b.partition_clock_mhz(2, 10.0)),
            ),
            (
                format!("link {n_links}"),
                n_links,
                Box::new(move |b| b.link_transport(n_links, LinkModel::loopback())),
            ),
        ];
        for (what, count, configure) in &cases {
            for builder in [SimBuilder::new(&design), SimBuilder::for_partitions(&cuts)] {
                let err = configure(builder.backend(Backend::Des))
                    .build()
                    .unwrap_err();
                assert!(
                    matches!(&err, SimError::Config { message }
                        if message.contains(what.as_str())
                            && message.contains(&format!("the cut has {count} "))),
                    "{what}: got {err}"
                );
            }
        }
    }

    #[test]
    fn empty_design_run_is_a_config_error_on_both_backends() {
        let design = fireaxe_ripper::PartitionedDesign {
            partitions: Vec::new(),
            links: Vec::new(),
            mode: PartitionMode::Exact,
            report: Default::default(),
        };
        for backend in [Backend::Des, Backend::Threads(0)] {
            let mut sim = SimBuilder::new(&design).backend(backend).build().unwrap();
            let err = sim.run_target_cycles(5).unwrap_err();
            assert!(matches!(err, SimError::Config { .. }), "{backend:?}: {err}");
        }
    }

    #[test]
    fn corrupt_link_index_is_a_config_error() {
        let c = soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tile",
            vec!["tile0".into()],
        )]);
        let mut design = compile(&c, &spec).unwrap();
        design.links[0].to_node = 42;
        let err = SimBuilder::new(&design).build().unwrap_err();
        assert!(
            matches!(&err, SimError::Config { message } if message.contains("to-node")),
            "got {err}"
        );
    }
}
