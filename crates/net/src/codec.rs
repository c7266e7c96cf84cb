//! The length-prefixed binary wire protocol.
//!
//! Every message on a coordinator↔worker connection is `u32` big-endian
//! payload length followed by the payload; the payload's first byte is
//! the message tag. Integers are big-endian; token payload words ride
//! in the [`Frame`] byte encoding (little-endian words, matching the
//! in-memory layout the reliability layer CRCs). The protocol is
//! versioned by [`PROTOCOL_VERSION`], checked during the
//! [`Msg::Hello`]/[`Msg::HelloAck`] handshake before anything
//! version-dependent is parsed.
//!
//! Decoding is defensive: lengths are bounded by [`MAX_MSG_LEN`],
//! collection counts are validated against the bytes actually present,
//! and a [`Msg::Token`] whose frame bytes no longer parse (a fault
//! proxy or a real flaky wire can damage them) degrades to
//! [`Msg::CorruptToken`] so the receiver counts a CRC casualty and
//! waits for the retransmission instead of tearing the session down.

use fireaxe_ir::Bits;
use fireaxe_obs::{EventKind, Fnv1a, NodeSample, OwnedTraceEvent, VcdSignal};
use fireaxe_ripper::{
    ChannelPolicy, LinkSpec, PartitionGroup, PartitionMode, PartitionSpec, Selection,
};
use fireaxe_sim::{LinkCounters, NetAccess, NodeCounters};
use fireaxe_transport::reliable::{Frame, RetryPolicy};
use fireaxe_transport::{LinkModel, TransportKind};
use std::io::{self, Read, Write};

/// Protocol magic: `FAXN` as a big-endian word.
pub const PROTOCOL_MAGIC: u32 = 0x4641_584e;

/// Wire protocol version; bumped on any incompatible change.
/// v2: [`Msg::TokenBatch`] and the `batch_cycles`/`slack_cycles`
/// pacing knobs in [`WireSettings`].
/// v3: coordinated cluster checkpointing and worker failover —
/// [`Msg::Barrier`], [`Msg::TakeCheckpoint`], [`Msg::Checkpoint`],
/// [`Msg::CheckpointAck`], [`Msg::Rewind`], [`Msg::RewindAck`],
/// [`Msg::Restore`], [`Msg::Resume`], and the `checkpoint_interval`
/// knob in [`WireSettings`].
/// v4: the live-cockpit control plane — [`Msg::Attach`],
/// [`Msg::AttachAck`], [`Msg::Detach`], [`Msg::Pause`],
/// [`Msg::PauseAck`], [`Msg::Step`], [`Msg::ResumeRun`], [`Msg::Peek`],
/// [`Msg::PeekReply`], [`Msg::Poke`], [`Msg::PokeAck`],
/// [`Msg::Subscribe`], [`Msg::WaveDelta`], [`Msg::MetricDelta`],
/// [`Msg::SnapshotNow`], [`Msg::SnapshotDone`], [`Msg::Status`], and
/// [`Msg::StatusReply`].
/// v5: the job server — worker pooling ([`Msg::ResetToIdle`],
/// [`Msg::IdleAck`]), the job control plane ([`Msg::SubmitJob`],
/// [`Msg::JobAccepted`], [`Msg::JobStatus`], [`Msg::JobStatusReply`],
/// [`Msg::JobResult`], [`Msg::CancelJob`], [`Msg::EvictJob`]), and the
/// binary circuit tape in [`Topology`].
/// v6: [`Topology`] carries the circuit once, as the tape; the printed
/// text is gone.
/// v7: [`Topology`] carries the receiving worker's partition payload
/// (see [`crate::payload`]) in place of the monolithic tape and the
/// partition spec, and [`Msg::Ready`] digests that worker's own build
/// (see [`partition_digest`]).
pub const PROTOCOL_VERSION: u32 = 7;

/// Upper bound on a single message payload (the topology message
/// carries a partition's circuit tapes; token messages are tiny).
pub const MAX_MSG_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------
// Primitive encoders/decoders.
// ---------------------------------------------------------------------

fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(b: &mut Vec<u8>, v: f64) {
    put_u64(b, v.to_bits());
}

fn put_bool(b: &mut Vec<u8>, v: bool) {
    put_u8(b, u8::from(v));
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

fn put_bits(b: &mut Vec<u8>, v: &Bits) {
    put_u32(b, v.width().get());
    for w in v.as_words() {
        b.extend_from_slice(&w.to_le_bytes());
    }
}

/// Cursor over a received payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecResult<T> = std::result::Result<T, String>;

impl<'a> Dec<'a> {
    /// Starts decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "message truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> DecResult<bool> {
        Ok(self.u8()? != 0)
    }

    fn str(&mut self) -> DecResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }

    /// Validates a collection count against the bytes left, where each
    /// element needs at least `min_elem_bytes` bytes.
    fn count(&mut self, min_elem_bytes: usize) -> DecResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(format!("collection count {n} exceeds message size"));
        }
        Ok(n)
    }

    fn bits(&mut self) -> DecResult<Bits> {
        let width = self.u32()?;
        if width == 0 || width > (1 << 20) {
            return Err(format!("bad payload width {width}"));
        }
        let words = (width as usize).div_ceil(64);
        let mut ws = Vec::with_capacity(words);
        for _ in 0..words {
            ws.push(u64::from_le_bytes(self.take(8)?.try_into().unwrap()));
        }
        let v = Bits::from_words(&ws, width);
        if v.as_words() != ws.as_slice() {
            return Err("payload sets bits above its declared width".to_string());
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Protocol structures.
// ---------------------------------------------------------------------

/// Everything a worker needs to build its share of the simulation,
/// shipped in [`Msg::Topology`]: its partition of the coordinator's
/// FireRipper output, never the whole design.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The receiving worker's index == the partition it owns.
    pub worker: u32,
    /// Total workers in the cluster (== partition count).
    pub n_workers: u32,
    /// Engine settings the whole cluster must agree on.
    pub settings: WireSettings,
    /// The worker's partition and the cut-wide tables, encoded by
    /// [`crate::payload::encode_partition_payload`].
    pub payload: Vec<u8>,
}

impl Topology {
    /// The hash a pooled worker keys a kept partition build by: the
    /// payload (which names its partition) and everything else that
    /// determines the build. Process-local: the value never crosses the
    /// wire.
    pub(crate) fn cache_key(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u32(self.n_workers);
        let mut settings = Vec::new();
        put_settings(&mut settings, &self.settings);
        for bytes in [&self.payload, &settings] {
            h.write_usize(bytes.len());
            h.write(bytes);
        }
        h.finish()
    }
}

/// Cluster-wide engine settings (the subset of `SimBuilder` knobs that
/// must match across processes for bit-exact parity), plus the net
/// backend's own pacing knobs.
#[derive(Debug, Clone)]
pub struct WireSettings {
    /// Transport model for links without an override.
    pub default_transport: LinkModel,
    /// Per-link transport overrides.
    pub link_transports: Vec<(u32, LinkModel)>,
    /// Default bitstream clock, MHz.
    pub clock_mhz: f64,
    /// Per-partition clock overrides, MHz.
    pub partition_clocks: Vec<(u32, f64)>,
    /// LI-BDN channel capacity.
    pub channel_capacity: u64,
    /// Deadlock horizon in host edges.
    pub deadlock_horizon: u64,
    /// Retry/backoff knobs for the socket go-back-N protocol (the
    /// protocol itself is always on for net links).
    pub retry: RetryPolicy,
    /// Metric sampling cadence in target cycles (0 = off).
    pub sample_interval: u64,
    /// Capture VCD changes.
    pub vcd: bool,
    /// VCD watch list (empty = every node's output ports).
    pub signals: Vec<String>,
    /// Target cycles between worker [`Msg::Progress`] reports.
    pub progress_interval: u64,
    /// Silence budget: a peer that sends nothing for this long while
    /// the run is incomplete trips `SimError::NetTimeout`.
    pub io_timeout_ms: u64,
    /// Target cycles of tokens packed per link into one
    /// [`Msg::TokenBatch`] before it is flushed to the wire (quiescence
    /// always flushes early, so small runs never stall). Clamped to
    /// `1..=INITIAL_CREDITS`.
    pub batch_cycles: u64,
    /// Lookahead window: how many target cycles a partition may run
    /// ahead of its slowest inbound link (the paper's fast-mode
    /// analogue). Bounds LI-BDN queue deepening; clamped to
    /// `batch_cycles..=INITIAL_CREDITS` so the credit window still caps
    /// runahead.
    pub slack_cycles: u64,
    /// Target cycles between coordinated cluster checkpoints (0 = no
    /// checkpointing, and therefore no crash recovery). Every worker
    /// stops at each multiple of this interval, reaches link
    /// quiescence, and ships a portable state blob to the coordinator
    /// (see `fireaxe-net`'s failure-model docs).
    pub checkpoint_interval: u64,
}

impl Default for WireSettings {
    fn default() -> Self {
        WireSettings {
            default_transport: LinkModel::qsfp_aurora(),
            link_transports: Vec::new(),
            clock_mhz: 30.0,
            partition_clocks: Vec::new(),
            channel_capacity: fireaxe_libdn::DEFAULT_CHANNEL_CAPACITY as u64,
            deadlock_horizon: 100_000,
            retry: RetryPolicy::default(),
            sample_interval: 0,
            vcd: false,
            signals: Vec::new(),
            progress_interval: 256,
            io_timeout_ms: 10_000,
            batch_cycles: 8,
            slack_cycles: crate::flow::INITIAL_CREDITS as u64,
            checkpoint_interval: 0,
        }
    }
}

impl WireSettings {
    /// `batch_cycles` clamped to the credit window (at least 1).
    pub fn effective_batch(&self) -> usize {
        self.batch_cycles
            .clamp(1, crate::flow::INITIAL_CREDITS as u64) as usize
    }

    /// `slack_cycles` clamped between the batch size and the credit
    /// window: a partition must be able to buffer at least one full
    /// batch, and may never outrun flow control.
    pub fn effective_slack(&self) -> usize {
        (self.slack_cycles as usize)
            .max(self.effective_batch())
            .min(crate::flow::INITIAL_CREDITS as usize)
    }
}

/// One worker's end-of-run report: everything the coordinator folds
/// into the merged `SimMetrics`, metric series, VCD and Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct WireReport {
    /// Reporting worker.
    pub worker: u32,
    /// Per owned node: counters, metric samples, VCD changes.
    pub nodes: Vec<NodeReport>,
    /// Per touched link: this side's counter contributions.
    pub links: Vec<LinkReport>,
    /// This process's trace events.
    pub traces: Vec<OwnedTraceEvent>,
}

/// One owned node's report.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Flat node index.
    pub node: u32,
    /// Execution counters.
    pub counters: NodeCounters,
    /// Metric samples in cycle order.
    pub samples: Vec<NodeSample>,
    /// VCD changes `(cycle, signal, value)`.
    pub vcd: Vec<(u64, u32, Bits)>,
}

/// One link's counter contributions from one side. Sender-owned fields
/// (tokens, sent/retransmitted frames, timeouts) and receiver-owned
/// fields (CRC failures, duplicates) are disjoint, so the coordinator
/// folds reports by summing fieldwise.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Link index.
    pub link: u32,
    /// Fresh tokens committed (sender side).
    pub tokens: u64,
    /// Reliability counters.
    pub counters: LinkCounters,
}

/// One node's identity and progress as reported to an attached client
/// in [`Msg::AttachAck`] and [`Msg::StatusReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Flat node index (the control plane's peek/poke address space).
    pub node: u32,
    /// Node name.
    pub name: String,
    /// Owning partition (== worker index).
    pub partition: u32,
    /// Completed target cycles at send time.
    pub cycle: u64,
}

/// [`JobInfo::state`]/[`Msg::JobResult`] outcome: queued, waiting for
/// workers or quota headroom.
pub const JOB_QUEUED: u8 = 0;
/// [`JobInfo::state`]: placed on workers and running.
pub const JOB_RUNNING: u8 = 1;
/// [`JobInfo::state`]/outcome: ran to its full budget.
pub const JOB_DONE: u8 = 2;
/// [`JobInfo::state`]/outcome: evicted (quota clamp, operator
/// [`Msg::EvictJob`], or [`Msg::CancelJob`]) — the result still carries
/// the partial metrics of the cycles that did run.
pub const JOB_EVICTED: u8 = 3;
/// [`JobInfo::state`]/outcome: failed with a simulation or
/// infrastructure error.
pub const JOB_FAILED: u8 = 4;

/// [`Msg::SubmitJob`] backend selector: schedule onto pooled net
/// workers.
pub const BACKEND_NET: u8 = 0;
/// [`Msg::SubmitJob`] backend selector: run in-process on the server's
/// threaded backend (same scheduler, no worker placement).
pub const BACKEND_THREADS: u8 = 1;

/// One job's identity and progress as reported in
/// [`Msg::JobStatusReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// Server-assigned job id.
    pub job: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Lifecycle state ([`JOB_QUEUED`]..[`JOB_FAILED`]).
    pub state: u8,
    /// Requested backend ([`BACKEND_NET`]/[`BACKEND_THREADS`]).
    pub backend: u8,
    /// Requested target-cycle budget (post-quota-clamp).
    pub budget: u64,
    /// Completed target cycles at send time.
    pub cycle: u64,
    /// Whether admission hit the tape cache.
    pub cache_hit: bool,
    /// Workers placed (0 while queued / for threads jobs).
    pub workers: u32,
}

/// Server-wide tape-cache and worker-pool statistics, shipped in
/// [`Msg::JobStatusReply`] (the same counters back the server's
/// `fireaxe-obs` metrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Admissions that reused a cached compiled design.
    pub cache_hits: u64,
    /// Admissions that compiled from scratch.
    pub cache_misses: u64,
    /// Designs currently cached.
    pub cache_entries: u32,
    /// Designs evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Pooled workers currently idle.
    pub pool_idle: u32,
    /// Pooled workers currently leased to jobs.
    pub pool_busy: u32,
}

/// [`Msg::Fatal`] code: generic simulation failure (message carries the
/// rendered error).
pub const FATAL_SIM: u8 = 0;
/// [`Msg::Fatal`] code: a link's retry budget ran dry (`link` and
/// `attempts` are meaningful).
pub const FATAL_LINK_DOWN: u8 = 1;

/// A wire protocol message.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Coordinator → worker: protocol identification.
    Hello {
        /// [`PROTOCOL_MAGIC`].
        magic: u32,
        /// Sender's [`PROTOCOL_VERSION`].
        version: u32,
        /// The worker index this connection is for.
        worker: u32,
    },
    /// Worker → coordinator: handshake response.
    HelloAck {
        /// [`PROTOCOL_MAGIC`].
        magic: u32,
        /// Responder's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Coordinator → worker: build your share of the simulation.
    Topology(Box<Topology>),
    /// Worker → coordinator: built; `design_digest` must match the
    /// coordinator's digest of the same partition (see
    /// [`partition_digest`]).
    Ready {
        /// Digest over the worker's nodes, their port tables and the
        /// link table.
        design_digest: u64,
    },
    /// Coordinator → worker: run to exactly `budget` target cycles.
    Run {
        /// Target-cycle budget.
        budget: u64,
    },
    /// A sealed token frame on a cross-worker link (sender → coordinator
    /// → receiving worker).
    Token {
        /// Link index.
        link: u32,
        /// The sealed go-back-N frame.
        frame: Frame,
    },
    /// Several consecutive target cycles' worth of sealed token frames
    /// for one link, packed into a single wire message (sender →
    /// coordinator → receiving worker). Frames ride back-to-back in
    /// sequence order; the receiver acknowledges once, cumulatively,
    /// after staging the whole batch. Semantically identical to the
    /// same frames sent as individual [`Msg::Token`]s — batching only
    /// amortizes round trips and syscalls.
    TokenBatch {
        /// Link index.
        link: u32,
        /// The sealed frames, in ascending sequence order.
        frames: Vec<Frame>,
    },
    /// Decode-side stand-in for a [`Msg::Token`] whose frame bytes were
    /// damaged in flight: the link index survived but the frame did not.
    /// Counted as a CRC casualty; the sender's timeout recovers.
    CorruptToken {
        /// Link index.
        link: u32,
    },
    /// Cumulative acknowledgment for a link (receiver → sender).
    Ack {
        /// Link index.
        link: u32,
        /// Next expected sequence number.
        ack: u64,
    },
    /// Flow-control credits returned as the receiver's LI-BDN queue
    /// consumes staged tokens (receiver → sender).
    Credit {
        /// Link index.
        link: u32,
        /// Tokens consumed since the last credit message.
        amount: u32,
    },
    /// Worker → coordinator: lowest owned-node target cycle, sent every
    /// `progress_interval` cycles (feeds stall forensics).
    Progress {
        /// Minimum completed target cycle across owned nodes.
        cycle: u64,
    },
    /// Worker → coordinator: every owned node reached the budget and
    /// every outbound frame is acknowledged.
    Done {
        /// The completed budget.
        cycle: u64,
    },
    /// Coordinator → worker: the whole cluster is done; send your
    /// report.
    Finish,
    /// Worker → coordinator: end-of-run report.
    Report(Box<WireReport>),
    /// Coordinator → worker: tear down and exit cleanly.
    Shutdown,
    /// Worker → coordinator: unrecoverable failure ([`FATAL_SIM`],
    /// [`FATAL_LINK_DOWN`]).
    Fatal {
        /// Failure class.
        code: u8,
        /// Failing link ([`FATAL_LINK_DOWN`] only).
        link: u32,
        /// Delivery attempts spent ([`FATAL_LINK_DOWN`] only).
        attempts: u32,
        /// Rendered error.
        message: String,
    },
    /// Worker → coordinator: every owned node stopped exactly at the
    /// checkpoint barrier `cycle` and every outbound frame is
    /// acknowledged (link quiescence). The worker then waits for
    /// [`Msg::TakeCheckpoint`] — the two-phase handoff guarantees no
    /// relayed frame is still in flight toward any worker when state is
    /// captured.
    Barrier {
        /// Recovery epoch the worker believes it is in.
        epoch: u32,
        /// The barrier cycle (a multiple of `checkpoint_interval`).
        cycle: u64,
    },
    /// Coordinator → workers: the whole cluster is quiescent at the
    /// barrier; capture your partition's portable state now.
    TakeCheckpoint {
        /// Current recovery epoch.
        epoch: u32,
        /// The barrier cycle.
        cycle: u64,
    },
    /// Worker → coordinator: the partition's portable state blob (see
    /// `DistributedSim::snapshot_partition_bytes` plus the net layer's
    /// flow marks). The worker keeps a local copy to rewind from.
    Checkpoint {
        /// Current recovery epoch.
        epoch: u32,
        /// The barrier cycle the blob was captured at.
        cycle: u64,
        /// The portable state blob.
        blob: Vec<u8>,
    },
    /// Coordinator → workers: every worker's blob arrived; the
    /// checkpoint set is durable. Resume running.
    CheckpointAck {
        /// Current recovery epoch.
        epoch: u32,
        /// The acknowledged barrier cycle.
        cycle: u64,
    },
    /// Coordinator → surviving workers: a peer died; rewind to the last
    /// complete checkpoint at `cycle` and enter recovery epoch `epoch`.
    /// The survivor restores from its locally kept blob, resyncs every
    /// link endpoint, and answers [`Msg::RewindAck`] — *without*
    /// stepping — until [`Msg::Resume`] arrives.
    Rewind {
        /// The new (incremented) recovery epoch.
        epoch: u32,
        /// The checkpoint cycle to rewind to.
        cycle: u64,
    },
    /// Worker → coordinator: rewound and holding at `cycle`.
    RewindAck {
        /// The recovery epoch being acknowledged.
        epoch: u32,
        /// The cycle the worker rewound to.
        cycle: u64,
    },
    /// Coordinator → a freshly respawned worker: adopt this checkpoint
    /// blob (captured by your predecessor at `cycle`) before running.
    Restore {
        /// Current recovery epoch.
        epoch: u32,
        /// The checkpoint cycle the blob was captured at.
        cycle: u64,
        /// The portable state blob.
        blob: Vec<u8>,
    },
    /// Coordinator → workers: recovery is complete (every survivor
    /// rewound and the replacement is in place); resume running toward
    /// the budget.
    Resume {
        /// Current recovery epoch.
        epoch: u32,
        /// The cycle the cluster is resuming from.
        cycle: u64,
    },

    // -- Control plane (v4): the live cockpit. Clients speak these to
    // the coordinator's control listener; the coordinator forwards the
    // worker-facing subset over the existing worker connections.
    /// Client → coordinator: attach a cockpit session.
    Attach {
        /// [`PROTOCOL_MAGIC`].
        magic: u32,
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Coordinator → client: attach accepted; the cluster's node table
    /// and shared VCD signal table (the peek/poke and wave-stream
    /// address spaces).
    AttachAck {
        /// Every node with identity and current progress.
        nodes: Vec<NodeInfo>,
        /// The global VCD signal table (empty when capture is off).
        signals: Vec<VcdSignal>,
        /// Metric sampling cadence in target cycles (0 = off).
        sample_interval: u64,
    },
    /// Client → coordinator: end the cockpit session (the run
    /// continues; a pause fence left standing is lifted).
    Detach,
    /// Pause request. Client → coordinator with `cycle == 0` ("pick the
    /// nearest safe fence"); coordinator → workers with the concrete
    /// fence cycle every partition must stop at. Workers stop *exactly*
    /// at the fence — the same deterministic cycle-boundary sampling
    /// point budgets and checkpoint barriers use — so peeks, pokes, and
    /// digests taken while paused are cycle-exact.
    Pause {
        /// Fence target cycle (0 in the client request form).
        cycle: u64,
    },
    /// Worker → coordinator: every owned node sits exactly at the fence
    /// and all outbound frames are acknowledged. Coordinator → client:
    /// the whole cluster is paused at `cycle`.
    PauseAck {
        /// The fence cycle reached.
        cycle: u64,
    },
    /// Client → coordinator: advance the paused cluster exactly `n`
    /// target cycles, then pause again (implemented as a fence move).
    Step {
        /// Cycles to advance.
        n: u64,
    },
    /// Resume after a pause: client → coordinator, coordinator →
    /// workers (lifts the fence; the run continues toward its budget).
    ResumeRun,
    /// Peek a signal: client → coordinator → owning worker.
    Peek {
        /// Flat node index (from [`Msg::AttachAck`]).
        node: u32,
        /// Hierarchical signal path inside the node.
        path: String,
    },
    /// Peek answer: worker → coordinator → client.
    PeekReply {
        /// Flat node index.
        node: u32,
        /// The peeked path.
        path: String,
        /// The node's completed target cycle when the value was read.
        cycle: u64,
        /// The value, or `None` when the path names no signal.
        value: Option<Bits>,
    },
    /// Poke a top-level input port: client → coordinator → owning
    /// worker. Applied at the node's next target-cycle advance (see
    /// `LiBdn::poke_input_next_cycle` for the determinism argument).
    Poke {
        /// Flat node index.
        node: u32,
        /// Input-port path inside the node.
        path: String,
        /// The value to drive.
        value: u64,
    },
    /// Poke outcome: worker → coordinator → client. `error` is empty on
    /// success, otherwise the rendered field-named `IrError`
    /// (`UnknownSignal`/`NotPokeable`/`PokeWidth`).
    PokeAck {
        /// Flat node index.
        node: u32,
        /// The poked path.
        path: String,
        /// The node's completed target cycle when the poke was staged.
        cycle: u64,
        /// Empty on success, rendered error otherwise.
        error: String,
    },
    /// Subscribe to live streams: client → coordinator → workers.
    /// While subscribed, workers ship [`Msg::WaveDelta`] and
    /// [`Msg::MetricDelta`] tails alongside progress heartbeats; both
    /// streams are *clones* of the observability buffers, so the
    /// end-of-run report is unaffected.
    Subscribe {
        /// Stream waveform deltas.
        wave: bool,
        /// Stream metric samples.
        metrics: bool,
    },
    /// New waveform changes of one node since the last delta (worker →
    /// coordinator → client). Signal indices refer to the
    /// [`Msg::AttachAck`] signal table; reassembling every delta in
    /// stream order into a `VcdWriter` yields a document byte-identical
    /// to the batch end-of-run VCD.
    WaveDelta {
        /// Flat node index.
        node: u32,
        /// Changes `(cycle, signal, value)` in recording order.
        changes: Vec<(u64, u32, Bits)>,
    },
    /// New metric samples of one node since the last delta (worker →
    /// coordinator → client).
    MetricDelta {
        /// Flat node index.
        node: u32,
        /// Samples in cycle order.
        samples: Vec<NodeSample>,
    },
    /// Client → coordinator: capture a coordinated cluster checkpoint
    /// now (reuses the two-phase barrier/checkpoint machinery).
    SnapshotNow,
    /// Coordinator → client: the on-demand checkpoint set is durable.
    SnapshotDone {
        /// The barrier cycle the snapshot was captured at.
        cycle: u64,
    },
    /// Client → coordinator: report cluster progress.
    Status,
    /// Coordinator → client: per-node progress plus pause state.
    StatusReply {
        /// Every node with identity and current progress.
        nodes: Vec<NodeInfo>,
        /// Whether a pause fence is standing.
        paused: bool,
        /// The standing fence cycle (meaningful when `paused`).
        fence: u64,
    },

    // -- Job server (v5): worker pooling and the job control plane.
    /// Coordinator → worker: the job is complete (or torn down); return
    /// to the idle pool instead of exiting. The worker acknowledges
    /// with [`Msg::IdleAck`], drops every trace of the finished session
    /// (sequence counters, deferred acks, credit budgets, staged
    /// tokens), closes this connection, and listens for the next job's
    /// handshake.
    ResetToIdle,
    /// Worker → coordinator: reset complete, returning to accept. Sent
    /// immediately before the worker closes the session socket.
    IdleAck,
    /// Client → job server: run this design. The circuit rides as a
    /// binary tape (see `fireaxe_ir::tape`); its bytes — with the spec
    /// and settings — key the server's compiled-design cache.
    SubmitJob {
        /// Submitting tenant (quota accounting key; empty = default).
        tenant: String,
        /// Target-cycle budget.
        budget: u64,
        /// [`BACKEND_NET`] or [`BACKEND_THREADS`].
        backend: u8,
        /// The circuit tape.
        tape: Vec<u8>,
        /// Partition spec.
        spec: PartitionSpec,
        /// Engine settings.
        settings: WireSettings,
    },
    /// Job server → client: submission admitted and queued.
    JobAccepted {
        /// Server-assigned job id.
        job: u64,
    },
    /// Client → job server: report job status (`job == 0`: all jobs).
    JobStatus {
        /// Job id, or 0 for every job.
        job: u64,
    },
    /// Job server → client: job table plus cache/pool statistics.
    JobStatusReply {
        /// Matching jobs, in submission order.
        jobs: Vec<JobInfo>,
        /// Server-wide cache and pool counters.
        stats: ServeStats,
    },
    /// Job server → client: terminal result of a submitted job.
    JobResult {
        /// Job id.
        job: u64,
        /// [`JOB_DONE`], [`JOB_EVICTED`], or [`JOB_FAILED`].
        outcome: u8,
        /// Rendered error (empty for [`JOB_DONE`]).
        error: String,
        /// Target cycles actually completed.
        cycles: u64,
        /// Whether admission hit the tape cache.
        cache_hit: bool,
        /// Submit-to-placement-complete admission latency, µs.
        admission_micros: u64,
        /// Folded `SimMetrics`, rendered as JSON.
        metrics_json: String,
        /// Sampled `MetricsSeries` (with per-node state digests),
        /// rendered as JSON — the parity-bearing payload.
        series_json: String,
        /// Rendered VCD document (empty when capture is off).
        vcd: String,
    },
    /// Client → job server: cancel a job you submitted. A queued job is
    /// evicted immediately; a running job is torn down and reported as
    /// [`JOB_EVICTED`] with partial metrics where available.
    CancelJob {
        /// Job id.
        job: u64,
    },
    /// Operator → job server: forcibly evict any job (the
    /// quota-enforcement verb, also usable by an administrator).
    EvictJob {
        /// Job id.
        job: u64,
        /// Human-readable reason echoed into the job's result.
        reason: String,
    },
}

// ---------------------------------------------------------------------
// Structure encoders/decoders.
// ---------------------------------------------------------------------

fn put_link_model(b: &mut Vec<u8>, m: &LinkModel) {
    let kind = match m.kind {
        TransportKind::HostPcie => 0u8,
        TransportKind::PeerPcie => 1,
        TransportKind::QsfpAurora => 2,
        TransportKind::Loopback => 3,
    };
    put_u8(b, kind);
    put_u64(b, m.latency_ns);
    put_u64(b, m.beat_bits);
}

fn dec_link_model(d: &mut Dec) -> DecResult<LinkModel> {
    let kind = match d.u8()? {
        0 => TransportKind::HostPcie,
        1 => TransportKind::PeerPcie,
        2 => TransportKind::QsfpAurora,
        3 => TransportKind::Loopback,
        k => return Err(format!("unknown transport kind {k}")),
    };
    Ok(LinkModel {
        kind,
        latency_ns: d.u64()?,
        beat_bits: d.u64()?,
    })
}

fn put_spec(b: &mut Vec<u8>, spec: &PartitionSpec) {
    put_u8(b, matches!(spec.mode, PartitionMode::Fast) as u8);
    put_u8(
        b,
        matches!(spec.channel_policy, ChannelPolicy::Monolithic) as u8,
    );
    put_u32(b, spec.groups.len() as u32);
    for g in &spec.groups {
        put_str(b, &g.name);
        put_bool(b, g.fame5);
        match &g.selection {
            Selection::Instances(paths) => {
                put_u8(b, 0);
                put_u32(b, paths.len() as u32);
                for p in paths {
                    put_str(b, p);
                }
            }
            Selection::NocRouters { routers, indices } => {
                put_u8(b, 1);
                put_u32(b, routers.len() as u32);
                for r in routers {
                    put_str(b, r);
                }
                put_u32(b, indices.len() as u32);
                for i in indices {
                    put_u64(b, *i as u64);
                }
            }
        }
    }
}

fn dec_spec(d: &mut Dec) -> DecResult<PartitionSpec> {
    let mode = if d.u8()? == 0 {
        PartitionMode::Exact
    } else {
        PartitionMode::Fast
    };
    let channel_policy = if d.u8()? == 0 {
        ChannelPolicy::Separated
    } else {
        ChannelPolicy::Monolithic
    };
    let n = d.count(3)?;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let fame5 = d.bool()?;
        let selection = match d.u8()? {
            0 => {
                let k = d.count(4)?;
                let mut paths = Vec::with_capacity(k);
                for _ in 0..k {
                    paths.push(d.str()?);
                }
                Selection::Instances(paths)
            }
            1 => {
                let k = d.count(4)?;
                let mut routers = Vec::with_capacity(k);
                for _ in 0..k {
                    routers.push(d.str()?);
                }
                let k = d.count(8)?;
                let mut indices = Vec::with_capacity(k);
                for _ in 0..k {
                    indices.push(d.u64()? as usize);
                }
                Selection::NocRouters { routers, indices }
            }
            t => return Err(format!("unknown selection tag {t}")),
        };
        groups.push(PartitionGroup {
            name,
            selection,
            fame5,
        });
    }
    Ok(PartitionSpec {
        mode,
        channel_policy,
        groups,
    })
}

fn put_settings(b: &mut Vec<u8>, s: &WireSettings) {
    put_link_model(b, &s.default_transport);
    put_u32(b, s.link_transports.len() as u32);
    for (l, m) in &s.link_transports {
        put_u32(b, *l);
        put_link_model(b, m);
    }
    put_f64(b, s.clock_mhz);
    put_u32(b, s.partition_clocks.len() as u32);
    for (p, mhz) in &s.partition_clocks {
        put_u32(b, *p);
        put_f64(b, *mhz);
    }
    put_u64(b, s.channel_capacity);
    put_u64(b, s.deadlock_horizon);
    put_u32(b, s.retry.max_retries);
    put_u64(b, s.retry.timeout_cycles);
    put_u64(b, s.sample_interval);
    put_bool(b, s.vcd);
    put_u32(b, s.signals.len() as u32);
    for sig in &s.signals {
        put_str(b, sig);
    }
    put_u64(b, s.progress_interval);
    put_u64(b, s.io_timeout_ms);
    put_u64(b, s.batch_cycles);
    put_u64(b, s.slack_cycles);
    put_u64(b, s.checkpoint_interval);
}

fn dec_settings(d: &mut Dec) -> DecResult<WireSettings> {
    let default_transport = dec_link_model(d)?;
    let n = d.count(21)?;
    let mut link_transports = Vec::with_capacity(n);
    for _ in 0..n {
        let l = d.u32()?;
        link_transports.push((l, dec_link_model(d)?));
    }
    let clock_mhz = d.f64()?;
    let n = d.count(12)?;
    let mut partition_clocks = Vec::with_capacity(n);
    for _ in 0..n {
        let p = d.u32()?;
        partition_clocks.push((p, d.f64()?));
    }
    let channel_capacity = d.u64()?;
    let deadlock_horizon = d.u64()?;
    let retry = RetryPolicy {
        max_retries: d.u32()?,
        timeout_cycles: d.u64()?,
    };
    let sample_interval = d.u64()?;
    let vcd = d.bool()?;
    let n = d.count(4)?;
    let mut signals = Vec::with_capacity(n);
    for _ in 0..n {
        signals.push(d.str()?);
    }
    Ok(WireSettings {
        default_transport,
        link_transports,
        clock_mhz,
        partition_clocks,
        channel_capacity,
        deadlock_horizon,
        retry,
        sample_interval,
        vcd,
        signals,
        progress_interval: d.u64()?,
        io_timeout_ms: d.u64()?,
        batch_cycles: d.u64()?,
        slack_cycles: d.u64()?,
        checkpoint_interval: d.u64()?,
    })
}

fn put_node_counters(b: &mut Vec<u8>, c: &NodeCounters) {
    put_str(b, &c.node);
    put_u64(b, c.partition as u64);
    put_u64(b, c.tokens_enqueued);
    put_u64(b, c.tokens_dequeued);
    put_u64(b, c.input_stall_host_cycles);
    put_u64(b, c.output_stall_host_cycles);
    put_u64(b, c.host_cycles);
    put_u64(b, c.target_cycles);
}

fn dec_node_counters(d: &mut Dec) -> DecResult<NodeCounters> {
    Ok(NodeCounters {
        node: d.str()?,
        partition: d.u64()? as usize,
        tokens_enqueued: d.u64()?,
        tokens_dequeued: d.u64()?,
        input_stall_host_cycles: d.u64()?,
        output_stall_host_cycles: d.u64()?,
        host_cycles: d.u64()?,
        target_cycles: d.u64()?,
    })
}

fn put_link_counters(b: &mut Vec<u8>, c: &LinkCounters) {
    put_u64(b, c.link as u64);
    put_u64(b, c.tokens);
    put_u64(b, c.sent_frames);
    put_u64(b, c.retransmits);
    put_u64(b, c.timeout_escalations);
    put_u64(b, c.crc_failures);
    put_u64(b, c.duplicates_dropped);
    put_u64(b, c.delivery_delay_ps);
}

fn dec_link_counters(d: &mut Dec) -> DecResult<LinkCounters> {
    Ok(LinkCounters {
        link: d.u64()? as usize,
        tokens: d.u64()?,
        sent_frames: d.u64()?,
        retransmits: d.u64()?,
        timeout_escalations: d.u64()?,
        crc_failures: d.u64()?,
        duplicates_dropped: d.u64()?,
        delivery_delay_ps: d.u64()?,
    })
}

fn put_node_sample(b: &mut Vec<u8>, s: &NodeSample) {
    for v in [
        s.cycle,
        s.host_ns,
        s.time_ps,
        s.host_cycles,
        s.tokens_enqueued,
        s.tokens_dequeued,
        s.input_stall_host_cycles,
        s.output_stall_host_cycles,
        s.queue_occupancy,
        s.settle_passes,
        s.defs_run,
        s.defs_skipped,
        s.state_digest,
    ] {
        put_u64(b, v);
    }
}

fn dec_node_sample(d: &mut Dec) -> DecResult<NodeSample> {
    Ok(NodeSample {
        cycle: d.u64()?,
        host_ns: d.u64()?,
        time_ps: d.u64()?,
        host_cycles: d.u64()?,
        tokens_enqueued: d.u64()?,
        tokens_dequeued: d.u64()?,
        input_stall_host_cycles: d.u64()?,
        output_stall_host_cycles: d.u64()?,
        queue_occupancy: d.u64()?,
        settle_passes: d.u64()?,
        defs_run: d.u64()?,
        defs_skipped: d.u64()?,
        state_digest: d.u64()?,
    })
}

fn put_trace_event(b: &mut Vec<u8>, e: &OwnedTraceEvent) {
    put_str(b, &e.name);
    let kind = match e.kind {
        EventKind::SpanBegin => 0u8,
        EventKind::SpanEnd => 1,
        EventKind::Instant => 2,
        EventKind::Counter => 3,
    };
    put_u8(b, kind);
    put_u64(b, e.host_ns);
    put_u64(b, e.virt_ps);
    put_f64(b, e.value);
    put_u64(b, e.tid);
}

fn dec_trace_event(d: &mut Dec) -> DecResult<OwnedTraceEvent> {
    let name = d.str()?;
    let kind = match d.u8()? {
        0 => EventKind::SpanBegin,
        1 => EventKind::SpanEnd,
        2 => EventKind::Instant,
        3 => EventKind::Counter,
        k => return Err(format!("unknown event kind {k}")),
    };
    Ok(OwnedTraceEvent {
        name,
        kind,
        host_ns: d.u64()?,
        virt_ps: d.u64()?,
        value: d.f64()?,
        tid: d.u64()?,
    })
}

fn put_vcd_signal(b: &mut Vec<u8>, s: &VcdSignal) {
    put_str(b, &s.scope);
    put_str(b, &s.name);
    put_u32(b, s.width);
}

fn dec_vcd_signal(d: &mut Dec) -> DecResult<VcdSignal> {
    Ok(VcdSignal {
        scope: d.str()?,
        name: d.str()?,
        width: d.u32()?,
    })
}

fn put_node_info(b: &mut Vec<u8>, n: &NodeInfo) {
    put_u32(b, n.node);
    put_str(b, &n.name);
    put_u32(b, n.partition);
    put_u64(b, n.cycle);
}

fn dec_node_info(d: &mut Dec) -> DecResult<NodeInfo> {
    Ok(NodeInfo {
        node: d.u32()?,
        name: d.str()?,
        partition: d.u32()?,
        cycle: d.u64()?,
    })
}

fn put_job_info(b: &mut Vec<u8>, j: &JobInfo) {
    put_u64(b, j.job);
    put_str(b, &j.tenant);
    put_u8(b, j.state);
    put_u8(b, j.backend);
    put_u64(b, j.budget);
    put_u64(b, j.cycle);
    put_bool(b, j.cache_hit);
    put_u32(b, j.workers);
}

fn dec_job_info(d: &mut Dec) -> DecResult<JobInfo> {
    Ok(JobInfo {
        job: d.u64()?,
        tenant: d.str()?,
        state: d.u8()?,
        backend: d.u8()?,
        budget: d.u64()?,
        cycle: d.u64()?,
        cache_hit: d.bool()?,
        workers: d.u32()?,
    })
}

fn put_serve_stats(b: &mut Vec<u8>, s: &ServeStats) {
    put_u64(b, s.cache_hits);
    put_u64(b, s.cache_misses);
    put_u32(b, s.cache_entries);
    put_u64(b, s.cache_evictions);
    put_u32(b, s.pool_idle);
    put_u32(b, s.pool_busy);
}

fn dec_serve_stats(d: &mut Dec) -> DecResult<ServeStats> {
    Ok(ServeStats {
        cache_hits: d.u64()?,
        cache_misses: d.u64()?,
        cache_entries: d.u32()?,
        cache_evictions: d.u64()?,
        pool_idle: d.u32()?,
        pool_busy: d.u32()?,
    })
}

fn put_opt_bits(b: &mut Vec<u8>, v: &Option<Bits>) {
    match v {
        Some(bits) => {
            put_bool(b, true);
            put_bits(b, bits);
        }
        None => put_bool(b, false),
    }
}

fn dec_opt_bits(d: &mut Dec) -> DecResult<Option<Bits>> {
    Ok(if d.bool()? { Some(d.bits()?) } else { None })
}

fn put_wave_changes(b: &mut Vec<u8>, changes: &[(u64, u32, Bits)]) {
    put_u32(b, changes.len() as u32);
    for (cycle, sig, value) in changes {
        put_u64(b, *cycle);
        put_u32(b, *sig);
        put_bits(b, value);
    }
}

fn dec_wave_changes(d: &mut Dec) -> DecResult<Vec<(u64, u32, Bits)>> {
    let n = d.count(8 + 4 + 4)?;
    let mut changes = Vec::with_capacity(n);
    for _ in 0..n {
        let cycle = d.u64()?;
        let sig = d.u32()?;
        changes.push((cycle, sig, d.bits()?));
    }
    Ok(changes)
}

fn put_report(b: &mut Vec<u8>, r: &WireReport) {
    put_u32(b, r.worker);
    put_u32(b, r.nodes.len() as u32);
    for n in &r.nodes {
        put_u32(b, n.node);
        put_node_counters(b, &n.counters);
        put_u32(b, n.samples.len() as u32);
        for s in &n.samples {
            put_node_sample(b, s);
        }
        put_wave_changes(b, &n.vcd);
    }
    put_u32(b, r.links.len() as u32);
    for l in &r.links {
        put_u32(b, l.link);
        put_u64(b, l.tokens);
        put_link_counters(b, &l.counters);
    }
    put_u32(b, r.traces.len() as u32);
    for e in &r.traces {
        put_trace_event(b, e);
    }
}

fn dec_report(d: &mut Dec) -> DecResult<WireReport> {
    let worker = d.u32()?;
    let n = d.count(8)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let node = d.u32()?;
        let counters = dec_node_counters(d)?;
        let k = d.count(13 * 8)?;
        let mut samples = Vec::with_capacity(k);
        for _ in 0..k {
            samples.push(dec_node_sample(d)?);
        }
        let vcd = dec_wave_changes(d)?;
        nodes.push(NodeReport {
            node,
            counters,
            samples,
            vcd,
        });
    }
    let n = d.count(12)?;
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let link = d.u32()?;
        let tokens = d.u64()?;
        links.push(LinkReport {
            link,
            tokens,
            counters: dec_link_counters(d)?,
        });
    }
    let n = d.count(4)?;
    let mut traces = Vec::with_capacity(n);
    for _ in 0..n {
        traces.push(dec_trace_event(d)?);
    }
    Ok(WireReport {
        worker,
        nodes,
        links,
        traces,
    })
}

// ---------------------------------------------------------------------
// Message encode/decode + framed I/O.
// ---------------------------------------------------------------------

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_TOPOLOGY: u8 = 3;
const TAG_READY: u8 = 4;
const TAG_RUN: u8 = 5;
pub(crate) const TAG_TOKEN: u8 = 6;
pub(crate) const TAG_ACK: u8 = 7;
pub(crate) const TAG_CREDIT: u8 = 8;
const TAG_PROGRESS: u8 = 9;
const TAG_DONE: u8 = 10;
const TAG_FINISH: u8 = 11;
const TAG_REPORT: u8 = 12;
const TAG_SHUTDOWN: u8 = 13;
const TAG_FATAL: u8 = 14;
pub(crate) const TAG_CORRUPT_TOKEN: u8 = 15;
pub(crate) const TAG_TOKEN_BATCH: u8 = 16;
const TAG_BARRIER: u8 = 17;
const TAG_TAKE_CHECKPOINT: u8 = 18;
const TAG_CHECKPOINT: u8 = 19;
const TAG_CHECKPOINT_ACK: u8 = 20;
const TAG_REWIND: u8 = 21;
const TAG_REWIND_ACK: u8 = 22;
const TAG_RESTORE: u8 = 23;
const TAG_RESUME: u8 = 24;
const TAG_ATTACH: u8 = 25;
const TAG_ATTACH_ACK: u8 = 26;
const TAG_DETACH: u8 = 27;
const TAG_PAUSE: u8 = 28;
const TAG_PAUSE_ACK: u8 = 29;
const TAG_STEP: u8 = 30;
const TAG_RESUME_RUN: u8 = 31;
const TAG_PEEK: u8 = 32;
const TAG_PEEK_REPLY: u8 = 33;
const TAG_POKE: u8 = 34;
const TAG_POKE_ACK: u8 = 35;
const TAG_SUBSCRIBE: u8 = 36;
const TAG_WAVE_DELTA: u8 = 37;
const TAG_METRIC_DELTA: u8 = 38;
const TAG_SNAPSHOT_NOW: u8 = 39;
const TAG_SNAPSHOT_DONE: u8 = 40;
const TAG_STATUS: u8 = 41;
const TAG_STATUS_REPLY: u8 = 42;
const TAG_RESET_TO_IDLE: u8 = 43;
const TAG_IDLE_ACK: u8 = 44;
const TAG_SUBMIT_JOB: u8 = 45;
const TAG_JOB_ACCEPTED: u8 = 46;
const TAG_JOB_STATUS: u8 = 47;
const TAG_JOB_STATUS_REPLY: u8 = 48;
const TAG_JOB_RESULT: u8 = 49;
const TAG_CANCEL_JOB: u8 = 50;
const TAG_EVICT_JOB: u8 = 51;

/// Serializes one message (without the length prefix).
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    match msg {
        Msg::Hello {
            magic,
            version,
            worker,
        } => {
            put_u8(&mut b, TAG_HELLO);
            put_u32(&mut b, *magic);
            put_u32(&mut b, *version);
            put_u32(&mut b, *worker);
        }
        Msg::HelloAck { magic, version } => {
            put_u8(&mut b, TAG_HELLO_ACK);
            put_u32(&mut b, *magic);
            put_u32(&mut b, *version);
        }
        Msg::Topology(t) => {
            put_u8(&mut b, TAG_TOPOLOGY);
            put_u32(&mut b, t.worker);
            put_u32(&mut b, t.n_workers);
            put_settings(&mut b, &t.settings);
            put_u32(&mut b, t.payload.len() as u32);
            b.extend_from_slice(&t.payload);
        }
        Msg::Ready { design_digest } => {
            put_u8(&mut b, TAG_READY);
            put_u64(&mut b, *design_digest);
        }
        Msg::Run { budget } => {
            put_u8(&mut b, TAG_RUN);
            put_u64(&mut b, *budget);
        }
        Msg::Token { link, frame } => {
            put_u8(&mut b, TAG_TOKEN);
            put_u32(&mut b, *link);
            frame.encode_bytes(&mut b);
        }
        Msg::TokenBatch { link, frames } => {
            put_u8(&mut b, TAG_TOKEN_BATCH);
            put_u32(&mut b, *link);
            put_u32(&mut b, frames.len() as u32);
            for frame in frames {
                frame.encode_bytes(&mut b);
            }
        }
        Msg::CorruptToken { link } => {
            put_u8(&mut b, TAG_CORRUPT_TOKEN);
            put_u32(&mut b, *link);
        }
        Msg::Ack { link, ack } => {
            put_u8(&mut b, TAG_ACK);
            put_u32(&mut b, *link);
            put_u64(&mut b, *ack);
        }
        Msg::Credit { link, amount } => {
            put_u8(&mut b, TAG_CREDIT);
            put_u32(&mut b, *link);
            put_u32(&mut b, *amount);
        }
        Msg::Progress { cycle } => {
            put_u8(&mut b, TAG_PROGRESS);
            put_u64(&mut b, *cycle);
        }
        Msg::Done { cycle } => {
            put_u8(&mut b, TAG_DONE);
            put_u64(&mut b, *cycle);
        }
        Msg::Finish => put_u8(&mut b, TAG_FINISH),
        Msg::Report(r) => {
            put_u8(&mut b, TAG_REPORT);
            put_report(&mut b, r);
        }
        Msg::Shutdown => put_u8(&mut b, TAG_SHUTDOWN),
        Msg::Fatal {
            code,
            link,
            attempts,
            message,
        } => {
            put_u8(&mut b, TAG_FATAL);
            put_u8(&mut b, *code);
            put_u32(&mut b, *link);
            put_u32(&mut b, *attempts);
            put_str(&mut b, message);
        }
        Msg::Barrier { epoch, cycle } => {
            put_u8(&mut b, TAG_BARRIER);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
        }
        Msg::TakeCheckpoint { epoch, cycle } => {
            put_u8(&mut b, TAG_TAKE_CHECKPOINT);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
        }
        Msg::Checkpoint { epoch, cycle, blob } => {
            put_u8(&mut b, TAG_CHECKPOINT);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
            put_u32(&mut b, blob.len() as u32);
            b.extend_from_slice(blob);
        }
        Msg::CheckpointAck { epoch, cycle } => {
            put_u8(&mut b, TAG_CHECKPOINT_ACK);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
        }
        Msg::Rewind { epoch, cycle } => {
            put_u8(&mut b, TAG_REWIND);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
        }
        Msg::RewindAck { epoch, cycle } => {
            put_u8(&mut b, TAG_REWIND_ACK);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
        }
        Msg::Restore { epoch, cycle, blob } => {
            put_u8(&mut b, TAG_RESTORE);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
            put_u32(&mut b, blob.len() as u32);
            b.extend_from_slice(blob);
        }
        Msg::Resume { epoch, cycle } => {
            put_u8(&mut b, TAG_RESUME);
            put_u32(&mut b, *epoch);
            put_u64(&mut b, *cycle);
        }
        Msg::Attach { magic, version } => {
            put_u8(&mut b, TAG_ATTACH);
            put_u32(&mut b, *magic);
            put_u32(&mut b, *version);
        }
        Msg::AttachAck {
            nodes,
            signals,
            sample_interval,
        } => {
            put_u8(&mut b, TAG_ATTACH_ACK);
            put_u32(&mut b, nodes.len() as u32);
            for n in nodes {
                put_node_info(&mut b, n);
            }
            put_u32(&mut b, signals.len() as u32);
            for s in signals {
                put_vcd_signal(&mut b, s);
            }
            put_u64(&mut b, *sample_interval);
        }
        Msg::Detach => put_u8(&mut b, TAG_DETACH),
        Msg::Pause { cycle } => {
            put_u8(&mut b, TAG_PAUSE);
            put_u64(&mut b, *cycle);
        }
        Msg::PauseAck { cycle } => {
            put_u8(&mut b, TAG_PAUSE_ACK);
            put_u64(&mut b, *cycle);
        }
        Msg::Step { n } => {
            put_u8(&mut b, TAG_STEP);
            put_u64(&mut b, *n);
        }
        Msg::ResumeRun => put_u8(&mut b, TAG_RESUME_RUN),
        Msg::Peek { node, path } => {
            put_u8(&mut b, TAG_PEEK);
            put_u32(&mut b, *node);
            put_str(&mut b, path);
        }
        Msg::PeekReply {
            node,
            path,
            cycle,
            value,
        } => {
            put_u8(&mut b, TAG_PEEK_REPLY);
            put_u32(&mut b, *node);
            put_str(&mut b, path);
            put_u64(&mut b, *cycle);
            put_opt_bits(&mut b, value);
        }
        Msg::Poke { node, path, value } => {
            put_u8(&mut b, TAG_POKE);
            put_u32(&mut b, *node);
            put_str(&mut b, path);
            put_u64(&mut b, *value);
        }
        Msg::PokeAck {
            node,
            path,
            cycle,
            error,
        } => {
            put_u8(&mut b, TAG_POKE_ACK);
            put_u32(&mut b, *node);
            put_str(&mut b, path);
            put_u64(&mut b, *cycle);
            put_str(&mut b, error);
        }
        Msg::Subscribe { wave, metrics } => {
            put_u8(&mut b, TAG_SUBSCRIBE);
            put_bool(&mut b, *wave);
            put_bool(&mut b, *metrics);
        }
        Msg::WaveDelta { node, changes } => {
            put_u8(&mut b, TAG_WAVE_DELTA);
            put_u32(&mut b, *node);
            put_wave_changes(&mut b, changes);
        }
        Msg::MetricDelta { node, samples } => {
            put_u8(&mut b, TAG_METRIC_DELTA);
            put_u32(&mut b, *node);
            put_u32(&mut b, samples.len() as u32);
            for s in samples {
                put_node_sample(&mut b, s);
            }
        }
        Msg::SnapshotNow => put_u8(&mut b, TAG_SNAPSHOT_NOW),
        Msg::SnapshotDone { cycle } => {
            put_u8(&mut b, TAG_SNAPSHOT_DONE);
            put_u64(&mut b, *cycle);
        }
        Msg::Status => put_u8(&mut b, TAG_STATUS),
        Msg::StatusReply {
            nodes,
            paused,
            fence,
        } => {
            put_u8(&mut b, TAG_STATUS_REPLY);
            put_u32(&mut b, nodes.len() as u32);
            for n in nodes {
                put_node_info(&mut b, n);
            }
            put_bool(&mut b, *paused);
            put_u64(&mut b, *fence);
        }
        Msg::ResetToIdle => put_u8(&mut b, TAG_RESET_TO_IDLE),
        Msg::IdleAck => put_u8(&mut b, TAG_IDLE_ACK),
        Msg::SubmitJob {
            tenant,
            budget,
            backend,
            tape,
            spec,
            settings,
        } => {
            put_u8(&mut b, TAG_SUBMIT_JOB);
            put_str(&mut b, tenant);
            put_u64(&mut b, *budget);
            put_u8(&mut b, *backend);
            put_u32(&mut b, tape.len() as u32);
            b.extend_from_slice(tape);
            put_spec(&mut b, spec);
            put_settings(&mut b, settings);
        }
        Msg::JobAccepted { job } => {
            put_u8(&mut b, TAG_JOB_ACCEPTED);
            put_u64(&mut b, *job);
        }
        Msg::JobStatus { job } => {
            put_u8(&mut b, TAG_JOB_STATUS);
            put_u64(&mut b, *job);
        }
        Msg::JobStatusReply { jobs, stats } => {
            put_u8(&mut b, TAG_JOB_STATUS_REPLY);
            put_u32(&mut b, jobs.len() as u32);
            for j in jobs {
                put_job_info(&mut b, j);
            }
            put_serve_stats(&mut b, stats);
        }
        Msg::JobResult {
            job,
            outcome,
            error,
            cycles,
            cache_hit,
            admission_micros,
            metrics_json,
            series_json,
            vcd,
        } => {
            put_u8(&mut b, TAG_JOB_RESULT);
            put_u64(&mut b, *job);
            put_u8(&mut b, *outcome);
            put_str(&mut b, error);
            put_u64(&mut b, *cycles);
            put_bool(&mut b, *cache_hit);
            put_u64(&mut b, *admission_micros);
            put_str(&mut b, metrics_json);
            put_str(&mut b, series_json);
            put_str(&mut b, vcd);
        }
        Msg::CancelJob { job } => {
            put_u8(&mut b, TAG_CANCEL_JOB);
            put_u64(&mut b, *job);
        }
        Msg::EvictJob { job, reason } => {
            put_u8(&mut b, TAG_EVICT_JOB);
            put_u64(&mut b, *job);
            put_str(&mut b, reason);
        }
    }
    b
}

/// Deserializes one message payload.
///
/// # Errors
///
/// Describes the first malformed field. A token whose frame bytes are
/// damaged but whose link index is readable decodes as
/// [`Msg::CorruptToken`] instead of failing.
pub fn decode_msg(buf: &[u8]) -> DecResult<Msg> {
    let mut d = Dec::new(buf);
    let tag = d.u8()?;
    match tag {
        TAG_HELLO => Ok(Msg::Hello {
            magic: d.u32()?,
            version: d.u32()?,
            worker: d.u32()?,
        }),
        TAG_HELLO_ACK => Ok(Msg::HelloAck {
            magic: d.u32()?,
            version: d.u32()?,
        }),
        TAG_TOPOLOGY => {
            let worker = d.u32()?;
            let n_workers = d.u32()?;
            let settings = dec_settings(&mut d)?;
            let n = d.count(1)?;
            let payload = d.take(n)?.to_vec();
            Ok(Msg::Topology(Box::new(Topology {
                worker,
                n_workers,
                settings,
                payload,
            })))
        }
        TAG_READY => Ok(Msg::Ready {
            design_digest: d.u64()?,
        }),
        TAG_RUN => Ok(Msg::Run { budget: d.u64()? }),
        TAG_TOKEN => {
            let link = d.u32()?;
            let mut pos = 0usize;
            match Frame::decode_bytes(&buf[d.pos..], &mut pos) {
                Ok(frame) => Ok(Msg::Token { link, frame }),
                Err(_) => Ok(Msg::CorruptToken { link }),
            }
        }
        TAG_TOKEN_BATCH => {
            let link = d.u32()?;
            let n = d.count(20)?; // minimum sealed-frame footprint
            let mut frames = Vec::with_capacity(n);
            let mut pos = d.pos;
            for _ in 0..n {
                let mut advanced = 0usize;
                match Frame::decode_bytes(&buf[pos..], &mut advanced) {
                    Ok(frame) => {
                        pos += advanced;
                        frames.push(frame);
                    }
                    // Any damaged frame degrades the whole batch: the
                    // go-back-N window retransmits everything unacked,
                    // so dropping the readable tail loses nothing.
                    Err(_) => return Ok(Msg::CorruptToken { link }),
                }
            }
            Ok(Msg::TokenBatch { link, frames })
        }
        TAG_CORRUPT_TOKEN => Ok(Msg::CorruptToken { link: d.u32()? }),
        TAG_ACK => Ok(Msg::Ack {
            link: d.u32()?,
            ack: d.u64()?,
        }),
        TAG_CREDIT => Ok(Msg::Credit {
            link: d.u32()?,
            amount: d.u32()?,
        }),
        TAG_PROGRESS => Ok(Msg::Progress { cycle: d.u64()? }),
        TAG_DONE => Ok(Msg::Done { cycle: d.u64()? }),
        TAG_FINISH => Ok(Msg::Finish),
        TAG_REPORT => Ok(Msg::Report(Box::new(dec_report(&mut d)?))),
        TAG_SHUTDOWN => Ok(Msg::Shutdown),
        TAG_FATAL => Ok(Msg::Fatal {
            code: d.u8()?,
            link: d.u32()?,
            attempts: d.u32()?,
            message: d.str()?,
        }),
        TAG_BARRIER => Ok(Msg::Barrier {
            epoch: d.u32()?,
            cycle: d.u64()?,
        }),
        TAG_TAKE_CHECKPOINT => Ok(Msg::TakeCheckpoint {
            epoch: d.u32()?,
            cycle: d.u64()?,
        }),
        TAG_CHECKPOINT => {
            let epoch = d.u32()?;
            let cycle = d.u64()?;
            let n = d.count(1)?;
            Ok(Msg::Checkpoint {
                epoch,
                cycle,
                blob: d.take(n)?.to_vec(),
            })
        }
        TAG_CHECKPOINT_ACK => Ok(Msg::CheckpointAck {
            epoch: d.u32()?,
            cycle: d.u64()?,
        }),
        TAG_REWIND => Ok(Msg::Rewind {
            epoch: d.u32()?,
            cycle: d.u64()?,
        }),
        TAG_REWIND_ACK => Ok(Msg::RewindAck {
            epoch: d.u32()?,
            cycle: d.u64()?,
        }),
        TAG_RESTORE => {
            let epoch = d.u32()?;
            let cycle = d.u64()?;
            let n = d.count(1)?;
            Ok(Msg::Restore {
                epoch,
                cycle,
                blob: d.take(n)?.to_vec(),
            })
        }
        TAG_RESUME => Ok(Msg::Resume {
            epoch: d.u32()?,
            cycle: d.u64()?,
        }),
        TAG_ATTACH => Ok(Msg::Attach {
            magic: d.u32()?,
            version: d.u32()?,
        }),
        TAG_ATTACH_ACK => {
            let n = d.count(4 + 4 + 4 + 8)?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(dec_node_info(&mut d)?);
            }
            let n = d.count(4 + 4 + 4)?;
            let mut signals = Vec::with_capacity(n);
            for _ in 0..n {
                signals.push(dec_vcd_signal(&mut d)?);
            }
            Ok(Msg::AttachAck {
                nodes,
                signals,
                sample_interval: d.u64()?,
            })
        }
        TAG_DETACH => Ok(Msg::Detach),
        TAG_PAUSE => Ok(Msg::Pause { cycle: d.u64()? }),
        TAG_PAUSE_ACK => Ok(Msg::PauseAck { cycle: d.u64()? }),
        TAG_STEP => Ok(Msg::Step { n: d.u64()? }),
        TAG_RESUME_RUN => Ok(Msg::ResumeRun),
        TAG_PEEK => Ok(Msg::Peek {
            node: d.u32()?,
            path: d.str()?,
        }),
        TAG_PEEK_REPLY => Ok(Msg::PeekReply {
            node: d.u32()?,
            path: d.str()?,
            cycle: d.u64()?,
            value: dec_opt_bits(&mut d)?,
        }),
        TAG_POKE => Ok(Msg::Poke {
            node: d.u32()?,
            path: d.str()?,
            value: d.u64()?,
        }),
        TAG_POKE_ACK => Ok(Msg::PokeAck {
            node: d.u32()?,
            path: d.str()?,
            cycle: d.u64()?,
            error: d.str()?,
        }),
        TAG_SUBSCRIBE => Ok(Msg::Subscribe {
            wave: d.bool()?,
            metrics: d.bool()?,
        }),
        TAG_WAVE_DELTA => Ok(Msg::WaveDelta {
            node: d.u32()?,
            changes: dec_wave_changes(&mut d)?,
        }),
        TAG_METRIC_DELTA => {
            let node = d.u32()?;
            let n = d.count(13 * 8)?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push(dec_node_sample(&mut d)?);
            }
            Ok(Msg::MetricDelta { node, samples })
        }
        TAG_SNAPSHOT_NOW => Ok(Msg::SnapshotNow),
        TAG_SNAPSHOT_DONE => Ok(Msg::SnapshotDone { cycle: d.u64()? }),
        TAG_STATUS => Ok(Msg::Status),
        TAG_STATUS_REPLY => {
            let n = d.count(4 + 4 + 4 + 8)?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(dec_node_info(&mut d)?);
            }
            Ok(Msg::StatusReply {
                nodes,
                paused: d.bool()?,
                fence: d.u64()?,
            })
        }
        TAG_RESET_TO_IDLE => Ok(Msg::ResetToIdle),
        TAG_IDLE_ACK => Ok(Msg::IdleAck),
        TAG_SUBMIT_JOB => {
            let tenant = d.str()?;
            let budget = d.u64()?;
            let backend = d.u8()?;
            let n = d.count(1)?;
            let tape = d.take(n)?.to_vec();
            let spec = dec_spec(&mut d)?;
            let settings = dec_settings(&mut d)?;
            Ok(Msg::SubmitJob {
                tenant,
                budget,
                backend,
                tape,
                spec,
                settings,
            })
        }
        TAG_JOB_ACCEPTED => Ok(Msg::JobAccepted { job: d.u64()? }),
        TAG_JOB_STATUS => Ok(Msg::JobStatus { job: d.u64()? }),
        TAG_JOB_STATUS_REPLY => {
            let n = d.count(8 + 4 + 1 + 1 + 8 + 8 + 1 + 4)?;
            let mut jobs = Vec::with_capacity(n);
            for _ in 0..n {
                jobs.push(dec_job_info(&mut d)?);
            }
            Ok(Msg::JobStatusReply {
                jobs,
                stats: dec_serve_stats(&mut d)?,
            })
        }
        TAG_JOB_RESULT => Ok(Msg::JobResult {
            job: d.u64()?,
            outcome: d.u8()?,
            error: d.str()?,
            cycles: d.u64()?,
            cache_hit: d.bool()?,
            admission_micros: d.u64()?,
            metrics_json: d.str()?,
            series_json: d.str()?,
            vcd: d.str()?,
        }),
        TAG_CANCEL_JOB => Ok(Msg::CancelJob { job: d.u64()? }),
        TAG_EVICT_JOB => Ok(Msg::EvictJob {
            job: d.u64()?,
            reason: d.str()?,
        }),
        t => Err(format!("unknown message tag {t}")),
    }
}

/// Writes one length-prefixed message.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> io::Result<()> {
    let payload = encode_msg(msg);
    debug_assert!(payload.len() <= MAX_MSG_LEN as usize);
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(&payload);
    w.write_all(&framed)?;
    w.flush()
}

/// Reads one length-prefixed message. Returns `Ok(None)` on a clean EOF
/// at a message boundary.
///
/// # Errors
///
/// I/O failures, EOF inside a message, oversized or malformed payloads.
pub fn read_msg(r: &mut impl Read) -> io::Result<Option<Msg>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a message length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_MSG_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message length {len} exceeds {MAX_MSG_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_msg(&payload).map(Some).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed message: {e}"),
        )
    })
}

/// Reads one length-prefixed message into `buf` as the raw framed
/// bytes (4-byte length prefix included), without decoding. The
/// coordinator's relay hot path forwards these bytes verbatim —
/// re-encoding a message that is about to leave unchanged would pay
/// a full decode/alloc/encode per relayed token. Returns `Ok(false)`
/// on a clean EOF at a message boundary.
///
/// # Errors
///
/// I/O failures, EOF inside a message, oversized payloads.
pub fn read_raw_msg(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a message length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_MSG_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message length {len} exceeds {MAX_MSG_LEN}"),
        ));
    }
    buf.extend_from_slice(&len_buf);
    buf.resize(4 + len as usize, 0);
    r.read_exact(&mut buf[4..])?;
    Ok(true)
}

/// FNV-1a digest over what one process built of partition `partition`:
/// each of its nodes' flat index, name and elaborated port tables, then
/// the cut's link table. A worker sends it in [`Msg::Ready`]; the
/// coordinator compares it with the same digest of its own passive
/// build, so every process is known to run the same build of the same
/// cut before tokens start flowing.
pub fn partition_digest(access: &NetAccess<'_>, partition: usize) -> u64 {
    let mut h = Fnv1a::default();
    let name = |h: &mut Fnv1a, s: &str| {
        for b in s.as_bytes() {
            h.write_u64(u64::from(*b));
        }
        h.write_u64(u64::MAX); // terminator
    };
    for n in (0..access.node_count()).filter(|&n| access.node_partition(n) == partition) {
        h.write_u64(n as u64);
        name(&mut h, access.node_name(n));
        let model = access.node_model(n);
        for ports in [model.input_ports(), model.output_ports()] {
            h.write_u64(ports.len() as u64);
            for (port, width) in ports {
                name(&mut h, &port);
                h.write_u64(u64::from(width.get()));
            }
        }
    }
    links_into(&mut h, &access.link_specs());
    h.finish()
}

fn links_into(h: &mut Fnv1a, links: &[LinkSpec]) {
    h.write_u64(links.len() as u64);
    for l in links {
        h.write_u64(l.from_node as u64);
        h.write_u64(l.from_chan as u64);
        h.write_u64(l.to_node as u64);
        h.write_u64(l.to_chan as u64);
        h.write_u64(l.width);
        h.write_u64(u64::from(l.seeded));
    }
}

/// FNV-1a digest over the compiled design's node names, partition
/// assignments and link table: the design's identity, whatever built it.
pub fn design_digest(nodes: &[(String, usize)], links: &[LinkSpec]) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(nodes.len() as u64);
    for (name, partition) in nodes {
        for b in name.as_bytes() {
            h.write_u64(u64::from(*b));
        }
        h.write_u64(u64::MAX); // name terminator
        h.write_u64(*partition as u64);
    }
    links_into(&mut h, links);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Msg) {
        let bytes = encode_msg(msg);
        let back = decode_msg(&bytes).expect("decode");
        assert_eq!(bytes, encode_msg(&back), "re-encode mismatch for {msg:?}");
        // And through the framed reader/writer.
        let mut wire = Vec::new();
        write_msg(&mut wire, msg).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let framed = read_msg(&mut cursor).unwrap().expect("one message");
        assert_eq!(bytes, encode_msg(&framed));
        assert!(read_msg(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn raw_reads_preserve_framed_bytes_verbatim() {
        let msgs = [
            Msg::Token {
                link: 3,
                frame: fireaxe_transport::reliable::Frame {
                    seq: 9,
                    crc: 0xDEAD_BEEF,
                    delay_quanta: 1,
                    payload: fireaxe_ir::Bits::from_u64(0xAB, 8),
                },
            },
            Msg::Ack { link: 3, ack: 10 },
            Msg::Progress { cycle: 42 },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_msg(&mut wire, m).unwrap();
        }
        let mut cursor = io::Cursor::new(wire.clone());
        let mut relayed = Vec::new();
        let mut buf = Vec::new();
        while read_raw_msg(&mut cursor, &mut buf).unwrap() {
            relayed.extend_from_slice(&buf);
        }
        assert_eq!(relayed, wire, "raw relay must forward bytes verbatim");
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(&Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
            worker: 3,
        });
        roundtrip(&Msg::HelloAck {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
        });
        roundtrip(&Msg::Ready {
            design_digest: 0xdead_beef,
        });
        roundtrip(&Msg::Run { budget: 1_500 });
        roundtrip(&Msg::Ack { link: 7, ack: 42 });
        roundtrip(&Msg::Credit { link: 7, amount: 3 });
        roundtrip(&Msg::Progress { cycle: 512 });
        roundtrip(&Msg::Done { cycle: 1_500 });
        roundtrip(&Msg::Finish);
        roundtrip(&Msg::Shutdown);
        roundtrip(&Msg::CorruptToken { link: 9 });
        roundtrip(&Msg::Fatal {
            code: FATAL_LINK_DOWN,
            link: 2,
            attempts: 9,
            message: "link 2 retry budget exhausted".into(),
        });
    }

    #[test]
    fn checkpoint_and_recovery_messages_roundtrip() {
        roundtrip(&Msg::Barrier {
            epoch: 0,
            cycle: 128,
        });
        roundtrip(&Msg::TakeCheckpoint {
            epoch: 0,
            cycle: 128,
        });
        roundtrip(&Msg::Checkpoint {
            epoch: 0,
            cycle: 128,
            blob: vec![0xAB; 4096],
        });
        roundtrip(&Msg::Checkpoint {
            epoch: 2,
            cycle: 0,
            blob: Vec::new(),
        });
        roundtrip(&Msg::CheckpointAck {
            epoch: 0,
            cycle: 128,
        });
        roundtrip(&Msg::Rewind {
            epoch: 1,
            cycle: 128,
        });
        roundtrip(&Msg::RewindAck {
            epoch: 1,
            cycle: 128,
        });
        roundtrip(&Msg::Restore {
            epoch: 1,
            cycle: 128,
            blob: vec![1, 2, 3],
        });
        roundtrip(&Msg::Resume {
            epoch: 1,
            cycle: 128,
        });
        // A truncated blob is rejected, not silently shortened.
        let mut b = vec![TAG_CHECKPOINT];
        put_u32(&mut b, 0);
        put_u64(&mut b, 64);
        put_u32(&mut b, 100); // claims 100 bytes, carries none
        assert!(decode_msg(&b).is_err());
    }

    #[test]
    fn cockpit_messages_roundtrip() {
        roundtrip(&Msg::Attach {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
        });
        roundtrip(&Msg::AttachAck {
            nodes: vec![NodeInfo {
                node: 0,
                name: "tile0".into(),
                partition: 0,
                cycle: 480,
            }],
            signals: vec![VcdSignal {
                scope: "tile0".into(),
                name: "acc".into(),
                width: 16,
            }],
            sample_interval: 100,
        });
        roundtrip(&Msg::AttachAck {
            nodes: Vec::new(),
            signals: Vec::new(),
            sample_interval: 0,
        });
        roundtrip(&Msg::Detach);
        roundtrip(&Msg::Pause { cycle: 0 });
        roundtrip(&Msg::Pause { cycle: 612 });
        roundtrip(&Msg::PauseAck { cycle: 612 });
        roundtrip(&Msg::Step { n: 100 });
        roundtrip(&Msg::ResumeRun);
        roundtrip(&Msg::Peek {
            node: 3,
            path: "router.buf".into(),
        });
        roundtrip(&Msg::PeekReply {
            node: 3,
            path: "router.buf".into(),
            cycle: 612,
            value: Some(Bits::from_u64(0xFEED, 72)),
        });
        roundtrip(&Msg::PeekReply {
            node: 3,
            path: "nope".into(),
            cycle: 612,
            value: None,
        });
        roundtrip(&Msg::Poke {
            node: 1,
            path: "in_req".into(),
            value: 0xAB,
        });
        roundtrip(&Msg::PokeAck {
            node: 1,
            path: "in_req".into(),
            cycle: 612,
            error: String::new(),
        });
        roundtrip(&Msg::PokeAck {
            node: 1,
            path: "bogus".into(),
            cycle: 612,
            error: "no signal at path `bogus`".into(),
        });
        roundtrip(&Msg::Subscribe {
            wave: true,
            metrics: false,
        });
        roundtrip(&Msg::WaveDelta {
            node: 2,
            changes: vec![(613, 4, Bits::from_u64(7, 3))],
        });
        roundtrip(&Msg::WaveDelta {
            node: 2,
            changes: Vec::new(),
        });
        roundtrip(&Msg::MetricDelta {
            node: 2,
            samples: vec![NodeSample {
                cycle: 700,
                state_digest: 0x99,
                ..Default::default()
            }],
        });
        roundtrip(&Msg::SnapshotNow);
        roundtrip(&Msg::SnapshotDone { cycle: 612 });
        roundtrip(&Msg::Status);
        roundtrip(&Msg::StatusReply {
            nodes: vec![NodeInfo {
                node: 5,
                name: "router2".into(),
                partition: 3,
                cycle: 611,
            }],
            paused: true,
            fence: 612,
        });
    }

    #[test]
    fn settings_checkpoint_interval_roundtrips() {
        let settings = WireSettings {
            checkpoint_interval: 512,
            ..Default::default()
        };
        roundtrip(&Msg::Topology(Box::new(Topology {
            worker: 0,
            n_workers: 2,
            payload: Vec::new(),
            settings,
        })));
    }

    #[test]
    fn cache_key_follows_the_payload_and_settings() {
        let base = Topology {
            worker: 0,
            n_workers: 4,
            payload: vec![1, 2, 3],
            settings: WireSettings::default(),
        };
        // The payload names its partition; the worker index is only
        // where it was placed.
        let moved = Topology {
            worker: 2,
            ..base.clone()
        };
        assert_eq!(base.cache_key(), moved.cache_key());

        let variants = [
            Topology {
                settings: WireSettings {
                    sample_interval: base.settings.sample_interval + 1,
                    ..base.settings.clone()
                },
                ..base.clone()
            },
            Topology {
                n_workers: 5,
                ..base.clone()
            },
            Topology {
                payload: vec![1, 2, 4],
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(base.cache_key(), v.cache_key(), "{v:?}");
        }
    }

    #[test]
    fn token_roundtrips_and_degrades_when_damaged() {
        let frame = Frame::seal(11, Bits::from_u64(0xabcd, 73));
        let msg = Msg::Token { link: 4, frame };
        roundtrip(&msg);

        // Damage the frame's width field: the link survives, the frame
        // does not, and the decoder degrades to CorruptToken.
        let mut bytes = encode_msg(&msg);
        let width_off = 1 + 4 + 8 + 4 + 4; // tag, link, seq, crc, delay
        bytes[width_off] ^= 0xff;
        match decode_msg(&bytes).unwrap() {
            Msg::CorruptToken { link } => assert_eq!(link, 4),
            other => panic!("expected CorruptToken, got {other:?}"),
        }
    }

    #[test]
    fn token_batch_roundtrips_and_degrades_when_damaged() {
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame::seal(i, Bits::from_u64(0x1000 + i, 33)))
            .collect();
        let msg = Msg::TokenBatch {
            link: 6,
            frames: frames.clone(),
        };
        roundtrip(&msg);
        roundtrip(&Msg::TokenBatch {
            link: 0,
            frames: Vec::new(),
        });

        // Damage the width field of the *third* frame: the whole batch
        // degrades to CorruptToken so go-back-N retransmits it intact.
        let mut bytes = encode_msg(&msg);
        let frame_len = {
            let mut one = Vec::new();
            frames[0].encode_bytes(&mut one);
            one.len()
        };
        let width_off = 1 + 4 + 4 + 2 * frame_len + 8 + 4 + 4;
        bytes[width_off] ^= 0xff;
        match decode_msg(&bytes).unwrap() {
            Msg::CorruptToken { link } => assert_eq!(link, 6),
            other => panic!("expected CorruptToken, got {other:?}"),
        }
    }

    #[test]
    fn settings_pacing_knobs_roundtrip_and_clamp() {
        let mut settings = WireSettings {
            batch_cycles: 64,
            slack_cycles: 17,
            ..Default::default()
        };
        roundtrip(&Msg::Topology(Box::new(Topology {
            worker: 0,
            n_workers: 2,
            payload: Vec::new(),
            settings: settings.clone(),
        })));
        assert_eq!(settings.effective_batch(), 64);
        // Slack may not drop below the batch size…
        assert_eq!(settings.effective_slack(), 64);
        // …and neither knob escapes the credit window.
        settings.batch_cycles = 10_000;
        settings.slack_cycles = 10_000;
        assert_eq!(
            settings.effective_batch(),
            crate::flow::INITIAL_CREDITS as usize
        );
        assert_eq!(
            settings.effective_slack(),
            crate::flow::INITIAL_CREDITS as usize
        );
        settings.batch_cycles = 0;
        assert_eq!(settings.effective_batch(), 1);
    }

    #[test]
    fn topology_roundtrips() {
        let mut settings = WireSettings::default();
        settings.link_transports.push((2, LinkModel::host_pcie()));
        settings.partition_clocks.push((1, 90.0));
        settings.vcd = true;
        settings.signals.push("tile0:counter".into());
        roundtrip(&Msg::Topology(Box::new(Topology {
            worker: 1,
            n_workers: 4,
            payload: vec![0x46, 0x58, 0x57, 0x31, 0x01],
            settings,
        })));
    }

    #[test]
    fn submit_job_roundtrips_its_spec() {
        let spec = PartitionSpec::fast(vec![
            PartitionGroup::instances("fpga0", vec!["top.a".into(), "top.b".into()]),
            PartitionGroup {
                name: "fpga1".into(),
                selection: Selection::NocRouters {
                    routers: vec!["r0".into(), "r1".into()],
                    indices: vec![0, 1],
                },
                fame5: true,
            },
        ]);
        roundtrip(&Msg::SubmitJob {
            tenant: "t".into(),
            budget: 9,
            backend: BACKEND_NET,
            tape: vec![0x46, 0x58, 0x54, 0x31, 0x01],
            spec,
            settings: WireSettings::default(),
        });
    }

    #[test]
    fn report_roundtrips() {
        let report = WireReport {
            worker: 2,
            nodes: vec![NodeReport {
                node: 5,
                counters: NodeCounters {
                    node: "tile5".into(),
                    partition: 2,
                    tokens_enqueued: 100,
                    tokens_dequeued: 99,
                    input_stall_host_cycles: 3,
                    output_stall_host_cycles: 1,
                    host_cycles: 400,
                    target_cycles: 200,
                },
                samples: vec![NodeSample {
                    cycle: 50,
                    state_digest: 0x1234,
                    ..Default::default()
                }],
                vcd: vec![(49, 7, Bits::from_u64(5, 8))],
            }],
            links: vec![LinkReport {
                link: 3,
                tokens: 88,
                counters: LinkCounters {
                    link: 3,
                    tokens: 88,
                    sent_frames: 90,
                    retransmits: 2,
                    timeout_escalations: 1,
                    crc_failures: 0,
                    duplicates_dropped: 0,
                    delivery_delay_ps: 0,
                },
            }],
            traces: vec![OwnedTraceEvent {
                name: "net.service".into(),
                kind: EventKind::Counter,
                host_ns: 10,
                virt_ps: 0,
                value: 1.5,
                tid: 0,
            }],
        };
        roundtrip(&Msg::Report(Box::new(report)));
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert!(decode_msg(&[]).is_err());
        assert!(decode_msg(&[200]).is_err());
        // Truncated Hello.
        assert!(decode_msg(&[TAG_HELLO, 0, 0]).is_err());
        // Oversized collection count in a report.
        let mut b = vec![TAG_REPORT];
        put_u32(&mut b, 0);
        put_u32(&mut b, u32::MAX);
        assert!(decode_msg(&b).is_err());
    }

    #[test]
    fn design_digest_is_sensitive() {
        let nodes = vec![("tile0".to_string(), 0), ("tile1".to_string(), 1)];
        let links = vec![LinkSpec {
            from_node: 0,
            from_chan: 0,
            to_node: 1,
            to_chan: 0,
            width: 16,
            seeded: false,
        }];
        let base = design_digest(&nodes, &links);
        let mut other_nodes = nodes.clone();
        other_nodes[1].1 = 0;
        assert_ne!(base, design_digest(&other_nodes, &links));
        let mut other_links = links.clone();
        other_links[0].width = 17;
        assert_ne!(base, design_digest(&nodes, &other_links));
    }
}
