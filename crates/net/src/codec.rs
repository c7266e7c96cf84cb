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
//! Each layout is written once, in the byte codec every format shares
//! ([`fireaxe_ir::codec`]): each field type's layout is declared beside
//! the type, in its own crate, and `wire_struct!` here lists the
//! protocol structures' fields in wire order. The message table, `TAG =
//! n => Variant { field: Type, … }`, declares [`Msg`], its tag constants,
//! [`encode_msg`] and [`decode_msg`]. A message never carries a
//! zero-width value outside a token frame, so [`decode_msg`] refuses
//! one. No other module knows the frame layout: the relay and the fault
//! proxy peek raw frames through this one.
//!
//! Decoding is defensive: lengths are bounded by [`MAX_MSG_LEN`],
//! collection counts are validated against the bytes actually present
//! and never reserve more than twice those bytes in memory, bytes
//! trailing a message are refused, and a [`Msg::Token`] whose frame
//! bytes no longer parse (a fault proxy or a real flaky wire can damage
//! them) degrades to [`Msg::CorruptToken`] so the receiver counts a CRC
//! casualty and waits for the retransmission instead of tearing the
//! session down. That degradation is the only decoding written by hand.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use fireaxe_ir::{Bits, Dec, DecResult, Wire};
use fireaxe_obs::{Fnv1a, NodeSample, OwnedTraceEvent, VcdSignal};
use fireaxe_ripper::{LinkSpec, PartitionSpec};
use fireaxe_sim::{DistributedSim, LinkCounters, NodeCounters};
use fireaxe_transport::reliable::{Frame, RetryPolicy};
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
/// v8: a worker hosts a contiguous run of partitions: [`Topology`]
/// carries one partition payload per hosted partition, and
/// [`Msg::Ready`] digests the whole set (see [`set_digest`]).
/// v9: [`WireSettings`] loses `batch_cycles`, `slack_cycles` and
/// `progress_interval`: a link's frames ship when its credit window is
/// spent or at quiescence, and progress reports keep a fixed cadence.
/// v10: [`WireSettings`] loses the DES model's `default_transport`,
/// `link_transports`, `clock_mhz`, `partition_clocks`,
/// `channel_capacity` and `deadlock_horizon`: no net or threads build
/// has a virtual clock, so none of them reached target state.
/// v11: the partition payloads in [`Topology`] (`FXW2`), the checkpoint
/// blobs in [`Msg::Checkpoint`]/[`Msg::Restore`] (`FXC2`) and the tape in
/// [`Msg::SubmitJob`] (`FXT1` version 2) follow the shared byte codec's
/// conventions: big-endian integers and `u32` counts. Message layouts
/// are unchanged, save that a `bool` byte other than 0 or 1 is refused.
pub const PROTOCOL_VERSION: u32 = 11;

/// Upper bound on a single message payload (the topology message
/// carries partition payloads with their circuits; token messages are
/// tiny).
pub const MAX_MSG_LEN: u32 = 64 << 20;

/// Bytes of the length prefix in front of every payload.
const PREFIX: usize = 4;

// ---------------------------------------------------------------------
// Protocol structures.
// ---------------------------------------------------------------------

fireaxe_ir::wire_struct! {
    /// Everything a worker needs to build its share of the simulation,
    /// shipped in [`Msg::Topology`]: the run of partitions
    /// [`fireaxe_sim::placement()`] assigns it, never the whole design.
    #[derive(Debug, Clone)]
    pub struct Topology {
        /// The receiving worker's index.
        pub worker: u32,
        /// Total workers in the cluster.
        pub n_workers: u32,
        /// Run settings the whole cluster must agree on.
        pub settings: WireSettings,
        /// One payload per hosted partition, in partition order: each
        /// partition and the cut-wide tables, encoded by
        /// [`crate::payload::encode_partition_payload`].
        pub payloads: Vec<Vec<u8>>,
    }

    /// Cluster-wide run settings: the observation spec every build of a
    /// job applies, plus the net backend's retry, liveness and checkpoint
    /// cadences. The DES model's link timing, clocks, channel capacity
    /// and deadlock horizon are not here: a net or threads build has no
    /// virtual clock, so it takes the `SimBuilder` defaults.
    #[derive(Debug, Clone)]
    pub struct WireSettings {
        /// Retry/backoff knobs for the socket go-back-N protocol (the
        /// protocol itself is always on for net links).
        pub retry: RetryPolicy,
        /// Metric sampling cadence in target cycles (0 = off).
        pub sample_interval: u64,
        /// Capture VCD changes.
        pub vcd: bool,
        /// VCD watch list (empty = every node's output ports).
        pub signals: Vec<String>,
        /// Silence budget: a peer that sends nothing for this long while
        /// the run is incomplete trips `SimError::NetTimeout`.
        pub io_timeout_ms: u64,
        /// Target cycles between coordinated cluster checkpoints (0 = no
        /// checkpointing, and therefore no crash recovery). Every worker
        /// stops at each multiple of this interval, reaches link
        /// quiescence, and ships a portable state blob to the coordinator
        /// (see `fireaxe-net`'s failure-model docs).
        pub checkpoint_interval: u64,
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

impl Topology {
    /// The hash a pooled worker keys a kept build by: every payload
    /// (each names its partition, so the key names the partition set)
    /// and everything else that determines the build. Process-local: the
    /// value never crosses the wire.
    pub(crate) fn cache_key(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u32(self.n_workers);
        let mut settings = Vec::new();
        self.settings.put(&mut settings);
        h.write_usize(self.payloads.len());
        for bytes in self.payloads.iter().chain([&settings]) {
            h.write_usize(bytes.len());
            h.write(bytes);
        }
        h.finish()
    }
}

/// Run-phase silence, milliseconds, a net run tolerates by default.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 10_000;

impl Default for WireSettings {
    fn default() -> Self {
        WireSettings {
            retry: RetryPolicy::default(),
            sample_interval: 0,
            vcd: false,
            signals: Vec::new(),
            io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
            checkpoint_interval: 0,
        }
    }
}

impl WireSettings {
    /// The most frames one token message carries: a link's credit
    /// window, [`crate::flow::INITIAL_CREDITS`].
    pub fn effective_batch(&self) -> usize {
        crate::flow::INITIAL_CREDITS as usize
    }
}

/// [`Msg::Fatal`] code: generic simulation failure (message carries the
/// rendered error).
pub const FATAL_SIM: u8 = 0;
/// [`Msg::Fatal`] code: a link's retry budget ran dry (`link` and
/// `attempts` are meaningful).
pub const FATAL_LINK_DOWN: u8 = 1;

// ---------------------------------------------------------------------
// The message table.
// ---------------------------------------------------------------------

/// Declares the message enum from its table, with one `TAG_* = n`
/// constant per variant and the enum's `Wire` layout: the tag byte, then
/// the variant's fields in declaration order.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum Msg {
            $(
                $(#[$vmeta:meta])*
                $tag:ident = $n:literal => $v:ident
                    $({ $($(#[$fmeta:meta])* $f:ident: $ft:ty),* $(,)? })?
                    $(($tn:ident: $tt:ty))?
                    $(with $dec:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Msg {
            $(
                $(#[$vmeta])*
                $v $({ $($(#[$fmeta])* $f: $ft),* })? $(($tt))?,
            )*
        }

        $(const $tag: u8 = $n;)*

        fireaxe_ir::wire_enum!(Msg, "message tag" {
            $($tag => $v $({ $($f: $ft),* })? $(($tn: $tt))? $(with $dec)?),*
        });
    };
}

messages! {
    /// A wire protocol message.
    #[derive(Debug, Clone)]
    pub enum Msg {
        /// Coordinator → worker: protocol identification.
        TAG_HELLO = 1 => Hello {
            /// [`PROTOCOL_MAGIC`].
            magic: u32,
            /// Sender's [`PROTOCOL_VERSION`].
            version: u32,
            /// The worker index this connection is for.
            worker: u32,
        },
        /// Worker → coordinator: handshake response.
        TAG_HELLO_ACK = 2 => HelloAck {
            /// [`PROTOCOL_MAGIC`].
            magic: u32,
            /// Responder's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Coordinator → worker: build your share of the simulation.
        TAG_TOPOLOGY = 3 => Topology(topology: Box<Topology>),
        /// Worker → coordinator: built; `design_digest` must match the
        /// coordinator's digest of the same partition set (see
        /// [`set_digest`]).
        TAG_READY = 4 => Ready {
            /// Digest over the worker's nodes, their port tables and the
            /// link table.
            design_digest: u64,
        },
        /// Coordinator → worker: run to exactly `budget` target cycles.
        TAG_RUN = 5 => Run {
            /// Target-cycle budget.
            budget: u64,
        },
        /// A sealed token frame on a cross-worker link (sender → coordinator
        /// → receiving worker).
        TAG_TOKEN = 6 => Token {
            /// Link index.
            link: u32,
            /// The sealed go-back-N frame.
            frame: Frame,
        } with decode_token,
        /// Several consecutive target cycles' worth of sealed token frames
        /// for one link, packed into a single wire message (sender →
        /// coordinator → receiving worker). Frames ride back-to-back in
        /// sequence order; the receiver acknowledges once, cumulatively,
        /// after staging the whole batch. Semantically identical to the
        /// same frames sent as individual [`Msg::Token`]s — batching only
        /// amortizes round trips and syscalls.
        TAG_TOKEN_BATCH = 16 => TokenBatch {
            /// Link index.
            link: u32,
            /// The sealed frames, in ascending sequence order.
            frames: Vec<Frame>,
        } with decode_token_batch,
        /// Decode-side stand-in for a [`Msg::Token`] whose frame bytes were
        /// damaged in flight: the link index survived but the frame did not.
        /// Counted as a CRC casualty; the sender's timeout recovers.
        TAG_CORRUPT_TOKEN = 15 => CorruptToken {
            /// Link index.
            link: u32,
        },
        /// Cumulative acknowledgment for a link (receiver → sender).
        TAG_ACK = 7 => Ack {
            /// Link index.
            link: u32,
            /// Next expected sequence number.
            ack: u64,
        },
        /// Flow-control credits returned as the receiver's LI-BDN queue
        /// consumes staged tokens (receiver → sender).
        TAG_CREDIT = 8 => Credit {
            /// Link index.
            link: u32,
            /// Tokens consumed since the last credit message.
            amount: u32,
        },
        /// Worker → coordinator: lowest owned-node target cycle, sent every
        /// 256 target cycles and on a wall-clock heartbeat (feeds stall
        /// forensics).
        TAG_PROGRESS = 9 => Progress {
            /// Minimum completed target cycle across owned nodes.
            cycle: u64,
        },
        /// Worker → coordinator: every owned node reached the budget and
        /// every outbound frame is acknowledged.
        TAG_DONE = 10 => Done {
            /// The completed budget.
            cycle: u64,
        },
        /// Coordinator → worker: the whole cluster is done; send your
        /// report.
        TAG_FINISH = 11 => Finish,
        /// Worker → coordinator: end-of-run report.
        TAG_REPORT = 12 => Report(report: Box<WireReport>),
        /// Coordinator → worker: tear down and exit cleanly.
        TAG_SHUTDOWN = 13 => Shutdown,
        /// Worker → coordinator: unrecoverable failure ([`FATAL_SIM`],
        /// [`FATAL_LINK_DOWN`]).
        TAG_FATAL = 14 => Fatal {
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
        TAG_BARRIER = 17 => Barrier {
            /// Recovery epoch the worker believes it is in.
            epoch: u32,
            /// The barrier cycle (a multiple of `checkpoint_interval`).
            cycle: u64,
        },
        /// Coordinator → workers: the whole cluster is quiescent at the
        /// barrier; capture your partition's portable state now.
        TAG_TAKE_CHECKPOINT = 18 => TakeCheckpoint {
            /// Current recovery epoch.
            epoch: u32,
            /// The barrier cycle.
            cycle: u64,
        },
        /// Worker → coordinator: the partition's portable state blob (see
        /// `DistributedSim::snapshot_partition_bytes` plus the net layer's
        /// flow marks). The worker keeps a local copy to rewind from.
        TAG_CHECKPOINT = 19 => Checkpoint {
            /// Current recovery epoch.
            epoch: u32,
            /// The barrier cycle the blob was captured at.
            cycle: u64,
            /// The portable state blob.
            blob: Vec<u8>,
        },
        /// Coordinator → workers: every worker's blob arrived; the
        /// checkpoint set is durable. Resume running.
        TAG_CHECKPOINT_ACK = 20 => CheckpointAck {
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
        TAG_REWIND = 21 => Rewind {
            /// The new (incremented) recovery epoch.
            epoch: u32,
            /// The checkpoint cycle to rewind to.
            cycle: u64,
        },
        /// Worker → coordinator: rewound and holding at `cycle`.
        TAG_REWIND_ACK = 22 => RewindAck {
            /// The recovery epoch being acknowledged.
            epoch: u32,
            /// The cycle the worker rewound to.
            cycle: u64,
        },
        /// Coordinator → a freshly respawned worker: adopt this checkpoint
        /// blob (captured by your predecessor at `cycle`) before running.
        TAG_RESTORE = 23 => Restore {
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
        TAG_RESUME = 24 => Resume {
            /// Current recovery epoch.
            epoch: u32,
            /// The cycle the cluster is resuming from.
            cycle: u64,
        },

        // -- Control plane (v4): the live cockpit. Clients speak these to
        // the coordinator's control listener; the coordinator forwards the
        // worker-facing subset over the existing worker connections.
        /// Client → coordinator: attach a cockpit session.
        TAG_ATTACH = 25 => Attach {
            /// [`PROTOCOL_MAGIC`].
            magic: u32,
            /// Client's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Coordinator → client: attach accepted; the cluster's node table
        /// and shared VCD signal table (the peek/poke and wave-stream
        /// address spaces).
        TAG_ATTACH_ACK = 26 => AttachAck {
            /// Every node with identity and current progress.
            nodes: Vec<NodeInfo>,
            /// The global VCD signal table (empty when capture is off).
            signals: Vec<VcdSignal>,
            /// Metric sampling cadence in target cycles (0 = off).
            sample_interval: u64,
        },
        /// Client → coordinator: end the cockpit session (the run
        /// continues; a pause fence left standing is lifted).
        TAG_DETACH = 27 => Detach,
        /// Pause request. Client → coordinator with `cycle == 0` ("pick the
        /// nearest safe fence"); coordinator → workers with the concrete
        /// fence cycle every partition must stop at. Workers stop *exactly*
        /// at the fence — the same deterministic cycle-boundary sampling
        /// point budgets and checkpoint barriers use — so peeks, pokes, and
        /// digests taken while paused are cycle-exact.
        TAG_PAUSE = 28 => Pause {
            /// Fence target cycle (0 in the client request form).
            cycle: u64,
        },
        /// Worker → coordinator: every owned node sits exactly at the fence
        /// and all outbound frames are acknowledged. Coordinator → client:
        /// the whole cluster is paused at `cycle`.
        TAG_PAUSE_ACK = 29 => PauseAck {
            /// The fence cycle reached.
            cycle: u64,
        },
        /// Client → coordinator: advance the paused cluster exactly `n`
        /// target cycles, then pause again (implemented as a fence move).
        TAG_STEP = 30 => Step {
            /// Cycles to advance.
            n: u64,
        },
        /// Resume after a pause: client → coordinator, coordinator →
        /// workers (lifts the fence; the run continues toward its budget).
        TAG_RESUME_RUN = 31 => ResumeRun,
        /// Peek a signal: client → coordinator → owning worker.
        TAG_PEEK = 32 => Peek {
            /// Flat node index (from [`Msg::AttachAck`]).
            node: u32,
            /// Hierarchical signal path inside the node.
            path: String,
        },
        /// Peek answer: worker → coordinator → client.
        TAG_PEEK_REPLY = 33 => PeekReply {
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
        TAG_POKE = 34 => Poke {
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
        TAG_POKE_ACK = 35 => PokeAck {
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
        TAG_SUBSCRIBE = 36 => Subscribe {
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
        TAG_WAVE_DELTA = 37 => WaveDelta {
            /// Flat node index.
            node: u32,
            /// Changes `(cycle, signal, value)` in recording order.
            changes: Vec<(u64, u32, Bits)>,
        },
        /// New metric samples of one node since the last delta (worker →
        /// coordinator → client).
        TAG_METRIC_DELTA = 38 => MetricDelta {
            /// Flat node index.
            node: u32,
            /// Samples in cycle order.
            samples: Vec<NodeSample>,
        },
        /// Client → coordinator: capture a coordinated cluster checkpoint
        /// now (reuses the two-phase barrier/checkpoint machinery).
        TAG_SNAPSHOT_NOW = 39 => SnapshotNow,
        /// Coordinator → client: the on-demand checkpoint set is durable.
        TAG_SNAPSHOT_DONE = 40 => SnapshotDone {
            /// The barrier cycle the snapshot was captured at.
            cycle: u64,
        },
        /// Client → coordinator: report cluster progress.
        TAG_STATUS = 41 => Status,
        /// Coordinator → client: per-node progress plus pause state.
        TAG_STATUS_REPLY = 42 => StatusReply {
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
        TAG_RESET_TO_IDLE = 43 => ResetToIdle,
        /// Worker → coordinator: reset complete, returning to accept. Sent
        /// immediately before the worker closes the session socket.
        TAG_IDLE_ACK = 44 => IdleAck,
        /// Client → job server: run this design. The circuit rides as a
        /// binary tape (see `fireaxe_ir::tape`); its bytes — with the spec
        /// and settings — key the server's compiled-design cache.
        TAG_SUBMIT_JOB = 45 => SubmitJob {
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
            /// Run settings.
            settings: WireSettings,
        },
        /// Job server → client: submission admitted and queued.
        TAG_JOB_ACCEPTED = 46 => JobAccepted {
            /// Server-assigned job id.
            job: u64,
        },
        /// Client → job server: report job status (`job == 0`: all jobs).
        TAG_JOB_STATUS = 47 => JobStatus {
            /// Job id, or 0 for every job.
            job: u64,
        },
        /// Job server → client: job table plus cache/pool statistics.
        TAG_JOB_STATUS_REPLY = 48 => JobStatusReply {
            /// Matching jobs, in submission order.
            jobs: Vec<JobInfo>,
            /// Server-wide cache and pool counters.
            stats: ServeStats,
        },
        /// Job server → client: terminal result of a submitted job.
        TAG_JOB_RESULT = 49 => JobResult {
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
        TAG_CANCEL_JOB = 50 => CancelJob {
            /// Job id.
            job: u64,
        },
        /// Operator → job server: forcibly evict any job (the
        /// quota-enforcement verb, also usable by an administrator).
        TAG_EVICT_JOB = 51 => EvictJob {
            /// Job id.
            job: u64,
            /// Human-readable reason echoed into the job's result.
            reason: String,
        },
    }
}

/// A token's link index decides where a damaged frame is counted, so
/// once the link is read the token never fails: a frame damaged in flight
/// decodes as [`Msg::CorruptToken`], a CRC casualty the sender's timeout
/// recovers.
fn decode_token(d: &mut Dec<'_>) -> DecResult<Msg> {
    let link = d.get()?;
    Ok(match intact_rest(d) {
        Some(frame) => Msg::Token { link, frame },
        None => Msg::CorruptToken { link },
    })
}

/// As [`decode_token`], for a whole batch: any damage degrades it, since
/// the go-back-N window retransmits everything unacked and dropping the
/// readable tail loses nothing.
fn decode_token_batch(d: &mut Dec<'_>) -> DecResult<Msg> {
    let link = d.get()?;
    Ok(match intact_rest(d) {
        Some(frames) => Msg::TokenBatch { link, frames },
        None => Msg::CorruptToken { link },
    })
}

/// The rest of a token message as a `T`, or `None` when it is damaged:
/// short, malformed, or followed by stray bytes. Consumes it either way.
fn intact_rest<T: Wire>(d: &mut Dec<'_>) -> Option<T> {
    let v = T::get(d).ok().filter(|_| d.remaining() == 0);
    let _damaged = d.take(d.remaining());
    v
}

/// Serializes one message (without the length prefix).
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    msg.put(&mut b);
    b
}

/// Deserializes one message payload.
///
/// # Errors
///
/// Describes the first malformed field, or bytes trailing the message.
/// A token whose frame bytes are damaged but whose link index is
/// readable decodes as [`Msg::CorruptToken`] instead of failing.
pub fn decode_msg(buf: &[u8]) -> DecResult<Msg> {
    let mut d = Dec::new(buf).refuse_zero_width();
    let msg = Msg::get(&mut d)?;
    d.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Appends `msg` to `buf` as one length-prefixed frame, encoded in
/// place: the prefix is reserved, the message encoded behind it, and
/// the length patched in.
pub(crate) fn frame_into(buf: &mut Vec<u8>, msg: &Msg) {
    let at = buf.len();
    buf.extend_from_slice(&[0; PREFIX]);
    msg.put(buf);
    let len = buf.len() - at - PREFIX;
    debug_assert!(len <= MAX_MSG_LEN as usize);
    buf[at..at + PREFIX].copy_from_slice(&(len as u32).to_be_bytes());
}

/// The payload length a frame's prefix announces.
fn payload_len(prefix: [u8; PREFIX]) -> io::Result<usize> {
    let len = u32::from_be_bytes(prefix);
    if len > MAX_MSG_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message length {len} exceeds {MAX_MSG_LEN}"),
        ));
    }
    Ok(len as usize)
}

/// How many bytes the frame at the front of a stream buffer spans,
/// prefix included, as far as is known: its declared length once the
/// whole prefix is in, else just the prefix. `Err` for a length prefix
/// above [`MAX_MSG_LEN`].
pub(crate) fn frame_extent(buf: &[u8]) -> io::Result<usize> {
    match buf.first_chunk::<PREFIX>() {
        Some(prefix) => Ok(PREFIX + payload_len(*prefix)?),
        None => Ok(PREFIX),
    }
}

/// The length of the complete frame (prefix included) at the front of a
/// stream buffer, `Ok(None)` while it is incomplete, `Err` for a length
/// prefix above [`MAX_MSG_LEN`].
pub(crate) fn framed_len(buf: &[u8]) -> io::Result<Option<usize>> {
    let end = frame_extent(buf)?;
    Ok((buf.len() >= end).then_some(end))
}

/// [`decode_msg`] on one frame as [`read_raw_msg`] returns it.
pub(crate) fn decode_frame(frame: &[u8]) -> DecResult<Msg> {
    decode_msg(frame.get(PREFIX..).unwrap_or_default())
}

/// Writes one length-prefixed message.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> io::Result<()> {
    let mut framed = Vec::with_capacity(64);
    frame_into(&mut framed, msg);
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
    let mut frame = Vec::new();
    if !read_raw_msg(r, &mut frame)? {
        return Ok(None);
    }
    decode_frame(&frame).map(Some).map_err(|e| {
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
    let mut prefix = [0u8; PREFIX];
    // EOF before the first byte is a clean end; after it, a torn frame.
    loop {
        match r.read(&mut prefix[..1]) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut prefix[1..])?;
    let len = payload_len(prefix)?;
    buf.extend_from_slice(&prefix);
    buf.resize(PREFIX + len, 0);
    r.read_exact(&mut buf[PREFIX..])?;
    Ok(true)
}

/// A data-plane frame as the coordinator's relay and the fault proxy
/// route it, read without decoding. A field is `None` when the frame is
/// too short to carry it; a token's `max_seq` covers a whole batch, whose
/// frames carry consecutive sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataMsg {
    Token {
        link: Option<usize>,
        max_seq: Option<u64>,
    },
    CorruptToken {
        link: Option<usize>,
    },
    Ack {
        link: Option<usize>,
        ack: Option<u64>,
    },
    Credit {
        link: Option<usize>,
    },
}

/// Peeks a raw frame as [`read_raw_msg`] returns it: the data-plane
/// message it carries, or `None` for a control message.
pub(crate) fn peek_data(frame: &[u8]) -> Option<DataMsg> {
    let mut d = Dec::new(frame.get(PREFIX..)?);
    let tag = u8::get(&mut d).ok()?;
    let link = u32::get(&mut d).ok().map(|l| l as usize);
    Some(match tag {
        // A frame leads with its sequence number.
        TAG_TOKEN => DataMsg::Token {
            link,
            max_seq: u64::get(&mut d).ok(),
        },
        TAG_TOKEN_BATCH => {
            let n = u32::get(&mut d).ok();
            let first = u64::get(&mut d).ok();
            let max_seq = n
                .zip(first)
                .map(|(n, s)| s.saturating_add(u64::from(n.max(1) - 1)));
            DataMsg::Token { link, max_seq }
        }
        TAG_CORRUPT_TOKEN => DataMsg::CorruptToken { link },
        TAG_ACK => DataMsg::Ack {
            link,
            ack: u64::get(&mut d).ok(),
        },
        TAG_CREDIT => DataMsg::Credit { link },
        _ => return None,
    })
}

/// FNV-1a digest over what one process built of partition `partition`:
/// each of its nodes' flat index, name and elaborated port tables, then
/// the cut's link table. The coordinator compares it with the same
/// digest of its own passive build, so every process is known to run
/// the same build of the same cut before tokens start flowing.
pub fn partition_digest(sim: &DistributedSim, partition: usize) -> u64 {
    let mut h = Fnv1a::default();
    for n in (0..sim.node_count()).filter(|&n| sim.node_partition(n) == partition) {
        h.write_u64(n as u64);
        name_into(&mut h, sim.node_name(n));
        let model = sim.target(n);
        for ports in [model.input_ports(), model.output_ports()] {
            h.write_u64(ports.len() as u64);
            for (port, width) in ports {
                name_into(&mut h, &port);
                h.write_u64(u64::from(width.get()));
            }
        }
    }
    links_into(&mut h, &sim.link_specs());
    h.finish()
}

/// The digest a worker hosting a set of partitions sends in
/// [`Msg::Ready`]: the [`partition_digest`] of each, in partition order,
/// chained with FNV-1a, so a one-partition set digests as its partition.
pub fn set_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .reduce(|acc, d| {
            let mut h = Fnv1a::default();
            h.write_u64(acc);
            h.write_u64(d);
            h.finish()
        })
        .unwrap_or_else(|| Fnv1a::default().finish())
}

fn name_into(h: &mut Fnv1a, s: &str) {
    for b in s.as_bytes() {
        h.write_u64(u64::from(*b));
    }
    h.write_u64(u64::MAX); // terminator
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
        name_into(&mut h, name);
        h.write_u64(*partition as u64);
    }
    links_into(&mut h, links);
    h.finish()
}

// The tests below build messages from these.
#[cfg(test)]
use {
    fireaxe_obs::EventKind,
    fireaxe_ripper::{PartitionGroup, Selection},
};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
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
        0u32.put(&mut b);
        64u64.put(&mut b);
        100u32.put(&mut b); // claims 100 bytes, carries none
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
            payloads: Vec::new(),
            settings,
        })));
    }

    #[test]
    fn cache_key_follows_the_payload_and_settings() {
        let base = Topology {
            worker: 0,
            n_workers: 4,
            payloads: vec![vec![1, 2, 3]],
            settings: WireSettings::default(),
        };
        // The payloads name their partitions; the worker index is only
        // where they were placed.
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
                payloads: vec![vec![1, 2, 4]],
                ..base.clone()
            },
            // A worker that built a set must not serve one of its
            // members from that build, nor the set from a member's.
            Topology {
                payloads: vec![vec![1, 2, 3], vec![4, 5]],
                ..base.clone()
            },
            Topology {
                payloads: vec![vec![1, 2], vec![3]],
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
    fn topology_roundtrips() {
        let settings = WireSettings {
            vcd: true,
            signals: vec!["tile0:counter".into()],
            ..WireSettings::default()
        };
        roundtrip(&Msg::Topology(Box::new(Topology {
            worker: 1,
            n_workers: 4,
            payloads: vec![
                vec![0x46, 0x58, 0x57, 0x31, 0x01],
                vec![0x46, 0x58, 0x57, 0x31, 0x02],
            ],
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
        0u32.put(&mut b);
        u32::MAX.put(&mut b);
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
