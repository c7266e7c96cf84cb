//! Simulation engine errors and stall forensics.

use fireaxe_transport::fault::FaultEvent;
use std::fmt;

/// One node's view of a stall: where its target clock stopped and which
/// channels were holding it up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStall {
    /// Node (partition thread) name.
    pub node: String,
    /// Target cycle the node had completed when the stall was declared.
    pub target_cycle: u64,
    /// Per-input-channel `(name, queued tokens)` — channels at 0 are the
    /// ones the fireFSM is starved on.
    pub waiting_inputs: Vec<(String, usize)>,
    /// Per-output-channel `(name, fired this target cycle)` — unfired
    /// outputs still owe the peer a token.
    pub fired_outputs: Vec<(String, bool)>,
}

impl NodeStall {
    /// Column header matching the [`Display`](fmt::Display) row layout.
    pub fn table_header() -> String {
        format!(
            "{:<16} {:>10}  {:<28} {}",
            "node", "cycle", "inputs (queued)", "outputs (* = fired)"
        )
    }
}

impl fmt::Display for NodeStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ins: Vec<String> = self
            .waiting_inputs
            .iter()
            .map(|(n, q)| format!("{n}={q}"))
            .collect();
        let outs: Vec<String> = self
            .fired_outputs
            .iter()
            .map(|(n, fired)| format!("{n}{}", if *fired { "*" } else { "" }))
            .collect();
        write!(
            f,
            "{:<16} {:>10}  {:<28} {}",
            self.node,
            self.target_cycle,
            ins.join(", "),
            outs.join(", ")
        )
    }
}

/// Structured forensics attached to [`SimError::Deadlock`] and
/// [`SimError::LinkDown`]: what every node was waiting on, how many
/// tokens were still in flight, and the fault-plan events that preceded
/// the stall.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallReport {
    /// Virtual time at which the stall was declared, picoseconds (0
    /// under the threaded backend, which has no virtual clock).
    pub time_ps: u64,
    /// Per-node stall detail.
    pub nodes: Vec<NodeStall>,
    /// Tokens sent but not yet delivered (in transport flight or in
    /// undelivered retransmit buffers).
    pub tokens_in_flight: u64,
    /// Most recent injected fault events (bounded window, oldest first).
    pub recent_faults: Vec<FaultEvent>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "t={} ns, {} token(s) in flight",
            self.time_ps / 1000,
            self.tokens_in_flight
        )?;
        if !self.nodes.is_empty() {
            writeln!(f, "  {}", NodeStall::table_header())?;
        }
        for n in &self.nodes {
            writeln!(f, "  {n}")?;
        }
        if !self.recent_faults.is_empty() {
            writeln!(f, "  recent faults:")?;
            for e in &self.recent_faults {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

/// Errors raised while building or running a distributed simulation.
#[derive(Debug)]
pub enum SimError {
    /// No progress is possible: every LI-BDN is stalled and no tokens are
    /// in flight (e.g. the paper's Fig. 2a non-separated-channel
    /// deadlock).
    Deadlock {
        /// Stall forensics.
        report: StallReport,
    },
    /// A link exhausted its retry budget: the reliability layer could not
    /// deliver a token within the configured retransmission policy.
    /// Recoverable via checkpoint/rollback (see
    /// `DistributedSim::run_target_cycles_recovering`).
    LinkDown {
        /// Failing link index.
        link: usize,
        /// Physical transmission attempts consumed on the fatal frame.
        attempts: u32,
        /// Stall forensics at the moment of escalation.
        report: StallReport,
    },
    /// Checkpointing was requested but a node's target model cannot be
    /// snapshotted (e.g. it wraps extern behavioral state).
    SnapshotUnsupported {
        /// Name of the offending node.
        node: String,
    },
    /// The run exceeded its host-step budget without meeting its stop
    /// condition.
    StepLimit {
        /// The configured limit.
        limit: u64,
    },
    /// A behavior key required by an extern module was not registered.
    MissingBehavior {
        /// Node name.
        node: String,
        /// Instance path within the node.
        path: String,
        /// The unregistered key.
        key: String,
    },
    /// A distributed-backend peer process died or closed its socket
    /// mid-run (see `fireaxe-net`). Carries the peer's address and the
    /// last target cycle it had acknowledged, plus the coordinator's
    /// view of every worker's progress at the moment of loss.
    PeerDisconnected {
        /// Peer address (`host:port` or `unix:/path`).
        peer: String,
        /// Last target cycle the peer reported/acknowledged.
        last_acked_cycle: u64,
        /// Cluster-wide stall forensics.
        report: StallReport,
    },
    /// A distributed worker died more times than the cluster's automatic
    /// restart budget allows: the coordinator rewound the survivors and
    /// respawned the worker `restarts` times, and it kept failing, so
    /// the run degrades to this typed error naming the unrecoverable
    /// partitions (see `fireaxe-net`'s failover docs).
    PartitionLost {
        /// The first partition the unrecoverable worker hosted.
        partition: usize,
        /// The worker: its last known address and every partition it
        /// hosted.
        peer: String,
        /// Respawn attempts consumed before giving up.
        restarts: u32,
        /// Cluster-wide stall forensics at the final failure.
        report: StallReport,
    },
    /// A distributed-backend peer speaks an incompatible wire protocol
    /// (version or magic mismatch during the handshake).
    ProtocolMismatch {
        /// Peer address.
        peer: String,
        /// Our protocol version.
        ours: u32,
        /// The peer's protocol version.
        theirs: u32,
    },
    /// A distributed-backend socket operation timed out (connect, or no
    /// progress message within the configured I/O window).
    NetTimeout {
        /// Peer address (or a cluster-wide description).
        peer: String,
        /// The timeout that expired, milliseconds.
        timeout_ms: u64,
        /// Last target cycle acknowledged before the silence.
        last_acked_cycle: u64,
    },
    /// A bit-sliced batch lane disagreed with its independent sequential
    /// replay (verify mode of `BatchRun`): either the stimulus callback
    /// is not a pure function of `(scenario, cycle)` or the sliced
    /// engine miscompiled the netlist.
    BatchDivergence {
        /// Diverging scenario name.
        name: String,
        /// Diverging scenario seed.
        seed: u64,
        /// Lane index inside its sliced batch.
        lane: u32,
        /// Architectural digest produced by the sliced lane.
        sliced_digest: u64,
        /// Architectural digest produced by the sequential replay.
        sequential_digest: u64,
    },
    /// A job-server tenant asked for more than its quota allows: the
    /// submission (or dispatch) was rejected before consuming cluster
    /// resources. Typed so clients can distinguish "over budget" from
    /// infrastructure failures and back off instead of retrying.
    QuotaExceeded {
        /// Tenant whose quota was exhausted.
        tenant: String,
        /// Which resource ran out (`jobs`, `cycles`, `worker-seconds`).
        resource: String,
        /// The configured limit.
        limit: u64,
        /// Consumption at the moment of rejection (including the
        /// rejected request where that makes sense).
        used: u64,
    },
    /// A job-server job was evicted before reaching its requested cycle
    /// budget — quota clamp or operator `EvictJob` — but ran far enough
    /// to produce a *partial* report. The metrics describe real
    /// simulated cycles; `target_cycles` says how far it got.
    JobEvicted {
        /// Server-assigned job id.
        job: u64,
        /// Owning tenant.
        tenant: String,
        /// Human-readable eviction cause.
        reason: String,
        /// Partial run measurements up to the eviction point.
        report: Box<crate::engine::SimMetrics>,
    },
    /// Bad configuration (unknown partition/node/link index, invalid
    /// fault spec or retry policy, etc.).
    Config {
        /// Explanation.
        message: String,
    },
    /// Underlying LI-BDN failure.
    Libdn(fireaxe_libdn::LibdnError),
    /// Underlying IR failure (elaboration of a partition circuit).
    Ir(fireaxe_ir::IrError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { report } => {
                write!(f, "simulation deadlocked at {report}")
            }
            SimError::LinkDown {
                link,
                attempts,
                report,
            } => write!(
                f,
                "link {link} down after {attempts} transmission attempts, at {report}"
            ),
            SimError::SnapshotUnsupported { node } => write!(
                f,
                "node `{node}` cannot be checkpointed (behavioral target state)"
            ),
            SimError::StepLimit { limit } => {
                write!(f, "host-step limit of {limit} exceeded")
            }
            SimError::MissingBehavior { node, path, key } => write!(
                f,
                "node `{node}` needs behavior `{key}` at `{path}` but none is registered"
            ),
            SimError::PeerDisconnected {
                peer,
                last_acked_cycle,
                report,
            } => write!(
                f,
                "peer `{peer}` disconnected (last acknowledged target cycle \
                 {last_acked_cycle}), at {report}"
            ),
            SimError::PartitionLost {
                partition: _,
                peer,
                restarts,
                report,
            } => write!(
                f,
                "worker `{peer}` unrecoverable after {restarts} restart(s), at {report}"
            ),
            SimError::ProtocolMismatch { peer, ours, theirs } => write!(
                f,
                "peer `{peer}` speaks wire protocol v{theirs}, we speak v{ours}"
            ),
            SimError::NetTimeout {
                peer,
                timeout_ms,
                last_acked_cycle,
            } => write!(
                f,
                "no message from `{peer}` within {timeout_ms} ms (last acknowledged \
                 target cycle {last_acked_cycle})"
            ),
            SimError::BatchDivergence {
                name,
                seed,
                lane,
                sliced_digest,
                sequential_digest,
            } => write!(
                f,
                "batch scenario `{name}` (seed {seed}, lane {lane}) diverged: \
                 sliced digest {sliced_digest:#018x} vs sequential {sequential_digest:#018x}"
            ),
            SimError::QuotaExceeded {
                tenant,
                resource,
                limit,
                used,
            } => write!(
                f,
                "tenant `{tenant}` exceeded its {resource} quota ({used} used of {limit})"
            ),
            SimError::JobEvicted {
                job,
                tenant,
                reason,
                report,
            } => write!(
                f,
                "job {job} (tenant `{tenant}`) evicted after {} target cycles: {reason}",
                report.target_cycles
            ),
            SimError::Config { message } => write!(f, "bad simulation config: {message}"),
            SimError::Libdn(e) => write!(f, "LI-BDN error: {e}"),
            SimError::Ir(e) => write!(f, "IR error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Libdn(e) => Some(e),
            SimError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fireaxe_libdn::LibdnError> for SimError {
    fn from(e: fireaxe_libdn::LibdnError) -> Self {
        SimError::Libdn(e)
    }
}

impl From<fireaxe_ir::IrError> for SimError {
    fn from(e: fireaxe_ir::IrError) -> Self {
        SimError::Ir(e)
    }
}

impl From<fireaxe_transport::TransportError> for SimError {
    fn from(e: fireaxe_transport::TransportError) -> Self {
        SimError::Config {
            message: e.to_string(),
        }
    }
}

/// Convenient alias.
pub type Result<T> = std::result::Result<T, SimError>;
