//! The coordinator process: cluster bring-up, token relay, teardown.
//!
//! Placement: a job's `P` partitions run on the 1 to `P` workers it is
//! given, worker `w` hosting the contiguous run
//! [`fireaxe_sim::placement()`] assigns it (one partition each at `P`
//! workers). A link whose two partitions share a worker stays inside
//! that worker's process and never reaches a socket.
//!
//! Topology is a star: every worker holds one connection to the
//! coordinator, and all cross-worker link traffic is relayed through it
//! tagged with the link index. That costs one extra hop versus a full
//! mesh but keeps bring-up O(workers), gives a single place to observe
//! progress and detect failure, and matches the paper's host-managed
//! switchboard arrangement.
//!
//! The relay is the latency-critical path of every cross-partition
//! token, so data-plane traffic never touches the control loop: each
//! worker connection gets a relay thread that reads raw framed bytes,
//! peeks the tag and link index, and forwards the bytes verbatim to
//! the destination worker's (mutex-serialized) write half — no decode,
//! no re-encode, no extra thread hand-off. A burst of messages that
//! arrives in one read is routed in full before anything is written,
//! accumulated per destination, so the burst costs each destination
//! worker one socket write — and therefore one wakeup — rather than
//! one per message; on core-starved hosts scheduler wakeups, not
//! bytes, are what bound per-cycle wire latency. Only control messages
//! (`Progress`, `Done`, `Report`, `Fatal`) are decoded and handed to
//! the control loop, which tracks liveness and teardown.
//!
//! Lifecycle: connect → `Hello`/`HelloAck` version check → `Topology`
//! (the worker's partition payloads + settings) → `Ready` digest
//! agreement →
//! `Run` → relay `Token`/`Ack`/`Credit` while tracking `Progress` →
//! all `Done` → `Finish` → collect `Report`s → `Shutdown`. Any fatal
//! error (peer loss, protocol mismatch, silence past the configured
//! timeout, a worker-reported failure) tears the remaining cluster down
//! immediately — sockets are shut down so no process outlives the run —
//! and surfaces as the matching typed [`SimError`].

use crate::codec::{
    decode_frame, design_digest, partition_digest, peek_data, read_msg, set_digest, write_msg,
    DataMsg, Msg, NodeInfo, Topology, WireReport, WireSettings, FATAL_LINK_DOWN, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
use crate::payload::encode_partition_payload;
use crate::stream::{Filled, FrameReader, NetListener, NetStream, Wait};
use crate::worker::{configure, partitions_label, SimSetup};
use fireaxe_ir::Circuit;
use fireaxe_obs::{
    obs_counter, obs_span, to_chrome_json_merged, trace, LinkSample, LinkSeries, MetricsSeries,
    NodeSeries, OwnedTraceEvent, RecoveryEvent, VcdWriter,
};
use fireaxe_ripper::{compile, LinkSpec, PartitionSpec};
use fireaxe_sim::{
    available_cores, placement, pool_size, Backend, LinkCounters, NodeStall, PartitionCut, Result,
    SimBuilder, SimError, SimMetrics, StallReport,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a distributed run hands back: the cluster-folded
/// counters, the merged metric series, and the merged observability
/// documents.
#[derive(Debug)]
pub struct NetRunReport {
    /// Fold of every worker's counters (same shape as an in-process
    /// run's `SimMetrics`; `time_ps` is 0 — no global virtual clock).
    pub metrics: SimMetrics,
    /// Merged per-node/per-link metric series across all processes.
    pub series: MetricsSeries,
    /// Rendered VCD document (when the settings asked for VCD).
    pub vcd: Option<String>,
    /// Merged Chrome trace: the coordinator and each worker as separate
    /// process tracks.
    pub chrome_trace: String,
    /// Every worker failover the coordinator performed during the run
    /// (empty when nothing died, or when recovery was disabled).
    pub recoveries: Vec<RecoveryEvent>,
}

/// Respawns worker `w` (the argument) and returns the address its
/// replacement listens on; the replacement rebuilds every partition the
/// dead worker hosted. Called by the coordinator after a worker death,
/// once per restart attempt.
pub type RespawnFn = Box<dyn FnMut(usize) -> Result<String> + Send>;

/// Bring-up patience per worker (connect + handshake), milliseconds,
/// by default.
pub const DEFAULT_CONNECT_TIMEOUT_MS: u64 = 10_000;
/// Times a dead worker may be respawned by default.
pub const DEFAULT_MAX_RESTARTS: u32 = 2;
/// Delay before the first respawn of a dead worker, milliseconds, by
/// default.
pub const DEFAULT_RESTART_BACKOFF_MS: u64 = 50;

/// Failover policy for [`run_cluster_with`]: what the coordinator does
/// when a worker connection dies mid-run.
///
/// Recovery is active only when *all three* hold: `respawn` is set,
/// `max_restarts > 0`, and the wire settings enable checkpointing
/// (`checkpoint_interval > 0` — without cluster checkpoints there is
/// nothing consistent to rewind to). Otherwise a worker death fails the
/// run with [`SimError::PeerDisconnected`], exactly as before.
pub struct RecoveryOptions {
    /// Respawn budget *per worker*. Once a worker has died
    /// `max_restarts + 1` times the run degrades to a typed
    /// [`SimError::PartitionLost`] naming the worker and its partitions.
    pub max_restarts: u32,
    /// Base delay before the first respawn attempt; doubles on every
    /// further attempt for the same worker (capped at 16×).
    pub restart_backoff: Duration,
    /// Worker factory (see [`RespawnFn`]); `None` disables failover.
    pub respawn: Option<RespawnFn>,
}

impl RecoveryOptions {
    /// No failover: worker death fails the run (the historical
    /// behavior).
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_restarts: 0,
            restart_backoff: Duration::from_millis(DEFAULT_RESTART_BACKOFF_MS),
            respawn: None,
        }
    }
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self::none()
    }
}

impl std::fmt::Debug for RecoveryOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryOptions")
            .field("max_restarts", &self.max_restarts)
            .field("restart_backoff", &self.restart_backoff)
            .field("respawn", &self.respawn.is_some())
            .finish()
    }
}

enum Event {
    Msg(Msg),
    /// The sending relay thread's socket hit EOF or an error. Tagged
    /// with the relay's generation so an echo from a relay that was
    /// already replaced by a failover cannot be mistaken for a fresh
    /// death of the replacement.
    Closed(u32),
    /// A relay thread caught a protocol violation (unknown link,
    /// malformed message); the run fails with this description.
    Bad(String),
    /// A message from cockpit control client `usize` (the tuple's first
    /// element is the client id, not a worker index).
    Ctl(Msg),
    /// Control client `usize` hung up.
    CtlClosed,
}

fn cfg_err(message: String) -> SimError {
    SimError::Config { message }
}

/// Relay-level sequence bookkeeping, shared between the relay threads
/// (which raise it on the hot path, lock-free) and the control loop
/// (which reads it for stall forensics). Statistics only: they publish
/// no other data, so every access is `Relaxed`.
struct RelayBook {
    /// Per link: highest sequence relayed + 1, 0 while none was.
    sent: Vec<AtomicU64>,
    /// Per link: highest cumulative ACK relayed.
    acked: Vec<AtomicU64>,
}

impl RelayBook {
    fn new(links: usize) -> Self {
        let zeros = || (0..links).map(|_| AtomicU64::new(0)).collect();
        RelayBook {
            sent: zeros(),
            acked: zeros(),
        }
    }
}

struct Cluster {
    /// Serialized write halves: the relay threads and the control loop
    /// both send through these.
    writers: Vec<Arc<Mutex<NetStream>>>,
    /// Unserialized clones used only for `shutdown`, which must never
    /// wait on a writer lock held by a relay blocked mid-write.
    shutdowns: Vec<NetStream>,
    addrs: Vec<String>,
    /// Last cycle each worker reported (via `Progress` or `Done`).
    progress: Vec<u64>,
    /// Per-worker death flags shared with the relay threads: a relay
    /// drops (rather than writes) traffic for a flagged destination, so
    /// one dead socket cannot wedge or kill the relays of the
    /// survivors while a failover is in progress.
    dead: Arc<Vec<AtomicBool>>,
    /// When each worker was last heard from, for per-worker silence
    /// attribution (a hung-but-connected worker produces no `Closed`).
    last_heard: Vec<Instant>,
    book: Arc<RelayBook>,
    /// Which worker hosts what.
    placement: Placement,
}

impl Cluster {
    /// `worker1@addr (partitions 2-3)`: how errors and stall rows name a
    /// worker.
    fn name(&self, worker: usize) -> String {
        format!(
            "worker{worker}@{} ({})",
            self.addrs[worker],
            partitions_label(&self.placement.hosted[worker])
        )
    }

    fn shutdown_sockets(&self) {
        for s in &self.shutdowns {
            s.shutdown();
        }
    }

    /// Synthesized stall forensics from the coordinator's relay-level
    /// view: one row per worker with its last reported cycle, and the
    /// relay's estimate of tokens still unacknowledged on the wire.
    fn stall_report(&self) -> StallReport {
        let tokens_in_flight: u64 = self
            .book
            .sent
            .iter()
            .zip(&self.book.acked)
            .map(|(s, a)| {
                s.load(Ordering::Relaxed)
                    .saturating_sub(a.load(Ordering::Relaxed))
            })
            .sum();
        StallReport {
            time_ps: 0,
            nodes: self
                .progress
                .iter()
                .enumerate()
                .map(|(i, &cycle)| NodeStall {
                    node: self.name(i),
                    target_cycle: cycle,
                    waiting_inputs: Vec::new(),
                    fired_outputs: Vec::new(),
                })
                .collect(),
            tokens_in_flight,
            recent_faults: Vec::new(),
        }
    }

    fn disconnect_error(&self, worker: usize) -> SimError {
        SimError::PeerDisconnected {
            peer: self.name(worker),
            last_acked_cycle: self.progress[worker],
            report: self.stall_report(),
        }
    }

    fn send(&mut self, worker: usize, msg: &Msg) -> Result<()> {
        if self.try_send(worker, msg) {
            return Ok(());
        }
        let e = self.disconnect_error(worker);
        self.shutdown_sockets();
        Err(e)
    }

    /// Like [`Cluster::send`] but a failed write only reports `false`
    /// instead of tearing the whole cluster down — the failover paths
    /// decide what a dead destination means.
    fn try_send(&mut self, worker: usize, msg: &Msg) -> bool {
        write_msg(&mut *self.writers[worker].lock().unwrap(), msg).is_ok()
    }

    /// Send under the active failure policy: with recovery on, a failed
    /// write flags the worker as freshly dead (the main loop runs a
    /// failover for it); with recovery off it fails the run, exactly
    /// like [`Cluster::send`].
    fn send_or_flag(
        &mut self,
        worker: usize,
        msg: &Msg,
        recovery_on: bool,
        dead_now: &mut Option<usize>,
    ) -> Result<()> {
        if self.try_send(worker, msg) {
            return Ok(());
        }
        if recovery_on {
            dead_now.get_or_insert(worker);
            return Ok(());
        }
        let e = self.disconnect_error(worker);
        self.shutdown_sockets();
        Err(e)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_sockets();
    }
}

/// One attached cockpit client's connection state.
struct ClientConn {
    writer: NetStream,
    /// Unserialized clone used only for `shutdown` (same rationale as
    /// [`Cluster::shutdowns`]).
    shutdown: NetStream,
    attached: bool,
    wave: bool,
    metrics: bool,
}

/// The cockpit control plane: every accepted control-socket client,
/// shared between the accept thread (which adds) and the control loop
/// (which answers, streams, and drops on a failed write).
struct ControlPlane {
    clients: Arc<Mutex<Vec<Option<ClientConn>>>>,
}

impl ControlPlane {
    /// Sends to one client; a failed write silently drops the client
    /// (an operator hanging up must never fail the run).
    fn send(&self, id: usize, msg: &Msg) {
        let mut cs = self.clients.lock().unwrap();
        if let Some(slot) = cs.get_mut(id) {
            if let Some(conn) = slot.as_mut() {
                if write_msg(&mut conn.writer, msg).is_err() {
                    conn.shutdown.shutdown();
                    *slot = None;
                }
            }
        }
    }

    /// Sends to every attached client matching `pick`.
    fn broadcast(&self, pick: impl Fn(&ClientConn) -> bool, msg: &Msg) {
        let mut cs = self.clients.lock().unwrap();
        for slot in cs.iter_mut() {
            let keep = match slot.as_mut() {
                Some(conn) if conn.attached && pick(conn) => {
                    write_msg(&mut conn.writer, msg).is_ok()
                }
                _ => true,
            };
            if !keep {
                if let Some(conn) = slot.as_ref() {
                    conn.shutdown.shutdown();
                }
                *slot = None;
            }
        }
    }

    fn set(&self, id: usize, f: impl FnOnce(&mut ClientConn)) {
        if let Some(Some(conn)) = self.clients.lock().unwrap().get_mut(id) {
            f(conn);
        }
    }

    fn drop_client(&self, id: usize) {
        if let Some(slot) = self.clients.lock().unwrap().get_mut(id) {
            if let Some(conn) = slot.as_ref() {
                conn.shutdown.shutdown();
            }
            *slot = None;
        }
    }

    fn any_attached(&self) -> bool {
        self.clients
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .any(|c| c.attached)
    }

    /// The OR of every attached client's stream subscriptions — what
    /// the workers are told to ship.
    fn subscription_or(&self) -> (bool, bool) {
        self.clients
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .filter(|c| c.attached)
            .fold((false, false), |(w, m), c| (w || c.wave, m || c.metrics))
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        for conn in self.clients.lock().unwrap().iter().flatten() {
            conn.shutdown.shutdown();
        }
    }
}

/// Coordinator-side pause negotiation. The fence must be a cycle every
/// node can still reach *exactly*, but `Progress` reports are coarse —
/// a worker may be well past its last reported cycle. So pausing is two
/// rounds: `Pause{0}` makes every worker fence at its own current
/// highest owned cycle and ack it ([`PauseState::Holding`]); the
/// coordinator then broadcasts one past the max of those acks as the
/// concrete fence ([`PauseState::Fencing`]), which every worker can
/// reach (a holding worker no longer advances) and stops at exactly.
enum PauseState {
    /// No fence standing.
    Off,
    /// Round 1: waiting for every worker's hold cycle.
    Holding { acks: Vec<Option<u64>> },
    /// Round 2: a concrete fence is broadcast, waiting for quiescent
    /// acks at it.
    Fencing { fence: u64, acked: Vec<bool> },
    /// The whole cluster sits at `fence`.
    Paused { fence: u64 },
}

/// Control-loop cockpit bookkeeping beyond the per-client state.
struct Cockpit {
    pause: PauseState,
    /// A `Step{n}` that arrived before the cluster finished pausing:
    /// applied (as a fence move) the moment `Paused` is reached.
    pending_step: Option<u64>,
    /// A client-requested `SnapshotNow` is in flight; answered with
    /// `SnapshotDone` when the checkpoint set commits.
    snapshot_pending: bool,
}

/// Per-node identity + progress rows for `AttachAck`/`StatusReply`:
/// each node reports its worker's last known cycle, so an attached
/// client sees per-worker progress skew at a glance.
fn node_infos(nodes_meta: &[(String, usize)], cluster: &Cluster) -> Vec<NodeInfo> {
    nodes_meta
        .iter()
        .zip(&cluster.placement.node_worker)
        .enumerate()
        .map(|(n, ((name, p), &w))| NodeInfo {
            node: n as u32,
            name: name.clone(),
            partition: *p as u32,
            cycle: cluster.progress.get(w).copied().unwrap_or(0),
        })
        .collect()
}

/// Reads one cockpit client's socket into the control loop's event
/// channel until EOF.
fn client_reader(id: usize, mut stream: NetStream, tx: &mpsc::Sender<(usize, Event)>) {
    loop {
        match read_msg(&mut stream) {
            Ok(Some(m)) => {
                if tx.send((id, Event::Ctl(m))).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send((id, Event::CtlClosed));
                return;
            }
        }
    }
}

/// Runs `circuit` partitioned per `spec` for exactly `budget` target
/// cycles across the worker processes listening at `workers` — 1 to `P`
/// of them, each hosting the contiguous run of partitions
/// [`place_cluster`] assigns it. `setup` must bind the same
/// behaviors/bridges every worker's setup binds.
///
/// # Errors
///
/// [`SimError::Config`] for shape errors (no worker, more workers than
/// partitions, digest disagreement), [`SimError::ProtocolMismatch`] /
/// [`SimError::PeerDisconnected`] / [`SimError::NetTimeout`] for wire
/// failures, and whatever a worker reports fatally (e.g.
/// [`SimError::LinkDown`]).
pub fn run_cluster(
    circuit: &Circuit,
    spec: &PartitionSpec,
    budget: u64,
    workers: &[String],
    settings: &WireSettings,
    connect_timeout_ms: u64,
    setup: &SimSetup,
) -> Result<NetRunReport> {
    run_cluster_with(
        circuit,
        spec,
        budget,
        workers,
        settings,
        connect_timeout_ms,
        setup,
        RecoveryOptions::none(),
    )
}

/// [`run_cluster`] with a failover policy: when `recovery` enables it
/// (see [`RecoveryOptions`]) a worker death mid-run is survived by
/// rewinding the surviving cluster to the last committed checkpoint,
/// respawning the dead worker with its partitions, and resuming — bit-exact
/// with an undisturbed run, because replay is deterministic.
///
/// # Errors
///
/// Everything [`run_cluster`] returns, plus
/// [`SimError::PartitionLost`] when one partition exhausts its
/// `max_restarts` respawn budget.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_with(
    circuit: &Circuit,
    spec: &PartitionSpec,
    budget: u64,
    workers: &[String],
    settings: &WireSettings,
    connect_timeout_ms: u64,
    setup: &SimSetup,
    recovery: RecoveryOptions,
) -> Result<NetRunReport> {
    run_cluster_controlled(
        circuit,
        spec,
        budget,
        workers,
        settings,
        connect_timeout_ms,
        setup,
        recovery,
        None,
    )
}

/// [`run_cluster_with`] plus a live-cockpit control plane: when
/// `control` is given, the coordinator accepts `fireaxe attach` clients
/// on it for the whole run. Clients can pause the cluster at an exact
/// consistent target cycle (two-round fence negotiation, see
/// `PauseState`), peek and poke signals by node, single-step, resume,
/// subscribe to streaming waveform/metric deltas, capture an on-demand
/// cluster checkpoint, and query per-partition progress — all without
/// perturbing the simulated trajectory (pokes are cycle-exact staged
/// overrides; streams are clones of the observability tails the
/// end-of-run report drains).
///
/// # Errors
///
/// As [`run_cluster_with`]; control clients never fail the run (a
/// failed client write just drops that client).
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_controlled(
    circuit: &Circuit,
    spec: &PartitionSpec,
    budget: u64,
    workers: &[String],
    settings: &WireSettings,
    connect_timeout_ms: u64,
    setup: &SimSetup,
    recovery: RecoveryOptions,
    control: Option<NetListener>,
) -> Result<NetRunReport> {
    let prepared = prepare_job(circuit, spec, settings, setup)?;
    let placed = place_cluster(&prepared, workers, connect_timeout_ms)?;
    execute_placed(
        &prepared,
        placed,
        budget,
        recovery,
        control,
        Teardown::Shutdown,
    )
}

/// A compiled design ready to be placed on a worker fleet: one
/// [`PartitionCut`] per partition (a threads job builds the set of all
/// of them; their node, link and VCD signal tables are what the
/// coordinator places and folds reports against), the same cuts encoded
/// as payloads for the workers to build from, and the node shapes each
/// worker's `Ready` digest covers.
///
/// A `PreparedJob` is placement-independent: [`place_cluster`] packs its
/// partitions onto however many workers it is given (see
/// [`PreparedJob::n_workers`]), and each worker's `Topology` references
/// the same per-partition payloads, so a job server's cached job places
/// at any fleet size.
///
/// Preparing is the expensive, design-dependent step (partition
/// compile plus a passive local build); placing and executing are
/// cheap and per-run. The job server caches `PreparedJob`s by digest
/// so a repeated submission skips straight to placement.
#[derive(Clone)]
pub struct PreparedJob {
    cuts: Vec<PartitionCut>,
    payloads: Vec<Vec<u8>>,
    ready_digests: Vec<u64>,
    settings: WireSettings,
    digest: u64,
}

impl PreparedJob {
    /// The canonical design digest (see [`design_digest`]): the
    /// compiled cut's identity. Each worker's `Ready` is checked against
    /// the digest of its own partition set instead (see
    /// [`crate::set_digest`]).
    #[must_use]
    pub fn design_digest(&self) -> u64 {
        self.digest
    }

    /// The design's partition count, `P`.
    #[must_use]
    pub fn n_partitions(&self) -> usize {
        self.payloads.len()
    }

    /// The fleet size this design runs best on: one worker per core, at
    /// most one per partition — `min(P, available_parallelism)` (see
    /// [`fireaxe_sim::placement()`]). [`place_cluster`] accepts any
    /// count from 1 to `P`.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        pool_size(self.n_partitions(), 0, available_cores())
    }

    /// Partition `partition`'s `Topology` payload (see
    /// [`crate::payload`]), what [`crate::build_partition`] builds from.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn partition_payload(&self, partition: usize) -> &[u8] {
        &self.payloads[partition]
    }

    /// The wire settings the design was prepared under.
    #[must_use]
    pub fn settings(&self) -> &WireSettings {
        &self.settings
    }

    /// The bring-up `Topology` message for worker `worker` of a fleet
    /// placed by `placed`.
    fn topology_for(&self, placed: &Placement, worker: usize) -> Msg {
        Msg::Topology(Box::new(Topology {
            worker: worker as u32,
            n_workers: placed.hosted.len() as u32,
            settings: self.settings.clone(),
            payloads: placed.hosted[worker]
                .iter()
                .map(|&p| self.payloads[p].clone())
                .collect(),
        }))
    }

    /// The `Ready` digest a worker hosting `parts` must send.
    fn ready_digest(&self, parts: &[usize]) -> u64 {
        set_digest(parts.iter().map(|&p| self.ready_digests[p]))
    }

    /// The cut-wide node, link and VCD signal tables, which every cut
    /// carries (FireRipper always emits at least the remainder
    /// partition).
    fn tables(&self) -> &PartitionCut {
        &self.cuts[0]
    }
}

/// Where a placed job's partitions run.
struct Placement {
    /// Per worker, the contiguous run of partitions it hosts.
    hosted: Vec<Vec<usize>>,
    /// Per link, the worker hosting its consumer.
    sink_worker: Vec<usize>,
    /// Per link, the worker hosting its producer.
    source_worker: Vec<usize>,
    /// Per node, the worker hosting it.
    node_worker: Vec<usize>,
}

impl Placement {
    /// Packs `prepared`'s partitions onto `n_workers` workers by
    /// [`fireaxe_sim::placement()`], with `n_workers` as the explicit cap.
    fn new(prepared: &PreparedJob, n_workers: usize) -> Self {
        let worker_of = placement(prepared.n_partitions(), n_workers, n_workers);
        let mut hosted = vec![Vec::new(); n_workers];
        for (p, &w) in worker_of.iter().enumerate() {
            hosted[w].push(p);
        }
        let cut = prepared.tables();
        let node_worker: Vec<usize> = cut.nodes.iter().map(|(_, p)| worker_of[*p]).collect();
        Placement {
            hosted,
            sink_worker: cut.links.iter().map(|s| node_worker[s.to_node]).collect(),
            source_worker: cut.links.iter().map(|s| node_worker[s.from_node]).collect(),
            node_worker,
        }
    }
}

/// Compiles `circuit` under `spec` and builds the
/// placement-independent job description (see [`PreparedJob`]).
/// `setup` must bind the same behaviors/bridges every worker's setup
/// binds.
///
/// # Errors
///
/// [`SimError::Config`] when the partition compile fails, plus
/// whatever the passive local build reports.
pub fn prepare_job(
    circuit: &Circuit,
    spec: &PartitionSpec,
    settings: &WireSettings,
    setup: &SimSetup,
) -> Result<PreparedJob> {
    trace::set_enabled(true);
    let design = compile(circuit, spec)
        .map_err(|e| cfg_err(format!("coordinator partition compile failed: {e}")))?;
    let n_partitions = design.partitions.len();

    // A passive local build of the same sim: the source of the cuts'
    // tables (the node table, the VCD signal table, the fast-mode seeds)
    // and of the node shapes each worker's build must match. It never
    // runs a cycle.
    let local = setup(configure(
        SimBuilder::new(&design).backend(Backend::Net),
        settings,
    ))
    .build()?;
    let cuts: Vec<PartitionCut> = (0..n_partitions)
        .map(|p| PartitionCut::of(&design, &local, p))
        .collect();
    let ready_digests = (0..n_partitions)
        .map(|p| partition_digest(&local, p))
        .collect();
    Ok(PreparedJob {
        payloads: cuts.iter().map(encode_partition_payload).collect(),
        ready_digests,
        settings: settings.clone(),
        digest: design_digest(&cuts[0].nodes, &design.links),
        cuts,
    })
}

/// [`prepare_job`] from an already-encoded binary tape — the job
/// server's submission path.
///
/// # Errors
///
/// [`SimError::Ir`] when the tape does not decode, plus everything
/// [`prepare_job`] returns.
pub fn prepare_job_from_tape(
    tape: &[u8],
    spec: &PartitionSpec,
    settings: &WireSettings,
    setup: &SimSetup,
) -> Result<PreparedJob> {
    let circuit = fireaxe_ir::circuit_from_tape(tape).map_err(SimError::Ir)?;
    prepare_job(&circuit, spec, settings, setup)
}

/// Runs a [`PreparedJob`] in-process on the threaded backend — the job
/// server's `Backend::Threads` execution path. The partition cuts that
/// [`place_cluster`]/[`execute_placed`] would fan across pooled workers
/// instead build one set hosting every partition, the way a worker
/// builds its own, on `Backend::Threads(0)`, and run to `budget`,
/// returning the same [`NetRunReport`] shape (no chrome trace merge, no
/// recoveries — there are no worker processes to lose).
///
/// # Errors
///
/// Build failures, plus anything the run itself reports.
pub fn execute_threads(
    prepared: &PreparedJob,
    budget: u64,
    setup: &SimSetup,
) -> Result<NetRunReport> {
    let builder = SimBuilder::for_partitions(&prepared.cuts).backend(Backend::Threads(0));
    let mut sim = setup(configure(builder, &prepared.settings)).build()?;
    let metrics = sim.run_target_cycles(budget)?;
    let obs = sim.obs_report();
    Ok(NetRunReport {
        metrics,
        series: obs.metrics,
        vcd: obs.vcd,
        chrome_trace: String::new(),
        recoveries: Vec::new(),
    })
}

/// A dialed, handshaken worker fleet holding a [`PreparedJob`]'s
/// design: every worker has acknowledged the protocol version, built
/// the design, and agreed on the digest. Consumed by
/// [`execute_placed`].
pub struct PlacedCluster {
    cluster: Cluster,
    read_halves: Vec<NetStream>,
    connect_timeout: Duration,
}

/// What the coordinator tells the workers once every report is in:
/// [`Teardown::Shutdown`] ends the worker processes (the classic
/// one-shot run); [`Teardown::ResetToIdle`] returns pooled workers to
/// their accept loop so the next job can reuse them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Teardown {
    /// Workers exit after the run.
    Shutdown,
    /// Workers wipe run state and re-enter their accept loop.
    ResetToIdle,
}

/// Dials the workers listening at `workers`, packs the design's `P`
/// partitions onto them — worker `w` hosts the contiguous run
/// [`fireaxe_sim::placement()`] assigns it, so `P` addresses give one
/// partition each — and runs the bring-up handshake (version check,
/// `Topology` carrying the worker's partition payloads, `Ready` digest
/// agreement). Links between two partitions of one worker never reach
/// a socket. The returned fleet is ready for [`execute_placed`].
///
/// # Errors
///
/// [`SimError::Config`] for shape errors (no address, or more addresses
/// than partitions; digest disagreement), [`SimError::ProtocolMismatch`]
/// / [`SimError::PeerDisconnected`] / [`SimError::NetTimeout`] for wire
/// failures during bring-up.
pub fn place_cluster(
    prepared: &PreparedJob,
    workers: &[String],
    connect_timeout_ms: u64,
) -> Result<PlacedCluster> {
    let _span = obs_span!("net.place_cluster");
    let n_workers = workers.len();
    let n_partitions = prepared.n_partitions();
    if n_workers == 0 || n_workers > n_partitions {
        return Err(cfg_err(format!(
            "net.workers: got {n_workers} worker address(es) for a {n_partitions}-partition \
             design (it needs 1 to {n_partitions})"
        )));
    }
    let n_links = prepared.tables().links.len();
    let connect_timeout = Duration::from_millis(connect_timeout_ms.max(1));
    let mut cluster = Cluster {
        writers: Vec::with_capacity(n_workers),
        shutdowns: Vec::with_capacity(n_workers),
        addrs: workers.to_vec(),
        progress: vec![0; n_workers],
        dead: Arc::new((0..n_workers).map(|_| AtomicBool::new(false)).collect()),
        last_heard: vec![Instant::now(); n_workers],
        book: Arc::new(RelayBook::new(n_links)),
        placement: Placement::new(prepared, n_workers),
    };
    // Bring-up reads go through `read_halves`; at run time each one
    // moves into that worker's relay thread.
    let mut read_halves = Vec::with_capacity(n_workers);
    for (i, addr) in workers.iter().enumerate() {
        let stream = NetStream::connect(addr, connect_timeout).map_err(|e| {
            cfg_err(format!(
                "coordinator cannot reach worker {i} at `{addr}`: {e}"
            ))
        })?;
        stream
            .set_read_timeout(Some(connect_timeout))
            .map_err(|e| cfg_err(format!("coordinator socket setup failed: {e}")))?;
        let setup_err = |e| cfg_err(format!("coordinator socket setup failed: {e}"));
        read_halves.push(stream.try_clone().map_err(setup_err)?);
        cluster
            .shutdowns
            .push(stream.try_clone().map_err(setup_err)?);
        cluster.writers.push(Arc::new(Mutex::new(stream)));
    }
    // Bring every worker up at once: a worker builds its partition
    // between `Topology` and `Ready`, so all of them must hold their
    // topology before the first `Ready` is waited for — handshaking them
    // one after another would run the builds back to back.
    for i in 0..n_workers {
        cluster.send(
            i,
            &Msg::Hello {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
                worker: i as u32,
            },
        )?;
    }
    for (i, read_half) in read_halves.iter_mut().enumerate() {
        match expect_msg(&mut cluster, read_half, i, connect_timeout_ms)? {
            Msg::HelloAck { magic, version } => {
                if magic != PROTOCOL_MAGIC || version != PROTOCOL_VERSION {
                    cluster.shutdown_sockets();
                    return Err(SimError::ProtocolMismatch {
                        peer: cluster.addrs[i].clone(),
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    });
                }
            }
            other => {
                cluster.shutdown_sockets();
                return Err(cfg_err(format!(
                    "worker {i} answered the handshake with {other:?}"
                )));
            }
        }
        let topology = prepared.topology_for(&cluster.placement, i);
        cluster.send(i, &topology)?;
    }
    for (i, read_half) in read_halves.iter_mut().enumerate() {
        match expect_msg(&mut cluster, read_half, i, connect_timeout_ms)? {
            Msg::Ready { design_digest } => {
                let expected = prepared.ready_digest(&cluster.placement.hosted[i]);
                if design_digest != expected {
                    let who = cluster.name(i);
                    cluster.shutdown_sockets();
                    return Err(cfg_err(format!(
                        "{who} built different partitions \
                         (digest {design_digest:#x} != {expected:#x}); \
                         are all processes running the same build?"
                    )));
                }
            }
            Msg::Fatal { message, .. } => {
                cluster.shutdown_sockets();
                return Err(cfg_err(message));
            }
            other => {
                let who = cluster.name(i);
                cluster.shutdown_sockets();
                return Err(cfg_err(format!("{who} sent {other:?} instead of Ready")));
            }
        }
    }
    Ok(PlacedCluster {
        cluster,
        read_halves,
        connect_timeout,
    })
}

/// Runs a placed cluster for exactly `budget` target cycles: `Run`
/// dispatch, the relay threads, the control loop (progress tracking,
/// cluster checkpoints, cockpit, failover), report collection, and
/// the teardown chosen by `teardown`. This is the execution layer the
/// one-shot [`run_cluster`] family and the job server's pooled-worker
/// scheduler share.
///
/// # Errors
///
/// As [`run_cluster_with`].
#[allow(clippy::too_many_lines)]
pub fn execute_placed(
    prepared: &PreparedJob,
    placed: PlacedCluster,
    budget: u64,
    mut recovery: RecoveryOptions,
    control: Option<NetListener>,
    teardown: Teardown,
) -> Result<NetRunReport> {
    let PlacedCluster {
        mut cluster,
        read_halves,
        connect_timeout,
    } = placed;
    let settings = &prepared.settings;
    let nodes_meta = &prepared.tables().nodes;
    let n_workers = cluster.addrs.len();

    // --- Run + relay ----------------------------------------------------
    // Every worker must hold its `Run` before the first relay thread
    // starts: a worker that got `Run` early emits tokens immediately,
    // and a relayed token racing ahead of a later worker's `Run` write
    // would hit that worker's "expected Run" bring-up read. Per-socket
    // FIFO makes this ordering sufficient; tokens arriving before the
    // relays spawn just wait in the kernel buffers.
    for i in 0..n_workers {
        cluster.send(i, &Msg::Run { budget })?;
    }
    let (tx_ev, rx_ev) = mpsc::channel::<(usize, Event)>();
    let spawn_relay = |i: usize, reader: NetStream, generation: u32, cluster: &Cluster| {
        let tx = tx_ev.clone();
        let writers = cluster.writers.clone();
        let dead = Arc::clone(&cluster.dead);
        let book = Arc::clone(&cluster.book);
        let sink_owner = cluster.placement.sink_worker.clone();
        let source_owner = cluster.placement.source_worker.clone();
        std::thread::spawn(move || {
            relay_worker(
                i,
                generation,
                reader,
                &writers,
                &dead,
                &book,
                &sink_owner,
                &source_owner,
                &tx,
            );
        });
    };
    for (i, reader) in read_halves.into_iter().enumerate() {
        spawn_relay(i, reader, 0, &cluster);
    }
    // (`tx_ev` stays alive: failovers clone it for replacement relays.)

    // --- Control plane (live cockpit) -----------------------------------
    // An accept thread owns the listener and registers clients; each
    // client gets a reader thread feeding the same event channel the
    // relays use. Replies and streams go out through the shared client
    // table. The accept thread is only reaped at process exit — it
    // blocks in `accept` — which is fine for the CLI and for tests.
    let ctl: Option<ControlPlane> = control.map(|listener| {
        let clients: Arc<Mutex<Vec<Option<ClientConn>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_clients = Arc::clone(&clients);
        let tx_accept = tx_ev.clone();
        std::thread::spawn(move || loop {
            let Ok(stream) = listener.accept() else {
                return;
            };
            let (Ok(reader), Ok(shutdown)) = (stream.try_clone(), stream.try_clone()) else {
                continue;
            };
            let id = {
                let mut cs = accept_clients.lock().unwrap();
                cs.push(Some(ClientConn {
                    writer: stream,
                    shutdown,
                    attached: false,
                    wave: false,
                    metrics: false,
                }));
                cs.len() - 1
            };
            let tx = tx_accept.clone();
            std::thread::spawn(move || client_reader(id, reader, &tx));
        });
        ControlPlane { clients }
    });
    let mut cockpit = Cockpit {
        pause: PauseState::Off,
        pending_step: None,
        snapshot_pending: false,
    };

    let io_timeout = Duration::from_millis(settings.io_timeout_ms.max(1));
    let hb_interval = crate::worker::heartbeat_interval(io_timeout);
    let recovery_on =
        settings.checkpoint_interval > 0 && recovery.respawn.is_some() && recovery.max_restarts > 0;
    let mut last_hb = Instant::now();
    let mut done = vec![false; n_workers];
    let mut finish_sent = false;
    let mut reports: Vec<Option<WireReport>> = (0..n_workers).map(|_| None).collect();
    // Failover bookkeeping. `epoch` counts recoveries; every checkpoint
    // and recovery message carries it so residue of an abandoned
    // timeline can never be mistaken for current-protocol traffic.
    let mut epoch = 0u32;
    let mut relay_gen = vec![0u32; n_workers];
    let mut restarts = vec![0u32; n_workers];
    // In-progress cluster checkpoint: barrier roll-call, then blob
    // collection. Committed only when every worker's blob is in.
    let mut barrier: Option<(u64, Vec<bool>)> = None;
    let mut pending: Option<(u64, Vec<Option<Vec<u8>>>)> = None;
    let mut committed: Option<(u64, Vec<Vec<u8>>)> = None;
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    for t in &mut cluster.last_heard {
        *t = Instant::now();
    }
    let mut last_rx = Instant::now();
    loop {
        // A worker that just died (EOF from its relay, or one of our
        // writes to it failed). `None` most of the time.
        let mut dead_now: Option<usize> = None;

        // Keepalive broadcast: workers enforce their own io_timeout on
        // coordinator silence, so a worker idling behind a slow peer
        // (no tokens flowing its way) must still hear from us. The
        // floor cycle doubles as cluster-progress gossip.
        if last_hb.elapsed() >= hb_interval {
            last_hb = Instant::now();
            let floor = cluster.progress.iter().copied().min().unwrap_or(0);
            for i in (0..n_workers).filter(|&i| reports[i].is_none()) {
                cluster.send_or_flag(
                    i,
                    &Msg::Progress { cycle: floor },
                    recovery_on,
                    &mut dead_now,
                )?;
            }
        }
        if dead_now.is_none() {
            match rx_ev.recv_timeout(hb_interval.min(io_timeout)) {
                Err(_) => {
                    if last_rx.elapsed() < io_timeout {
                        continue; // quiet, but within the deadline
                    }
                    // Silence across the whole cluster for a full
                    // io_timeout — no token traffic, no worker
                    // heartbeats. A partial silence never lands here (a
                    // slow-but-alive worker's peers keep heartbeating,
                    // and liveness must tolerate a stalled wire), so
                    // when it does, name *every* worker whose own
                    // silence exceeds the budget — a double hang in one
                    // relay pass is attributed to both, not blamed on
                    // whichever was slower. Hangs are only ever named,
                    // never auto-recovered: a hung-but-connected worker
                    // still owns its sockets, unlike a closed one,
                    // where death is unambiguous.
                    let mut silent: Vec<usize> = (0..n_workers)
                        .filter(|&i| {
                            reports[i].is_none() && cluster.last_heard[i].elapsed() >= io_timeout
                        })
                        .collect();
                    if silent.is_empty() {
                        silent.extend(
                            (0..n_workers)
                                .filter(|&i| reports[i].is_none())
                                .min_by_key(|&i| cluster.progress[i]),
                        );
                    }
                    let e = SimError::NetTimeout {
                        peer: silent
                            .iter()
                            .map(|&i| cluster.name(i))
                            .collect::<Vec<_>>()
                            .join(", "),
                        timeout_ms: settings.io_timeout_ms,
                        last_acked_cycle: silent
                            .iter()
                            .map(|&i| cluster.progress[i])
                            .min()
                            .unwrap_or(0),
                    };
                    cluster.shutdown_sockets();
                    return Err(e);
                }
                Ok((w, Event::Closed(generation))) => {
                    last_rx = Instant::now();
                    if generation != relay_gen[w] {
                        // An echo from a relay already replaced by an
                        // earlier failover of this same worker.
                    } else if reports.iter().all(Option::is_some) {
                        // Already complete; late EOFs are fine.
                    } else {
                        dead_now = Some(w);
                    }
                }
                Ok((_, Event::Bad(message))) => {
                    cluster.shutdown_sockets();
                    return Err(cfg_err(message));
                }
                Ok((c, Event::Ctl(msg))) => {
                    if let Some(cp) = ctl.as_ref() {
                        handle_client_msg(
                            c,
                            msg,
                            cp,
                            &mut cockpit,
                            &mut cluster,
                            nodes_meta,
                            &prepared.tables().vcd_signals,
                            settings,
                            budget,
                            epoch,
                            &mut pending,
                            recovery_on,
                            &mut dead_now,
                        )?;
                    }
                }
                Ok((c, Event::CtlClosed)) => {
                    if let Some(cp) = ctl.as_ref() {
                        cp.drop_client(c);
                        after_client_gone(
                            cp,
                            &mut cockpit,
                            &mut cluster,
                            recovery_on,
                            &mut dead_now,
                        )?;
                    }
                }
                Ok((w, Event::Msg(msg))) => {
                    last_rx = Instant::now();
                    cluster.last_heard[w] = Instant::now();
                    match msg {
                        Msg::Progress { cycle } => {
                            cluster.progress[w] = cluster.progress[w].max(cycle);
                        }
                        Msg::Done { cycle } => {
                            cluster.progress[w] = cluster.progress[w].max(cycle);
                            done[w] = true;
                            if !finish_sent && done.iter().all(|&d| d) {
                                finish_sent = true;
                                for i in 0..n_workers {
                                    cluster.send_or_flag(
                                        i,
                                        &Msg::Finish,
                                        recovery_on,
                                        &mut dead_now,
                                    )?;
                                }
                            }
                        }
                        Msg::Report(r) => {
                            reports[w] = Some(*r);
                            if reports.iter().all(Option::is_some) {
                                let bye = match teardown {
                                    Teardown::Shutdown => Msg::Shutdown,
                                    Teardown::ResetToIdle => Msg::ResetToIdle,
                                };
                                for i in 0..n_workers {
                                    let _ =
                                        write_msg(&mut *cluster.writers[i].lock().unwrap(), &bye);
                                }
                                break;
                            }
                        }
                        // --- Cluster checkpointing ---------------------
                        // Two-phase: every worker reports quiescence at
                        // the same barrier cycle, then (and only then)
                        // every worker captures and ships its blob, and
                        // the set commits atomically — a death mid-
                        // collection leaves the previous committed set
                        // untouched.
                        Msg::Barrier { epoch: e, cycle } if e == epoch => {
                            // Reaching a barrier proves progress to its
                            // cycle — `Progress` reports are far coarser
                            // (every 256 cycles), and
                            // recovery forensics want the tighter bound.
                            cluster.progress[w] = cluster.progress[w].max(cycle);
                            let (c, arrived) =
                                barrier.get_or_insert((cycle, vec![false; n_workers]));
                            if *c != cycle {
                                let e = cfg_err(format!(
                                    "{} reached checkpoint barrier {cycle} while the \
                                     cluster is at {c}: checkpoint intervals disagree",
                                    cluster.name(w)
                                ));
                                cluster.shutdown_sockets();
                                return Err(e);
                            }
                            arrived[w] = true;
                            if arrived.iter().all(|&a| a) {
                                let cycle = *c;
                                barrier = None;
                                pending = Some((cycle, (0..n_workers).map(|_| None).collect()));
                                for i in 0..n_workers {
                                    cluster.send_or_flag(
                                        i,
                                        &Msg::TakeCheckpoint { epoch, cycle },
                                        recovery_on,
                                        &mut dead_now,
                                    )?;
                                }
                            }
                        }
                        Msg::Checkpoint {
                            epoch: e,
                            cycle,
                            blob,
                        } if e == epoch => {
                            if let Some((c, blobs)) = pending.as_mut() {
                                if *c == cycle {
                                    blobs[w] = Some(blob);
                                }
                                if blobs.iter().all(Option::is_some) {
                                    let (c, blobs) = pending.take().expect("checked above");
                                    committed =
                                        Some((c, blobs.into_iter().map(Option::unwrap).collect()));
                                    for i in 0..n_workers {
                                        cluster.send_or_flag(
                                            i,
                                            &Msg::CheckpointAck { epoch, cycle: c },
                                            recovery_on,
                                            &mut dead_now,
                                        )?;
                                    }
                                    // An on-demand cockpit snapshot is
                                    // durable once the set commits.
                                    if cockpit.snapshot_pending {
                                        cockpit.snapshot_pending = false;
                                        if let Some(cp) = ctl.as_ref() {
                                            cp.broadcast(|_| true, &Msg::SnapshotDone { cycle: c });
                                        }
                                    }
                                }
                            }
                        }
                        // --- Cockpit control plane ---------------------
                        Msg::PauseAck { cycle } => {
                            if let Some(cp) = ctl.as_ref() {
                                advance_pause(
                                    w,
                                    cycle,
                                    cp,
                                    &mut cockpit,
                                    &mut cluster,
                                    budget,
                                    recovery_on,
                                    &mut dead_now,
                                )?;
                            }
                        }
                        m @ (Msg::PeekReply { .. } | Msg::PokeAck { .. }) => {
                            if let Some(cp) = ctl.as_ref() {
                                cp.broadcast(|_| true, &m);
                            }
                        }
                        m @ Msg::WaveDelta { .. } => {
                            if let Some(cp) = ctl.as_ref() {
                                cp.broadcast(|c| c.wave, &m);
                            }
                        }
                        m @ Msg::MetricDelta { .. } => {
                            if let Some(cp) = ctl.as_ref() {
                                cp.broadcast(|c| c.metrics, &m);
                            }
                        }
                        // Stale-epoch checkpoint traffic and late
                        // recovery acks: residue of an abandoned
                        // timeline, absorbed without effect.
                        Msg::Barrier { .. } | Msg::Checkpoint { .. } | Msg::RewindAck { .. } => {}
                        Msg::Fatal {
                            code,
                            link,
                            attempts,
                            message,
                        } => {
                            let report = cluster.stall_report();
                            cluster.shutdown_sockets();
                            return Err(if code == FATAL_LINK_DOWN {
                                SimError::LinkDown {
                                    link: link as usize,
                                    attempts,
                                    report,
                                }
                            } else {
                                cfg_err(message)
                            });
                        }
                        other => {
                            let who = cluster.name(w);
                            cluster.shutdown_sockets();
                            return Err(cfg_err(format!(
                                "{who} sent unexpected {other:?} during the run"
                            )));
                        }
                    }
                }
            }
        }

        // --- Failover ---------------------------------------------------
        let Some(w) = dead_now else { continue };
        if !recovery_on || restarts[w] >= recovery.max_restarts {
            let e = if recovery_on {
                SimError::PartitionLost {
                    partition: cluster.placement.hosted[w][0],
                    peer: cluster.name(w),
                    restarts: restarts[w],
                    report: cluster.stall_report(),
                }
            } else {
                cluster.disconnect_error(w)
            };
            cluster.shutdown_sockets();
            return Err(e);
        }
        let t0 = Instant::now();
        let detected_cycle = cluster.progress[w];
        epoch += 1;
        relay_gen[w] += 1;
        barrier = None;
        pending = None;
        finish_sent = false;
        done.fill(false);
        reports.fill(None);
        cluster.dead[w].store(true, Ordering::Release);
        cluster.shutdowns[w].shutdown();
        let rewind_cycle = committed.as_ref().map_or(0, |(c, _)| *c);

        // Phase A — park the survivors. Each survivor acknowledges the
        // rewind only after its relay has flushed everything it had in
        // flight (the relay forwards control to us strictly after
        // flushing the data plane), so once every ack is in, the whole
        // abandoned timeline has drained into parked survivors, which
        // discard it.
        for i in (0..n_workers).filter(|&i| i != w) {
            if !cluster.try_send(
                i,
                &Msg::Rewind {
                    epoch,
                    cycle: rewind_cycle,
                },
            ) {
                let e = cluster.disconnect_error(i);
                cluster.shutdown_sockets();
                return Err(e);
            }
        }
        collect_recovery_acks(
            &mut cluster,
            &rx_ev,
            w,
            &relay_gen,
            epoch,
            rewind_cycle,
            io_timeout,
            hb_interval,
            settings.io_timeout_ms,
        )?;

        // Phase B — bring a replacement online, with exponential
        // backoff, bounded by the per-partition restart budget.
        let new_reader = loop {
            if restarts[w] >= recovery.max_restarts {
                let e = SimError::PartitionLost {
                    partition: cluster.placement.hosted[w][0],
                    peer: cluster.name(w),
                    restarts: restarts[w],
                    report: cluster.stall_report(),
                };
                cluster.shutdown_sockets();
                return Err(e);
            }
            restarts[w] += 1;
            let backoff = recovery
                .restart_backoff
                .saturating_mul(1u32 << (restarts[w] - 1).min(4));
            sleep_heartbeating(&mut cluster, w, backoff, hb_interval, rewind_cycle);
            let addr = match recovery.respawn.as_mut().expect("recovery_on")(w) {
                Ok(a) => a,
                Err(_) => continue,
            };
            match bring_up_replacement(
                &mut cluster,
                w,
                &addr,
                epoch,
                committed.as_ref(),
                budget,
                prepared,
                connect_timeout,
                hb_interval,
                rewind_cycle,
            ) {
                Ok(reader) => break reader,
                Err(_) => continue,
            }
        };
        // The replacement holds Restore + Run and is parked; give it a
        // live relay before anything can be routed its way.
        cluster.dead[w].store(false, Ordering::Release);
        spawn_relay(w, new_reader, relay_gen[w], &cluster);

        // Phase C — restore the survivors (each acks once its state is
        // rewound; it keeps buffering, not discarding, from here), then
        // resume the whole cluster. A resumed worker's fresh traffic
        // can reach a peer before that peer's own Resume does, which is
        // exactly why the restored-but-parked state buffers.
        for i in (0..n_workers).filter(|&i| i != w) {
            if !cluster.try_send(
                i,
                &Msg::Restore {
                    epoch,
                    cycle: rewind_cycle,
                    blob: Vec::new(),
                },
            ) {
                let e = cluster.disconnect_error(i);
                cluster.shutdown_sockets();
                return Err(e);
            }
        }
        collect_recovery_acks(
            &mut cluster,
            &rx_ev,
            w,
            &relay_gen,
            epoch,
            rewind_cycle,
            io_timeout,
            hb_interval,
            settings.io_timeout_ms,
        )?;
        for i in 0..n_workers {
            if !cluster.try_send(
                i,
                &Msg::Resume {
                    epoch,
                    cycle: rewind_cycle,
                },
            ) {
                let e = cluster.disconnect_error(i);
                cluster.shutdown_sockets();
                return Err(e);
            }
        }
        for (i, t) in cluster.last_heard.iter_mut().enumerate() {
            *t = Instant::now();
            if i == w {
                cluster.progress[i] = rewind_cycle;
            } else {
                cluster.progress[i] = cluster.progress[i].min(rewind_cycle);
            }
        }
        last_rx = Instant::now();
        last_hb = Instant::now();
        recoveries.push(RecoveryEvent {
            worker: w,
            partitions: cluster.placement.hosted[w].clone(),
            epoch,
            detected_cycle,
            rewind_cycle,
            restart: restarts[w],
            recovery_ms: u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX),
        });
        fireaxe_obs::obs_instant!("net.recovery", rewind_cycle);

        // Re-arm the cockpit on the rebuilt cluster: the replacement
        // worker knows nothing of standing subscriptions or fences, and
        // survivors replay from the rewind point. (Stream deltas across
        // a failover may repeat the replayed window; the batch report
        // stays exact.)
        if let Some(cp) = ctl.as_ref() {
            let (wv, mt) = cp.subscription_or();
            if wv || mt {
                for i in 0..n_workers {
                    let _ = cluster.try_send(
                        i,
                        &Msg::Subscribe {
                            wave: wv,
                            metrics: mt,
                        },
                    );
                }
            }
            let refence = match &cockpit.pause {
                PauseState::Off => None,
                PauseState::Holding { .. } => Some(0),
                PauseState::Fencing { fence, .. } | PauseState::Paused { fence } => Some(*fence),
            };
            if let Some(f) = refence {
                for i in 0..n_workers {
                    let _ = cluster.try_send(i, &Msg::Pause { cycle: f });
                }
                cockpit.pause = if f == 0 {
                    PauseState::Holding {
                        acks: vec![None; n_workers],
                    }
                } else {
                    PauseState::Fencing {
                        fence: f,
                        acked: vec![false; n_workers],
                    }
                };
            }
        }
    }
    match teardown {
        Teardown::ResetToIdle => {
            // Pooled workers confirm the wipe with `IdleAck` before they
            // re-enter their accept loop. The wait is bounded: a wedged
            // worker cannot hold the job's result hostage (the pool
            // health-checks its leases anyway), and everything below is
            // local folding.
            let deadline = Instant::now() + io_timeout;
            let mut idle = vec![false; n_workers];
            while !idle.iter().all(|&d| d) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match rx_ev.recv_timeout(left) {
                    Ok((w, Event::Msg(Msg::IdleAck))) if w < n_workers => idle[w] = true,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        Teardown::Shutdown => {
            // Wait (bounded) for each worker to hang up before closing
            // our side. Closing first can reset the connection while
            // the farewell `Shutdown` still sits undelivered in the
            // worker's receive queue — the reset destroys it, and a
            // *pooled* worker then treats the EOF as an end-of-session
            // goodbye and returns to `accept` instead of exiting
            // (observed on a single-core host, where the worker does
            // not get scheduled between our write and our close).
            let deadline = Instant::now() + io_timeout;
            let mut gone = vec![false; n_workers];
            while !gone.iter().all(|&d| d) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match rx_ev.recv_timeout(left) {
                    Ok((w, Event::Closed(g))) if w < n_workers && g == relay_gen[w] => {
                        gone[w] = true;
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
    }
    cluster.shutdown_sockets();
    // Hang up on any attached cockpit clients now (every stream delta
    // was relayed before the workers' Done/Report handshake), so a
    // client waiting on EOF is released before the fold below.
    drop(ctl);

    // --- Fold -----------------------------------------------------------
    let reports: Vec<WireReport> = reports.into_iter().map(Option::unwrap).collect();
    let mut folded = fold_reports(
        budget,
        nodes_meta,
        &prepared.tables().links,
        settings,
        prepared.tables().vcd_signals.clone(),
        reports,
    );
    folded.recoveries = recoveries;
    Ok(folded)
}

/// Services one cockpit client message. Worker-bound commands go out
/// through the cluster writers (a failed worker write follows the
/// active failure policy, exactly like any other coordinator send);
/// client-bound answers go through the control plane, where a failed
/// write just drops that client.
#[allow(clippy::too_many_arguments)]
fn handle_client_msg(
    c: usize,
    msg: Msg,
    cp: &ControlPlane,
    cockpit: &mut Cockpit,
    cluster: &mut Cluster,
    nodes_meta: &[(String, usize)],
    vcd_signals: &[fireaxe_obs::VcdSignal],
    settings: &WireSettings,
    budget: u64,
    epoch: u32,
    pending: &mut Option<(u64, Vec<Option<Vec<u8>>>)>,
    recovery_on: bool,
    dead_now: &mut Option<usize>,
) -> Result<()> {
    let n_workers = cluster.addrs.len();
    match msg {
        Msg::Attach { magic, version } => {
            if magic != PROTOCOL_MAGIC || version != PROTOCOL_VERSION {
                // A version-skewed client gets a hangup, not a run
                // failure.
                cp.drop_client(c);
                return Ok(());
            }
            cp.set(c, |conn| conn.attached = true);
            cp.send(
                c,
                &Msg::AttachAck {
                    nodes: node_infos(nodes_meta, cluster),
                    signals: vcd_signals.to_vec(),
                    sample_interval: settings.sample_interval,
                },
            );
        }
        Msg::Detach => {
            cp.set(c, |conn| {
                conn.attached = false;
                conn.wave = false;
                conn.metrics = false;
            });
            after_client_gone(cp, cockpit, cluster, recovery_on, dead_now)?;
        }
        Msg::Pause { .. } => match cockpit.pause {
            PauseState::Paused { fence } => cp.send(c, &Msg::PauseAck { cycle: fence }),
            PauseState::Off => {
                for i in 0..n_workers {
                    cluster.send_or_flag(i, &Msg::Pause { cycle: 0 }, recovery_on, dead_now)?;
                }
                cockpit.pause = PauseState::Holding {
                    acks: vec![None; n_workers],
                };
            }
            // A negotiation is already in flight; its PauseAck answers.
            _ => {}
        },
        Msg::Step { n } => match cockpit.pause {
            PauseState::Paused { fence } => {
                let f = fence.saturating_add(n.max(1)).min(budget);
                for i in 0..n_workers {
                    cluster.send_or_flag(i, &Msg::Pause { cycle: f }, recovery_on, dead_now)?;
                }
                cockpit.pause = PauseState::Fencing {
                    fence: f,
                    acked: vec![false; n_workers],
                };
            }
            PauseState::Off => {
                // Stepping an unpaused cluster pauses it first; the step
                // applies from wherever the fence negotiation lands.
                cockpit.pending_step = Some(n.max(1));
                for i in 0..n_workers {
                    cluster.send_or_flag(i, &Msg::Pause { cycle: 0 }, recovery_on, dead_now)?;
                }
                cockpit.pause = PauseState::Holding {
                    acks: vec![None; n_workers],
                };
            }
            _ => cockpit.pending_step = Some(n.max(1)),
        },
        Msg::ResumeRun => {
            cockpit.pause = PauseState::Off;
            cockpit.pending_step = None;
            for i in 0..n_workers {
                cluster.send_or_flag(i, &Msg::ResumeRun, recovery_on, dead_now)?;
            }
        }
        Msg::Peek { node, path } => {
            if let Some(&w) = cluster.placement.node_worker.get(node as usize) {
                cluster.send_or_flag(w, &Msg::Peek { node, path }, recovery_on, dead_now)?;
            } else {
                cp.send(
                    c,
                    &Msg::PeekReply {
                        node,
                        path,
                        cycle: 0,
                        value: None,
                    },
                );
            }
        }
        Msg::Poke { node, path, value } => {
            if let Some(&w) = cluster.placement.node_worker.get(node as usize) {
                cluster.send_or_flag(w, &Msg::Poke { node, path, value }, recovery_on, dead_now)?;
            } else {
                cp.send(
                    c,
                    &Msg::PokeAck {
                        node,
                        path,
                        cycle: 0,
                        error: format!("no node with index {node}"),
                    },
                );
            }
        }
        Msg::Subscribe { wave, metrics } => {
            cp.set(c, |conn| {
                conn.wave = wave;
                conn.metrics = metrics;
            });
            let (wv, mt) = cp.subscription_or();
            for i in 0..n_workers {
                cluster.send_or_flag(
                    i,
                    &Msg::Subscribe {
                        wave: wv,
                        metrics: mt,
                    },
                    recovery_on,
                    dead_now,
                )?;
            }
        }
        Msg::SnapshotNow => {
            if let PauseState::Paused { fence } = cockpit.pause {
                // The paused fence is exactly the quiescent cut the
                // two-phase checkpoint machinery needs — skip the
                // barrier roll-call and collect blobs directly.
                *pending = Some((fence, (0..n_workers).map(|_| None).collect()));
                cockpit.snapshot_pending = true;
                for i in 0..n_workers {
                    cluster.send_or_flag(
                        i,
                        &Msg::TakeCheckpoint {
                            epoch,
                            cycle: fence,
                        },
                        recovery_on,
                        dead_now,
                    )?;
                }
            } else {
                // Refused: an on-demand snapshot needs the exact cut
                // only a paused cluster provides. `cycle: 0` encodes
                // the refusal.
                cp.send(c, &Msg::SnapshotDone { cycle: 0 });
            }
        }
        Msg::Status => {
            let (paused, fence) = match cockpit.pause {
                PauseState::Paused { fence } => (true, fence),
                _ => (false, 0),
            };
            cp.send(
                c,
                &Msg::StatusReply {
                    nodes: node_infos(nodes_meta, cluster),
                    paused,
                    fence,
                },
            );
        }
        // Anything else from a client is a protocol misuse; absorb it
        // rather than failing a live run.
        _ => {}
    }
    Ok(())
}

/// Advances the pause negotiation on one worker's `PauseAck`. Round 1
/// (`Holding`) collects every worker's hold cycle and broadcasts one
/// past the max (capped at the budget) as the concrete fence; round 2
/// (`Fencing`) counts quiescent acks at that fence. A deferred `Step`
/// is applied as a fence move the moment the cluster would otherwise be
/// paused.
///
/// Not the max itself: a node holding there may already have begun
/// that cycle's host steps (poked the inputs it had, fired the outputs
/// those allow) before the hold reached it, so what a peek reads there
/// depends on timing. A node that reaches its fence by ticking, as in
/// a DES run to the same cycle, has taken no host step at it.
#[allow(clippy::too_many_arguments)]
fn advance_pause(
    w: usize,
    cycle: u64,
    cp: &ControlPlane,
    cockpit: &mut Cockpit,
    cluster: &mut Cluster,
    budget: u64,
    recovery_on: bool,
    dead_now: &mut Option<usize>,
) -> Result<()> {
    let n_workers = cluster.addrs.len();
    // A pause ack at `cycle` is proof one of the worker's nodes completed
    // that cycle, even when its interval-based Progress reports lag
    // behind — keep the progress table (and hence Status rows)
    // consistent with it.
    if let Some(p) = cluster.progress.get_mut(w) {
        *p = (*p).max(cycle);
    }
    let fence = match &mut cockpit.pause {
        PauseState::Holding { acks } => {
            if let Some(a) = acks.get_mut(w) {
                *a = Some(cycle);
            }
            if !acks.iter().all(Option::is_some) {
                return Ok(());
            }
            // A hold is acknowledged before the worker's nodes behind
            // it are quiescent, so it never pauses the cluster itself.
            let top = acks.iter().filter_map(|a| *a).max().unwrap_or(0);
            top.saturating_add(1).min(budget)
        }
        PauseState::Fencing { fence, acked } => {
            if let Some(a) = acked.get_mut(w) {
                *a = true;
            }
            if !acked.iter().all(|&a| a) {
                return Ok(());
            }
            let fence = *fence;
            let Some(n) = cockpit.pending_step.take() else {
                cockpit.pause = PauseState::Paused { fence };
                cp.broadcast(|_| true, &Msg::PauseAck { cycle: fence });
                return Ok(());
            };
            fence.saturating_add(n).min(budget)
        }
        // A late ack of a fence that was already lifted.
        _ => return Ok(()),
    };
    for i in 0..n_workers {
        cluster.send_or_flag(i, &Msg::Pause { cycle: fence }, recovery_on, dead_now)?;
    }
    cockpit.pause = PauseState::Fencing {
        fence,
        acked: vec![false; n_workers],
    };
    Ok(())
}

/// Cleanup after a client detaches or hangs up: surviving clients'
/// subscriptions are re-ORed to the workers, and when the *last*
/// operator is gone any standing fence is lifted — an abandoned cockpit
/// must never leave the run paused.
fn after_client_gone(
    cp: &ControlPlane,
    cockpit: &mut Cockpit,
    cluster: &mut Cluster,
    recovery_on: bool,
    dead_now: &mut Option<usize>,
) -> Result<()> {
    let n_workers = cluster.addrs.len();
    let (wv, mt) = cp.subscription_or();
    for i in 0..n_workers {
        cluster.send_or_flag(
            i,
            &Msg::Subscribe {
                wave: wv,
                metrics: mt,
            },
            recovery_on,
            dead_now,
        )?;
    }
    if !cp.any_attached() && !matches!(cockpit.pause, PauseState::Off) {
        cockpit.pause = PauseState::Off;
        cockpit.pending_step = None;
        for i in 0..n_workers {
            cluster.send_or_flag(i, &Msg::ResumeRun, recovery_on, dead_now)?;
        }
    }
    Ok(())
}

/// Collects one recovery acknowledgment (`RewindAck`) from every
/// survivor of `dead_worker`'s death, heartbeating them while waiting
/// and discarding residue of the abandoned timeline. Fails on a
/// cascade death (a survivor closing mid-recovery), on a protocol
/// violation, or on a full `io_timeout` of silence — naming every
/// survivor still missing.
#[allow(clippy::too_many_arguments)]
fn collect_recovery_acks(
    cluster: &mut Cluster,
    rx_ev: &mpsc::Receiver<(usize, Event)>,
    dead_worker: usize,
    relay_gen: &[u32],
    epoch: u32,
    cycle: u64,
    io_timeout: Duration,
    hb_interval: Duration,
    timeout_ms: u64,
) -> Result<()> {
    let n = cluster.addrs.len();
    let mut acked: Vec<bool> = (0..n).map(|i| i == dead_worker).collect();
    let deadline = Instant::now() + io_timeout;
    let mut last_hb = Instant::now();
    while !acked.iter().all(|&a| a) {
        if last_hb.elapsed() >= hb_interval {
            last_hb = Instant::now();
            for i in (0..n).filter(|&i| i != dead_worker) {
                let _ = cluster.try_send(i, &Msg::Progress { cycle });
            }
        }
        match rx_ev.recv_timeout(hb_interval) {
            Ok((i, Event::Msg(Msg::RewindAck { epoch: e, cycle: c })))
                if e == epoch && c == cycle =>
            {
                cluster.last_heard[i] = Instant::now();
                acked[i] = true;
            }
            Ok((i, Event::Closed(generation))) => {
                if i == dead_worker || generation != relay_gen[i] {
                    continue; // echoes of the death being recovered
                }
                let e = cluster.disconnect_error(i);
                cluster.shutdown_sockets();
                return Err(e);
            }
            Ok((_, Event::Bad(m))) => {
                cluster.shutdown_sockets();
                return Err(cfg_err(m));
            }
            Ok((i, Event::Msg(_))) => {
                // Residue of the abandoned timeline (stale progress,
                // barriers, checkpoint blobs): worthless, but proof of
                // life.
                cluster.last_heard[i] = Instant::now();
            }
            // Cockpit traffic during a recovery is dropped: the operator
            // re-issues once the cluster is back.
            Ok((_, Event::Ctl(_) | Event::CtlClosed)) => {}
            Err(_) => {
                if Instant::now() >= deadline {
                    let silent: Vec<usize> = (0..n).filter(|&i| !acked[i]).collect();
                    let e = SimError::NetTimeout {
                        peer: silent
                            .iter()
                            .map(|&i| cluster.name(i))
                            .collect::<Vec<_>>()
                            .join(", "),
                        timeout_ms,
                        last_acked_cycle: silent
                            .iter()
                            .map(|&i| cluster.progress[i])
                            .min()
                            .unwrap_or(0),
                    };
                    cluster.shutdown_sockets();
                    return Err(e);
                }
            }
        }
    }
    Ok(())
}

/// Sleeps for `backoff` without starving the parked survivors of
/// coordinator heartbeats (their own io_timeout keeps running while
/// they wait).
fn sleep_heartbeating(
    cluster: &mut Cluster,
    dead_worker: usize,
    backoff: Duration,
    hb_interval: Duration,
    cycle: u64,
) {
    let deadline = Instant::now() + backoff;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(hb_interval));
        for i in (0..cluster.addrs.len()).filter(|&i| i != dead_worker) {
            let _ = cluster.try_send(i, &Msg::Progress { cycle });
        }
    }
}

/// Connects to a freshly respawned worker, runs the full bring-up
/// handshake (version + design digest), hands it its predecessor's
/// committed checkpoint (`Restore`) and its `Run` — both written before
/// the stream is ever shared, so per-socket FIFO puts them ahead of any
/// relayed traffic — and swaps it into the cluster as worker `w`. The
/// replacement parks after restoring and steps only at the cluster-wide
/// `Resume`. Survivors are heartbeated throughout (a replacement
/// rebuilding a large design takes a while). Errors are strings: the
/// caller's retry loop decides whether another restart attempt remains.
#[allow(clippy::too_many_arguments)]
fn bring_up_replacement(
    cluster: &mut Cluster,
    w: usize,
    addr: &str,
    epoch: u32,
    committed: Option<&(u64, Vec<Vec<u8>>)>,
    budget: u64,
    prepared: &PreparedJob,
    connect_timeout: Duration,
    hb_interval: Duration,
    hb_cycle: u64,
) -> std::result::Result<NetStream, String> {
    let n_workers = cluster.addrs.len();
    let expected_digest = prepared.ready_digest(&cluster.placement.hosted[w]);
    let err = |m: String| m;
    let stream = NetStream::connect(addr, connect_timeout)
        .map_err(|e| err(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(hb_interval.min(connect_timeout)))
        .map_err(|e| err(format!("socket setup: {e}")))?;
    let mut read_half = stream
        .try_clone()
        .map_err(|e| err(format!("socket clone: {e}")))?;
    let shutdown_half = stream
        .try_clone()
        .map_err(|e| err(format!("socket clone: {e}")))?;
    let mut write_half = stream;

    let expect = |cluster: &mut Cluster, read_half: &mut NetStream| {
        let deadline = Instant::now() + connect_timeout;
        loop {
            for i in (0..n_workers).filter(|&i| i != w) {
                let _ = cluster.try_send(i, &Msg::Progress { cycle: hb_cycle });
            }
            match read_msg(read_half) {
                Ok(Some(Msg::Progress { .. })) => {}
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => return Err("replacement closed the connection mid-handshake".into()),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Err("replacement handshake timed out".to_string());
                    }
                }
                Err(e) => return Err(format!("replacement handshake read failed: {e}")),
            }
        }
    };

    write_msg(
        &mut write_half,
        &Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
            worker: w as u32,
        },
    )
    .map_err(|e| err(format!("handshake write failed: {e}")))?;
    match expect(cluster, &mut read_half)? {
        Msg::HelloAck { magic, version } => {
            if magic != PROTOCOL_MAGIC || version != PROTOCOL_VERSION {
                return Err(format!(
                    "replacement speaks protocol {version}, coordinator speaks {PROTOCOL_VERSION}"
                ));
            }
        }
        other => return Err(format!("replacement answered the handshake with {other:?}")),
    }
    write_msg(
        &mut write_half,
        &prepared.topology_for(&cluster.placement, w),
    )
    .map_err(|e| err(format!("topology write failed: {e}")))?;
    match expect(cluster, &mut read_half)? {
        Msg::Ready { design_digest } => {
            if design_digest != expected_digest {
                return Err(format!(
                    "replacement built different partitions \
                     (digest {design_digest:#x} != {expected_digest:#x})"
                ));
            }
        }
        Msg::Fatal { message, .. } => return Err(message),
        other => return Err(format!("replacement sent {other:?} instead of Ready")),
    }
    let (cycle, blob) =
        committed.map_or_else(|| (0, Vec::new()), |(c, blobs)| (*c, blobs[w].clone()));
    write_msg(&mut write_half, &Msg::Restore { epoch, cycle, blob })
        .map_err(|e| err(format!("restore write failed: {e}")))?;
    write_msg(&mut write_half, &Msg::Run { budget })
        .map_err(|e| err(format!("run write failed: {e}")))?;
    *cluster.writers[w].lock().unwrap() = write_half;
    cluster.shutdowns[w] = shutdown_half;
    cluster.addrs[w] = addr.to_string();
    Ok(read_half)
}

/// One worker's relay thread: reads raw frames off that worker's socket
/// through a [`FrameReader`] and forwards data-plane traffic (tokens,
/// acks, credits) verbatim to the destination worker's write half — no
/// decode, no re-encode, no hand-off through the control loop. Control
/// messages are decoded and sent to the control loop's event channel.
///
/// Messages are not written one at a time: every complete frame
/// buffered after a read is routed first, copied once from the reader's
/// buffer into its destination's outbound buffer, and the burst then
/// ships with one write per destination. A worker flushes its
/// whole service-loop pass in one socket write, so the common arrival
/// pattern is several messages at once — and forwarding them as one
/// write means one scheduler wakeup at the destination, not one per
/// message.
///
/// Two rules matter for failover correctness:
///
/// * **Data plane flushes before control forwards.** A control message
///   (`Barrier`, `RewindAck`, …) is handed to the control loop only
///   after every data-plane byte this relay read *before* it has been
///   written to its destination socket. Combined with per-socket FIFO
///   this is what lets the control loop treat "I have worker X's ack"
///   as "everything X sent before that ack is already at its receiver"
///   — the foundation both cluster checkpoints and rewinds stand on.
/// * **A dead destination never kills this relay.** Writes to a
///   flagged-dead destination are dropped (the rewind protocol
///   regenerates that traffic anyway), and a failed write flags the
///   destination and drops, rather than exiting — the survivors' relay
///   threads must keep running through a failover. Death is reported
///   (`Event::Closed`, tagged with this relay's generation) only for
///   this relay's *own* socket, where EOF is unambiguous.
///
/// Exits on its own socket's EOF/error or on a protocol violation
/// (`Event::Bad`).
#[allow(clippy::too_many_arguments)]
fn relay_worker(
    me: usize,
    generation: u32,
    reader: NetStream,
    writers: &[Arc<Mutex<NetStream>>],
    dead: &[AtomicBool],
    book: &RelayBook,
    sink_owner: &[usize],
    source_owner: &[usize],
    tx: &mpsc::Sender<(usize, Event)>,
) {
    let n_links = sink_owner.len();
    let known = |link: Option<usize>| link.filter(|&l| l < n_links);
    let closed = || {
        let _ = tx.send((me, Event::Closed(generation)));
    };
    let Ok(mut reader) = FrameReader::new(reader) else {
        return closed();
    };
    let mut outbound: Vec<Vec<u8>> = writers.iter().map(|_| Vec::new()).collect();
    // Socket reads, frames routed and destination writes, emitted with
    // each report this relay forwards.
    let (mut reads, mut frames, mut writes) = (0u64, 0u64, 0u64);
    let flush = |outbound: &mut Vec<Vec<u8>>, writes: &mut u64| {
        for (dest, out) in outbound.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            if dead[dest].load(Ordering::Acquire) {
                out.clear();
                continue;
            }
            *writes += 1;
            let delivered = {
                let mut w = writers[dest].lock().unwrap();
                w.write_all(out).and_then(|()| w.flush()).is_ok()
            };
            out.clear();
            if !delivered {
                // The destination is gone. Flag it and keep going; its
                // own relay's EOF is what reports the death.
                dead[dest].store(true, Ordering::Release);
            }
        }
    };
    loop {
        let frame = match reader.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                // Every frame of the burst is routed: ship it, then read.
                flush(&mut outbound, &mut writes);
                reads += 1;
                match reader.fill(Wait::Forever) {
                    Ok(Filled::Bytes(_) | Filled::Nothing) => continue,
                    Ok(Filled::Eof) | Err(_) => return closed(),
                }
            }
            Err(_) => return closed(),
        };
        frames += 1;
        let dest = match peek_data(frame) {
            Some(DataMsg::Token { link, max_seq }) => {
                let Some(l) = known(link) else {
                    let m = format!("worker {me} sent token for unknown link {link:?}");
                    let _ = tx.send((me, Event::Bad(m)));
                    return;
                };
                if let Some(seq) = max_seq {
                    book.sent[l].fetch_max(seq.saturating_add(1), Ordering::Relaxed);
                }
                Some(sink_owner[l])
            }
            Some(DataMsg::CorruptToken { link }) => known(link).map(|l| sink_owner[l]),
            Some(DataMsg::Ack { link, ack }) => {
                let Some(l) = known(link) else {
                    let m = format!("worker {me} sent ack for unknown link {link:?}");
                    let _ = tx.send((me, Event::Bad(m)));
                    return;
                };
                if let Some(ack) = ack {
                    book.acked[l].fetch_max(ack, Ordering::Relaxed);
                }
                Some(source_owner[l])
            }
            Some(DataMsg::Credit { link }) => known(link).map(|l| source_owner[l]),
            None => {
                match decode_frame(frame) {
                    Ok(m) => {
                        // Everything read before this control message
                        // must be at its destination before the control
                        // loop can act on it (see the doc comment).
                        flush(&mut outbound, &mut writes);
                        if matches!(m, Msg::Report(_)) {
                            // In the trace sink before the control
                            // loop can fold this job's trace.
                            obs_counter!("net.relay.reads", 0, reads);
                            obs_counter!("net.relay.frames", 0, frames);
                            obs_counter!("net.relay.writes", 0, writes);
                            trace::flush_thread();
                        }
                        if tx.send((me, Event::Msg(m))).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let m = format!("worker {me} sent a malformed message: {e}");
                        let _ = tx.send((me, Event::Bad(m)));
                        return;
                    }
                }
                None
            }
        };
        if let Some(dest) = dest {
            outbound[dest].extend_from_slice(frame);
        }
    }
}

/// One blocking bring-up read with the socket read timeout armed.
///
/// `Progress` heartbeats are absorbed (a slow-but-alive worker — e.g.
/// one building a large design, or one behind a stalled-but-intact
/// wire — is *not* dead), and each absorbed heartbeat restarts the
/// socket read timeout, so the `NetTimeout` deadline measures silence,
/// not total elapsed time.
fn expect_msg(
    cluster: &mut Cluster,
    reader: &mut NetStream,
    worker: usize,
    timeout_ms: u64,
) -> Result<Msg> {
    loop {
        match read_msg(reader) {
            Ok(Some(Msg::Progress { cycle })) => {
                cluster.progress[worker] = cluster.progress[worker].max(cycle);
            }
            Ok(Some(msg)) => return Ok(msg),
            Ok(None) => {
                let e = cluster.disconnect_error(worker);
                cluster.shutdown_sockets();
                return Err(e);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let e = SimError::NetTimeout {
                    peer: cluster.addrs[worker].clone(),
                    timeout_ms,
                    last_acked_cycle: cluster.progress[worker],
                };
                cluster.shutdown_sockets();
                return Err(e);
            }
            Err(e) => {
                cluster.shutdown_sockets();
                return Err(cfg_err(format!(
                    "coordinator read from worker {worker} failed: {e}"
                )));
            }
        }
    }
}

/// Folds per-worker reports into cluster-level metrics, series, VCD and
/// Chrome trace. Sender- and receiver-side link counter contributions
/// are disjoint fields, so links fold by fieldwise summation.
fn fold_reports(
    budget: u64,
    nodes_meta: &[(String, usize)],
    specs: &[LinkSpec],
    settings: &WireSettings,
    vcd_signals: Vec<fireaxe_obs::VcdSignal>,
    reports: Vec<WireReport>,
) -> NetRunReport {
    let n_nodes = nodes_meta.len();
    let mut counters: Vec<fireaxe_sim::NodeCounters> = nodes_meta
        .iter()
        .map(|(name, partition)| fireaxe_sim::NodeCounters {
            node: name.clone(),
            partition: *partition,
            ..Default::default()
        })
        .collect();
    let mut link_counters: Vec<LinkCounters> = (0..specs.len())
        .map(|l| LinkCounters {
            link: l,
            ..Default::default()
        })
        .collect();
    let mut link_tokens = vec![0u64; specs.len()];
    let mut node_samples: Vec<Vec<fireaxe_obs::NodeSample>> = vec![Vec::new(); n_nodes];
    let mut vcd_writer = settings.vcd.then(|| VcdWriter::new(vcd_signals));
    let mut trace_parts: Vec<(String, Vec<OwnedTraceEvent>)> = Vec::new();

    trace::flush_thread();
    trace_parts.push((
        "coordinator".to_string(),
        trace::take_events()
            .iter()
            .map(OwnedTraceEvent::from)
            .collect(),
    ));
    for r in reports {
        for n in r.nodes {
            let idx = n.node as usize;
            if idx >= n_nodes {
                continue;
            }
            counters[idx] = n.counters;
            node_samples[idx] = n.samples;
            if let Some(w) = vcd_writer.as_mut() {
                for (t, sig, value) in n.vcd {
                    w.change(t, sig, value);
                }
            }
        }
        for l in r.links {
            let idx = l.link as usize;
            if idx >= specs.len() {
                continue;
            }
            link_tokens[idx] += l.tokens;
            let c = &mut link_counters[idx];
            c.sent_frames += l.counters.sent_frames;
            c.retransmits += l.counters.retransmits;
            c.timeout_escalations += l.counters.timeout_escalations;
            c.crc_failures += l.counters.crc_failures;
            c.duplicates_dropped += l.counters.duplicates_dropped;
            c.delivery_delay_ps += l.counters.delivery_delay_ps;
        }
        trace_parts.push((format!("worker{}", r.worker), r.traces));
    }
    for (c, tokens) in link_counters.iter_mut().zip(&link_tokens) {
        c.tokens = *tokens;
    }

    let series = MetricsSeries {
        sample_interval: settings.sample_interval,
        nodes: nodes_meta
            .iter()
            .zip(node_samples)
            .map(|((name, _), samples)| NodeSeries {
                node: name.clone(),
                samples,
            })
            .collect(),
        links: if settings.sample_interval > 0 {
            link_counters
                .iter()
                .map(|c| LinkSeries {
                    link: c.link,
                    samples: vec![LinkSample {
                        cycle: budget,
                        time_ps: 0,
                        tokens: c.tokens,
                        sent_frames: c.sent_frames,
                        retransmits: c.retransmits,
                        crc_failures: c.crc_failures,
                        duplicates_dropped: c.duplicates_dropped,
                        delivery_delay_ps: c.delivery_delay_ps,
                        in_flight: 0,
                    }],
                })
                .collect()
        } else {
            Vec::new()
        },
    };
    let host_cycles = counters.iter().map(|c| c.host_cycles).collect();
    NetRunReport {
        metrics: SimMetrics {
            target_cycles: budget,
            time_ps: 0,
            link_tokens,
            host_cycles,
            counters,
            links: link_counters,
        },
        series,
        vcd: vcd_writer.map(|w| w.render()),
        chrome_trace: to_chrome_json_merged(&trace_parts),
        recoveries: Vec::new(),
    }
}
