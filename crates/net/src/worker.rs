//! The worker process: hosts a contiguous run of partitions, speaks the
//! wire protocol.
//!
//! A worker accepts exactly one coordinator connection, handshakes,
//! receives the topology (one payload per hosted partition + settings),
//! checks that the payloads are one cut's partitions and exactly the run
//! [`placement()`] assigns it, validates and elaborates only those
//! partitions' threads — FireRipper ran once, on the coordinator, and
//! each payload keeps the cut's global node, link and VCD signal
//! numbering — then services their nodes in one loop. A link whose two
//! ends are both hosted here moves tokens in-process, with no socket and
//! no relay hop. Cross-worker link endpoints become socket traffic:
//! outputs are sealed into go-back-N frames and sent as
//! [`Msg::Token`]s (gated by credits), inbound frames are classified by
//! the reliability receiver and staged into the consuming node's LI-BDN
//! queue, exactly where the in-process backends deliver.
//!
//! The service loop mirrors the threaded backend's: drain the socket,
//! step owned nodes to quiescence, move link outputs, drain environment
//! bridges, return flow-control credits, and only when nothing moved,
//! tick retransmission timers and block briefly on the socket. Nodes
//! stop at exactly the budget, so the shared observation point in
//! `ingest_and_step` samples identical `(cycle, state_digest)` rows and
//! VCD changes as the DES golden model.
//!
//! # Latency hiding
//!
//! Three mechanisms keep the wire off the critical path (the paper's
//! inter-FPGA latency amortization, §V):
//!
//! * **Credit-window framing** — a link's fresh frames accumulate while
//!   it holds credits and ship as one [`Msg::TokenBatch`] when its
//!   credit window is spent or at the pass's quiescent flush, whichever
//!   comes first, so liveness never depends on filling a window. The
//!   receiver stages the whole batch and acknowledges once,
//!   cumulatively. Framing is invisible to the target, so it is a fixed
//!   rule rather than a setting.
//! * **Write coalescing** — outbound messages queue into one local
//!   buffer and ship with a single `write`+`flush` per service-loop
//!   pass (a spent window's batch rides that same write). The
//!   kernel socket buffer provides the compute/communication overlap:
//!   a write returns as soon as the bytes are queued, and the worker
//!   keeps stepping while the coordinator relays them (double
//!   buffering: a link's next batch fills as credits come back, while
//!   the last one may still be unacknowledged). A dedicated writer
//!   thread was measured slower here — on a loaded host every thread
//!   hand-off on the token path is a context switch, and the per-cycle
//!   critical path of a tightly-coupled partitioning is exactly that
//!   path.
//! * **Inline socket reads** — the same argument on the inbound side:
//!   the service loop drains the socket itself (`RxWire`, a
//!   [`FrameReader`]) instead of delegating to a reader thread. A
//!   relayed token then wakes the worker's service loop directly,
//!   cutting one context switch from every hop of the cut's token ring.
//!   The socket stays in blocking mode: an active pass drains with
//!   `MSG_DONTWAIT` reads, and a quiescent one makes a single blocking
//!   read bounded by `SO_RCVTIMEO`, which is set again only when the
//!   wanted timeout changes. Reads land in the reader's persistent
//!   buffer, so a pass costs its syscalls and nothing more. Deadlock
//!   freedom previously rested on the always-draining reader thread; it
//!   now rests on `WireBuf::flush` draining inbound whenever a
//!   nonblocking `send` finds the send buffer full, so no two peers can
//!   sit blocked writing to each other.
//!
//! Runahead is bounded by the credit window: LI-BDN queues are deepened
//! to [`INITIAL_CREDITS`] slots, and every fresh frame spends a
//! flow-control credit — a partition can never run more than
//! [`INITIAL_CREDITS`] cycles ahead of its slowest inbound link.

use crate::codec::{
    decode_frame, frame_into, partition_digest, read_msg, set_digest, write_msg, LinkReport, Msg,
    NodeReport, Topology, WireReport, WireSettings, FATAL_LINK_DOWN, FATAL_SIM, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
use crate::flow::{RxLink, RxLinkMark, TxLink, TxLinkMark, INITIAL_CREDITS};
use crate::payload::decode_partition_payload;
use crate::stream::{Filled, FrameReader, NetListener, NetStream, Wait};
use fireaxe_ir::{Dec, Wire};
use fireaxe_obs::{obs_counter, obs_span, trace, OwnedTraceEvent};
use fireaxe_ripper::LinkSpec;
use fireaxe_sim::{placement, DistributedSim, PartitionCut, Result, SimBuilder, SimError};
use fireaxe_transport::reliable::{Frame, RxVerdict};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Hook for binding process-local, non-serializable simulation inputs
/// (behavior registries, bridges) onto the builder. Every process of a
/// cluster — and any DES reference run being compared against — must
/// apply the same setup for bit-exact parity.
pub type SimSetup = dyn for<'a> Fn(SimBuilder<'a>) -> SimBuilder<'a> + Sync;

/// Idle poll granularity: how long a quiescent worker blocks on the
/// socket before ticking retransmission timers again. `SO_RCVTIMEO`
/// rounds it up to the kernel tick, so an idle wait that times out
/// lasts ≈ 8 ms, and that — not this constant — sets the go-back-N
/// timeout's wall time (32 quiescent ticks ≈ 256 ms). A true 200 µs
/// wait makes that 6.4 ms, short enough to retransmit on a clean but
/// busy host.
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Target cycles between [`Msg::Progress`] reports (the wall-clock
/// heartbeat may send one sooner).
const PROGRESS_INTERVAL: u64 = 256;

enum Event {
    // Boxed: `Msg` carries whole topologies and reports, and `Closed`
    // is zero-sized.
    Msg(Box<Msg>),
    Closed,
}

fn cfg_err(message: String) -> SimError {
    SimError::Config { message }
}

/// One outbound cross-worker link: protocol/flow state plus the batch
/// currently being filled (its predecessor may still be on the wire —
/// that is the double buffer).
struct OutLink {
    link: usize,
    txl: TxLink,
    pending: Vec<Frame>,
}

/// The service loop's outbound wire buffer: messages queue locally
/// (infallibly) and ship in one `send` wherever the loop chooses to
/// flush, so a pass that produces a burst of acks, credits and tokens
/// costs one syscall instead of one per message.
struct WireBuf {
    buf: Vec<u8>,
    /// `send` calls and bytes sent, for the session's counters.
    sends: u64,
    bytes_out: u64,
}

impl WireBuf {
    fn new() -> Self {
        WireBuf {
            buf: Vec::with_capacity(16 << 10),
            sends: 0,
            bytes_out: 0,
        }
    }

    fn queue(&mut self, msg: &Msg) {
        frame_into(&mut self.buf, msg);
    }

    /// Ships the queued bytes. While the socket's send buffer is full,
    /// keeps draining the inbound side: the peer that must consume our
    /// bytes may itself be blocked writing to us, and draining breaks
    /// that cycle — the deadlock-freedom guarantee the dedicated reader
    /// thread used to provide.
    fn flush(
        &mut self,
        stream: &NetStream,
        rx: &mut RxWire,
        events: &mut VecDeque<Event>,
    ) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut off = 0;
        let mut stalls = 0u32;
        while off < self.buf.len() {
            self.sends += 1;
            match stream.send_nonblocking(&self.buf[off..]) {
                Ok(0) => {
                    self.buf.clear();
                    return Err(std::io::ErrorKind::WriteZero.into());
                }
                Ok(n) => {
                    off += n;
                    self.bytes_out += n as u64;
                    stalls = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    rx.drain(events);
                    stalls += 1;
                    // Yield first (the consumer likely just needs the
                    // core), back off to real sleeps if the buffer stays
                    // full — e.g. behind a long wire stall.
                    if stalls > 64 {
                        std::thread::sleep(Duration::from_micros(100));
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.buf.clear();
                    return Err(e);
                }
            }
        }
        self.buf.clear();
        Ok(())
    }
}

/// The service loop's inbound wire: a [`FrameReader`] on the socket,
/// read by the loop itself (see the module docs for why there is
/// deliberately no reader thread), with each frame decoded into an
/// [`Event`]. EOF and unrecoverable read or decode errors surface as
/// one final [`Event::Closed`].
struct RxWire {
    reader: FrameReader,
    closed: bool,
    /// `recv` calls and bytes received, for the session's counters.
    recvs: u64,
    bytes_in: u64,
}

impl RxWire {
    fn new(stream: NetStream) -> std::io::Result<Self> {
        Ok(RxWire {
            reader: FrameReader::new(stream)?,
            closed: false,
            recvs: 0,
            bytes_in: 0,
        })
    }

    /// Pulls every byte currently available and decodes complete frames
    /// into `events`. Never blocks.
    fn drain(&mut self, events: &mut VecDeque<Event>) {
        while self.read(Wait::No, events) && self.reader.is_full() {}
    }

    /// Blocks until the socket has bytes or `timeout` elapses, and
    /// decodes what came. Only called when the service loop is
    /// quiescent; the next pass's drain takes the rest. Returns whether
    /// it waited and nothing came.
    fn wait(&mut self, timeout: Duration, events: &mut VecDeque<Event>) -> bool {
        if self.closed || !events.is_empty() {
            return false;
        }
        !self.read(Wait::Upto(timeout), events)
    }

    /// One read, then every complete frame decoded. Returns whether
    /// bytes arrived.
    fn read(&mut self, wait: Wait, events: &mut VecDeque<Event>) -> bool {
        if self.closed {
            return false;
        }
        self.recvs += 1;
        let got = match self.reader.fill(wait) {
            Ok(Filled::Bytes(n)) => n,
            Ok(Filled::Nothing) => return false,
            Ok(Filled::Eof) | Err(_) => {
                self.close(events);
                return false;
            }
        };
        self.bytes_in += got as u64;
        loop {
            match self.reader.next_frame() {
                Ok(Some(frame)) => match decode_frame(frame) {
                    Ok(msg) => events.push_back(Event::Msg(Box::new(msg))),
                    Err(_) => break,
                },
                Ok(None) => return true,
                Err(_) => break,
            }
        }
        self.close(events);
        false
    }

    fn close(&mut self, events: &mut VecDeque<Event>) {
        self.closed = true;
        events.push_back(Event::Closed);
    }
}

/// Wraps outbound frames for one link into the smallest equivalent
/// message: a bare [`Msg::Token`] for a single frame (identical to the
/// unbatched wire format), a [`Msg::TokenBatch`] otherwise.
fn token_msg(link: usize, mut frames: Vec<Frame>) -> Msg {
    if frames.len() == 1 {
        Msg::Token {
            link: link as u32,
            frame: frames.pop().expect("len checked"),
        }
    } else {
        Msg::TokenBatch {
            link: link as u32,
            frames,
        }
    }
}

/// Wall-clock cadence for keepalive [`Msg::Progress`] heartbeats: a
/// quarter of the silence budget, so a slow-but-alive peer always lands
/// several heartbeats inside every `io_timeout` window.
pub(crate) fn heartbeat_interval(io_timeout: Duration) -> Duration {
    (io_timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(1_000))
}

/// Per-worker behavior knobs beyond the wire settings: chaos-injection
/// hooks used by the failover test harness and the `--chaos-kill` /
/// `--chaos-hang` CLI flags. Defaults are all-off (production behavior).
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Die (drop the socket without a `Fatal`, exactly like a crash)
    /// once every owned node has completed this many target cycles.
    pub chaos_kill: Option<u64>,
    /// With `chaos_kill`: kill the whole OS process via
    /// [`std::process::abort`] instead of just dropping the connection.
    /// Subprocess workers use this; in-process test workers must not.
    pub chaos_abort: bool,
    /// Go silent (stop reading and writing, without dying) once every
    /// owned node has completed this many target cycles — exercises the
    /// coordinator's liveness attribution rather than its failover.
    pub chaos_hang: Option<u64>,
}

/// Marker carried by the [`SimError::Config`] a chaos-killed session
/// returns, so [`serve_with`] knows not to send a `Fatal` (a real crash
/// would not have either).
pub(crate) const CHAOS_KILLED: &str = "chaos: worker killed";

/// Magic leading the net-layer checkpoint blob: the engine's portable
/// snapshot of every hosted partition wrapped together with the per-link
/// flow marks taken at the same cluster barrier (`FXC2`), bumped on any
/// layout change.
const NET_CKPT_MAGIC: &[u8; 4] = b"FXC2";

fireaxe_ir::wire_struct! {
    /// The checkpoint blob's fields after its magic (layout in DESIGN.md
    /// §7).
    struct Checkpoint {
        /// The barrier cycle it was captured at.
        cycle: u64,
        /// Each hosted partition, in partition order, with its engine blob.
        partitions: Vec<(usize, Vec<u8>)>,
        /// Sender marks `(link, credits, next_seq)`.
        senders: Vec<(usize, u32, u64)>,
        /// Receiver marks `(link, expected, credited_enqueued)`.
        receivers: Vec<(usize, u64, u64)>,
    }
}

/// `partitions 2-3`: how messages name the run of partitions a worker
/// hosts.
pub(crate) fn partitions_label(parts: &[usize]) -> String {
    match parts {
        [p] => format!("partition {p}"),
        [first, .., last] => format!("partitions {first}-{last}"),
        [] => "no partitions".to_string(),
    }
}

/// `worker 1 (partitions 2-3)`: how messages name a worker and the run
/// of partitions it hosts.
fn worker_label(worker: usize, parts: &[usize]) -> String {
    format!("worker {worker} ({})", partitions_label(parts))
}

/// What a worker hosting a set of partitions services: their nodes, and
/// each link that touches them, by where its other end lives.
struct Endpoints {
    /// The nodes of every hosted partition, in flat order.
    owned: Vec<usize>,
    /// Links from a hosted node to another worker's.
    out_links: Vec<OutLink>,
    /// Links from another worker's node to a hosted one.
    in_links: Vec<(usize, RxLink)>,
    /// Links whose two ends are both hosted here: no `TxLink`/`RxLink`,
    /// no socket, no relay hop.
    local_links: Vec<usize>,
}

impl Endpoints {
    /// Fresh endpoints, every flow mark at its session start.
    fn new(
        sim: &DistributedSim,
        parts: &[usize],
        specs: &[LinkSpec],
        settings: &WireSettings,
    ) -> Self {
        let mine = |node: usize| parts.contains(&sim.node_partition(node));
        let mut e = Endpoints {
            owned: (0..sim.node_count()).filter(|&n| mine(n)).collect(),
            out_links: Vec::new(),
            in_links: Vec::new(),
            local_links: Vec::new(),
        };
        for (l, s) in specs.iter().enumerate() {
            match (mine(s.from_node), mine(s.to_node)) {
                (true, true) => e.local_links.push(l),
                (true, false) => e.out_links.push(OutLink {
                    link: l,
                    txl: TxLink::new(settings.retry),
                    pending: Vec::new(),
                }),
                (false, true) => e.in_links.push((l, RxLink::new())),
                (false, false) => {}
            }
        }
        e
    }

    /// The endpoints of `sim`'s built partitions.
    fn of(sim: &DistributedSim, settings: &WireSettings) -> (Vec<usize>, Self) {
        let parts = sim.built_partitions();
        let e = Endpoints::new(sim, &parts, &sim.link_specs(), settings);
        (parts, e)
    }
}

/// The FXC2 checkpoint (layout in DESIGN.md §7) a worker hosting `sim`'s
/// partitions — `sim` a [`build_partitions`] build — holds before its
/// first step, every cross-worker link endpoint at its session-start
/// mark: the layout of every checkpoint a worker ships to the
/// coordinator. A test entry point for the checkpoint format; workers
/// capture their own.
///
/// # Errors
///
/// [`SimError::SnapshotUnsupported`] when a hosted node's state is not
/// byte-portable.
#[doc(hidden)]
pub fn session_checkpoint(sim: &mut DistributedSim, settings: &WireSettings) -> Result<Vec<u8>> {
    let (parts, e) = Endpoints::of(sim, settings);
    capture_state(sim, &parts, 0, &e.out_links, &e.in_links)
}

/// Restores an FXC2 checkpoint taken at `cycle` into `sim` against fresh
/// link endpoints, the way a respawned worker adopts its predecessor's,
/// and returns the checkpoint the restored state re-captures — the blob
/// itself whenever it is accepted. A test entry point for the
/// checkpoint format, beside [`session_checkpoint`].
///
/// # Errors
///
/// [`SimError::Config`] for a blob that does not decode as this
/// worker's state (another cycle or partition set, foreign links,
/// truncation, trailing bytes).
#[doc(hidden)]
pub fn restore_checkpoint(
    sim: &mut DistributedSim,
    settings: &WireSettings,
    cycle: u64,
    blob: &[u8],
) -> Result<Vec<u8>> {
    let (parts, mut e) = Endpoints::of(sim, settings);
    restore_state(
        sim,
        "worker",
        &parts,
        cycle,
        blob,
        &mut e.out_links,
        &mut e.in_links,
    )?;
    capture_state(sim, &parts, cycle, &e.out_links, &e.in_links)
}

/// Captures this worker's rewindable state at a cluster barrier: the
/// engine's portable blob of each hosted partition plus a
/// [`TxLink`]/[`RxLink`] mark per cross-worker endpoint (see
/// [`NET_CKPT_MAGIC`] for the layout). Must be called at link quiescence
/// (all owned nodes at the barrier cycle, nothing unacknowledged in any
/// go-back-N window) — `TxLink::mark` debug-asserts that.
fn capture_state(
    sim: &DistributedSim,
    parts: &[usize],
    cycle: u64,
    out_links: &[OutLink],
    in_links: &[(usize, RxLink)],
) -> Result<Vec<u8>> {
    let partitions = parts
        .iter()
        .map(|&p| Ok((p, sim.snapshot_partition_bytes(p)?)))
        .collect::<Result<_>>()?;
    let senders = out_links
        .iter()
        .map(|ol| {
            let m = ol.txl.mark();
            (ol.link, m.credits(), m.next_seq())
        })
        .collect();
    let receivers = in_links
        .iter()
        .map(|(l, rxl)| {
            let m = rxl.mark();
            (*l, m.expected(), m.credited_enqueued())
        })
        .collect();
    let mut b = NET_CKPT_MAGIC.to_vec();
    Checkpoint {
        cycle,
        partitions,
        senders,
        receivers,
    }
    .put(&mut b);
    Ok(b)
}

/// Restores a [`capture_state`] blob: engine partition state first,
/// then every flow endpoint resynced to its mark (restoring channel
/// state without the marks would strand flow-control credits — see
/// `DistributedSim::restore_partition_bytes`). Cross-checks the blob's cycle,
/// partition list, link identity and count against this session, and
/// rejects trailing bytes.
fn restore_state(
    sim: &mut DistributedSim,
    who: &str,
    parts: &[usize],
    cycle: u64,
    blob: &[u8],
    out_links: &mut [OutLink],
    in_links: &mut [(usize, RxLink)],
) -> Result<()> {
    let bad = |why: String| cfg_err(format!("{who} checkpoint blob rejected: {why}"));
    let mut d = Dec::new(blob);
    let ck = (|| {
        d.magic(NET_CKPT_MAGIC, "checkpoint")?;
        let ck = d.get::<Checkpoint>()?;
        d.finish()?;
        Ok(ck)
    })()
    .map_err(bad)?;
    if ck.cycle != cycle {
        return Err(bad(format!(
            "captured at cycle {}, rewinding to {cycle}",
            ck.cycle
        )));
    }
    if !ck.partitions.iter().map(|b| b.0).eq(parts.iter().copied()) {
        return Err(bad(format!(
            "it holds partitions {:?}, this session hosts {parts:?}",
            ck.partitions.iter().map(|b| b.0).collect::<Vec<_>>()
        )));
    }
    for (&p, (_, blob)) in parts.iter().zip(&ck.partitions) {
        let restored = sim.restore_partition_bytes(p, blob)?;
        if restored != cycle {
            return Err(bad(format!(
                "partition {p} restored to cycle {restored}, expected {cycle}"
            )));
        }
    }
    // Every engine blob carries the link totals; blobs captured at one
    // barrier agree on them, so the restored state re-captures each.
    for (&p, (_, blob)) in parts.iter().zip(&ck.partitions) {
        if sim.snapshot_partition_bytes(p)? != *blob {
            return Err(bad(format!(
                "partition {p}'s blob disagrees with the others on the link state"
            )));
        }
    }
    if ck.senders.len() != out_links.len() {
        return Err(bad(format!(
            "{} sender mark(s) for {} outbound link(s)",
            ck.senders.len(),
            out_links.len()
        )));
    }
    for (ol, &(l, credits, next_seq)) in out_links.iter_mut().zip(&ck.senders) {
        if l != ol.link {
            return Err(bad(format!(
                "sender mark for link {l}, expected {}",
                ol.link
            )));
        }
        if credits > INITIAL_CREDITS {
            return Err(bad(format!(
                "link {l} holds {credits} credits, past the {INITIAL_CREDITS}-credit window"
            )));
        }
        ol.pending.clear();
        ol.txl.resync(TxLinkMark::new(credits, next_seq));
    }
    if ck.receivers.len() != in_links.len() {
        return Err(bad(format!(
            "{} receiver mark(s) for {} inbound link(s)",
            ck.receivers.len(),
            in_links.len()
        )));
    }
    for ((link, rxl), &(l, expected, credited)) in in_links.iter_mut().zip(&ck.receivers) {
        if l != *link {
            return Err(bad(format!("receiver mark for link {l}, expected {link}")));
        }
        rxl.resync(RxLinkMark::new(expected, credited));
    }
    Ok(())
}

/// Applies the cluster-wide settings every build of a job shares — the
/// coordinator's passive build, a threads job, each worker's partition —
/// so all of them observe identically. Everything else is the
/// `SimBuilder` default: no net or threads build has a virtual clock.
pub(crate) fn configure<'a>(builder: SimBuilder<'a>, settings: &WireSettings) -> SimBuilder<'a> {
    builder.observe(fireaxe_sim::ObsSpec {
        sample_interval: settings.sample_interval,
        vcd: settings.vcd,
        signals: settings.signals.clone(),
    })
}

/// Decodes `Topology` payloads (each timed by `net.worker.decode`).
fn decode_payloads<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<PartitionCut>> {
    payloads
        .into_iter()
        .map(|payload| {
            let _decode = obs_span!("net.worker.decode");
            decode_partition_payload(payload).map_err(|e| {
                cfg_err(format!(
                    "worker received a bad circuit tape in its partition payload: {e}"
                ))
            })
        })
        .collect()
}

/// Validates every thread circuit of `cuts` (they come off a socket) and
/// elaborates only their threads with `settings` and `setup` applied
/// exactly as every other process of the cluster applies them.
fn build_cuts(
    cuts: &[PartitionCut],
    settings: &WireSettings,
    setup: &SimSetup,
) -> Result<DistributedSim> {
    {
        let _validate = obs_span!("net.worker.validate");
        for t in cuts.iter().flat_map(|c| &c.artifact.threads) {
            fireaxe_ir::typecheck::validate(&t.circuit)?;
        }
    }
    let _build = obs_span!("net.worker.build");
    setup(configure(SimBuilder::for_partitions(cuts), settings)).build()
}

/// Builds one partition from its `Topology` payload, the way a worker
/// hosting only that partition builds it: decodes it, validates every
/// thread circuit, and elaborates only its threads with `settings` and
/// `setup` applied exactly as every other process of the cluster
/// applies them. The build's partition blobs, VCD signal table and
/// [`partition_digest`] are those of a whole-design build.
///
/// # Errors
///
/// [`SimError::Config`] for a payload that does not decode or carries
/// another partition than `partition`, [`SimError::Ir`] for a thread
/// circuit that fails validation (e.g. past the size limits), and
/// whatever the build reports.
pub fn build_partition(
    payload: &[u8],
    partition: usize,
    settings: &WireSettings,
    setup: &SimSetup,
) -> Result<DistributedSim> {
    let cuts = decode_payloads([payload])?;
    if cuts[0].partition != partition {
        return Err(cfg_err(format!(
            "worker for partition {partition} received partition {}'s payload",
            cuts[0].partition
        )));
    }
    build_cuts(&cuts, settings, setup)
}

/// Builds a set of partitions from their `Topology` payloads, the way a
/// worker hosting them builds it: [`build_partition`] for several
/// partitions of one cut. Links between two of them stay in-process. A
/// test entry point (see [`session_checkpoint`]); workers build from
/// their `Topology`.
///
/// # Errors
///
/// As [`build_partition`], plus [`SimError::Config`] for payloads that
/// name a partition twice or come from different cuts.
#[doc(hidden)]
pub fn build_partitions(
    payloads: &[&[u8]],
    settings: &WireSettings,
    setup: &SimSetup,
) -> Result<DistributedSim> {
    build_cuts(&decode_payloads(payloads.iter().copied())?, settings, setup)
}

/// Decodes a topology's payloads and checks that they are one cut's
/// partitions, each once, and exactly the run [`placement()`] assigns
/// worker `topology.worker` of `topology.n_workers`.
fn hosted_cuts(topology: &Topology) -> Result<Vec<PartitionCut>> {
    if topology.payloads.is_empty() {
        return Err(refused(topology, "it carries no partition payload".into()));
    }
    let cuts = decode_payloads(topology.payloads.iter().map(Vec::as_slice))?;
    let (_, n_partitions) = PartitionCut::check_set(&cuts)?;
    let parts: Vec<usize> = cuts.iter().map(|c| c.partition).collect();
    check_run(topology, n_partitions, &parts)?;
    Ok(cuts)
}

/// Checks that `parts` is exactly the run [`placement()`] assigns worker
/// `topology.worker` of `topology.n_workers` on an `n_partitions`-
/// partition cut — on a kept build's partitions too, since a cache key
/// names a partition set, not a place in a fleet.
fn check_run(topology: &Topology, n_partitions: usize, parts: &[usize]) -> Result<()> {
    let (worker, n_workers) = (topology.worker as usize, topology.n_workers as usize);
    if n_workers == 0 || n_workers > n_partitions {
        return Err(refused(
            topology,
            format!("{n_workers} worker(s) cannot host a {n_partitions}-partition cut"),
        ));
    }
    let run: Vec<usize> = placement(n_partitions, n_workers, n_workers)
        .into_iter()
        .enumerate()
        .filter_map(|(p, w)| (w == worker).then_some(p))
        .collect();
    if parts != run {
        return Err(refused(
            topology,
            format!(
                "it carries partitions {parts:?}, but worker {worker} of {n_workers} hosts \
                 {run:?} of {n_partitions}"
            ),
        ));
    }
    Ok(())
}

fn refused(topology: &Topology, why: String) -> SimError {
    cfg_err(format!(
        "worker {} refused its topology: {why}",
        topology.worker
    ))
}

/// Serves one coordinator session on `listener`: handshake, build,
/// run, report, shutdown.
///
/// # Errors
///
/// Handshake violations ([`SimError::ProtocolMismatch`]), peer loss
/// ([`SimError::PeerDisconnected`]), silence ([`SimError::NetTimeout`]),
/// and any simulation failure, which is also reported to the
/// coordinator as a [`Msg::Fatal`] before returning.
pub fn serve(listener: &NetListener, setup: &SimSetup) -> Result<()> {
    serve_with(listener, setup, &WorkerOptions::default())
}

/// [`serve`] with explicit [`WorkerOptions`] (chaos hooks for the
/// failover harness; default options give identical behavior).
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with(listener: &NetListener, setup: &SimSetup, options: &WorkerOptions) -> Result<()> {
    let stream = listener
        .accept()
        .map_err(|e| cfg_err(format!("worker accept failed: {e}")))?;
    serve_stream(stream, setup, options, &mut BuildCache::default()).map(|_| ())
}

/// Serves coordinator sessions forever: a *pooled* worker. Where
/// [`serve`] exits after one session, a pooled worker handles one job
/// per accepted connection and returns to `accept` when the
/// coordinator ends the session with [`Msg::ResetToIdle`] (or simply
/// closes the socket after taking the report). Only an explicit
/// [`Msg::Shutdown`] — or the listener dying — ends the process.
///
/// Two properties make pooling safe and fast:
///
/// * **Total session reset.** Every piece of per-run state lives in
///   the session (`run_session`'s locals: go-back-N windows,
///   deferred acks, credit budgets, staged batches) or is explicitly
///   wiped between jobs (the engine's run accumulators, the cycle-0
///   state rewind below), so job N+1 is bit-exact with a fresh-spawned
///   worker.
/// * **Partition reuse.** The worker keeps its last
///   [`BUILD_CACHE_CAPACITY`] builds, keyed by the topology's payloads
///   and settings — that is, by partition set; a job whose partition set
///   it already built skips the decode + validate + build entirely and
///   just rewinds the kept simulation to its captured cycle-0 snapshot.
///   An entry is one partition set, not a design, so memory grows with
///   the partitions a worker serves. With the job server's digest-keyed
///   tape cache in front, this is the common case.
///
/// A failed session (a job that errors, a coordinator that vanishes
/// mid-run) is *tolerated*: the worker logs nothing, drops the
/// connection, and accepts the next job — one tenant's bad job must
/// not take a pool slot down. Chaos kills are the exception (the
/// failover harness expects the process to die).
///
/// # Errors
///
/// Only listener failure or a chaos kill; per-session errors are
/// absorbed.
pub fn serve_pooled(listener: &NetListener, setup: &SimSetup) -> Result<()> {
    serve_pooled_with(listener, setup, &WorkerOptions::default())
}

/// [`serve_pooled`] with explicit [`WorkerOptions`].
///
/// # Errors
///
/// As [`serve_pooled`].
pub fn serve_pooled_with(
    listener: &NetListener,
    setup: &SimSetup,
    options: &WorkerOptions,
) -> Result<()> {
    let mut cache = BuildCache::default();
    loop {
        let stream = listener
            .accept()
            .map_err(|e| cfg_err(format!("worker accept failed: {e}")))?;
        match serve_stream(stream, setup, options, &mut cache) {
            Ok(SessionEnd::Shutdown) => return Ok(()),
            Ok(SessionEnd::Idle | SessionEnd::Gone) => {}
            Err(e) => {
                if matches!(&e, SimError::Config { message } if message == CHAOS_KILLED) {
                    return Err(e);
                }
                // Job-failure tolerance: drop the session, keep the
                // pool slot. The next accept gets a clean worker (a
                // cache hit rewinds to cycle 0; anything else
                // rebuilds).
            }
        }
    }
}

/// How a session ended, from the pooled accept loop's point of view.
enum SessionEnd {
    /// Explicit [`Msg::Shutdown`]: the worker process should exit.
    Shutdown,
    /// Explicit [`Msg::ResetToIdle`]: wiped, acknowledged with
    /// [`Msg::IdleAck`], ready for the next accept.
    Idle,
    /// The coordinator closed the socket (or fell silent) after taking
    /// the report — a valid goodbye in both one-shot and pooled modes.
    Gone,
}

/// Builds a pooled worker keeps between sessions.
pub const BUILD_CACHE_CAPACITY: usize = 8;

/// One kept build of a partition set.
struct CachedBuild {
    /// [`Topology::cache_key`] of the topology it was built from.
    key: u64,
    /// Each hosted partition's cycle-0 portable snapshot, in partition
    /// order, captured before the first session dirtied anything.
    init: Vec<(usize, Vec<u8>)>,
    sim: DistributedSim,
}

/// A pooled worker's kept builds, most recently used first, at most
/// [`BUILD_CACHE_CAPACITY`] of them. A build whose target state cannot
/// be snapshotted has no way back to cycle 0: it serves its own session
/// only, from `once`.
#[derive(Default)]
struct BuildCache {
    kept: VecDeque<CachedBuild>,
    once: Option<DistributedSim>,
    hits: u64,
    misses: u64,
}

impl BuildCache {
    /// The simulation `topology` asks for, rewound to cycle 0 if kept,
    /// else built — timed by the `net.worker.*` bring-up spans.
    fn bring_up(&mut self, topology: &Topology, setup: &SimSetup) -> Result<&mut DistributedSim> {
        self.once = None;
        let key = topology.cache_key();
        let Some(pos) = self.kept.iter().position(|c| c.key == key) else {
            self.misses += 1;
            obs_counter!("net.worker.build_cache_misses", 0, self.misses);
            let _bringup = obs_span!("net.worker.bringup");
            let cuts = hosted_cuts(topology)?;
            // Room first: the evicted build goes before the new one
            // allocates.
            self.kept.truncate(BUILD_CACHE_CAPACITY - 1);
            let sim = build_cuts(&cuts, &topology.settings, setup)?;
            drop(cuts);
            let init = {
                let _snapshot = obs_span!("net.worker.snapshot");
                sim.built_partitions()
                    .into_iter()
                    .map(|p| Ok((p, sim.snapshot_partition_bytes(p)?)))
                    .collect::<Result<Vec<_>>>()
            };
            return Ok(match init {
                Ok(init) => {
                    self.kept.push_front(CachedBuild { key, init, sim });
                    &mut self.kept[0].sim
                }
                Err(_) => self.once.insert(sim),
            });
        };
        let mut c = self.kept.remove(pos).expect("position is in range");
        let n_partitions = (0..c.sim.node_count())
            .map(|n| c.sim.node_partition(n) + 1)
            .max()
            .unwrap_or(0);
        if let Err(e) = check_run(topology, n_partitions, &c.sim.built_partitions()) {
            self.kept.insert(pos, c);
            return Err(e);
        }
        self.hits += 1;
        // Trace residue from the previous session's teardown window must
        // not leak into this job's report (drained before this bring-up's
        // own spans open).
        trace::flush_thread();
        let _ = trace::take_events();
        obs_counter!("net.worker.build_cache_hits", 0, self.hits);
        let _bringup = obs_span!("net.worker.bringup");
        let _rewind = obs_span!("net.worker.rewind");
        // A failed rewind drops the entry; rebuilding is always sound
        // (and the error already ends this session).
        rewind(&mut c)?;
        self.kept.push_front(c);
        Ok(&mut self.kept[0].sim)
    }
}

/// Rewinds a kept build to its captured cycle-0 state and wipes the
/// engine's cumulative run accumulators — the "fresh worker" half of
/// the pooled-reuse contract (the per-session protocol state is fresh
/// by construction: it lives in [`run_session`]'s locals).
fn rewind(c: &mut CachedBuild) -> Result<()> {
    for (p, init) in &c.init {
        let restored = c.sim.restore_partition_bytes(*p, init)?;
        if restored != 0 {
            return Err(cfg_err(format!(
                "pooled worker rewound partition {p} to cycle {restored}, expected 0"
            )));
        }
    }
    c.sim.reset_run_accumulators();
    Ok(())
}

/// One coordinator session on an accepted stream: handshake, build (or
/// cached rewind), run, report, teardown.
fn serve_stream(
    mut stream: NetStream,
    setup: &SimSetup,
    options: &WorkerOptions,
    cache: &mut BuildCache,
) -> Result<SessionEnd> {
    let peer = stream.peer_string();

    // --- Handshake -----------------------------------------------------
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| cfg_err(format!("worker socket setup failed: {e}")))?;
    let hello = read_msg(&mut stream)
        .map_err(|e| cfg_err(format!("worker handshake read failed: {e}")))?
        .ok_or_else(|| SimError::PeerDisconnected {
            peer: peer.clone(),
            last_acked_cycle: 0,
            report: Default::default(),
        })?;
    let (magic, version, me) = match hello {
        Msg::Hello {
            magic,
            version,
            worker,
        } => (magic, version, worker as usize),
        other => return Err(cfg_err(format!("worker expected Hello, got {other:?}"))),
    };
    write_msg(
        &mut stream,
        &Msg::HelloAck {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
        },
    )
    .map_err(|e| cfg_err(format!("worker handshake write failed: {e}")))?;
    if magic != PROTOCOL_MAGIC || version != PROTOCOL_VERSION {
        return Err(SimError::ProtocolMismatch {
            peer,
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }

    // --- Topology → deterministic local build --------------------------
    let topology = match read_msg(&mut stream)
        .map_err(|e| cfg_err(format!("worker topology read failed: {e}")))?
    {
        Some(Msg::Topology(t)) => *t,
        Some(other) => return Err(cfg_err(format!("worker expected Topology, got {other:?}"))),
        None => {
            return Err(SimError::PeerDisconnected {
                peer,
                last_acked_cycle: 0,
                report: Default::default(),
            })
        }
    };
    let settings = topology.settings.clone();
    // On before the bring-up: its spans belong in the merged trace.
    trace::set_enabled(true);
    let sim = match (topology.worker as usize == me)
        .then_some(())
        .ok_or_else(|| {
            cfg_err(format!(
                "worker {me} received worker {}'s topology",
                topology.worker
            ))
        })
        .and_then(|()| cache.bring_up(&topology, setup))
    {
        Ok(sim) => sim,
        Err(e) => {
            // The coordinator is waiting for Ready: tell it why not.
            let _ = write_msg(
                &mut stream,
                &Msg::Fatal {
                    code: FATAL_SIM,
                    link: 0,
                    attempts: 0,
                    message: format!("worker {me}: {e}"),
                },
            );
            stream.shutdown();
            return Err(e);
        }
    };

    let specs = sim.link_specs();
    let parts = sim.built_partitions();
    write_msg(
        &mut stream,
        &Msg::Ready {
            design_digest: set_digest(parts.iter().map(|&p| partition_digest(sim, p))),
        },
    )
    .map_err(|e| cfg_err(format!("worker ready write failed: {e}")))?;

    // --- Run ------------------------------------------------------------
    // A freshly respawned worker receives a Restore (its predecessor's
    // checkpoint, or an epoch-only adoption with an empty blob when the
    // cluster is rewinding to cycle 0) before its Run.
    let mut init: Option<(u32, u64, Vec<u8>)> = None;
    let budget = loop {
        match read_msg(&mut stream).map_err(|e| cfg_err(format!("worker run read failed: {e}")))? {
            Some(Msg::Run { budget }) => break budget,
            Some(Msg::Restore { epoch, cycle, blob }) => init = Some((epoch, cycle, blob)),
            Some(Msg::Progress { .. }) => {} // coordinator keepalive
            Some(Msg::ResetToIdle) => {
                // A job torn down before its Run (e.g. evicted while
                // queued): acknowledge and return to the pool.
                let _ = write_msg(&mut stream, &Msg::IdleAck);
                stream.shutdown();
                return Ok(SessionEnd::Idle);
            }
            Some(Msg::Shutdown) => return Ok(SessionEnd::Shutdown),
            None => return Ok(SessionEnd::Gone),
            Some(other) => return Err(cfg_err(format!("worker expected Run, got {other:?}"))),
        }
    };

    let who = worker_label(me, &parts);
    let result = run_session(
        &mut stream,
        &peer,
        me,
        &who,
        &parts,
        sim,
        &specs,
        &settings,
        budget,
        options,
        init,
    );
    if let Err(e) = &result {
        // A chaos kill imitates a crash: the socket is already gone and
        // a real crash would not have sent a Fatal either.
        if matches!(e, SimError::Config { message } if message == CHAOS_KILLED) {
            return result;
        }
        let (code, link, attempts) = match e {
            SimError::LinkDown { link, attempts, .. } => (FATAL_LINK_DOWN, *link as u32, *attempts),
            _ => (FATAL_SIM, 0, 0),
        };
        let _ = write_msg(
            &mut stream,
            &Msg::Fatal {
                code,
                link,
                attempts,
                message: format!("{who}: {e}"),
            },
        );
        stream.shutdown();
    }
    result
}

/// The post-handshake service loop plus report/shutdown epilogue.
///
/// When `settings.checkpoint_interval > 0` the loop also speaks the
/// coordinated checkpoint/recovery protocol: stepping is capped at the
/// next cluster barrier, quiescence at a barrier is announced with
/// [`Msg::Barrier`], state is captured on [`Msg::TakeCheckpoint`], and
/// a [`Msg::Rewind`] (a peer died) parks the worker — discarding all
/// data-plane traffic, which is by then stale wire residue from the
/// abandoned timeline — until [`Msg::Resume`], at which point it
/// restores its locally kept blob and replays. Determinism makes the
/// replay bit-exact: the same tokens are re-produced in the same
/// per-channel order, so the rejoined cluster converges on the same
/// `(cycle, state_digest)` trajectory as an undisturbed run.
#[allow(clippy::too_many_lines)]
#[allow(clippy::too_many_arguments)]
fn run_session(
    stream: &mut NetStream,
    peer: &str,
    me: usize,
    who: &str,
    parts: &[usize],
    sim: &mut DistributedSim,
    specs: &[LinkSpec],
    settings: &WireSettings,
    budget: u64,
    options: &WorkerOptions,
    init: Option<(u32, u64, Vec<u8>)>,
) -> Result<SessionEnd> {
    let Endpoints {
        owned,
        mut out_links,
        mut in_links,
        local_links,
    } = Endpoints::new(sim, parts, specs, settings);
    if owned.is_empty() {
        return Err(cfg_err(format!("{who} owns no nodes in this partitioning")));
    }
    let mut timeout_escalations = vec![0u64; specs.len()];
    let saved = sim.deepen_capacities(INITIAL_CREDITS as usize);

    // --- Checkpoint state -----------------------------------------------
    // `committed` is the blob every peer's committed blob was captured
    // with (promoted from `pending` only on CheckpointAck, so survivors
    // never hold a newer rewind point than the coordinator's last
    // *complete* set). Cycle 0 is seeded below so a rewind before the
    // first barrier works through the same path.
    let ckpt_interval = settings.checkpoint_interval;
    let mut epoch = 0u32;
    let mut next_barrier = if ckpt_interval > 0 {
        ckpt_interval
    } else {
        u64::MAX
    };
    let mut barrier_sent = false;
    // Recovery parking. `Draining`: between Rewind and Restore — all
    // arriving data-plane traffic is residue of the abandoned timeline
    // and is discarded. `Restored`: state is rewound but the cluster
    // has not resumed — arriving data-plane traffic is *fresh* (peers
    // that already got their Resume) and is buffered for replay at our
    // own Resume; discarding it would lose flow-control credits, which
    // unlike tokens are never retransmitted.
    let mut park = Park::No;
    let mut parked_buf: VecDeque<Msg> = VecDeque::new();
    let mut pending_ckpt: Option<(u64, Vec<u8>)> = None;
    let mut committed_ckpt: Option<(u64, Vec<u8>)> = None;
    if let Some((e, c, blob)) = init {
        // Respawned worker: adopt the predecessor's checkpoint (or the
        // fresh cycle-0 state when the blob is empty) and park until
        // the cluster-wide Resume.
        epoch = e;
        if !blob.is_empty() {
            restore_state(sim, who, parts, c, &blob, &mut out_links, &mut in_links)?;
            committed_ckpt = Some((c, blob));
        }
        if ckpt_interval > 0 {
            next_barrier = c + ckpt_interval;
        }
        park = Park::Restored;
    }
    if ckpt_interval > 0 && committed_ckpt.is_none() {
        // Nothing has stepped yet: the fresh state *is* the cycle-0
        // checkpoint, and every flow endpoint is at its initial mark.
        committed_ckpt = Some((0, capture_state(sim, parts, 0, &out_links, &in_links)?));
    }

    // Inbound wire: the service loop drains the socket itself (see the
    // module docs on why there is deliberately no reader thread on this
    // path).
    let reader = stream
        .try_clone()
        .map_err(|e| cfg_err(format!("worker socket clone failed: {e}")))?;
    let mut rx =
        RxWire::new(reader).map_err(|e| cfg_err(format!("worker socket setup failed: {e}")))?;
    let mut events: VecDeque<Event> = VecDeque::new();

    // All outbound traffic queues here and is written directly by the
    // service loop (see the module docs on why there is deliberately no
    // writer thread on this path).
    let mut wire = WireBuf::new();

    let io_timeout = Duration::from_millis(settings.io_timeout_ms.max(1));
    let hb_interval = heartbeat_interval(io_timeout);
    let mut last_activity = Instant::now();
    let mut last_heartbeat = Instant::now();
    let mut last_progress_sent = 0u64;
    let mut done_sent = false;
    let mut finishing = false;
    let mut shutdown = false;
    let lost = || cfg_err(format!("{who} send to coordinator failed: connection lost"));

    let min_cycle = |sim: &DistributedSim, owned: &[usize]| {
        owned
            .iter()
            .map(|&n| sim.node_target_cycles(n))
            .min()
            .unwrap_or(0)
    };
    let max_cycle = |sim: &DistributedSim, owned: &[usize]| {
        owned
            .iter()
            .map(|&n| sim.node_target_cycles(n))
            .max()
            .unwrap_or(0)
    };

    let mut reported = false;

    // --- Cockpit state --------------------------------------------------
    // A standing pause fence caps stepping exactly like a checkpoint
    // barrier: `stop` includes it, so every owned node halts *at* the
    // fence cycle — the shared deterministic sampling point — and the
    // PauseAck below fires once per fence when the halt is quiescent.
    // Subscription cursors index into the non-draining observability
    // tails ([`DistributedSim::node_wave_changes_since`]), so streaming never
    // steals anything from the end-of-run report.
    let mut fence: Option<u64> = None;
    let mut fence_acked = false;
    let mut sub_wave = false;
    let mut sub_metrics = false;
    let mut wave_cursor = vec![0usize; owned.len()];
    let mut samp_cursor = vec![0usize; owned.len()];

    // The loop's own counters (with `rx`'s and `wire`'s syscall and
    // byte counts), emitted with the report. Plain counts, not spans: a
    // span per pass would tax the loop it measures.
    let mut passes = 0u64;
    let mut waits = 0u64;
    let mut idle_timeouts = 0u64;

    let outcome: Result<SessionEnd> = 'outer: loop {
        passes += 1;
        // Chaos hooks (fault-injection harness only; all-off defaults).
        let chaos_at = |k: Option<u64>| k.is_some_and(|k| min_cycle(sim, &owned) >= k);
        if chaos_at(options.chaos_kill) {
            if options.chaos_abort {
                std::process::abort();
            }
            // In-process imitation of a crash: drop the socket cold, no
            // Fatal, no Report — the coordinator sees a bare EOF.
            stream.shutdown();
            break 'outer Err(cfg_err(CHAOS_KILLED.to_string()));
        }
        if chaos_at(options.chaos_hang) {
            // Alive but silent: exercises liveness attribution, not
            // failover. The sleep outlives any sane io_timeout.
            std::thread::sleep(Duration::from_secs(3_600));
            break 'outer Err(cfg_err("chaos: hang elapsed".to_string()));
        }

        let mut progress = false;

        // 1. Drain inbound messages.
        rx.drain(&mut events);
        while let Some(ev) = events.pop_front() {
            let msg = match ev {
                Event::Msg(m) => *m,
                // After the report is delivered, the coordinator simply
                // closing the socket is a valid goodbye.
                Event::Closed if reported => break 'outer Ok(SessionEnd::Gone),
                Event::Closed => {
                    break 'outer Err(SimError::PeerDisconnected {
                        peer: peer.to_string(),
                        last_acked_cycle: min_cycle(sim, &owned),
                        report: sim.stall_report(),
                    })
                }
            };
            if park != Park::No && is_data_plane(&msg) {
                match park {
                    // Between Rewind and Restore everything on the data
                    // plane is residue of the abandoned timeline
                    // (per-socket FIFO plus the coordinator collecting
                    // every RewindAck before broadcasting Restore puts
                    // all of it ahead of the Restore on this socket).
                    // Discard without effect — deterministic replay
                    // regenerates every one of these frames — and emit
                    // nothing, so no stale ack or credit can leak into a
                    // peer's restored window.
                    Park::Draining => {}
                    // Between Restore and Resume the data plane is
                    // *fresh*: a peer that already got its Resume is
                    // stepping again. Buffer for replay at our own
                    // Resume; discarding would lose flow-control
                    // credits, which unlike tokens are never resent.
                    Park::Restored => parked_buf.push_back(msg),
                    Park::No => unreachable!(),
                }
                continue;
            }
            match handle_event(msg, sim, &mut out_links, &mut in_links, &mut wire)? {
                Control::Progress => progress = true,
                Control::Finish => finishing = true,
                Control::Shutdown => {
                    shutdown = true;
                    break 'outer Ok(SessionEnd::Shutdown);
                }
                Control::ResetToIdle => {
                    // Acknowledge the wipe before the socket goes; the
                    // coordinator's admission path may be waiting on
                    // it. Per-session protocol state (sequence
                    // counters, deferred acks, credits, staged
                    // batches) dies with this stack frame; the engine
                    // side is wiped by the next session's cached
                    // rewind.
                    wire.queue(&Msg::IdleAck);
                    if wire.flush(stream, &mut rx, &mut events).is_err() {
                        break 'outer Err(lost());
                    }
                    break 'outer Ok(SessionEnd::Idle);
                }
                Control::TakeCheckpoint { epoch: e, cycle } if e == epoch && park == Park::No => {
                    let blob = capture_state(sim, parts, cycle, &out_links, &in_links)?;
                    pending_ckpt = Some((cycle, blob.clone()));
                    wire.queue(&Msg::Checkpoint { epoch, cycle, blob });
                }
                Control::CheckpointAck { epoch: e, cycle } if e == epoch && park == Park::No => {
                    if let Some(p) = pending_ckpt.take() {
                        committed_ckpt = Some(p);
                    }
                    // An on-demand cockpit snapshot also lands here with
                    // periodic checkpointing off — it must not leave a
                    // phantom barrier behind.
                    next_barrier = if ckpt_interval > 0 {
                        cycle + ckpt_interval
                    } else {
                        u64::MAX
                    };
                    barrier_sent = false;
                    progress = true;
                }
                Control::Rewind { epoch: e, cycle } if e > epoch => {
                    // A peer died. Acknowledge and park draining; the
                    // restore itself waits for the coordinator's
                    // Restore (sent only after every survivor's ack, so
                    // all stale traffic is off the wire first). Nothing
                    // must be emitted from the stale state after this
                    // ack; `Park::Draining` enforces that.
                    epoch = e;
                    pending_ckpt = None;
                    park = Park::Draining;
                    parked_buf.clear();
                    wire.queue(&Msg::RewindAck { epoch, cycle });
                }
                Control::Restore {
                    epoch: e,
                    cycle,
                    blob,
                } if e == epoch && park == Park::Draining => {
                    // Mid-run restore order from the coordinator. An
                    // empty blob means "your own committed checkpoint";
                    // a non-empty one replaces it (used when a respawned
                    // worker must adopt its predecessor's state — that
                    // path normally runs pre-session, but stays valid
                    // here).
                    if !blob.is_empty() {
                        committed_ckpt = Some((cycle, blob));
                    }
                    match &committed_ckpt {
                        Some((c, b)) if *c == cycle => {
                            restore_state(
                                sim,
                                who,
                                parts,
                                cycle,
                                b,
                                &mut out_links,
                                &mut in_links,
                            )?;
                        }
                        other => {
                            break 'outer Err(cfg_err(format!(
                                "{who} told to restore cycle {cycle} but its \
                                 committed checkpoint is at {:?}",
                                other.as_ref().map(|(c, _)| *c)
                            )))
                        }
                    }
                    done_sent = false;
                    finishing = false;
                    reported = false;
                    barrier_sent = false;
                    next_barrier = if ckpt_interval > 0 {
                        cycle + ckpt_interval
                    } else {
                        u64::MAX
                    };
                    last_progress_sent = cycle;
                    park = Park::Restored;
                    wire.queue(&Msg::RewindAck { epoch, cycle });
                }
                Control::Resume { epoch: e } if e == epoch && park == Park::Restored => {
                    // The whole cluster is restored; replay whatever
                    // fresh traffic arrived while we were parked, then
                    // step again.
                    while let Some(m) = parked_buf.pop_front() {
                        handle_event(m, sim, &mut out_links, &mut in_links, &mut wire)?;
                    }
                    park = Park::No;
                    progress = true;
                }
                Control::Fence { cycle } => {
                    // `cycle == 0` is the "hold where you are" round of
                    // the pause negotiation: fence at the highest owned
                    // cycle, so no owned node advances past it, and
                    // report that cycle at once. The nodes behind it
                    // need not reach it first: on a worker hosting
                    // several partitions one of them may wait on a peer
                    // that holds lower. The concrete fence that follows,
                    // one past every worker's hold, is the cut all of
                    // them reach exactly. A concrete fence is clamped up
                    // the same way — no owned node can ever sit *past*
                    // its fence.
                    let f = cycle.max(max_cycle(sim, &owned));
                    fence = Some(f);
                    fence_acked = cycle == 0;
                    if fence_acked {
                        wire.queue(&Msg::PauseAck { cycle: f });
                    }
                    progress = true;
                }
                Control::LiftFence => {
                    fence = None;
                    fence_acked = false;
                    progress = true;
                }
                Control::Subscribe { wave, metrics } => {
                    sub_wave = wave;
                    sub_metrics = metrics;
                    progress = true;
                }
                Control::Peek { node, path } => {
                    let n = node as usize;
                    let (cycle, value) = if owned.contains(&n) {
                        (sim.node_target_cycles(n), sim.target(n).peek_path(&path))
                    } else {
                        (0, None)
                    };
                    wire.queue(&Msg::PeekReply {
                        node,
                        path,
                        cycle,
                        value,
                    });
                }
                Control::Poke { node, path, value } => {
                    let n = node as usize;
                    let (cycle, error) = if owned.contains(&n) {
                        let e = sim
                            .poke_node(n, &path, value)
                            .err()
                            .map(|e| e.to_string())
                            .unwrap_or_default();
                        (sim.node_target_cycles(n), e)
                    } else {
                        (0, format!("node {node} is not owned by this worker"))
                    };
                    wire.queue(&Msg::PokeAck {
                        node,
                        path,
                        cycle,
                        error,
                    });
                }
                // Stale-epoch recovery traffic (a Rewind raced our own
                // death report, a Resume for an epoch we never entered):
                // absorb without effect.
                Control::TakeCheckpoint { .. }
                | Control::CheckpointAck { .. }
                | Control::Rewind { .. }
                | Control::Restore { .. }
                | Control::Resume { .. } => {}
                Control::None => {}
            }
        }

        // Parked mid-recovery: keepalive only, until Resume.
        if park != Park::No {
            if last_heartbeat.elapsed() >= hb_interval {
                last_heartbeat = Instant::now();
                wire.queue(&Msg::Progress {
                    cycle: min_cycle(sim, &owned),
                });
            }
            if wire.flush(stream, &mut rx, &mut events).is_err() {
                break 'outer Err(lost());
            }
            waits += 1;
            idle_timeouts += u64::from(rx.wait(hb_interval, &mut events));
            if events.is_empty() {
                if last_activity.elapsed() >= io_timeout {
                    break 'outer Err(SimError::NetTimeout {
                        peer: peer.to_string(),
                        timeout_ms: settings.io_timeout_ms,
                        last_acked_cycle: min_cycle(sim, &owned),
                    });
                }
            } else {
                last_activity = Instant::now();
            }
            continue;
        }

        // Stepping is capped at the next cluster barrier (the whole
        // cluster checkpoints at the same cycle), the budget, or a
        // standing pause fence, whichever is closest.
        let stop = next_barrier.min(budget).min(fence.unwrap_or(u64::MAX));

        // 2. Step owned nodes and move link outputs to quiescence,
        //    accumulating outbound tokens into per-link batches. A batch
        //    ships as soon as its link's credit window is spent; partial
        //    batches ship at quiescence below, so no token is ever held
        //    while the loop has nothing else to do.
        loop {
            let mut pass = false;
            for &n in &owned {
                if let Err(e) = (|| -> Result<()> {
                    while sim.ingest_and_step(n, stop)? {
                        pass = true;
                    }
                    Ok(())
                })() {
                    break 'outer Err(e);
                }
            }
            for &l in &local_links {
                while let Some(payload) = sim.pop_link_output(l) {
                    sim.stage_link_token(l, payload);
                    pass = true;
                }
            }
            for ol in &mut out_links {
                while ol.txl.can_send() {
                    match sim.pop_link_output(ol.link) {
                        Some(payload) => {
                            ol.pending.push(ol.txl.send(payload));
                            pass = true;
                        }
                        None => break,
                    }
                }
                if !ol.txl.can_send() && !ol.pending.is_empty() {
                    // A spent window's batch is queued here and leaves
                    // at the end of this pass: sink workers compute on
                    // it while this loop keeps stepping.
                    let frames = std::mem::take(&mut ol.pending);
                    wire.queue(&token_msg(ol.link, frames));
                }
            }
            // One write carries every batch the pass completed: on a
            // core-starved host each socket write is a receiver wakeup,
            // so shipping per pass rather than per link is what keeps
            // the wakeup count flat in the link count.
            if wire.flush(stream, &mut rx, &mut events).is_err() {
                break 'outer Err(lost());
            }
            if !pass {
                break;
            }
            progress = true;
        }

        // 2b. Quiescent flush: ship every partial batch. From here on
        //     no token is held back in this thread.
        for ol in &mut out_links {
            if ol.pending.is_empty() {
                continue;
            }
            let frames = std::mem::take(&mut ol.pending);
            wire.queue(&token_msg(ol.link, frames));
        }
        if wire.flush(stream, &mut rx, &mut events).is_err() {
            break 'outer Err(lost());
        }

        // 3. Environment bridges.
        for &n in &owned {
            if sim.drain_env_outputs(n) {
                progress = true;
            }
        }

        // 4. Return flow-control credits at the LI-BDN consumption point.
        for (l, rxl) in &mut in_links {
            let s = &specs[*l];
            let due = rxl.credit_due(sim.chan_enqueued(s.to_node, s.to_chan));
            if due > 0 {
                wire.queue(&Msg::Credit {
                    link: *l as u32,
                    amount: due,
                });
            }
        }

        // 5. Progress for coordinator-side stall forensics (cycle
        //    cadence), plus a wall-clock keepalive heartbeat: a worker
        //    that is alive but target-stalled — waiting out a wire
        //    stall, or simply slow — must never fall silent for a whole
        //    io_timeout, or the coordinator declares it dead.
        let cycle = min_cycle(sim, &owned);
        if cycle >= last_progress_sent + PROGRESS_INTERVAL
            || last_heartbeat.elapsed() >= hb_interval
        {
            last_progress_sent = cycle;
            last_heartbeat = Instant::now();
            wire.queue(&Msg::Progress { cycle });
            // Live streams ride the same cadence: whatever the
            // observability tails accumulated since the last delta
            // ships alongside the heartbeat.
            ship_deltas(
                sim,
                &owned,
                sub_wave,
                sub_metrics,
                &mut wave_cursor,
                &mut samp_cursor,
                &mut wire,
            );
        }

        // 6. Done: budget reached everywhere, nothing awaiting ACK
        //    (pending batches were flushed at 2b, and stay in the
        //    go-back-N window until acknowledged). Final stream deltas
        //    ship *before* the Done, so an attached subscriber holds
        //    the complete waveform before the coordinator can begin
        //    teardown (per-socket FIFO end to end).
        if !done_sent
            && owned.iter().all(|&n| sim.node_target_cycles(n) >= budget)
            && out_links.iter().all(|ol| ol.txl.tx.in_flight() == 0)
        {
            done_sent = true;
            ship_deltas(
                sim,
                &owned,
                sub_wave,
                sub_metrics,
                &mut wave_cursor,
                &mut samp_cursor,
                &mut wire,
            );
            wire.queue(&Msg::Done { cycle: budget });
        }

        // 6b. Cluster barrier: every owned node at the checkpoint cycle
        //     and every outbound window empty (so every frame we sent
        //     is already staged at its sink — the cross-worker half of
        //     global quiescence). Announce once and wait; stepping is
        //     already capped at `stop`, and the coordinator answers
        //     with TakeCheckpoint when the whole cluster is here.
        //     (`stop == next_barrier` keeps a pause fence below the
        //     barrier cycle from masquerading as the barrier itself —
        //     a paused cluster announces its checkpoint barrier only
        //     after resuming up to it.)
        if ckpt_interval > 0
            && !barrier_sent
            && stop == next_barrier
            && stop < budget
            && owned.iter().all(|&n| sim.node_target_cycles(n) >= stop)
            && out_links.iter().all(|ol| ol.txl.tx.in_flight() == 0)
        {
            barrier_sent = true;
            wire.queue(&Msg::Barrier { epoch, cycle: stop });
        }

        // 6c. Pause fence reached: every owned node sits exactly at the
        //     fence and nothing is unacknowledged — the same quiescence
        //     condition cluster barriers use, so peeks, pokes and
        //     digests taken while paused are anchored to one exact
        //     target cycle. Stream tails ship first, so an attached
        //     client that pauses then reads sees a fully-reported view.
        if let Some(f) = fence {
            if !fence_acked
                && owned.iter().all(|&n| sim.node_target_cycles(n) >= f)
                && out_links.iter().all(|ol| ol.txl.tx.in_flight() == 0)
            {
                fence_acked = true;
                ship_deltas(
                    sim,
                    &owned,
                    sub_wave,
                    sub_metrics,
                    &mut wave_cursor,
                    &mut samp_cursor,
                    &mut wire,
                );
                wire.queue(&Msg::PauseAck { cycle: f });
            }
        }

        // Everything queued this pass (acks, credits, progress, done)
        // leaves in one write.
        if wire.flush(stream, &mut rx, &mut events).is_err() {
            break 'outer Err(lost());
        }
        if finishing && !reported {
            reported = true;
            obs_counter!("net.worker.passes", 0, passes);
            obs_counter!("net.worker.waits", 0, waits);
            obs_counter!("net.worker.idle_timeouts", 0, idle_timeouts);
            obs_counter!("net.worker.recvs", 0, rx.recvs);
            obs_counter!("net.worker.sends", 0, wire.sends);
            obs_counter!("net.worker.bytes_in", 0, rx.bytes_in);
            obs_counter!("net.worker.bytes_out", 0, wire.bytes_out);
            queue_report(
                sim,
                me,
                &owned,
                &out_links,
                &in_links,
                &local_links,
                &timeout_escalations,
                &mut wire,
            );
            if wire.flush(stream, &mut rx, &mut events).is_err() {
                break 'outer Err(lost());
            }
            // Stay in the loop: a Shutdown ends the session, but a
            // Rewind can still arrive — a peer that died before its own
            // report pulls the whole cluster (us included) back to the
            // last checkpoint for a deterministic replay.
            continue;
        }

        if progress {
            last_activity = Instant::now();
            continue;
        }

        // 7. Quiescent: settle deferred acks and retransmission timers,
        //    then block briefly. Acks delayed during the active streak
        //    ship now — peers gate `Done` on an empty retransmit
        //    window, so an owed ack must not outlive the lull.
        for (l, rxl) in &mut in_links {
            if let Some(ack) = rxl.take_deferred_ack() {
                wire.queue(&Msg::Ack {
                    link: *l as u32,
                    ack,
                });
            }
        }
        for ol in &mut out_links {
            debug_assert!(ol.pending.is_empty(), "quiescent with unflushed batch");
            match ol.txl.tx.on_tick() {
                Ok(frames) => {
                    if !frames.is_empty() {
                        timeout_escalations[ol.link] += 1;
                        wire.queue(&token_msg(ol.link, frames));
                    }
                }
                Err(attempts) => {
                    break 'outer Err(SimError::LinkDown {
                        link: ol.link,
                        attempts,
                        report: sim.stall_report(),
                    });
                }
            }
        }
        if wire.flush(stream, &mut rx, &mut events).is_err() {
            break 'outer Err(lost());
        }
        // While paused at an acknowledged fence there is nothing to
        // step: sleep a heartbeat at a time instead of the short idle
        // poll (the wall-clock keepalives above prevent a NetTimeout in
        // either direction, however long the operator stays attached).
        let idle = if reported {
            io_timeout
        } else if fence_acked {
            hb_interval
        } else {
            IDLE_POLL
        };
        waits += 1;
        idle_timeouts += u64::from(rx.wait(idle, &mut events));
        if events.is_empty() {
            if last_activity.elapsed() >= io_timeout {
                if reported {
                    // Report delivered and the coordinator went silent
                    // for a whole io_timeout: clean exit, like the old
                    // post-report epilogue.
                    break 'outer Ok(SessionEnd::Gone);
                }
                break 'outer Err(SimError::NetTimeout {
                    peer: peer.to_string(),
                    timeout_ms: settings.io_timeout_ms,
                    last_acked_cycle: min_cycle(sim, &owned),
                });
            }
        } else {
            // Handled by the drain at the top of the next pass.
            last_activity = Instant::now();
        }
    };

    sim.restore_capacities(saved);
    let _ = shutdown; // session ends the same way on Shutdown or silence
    let end = outcome?;
    stream.shutdown();
    Ok(end)
}

/// Builds and queues this worker's end-of-run [`Msg::Report`]: protocol
/// totals folded into the engine's link counters first (so the report
/// and any local inspection agree), then per-node counters, drained
/// metric samples and VCD changes, per-link counters, and traces.
#[allow(clippy::too_many_arguments)]
fn queue_report(
    sim: &mut DistributedSim,
    me: usize,
    owned: &[usize],
    out_links: &[OutLink],
    in_links: &[(usize, RxLink)],
    local_links: &[usize],
    timeout_escalations: &[u64],
    wire: &mut WireBuf,
) {
    for ol in out_links {
        let c = sim.link_counters_mut(ol.link);
        c.sent_frames += ol.txl.tx.sent_frames;
        c.retransmits += ol.txl.tx.retransmits;
        c.timeout_escalations += timeout_escalations[ol.link];
    }
    for (l, rxl) in in_links {
        let c = sim.link_counters_mut(*l);
        c.crc_failures += rxl.rx.corrupt_frames;
        c.duplicates_dropped += rxl.rx.duplicate_frames;
    }
    let mut report = WireReport {
        worker: me as u32,
        ..Default::default()
    };
    for &n in owned {
        report.nodes.push(NodeReport {
            node: n as u32,
            counters: sim.node_counters(n),
            samples: sim.take_node_samples(n),
            vcd: sim.take_node_vcd_changes(n),
        });
    }
    for ol in out_links {
        report.links.push(LinkReport {
            link: ol.link as u32,
            tokens: sim.link_tokens(ol.link),
            counters: sim.link_counters_mut(ol.link).clone(),
        });
    }
    for (l, _) in in_links {
        report.links.push(LinkReport {
            link: *l as u32,
            tokens: 0,
            counters: sim.link_counters_mut(*l).clone(),
        });
    }
    for &l in local_links {
        report.links.push(LinkReport {
            link: l as u32,
            tokens: sim.link_tokens(l),
            counters: sim.link_counters_mut(l).clone(),
        });
    }
    trace::flush_thread();
    report.traces = trace::take_events()
        .iter()
        .map(OwnedTraceEvent::from)
        .collect();
    wire.queue(&Msg::Report(Box::new(report)));
}

/// Queues one [`Msg::WaveDelta`]/[`Msg::MetricDelta`] per owned node
/// holding unshipped observability tail, advancing the per-node stream
/// cursors. The tails are cloned, never drained, so the end-of-run
/// [`Msg::Report`] still carries the complete series — a subscriber is
/// an overlay on the run, not a tap that consumes it.
#[allow(clippy::too_many_arguments)]
fn ship_deltas(
    sim: &DistributedSim,
    owned: &[usize],
    sub_wave: bool,
    sub_metrics: bool,
    wave_cursor: &mut [usize],
    samp_cursor: &mut [usize],
    wire: &mut WireBuf,
) {
    for (k, &n) in owned.iter().enumerate() {
        if sub_wave {
            let changes = sim.node_wave_changes_since(n, wave_cursor[k]);
            if !changes.is_empty() {
                wave_cursor[k] += changes.len();
                wire.queue(&Msg::WaveDelta {
                    node: n as u32,
                    changes,
                });
            }
        }
        if sub_metrics {
            let samples = sim.node_samples_since(n, samp_cursor[k]);
            if !samples.is_empty() {
                samp_cursor[k] += samples.len();
                wire.queue(&Msg::MetricDelta {
                    node: n as u32,
                    samples,
                });
            }
        }
    }
}

/// Recovery parking state (see the prologue comment in `run_session`).
#[derive(PartialEq, Eq, Clone, Copy)]
enum Park {
    /// Normal operation.
    No,
    /// Between `Rewind` and `Restore`: arriving data-plane traffic is
    /// residue of the abandoned timeline and is discarded.
    Draining,
    /// Between `Restore` and `Resume`: state is rewound; arriving
    /// data-plane traffic is fresh (from peers already resumed) and is
    /// buffered for replay at our own `Resume`.
    Restored,
}

fn is_data_plane(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::Token { .. }
            | Msg::TokenBatch { .. }
            | Msg::Ack { .. }
            | Msg::Credit { .. }
            | Msg::CorruptToken { .. }
    )
}

enum Control {
    None,
    Progress,
    Finish,
    Shutdown,
    /// Pooled teardown: acknowledge with `IdleAck` and end the session
    /// without exiting the process.
    ResetToIdle,
    /// A concrete pause fence from the coordinator (0 = "hold where
    /// you are", the first round of the pause negotiation).
    Fence {
        cycle: u64,
    },
    /// Lift the standing fence and keep running toward the budget.
    LiftFence,
    /// Toggle the live wave/metric delta streams.
    Subscribe {
        wave: bool,
        metrics: bool,
    },
    /// Read one signal of an owned node.
    Peek {
        node: u32,
        path: String,
    },
    /// Stage a one-cycle input override on an owned node.
    Poke {
        node: u32,
        path: String,
        value: u64,
    },
    TakeCheckpoint {
        epoch: u32,
        cycle: u64,
    },
    CheckpointAck {
        epoch: u32,
        cycle: u64,
    },
    Rewind {
        epoch: u32,
        cycle: u64,
    },
    Restore {
        epoch: u32,
        cycle: u64,
        blob: Vec<u8>,
    },
    Resume {
        epoch: u32,
    },
}

fn handle_event(
    msg: Msg,
    sim: &mut DistributedSim,
    out_links: &mut [OutLink],
    in_links: &mut [(usize, RxLink)],
    wire: &mut WireBuf,
) -> Result<Control> {
    match msg {
        Msg::Token { link, frame } => stage_frames(sim, in_links, wire, link, &[frame]),
        Msg::TokenBatch { link, frames } => stage_frames(sim, in_links, wire, link, &frames),
        Msg::CorruptToken { link } => {
            let l = link as usize;
            if let Some((_, rxl)) = in_links.iter_mut().find(|(i, _)| *i == l) {
                rxl.rx.corrupt_frames += 1;
            }
            Ok(Control::None)
        }
        Msg::Ack { link, ack } => {
            let l = link as usize;
            if let Some(ol) = out_links.iter_mut().find(|ol| ol.link == l) {
                ol.txl.tx.on_ack(ack);
            }
            Ok(Control::Progress)
        }
        Msg::Credit { link, amount } => {
            let l = link as usize;
            if let Some(ol) = out_links.iter_mut().find(|ol| ol.link == l) {
                ol.txl.on_credit(amount);
                debug_assert!(ol.txl.window_intact(), "link {l} credit window inflated");
            }
            Ok(Control::Progress)
        }
        Msg::Finish => Ok(Control::Finish),
        Msg::Shutdown => Ok(Control::Shutdown),
        Msg::ResetToIdle => Ok(Control::ResetToIdle),
        Msg::TakeCheckpoint { epoch, cycle } => Ok(Control::TakeCheckpoint { epoch, cycle }),
        Msg::CheckpointAck { epoch, cycle } => Ok(Control::CheckpointAck { epoch, cycle }),
        Msg::Rewind { epoch, cycle } => Ok(Control::Rewind { epoch, cycle }),
        Msg::Restore { epoch, cycle, blob } => Ok(Control::Restore { epoch, cycle, blob }),
        Msg::Resume { epoch, cycle: _ } => Ok(Control::Resume { epoch }),
        // --- Cockpit control plane -----------------------------------
        Msg::Pause { cycle } => Ok(Control::Fence { cycle }),
        Msg::ResumeRun => Ok(Control::LiftFence),
        Msg::Subscribe { wave, metrics } => Ok(Control::Subscribe { wave, metrics }),
        Msg::Peek { node, path } => Ok(Control::Peek { node, path }),
        Msg::Poke { node, path, value } => Ok(Control::Poke { node, path, value }),
        // Late control messages (e.g. a duplicate Run) and coordinator
        // keepalive heartbeats are absorbed without effect.
        _ => Ok(Control::None),
    }
}

/// Classifies delivered token frames for one link (a single frame or a
/// whole batch), stages in-sequence payloads, and feeds at most one
/// cumulative ack covering everything processed into the link's
/// delayed-ack policy ([`RxLink::ack_policy`]) — per-frame or
/// per-message acks would give back the round trips and scheduler
/// wakeups that batching and write coalescing exist to save.
fn stage_frames(
    sim: &mut DistributedSim,
    in_links: &mut [(usize, RxLink)],
    wire: &mut WireBuf,
    link: u32,
    frames: &[Frame],
) -> Result<Control> {
    let l = link as usize;
    sim.check_link(l)?;
    let Some((_, rxl)) = in_links.iter_mut().find(|(i, _)| *i == l) else {
        // A misrouted token is a protocol bug, not a fault.
        return Err(cfg_err(format!(
            "token for link {l} arrived at a worker that does not own its sink"
        )));
    };
    let mut latest_ack = None;
    let mut delivered = 0u32;
    let mut urgent = false;
    for frame in frames {
        match rxl.rx.on_frame(frame) {
            RxVerdict::Deliver { payload, ack } => {
                sim.stage_link_token(l, payload);
                delivered += 1;
                latest_ack = Some(ack);
            }
            RxVerdict::DuplicateAck { ack } | RxVerdict::Gap { ack } => {
                latest_ack = Some(ack);
                urgent = true;
            }
            RxVerdict::Corrupt => {}
        }
    }
    if let Some(ack) = latest_ack {
        if let Some(ack) = rxl.ack_policy(ack, delivered, urgent) {
            wire.queue(&Msg::Ack { link, ack });
        }
    }
    Ok(if delivered > 0 {
        Control::Progress
    } else {
        Control::None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_interval_quarters_the_silence_budget() {
        assert_eq!(
            heartbeat_interval(Duration::from_millis(400)),
            Duration::from_millis(100)
        );
        assert_eq!(
            heartbeat_interval(Duration::from_secs(2)),
            Duration::from_millis(500)
        );
    }

    #[test]
    fn heartbeat_interval_clamps_sub_millisecond_timeouts_up() {
        // A sub-millisecond io_timeout would quarter to ~0 and turn the
        // keepalive into a busy spin; the floor is 1 ms.
        assert_eq!(
            heartbeat_interval(Duration::from_micros(800)),
            Duration::from_millis(1)
        );
        assert_eq!(heartbeat_interval(Duration::ZERO), Duration::from_millis(1));
    }

    #[test]
    fn heartbeat_interval_caps_very_large_timeouts() {
        // Behind an hour-long io_timeout a worker still heartbeats at
        // least once a second, keeping coordinator-side progress gossip
        // and stall forensics fresh.
        assert_eq!(
            heartbeat_interval(Duration::from_secs(3_600)),
            Duration::from_millis(1_000)
        );
        assert_eq!(
            heartbeat_interval(Duration::from_secs(1 << 40)),
            Duration::from_millis(1_000)
        );
    }
}
