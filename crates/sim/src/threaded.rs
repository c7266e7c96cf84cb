//! The multi-threaded execution backend ([`Backend::Threads`]).
//!
//! The partition threads emitted by FireRipper are placed on a pool of
//! OS worker threads: by default one per available core, and never more
//! than one per partition ([`placement`], which the net backend's
//! workers share). Each worker services a contiguous run of
//! partitions in FireRipper's node order, driving each partition's own
//! LI-BDN; inter-partition links become message channels, whether or not
//! their two ends share a worker. There is no virtual clock and no
//! transport timing — this backend answers "how fast can the host
//! actually push tokens", while the discrete-event backend remains the
//! golden timing model.
//!
//! The pool is sized to cores, not partitions: partition threads that
//! share a core yield to each other on every idle pass, so their time
//! goes to OS context switches (noc6's 4 partitions on 2 cores paid 2.0
//! per target cycle as 4 threads, ≈ 0.002 as 2 workers, and ran 1.4×
//! faster; EXPERIMENTS.md "Threads: one worker per core"). A worker that
//! hosts a run of partitions services them in one pass instead.
//!
//! Correctness rests on the LI-BDN theorem the paper's exact mode is
//! built on: the target-visible cycle sequence of a node depends only on
//! the *values* of its input tokens per target cycle, never on their
//! host-side arrival times. Both backends feed every node the identical
//! token values in the identical per-channel order (links are FIFO
//! channels; environment stimulus is produced per target cycle), and
//! `run` halts every node at exactly the same target cycle, so the
//! final target register state is bit-for-bit identical to a DES run of
//! the same budget regardless of OS scheduling.
//!
//! When the reliability layer is configured (see
//! `SimBuilder::fault_spec` / `SimBuilder::retry_policy`), this backend
//! runs the real protocol live over its channels: every token is sealed
//! into a sequenced, CRC'd [`Frame`]; the link's deterministic
//! [`FaultPlan`] is applied at each physical transmission (drops,
//! bit-flips, duplicates, stalls, down windows); receivers deliver
//! strictly in order and return cumulative ACKs over a reverse channel;
//! senders retransmit go-back-N on timeout and escalate to
//! [`SimError::LinkDown`] when the retry budget runs out. A timeout is
//! counted in sender passes during which the *receiver's* worker also
//! completed a pass (`Shared::passes`), so a descheduled receiver never
//! looks like a lost frame. Because the protocol delivers exactly the
//! sent token sequence in per-channel order no matter what the fault plan
//! does, the LI-BDN theorem still applies and fault-injected runs remain
//! bit-identical to fault-free ones.
//!
//! At the end of every run the channel endpoints are *reconciled*:
//! frames still in flight — in a channel, held back by a stall, or
//! sitting unacknowledged in a retransmit buffer — are drained through
//! the receive protocol into the consuming node's staging buffers, so a
//! subsequent run (e.g. the next checkpoint chunk of
//! `DistributedSim::run_target_cycles_recovering`) observes exactly the
//! state a single longer run would have.

use crate::engine::{Backend, DistributedSim, NodeRt, SimMetrics};
use crate::error::{Result, SimError, StallReport};
use crate::placement::{available_cores, placement};
use fireaxe_transport::fault::{Fault, FaultEvent, FaultPlan};
use fireaxe_transport::reliable::{corrupt, Frame, RetryPolicy, RxState, RxVerdict, TxState};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Mutex};

// Keep the compile-time dependency explicit even though `Backend` is only
// referenced in docs here.
const _: Backend = Backend::Des;

/// Spin iterations between checks of the global progress counter.
const SPIN_CHECK_INTERVAL: u64 = 1 << 10;
/// Consecutive stale progress checks before a worker votes that the
/// system is deadlocked (see [`StuckVotes`]).
const STUCK_CHECKS_BEFORE_DEADLOCK: u64 = 1 << 8;
/// Minimum host queue depth while the threaded backend runs. The DES
/// backend keeps queues FPGA-shallow because depth shapes virtual-time
/// backpressure; here there is no virtual clock, and the LI-BDN theorem
/// makes buffering depth invisible to target state — so deeper queues
/// just let partitions run further ahead before a thread starves and
/// the OS has to switch. The configured depth is restored after the
/// run so later DES-only calls on the same sim are unaffected.
const RUNAHEAD_CAPACITY: usize = 64;
/// Go-back-N send window: a sender stops accepting fresh tokens for a
/// link once this many frames are unacknowledged, bounding retransmit
/// bursts.
const RELIABLE_WINDOW: usize = 64;

/// Sender endpoint of one link, owned by the producing node's worker.
struct TxEp {
    /// Output channel index on the producing node.
    chan: usize,
    /// Link index.
    li: usize,
    sender: Sender<Frame>,
    /// Reverse ACK channel (reliability on only).
    ack_rx: Option<Receiver<u64>>,
    /// Protocol state; `None` runs the raw lossless channel.
    state: Option<TxState>,
    /// Deterministic fault schedule (set iff reliability is on).
    plan: Option<FaultPlan>,
    /// Lifetime physical-transmission counter, carried across runs via
    /// `LinkRt::fault_attempts`.
    fault_attempts: u64,
    /// Fresh tokens accepted for transmission (link metric).
    tokens: u64,
    /// Faults injected by this endpoint, merged into the sim's forensics
    /// window after the run.
    events: Vec<FaultEvent>,
    /// Worker hosting the link's receiver: the retransmit clock only
    /// advances while it runs.
    peer_worker: usize,
    /// [`Shared::passes`] of `peer_worker` at the last clock advance.
    peer_passes: u64,
}

impl TxEp {
    /// One physical transmission of `frame`, with the link's fault plan
    /// applied: drops and down windows lose the frame, corruption flips a
    /// payload bit (the CRC stays stale so the receiver rejects it),
    /// duplication sends two copies, a stall tags the frame with a
    /// receiver-side hold time.
    fn physical_send(&mut self, frame: &Frame) {
        let fault = match &self.plan {
            Some(plan) => {
                let attempt = self.fault_attempts;
                self.fault_attempts += 1;
                let fault = plan.fault_at(attempt);
                if let Some(f) = fault {
                    self.events.push(FaultEvent {
                        link: self.li,
                        attempt,
                        seq: frame.seq,
                        fault: f,
                    });
                }
                fault
            }
            None => None,
        };
        // A send can only fail once every receiver endpoint has been
        // collected after the workers join; sends during the run always
        // succeed, and reconciliation recovers anything unacknowledged.
        match fault {
            Some(Fault::Drop) | Some(Fault::Down) => {}
            Some(Fault::Corrupt { bit }) => {
                let mut bad = frame.clone();
                bad.payload = corrupt(&bad.payload, bit);
                let _ = self.sender.send(bad);
            }
            Some(Fault::Duplicate) => {
                let _ = self.sender.send(frame.clone());
                let _ = self.sender.send(frame.clone());
            }
            Some(Fault::Stall { quanta }) => {
                let mut slow = frame.clone();
                slow.delay_quanta = quanta;
                let _ = self.sender.send(slow);
            }
            None => {
                let _ = self.sender.send(frame.clone());
            }
        }
    }
}

/// Receiver endpoint of one link, owned by the consuming node's worker.
struct RxEp {
    /// Input channel index on the consuming node.
    chan: usize,
    /// Link index.
    li: usize,
    receiver: Receiver<Frame>,
    /// Reverse ACK channel (reliability on only).
    ack_tx: Option<Sender<u64>>,
    /// Protocol state; `None` runs the raw lossless channel.
    state: Option<RxState>,
    /// In-order delay line modeling transient stalls: `(remaining service
    /// passes, frame)`; only the head counts down (head-of-line
    /// blocking, like the real in-order wire).
    delayed: VecDeque<(u64, Frame)>,
}

/// One node owned by a worker, with its channel endpoints.
struct WorkerNode<'a> {
    node: &'a mut NodeRt,
    rx: Vec<RxEp>,
    tx: Vec<TxEp>,
    /// Whether this node's budget completion has been added to
    /// `Shared::nodes_done` (counted exactly once).
    done_counted: bool,
}

/// Endpoint state a worker hands back for post-run reconciliation.
struct NodeEndpoints {
    tx: Vec<TxEp>,
    rx: Vec<RxEp>,
}

/// Deadlock is declared by consensus, never by one worker's clock: the
/// idle budget counts passes, not time, so a worker on a busy core can
/// spend all of it before a peer has been scheduled once. A worker that
/// exhausts the budget votes and keeps yielding; the run aborts when
/// every running worker has voted at the same progress epoch. A vote is
/// void the moment anyone progresses (the epoch moves), and a thread
/// that has not run has not voted — so neither start-up nor a
/// descheduled peer with work pending can be mistaken for a deadlock.
#[derive(Default)]
struct StuckVotes {
    /// Value of [`Shared::progress`] the votes were cast at.
    epoch: u64,
    /// Workers that spent a whole idle budget at `epoch`.
    workers: u64,
}

/// One worker's pass counter, on its own cache line: every worker bumps
/// its own once a pass, and must not evict its neighbours' to do so.
#[repr(align(64))]
#[derive(Default)]
struct PassCount(AtomicU64);

/// Shared coordination state for one threaded run.
struct Shared {
    /// Bumped on any node progress; workers watch it to tell "the system
    /// is busy elsewhere" apart from "nothing can move". Release on the
    /// bump pairs with Acquire on the checks: a worker that votes at an
    /// epoch has serviced its nodes after everything sent before it.
    progress: AtomicU64,
    /// Workers still in their service loop (not yet returned at budget).
    running: AtomicU64,
    stuck: Mutex<StuckVotes>,
    /// Nodes (across all workers) that have reached the budget. With the
    /// reliability protocol on, a worker whose own nodes are done must
    /// keep pumping ACKs and retransmissions until this reaches the node
    /// count — exiting early would strand frames a peer is waiting for.
    nodes_done: AtomicU64,
    /// Set on deadlock or error; all workers drain out.
    abort: AtomicBool,
    /// First error raised by any worker.
    error: Mutex<Option<SimError>>,
    /// Service passes completed per worker, bumped (Release) at the end
    /// of each pass over its pool. A sender's retransmit clock ticks only
    /// when its receiver's count has moved (Acquire, so the ACKs that
    /// pass sent are visible first): timeouts measure the peer's turns,
    /// not the sender's, and a descheduled receiver cannot make a frame
    /// look lost.
    passes: Vec<PassCount>,
}

impl Shared {
    fn votes(&self) -> std::sync::MutexGuard<'_, StuckVotes> {
        self.stuck
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Casts (`cast`) or re-checks the calling worker's vote that nothing
    /// has moved since progress epoch `epoch`; `true` once every running
    /// worker has voted at that epoch.
    fn vote_stuck(&self, epoch: u64, cast: bool) -> bool {
        let mut votes = self.votes();
        if votes.epoch < epoch {
            *votes = StuckVotes { epoch, workers: 0 };
        }
        // A newer epoch on the ballot means progress this worker has yet
        // to observe: its vote is already void.
        if votes.epoch > epoch {
            return false;
        }
        votes.workers += u64::from(cast);
        votes.workers >= self.running.load(Ordering::Acquire)
    }

    /// Test gate: parks the caller until worker `worker` has completed
    /// `passes` service passes (or the run aborts).
    #[cfg(test)]
    fn wait_for_passes(&self, worker: usize, passes: u64) {
        while !self.abort.load(Ordering::Relaxed)
            && self.passes[worker].0.load(Ordering::Acquire) < passes
        {
            std::thread::yield_now();
        }
    }

    /// Test gate: parks the caller until every *other* running worker
    /// has voted stuck at the current epoch — the state in which the old
    /// one-worker detector had already aborted the run.
    #[cfg(test)]
    fn wait_until_peers_voted_stuck(&self) {
        while !self.abort.load(Ordering::Relaxed) {
            {
                let votes = self.votes();
                if votes.epoch == self.progress.load(Ordering::Acquire)
                    && votes.workers + 1 >= self.running.load(Ordering::Acquire)
                {
                    return;
                }
            }
            std::thread::yield_now();
        }
    }
}

/// Runs `sim` until every node has completed exactly `budget` target
/// cycles on a pool of OS worker threads sized and filled by
/// [`placement`] (`workers` = 0: one per available core).
///
/// # Errors
///
/// [`SimError::Deadlock`] when every worker agrees no node can make
/// progress; [`SimError::LinkDown`] when the reliability layer exhausts
/// a link's retry budget.
pub(crate) fn run(sim: &mut DistributedSim, budget: u64, workers: usize) -> Result<SimMetrics> {
    let n_nodes = sim.nodes.len();
    if n_nodes == 0 {
        // Same typed error the DES backend raises from `step_one_edge`.
        return Err(SimError::Config {
            message: "cannot step: the design has no partitions".into(),
        });
    }
    let policy = sim.reliability.as_ref().map(|r| r.policy);
    let worker_of = placement(n_nodes, workers, available_cores());
    let n_workers = worker_of[n_nodes - 1] + 1;

    // One FIFO data channel per link (plus a reverse ACK channel when the
    // reliability protocol is on). The sender endpoint lives with the
    // producing node's worker, the receiver with the consuming node's.
    let mut rx_lists: Vec<Vec<RxEp>> = (0..n_nodes).map(|_| Vec::new()).collect();
    let mut tx_lists: Vec<Vec<TxEp>> = (0..n_nodes).map(|_| Vec::new()).collect();
    for (li, link) in sim.links.iter().enumerate() {
        let (data_tx, data_rx) = mpsc::channel::<Frame>();
        let (ack_tx, ack_rx) = mpsc::channel::<u64>();
        tx_lists[link.spec.from_node].push(TxEp {
            chan: link.spec.from_chan,
            li,
            sender: data_tx,
            ack_rx: policy.map(|_| ack_rx),
            state: policy.map(TxState::new),
            plan: link.plan.clone(),
            fault_attempts: link.fault_attempts,
            tokens: 0,
            events: Vec::new(),
            peer_worker: worker_of[link.spec.to_node],
            peer_passes: 0,
        });
        rx_lists[link.spec.to_node].push(RxEp {
            chan: link.spec.to_chan,
            li,
            receiver: data_rx,
            ack_tx: policy.map(|_| ack_tx),
            state: policy.map(|_| RxState::new()),
            delayed: VecDeque::new(),
        });
    }

    let shared = Shared {
        progress: AtomicU64::new(0),
        running: AtomicU64::new(n_workers as u64),
        stuck: Mutex::new(StuckVotes::default()),
        nodes_done: AtomicU64::new(0),
        abort: AtomicBool::new(false),
        error: Mutex::new(None),
        passes: (0..n_workers).map(|_| PassCount::default()).collect(),
    };
    let n_links = sim.links.len();

    // Deepen host queues for runahead (see [`RUNAHEAD_CAPACITY`]).
    let saved_capacity = sim.deepen_capacities(RUNAHEAD_CAPACITY);

    // Each worker hosts its contiguous run of nodes.
    let mut pools: Vec<Vec<WorkerNode<'_>>> = (0..n_workers).map(|_| Vec::new()).collect();
    for (ni, node) in sim.nodes.iter_mut().enumerate() {
        let mut rx = std::mem::take(&mut rx_lists[ni]);
        let mut tx = std::mem::take(&mut tx_lists[ni]);
        // Deterministic endpoint order (not required for correctness —
        // tokens are ordered per channel — but keeps behavior easy to
        // reason about).
        rx.sort_by_key(|ep| (ep.chan, ep.li));
        tx.sort_by_key(|ep| (ep.chan, ep.li));
        pools[worker_of[ni]].push(WorkerNode {
            node,
            rx,
            tx,
            done_counted: false,
        });
    }

    let horizon = sim.deadlock_horizon_edges;
    #[cfg(test)]
    let mut hold_next_worker = tests::HOLD_FIRST_WORKER.with(std::cell::Cell::get);
    // (parked worker, worker whose passes it waits for, pass count)
    #[cfg(test)]
    let park = tests::PARK_LINK_RECEIVER
        .with(std::cell::Cell::get)
        .map(|(li, passes)| {
            let spec = &sim.links[li].spec;
            (worker_of[spec.to_node], worker_of[spec.from_node], passes)
        });
    let endpoints = std::thread::scope(|scope| {
        let handles: Vec<_> = pools
            .into_iter()
            .enumerate()
            .map(|(w, pool)| {
                let shared = &shared;
                #[cfg(test)]
                let hold = std::mem::take(&mut hold_next_worker);
                scope.spawn(move || {
                    #[cfg(test)]
                    if hold {
                        shared.wait_until_peers_voted_stuck();
                    }
                    #[cfg(test)]
                    if let Some((_, sender, passes)) = park.filter(|p| p.0 == w) {
                        shared.wait_for_passes(sender, passes);
                    }
                    let endpoints = worker_loop(w, pool, budget, shared, horizon, policy, n_nodes);
                    // The scope's implicit join does not wait for this
                    // thread's TLS destructors, so the ring's drop-flush
                    // can come too late for the caller's `take_events`.
                    fireaxe_obs::trace::flush_thread();
                    endpoints
                })
            })
            .collect();
        let mut all: Vec<NodeEndpoints> = Vec::with_capacity(n_nodes);
        for handle in handles {
            all.extend(handle.join().expect("worker thread panicked"));
        }
        all
    });

    sim.restore_capacities(saved_capacity);

    reconcile(sim, endpoints, n_links);

    // No virtual clock to sample against: report end-of-run link totals
    // as a single sample so the metric series still carries reliability
    // activity under this backend.
    if sim.obs_interval > 0 {
        for li in 0..n_links {
            let l = &sim.links[li];
            sim.link_samples[li].push(fireaxe_obs::LinkSample {
                cycle: budget,
                time_ps: 0,
                tokens: l.tokens,
                sent_frames: l.counters.sent_frames,
                retransmits: l.counters.retransmits,
                crc_failures: l.counters.crc_failures,
                duplicates_dropped: l.counters.duplicates_dropped,
                delivery_delay_ps: l.counters.delivery_delay_ps,
                in_flight: 0,
            });
        }
    }

    if let Some(err) = shared
        .error
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        // Workers can't see the whole system; attach the real forensics
        // now that node and link state is back in one place.
        return Err(match err {
            SimError::LinkDown { link, attempts, .. } => SimError::LinkDown {
                link,
                attempts,
                report: sim.stall_report(),
            },
            other => other,
        });
    }
    if shared.abort.load(Ordering::Relaxed) {
        return Err(SimError::Deadlock {
            report: sim.stall_report(),
        });
    }
    Ok(sim.metrics())
}

/// Folds the workers' endpoint state back into the simulation: link
/// metrics and fault-plan counters, the fault forensics window, and —
/// crucially — every token still in flight. In-channel frames, stalled
/// frames, and unacknowledged retransmit-buffer frames are drained
/// through the receive protocol (which dedupes and drops corrupt copies)
/// into the consuming node's staging buffers, so no sent token is ever
/// lost between runs.
fn reconcile(sim: &mut DistributedSim, endpoints: Vec<NodeEndpoints>, n_links: usize) {
    let mut tx_by_link: Vec<Option<TxEp>> = (0..n_links).map(|_| None).collect();
    let mut rx_by_link: Vec<Option<RxEp>> = (0..n_links).map(|_| None).collect();
    for ne in endpoints {
        for ep in ne.tx {
            let li = ep.li;
            tx_by_link[li] = Some(ep);
        }
        for ep in ne.rx {
            let li = ep.li;
            rx_by_link[li] = Some(ep);
        }
    }
    for li in 0..n_links {
        let mut tx_ep = tx_by_link[li].take().expect("every link has a sender");
        let mut rx_ep = rx_by_link[li].take().expect("every link has a receiver");
        let to = sim.links[li].spec.to_node;
        let chan = sim.links[li].spec.to_chan;
        // Fold the live protocol's reliability counters into the link.
        {
            let c = &mut sim.links[li].counters;
            match tx_ep.state.as_ref() {
                Some(tx_state) => {
                    c.sent_frames += tx_state.sent_frames;
                    // Every physical transmission beyond the fresh sends
                    // was a go-back-N retransmission.
                    c.retransmits += tx_state.sent_frames.saturating_sub(tx_ep.tokens);
                    c.timeout_escalations += tx_state.retransmits;
                }
                None => c.sent_frames += tx_ep.tokens,
            }
            if let Some(rx_state) = rx_ep.state.as_ref() {
                c.crc_failures += rx_state.corrupt_frames;
                c.duplicates_dropped += rx_state.duplicate_frames;
            }
        }
        match rx_ep.state.as_mut() {
            Some(state) => {
                let staged = &mut sim.nodes[to].staged[chan];
                let mut deliver = |state: &mut RxState, frame: &Frame| {
                    if let RxVerdict::Deliver { payload, .. } = state.on_frame(frame) {
                        staged.push_back(payload);
                    }
                };
                for (_, frame) in rx_ep.delayed.drain(..) {
                    deliver(state, &frame);
                }
                while let Ok(frame) = rx_ep.receiver.try_recv() {
                    deliver(state, &frame);
                }
                // Sent-but-unacked frames the wire lost: the retransmit
                // buffer still holds the originals, in sequence order, so
                // feeding them through the same protocol delivers exactly
                // the missing suffix.
                if let Some(tx_state) = tx_ep.state.as_mut() {
                    for frame in tx_state.take_unacked() {
                        deliver(state, &frame);
                    }
                }
            }
            None => {
                while let Ok(frame) = rx_ep.receiver.try_recv() {
                    sim.nodes[to].staged[chan].push_back(frame.payload);
                }
            }
        }
        sim.links[li].tokens += tx_ep.tokens;
        sim.links[li].fault_attempts = tx_ep.fault_attempts;
        sim.log_faults(tx_ep.events);
    }
}

/// Services the worker's node pool until every node reaches the budget,
/// an error/deadlock aborts the run, or nothing moves for long enough.
/// Returns the pool's endpoint state for reconciliation.
fn worker_loop(
    worker: usize,
    mut pool: Vec<WorkerNode<'_>>,
    budget: u64,
    shared: &Shared,
    horizon: u64,
    policy: Option<RetryPolicy>,
    total_nodes: usize,
) -> Vec<NodeEndpoints> {
    let _span = fireaxe_obs::obs_span!("worker");
    let mut spins: u64 = 0;
    let mut stuck_checks: u64 = 0;
    let mut voted = false;
    let mut last_progress = shared.progress.load(Ordering::Acquire);
    // Scale the stale-check count with the configured DES horizon so
    // `SimBuilder::deadlock_horizon` tightens both backends.
    let max_stuck = STUCK_CHECKS_BEFORE_DEADLOCK
        .min(horizon / SPIN_CHECK_INTERVAL + 2)
        .max(2);

    loop {
        if shared.abort.load(Ordering::Relaxed) {
            return into_endpoints(pool);
        }
        let mut all_done = true;
        let mut progressed = false;
        for wn in &mut pool {
            // A node at the budget takes no more host cycles, but with
            // the reliability protocol on it must keep pumping ACKs and
            // retransmissions: a peer below budget may still be waiting
            // on a frame this node's endpoints owe it.
            let outcome = if wn.node.libdn.target_cycle() >= budget {
                if policy.is_some() {
                    pump_protocol(wn, &shared.passes)
                } else {
                    Ok(false)
                }
            } else {
                service(wn, budget, &shared.passes)
            };
            match outcome {
                Ok(p) => progressed |= p,
                Err(e) => {
                    let mut slot = shared
                        .error
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot.get_or_insert(e);
                    shared.abort.store(true, Ordering::Relaxed);
                    return into_endpoints(pool);
                }
            }
            let done = wn.node.libdn.target_cycle() >= budget;
            if done && !wn.done_counted {
                wn.done_counted = true;
                shared.nodes_done.fetch_add(1, Ordering::Relaxed);
            }
            all_done &= done;
        }
        shared.passes[worker].0.fetch_add(1, Ordering::Release);
        if all_done {
            // With the protocol on, this worker's endpoints may still owe
            // peers ACKs or retransmissions: keep pumping until every
            // node in the system is done (reconciliation then recovers
            // anything left unacknowledged).
            let system_done = policy.is_none()
                || shared.nodes_done.load(Ordering::Relaxed) as usize == total_nodes;
            if system_done {
                shared.running.fetch_sub(1, Ordering::Release);
                return into_endpoints(pool);
            }
        }
        if progressed {
            shared.progress.fetch_add(1, Ordering::Release);
            spins = 0;
            stuck_checks = 0;
            voted = false;
            continue;
        }
        spins += 1;
        if spins.is_multiple_of(SPIN_CHECK_INTERVAL) {
            let now = shared.progress.load(Ordering::Acquire);
            if now == last_progress {
                stuck_checks += 1;
                if stuck_checks >= max_stuck {
                    // Nothing moved anywhere across this worker's whole
                    // budget: vote once, then keep yielding and watching
                    // for the other votes (or for progress to void ours).
                    if shared.vote_stuck(now, !voted) {
                        shared.abort.store(true, Ordering::Relaxed);
                        return into_endpoints(pool);
                    }
                    voted = true;
                }
            } else {
                last_progress = now;
                stuck_checks = 0;
                voted = false;
            }
        }
        std::thread::yield_now();
    }
}

/// Strips the node borrows off a worker pool, keeping the owned endpoint
/// state for reconciliation.
fn into_endpoints(pool: Vec<WorkerNode<'_>>) -> Vec<NodeEndpoints> {
    pool.into_iter()
        .map(|wn| NodeEndpoints {
            tx: wn.tx,
            rx: wn.rx,
        })
        .collect()
}

/// Drains pending cumulative ACKs into the sender protocol state.
fn drain_acks(ep: &mut TxEp) {
    if let (Some(state), Some(ack_rx)) = (ep.state.as_mut(), ep.ack_rx.as_ref()) {
        while let Ok(ack) = ack_rx.try_recv() {
            state.on_ack(ack);
        }
    }
}

/// Advances the sender's timeout clock one tick if the receiver's worker
/// has completed a pass since the last tick; on expiry, physically
/// retransmits the go-back-N set. The peer's count is read before the ACK
/// channel is drained, so a tick never counts a peer pass whose ACKs have
/// not been absorbed.
///
/// # Errors
///
/// [`SimError::LinkDown`] when the oldest unacked frame has exhausted its
/// retry budget (the run-level code attaches real forensics).
fn tick_timeouts(ep: &mut TxEp, passes: &[PassCount]) -> Result<bool> {
    if ep.state.is_none() {
        return Ok(false);
    }
    let peer = passes[ep.peer_worker].0.load(Ordering::Acquire);
    drain_acks(ep);
    if peer == ep.peer_passes {
        return Ok(false);
    }
    ep.peer_passes = peer;
    let state = ep.state.as_mut().expect("checked above");
    let frames = state.on_tick().map_err(|attempts| SimError::LinkDown {
        link: ep.li,
        attempts,
        report: StallReport::default(),
    })?;
    let retransmitted = !frames.is_empty();
    for frame in &frames {
        ep.physical_send(frame);
    }
    Ok(retransmitted)
}

/// Drains one receiver endpoint: new frames enter the in-order delay
/// line; the head counts down its stall hold (one pass per call); ready
/// frames run through the receive protocol, which delivers in-sequence
/// payloads to the node's staging buffer and returns cumulative ACKs.
fn process_rx(ep: &mut RxEp, staged: &mut [VecDeque<fireaxe_ir::Bits>]) -> bool {
    match ep.state.as_mut() {
        None => {
            let mut progressed = false;
            while let Ok(frame) = ep.receiver.try_recv() {
                staged[ep.chan].push_back(frame.payload);
                progressed = true;
            }
            progressed
        }
        Some(state) => {
            while let Ok(frame) = ep.receiver.try_recv() {
                let hold = u64::from(frame.delay_quanta);
                ep.delayed.push_back((hold, frame));
            }
            let mut progressed = false;
            loop {
                match ep.delayed.front_mut() {
                    None => break,
                    Some((hold, _)) if *hold > 0 => {
                        *hold -= 1;
                        break;
                    }
                    Some(_) => {
                        let (_, frame) = ep.delayed.pop_front().expect("nonempty");
                        match state.on_frame(&frame) {
                            RxVerdict::Deliver { payload, ack } => {
                                staged[ep.chan].push_back(payload);
                                if let Some(ack_tx) = &ep.ack_tx {
                                    let _ = ack_tx.send(ack);
                                }
                                progressed = true;
                            }
                            RxVerdict::DuplicateAck { ack } | RxVerdict::Gap { ack } => {
                                if let Some(ack_tx) = &ep.ack_tx {
                                    let _ = ack_tx.send(ack);
                                }
                            }
                            RxVerdict::Corrupt => {}
                        }
                    }
                }
            }
            progressed
        }
    }
}

/// Protocol maintenance for a node that has already reached the budget:
/// receive (and ACK) peers' frames, process ACKs, retransmit on timeout.
/// No host cycles are taken.
fn pump_protocol(wn: &mut WorkerNode<'_>, passes: &[PassCount]) -> Result<bool> {
    let mut progressed = false;
    for ep in &mut wn.rx {
        progressed |= process_rx(ep, &mut wn.node.staged);
    }
    for ep in &mut wn.tx {
        progressed |= tick_timeouts(ep, passes)?;
    }
    Ok(progressed)
}

/// One service pass over a node: drain incoming channels into the
/// staging buffers, then repeat ingest → host step → drain outputs for
/// as long as the node makes progress, then advance the retransmission
/// timers once. Unlike the DES backend — which must take exactly one
/// host cycle per virtual clock edge — the threaded backend has no
/// virtual clock, so batching host steps per pass is free and amortizes
/// the channel/atomic traffic.
fn service(wn: &mut WorkerNode<'_>, budget: u64, passes: &[PassCount]) -> Result<bool> {
    let mut progressed = false;
    for ep in &mut wn.rx {
        progressed |= process_rx(ep, &mut wn.node.staged);
    }

    loop {
        let mut pass = wn.node.ingest_and_step(Some(budget))?;

        for ep in &mut wn.tx {
            drain_acks(ep);
            loop {
                // Go-back-N window: stop accepting fresh tokens while too
                // many frames are unacknowledged.
                if ep
                    .state
                    .as_ref()
                    .is_some_and(|s| s.in_flight() >= RELIABLE_WINDOW)
                {
                    break;
                }
                let Some(token) = wn.node.libdn.pop_output(ep.chan) else {
                    break;
                };
                wn.node.counters.tokens_dequeued += 1;
                ep.tokens += 1;
                let frame = match ep.state.as_mut() {
                    Some(state) => state.send(token),
                    None => Frame {
                        seq: 0,
                        crc: 0,
                        delay_quanta: 0,
                        payload: token,
                    },
                };
                ep.physical_send(&frame);
                pass = true;
            }
        }

        pass |= wn.node.drain_env_outputs();
        progressed |= pass;
        if !pass || wn.node.libdn.target_cycle() >= budget {
            break;
        }
    }

    for ep in &mut wn.tx {
        progressed |= tick_timeouts(ep, passes)?;
    }
    Ok(progressed)
}

#[cfg(test)]
mod tests {
    use crate::bridge::ScriptBridge;
    use crate::engine::{Backend, SimBuilder, SimMetrics};
    use crate::error::SimError;
    use fireaxe_ir::build::ModuleBuilder;
    use fireaxe_ir::{Bits, Circuit};
    use fireaxe_ripper::{compile, ChannelPolicy, PartitionGroup, PartitionMode, PartitionSpec};
    use fireaxe_transport::fault::FaultSpec;
    use fireaxe_transport::reliable::RetryPolicy;
    use fireaxe_transport::LinkModel;

    thread_local! {
        /// Set by a test — on its own thread, so tests running in
        /// parallel are unaffected — to park the first-spawned worker of
        /// the runs it starts until every other worker has voted stuck.
        pub(super) static HOLD_FIRST_WORKER: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };

        /// Set by a test, like [`HOLD_FIRST_WORKER`], to `(link, n)`: the
        /// worker hosting the link's receiver is parked until the worker
        /// hosting its sender has completed `n` service passes.
        pub(super) static PARK_LINK_RECEIVER: std::cell::Cell<Option<(usize, u64)>> =
            const { std::cell::Cell::new(None) };
    }

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

    fn spec(mode: PartitionMode) -> PartitionSpec {
        PartitionSpec {
            mode,
            channel_policy: ChannelPolicy::Separated,
            groups: vec![PartitionGroup::instances("tile", vec!["tile0".into()])],
        }
    }

    fn trace(backend: Backend, mode: PartitionMode, cycles: u64) -> (Vec<(u64, u64)>, u64) {
        let (t, metrics) = trace_on(backend, mode, cycles, |b| b);
        (t, metrics.target_cycles)
    }

    /// The `soc()` cut's output trace and metrics after `cycles`, on a sim
    /// built by `backend` plus whatever `configure` adds.
    fn trace_on(
        backend: Backend,
        mode: PartitionMode,
        cycles: u64,
        configure: impl FnOnce(SimBuilder<'_>) -> SimBuilder<'_>,
    ) -> (Vec<(u64, u64)>, SimMetrics) {
        let c = soc();
        let design = compile(&c, &spec(mode)).unwrap();
        let rest = design.node_index(1, 0);
        let bridge = ScriptBridge::new(|cycle| {
            let mut m = std::collections::BTreeMap::new();
            m.insert("i".to_string(), Bits::from_u64(cycle % 251, 8));
            m
        })
        .recording();
        let builder = SimBuilder::new(&design)
            .backend(backend)
            .bridge(rest, Box::new(bridge));
        let mut sim = configure(builder).build().unwrap();
        let metrics = sim.run_target_cycles(cycles).unwrap();
        let b = sim
            .bridge_mut(rest)
            .as_any()
            .downcast_mut::<ScriptBridge>()
            .unwrap();
        let mut t: Vec<(u64, u64)> = b
            .log()
            .iter()
            .filter_map(|r| r.values.get("o").map(|v| (r.cycle, v.to_u64())))
            .collect();
        t.sort_unstable();
        (t, metrics)
    }

    #[test]
    fn threads_match_des_bit_for_bit_exact_mode() {
        let (des, des_cycles) = trace(Backend::Des, PartitionMode::Exact, 60);
        let (thr, thr_cycles) = trace(Backend::Threads(0), PartitionMode::Exact, 60);
        assert_eq!(des_cycles, thr_cycles);
        assert_eq!(des, thr, "threaded backend must be bit-exact vs DES");
    }

    #[test]
    fn threads_match_des_bit_for_bit_fast_mode() {
        let (des, _) = trace(Backend::Des, PartitionMode::Fast, 60);
        let (thr, _) = trace(Backend::Threads(0), PartitionMode::Fast, 60);
        assert_eq!(des, thr, "seeded links must behave identically");
    }

    #[test]
    fn worker_cap_smaller_than_node_count_still_exact() {
        let (des, _) = trace(Backend::Des, PartitionMode::Exact, 40);
        let (thr, _) = trace(Backend::Threads(1), PartitionMode::Exact, 40);
        assert_eq!(des, thr);
    }

    #[test]
    fn final_register_state_is_identical() {
        let c = soc();
        let design = compile(&c, &spec(PartitionMode::Exact)).unwrap();
        let run = |backend| {
            let mut sim = SimBuilder::new(&design).backend(backend).build().unwrap();
            let m = sim.run_target_cycles(37).unwrap();
            let mut states = Vec::new();
            for ni in 0..design.node_count() {
                let t = sim.target(ni);
                for (port, _) in t.output_ports() {
                    states.push((ni, port.clone(), t.peek(&port).to_u64()));
                }
            }
            (m.target_cycles, states)
        };
        assert_eq!(run(Backend::Des), run(Backend::Threads(0)));
    }

    #[test]
    fn budgeted_runs_stop_every_node_exactly() {
        let c = soc();
        let design = compile(&c, &spec(PartitionMode::Exact)).unwrap();
        for backend in [Backend::Des, Backend::Threads(0)] {
            let mut sim = SimBuilder::new(&design).backend(backend).build().unwrap();
            sim.run_target_cycles(25).unwrap();
            for ni in 0..design.node_count() {
                assert_eq!(sim.node_target_cycles(ni), 25, "{backend:?} node {ni}");
            }
        }
    }

    #[test]
    fn threaded_counters_account_for_tokens() {
        let c = soc();
        let design = compile(&c, &spec(PartitionMode::Exact)).unwrap();
        let mut sim = SimBuilder::new(&design)
            .backend(Backend::Threads(0))
            .build()
            .unwrap();
        let m = sim.run_target_cycles(30).unwrap();
        assert_eq!(m.counters.len(), design.node_count());
        for ctr in &m.counters {
            assert_eq!(ctr.target_cycles, 30);
            // Every node both receives and emits boundary tokens.
            assert!(ctr.tokens_enqueued >= 30, "{ctr:?}");
            assert!(ctr.tokens_dequeued >= 30, "{ctr:?}");
            assert!(ctr.fmr() >= 1.0);
        }
        // Link token counts carried over into the shared metrics.
        assert!(m.link_tokens.iter().all(|&t| t >= 30));
    }

    /// A worker that is not scheduled until its peers have spun through
    /// their whole idle budget (what two cores do to the last of four
    /// threads once in a few hundred start-ups) must find the run still
    /// alive: one worker's idle budget is a vote, not a verdict.
    #[test]
    fn late_starting_worker_is_not_a_deadlock() {
        let (des, des_cycles) = trace(Backend::Des, PartitionMode::Exact, 60);
        // One worker per node, whatever the host's core count.
        let n_nodes = compile(&soc(), &spec(PartitionMode::Exact))
            .unwrap()
            .node_count();
        HOLD_FIRST_WORKER.with(|h| h.set(true));
        let (thr, thr_cycles) = trace(Backend::Threads(n_nodes), PartitionMode::Exact, 60);
        HOLD_FIRST_WORKER.with(|h| h.set(false));
        assert_eq!(des_cycles, thr_cycles);
        assert_eq!(des, thr, "threaded backend must be bit-exact vs DES");
    }

    #[test]
    fn threaded_backend_detects_deadlock() {
        // Monolithic channels on a Fig. 2-style circular dependency
        // deadlock under DES; the threaded backend must report it too
        // (not hang).
        let mut tile = ModuleBuilder::new("Fig2Side");
        let sink_in = tile.input("sink_in", 8);
        let src_in = tile.input("src_in", 8);
        let sink_out = tile.output("sink_out", 8);
        let src_out = tile.output("src_out", 8);
        let x = tile.reg("x", 8, 1);
        tile.connect_sig(&sink_out, &x.add(&sink_in));
        tile.connect_sig(&src_out, &x);
        tile.connect_sig(&x, &src_in);
        let tile = tile.finish();

        let mut top = ModuleBuilder::new("Soc");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("t", "Fig2Side");
        let y = top.reg("y", 8, 2);
        top.connect_inst("t", "sink_in", &y);
        let t_src = top.inst_port("t", "src_out");
        top.connect_inst("t", "src_in", &y.add(&t_src));
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
            .backend(Backend::Threads(design.node_count()))
            .deadlock_horizon(2048)
            .build()
            .unwrap();
        let err = sim.run_target_cycles(10).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
        // The structured report names every node and its stalled cycle.
        if let SimError::Deadlock { report } = err {
            assert_eq!(report.nodes.len(), design.node_count());
        }
    }

    #[test]
    fn des_timing_metrics_stay_des_only() {
        let c = soc();
        let design = compile(&c, &spec(PartitionMode::Exact)).unwrap();
        let mut thr = SimBuilder::new(&design)
            .backend(Backend::Threads(0))
            .transport(LinkModel::qsfp_aurora())
            .build()
            .unwrap();
        let m = thr.run_target_cycles(20).unwrap();
        // No virtual clock: the threaded backend reports no target rate.
        assert_eq!(m.time_ps, 0);
        assert_eq!(m.target_mhz(), 0.0);
    }

    #[test]
    fn reliability_layer_is_transparent_under_faults() {
        // A noisy-but-recoverable fault campaign must leave the
        // target-visible trace bit-identical to the no-reliability run.
        let (clean, clean_cycles) = trace(Backend::Threads(0), PartitionMode::Exact, 50);
        let (t, m) = trace_on(Backend::Threads(0), PartitionMode::Exact, 50, |b| {
            b.fault_spec(FaultSpec {
                drop_per_mille: 80,
                corrupt_per_mille: 80,
                duplicate_per_mille: 80,
                stall_per_mille: 40,
                max_stall_quanta: 2,
                ..FaultSpec::quiet(0xFA01)
            })
            .retry_policy(RetryPolicy {
                max_retries: 8,
                timeout_cycles: 8,
            })
        });
        assert_eq!(m.target_cycles, clean_cycles);
        assert_eq!(t, clean, "faults must be invisible to target state");
    }

    /// The retransmit clock runs on the receiver's passes: a receiver
    /// whose worker is descheduled for far longer than the whole retry
    /// budget spans in sender passes must not make its fault-free link
    /// time out, let alone go down.
    #[test]
    fn parked_receiver_does_not_time_out_its_sender() {
        let (des, des_cycles) = trace(Backend::Des, PartitionMode::Exact, 60);
        let policy = RetryPolicy {
            max_retries: 3,
            timeout_cycles: 4,
        };
        let budget_passes: u64 = (0..=policy.max_retries)
            .map(|a| policy.timeout_for_attempt(a))
            .sum();
        let design = compile(&soc(), &spec(PartitionMode::Exact)).unwrap();
        // The hub register drives the tile's request without waiting for
        // a response, so this link has a frame in flight from cycle 0.
        let rest = design.node_index(1, 0);
        let li = design
            .links
            .iter()
            .position(|l| l.from_node == rest)
            .unwrap();
        PARK_LINK_RECEIVER.with(|p| p.set(Some((li, 20 * budget_passes))));
        let backend = Backend::Threads(design.node_count());
        let (thr, m) = trace_on(backend, PartitionMode::Exact, 60, |b| {
            b.fault_spec(FaultSpec::quiet(3)).retry_policy(policy)
        });
        PARK_LINK_RECEIVER.with(|p| p.set(None));
        assert_eq!(m.target_cycles, des_cycles);
        assert!(m.links.iter().all(|l| l.retransmits == 0), "{:?}", m.links);
        assert_eq!(thr, des, "threaded backend must be bit-exact vs DES");
    }

    #[test]
    fn threaded_permanent_down_escalates_to_link_down() {
        let c = soc();
        let design = compile(&c, &spec(PartitionMode::Exact)).unwrap();
        let mut sim = SimBuilder::new(&design)
            .backend(Backend::Threads(0))
            .fault_spec(FaultSpec {
                down: vec![(0, u64::MAX)],
                down_link: Some(0),
                ..FaultSpec::quiet(7)
            })
            .retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_cycles: 2,
            })
            .build()
            .unwrap();
        let err = sim.run_target_cycles(20).unwrap_err();
        match err {
            SimError::LinkDown {
                link,
                attempts,
                report,
            } => {
                assert_eq!(link, 0);
                assert_eq!(attempts, 3);
                assert_eq!(report.nodes.len(), design.node_count());
                assert!(
                    report.recent_faults.iter().all(|e| e.link == 0),
                    "forensics carry the down-link events: {report}"
                );
                assert!(!report.recent_faults.is_empty());
            }
            other => panic!("expected LinkDown, got {other}"),
        }
    }
}
