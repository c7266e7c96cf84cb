//! Aurora-flavored link reliability protocol.
//!
//! The LI-BDN token protocol (paper §III) makes target state independent
//! of host-side token timing — so a reliability layer that only reorders
//! or delays *host* time is provably invisible to the simulated design.
//! This module implements that layer: frames carry a per-link sequence
//! number and a CRC-32 over the token payload; the receiver delivers
//! strictly in sequence and returns cumulative ACKs; the sender keeps a
//! retransmit buffer and goes back-N on timeout with exponential backoff;
//! a bounded number of retries on a single frame escalates to a link-down
//! error that the engine's checkpoint/rollback machinery can recover
//! from.
//!
//! Both execution backends reuse these exact state machines. The threaded
//! backend runs [`TxState`]/[`RxState`] live over its mpsc channels,
//! counting timeouts in service passes; the DES backend calls
//! [`des_delivery`] to charge the same retransmission schedule
//! analytically in virtual picoseconds, walking the link's
//! [`FaultPlan`] attempt by attempt.

use crate::fault::{Fault, FaultEvent, FaultPlan};
use crate::TransportError;
use fireaxe_ir::{Bits, Dec, DecResult, Wire};
use std::collections::VecDeque;

/// Bits of framing overhead (sequence number + CRC) charged per token
/// when the reliability layer is active.
pub const FRAME_HEADER_BITS: u64 = 96;

fireaxe_ir::wire_struct! {
    /// Retry/backoff knobs for the reliability protocol.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RetryPolicy {
        /// Retransmissions allowed per frame before declaring the link down
        /// (so a frame is sent at most `max_retries + 1` times).
        pub max_retries: u32,
        /// Base retransmit timeout. The threaded backend counts it in service
        /// passes; the DES backend converts it to virtual time at the
        /// sender's host clock. Doubles on every consecutive timeout of the
        /// same frame.
        pub timeout_cycles: u64,
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            timeout_cycles: 32,
        }
    }
}

impl RetryPolicy {
    /// Timeout for retry number `attempt` (0-based), with exponential
    /// backoff capped to avoid shift overflow.
    pub fn timeout_for_attempt(&self, attempt: u32) -> u64 {
        self.timeout_cycles.saturating_mul(1u64 << attempt.min(16))
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::BadRetryPolicy`] when `timeout_cycles`
    /// is zero (the protocol would retransmit every pass).
    pub fn validate(&self) -> Result<(), TransportError> {
        if self.timeout_cycles == 0 {
            return Err(TransportError::BadRetryPolicy {
                message: "timeout_cycles must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3, bit-reversed polynomial) over a token payload.
///
/// Hashes the value words and the width so a zero token of one width does
/// not collide with a zero token of another.
pub fn crc32(payload: &Bits) -> u32 {
    let mut crc = u32::MAX;
    let mut feed = |byte: u8| {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    };
    for b in payload.width().get().to_le_bytes() {
        feed(b);
    }
    for word in payload.as_words() {
        for b in word.to_le_bytes() {
            feed(b);
        }
    }
    !crc
}

/// Flips bit `bit % width` of `payload` (identity on zero-width tokens),
/// modeling in-flight corruption.
pub fn corrupt(payload: &Bits, bit: u32) -> Bits {
    let width = payload.width().get();
    if width == 0 {
        return payload.clone();
    }
    let i = bit % width;
    let mut out = payload.clone();
    out.set_bit(i, !out.bit(i));
    out
}

/// One frame on the wire: a sequenced, checksummed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Per-link sequence number.
    pub seq: u64,
    /// CRC-32 over the *original* payload (corruption leaves it stale).
    pub crc: u32,
    /// Timeout quanta of transient stall injected on this copy; the
    /// receiver holds the frame that long before processing it.
    pub delay_quanta: u32,
    /// The token.
    pub payload: Bits,
}

impl Frame {
    /// Seals `payload` into a frame with a fresh CRC.
    pub fn seal(seq: u64, payload: Bits) -> Self {
        let crc = crc32(&payload);
        Frame {
            seq,
            crc,
            delay_quanta: 0,
            payload,
        }
    }

    /// Whether the payload still matches its CRC.
    pub fn intact(&self) -> bool {
        crc32(&self.payload) == self.crc
    }

    /// Appends this frame's byte-stream encoding to `out`: its
    /// [`Wire`] layout.
    pub fn encode_bytes(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Decodes one frame from `buf` starting at `*pos`, advancing `*pos`
    /// past it — the inverse of [`Frame::encode_bytes`].
    ///
    /// # Errors
    ///
    /// A description of the malformed region when the buffer is
    /// truncated, the payload width is implausible (> 2^20 bits, a
    /// corrupted-stream guard far above any boundary channel), or bits
    /// are set above it.
    pub fn decode_bytes(buf: &[u8], pos: &mut usize) -> Result<Frame, String> {
        let mut d = Dec::new(buf.get(*pos..).unwrap_or_default());
        let frame = Frame::get(&mut d)?;
        *pos += d.position();
        Ok(frame)
    }
}

/// The framing the distributed backend (`fireaxe-net`) puts on real
/// sockets, self-delimiting so frames can be embedded mid-message:
/// `seq`, `crc` and `delay_quanta`, then the payload as [`Bits`]. A
/// token may be zero-width, so the payload is read as one even inside a
/// message that refuses zero-width values.
impl Wire for Frame {
    const MIN: usize = 8 + 4 + 4 + <Bits as Wire>::MIN;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        self.seq.put(b);
        self.crc.put(b);
        self.delay_quanta.put(b);
        self.payload.put(b);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        Ok(Frame {
            seq: d.get()?,
            crc: d.get()?,
            delay_quanta: d.get()?,
            payload: d.bits(true)?,
        })
    }
}

/// Sender half of the protocol: sequence assignment, retransmit buffer,
/// timeout tracking, bounded-retry escalation.
#[derive(Debug)]
pub struct TxState {
    policy: RetryPolicy,
    next_seq: u64,
    /// Sent-but-unacked frames, oldest first.
    unacked: VecDeque<Frame>,
    /// Consecutive timeouts of the current oldest unacked frame.
    attempts: u32,
    /// Ticks (service passes or virtual cycles) since the last
    /// send/ack/retransmit event.
    timer: u64,
    /// Total physical transmissions, for stats.
    pub sent_frames: u64,
    /// Total retransmission rounds, for stats.
    pub retransmits: u64,
}

/// What the sender wants put on the wire after an event.
pub type Outgoing = Vec<Frame>;

impl TxState {
    /// A fresh sender.
    pub fn new(policy: RetryPolicy) -> Self {
        TxState {
            policy,
            next_seq: 0,
            unacked: VecDeque::new(),
            attempts: 0,
            timer: 0,
            sent_frames: 0,
            retransmits: 0,
        }
    }

    /// Number of frames awaiting acknowledgment.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Takes the retransmit buffer (oldest first). Used at the end of a
    /// run to reconcile sent-but-unacknowledged tokens back into
    /// simulator state so nothing in flight is lost across runs.
    pub fn take_unacked(&mut self) -> VecDeque<Frame> {
        std::mem::take(&mut self.unacked)
    }

    /// Sequence number the next fresh token will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rewinds sequencing to `seq` as part of a *coordinated* checkpoint
    /// rollback: both link endpoints (and the channel state between
    /// them) must rewind together, and any frames still in flight are
    /// deliberately discarded — after a crash the sender is typically
    /// *not* quiescent, and the coordinated recovery drains or discards
    /// all stale wire traffic before replay, so dropped frames are
    /// regenerated bit-identically by deterministic re-execution and
    /// never alias a stale copy. Transmission statistics keep running,
    /// mirroring how the engine leaves fault counters running across
    /// restores.
    pub fn rewind_to(&mut self, seq: u64) {
        self.unacked.clear();
        self.next_seq = seq;
        self.attempts = 0;
        self.timer = 0;
    }

    /// Accepts a fresh token for transmission; returns the sealed frame
    /// to put on the wire.
    pub fn send(&mut self, payload: Bits) -> Frame {
        let frame = Frame::seal(self.next_seq, payload);
        self.next_seq += 1;
        self.unacked.push_back(frame.clone());
        self.sent_frames += 1;
        self.timer = 0;
        frame
    }

    /// Processes a cumulative ACK (`ack` = receiver's next expected
    /// sequence number): drops acknowledged frames and resets the retry
    /// escalation.
    pub fn on_ack(&mut self, ack: u64) {
        let mut progressed = false;
        while self.unacked.front().is_some_and(|f| f.seq < ack) {
            self.unacked.pop_front();
            progressed = true;
        }
        if progressed {
            self.attempts = 0;
            self.timer = 0;
        }
    }

    /// Advances the timeout clock by one tick. On expiry, returns the
    /// go-back-N retransmission set (all unacked frames, oldest first);
    /// when the oldest frame has exhausted `max_retries`, returns an
    /// error carrying the attempt count instead.
    ///
    /// # Errors
    ///
    /// `Err(attempts)` when the retry budget is exhausted — the caller
    /// escalates to `SimError::LinkDown`.
    pub fn on_tick(&mut self) -> Result<Outgoing, u32> {
        if self.unacked.is_empty() {
            self.timer = 0;
            return Ok(Vec::new());
        }
        self.timer += 1;
        if self.timer < self.policy.timeout_for_attempt(self.attempts) {
            return Ok(Vec::new());
        }
        if self.attempts >= self.policy.max_retries {
            // Total transmissions of the oldest frame: 1 original +
            // max_retries retransmits.
            return Err(self.attempts + 1);
        }
        self.attempts += 1;
        self.retransmits += 1;
        self.timer = 0;
        self.sent_frames += self.unacked.len() as u64;
        Ok(self.unacked.iter().cloned().collect())
    }
}

/// What the receiver did with an incoming frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxVerdict {
    /// In-sequence and intact: deliver the payload, ACK `seq + 1`.
    Deliver {
        /// The token to hand to the LI-BDN.
        payload: Bits,
        /// Cumulative ACK to return (next expected sequence).
        ack: u64,
    },
    /// Stale duplicate: discard, but re-ACK so the sender can advance.
    DuplicateAck {
        /// Cumulative ACK to return.
        ack: u64,
    },
    /// Corrupt (CRC mismatch): discard silently; the sender's timeout
    /// recovers.
    Corrupt,
    /// Sequence gap (an earlier frame was lost): discard and re-ACK the
    /// last good position.
    Gap {
        /// Cumulative ACK to return.
        ack: u64,
    },
}

/// Receiver half of the protocol: in-order delivery, duplicate and
/// corruption rejection, cumulative ACK generation.
#[derive(Debug)]
pub struct RxState {
    expected: u64,
    /// Frames rejected for CRC mismatch, for forensics.
    pub corrupt_frames: u64,
    /// Stale duplicates discarded, for forensics.
    pub duplicate_frames: u64,
    /// Out-of-order frames discarded (go-back-N keeps no reorder
    /// buffer), for forensics.
    pub gap_frames: u64,
}

impl RxState {
    /// A fresh receiver.
    pub fn new() -> Self {
        RxState {
            expected: 0,
            corrupt_frames: 0,
            duplicate_frames: 0,
            gap_frames: 0,
        }
    }

    /// Next sequence number the receiver will accept.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Rewinds the receive window to expect `seq` next — the receiver
    /// half of the coordinated rollback described at
    /// [`TxState::rewind_to`]. Forensic counters keep running.
    pub fn rewind_to(&mut self, seq: u64) {
        self.expected = seq;
    }

    /// Classifies one incoming frame.
    pub fn on_frame(&mut self, frame: &Frame) -> RxVerdict {
        if !frame.intact() {
            self.corrupt_frames += 1;
            return RxVerdict::Corrupt;
        }
        if frame.seq < self.expected {
            self.duplicate_frames += 1;
            return RxVerdict::DuplicateAck { ack: self.expected };
        }
        if frame.seq > self.expected {
            self.gap_frames += 1;
            return RxVerdict::Gap { ack: self.expected };
        }
        self.expected += 1;
        RxVerdict::Deliver {
            payload: frame.payload.clone(),
            ack: self.expected,
        }
    }
}

impl Default for RxState {
    fn default() -> Self {
        RxState::new()
    }
}

/// Outcome of an analytic DES delivery: the token arrives `delay_ps`
/// after the send, having consumed `attempts` physical transmissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesDelivery {
    /// Virtual time from first transmission to accepted delivery.
    pub delay_ps: u64,
    /// Physical transmissions consumed (1 = clean first try).
    pub attempts: u32,
    /// Faults injected along the way, for forensics.
    pub events: Vec<FaultEvent>,
}

/// Analytic virtual-time walk of one token's delivery under the link's
/// fault plan — the DES twin of the live threaded protocol.
///
/// Each failed attempt (drop / corruption / duplicate-of-lost / down
/// window) charges that attempt's backoff timeout in sender host cycles;
/// a successful attempt charges the wire's `transfer_ps` (plus any
/// transient stall, in timeout quanta at the sender clock). `*attempt_ctr`
/// is the link's lifetime physical-transmission counter and is advanced
/// once per attempt, keeping the fault plan aligned across
/// checkpoints/rollbacks.
///
/// # Errors
///
/// Returns the consumed attempt count when the retry budget is exhausted;
/// the caller escalates to `SimError::LinkDown`.
pub fn des_delivery(
    plan: &FaultPlan,
    policy: &RetryPolicy,
    seq: u64,
    attempt_ctr: &mut u64,
    transfer_ps: u64,
    tx_period_ps: u64,
) -> Result<DesDelivery, u32> {
    let quantum_ps = policy.timeout_cycles.saturating_mul(tx_period_ps);
    let mut delay_ps = 0u64;
    let mut events = Vec::new();
    for try_no in 0..=policy.max_retries {
        let attempt = *attempt_ctr;
        *attempt_ctr += 1;
        let fault = plan.fault_at(attempt);
        if let Some(f) = fault {
            events.push(FaultEvent {
                link: plan.link(),
                attempt,
                seq,
                fault: f,
            });
        }
        match fault {
            // Corruption is detected by CRC at the receiver, a gap (from
            // a duplicate of a lost frame) is discarded: both look like a
            // loss to the sender and cost a full timeout. Duplicates of a
            // *delivered* frame are harmless, so `Duplicate` on the
            // successful path below delivers normally.
            Some(Fault::Drop) | Some(Fault::Corrupt { .. }) | Some(Fault::Down) => {
                delay_ps = delay_ps.saturating_add(
                    policy
                        .timeout_for_attempt(try_no)
                        .saturating_mul(tx_period_ps),
                );
            }
            Some(Fault::Stall { quanta }) => {
                return Ok(DesDelivery {
                    delay_ps: delay_ps
                        .saturating_add(transfer_ps)
                        .saturating_add(quantum_ps.saturating_mul(u64::from(quanta))),
                    attempts: try_no + 1,
                    events,
                });
            }
            Some(Fault::Duplicate) | None => {
                return Ok(DesDelivery {
                    delay_ps: delay_ps.saturating_add(transfer_ps),
                    attempts: try_no + 1,
                    events,
                });
            }
        }
    }
    Err(policy.max_retries + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;

    fn token(v: u64) -> Bits {
        Bits::from_u64(v, 32)
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let t = token(0xDEAD_BEEF);
        let crc = crc32(&t);
        for bit in 0..32 {
            assert_ne!(crc, crc32(&corrupt(&t, bit)), "bit {bit} undetected");
        }
        assert_eq!(crc, crc32(&t.clone()));
    }

    #[test]
    fn crc_distinguishes_widths() {
        assert_ne!(crc32(&Bits::zero(8u32)), crc32(&Bits::zero(16u32)));
    }

    #[test]
    fn corrupt_is_safe_on_zero_width() {
        let z = Bits::zero(0u32);
        assert_eq!(corrupt(&z, 17), z);
    }

    #[test]
    fn clean_link_round_trip() {
        let policy = RetryPolicy::default();
        let mut tx = TxState::new(policy);
        let mut rx = RxState::new();
        for v in 0..10u64 {
            let frame = tx.send(token(v));
            match rx.on_frame(&frame) {
                RxVerdict::Deliver { payload, ack } => {
                    assert_eq!(payload.to_u64(), v);
                    tx.on_ack(ack);
                }
                other => panic!("expected delivery, got {other:?}"),
            }
        }
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.retransmits, 0);
    }

    #[test]
    fn timeout_retransmits_and_receiver_dedupes() {
        let policy = RetryPolicy {
            max_retries: 3,
            timeout_cycles: 2,
        };
        let mut tx = TxState::new(policy);
        let mut rx = RxState::new();
        let first = tx.send(token(1));
        // First copy is "dropped" (never shown to rx). Tick to timeout.
        assert_eq!(tx.on_tick().unwrap(), Vec::new());
        let resent = tx.on_tick().unwrap();
        assert_eq!(resent, vec![first.clone()]);
        assert_eq!(tx.retransmits, 1);
        // Retransmitted copy arrives; a stale duplicate after it re-acks.
        let ack = match rx.on_frame(&resent[0]) {
            RxVerdict::Deliver { ack, .. } => ack,
            other => panic!("expected delivery, got {other:?}"),
        };
        assert_eq!(rx.on_frame(&first), RxVerdict::DuplicateAck { ack });
        assert_eq!(rx.duplicate_frames, 1);
        tx.on_ack(ack);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn corrupt_frames_dropped_gaps_reacked() {
        let mut rx = RxState::new();
        let mut tx = TxState::new(RetryPolicy::default());
        let f0 = tx.send(token(7));
        let f1 = tx.send(token(8));
        let mut bad = f0.clone();
        bad.payload = corrupt(&bad.payload, 3);
        assert_eq!(rx.on_frame(&bad), RxVerdict::Corrupt);
        // f0 lost => f1 is a gap; rx re-acks position 0.
        assert_eq!(rx.on_frame(&f1), RxVerdict::Gap { ack: 0 });
        // Retransmitted in order, both deliver.
        assert!(matches!(rx.on_frame(&f0), RxVerdict::Deliver { .. }));
        assert!(matches!(
            rx.on_frame(&f1),
            RxVerdict::Deliver { ack: 2, .. }
        ));
    }

    #[test]
    fn backoff_doubles_and_escalates() {
        let policy = RetryPolicy {
            max_retries: 2,
            timeout_cycles: 1,
        };
        let mut tx = TxState::new(policy);
        tx.send(token(9));
        // attempt 0: timeout after 1 tick.
        assert_eq!(tx.on_tick().unwrap().len(), 1);
        // attempt 1: timeout after 2 ticks.
        assert!(tx.on_tick().unwrap().is_empty());
        assert_eq!(tx.on_tick().unwrap().len(), 1);
        // attempt 2: timeout after 4 ticks => budget exhausted.
        for _ in 0..3 {
            assert!(tx.on_tick().unwrap().is_empty());
        }
        assert_eq!(tx.on_tick(), Err(3));
    }

    #[test]
    fn des_delivery_charges_retransmit_time() {
        let policy = RetryPolicy {
            max_retries: 4,
            timeout_cycles: 8,
        };
        // Deterministic plan: hard-down for attempts [0, 2), then clean.
        let spec = FaultSpec {
            down: vec![(0, 2)],
            ..FaultSpec::quiet(1)
        };
        let plan = spec.plan_for_link(0);
        let mut ctr = 0u64;
        let d = des_delivery(&plan, &policy, 0, &mut ctr, 1_000, 10).unwrap();
        // Two failed attempts cost timeouts 8*10 and 16*10 ps, then the
        // clean transfer costs 1000 ps.
        assert_eq!(d.delay_ps, 80 + 160 + 1_000);
        assert_eq!(d.attempts, 3);
        assert_eq!(ctr, 3);
        assert_eq!(d.events.len(), 2);
    }

    #[test]
    fn des_delivery_escalates_on_permanent_down() {
        let policy = RetryPolicy {
            max_retries: 3,
            timeout_cycles: 4,
        };
        let spec = FaultSpec {
            down: vec![(0, u64::MAX)],
            ..FaultSpec::quiet(2)
        };
        let plan = spec.plan_for_link(1);
        let mut ctr = 0u64;
        assert_eq!(des_delivery(&plan, &policy, 0, &mut ctr, 500, 10), Err(4));
        assert_eq!(ctr, 4, "every attempt consumes fault-plan space");
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::default().validate().is_ok());
        let bad = RetryPolicy {
            max_retries: 1,
            timeout_cycles: 0,
        };
        assert!(matches!(
            bad.validate(),
            Err(TransportError::BadRetryPolicy { .. })
        ));
    }

    #[test]
    fn rewind_replays_the_same_sequence_numbers() {
        let mut tx = TxState::new(RetryPolicy::default());
        let mut rx = RxState::new();
        // Epoch 1: three tokens delivered and acked.
        for v in 0..3u64 {
            let f = tx.send(token(v));
            if let RxVerdict::Deliver { ack, .. } = rx.on_frame(&f) {
                tx.on_ack(ack);
            }
        }
        let (tx_mark, rx_mark) = (tx.next_seq(), rx.expected());
        // Epoch 2: two more, then a coordinated rollback.
        for v in 3..5u64 {
            let f = tx.send(token(v));
            if let RxVerdict::Deliver { ack, .. } = rx.on_frame(&f) {
                tx.on_ack(ack);
            }
        }
        tx.rewind_to(tx_mark);
        rx.rewind_to(rx_mark);
        // Replay: the same sequence numbers flow again and still deliver.
        for v in 3..5u64 {
            let f = tx.send(token(v));
            assert!(
                matches!(rx.on_frame(&f), RxVerdict::Deliver { .. }),
                "replayed seq {} must deliver after a coordinated rewind",
                f.seq
            );
            tx.on_ack(rx.expected());
        }
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(rx.duplicate_frames, 0, "replay is not a duplicate");
    }

    #[test]
    fn frame_byte_framing_roundtrips() {
        for width in [1u32, 8, 63, 64, 65, 128, 200] {
            let payload = Bits::ones(width);
            let frame = Frame::seal(0xDEAD_BEEF_1234, payload);
            let mut buf = vec![0xAA]; // leading garbage the codec must skip
            let mut pos = 1usize;
            frame.encode_bytes(&mut buf);
            let back = Frame::decode_bytes(&buf, &mut pos).unwrap();
            assert_eq!(back, frame);
            assert_eq!(pos, buf.len(), "decode consumes exactly the encoding");
            assert!(back.intact());
        }
    }

    #[test]
    fn frame_decode_rejects_truncation_and_padding() {
        let frame = Frame::seal(7, Bits::from_u64(0x5A, 12));
        let mut buf = Vec::new();
        frame.encode_bytes(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                Frame::decode_bytes(&buf[..cut], &mut pos).is_err(),
                "truncation at {cut} must be detected"
            );
        }
        // Stray bits above the declared width are stream corruption.
        let last = buf.len() - 8;
        buf[last + 7] = 0xFF;
        let mut pos = 0;
        assert!(Frame::decode_bytes(&buf, &mut pos).is_err());
    }
}
