//! A fault-injecting socket relay for tests.
//!
//! The in-process backends inject faults inside the transport model;
//! on real sockets that would miss the half of the stack being tested
//! (framing, the reader threads, retransmission pacing). [`FaultProxy`]
//! instead sits between the coordinator and one worker and damages the
//! actual byte stream — but only *data* messages (`Token`/`Ack`), so
//! control flow (handshake, topology, run/finish/report) always
//! survives and every injected fault is one the go-back-N protocol is
//! designed to absorb: drops, duplicates, payload corruption. A plan
//! can also sever the connection outright to simulate a killed peer.
//!
//! Plans are deterministic: drop/corrupt/duplicate actions key off the
//! per-direction `Token`-message index — never the raw data index. The
//! Token/Ack interleaving in a stream is timing-dependent, and a fault
//! landing on an Ack can be absorbed invisibly (cumulative acks cover
//! a dropped ack; a duplicated ack is idempotent), which would make the
//! recovery-counter assertions in the tests flaky. Keyed to tokens,
//! every planned fault is one the protocol must visibly recover from.

use crate::codec::{decode_frame, frame_into, peek_data, read_raw_msg, DataMsg, Msg};
use crate::stream::{NetListener, NetStream};
use fireaxe_transport::reliable;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic fault schedule for one relay direction, keyed by the
/// 1-based index of token-carrying messages (`Token` or `TokenBatch`)
/// in that direction (except `cut_after`, which counts all data
/// messages).
#[derive(Debug, Clone, Default)]
pub struct ProxyPlan {
    /// Token messages to swallow entirely (forces a retransmit).
    pub drop: Vec<u64>,
    /// Token messages to deliver twice (forces a duplicate drop).
    pub duplicate: Vec<u64>,
    /// Token messages whose first payload byte gets flipped (the CRC
    /// catches it at the receiver and forces a retransmit).
    pub corrupt: Vec<u64>,
    /// Sever both directions after this many data messages
    /// (`Token`/`Ack`) forwarded.
    pub cut_after: Option<u64>,
    /// `(token index, milliseconds)`: hold the stream for that long
    /// *before* forwarding the indexed token message. The wire stays
    /// intact — everything behind the token (including heartbeats) is
    /// simply late, which is exactly the slow-but-alive shape the
    /// liveness machinery must not misread as a dead peer.
    pub stall: Vec<(u64, u64)>,
}

impl ProxyPlan {
    /// A transparent relay.
    pub fn clean() -> Self {
        ProxyPlan::default()
    }
}

/// A running one-connection fault proxy.
#[derive(Debug)]
pub struct FaultProxy {
    /// Address to hand the coordinator in place of the worker's.
    pub addr: String,
    largest_batch: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy listening on `listen_addr` (e.g. `127.0.0.1:0`
    /// or `unix:/tmp/p.sock`) that relays one connection to `target`.
    /// `to_target` governs bytes flowing toward `target` (coordinator →
    /// worker when the coordinator dials the proxy); `to_client` the
    /// reverse.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(
        listen_addr: &str,
        target: &str,
        to_target: ProxyPlan,
        to_client: ProxyPlan,
    ) -> io::Result<Self> {
        let listener = NetListener::bind(listen_addr)?;
        let addr = listener.local_addr_string();
        let target = target.to_string();
        let largest_batch = Arc::new(AtomicUsize::new(0));
        let (l1, l2) = (largest_batch.clone(), largest_batch.clone());
        let accept_thread = std::thread::spawn(move || {
            let Ok(client) = listener.accept() else {
                return;
            };
            let Ok(upstream) = NetStream::connect(&target, Duration::from_secs(10)) else {
                client.shutdown();
                return;
            };
            let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream.try_clone()) else {
                client.shutdown();
                upstream.shutdown();
                return;
            };
            let t1 = std::thread::spawn(move || pump(client, upstream, to_target, &l1));
            let t2 = std::thread::spawn(move || pump(u2, c2, to_client, &l2));
            let _ = t1.join();
            let _ = t2.join();
        });
        Ok(FaultProxy {
            addr,
            largest_batch,
            accept_thread: Some(accept_thread),
        })
    }

    /// The most frames any one token message carried through the proxy
    /// so far, in either direction.
    pub fn largest_batch(&self) -> usize {
        self.largest_batch.load(Ordering::Relaxed)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        // Pumps exit when either endpoint closes; the accept thread is
        // detached if still waiting (its listener dies with it only on
        // process exit, which is fine for tests).
        if let Some(t) = self.accept_thread.take() {
            if t.is_finished() {
                let _ = t.join();
            }
        }
    }
}

/// Relays framed messages `from` → `to`, applying `plan` to data
/// messages, until EOF, error, or the plan's cut point, and records the
/// largest token batch it reads in `largest_batch`.
fn pump(mut from: NetStream, mut to: NetStream, plan: ProxyPlan, largest_batch: &AtomicUsize) {
    let mut data_idx = 0u64;
    let mut token_idx = 0u64;
    let mut frame = Vec::new();
    while let Ok(true) = read_raw_msg(&mut from, &mut frame) {
        // Credits are not data here: go-back-N does not cover them.
        let data = peek_data(&frame);
        let is_token = matches!(data, Some(DataMsg::Token { .. }));
        let mut copies = 1u32;
        if is_token || matches!(data, Some(DataMsg::Ack { .. })) {
            data_idx += 1;
            if is_token {
                token_idx += 1;
            }
            if let Some(cut) = plan.cut_after {
                if data_idx > cut {
                    from.shutdown();
                    to.shutdown();
                    return;
                }
            }
            if is_token {
                let frames = match decode_frame(&frame) {
                    Ok(Msg::TokenBatch { frames, .. }) => frames.len(),
                    _ => 1,
                };
                largest_batch.fetch_max(frames, Ordering::Relaxed);
                if let Some(&(_, ms)) = plan.stall.iter().find(|(i, _)| *i == token_idx) {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                if plan.drop.contains(&token_idx) {
                    continue;
                }
                if plan.corrupt.contains(&token_idx) {
                    corrupt_first_token(&mut frame);
                }
                if plan.duplicate.contains(&token_idx) {
                    copies = 2;
                }
            }
        }
        for _ in 0..copies {
            if to.write_all(&frame).is_err() {
                return;
            }
        }
        if to.flush().is_err() {
            return;
        }
    }
    // Propagate the EOF so both sides observe the closure.
    from.shutdown();
    to.shutdown();
}

/// Flips bit 0 of the first token a raw `Token`/`TokenBatch` frame
/// carries, leaving its CRC stale (zero-width tokens stay as they are).
fn corrupt_first_token(raw: &mut Vec<u8>) {
    let Ok(mut msg) = decode_frame(raw) else {
        return;
    };
    let frame = match &mut msg {
        Msg::Token { frame, .. } => frame,
        Msg::TokenBatch { frames, .. } => match frames.first_mut() {
            Some(frame) => frame,
            None => return,
        },
        _ => return,
    };
    frame.payload = reliable::corrupt(&frame.payload, 0);
    raw.clear();
    frame_into(raw, &msg);
}
