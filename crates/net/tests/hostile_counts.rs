//! Collection counts off the socket never reserve more memory than twice
//! the frame that carries them.
//!
//! A count is checked against the bytes left times the fewest bytes one
//! element can take on the wire, but an element is wider in memory than
//! on the wire (a `NodeReport` is ≈ 136 B in memory and 72 B on the
//! wire; a trace event 64 B against 37 B). A decoder that reserves
//! `count` elements up front can therefore ask for many times the frame
//! before the first element fails to parse. Each hostile message here is
//! 4 MiB with an inflated count over garbage, decoded under a per-thread
//! largest-allocation counter: no single request may exceed twice the
//! frame.

use fireaxe_net::codec::{decode_msg, encode_msg, Msg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single request each thread makes of the heap
/// (per thread, because the suite's tests run in parallel).
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the bookkeeping
// is a `Cell` in a `const`-initialized thread-local with no destructor,
// which neither allocates nor can be reentered.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

const FRAME: usize = 4 << 20;

/// A `FRAME`-byte message: `head`, then a `u32` count of
/// `(FRAME - head - 4) / per` elements, then `0xFF` to the end.
fn hostile(head: &[u8], per: usize) -> Vec<u8> {
    let mut b = head.to_vec();
    let count = (FRAME - b.len() - 4) / per;
    b.extend_from_slice(&(count as u32).to_be_bytes());
    b.resize(FRAME, 0xFF);
    b
}

/// Decodes `bytes` and checks the largest single allocation made while
/// doing so.
fn decode_bounded(what: &str, bytes: &[u8]) {
    LARGEST.with(|l| l.set(0));
    let msg = decode_msg(bytes);
    let largest = LARGEST.with(Cell::get);
    assert!(
        !matches!(msg, Ok(Msg::Report(_) | Msg::TokenBatch { .. })),
        "{what}: garbage decoded"
    );
    assert!(
        largest <= 2 * bytes.len(),
        "{what}: decoding {} bytes asked for {largest} at once",
        bytes.len()
    );
}

/// The tag byte of a message, taken from the encoder so this file holds
/// no tag numbers of its own.
fn tag(msg: &Msg) -> u8 {
    encode_msg(msg)[0]
}

#[test]
fn hostile_reports_reserve_at_most_twice_their_frame() {
    let head = [tag(&Msg::Report(Box::default())), 0, 0, 0, 7];
    // Node counts at one byte per wire word and at a whole node's
    // footprint.
    for per in [8, 72] {
        decode_bounded(&format!("report nodes / {per}"), &hostile(&head, per));
    }
    // No nodes, no links, then a trace count at 4 bytes per event.
    let mut head = head.to_vec();
    head.extend_from_slice(&[0; 8]);
    decode_bounded("report traces", &hostile(&head, 4));
}

#[test]
fn hostile_token_batches_reserve_at_most_twice_their_frame() {
    let batch = Msg::TokenBatch {
        link: 3,
        frames: Vec::new(),
    };
    let mut head = encode_msg(&batch);
    head.truncate(5);
    decode_bounded("token batch", &hostile(&head, 20));
}

#[test]
fn hostile_status_replies_reserve_at_most_twice_their_frame() {
    let attach = Msg::AttachAck {
        nodes: Vec::new(),
        signals: Vec::new(),
        sample_interval: 0,
    };
    decode_bounded("attach ack", &hostile(&[tag(&attach)], 20));
    let jobs = Msg::JobStatusReply {
        jobs: Vec::new(),
        stats: Default::default(),
    };
    decode_bounded("job status reply", &hostile(&[tag(&jobs)], 35));
}
