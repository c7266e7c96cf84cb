//! `FrameReader`, the buffered frame reader of the worker loop and the
//! relay, over a real Unix socket pair with a writer thread: frames
//! arrive whole however the bytes are split, the buffer grows once for a
//! large frame and only for a checked length, EOF is clean only at a
//! frame boundary, and steady-state reading allocates nothing.

use fireaxe_ir::Bits;
use fireaxe_net::codec::{write_msg, LinkReport, Msg, NodeReport, MAX_MSG_LEN, PROTOCOL_MAGIC};
use fireaxe_net::stream::{Filled, FrameReader, NetStream, Wait};
use fireaxe_net::WireReport;
use fireaxe_obs::{EventKind, OwnedTraceEvent};
use fireaxe_sim::{LinkCounters, NodeCounters};
use fireaxe_transport::reliable::Frame;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Counts each thread's heap requests (per thread, because the suite's
/// tests run in parallel).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the bookkeeping
// is a `Cell` in a `const`-initialized thread-local with no destructor,
// which neither allocates nor can be reentered.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn framed(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::new();
    write_msg(&mut out, msg).expect("framing into memory");
    out
}

fn report() -> WireReport {
    WireReport {
        worker: 2,
        nodes: vec![NodeReport {
            node: 5,
            counters: NodeCounters {
                node: "tile5".into(),
                partition: 2,
                host_cycles: 400,
                target_cycles: 200,
                ..NodeCounters::default()
            },
            samples: Vec::new(),
            vcd: vec![
                (49, 7, Bits::from_u64(1, 1)),
                (50, 8, Bits::from_u64(7, 64)),
            ],
        }],
        links: vec![LinkReport {
            link: 3,
            tokens: 88,
            counters: LinkCounters {
                link: 3,
                tokens: 88,
                ..LinkCounters::default()
            },
        }],
        traces: vec![OwnedTraceEvent {
            name: "net.worker.passes".into(),
            kind: EventKind::Counter,
            host_ns: 100,
            virt_ps: 0,
            value: 1234.0,
            tid: 1,
        }],
    }
}

/// Frames of the shapes a session carries, from an empty payload to a
/// few kilobytes, in wire order of a typical run.
fn corpus() -> Vec<Vec<u8>> {
    let token = |seq| Frame::seal(seq, Bits::from_words(&[seq, 1], 65));
    [
        Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: 7,
            worker: 3,
        },
        Msg::Run { budget: 1_500 },
        Msg::Token {
            link: 4,
            frame: token(11),
        },
        Msg::TokenBatch {
            link: 6,
            frames: (20..28).map(token).collect(),
        },
        Msg::Ack { link: 7, ack: 42 },
        Msg::Credit { link: 7, amount: 3 },
        Msg::Progress { cycle: 512 },
        Msg::Finish,
        Msg::Checkpoint {
            epoch: 3,
            cycle: 384,
            blob: (0..=255u8).cycle().take(3_000).collect(),
        },
        Msg::Fatal {
            code: 2,
            link: 2,
            attempts: 9,
            message: "link 2 retry budget exhausted".into(),
        },
        Msg::Report(Box::new(report())),
        Msg::Shutdown,
    ]
    .iter()
    .map(framed)
    .collect()
}

/// A connected pair: a reader on one end, a writer thread on the other
/// that writes every chunk it is sent and closes its end when the
/// sender is dropped.
fn pair() -> (FrameReader, mpsc::Sender<Vec<u8>>, JoinHandle<()>) {
    let (ours, theirs) = UnixStream::pair().expect("socket pair");
    let reader = FrameReader::new(NetStream::Unix(ours)).expect("reader");
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || {
        let mut theirs = theirs;
        for chunk in rx {
            theirs.write_all(&chunk).expect("writer thread write");
        }
    });
    (reader, tx, writer)
}

/// Reads until a whole frame is buffered and returns it.
fn next(reader: &mut FrameReader) -> Vec<u8> {
    loop {
        if let Some(frame) = reader.next_frame().expect("well-formed stream") {
            return frame.to_vec();
        }
        match reader.fill(Wait::Forever).expect("read") {
            Filled::Bytes(_) | Filled::Nothing => {}
            Filled::Eof => panic!("EOF before a whole frame"),
        }
    }
}

/// Reads until EOF or an error, taking every frame on the way.
fn to_end(reader: &mut FrameReader) -> io::Result<Filled> {
    loop {
        while reader.next_frame()?.is_some() {}
        match reader.fill(Wait::Forever)? {
            Filled::Eof => return Ok(Filled::Eof),
            Filled::Bytes(_) | Filled::Nothing => {}
        }
    }
}

#[test]
fn every_frame_arrives_whole_whatever_byte_it_is_split_at() {
    let (mut reader, tx, writer) = pair();
    for frame in corpus() {
        for split in 1..frame.len() {
            tx.send(frame[..split].to_vec()).expect("writer alive");
            assert_ne!(reader.fill(Wait::Forever).expect("read"), Filled::Eof);
            assert!(
                reader.next_frame().expect("prefix checks").is_none(),
                "a frame was handed out {split} bytes into {}",
                frame.len()
            );
            tx.send(frame[split..].to_vec()).expect("writer alive");
            assert_eq!(next(&mut reader), frame, "split at {split}");
            assert!(reader.next_frame().expect("empty").is_none());
        }
    }
    drop(tx);
    writer.join().expect("writer thread");
    assert_eq!(to_end(&mut reader).expect("clean close"), Filled::Eof);
}

#[test]
fn many_frames_in_one_write_come_out_in_order() {
    let frames: Vec<Vec<u8>> = (0..20).flat_map(|_| corpus()).collect();
    let (mut reader, tx, writer) = pair();
    tx.send(frames.concat()).expect("writer alive");
    for frame in &frames {
        assert_eq!(&next(&mut reader), frame);
    }
    drop(tx);
    writer.join().expect("writer thread");
    assert_eq!(to_end(&mut reader).expect("clean close"), Filled::Eof);
    assert_eq!(reader.capacity(), 64 << 10, "no frame outgrew the buffer");
}

#[test]
fn a_large_frame_grows_the_buffer_once_and_small_frames_keep_it() {
    let big = framed(&Msg::Checkpoint {
        epoch: 1,
        cycle: 2,
        blob: vec![0xA5; 1 << 20],
    });
    let small = framed(&Msg::Credit { link: 1, amount: 1 });
    let (mut reader, tx, writer) = pair();
    let start = reader.capacity();
    tx.send(big.clone()).expect("writer alive");
    tx.send(small.repeat(10_000)).expect("writer alive");
    assert_eq!(next(&mut reader), big);
    let grown = reader.capacity();
    assert_eq!((start, grown), (64 << 10, big.len()), "one growth, to fit");
    for _ in 0..10_000 {
        assert_eq!(next(&mut reader), small);
        assert_eq!(reader.capacity(), grown);
    }
    drop(tx);
    writer.join().expect("writer thread");
}

#[test]
fn a_read_that_fills_the_buffer_says_so() {
    let blob = |n| {
        framed(&Msg::Checkpoint {
            epoch: 1,
            cycle: 2,
            blob: vec![7; n],
        })
    };
    let exact = blob((64 << 10) - blob(0).len());
    let small = framed(&Msg::Finish);
    let (mut reader, tx, writer) = pair();
    tx.send(exact.clone()).expect("writer alive");
    assert_eq!(next(&mut reader), exact);
    assert!(reader.is_full(), "the reads used every byte of room");
    tx.send(small.clone()).expect("writer alive");
    assert_eq!(next(&mut reader), small);
    assert!(!reader.is_full(), "a short read took all there was");
    drop(tx);
    writer.join().expect("writer thread");
}

#[test]
fn a_length_prefix_above_the_cap_is_refused_before_the_buffer_grows() {
    let (mut reader, tx, writer) = pair();
    let mut hostile = (MAX_MSG_LEN + 1).to_be_bytes().to_vec();
    hostile.extend_from_slice(&[0; 60]);
    tx.send(hostile).expect("writer alive");
    assert!(matches!(
        reader.fill(Wait::Forever).expect("read"),
        Filled::Bytes(n) if n > 0
    ));
    let refused = reader.next_frame().expect_err("over the cap");
    assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
    let refused = reader.fill(Wait::No).expect_err("over the cap");
    assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
    assert_eq!(reader.capacity(), 64 << 10);
    drop(tx);
    writer.join().expect("writer thread");
}

#[test]
fn eof_is_clean_at_a_frame_boundary_and_an_error_inside_a_frame() {
    let frame = framed(&Msg::Progress { cycle: 9 });
    for cut in [0, 2, frame.len() - 1, frame.len()] {
        let (mut reader, tx, writer) = pair();
        tx.send(frame.clone()).expect("writer alive");
        tx.send(frame[..cut].to_vec()).expect("writer alive");
        drop(tx);
        writer.join().expect("writer thread");
        assert_eq!(next(&mut reader), frame);
        let end = to_end(&mut reader);
        if cut == 0 || cut == frame.len() {
            assert_eq!(end.expect("clean close"), Filled::Eof, "cut {cut}");
        } else {
            let torn = end.expect_err("torn frame");
            assert_eq!(torn.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }
}

#[test]
fn a_nonblocking_fill_on_an_empty_socket_finds_nothing() {
    let (mut reader, tx, writer) = pair();
    assert_eq!(reader.fill(Wait::No).expect("read"), Filled::Nothing);
    assert_eq!(
        reader
            .fill(Wait::Upto(std::time::Duration::from_millis(1)))
            .expect("read"),
        Filled::Nothing
    );
    drop(tx);
    writer.join().expect("writer thread");
    assert_eq!(reader.fill(Wait::No).expect("read"), Filled::Eof);
}

#[test]
fn steady_state_reading_allocates_nothing() {
    let frames = corpus();
    let rounds = 200;
    let (mut reader, tx, writer) = pair();
    // Warm-up: the reader is built and the writer running before the
    // count starts.
    tx.send(frames[1].clone()).expect("writer alive");
    next(&mut reader);
    let total = frames.iter().map(Vec::len).sum::<usize>() * rounds;
    tx.send(frames.concat().repeat(rounds))
        .expect("writer alive");
    let before = ALLOCS.with(Cell::get);
    let (mut seen, mut count) = (0usize, 0usize);
    while seen < total {
        while let Some(frame) = reader.next_frame().expect("well-formed stream") {
            seen += frame.len();
            count += 1;
        }
        if seen < total {
            reader.fill(Wait::Forever).expect("read");
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(count, frames.len() * rounds);
    assert_eq!(allocs, 0, "{allocs} allocations reading {count} frames");
    drop(tx);
    writer.join().expect("writer thread");
}
