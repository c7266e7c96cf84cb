//! Frozen bytes of the wire protocol.
//!
//! One fully populated instance of every `Msg` variant (every tag from 1
//! to 51, some twice) is encoded and checked by tag, length and FNV-1a
//! digest against values frozen from the hand-written codec, so a
//! rewrite of the codec must put exactly the same bytes on the wire.
//! Between them the instances cover every `EventKind`, both
//! `Selection` kinds, fast mode and monolithic channels, settings with
//! a retry policy and signals, a report with samples, VCD changes,
//! links and traces,
//! `Option<Bits>` both ways, `Bits` of widths 1, 64, 65 and 130, and
//! empty and non-empty blobs. Each instance must also decode and
//! re-encode to the same bytes, directly and through the framed
//! reader and writer.
//!
//! The malformed inputs the codec rejects are frozen as rejections, and
//! a damaged token or token batch must still degrade to `CorruptToken`.
//!
//! On a mismatch the test prints the table it got in source form. Run
//! the suite with `WIRE_GOLDEN_DUMP=<dir>` on the reference tree and on
//! yours to write every message as a hex file, then diff the two.

use fireaxe_ir::Bits;
use fireaxe_net::codec::{
    decode_msg, encode_msg, read_msg, write_msg, JobInfo, LinkReport, Msg, NodeInfo, NodeReport,
    ServeStats, BACKEND_NET, BACKEND_THREADS, FATAL_LINK_DOWN, JOB_EVICTED, JOB_RUNNING,
    PROTOCOL_MAGIC,
};
use fireaxe_net::{Topology, WireReport, WireSettings};
use fireaxe_obs::{EventKind, NodeSample, OwnedTraceEvent, VcdSignal};
use fireaxe_ripper::{ChannelPolicy, PartitionGroup, PartitionMode, PartitionSpec, Selection};
use fireaxe_sim::{LinkCounters, NodeCounters};
use fireaxe_transport::reliable::{Frame, RetryPolicy};

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn w1() -> Bits {
    Bits::from_u64(1, 1)
}

fn w64() -> Bits {
    Bits::from_u64(0xDEAD_BEEF_0123_4567, 64)
}

fn w65() -> Bits {
    Bits::from_words(&[0x8000_0000_0000_0001, 1], 65)
}

fn w130() -> Bits {
    Bits::from_words(&[0x0102_0304_0506_0708, 0x1112_1314_1516_1718, 0b11], 130)
}

fn sample(base: u64) -> NodeSample {
    NodeSample {
        cycle: base,
        host_ns: base + 1,
        time_ps: base + 2,
        host_cycles: base + 3,
        tokens_enqueued: base + 4,
        tokens_dequeued: base + 5,
        input_stall_host_cycles: base + 6,
        output_stall_host_cycles: base + 7,
        queue_occupancy: base + 8,
        settle_passes: base + 9,
        defs_run: base + 10,
        defs_skipped: base + 11,
        state_digest: 0xFEED_0000 + base,
    }
}

fn node_info(node: u32, name: &str) -> NodeInfo {
    NodeInfo {
        node,
        name: name.into(),
        partition: node / 2 + 1,
        cycle: 1000 + u64::from(node),
    }
}

fn full_settings() -> WireSettings {
    WireSettings {
        retry: RetryPolicy {
            max_retries: 6,
            timeout_cycles: 48,
        },
        sample_interval: 25,
        vcd: true,
        signals: vec!["tile0:counter".into(), "router1:buf".into()],
        io_timeout_ms: 9_000,
        checkpoint_interval: 640,
    }
}

fn full_report() -> WireReport {
    let trace = |name: &str, kind, i: u64| OwnedTraceEvent {
        name: name.into(),
        kind,
        host_ns: 100 + i,
        virt_ps: 200 + i,
        value: 0.5 + i as f64,
        tid: i,
    };
    WireReport {
        worker: 2,
        nodes: vec![
            NodeReport {
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
                samples: vec![sample(50), sample(100)],
                vcd: vec![
                    (49, 7, w1()),
                    (50, 8, w64()),
                    (51, 9, w65()),
                    (52, 10, w130()),
                ],
            },
            NodeReport {
                node: 6,
                counters: NodeCounters {
                    node: "router6".into(),
                    partition: 2,
                    ..NodeCounters::default()
                },
                samples: Vec::new(),
                vcd: Vec::new(),
            },
        ],
        links: vec![LinkReport {
            link: 3,
            tokens: 88,
            counters: LinkCounters {
                link: 3,
                tokens: 88,
                sent_frames: 90,
                retransmits: 2,
                timeout_escalations: 1,
                crc_failures: 4,
                duplicates_dropped: 5,
                delivery_delay_ps: 6,
            },
        }],
        traces: vec![
            trace("net.service", EventKind::SpanBegin, 0),
            trace("net.service", EventKind::SpanEnd, 1),
            trace("net.rewind", EventKind::Instant, 2),
            trace("net.queue", EventKind::Counter, 3),
        ],
    }
}

fn full_spec() -> PartitionSpec {
    PartitionSpec {
        mode: PartitionMode::Fast,
        channel_policy: ChannelPolicy::Monolithic,
        groups: vec![
            PartitionGroup::instances("fpga0", vec!["top.a".into(), "top.b".into()]),
            PartitionGroup {
                name: "fpga1".into(),
                selection: Selection::NocRouters {
                    routers: vec!["r0".into(), "r1".into(), "r2".into()],
                    indices: vec![0, 2],
                },
                fame5: true,
            },
        ],
    }
}

fn frame(seq: u64, payload: Bits, delay_quanta: u32) -> Frame {
    let mut f = Frame::seal(seq, payload);
    f.delay_quanta = delay_quanta;
    f
}

/// The protocol version the handshake instances carry. A version is a
/// value, not a layout: it stays at the one the bytes were frozen with,
/// so a protocol bump moves only the messages whose layout it changes.
const FROZEN_VERSION: u32 = 7;

/// One named instance per message shape, in tag order.
fn corpus() -> Vec<(&'static str, Msg)> {
    vec![
        (
            "hello",
            Msg::Hello {
                magic: PROTOCOL_MAGIC,
                version: FROZEN_VERSION,
                worker: 3,
            },
        ),
        (
            "hello_ack",
            Msg::HelloAck {
                magic: PROTOCOL_MAGIC,
                version: FROZEN_VERSION,
            },
        ),
        (
            "topology",
            Msg::Topology(Box::new(Topology {
                worker: 1,
                n_workers: 4,
                settings: full_settings(),
                payloads: vec![
                    vec![0x46, 0x58, 0x57, 0x31, 0x00, 0x07, 0xFF],
                    vec![0x46, 0x58, 0x57, 0x31, 0x00, 0x08],
                ],
            })),
        ),
        (
            "topology_default",
            Msg::Topology(Box::new(Topology {
                worker: 0,
                n_workers: 1,
                settings: WireSettings::default(),
                payloads: Vec::new(),
            })),
        ),
        (
            "ready",
            Msg::Ready {
                design_digest: 0x0123_4567_89AB_CDEF,
            },
        ),
        ("run", Msg::Run { budget: 1_500 }),
        (
            "token",
            Msg::Token {
                link: 4,
                frame: frame(11, w65(), 2),
            },
        ),
        (
            "ack",
            Msg::Ack {
                link: 7,
                ack: 0x1_0000_0042,
            },
        ),
        ("credit", Msg::Credit { link: 7, amount: 3 }),
        ("progress", Msg::Progress { cycle: 512 }),
        ("done", Msg::Done { cycle: 1_500 }),
        ("finish", Msg::Finish),
        ("report", Msg::Report(Box::new(full_report()))),
        ("shutdown", Msg::Shutdown),
        (
            "fatal",
            Msg::Fatal {
                code: FATAL_LINK_DOWN,
                link: 2,
                attempts: 9,
                message: "link 2 retry budget exhausted \u{2014} gave up".into(),
            },
        ),
        ("corrupt_token", Msg::CorruptToken { link: 9 }),
        (
            "token_batch",
            Msg::TokenBatch {
                link: 6,
                frames: vec![
                    frame(20, w1(), 0),
                    frame(21, w64(), 0),
                    frame(22, Bits::zero(0), 1),
                    frame(23, w130(), 0),
                ],
            },
        ),
        (
            "barrier",
            Msg::Barrier {
                epoch: 1,
                cycle: 128,
            },
        ),
        (
            "take_checkpoint",
            Msg::TakeCheckpoint {
                epoch: 2,
                cycle: 256,
            },
        ),
        (
            "checkpoint",
            Msg::Checkpoint {
                epoch: 3,
                cycle: 384,
                blob: (0..=255u8).cycle().take(700).collect(),
            },
        ),
        (
            "checkpoint_empty",
            Msg::Checkpoint {
                epoch: 4,
                cycle: 0,
                blob: Vec::new(),
            },
        ),
        (
            "checkpoint_ack",
            Msg::CheckpointAck {
                epoch: 5,
                cycle: 512,
            },
        ),
        (
            "rewind",
            Msg::Rewind {
                epoch: 6,
                cycle: 640,
            },
        ),
        (
            "rewind_ack",
            Msg::RewindAck {
                epoch: 7,
                cycle: 768,
            },
        ),
        (
            "restore",
            Msg::Restore {
                epoch: 8,
                cycle: 896,
                blob: vec![1, 2, 3],
            },
        ),
        (
            "resume",
            Msg::Resume {
                epoch: 9,
                cycle: 1024,
            },
        ),
        (
            "attach",
            Msg::Attach {
                magic: PROTOCOL_MAGIC,
                version: FROZEN_VERSION,
            },
        ),
        (
            "attach_ack",
            Msg::AttachAck {
                nodes: vec![node_info(0, "tile0"), node_info(3, "router1")],
                signals: vec![
                    VcdSignal {
                        scope: "tile0".into(),
                        name: "acc".into(),
                        width: 16,
                    },
                    VcdSignal {
                        scope: "router1".into(),
                        name: "buf".into(),
                        width: 130,
                    },
                ],
                sample_interval: 100,
            },
        ),
        ("detach", Msg::Detach),
        ("pause", Msg::Pause { cycle: 612 }),
        ("pause_ack", Msg::PauseAck { cycle: 613 }),
        ("step", Msg::Step { n: 100 }),
        ("resume_run", Msg::ResumeRun),
        (
            "peek",
            Msg::Peek {
                node: 3,
                path: "router.buf".into(),
            },
        ),
        (
            "peek_reply_some",
            Msg::PeekReply {
                node: 3,
                path: "router.buf".into(),
                cycle: 612,
                value: Some(w65()),
            },
        ),
        (
            "peek_reply_none",
            Msg::PeekReply {
                node: 3,
                path: "nope".into(),
                cycle: 612,
                value: None,
            },
        ),
        (
            "poke",
            Msg::Poke {
                node: 1,
                path: "in_req".into(),
                value: 0xAB,
            },
        ),
        (
            "poke_ack",
            Msg::PokeAck {
                node: 1,
                path: "bogus".into(),
                cycle: 612,
                error: "no signal at path `bogus`".into(),
            },
        ),
        (
            "subscribe",
            Msg::Subscribe {
                wave: true,
                metrics: false,
            },
        ),
        (
            "wave_delta",
            Msg::WaveDelta {
                node: 2,
                changes: vec![(613, 4, w1()), (614, 5, w64()), (615, 6, w130())],
            },
        ),
        (
            "metric_delta",
            Msg::MetricDelta {
                node: 2,
                samples: vec![sample(700), sample(800)],
            },
        ),
        ("snapshot_now", Msg::SnapshotNow),
        ("snapshot_done", Msg::SnapshotDone { cycle: 612 }),
        ("status", Msg::Status),
        (
            "status_reply",
            Msg::StatusReply {
                nodes: vec![node_info(5, "router2")],
                paused: true,
                fence: 612,
            },
        ),
        ("reset_to_idle", Msg::ResetToIdle),
        ("idle_ack", Msg::IdleAck),
        (
            "submit_job",
            Msg::SubmitJob {
                tenant: "tenant-a".into(),
                budget: 9_000,
                backend: BACKEND_THREADS,
                tape: vec![0x46, 0x58, 0x54, 0x31, 0x01, 0x00],
                spec: full_spec(),
                settings: full_settings(),
            },
        ),
        ("job_accepted", Msg::JobAccepted { job: 17 }),
        ("job_status", Msg::JobStatus { job: 0 }),
        (
            "job_status_reply",
            Msg::JobStatusReply {
                jobs: vec![
                    JobInfo {
                        job: 17,
                        tenant: "tenant-a".into(),
                        state: JOB_RUNNING,
                        backend: BACKEND_NET,
                        budget: 9_000,
                        cycle: 4_500,
                        cache_hit: true,
                        workers: 3,
                    },
                    JobInfo {
                        job: 18,
                        tenant: String::new(),
                        state: JOB_EVICTED,
                        backend: BACKEND_THREADS,
                        budget: 10,
                        cycle: 0,
                        cache_hit: false,
                        workers: 0,
                    },
                ],
                stats: ServeStats {
                    cache_hits: 40,
                    cache_misses: 4,
                    cache_entries: 3,
                    cache_evictions: 1,
                    pool_idle: 2,
                    pool_busy: 6,
                },
            },
        ),
        (
            "job_result",
            Msg::JobResult {
                job: 17,
                outcome: JOB_EVICTED,
                error: "evicted: over quota".into(),
                cycles: 4_321,
                cache_hit: true,
                admission_micros: 207,
                metrics_json: "{\"target_cycles\":4321}".into(),
                series_json: "{}".into(),
                vcd: "$date $end".into(),
            },
        ),
        ("cancel_job", Msg::CancelJob { job: 19 }),
        (
            "evict_job",
            Msg::EvictJob {
                job: 20,
                reason: "operator".into(),
            },
        ),
    ]
}

/// `(name, tag, length, FNV-1a)` of every corpus message, frozen from
/// the hand-written codec.
const FROZEN: &[(&str, u8, usize, u64)] = &[
    ("hello", 1, 13, 0x582060523f66b60f),
    ("hello_ack", 2, 9, 0x2fa20eb111b2cd7b),
    ("topology", 3, 107, 0x80b4f7b81134ed8e),
    ("topology_default", 3, 54, 0x13559e5a918ec078),
    ("ready", 4, 9, 0x645f2294c995bba3),
    ("run", 5, 9, 0x050179663d972ed9),
    ("token", 6, 41, 0xdecd6a8eb66a39a7),
    ("ack", 7, 13, 0x7a51e71ebe1cf962),
    ("credit", 8, 9, 0x5b4a82a75179997b),
    ("progress", 9, 9, 0xedf3a3c934d2aa96),
    ("done", 10, 9, 0xa81a95e1f28ee324),
    ("finish", 11, 1, 0xaf63c64c8601c72a),
    ("report", 12, 766, 0xdeb4523ccdf4d39e),
    ("shutdown", 13, 1, 0xaf63c04c8601bcf8),
    ("fatal", 14, 55, 0xfdb01ece5e7b425c),
    ("corrupt_token", 15, 5, 0x2426b8ad97b8f159),
    ("token_batch", 16, 129, 0x8a5850937be702fd),
    ("barrier", 17, 13, 0x7f253a2771b1b02f),
    ("take_checkpoint", 18, 13, 0x74b6637d991c0f96),
    ("checkpoint", 19, 717, 0x54b30c04ed887e70),
    ("checkpoint_empty", 19, 17, 0x4a806695daa9e236),
    ("checkpoint_ack", 20, 13, 0xf62c2173b5ad8ade),
    ("rewind", 21, 13, 0x206baf122707b230),
    ("rewind_ack", 22, 13, 0xef3d91ad254f2b67),
    ("restore", 23, 20, 0xfaa101bdcec5e4d4),
    ("resume", 24, 13, 0xcc6bfacc5354a828),
    ("attach", 25, 9, 0x7bf748a6446ec98a),
    ("attach_ack", 26, 111, 0x5f4a0f55d52d02c6),
    ("detach", 27, 1, 0xaf63d64c8601e25a),
    ("pause", 28, 9, 0x6a4c0589c0a50095),
    ("pause_ack", 29, 9, 0xd6f0012c2c16d181),
    ("step", 30, 9, 0x91283c44e9e1f94d),
    ("resume_run", 31, 1, 0xaf63d24c8601db8e),
    ("peek", 32, 19, 0x8aa4827e992e1c3a),
    ("peek_reply_some", 33, 48, 0x26963f8d47a6104d),
    ("peek_reply_none", 33, 22, 0xa612d78cb4594d79),
    ("poke", 34, 23, 0xeb33df77626b5979),
    ("poke_ack", 35, 51, 0x20f957207561ac10),
    ("subscribe", 36, 3, 0xa1746017bb6c7c82),
    ("wave_delta", 37, 97, 0x91445fa884aa2f5d),
    ("metric_delta", 38, 217, 0xcf8da56da8d5fd18),
    ("snapshot_now", 39, 1, 0xaf639a4c86017c66),
    ("snapshot_done", 40, 9, 0x1405917436031479),
    ("status", 41, 1, 0xaf63a44c86018d64),
    ("status_reply", 42, 41, 0xad26d60bfe2a8589),
    ("reset_to_idle", 43, 1, 0xaf63a64c860190ca),
    ("idle_ack", 44, 1, 0xaf63a14c8601884b),
    ("submit_job", 45, 197, 0x9b220bdf41be8ec0),
    ("job_accepted", 46, 9, 0xed37e5b90cd3454e),
    ("job_status", 47, 9, 0x59cd815b783835be),
    ("job_status_reply", 48, 119, 0xe23b6f3d4e4baae7),
    ("job_result", 49, 96, 0x76fdeb51d0d7b7a4),
    ("cancel_job", 50, 9, 0xd633c41c0416946c),
    ("evict_job", 51, 21, 0xc0654c2e84efcb4e),
];

#[test]
fn every_message_keeps_its_bytes() {
    let corpus = corpus();
    let dump = std::env::var("WIRE_GOLDEN_DUMP").ok();
    if let Some(dir) = &dump {
        std::fs::create_dir_all(dir).expect("create dump dir");
    }
    let mut got = Vec::new();
    for (name, msg) in &corpus {
        let bytes = encode_msg(msg);
        if let Some(dir) = &dump {
            let hex: String = bytes
                .chunks(32)
                .map(|row| row.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n")
                .collect();
            std::fs::write(format!("{dir}/{name}.hex"), hex).expect("write dump");
        }
        got.push((*name, bytes[0], bytes.len(), fnv1a(&bytes)));
    }
    let table: String = got
        .iter()
        .map(|(name, tag, len, digest)| format!("    ({name:?}, {tag}, {len}, {digest:#018x}),\n"))
        .collect();
    assert!(got == FROZEN, "wire bytes moved; they read now:\n{table}");
}

#[test]
fn the_corpus_covers_every_tag() {
    let mut tags: Vec<u8> = corpus().iter().map(|(_, m)| encode_msg(m)[0]).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags, (1..=51).collect::<Vec<u8>>());
}

#[test]
fn every_message_decodes_and_reencodes_to_the_same_bytes() {
    for (name, msg) in corpus() {
        let bytes = encode_msg(&msg);
        let back = decode_msg(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(encode_msg(&back), bytes, "{name}: re-encode changed bytes");

        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).expect("write");
        assert_eq!(wire[..4], (bytes.len() as u32).to_be_bytes(), "{name}");
        assert_eq!(wire[4..], bytes[..], "{name}: framing changed the payload");
        let mut cursor = std::io::Cursor::new(wire);
        let framed = read_msg(&mut cursor).expect("read").expect("one message");
        assert_eq!(encode_msg(&framed), bytes, "{name}: framed read");
        assert!(read_msg(&mut cursor).expect("eof").is_none(), "{name}");
    }
}

fn encoded(name: &str) -> Vec<u8> {
    let (_, msg) = corpus()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("corpus entry");
    encode_msg(&msg)
}

fn rejected(what: &str, bytes: &[u8]) {
    assert!(
        decode_msg(bytes).is_err(),
        "{what}: malformed message was accepted"
    );
}

/// Offset of the first byte after a `u32`-length-prefixed string that
/// starts at `at`.
fn after_str(bytes: &[u8], at: usize) -> usize {
    at + 4 + u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

#[test]
fn unknown_tags_are_rejected() {
    rejected("empty", &[]);
    for tag in [0u8, 52, 99, 200, 255] {
        rejected(&format!("tag {tag}"), &[tag, 0, 0, 0, 0, 0, 0, 0, 0]);
    }
}

#[test]
fn unknown_kinds_are_rejected() {
    // Report with only traces: tag, worker, 0 nodes, 0 links, 1 trace,
    // its name, then its kind byte.
    let mut report = full_report();
    report.nodes.clear();
    report.links.clear();
    report.traces.truncate(1);
    let mut b = encode_msg(&Msg::Report(Box::new(report)));
    let kind_at = after_str(&b, 1 + 4 + 4 + 4 + 4);
    assert_eq!(b[kind_at], 0, "SpanBegin");
    for k in [4u8, 9, 0xFF] {
        b[kind_at] = k;
        rejected("event kind", &b);
    }

    // SubmitJob with one group: the selection byte follows the group's
    // name and FAME-5 flag.
    let spec = PartitionSpec::exact(vec![PartitionGroup::instances("g", vec!["top.x".into()])]);
    let mut b = encode_msg(&Msg::SubmitJob {
        tenant: "t".into(),
        budget: 1,
        backend: BACKEND_NET,
        tape: vec![7; 3],
        spec,
        settings: WireSettings::default(),
    });
    let tape_at = after_str(&b, 1) + 8 + 1;
    let name_at = after_str(&b, tape_at) + 1 + 1 + 4;
    let sel_at = after_str(&b, name_at) + 1;
    assert_eq!(b[sel_at], 0, "Instances");
    for k in [2u8, 0x7F] {
        b[sel_at] = k;
        rejected("selection kind", &b);
    }
}

#[test]
fn truncated_blobs_and_prefixes_are_rejected() {
    // A checkpoint that claims 100 blob bytes and carries none.
    let mut b = vec![19u8];
    b.extend_from_slice(&0u32.to_be_bytes());
    b.extend_from_slice(&64u64.to_be_bytes());
    b.extend_from_slice(&100u32.to_be_bytes());
    rejected("checkpoint blob", &b);
    // A blob one byte short.
    for name in ["checkpoint", "restore", "topology", "submit_job"] {
        let b = encoded(name);
        rejected(name, &b[..b.len() - 1]);
    }
    // Every strict prefix of every message that is not a token.
    for (name, msg) in corpus() {
        if matches!(msg, Msg::Token { .. } | Msg::TokenBatch { .. }) {
            continue;
        }
        let b = encode_msg(&msg);
        for cut in 0..b.len() {
            rejected(&format!("{name}[..{cut}]"), &b[..cut]);
        }
    }
}

#[test]
fn counts_larger_than_the_message_are_rejected() {
    // Report: tag, worker, then the node count.
    let mut b = vec![12u8];
    b.extend_from_slice(&0u32.to_be_bytes());
    b.extend_from_slice(&u32::MAX.to_be_bytes());
    rejected("report nodes", &b);
    // One more node than the bytes could hold.
    let mut b = encoded("report");
    b[5..9].copy_from_slice(&3u32.to_be_bytes());
    rejected("report nodes + 1", &b);
    // AttachAck / StatusReply / JobStatusReply lead with a count.
    for name in ["attach_ack", "status_reply", "job_status_reply"] {
        let mut b = encoded(name);
        b[1..5].copy_from_slice(&0x00FF_FFFFu32.to_be_bytes());
        rejected(name, &b);
    }
    // MetricDelta / WaveDelta: tag, node, then the count.
    for name in ["metric_delta", "wave_delta"] {
        let mut b = encoded(name);
        b[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        rejected(name, &b);
    }
    // A string longer than the message.
    let mut b = encoded("peek");
    b[5..9].copy_from_slice(&1000u32.to_be_bytes());
    rejected("peek path", &b);
}

#[test]
fn bad_bits_are_rejected() {
    // PeekReply: tag, node, path, cycle, the Some flag, then the width.
    let b = encoded("peek_reply_some");
    let width_at = after_str(&b, 5) + 8 + 1;
    assert_eq!(b[width_at..width_at + 4], 65u32.to_be_bytes());
    for width in [0u32, (1 << 20) + 1, u32::MAX] {
        let mut bad = b.clone();
        bad[width_at..width_at + 4].copy_from_slice(&width.to_be_bytes());
        rejected(&format!("width {width}"), &bad);
    }
    // Bit 65 of a 65-bit value: above the declared width.
    let mut bad = b.clone();
    bad[width_at + 4 + 8] |= 0b10;
    rejected("bits above the width", &bad);

    // The same rules hold for VCD changes.
    let b = encoded("wave_delta");
    let width_at = 1 + 4 + 4 + 8 + 4;
    assert_eq!(b[width_at..width_at + 4], 1u32.to_be_bytes());
    let mut bad = b.clone();
    bad[width_at..width_at + 4].copy_from_slice(&0u32.to_be_bytes());
    rejected("wave width 0", &bad);
    let mut bad = b.clone();
    bad[width_at + 4] = 0b10;
    rejected("wave bits above the width", &bad);
}

fn corrupt_token_link(bytes: &[u8]) -> Option<u32> {
    match decode_msg(bytes) {
        Ok(Msg::CorruptToken { link }) => Some(link),
        _ => None,
    }
}

#[test]
fn damaged_tokens_degrade_to_corrupt_token() {
    // Token: tag, link, then the frame's seq, crc, delay and width.
    let b = encoded("token");
    let width_at = 1 + 4 + 8 + 4 + 4;
    let mut bad = b.clone();
    bad[width_at] ^= 0xFF;
    assert_eq!(corrupt_token_link(&bad), Some(4), "implausible width");
    let mut bad = b.clone();
    *bad.last_mut().unwrap() |= 0x80;
    assert_eq!(corrupt_token_link(&bad), Some(4), "bits above the width");
    for cut in 5..b.len() {
        assert_eq!(corrupt_token_link(&b[..cut]), Some(4), "token[..{cut}]");
    }
    for cut in 0..5 {
        rejected("token without a link", &b[..cut]);
    }

    // TokenBatch: any damaged frame degrades the whole batch.
    let b = encoded("token_batch");
    let first_width_at = 1 + 4 + 4 + 8 + 4 + 4;
    let mut bad = b.clone();
    bad[first_width_at] ^= 0xFF;
    assert_eq!(corrupt_token_link(&bad), Some(6), "first frame");
    let mut bad = b.clone();
    *bad.last_mut().unwrap() |= 0x80;
    assert_eq!(corrupt_token_link(&bad), Some(6), "last frame");
    let mut bad = b.clone();
    bad[5..9].copy_from_slice(&5u32.to_be_bytes());
    assert!(
        matches!(decode_msg(&bad), Ok(Msg::CorruptToken { link: 6 }) | Err(_)),
        "a count past the frames present must not decode as a batch"
    );
    for cut in 9..b.len() {
        assert!(
            matches!(
                decode_msg(&b[..cut]),
                Ok(Msg::CorruptToken { link: 6 }) | Err(_)
            ),
            "token_batch[..{cut}]"
        );
    }
}
