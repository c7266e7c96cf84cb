//! Hostile bytes against every decoder of outside bytes.
//!
//! Five byte formats arrive from outside a process, all written with the
//! one codec in `fireaxe_ir::codec`: circuit tapes, partition payloads,
//! state blobs, protocol messages and reliability frames. Each is fed
//! every strict prefix and seeded single-byte flips of real encodings
//! through the shared harness in `hostile/mod.rs`: an input is refused,
//! or decodes to exactly the value its bytes describe, without a panic
//! and without an allocation past a small multiple of the input. State
//! blobs go through the same harness in `state_blobs.rs`, where they are
//! restored into a running simulation. A token whose frame is damaged
//! degrades to `CorruptToken` instead (`wire_golden.rs` freezes that).
//!
//! Expressions nest through tagged unions, so the codec caps nesting: a
//! tape nested deeper than the cap is refused before it can exhaust the
//! stack.

use fireaxe::ir::codec::{Wire, MAX_DEPTH};
use fireaxe::ir::tape::{TAPE_MAGIC, TAPE_VERSION};
use fireaxe::ir::{circuit_from_tape, circuit_to_tape, Expr, IrError};
use fireaxe::net::codec::{decode_msg, encode_msg, Msg, NodeReport};
use fireaxe::net::{decode_partition_payload, encode_partition_payload, WireReport};
use fireaxe::obs::{NodeSample, VcdSignal};
use fireaxe::prelude::*;
use fireaxe::sim::PartitionCut;
use fireaxe::transport::reliable::Frame;
use hostile::refused_or_exact;

mod hostile;

/// A two-tile crossbar SoC and the payload of its one-tile partition:
/// extern models, memories, both channel directions and fast-mode
/// seeds.
fn xbar_cut() -> (Circuit, Vec<u8>) {
    let soc = xbar_soc(&XbarSocConfig {
        tiles: 2,
        trace_bits: 16,
        ..Default::default()
    });
    let spec = PartitionSpec::fast(vec![PartitionGroup::instances(
        "left",
        vec!["tile0".into()],
    )]);
    let (design, sim) = FireAxe::new(soc.circuit.clone(), spec)
        .observe(ObsSpec {
            sample_interval: 10,
            vcd: true,
            signals: Vec::new(),
        })
        .backend(Backend::Net)
        .build()
        .expect("flow builds");
    let payload = encode_partition_payload(&PartitionCut::of(&design, &sim, 0));
    (soc.circuit, payload)
}

#[test]
fn damaged_tapes_are_refused_or_decoded_exactly() {
    let (circuit, _) = xbar_cut();
    refused_or_exact("xbar tape", &circuit_to_tape(&circuit), |b| {
        circuit_from_tape(b).map(|c| circuit_to_tape(&c))
    });
}

#[test]
fn damaged_partition_payloads_are_refused_or_decoded_exactly() {
    let (_, payload) = xbar_cut();
    refused_or_exact("xbar payload", &payload, |b| {
        decode_partition_payload(b).map(|cut| encode_partition_payload(&cut))
    });
}

#[test]
fn damaged_frames_are_refused_or_decoded_exactly() {
    for width in [0u32, 1, 64, 65, 200] {
        let payload = Bits::from_words(&[0xDEAD_BEEF_F00D_5EED, 3, 5, 7], width);
        let mut bytes = Vec::new();
        Frame::seal(0x0123_4567_89AB, payload).encode_bytes(&mut bytes);
        refused_or_exact(&format!("frame of width {width}"), &bytes, |b| {
            let mut pos = 0;
            let frame = Frame::decode_bytes(b, &mut pos)?;
            if pos != b.len() {
                return Err(format!("{} trailing bytes", b.len() - pos));
            }
            let mut again = Vec::new();
            frame.encode_bytes(&mut again);
            Ok(again)
        });
    }
}

#[test]
fn damaged_messages_are_refused_or_decoded_exactly() {
    let (circuit, payload) = xbar_cut();
    let sample = NodeSample {
        cycle: 40,
        host_ns: 7,
        state_digest: 0x5EED,
        ..Default::default()
    };
    let corpus = [
        Msg::Topology(Box::new(fireaxe::net::Topology {
            worker: 1,
            n_workers: 2,
            settings: Default::default(),
            payloads: vec![payload],
        })),
        Msg::SubmitJob {
            tenant: "t".into(),
            budget: 300,
            backend: 0,
            tape: circuit_to_tape(&circuit),
            spec: PartitionSpec::exact(vec![PartitionGroup::instances(
                "left",
                vec!["tile0".into()],
            )]),
            settings: Default::default(),
        },
        Msg::Report(Box::new(WireReport {
            worker: 0,
            nodes: vec![NodeReport {
                node: 1,
                counters: NodeCounters::default(),
                samples: vec![sample; 3],
                vcd: vec![(3, 1, Bits::from_u64(5, 3)), (9, 0, Bits::ones(70))],
            }],
            links: Vec::new(),
            traces: Vec::new(),
        })),
        Msg::PeekReply {
            node: 2,
            path: "tile0.acc".into(),
            cycle: 12,
            value: Some(Bits::from_words(&[1, 2], 100)),
        },
        Msg::AttachAck {
            nodes: Vec::new(),
            signals: vec![VcdSignal {
                scope: "tile0".into(),
                name: "acc".into(),
                width: 16,
            }],
            sample_interval: 10,
        },
        Msg::Restore {
            epoch: 1,
            cycle: 64,
            blob: vec![0xA5; 40],
        },
    ];
    for msg in corpus {
        let name = format!("{msg:?}").chars().take(24).collect::<String>();
        refused_or_exact(&name, &encode_msg(&msg), |b| {
            decode_msg(b).map(|m| encode_msg(&m))
        });
    }
}

/// A tape whose one statement is `n = ~~…~~1'1` with `depth` nots.
fn nested_tape(depth: usize) -> Vec<u8> {
    let mut t = TAPE_MAGIC.to_vec();
    t.push(TAPE_VERSION);
    let name = String::from("Deep");
    name.put(&mut t); // circuit name
    1u32.put(&mut t); // one module
    name.put(&mut t);
    0u32.put(&mut t); // no ports
    1u32.put(&mut t); // one statement: `node n = …`
    t.push(1);
    String::from("n").put(&mut t);
    for _ in 0..depth {
        t.extend_from_slice(&[2, 0]); // `Unary(Not, …)`
    }
    Expr::Lit(Bits::from_u64(1, 1)).put(&mut t);
    t.push(0); // no extern info
    name.put(&mut t); // top
    t
}

/// Runs `f` on a thread with the stack a process's main thread gets
/// (8 MiB), where workers decode their payloads. Decoding up to the cap
/// needs about half of that optimised; unoptimised frames are several
/// times larger, so a debug build gets 32 MiB.
fn on_a_main_thread_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let mib = if cfg!(debug_assertions) { 32 } else { 8 };
    std::thread::Builder::new()
        .stack_size(mib << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

#[test]
fn a_tape_nested_past_the_cap_is_refused() {
    let err = on_a_main_thread_stack(|| circuit_from_tape(&nested_tape(20_000))).unwrap_err();
    assert!(
        matches!(&err, IrError::Malformed { message } if message.contains("nest deeper")),
        "{err}"
    );
    // Just inside the cap it decodes; the statement and the literal are
    // levels too.
    let depth = MAX_DEPTH as usize - 2;
    on_a_main_thread_stack(move || {
        let circuit = circuit_from_tape(&nested_tape(depth)).expect("within the cap");
        assert_eq!(circuit_to_tape(&circuit), nested_tape(depth));
        assert!(circuit_from_tape(&nested_tape(depth + 1)).is_err());
    });
}
