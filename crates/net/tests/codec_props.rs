//! Property tests for the wire codec: arbitrary go-back-N frames and
//! control messages must survive an encode → frame → decode round trip
//! byte-identically, including degenerate payload widths (zero-width
//! tokens, widths straddling word boundaries) and extreme sequence
//! numbers. The codec is the one place a representation bug silently
//! breaks cross-process parity, so it gets the widest input coverage.

use fireaxe_ir::Bits;
use fireaxe_net::codec::{decode_msg, encode_msg, read_msg, write_msg, JobInfo, Msg, ServeStats};
use fireaxe_net::{decode_partition_payload, encode_partition_payload, Topology, WireSettings};
use fireaxe_transport::reliable::Frame;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A real partition payload: the middle partition of a 4-tile ring cut
/// in three, with waveform capture on so every table is populated.
fn real_payload() -> &'static [u8] {
    static PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let soc = fireaxe_soc::ring_soc(&fireaxe_soc::RingSocConfig::default());
        let groups = (0..2)
            .map(|g| fireaxe_ripper::PartitionGroup {
                name: format!("fpga{g}"),
                selection: fireaxe_ripper::Selection::NocRouters {
                    routers: soc.router_paths.clone(),
                    indices: vec![2 * g, 2 * g + 1],
                },
                fame5: false,
            })
            .collect();
        let settings = WireSettings {
            vcd: true,
            ..WireSettings::default()
        };
        fn setup(b: fireaxe_sim::SimBuilder<'_>) -> fireaxe_sim::SimBuilder<'_> {
            let mut r = fireaxe_sim::BehaviorRegistry::new();
            r.register_fallback(fireaxe_soc::make_behavior);
            b.behaviors(r)
        }
        let spec = fireaxe_ripper::PartitionSpec::exact(groups);
        let prepared =
            fireaxe_net::prepare_job(&soc.circuit, &spec, &settings, &setup).expect("prepare");
        prepared.partition_payload(1).to_vec()
    })
}

/// Arbitrary token payloads: widths 0..=256 (zero-width pulses up to
/// multi-word values), bits drawn from four words and truncated to
/// width by the `Bits` constructor.
fn any_bits() -> impl Strategy<Value = Bits> {
    (0u32..257, proptest::collection::vec(any::<u64>(), 4))
        .prop_map(|(width, words)| Bits::from_words(&words, width))
}

fn any_frame() -> impl Strategy<Value = Frame> {
    (any::<u64>(), any_bits(), any::<u32>()).prop_map(|(seq, payload, delay)| {
        let mut f = Frame::seal(seq, payload);
        f.delay_quanta = delay;
        f
    })
}

/// Encode → decode → re-encode, plus a pass through the framed stream
/// reader, asserting byte and value identity at each hop.
fn assert_roundtrip(msg: &Msg) {
    let bytes = encode_msg(msg);
    let decoded = decode_msg(&bytes).expect("decode");
    assert_eq!(encode_msg(&decoded), bytes, "re-encode changed bytes");

    let mut wire = Vec::new();
    write_msg(&mut wire, msg).expect("write");
    let mut cursor = std::io::Cursor::new(wire);
    let read_back = read_msg(&mut cursor).expect("read").expect("not EOF");
    assert_eq!(encode_msg(&read_back), bytes, "framed read changed bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn token_frames_roundtrip(link in any::<u32>(), frame in any_frame()) {
        assert_roundtrip(&Msg::Token { link, frame });
    }

    #[test]
    fn sealed_frames_stay_intact_across_the_wire(link in any::<u32>(), seq in any::<u64>(), payload in any_bits()) {
        let msg = Msg::Token { link, frame: Frame::seal(seq, payload) };
        let bytes = encode_msg(&msg);
        let Msg::Token { frame, .. } = decode_msg(&bytes).expect("decode") else {
            panic!("token decoded as a different message");
        };
        // The CRC sealed on one process must still verify on another.
        prop_assert!(frame.intact());
        prop_assert_eq!(frame.seq, seq);
    }

    #[test]
    fn control_messages_roundtrip(link in any::<u32>(), ack in any::<u64>(), amount in any::<u32>(), cycle in any::<u64>()) {
        assert_roundtrip(&Msg::Ack { link, ack });
        assert_roundtrip(&Msg::Credit { link, amount });
        assert_roundtrip(&Msg::Progress { cycle });
        assert_roundtrip(&Msg::Done { cycle });
        assert_roundtrip(&Msg::Run { budget: cycle });
        assert_roundtrip(&Msg::CorruptToken { link });
    }

    #[test]
    fn job_control_messages_roundtrip(
        job in any::<u64>(),
        tenant_seed in any::<u32>(),
        budget in any::<u64>(),
        backend in 0u8..2,
        tape in proptest::collection::vec(any::<u8>(), 0..64),
        state in 0u8..5,
        cycle in any::<u64>(),
        hits in any::<u64>(),
        reason_seed in any::<u64>(),
    ) {
        let tenant = format!("tenant-{tenant_seed:x}");
        let reason = format!("evicted: reason {reason_seed} \u{2014} over budget");
        assert_roundtrip(&Msg::ResetToIdle);
        assert_roundtrip(&Msg::IdleAck);
        assert_roundtrip(&Msg::SubmitJob {
            tenant: tenant.clone(),
            budget,
            backend,
            tape: tape.clone(),
            spec: fireaxe_ripper::PartitionSpec::exact(Vec::new()),
            settings: WireSettings::default(),
        });
        assert_roundtrip(&Msg::JobAccepted { job });
        assert_roundtrip(&Msg::JobStatus { job });
        assert_roundtrip(&Msg::JobStatusReply {
            jobs: vec![JobInfo {
                job,
                tenant: tenant.clone(),
                state,
                backend,
                budget,
                cycle,
                cache_hit: hits & 1 == 1,
                workers: (budget % 7) as u32,
            }],
            stats: ServeStats {
                cache_hits: hits,
                cache_misses: hits.wrapping_add(1),
                cache_entries: (hits % 13) as u32,
                cache_evictions: hits / 3,
                pool_idle: (hits % 5) as u32,
                pool_busy: (hits % 3) as u32,
            },
        });
        assert_roundtrip(&Msg::JobResult {
            job,
            outcome: state.clamp(2, 4),
            error: reason.clone(),
            cycles: cycle,
            cache_hit: hits & 1 == 0,
            admission_micros: budget / 2,
            metrics_json: format!("{{\"target_cycles\":{cycle}}}"),
            series_json: String::from("{}"),
            vcd: String::from("$date$end"),
        });
        assert_roundtrip(&Msg::CancelJob { job });
        assert_roundtrip(&Msg::EvictJob { job, reason });
    }

    #[test]
    fn topologies_roundtrip(
        worker in any::<u32>(),
        n_workers in any::<u32>(),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..4),
        sample_interval in any::<u64>(),
        vcd in any::<bool>(),
        checkpoint_interval in any::<u64>(),
    ) {
        assert_roundtrip(&Msg::Topology(Box::new(Topology {
            worker,
            n_workers,
            settings: WireSettings {
                sample_interval,
                vcd,
                checkpoint_interval,
                ..WireSettings::default()
            },
            payloads,
        })));
    }

    #[test]
    fn damaged_partition_payloads_never_panic(cut in any::<usize>(), at in any::<usize>(), flip in 1u8..255) {
        // The payload is canonical; any strict prefix is refused; a
        // flipped byte is refused or decodes, and never panics.
        let payload = real_payload();
        let whole = decode_partition_payload(payload).expect("decode");
        prop_assert_eq!(encode_partition_payload(&whole), payload.to_vec());
        prop_assert!(decode_partition_payload(&payload[..cut % payload.len()]).is_err());
        let mut bad = payload.to_vec();
        bad[at % payload.len()] ^= flip;
        let _ = decode_partition_payload(&bad);
    }

    #[test]
    fn truncated_buffers_never_panic(frame in any_frame(), cut in any::<usize>()) {
        let bytes = encode_msg(&Msg::Token { link: 7, frame });
        let cut = cut % bytes.len().max(1);
        // Any prefix must fail cleanly (or degrade to CorruptToken),
        // never panic or loop.
        let _ = decode_msg(&bytes[..cut]);
    }
}
