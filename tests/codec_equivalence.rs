//! Decode equivalence of the tape and partition payload formats.
//!
//! Whatever bytes the formats put on the wire, decoding what was encoded
//! must give back the value itself. Every circuit of the ripper golden
//! corpus designs — each input circuit and every thread circuit of its
//! compiled cut — and the `ring32` and RocketLite benchmark designs
//! round-trip through a circuit tape to an equal `Circuit`, and every
//! partition payload of the `noc6` and `soc24` cuts round-trips to an
//! equal `PartitionCut`. Both encodings are canonical: re-encoding the
//! decoded value gives the same bytes.

use fireaxe::ir::{circuit_from_tape, circuit_to_tape};
use fireaxe::net::{decode_partition_payload, encode_partition_payload};
use fireaxe::prelude::*;
use fireaxe::ripper::PartitionedDesign;
use fireaxe::sim::PartitionCut;
use fireaxe::soc::noc::{ring_noc_circuit, NocConfig};
use fireaxe::soc::validation::rocket_soc;

/// `groups` NoC-mode groups of `per` consecutive routers each.
fn noc_groups(router_paths: &[String], groups: usize, per: usize) -> Vec<PartitionGroup> {
    (0..groups)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: router_paths.to_vec(),
                indices: (g * per..(g + 1) * per).collect(),
            },
            fame5: false,
        })
        .collect()
}

/// The `noc6` cut of the reference benchmark: 6 tiles, 3 × 2 routers.
fn noc6() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 3, 2);
    (soc.circuit, PartitionSpec::exact(groups))
}

/// The `soc24` cut (paper Fig. 6): 24 tiles, 4 × 6 routers.
fn soc24() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        bug_after: u64::MAX / 2,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 4, 6);
    (soc.circuit, PartitionSpec::exact(groups))
}

/// The golden corpus's four-level hierarchy with repeated modules.
fn nested() -> Circuit {
    let mut leaf = ModuleBuilder::new("Pe");
    let a = leaf.input("a", 8);
    let b = leaf.input("b", 8);
    let y = leaf.output("y", 8);
    let z = leaf.output("z", 8);
    let acc = leaf.reg("acc", 8, 0);
    leaf.connect_sig(&acc, &a.add(&b));
    leaf.connect_sig(&y, &acc);
    leaf.connect_sig(&z, &acc.xor(&Sig::lit(0x5a, 8)));
    let leaf = leaf.finish();

    let mut lane = ModuleBuilder::new("Lane");
    let i = lane.input("i", 8);
    let clash = lane.input("p0_a", 8);
    let o = lane.output("o", 8);
    lane.inst("p0", "Pe");
    lane.inst("p1", "Pe");
    lane.connect_inst("p0", "a", &i);
    lane.connect_inst("p0", "b", &clash);
    let p0y = lane.inst_port("p0", "y");
    lane.connect_inst("p1", "a", &p0y);
    let p0z = lane.inst_port("p0", "z");
    lane.connect_inst("p1", "b", &p0z.add(&Sig::lit(1, 8)));
    let p1y = lane.inst_port("p1", "y");
    let p1z = lane.inst_port("p1", "z");
    let mix = lane.node("mix", &p1y.xor(&p1z));
    lane.connect_sig(&o, &mix);
    let lane = lane.finish();

    let mut cluster = ModuleBuilder::new("Cluster");
    let i = cluster.input("i", 8);
    let o = cluster.output("o", 8);
    cluster.inst("l0", "Lane");
    cluster.inst("l1", "Lane");
    cluster.connect_inst("l0", "i", &i);
    cluster.connect_inst("l0", "p0_a", &i);
    let l0o = cluster.inst_port("l0", "o");
    cluster.connect_inst("l1", "i", &l0o);
    cluster.connect_inst("l1", "p0_a", &Sig::lit(3, 8));
    let l1o = cluster.inst_port("l1", "o");
    cluster.connect_sig(&o, &l1o);
    let cluster = cluster.finish();

    let mut top = ModuleBuilder::new("Nested");
    let i = top.input("i", 8);
    let o = top.output("o", 8);
    top.inst("c0", "Cluster");
    top.inst("c1", "Cluster");
    top.connect_inst("c0", "i", &i);
    let c0o = top.inst_port("c0", "o");
    let hub = top.reg("hub", 8, 0);
    top.connect_sig(&hub, &c0o);
    top.connect_inst("c1", "i", &hub);
    let c1o = top.inst_port("c1", "o");
    top.connect_sig(&o, &c1o);
    Circuit::from_modules("Nested", vec![top.finish(), cluster, lane, leaf], "Nested")
}

fn tiles(names: &[usize]) -> Vec<String> {
    names.iter().map(|i| format!("tile{i}")).collect()
}

/// The golden corpus: each design with the spec it is cut by.
fn golden_designs() -> Vec<(&'static str, Circuit, PartitionSpec)> {
    let (noc6, noc6_spec) = noc6();
    let (soc24, soc24_spec) = soc24();
    let ring12 = ring_soc(&RingSocConfig {
        tiles: 12,
        ..Default::default()
    });
    let xbar = xbar_soc(&XbarSocConfig {
        tiles: 4,
        trace_bits: 16,
        ..Default::default()
    });
    let xbar5 = xbar_soc(&XbarSocConfig {
        tiles: 4,
        tile_period: 4,
        ..Default::default()
    });
    let ring6 = ring_soc(&RingSocConfig {
        tiles: 6,
        ..Default::default()
    });
    let mixed = PartitionSpec::exact(vec![
        PartitionGroup::instances(
            "hand",
            vec![
                "noc.proto.phys.r4".into(),
                "tile4".into(),
                "noc.cdc4".into(),
                "noc.proto.pc4".into(),
            ],
        ),
        PartitionGroup {
            name: "grown".into(),
            selection: Selection::NocRouters {
                routers: ring6.router_paths.clone(),
                indices: vec![0, 1],
            },
            fame5: false,
        },
    ]);
    vec![
        ("noc6", noc6, noc6_spec),
        ("soc24", soc24, soc24_spec),
        (
            "ring12_fast",
            ring12.circuit,
            PartitionSpec::fast(noc_groups(&ring12.router_paths, 2, 4)),
        ),
        (
            "xbar",
            xbar.circuit,
            PartitionSpec::exact(vec![
                PartitionGroup::instances("left", tiles(&[0, 1])),
                PartitionGroup::instances("right", tiles(&[3])),
            ]),
        ),
        (
            "xbar_fame5",
            xbar5.circuit,
            PartitionSpec::fast(vec![PartitionGroup::instances(
                "tiles",
                tiles(&[0, 1, 2, 3]),
            )
            .with_fame5()]),
        ),
        (
            "nested",
            nested(),
            PartitionSpec::exact(vec![
                PartitionGroup::instances("a", vec!["c0.l0.p0".into(), "c0.l1.p1".into()]),
                PartitionGroup::instances("b", vec!["c1.l0".into(), "c0.l0.p1".into()]),
            ]),
        ),
        ("ring_mixed", ring6.circuit, mixed),
        (
            "rocket",
            rocket_soc(4, 16),
            PartitionSpec::exact(vec![PartitionGroup::instances(
                "core",
                vec!["master".into()],
            )]),
        ),
    ]
}

/// Decoding a circuit's tape gives the circuit, and re-encoding it the
/// same tape.
fn tape_round_trips(name: &str, circuit: &Circuit) {
    let tape = circuit_to_tape(circuit);
    let back = circuit_from_tape(&tape).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        back == *circuit,
        "{name}: the tape decodes to another circuit"
    );
    assert!(circuit_to_tape(&back) == tape, "{name}: re-encoding moved");
}

fn thread_circuits(design: &PartitionedDesign) -> impl Iterator<Item = (String, &Circuit)> {
    design.partitions.iter().flat_map(|p| {
        p.threads
            .iter()
            .map(move |t| (format!("{}/{}", p.name, t.name), &t.circuit))
    })
}

#[test]
fn golden_corpus_circuits_round_trip_through_the_tape() {
    for (name, circuit, spec) in golden_designs() {
        tape_round_trips(name, &circuit);
        let design = compile(&circuit, &spec).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for (thread, c) in thread_circuits(&design) {
            tape_round_trips(&format!("{name}:{thread}"), c);
        }
    }
}

#[test]
fn benchmark_circuits_round_trip_through_the_tape() {
    let ring32 = ring_noc_circuit(&NocConfig {
        nodes: 32,
        payload_bits: 32,
    });
    tape_round_trips("ring32", &ring32);
    tape_round_trips("rocket", &rocket_soc(30, 16));
}

/// Every partition payload of a whole-design `Backend::Net` build of the
/// cut decodes to the `PartitionCut` it was encoded from.
fn payloads_round_trip((circuit, spec): (Circuit, PartitionSpec), parts: usize) {
    let (design, sim) = FireAxe::new(circuit, spec)
        .observe(ObsSpec {
            sample_interval: 50,
            vcd: true,
            signals: Vec::new(),
        })
        .backend(Backend::Net)
        .build()
        .expect("flow builds");
    assert_eq!(design.partitions.len(), parts);
    for p in 0..parts {
        let cut = PartitionCut::of(&design, &sim, p);
        let bytes = encode_partition_payload(&cut);
        let back = decode_partition_payload(&bytes).unwrap_or_else(|e| panic!("{p}: {e}"));
        assert!(
            format!("{back:?}") == format!("{cut:?}"),
            "partition {p} decodes to another cut"
        );
        assert!(
            encode_partition_payload(&back) == bytes,
            "{p}: re-encoding moved"
        );
    }
}

#[test]
fn noc6_partition_payloads_round_trip() {
    payloads_round_trip(noc6(), 4);
}

#[test]
fn soc24_partition_payloads_round_trip() {
    payloads_round_trip(soc24(), 5);
}
