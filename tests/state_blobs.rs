//! Frozen bytes of the portable state codec.
//!
//! A partition's `snapshot_partition_bytes` blob is what a cluster
//! checkpoint ships to the coordinator and what a respawned or pooled
//! worker restores from, and an `Interpreter::snapshot_bytes` blob is its
//! innermost layer. Both are a function of the design and the cycle only,
//! and both are a wire format: a rewrite of any layer that captures or
//! restores state must reproduce them byte for byte.
//!
//! Each blob is checked by length and FNV-1a digest against frozen
//! values: the tables were re-frozen when the blobs moved to the shared
//! byte codec's `u32` length prefixes, the only bytes that moved. On a
//! mismatch the test prints the table it got in source form; run the
//! suite on the reference tree with `STATE_BLOBS_DUMP=<dir>` to write
//! every blob to a file and compare those.
//!
//! A worker's own-partition builds are checked against the whole-design
//! `Backend::Net` blobs frozen here in `own_partition_blobs.rs`, a binary
//! of its own: `prepare_job` turns the tracer on for the rest of the
//! process, after which metric samples carry host time.
//!
//! The blobs also arrive off a socket (`Msg::Restore`), so the second
//! half feeds the decoders every strict prefix and seeded single-byte
//! corruptions of each frozen blob through the hostile-bytes harness
//! (`hostile/mod.rs`, shared with `hostile_bytes.rs`): a restore either
//! refuses or lands on exactly the state the bytes describe, and never
//! asks the allocator for more than a small multiple of the blob.

use fireaxe::ir::{
    state_fields, CombPath, Dec, ExternBehavior, ExternInfo, Module, Port, PortWriter,
    ResourceHints,
};
use fireaxe::net::{
    build_partitions, encode_partition_payload, restore_checkpoint, session_checkpoint,
    WireSettings,
};
use fireaxe::prelude::*;
use fireaxe::sim::{PartitionCut, SimError};
use hostile::{bounded_by, damaged, fnv1a};
use std::collections::BTreeMap;

mod hostile;

/// Checks blobs against their frozen `(length, digest)` rows.
fn check(name: &str, blobs: &[Vec<u8>], frozen: &[(usize, u64)]) {
    if let Ok(dir) = std::env::var("STATE_BLOBS_DUMP") {
        std::fs::create_dir_all(&dir).unwrap();
        for (i, b) in blobs.iter().enumerate() {
            std::fs::write(format!("{dir}/{name}.{i}.bin"), b).unwrap();
        }
    }
    let got: Vec<(usize, u64)> = blobs.iter().map(|b| (b.len(), fnv1a(b))).collect();
    let table: String = got
        .iter()
        .map(|(len, digest)| format!("    ({len}, {digest:#018x}),\n"))
        .collect();
    assert!(
        got == frozen,
        "state blobs moved on `{name}`; they read now:\n{table}"
    );
}

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
fn noc6_cut() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 3, 2);
    (soc.circuit, PartitionSpec::exact(groups))
}

fn noc6() -> FireAxe {
    let (circuit, spec) = noc6_cut();
    FireAxe::new(circuit, spec)
}

/// The `soc24` cut (paper Fig. 6): 24 tiles, 4 × 6 routers.
fn soc24_cut() -> (Circuit, PartitionSpec) {
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

fn soc24() -> FireAxe {
    let (circuit, spec) = soc24_cut();
    FireAxe::new(circuit, spec)
}

/// `noc6` with metric sampling and waveform capture on, so the blobs
/// carry an observation log.
fn noc6_observed() -> FireAxe {
    noc6().observe(ObsSpec {
        sample_interval: 50,
        vcd: true,
        signals: Vec::new(),
    })
}

fn built(flow: FireAxe) -> DistributedSim {
    flow.build().expect("flow builds").1
}

fn partitions(sim: &DistributedSim) -> usize {
    let counters = sim.metrics().counters;
    counters.iter().map(|c| c.partition).max().unwrap() + 1
}

fn partition_blobs(sim: &DistributedSim) -> Vec<Vec<u8>> {
    (0..partitions(sim))
        .map(|p| sim.snapshot_partition_bytes(p).expect("portable state"))
        .collect()
}

/// Extern model with a scalar and a queue of state.
#[derive(Debug, Default)]
struct Tally {
    sum: u64,
    recent: std::collections::VecDeque<u64>,
}

impl ExternBehavior for Tally {
    state_fields!(sum, recent);

    fn reset(&mut self) {
        self.sum = 0;
        self.recent.clear();
    }
    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("sum", self.sum);
    }
    fn comb_outputs(&mut self, inputs: &BTreeMap<String, Bits>, out: &mut PortWriter<'_>) {
        out.set_u64("mix", inputs["x"].to_u64() ^ self.sum);
    }
    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        let x = inputs["x"].to_u64();
        self.sum = self.sum.wrapping_mul(5).wrapping_add(x);
        self.recent.push_back(x);
        if self.recent.len() > 3 {
            self.recent.pop_front();
        }
    }
}

/// A design with registers of three widths, a memory and an extern.
fn mem_and_extern() -> Circuit {
    let mut e = Module::new("Tally");
    e.ports.push(Port::input("x", 16));
    e.ports.push(Port::output("mix", 16));
    e.ports.push(Port::output("sum", 16));
    e.extern_info = Some(ExternInfo {
        behavior: "tally".into(),
        comb_paths: vec![CombPath {
            input: "x".into(),
            output: "mix".into(),
        }],
        resources: ResourceHints::default(),
    });

    let mut top = ModuleBuilder::new("Top");
    let i = top.input("i", 16);
    let o = top.output("o", 16);
    let wide = top.output("wide", 100);
    top.inst("t", "Tally");
    top.connect_inst("t", "x", &i);
    let mix = top.inst_port("t", "mix");
    let sum = top.inst_port("t", "sum");
    let count = top.reg("count", 3, 0);
    top.connect_sig(&count, &count.add(&Sig::lit(1, 3)));
    let acc = top.reg("acc", 100, 1);
    top.connect_sig(&acc, &acc.add(&acc).xor(&mix.resize(100)));
    let mem = top.mem("store", 12, 8);
    top.mem_write(&mem, &count, &mix.resize(12), &Sig::lit(1, 1));
    let rd = top.mem_read("rd", &mem, &i.bits(2, 0));
    top.connect_sig(&o, &rd.resize(16).xor(&sum));
    top.connect_sig(&wide, &acc);
    Circuit::from_modules("Top", vec![top.finish(), e], "Top")
}

fn interp() -> Interpreter {
    let mut sim = Interpreter::new(&mem_and_extern()).unwrap();
    sim.bind_behavior("t", Box::<Tally>::default()).unwrap();
    sim
}

fn drive(sim: &mut Interpreter, cycles: std::ops::Range<u64>) {
    for c in cycles {
        sim.poke("i", Bits::from_u64(c.wrapping_mul(0x9E37) ^ 0x5a5a, 16));
        sim.step().unwrap();
    }
}

#[test]
fn noc6_partition_blobs_at_cycle_137() {
    let mut sim = built(noc6_observed());
    sim.run_target_cycles(137).unwrap();
    check("noc6_137", &partition_blobs(&sim), NOC6_137);
}

#[test]
fn soc24_partition_blobs_at_cycle_300() {
    let mut sim = built(soc24());
    sim.run_target_cycles(300).unwrap();
    check("soc24_300", &partition_blobs(&sim), SOC24_300);
}

/// FNV-1a of a VCD signal table, one `scope\0name\0width\n` row per
/// signal in identifier order.
fn vcd_table_digest(table: &[fireaxe::obs::VcdSignal]) -> u64 {
    let rows: String = table
        .iter()
        .map(|s| format!("{}\0{}\0{}\n", s.scope, s.name, s.width))
        .collect();
    fnv1a(rows.as_bytes())
}

/// A `Backend::Net` build's cycle-0 blobs — what a pooled worker captures
/// as its rewind point — and its VCD signal table digest.
fn net_cycle0(flow: FireAxe) -> (Vec<Vec<u8>>, u64) {
    let sim = built(flow.backend(Backend::Net));
    (
        partition_blobs(&sim),
        vcd_table_digest(sim.vcd_signal_table()),
    )
}

#[test]
fn noc6_net_build_blobs_at_cycle_0() {
    let (blobs, vcd) = net_cycle0(noc6_observed());
    check("noc6_net_0", &blobs, NOC6_NET_0);
    assert_eq!(vcd, NOC6_NET_VCD, "noc6 VCD signal table moved");
}

#[test]
fn soc24_net_build_blobs_at_cycle_0() {
    let (blobs, vcd) = net_cycle0(soc24());
    check("soc24_net_0", &blobs, SOC24_NET_0);
    assert_eq!(vcd, SOC24_NET_VCD, "soc24 VCD signal table moved");
}

fn soc_behaviors(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut registry = BehaviorRegistry::new();
    fireaxe::register_soc_behaviors(&mut registry);
    b.behaviors(registry)
}

#[test]
fn interpreter_blob_with_a_memory_and_a_bound_extern() {
    let mut sim = interp();
    drive(&mut sim, 0..23);
    check("interp_23", &[sim.snapshot_bytes().unwrap()], INTERP_23);
}

#[test]
fn interpreter_restore_then_replay_lands_on_the_same_bytes() {
    let mut sim = interp();
    drive(&mut sim, 0..23);
    let at_23 = sim.snapshot_bytes().unwrap();
    drive(&mut sim, 23..40);
    let at_40 = sim.snapshot_bytes().unwrap();
    assert_ne!(at_23, at_40);

    assert!(sim.restore_snapshot_bytes(&at_23));
    assert_eq!(sim.cycle(), 23);
    assert_eq!(sim.snapshot_bytes().unwrap(), at_23, "restore is exact");
    drive(&mut sim, 23..40);
    assert_eq!(sim.snapshot_bytes().unwrap(), at_40, "replay is exact");

    // A blob rehydrates into a fresh interpreter over the same design.
    let mut fresh = interp();
    assert!(fresh.restore_snapshot_bytes(&at_23));
    drive(&mut fresh, 23..40);
    assert_eq!(fresh.snapshot_bytes().unwrap(), at_40);
}

#[test]
fn interpreter_rejects_a_blob_from_a_different_design() {
    let mut other = Interpreter::new(&{
        let mut mb = ModuleBuilder::new("Other");
        let i = mb.input("i", 16);
        let o = mb.output("o", 16);
        let r = mb.reg("r", 16, 0);
        mb.connect_sig(&r, &r.add(&i));
        mb.connect_sig(&o, &r);
        Circuit::from_modules("Other", vec![mb.finish()], "Other")
    })
    .unwrap();
    other.step().unwrap();
    let foreign = other.snapshot_bytes().unwrap();

    let mut sim = interp();
    drive(&mut sim, 0..23);
    let before = sim.snapshot_bytes().unwrap();
    assert!(!sim.restore_snapshot_bytes(&foreign));
    assert!(!sim.restore_snapshot_bytes(&before[..before.len() - 1]));
    assert!(!sim.restore_snapshot_bytes(&[before.as_slice(), &[0]].concat()));
    assert_eq!(sim.snapshot_bytes().unwrap(), before, "state untouched");
    assert!(!other.restore_snapshot_bytes(&before));
    assert_eq!(other.snapshot_bytes().unwrap(), foreign, "state untouched");
}

#[test]
fn an_unbound_or_stateless_extern_has_no_blob() {
    #[derive(Debug)]
    struct Opaque;
    impl ExternBehavior for Opaque {
        fn reset(&mut self) {}
        fn source_outputs(&mut self, _: &mut PortWriter<'_>) {}
        fn tick(&mut self, _: &BTreeMap<String, Bits>) {}
    }
    let mut sim = Interpreter::new(&mem_and_extern()).unwrap();
    assert!(sim.snapshot_bytes().is_none(), "unbound");
    sim.bind_behavior("t", Box::new(Opaque)).unwrap();
    assert!(sim.snapshot_bytes().is_none(), "no state declared");
}

fn node_digests(sim: &DistributedSim) -> Vec<u64> {
    (0..sim.metrics().counters.len())
        .map(|n| sim.node_state_digest(n))
        .collect()
}

#[test]
fn checkpoint_restore_then_replay_lands_on_the_same_blobs() {
    let mut sim = built(noc6());
    sim.run_target_cycles(137).unwrap();
    let at_137 = node_digests(&sim);
    let ckpt = sim.checkpoint().unwrap();
    assert_eq!(ckpt.target_cycles(), 137);
    sim.run_target_cycles(250).unwrap();
    let at_250 = partition_blobs(&sim);
    assert_ne!(node_digests(&sim), at_137);

    // The blob also carries each node's observation clock, which an
    // in-process rollback leaves running; the replay brings it back to
    // the same virtual time.
    sim.restore(&ckpt).unwrap();
    assert_eq!(sim.target_cycles(), 137);
    assert_eq!(node_digests(&sim), at_137, "restore is exact");
    sim.run_target_cycles(250).unwrap();
    assert_eq!(partition_blobs(&sim), at_250, "replay is exact");
}

#[test]
fn partition_blobs_rehydrate_a_fresh_simulation() {
    // What a respawned worker does: a new process over the same design
    // takes every partition's blob and reports the state it was cut at.
    let mut sim = built(noc6_observed());
    sim.run_target_cycles(137).unwrap();
    let blobs = partition_blobs(&sim);
    let mut fresh = built(noc6_observed());
    for (p, blob) in blobs.iter().enumerate() {
        assert_eq!(fresh.restore_partition_bytes(p, blob).unwrap(), 137);
    }
    assert_eq!(partition_blobs(&fresh), blobs);
    assert_eq!(node_digests(&fresh), node_digests(&sim));
}

#[test]
fn partition_rejects_a_blob_from_a_different_design() {
    let mut small = built(noc6());
    small.run_target_cycles(40).unwrap();
    let mut big = built(soc24());
    big.run_target_cycles(40).unwrap();
    let before = partition_blobs(&small);
    for p in 0..before.len() {
        let foreign = big.snapshot_partition_bytes(p).unwrap();
        for bad in [&foreign[..], &before[p][..before[p].len() - 1], &[]] {
            let err = small.restore_partition_bytes(p, bad).unwrap_err();
            assert!(matches!(err, SimError::Config { .. }), "{err}");
        }
        // Another partition's blob of the same design does not fit either.
        let neighbour = &before[(p + 1) % before.len()];
        assert!(small.restore_partition_bytes(p, neighbour).is_err());
    }
    assert_eq!(partition_blobs(&small), before, "state untouched");
}

/// Restores every damaged copy of every blob into `sim`: each is
/// refused as a configuration error, or accepted and then re-captured
/// byte for byte.
fn partition_blobs_survive_damage(mut sim: DistributedSim) {
    for (p, blob) in partition_blobs(&sim).iter().enumerate() {
        for bad in damaged(blob) {
            match bounded_by(blob.len(), || sim.restore_partition_bytes(p, &bad)) {
                Ok(_) => assert_eq!(sim.snapshot_partition_bytes(p).unwrap(), bad),
                Err(e) => assert!(matches!(e, SimError::Config { .. }), "{e}"),
            }
        }
        // The undamaged blob still restores after all of that.
        assert!(sim.restore_partition_bytes(p, blob).is_ok());
        assert_eq!(&sim.snapshot_partition_bytes(p).unwrap(), blob);
    }
}

#[test]
fn damaged_noc6_blobs_are_refused_or_restored_exactly() {
    let mut sim = built(noc6_observed());
    sim.run_target_cycles(137).unwrap();
    partition_blobs_survive_damage(sim);
}

#[test]
fn damaged_soc24_blobs_are_refused_or_restored_exactly() {
    let mut sim = built(soc24());
    sim.run_target_cycles(300).unwrap();
    partition_blobs_survive_damage(sim);
}

#[test]
fn damaged_interpreter_blobs_are_refused_or_restored_exactly() {
    let mut sim = interp();
    drive(&mut sim, 0..23);
    let blob = sim.snapshot_bytes().unwrap();
    for bad in damaged(&blob) {
        if bounded_by(blob.len(), || sim.restore_snapshot_bytes(&bad)) {
            assert_eq!(sim.snapshot_bytes().unwrap(), bad);
        }
    }
    assert!(sim.restore_snapshot_bytes(&blob));
    assert_eq!(sim.snapshot_bytes().unwrap(), blob);
}

#[test]
fn interpreter_rejects_memory_words_of_the_wrong_width() {
    // Two designs alike in every slot, memory count and depth: only the
    // width of the memory's words tells their blobs apart.
    let with_words_of = |width: u32| {
        let mut mb = ModuleBuilder::new("M");
        let en = mb.input("en", 1);
        let mem = mb.mem("store", width, 2);
        mb.mem_write(&mem, &en, &Sig::lit(1, width), &en);
        Interpreter::new(&Circuit::from_modules("M", vec![mb.finish()], "M")).unwrap()
    };
    let mut sim = with_words_of(8);
    let good = sim.snapshot_bytes().unwrap();
    assert!(!sim.restore_snapshot_bytes(&with_words_of(9).snapshot_bytes().unwrap()));
    assert_eq!(sim.snapshot_bytes().unwrap(), good, "state untouched");
    assert!(sim.restore_snapshot_bytes(&good));
}

#[test]
fn a_length_prefix_cannot_reserve_more_than_the_blob_holds() {
    // A count that passes the one-byte-per-element check over elements
    // 24 bytes wide in memory, and a width asking for 16 Ki words.
    let mut lie = (1u32 << 20).to_be_bytes().to_vec();
    lie.resize(4 + (1 << 20), 0);
    let items = bounded_by(lie.len(), || Dec::new(&lie).get::<Vec<(u64, u64, u64)>>());
    assert!(items.is_err());
    let queue = bounded_by(lie.len(), || {
        Dec::new(&lie).get::<std::collections::VecDeque<Vec<u64>>>()
    });
    assert!(queue.is_err());
    let wide = [&(1u32 << 20).to_be_bytes()[..], &[0; 64]].concat();
    assert!(bounded_by(wide.len(), || Dec::new(&wide).get::<Bits>()).is_err());
}

// Re-frozen when the blobs moved to the shared codec's `u32` counts: the
// previous tree with only its length prefixes narrowed to `u32` (and the
// partition blob magic bumped to FXP2) writes these same bytes. The tile
// partitions of `NOC6_137` and `SOC24_300` were re-frozen once more when
// shell-passthrough resolution stopped reading through registers: their
// tiles now read the CDC's registered outputs, so tile state at the
// sampled cycle differs. Lengths, the remainders and the cycle-0 rows
// held.

const NOC6_137: &[(usize, u64)] = &[
    (5610, 0xb5c95e969cc7cd27),
    (5586, 0x9b884399ad1b1e3a),
    (5650, 0x55976a877f0bd619),
    (32116, 0x7811161a8f5437f3),
];

const SOC24_300: &[(usize, u64)] = &[
    (7106, 0x141ca8499d9af935),
    (7770, 0x4ea613b7f62201fc),
    (7530, 0x958e4b4184146aff),
    (8026, 0x58f5e297804e1fdc),
    (3001, 0x1fd91963422277a8),
];

const INTERP_23: &[(usize, u64)] = &[(284, 0xfbdaf5777a2b71d3)];

// Whole-design `Backend::Net` builds, re-frozen likewise.

const NOC6_NET_0: &[(usize, u64)] = &[
    (1914, 0x26d746c9fba8b2ed),
    (1930, 0xfaa0116b15feaf74),
    (1930, 0x6bf8131f0b7f7e48),
    (2020, 0x1420c1f25862913a),
];

const NOC6_NET_VCD: u64 = 0x084918e20b4a066c;

const SOC24_NET_0: &[(usize, u64)] = &[
    (4602, 0x3ee224b6fa846408),
    (4618, 0xb09c82e3dee912a6),
    (4618, 0x22b0b8c1e1a66062),
    (4618, 0x0df76c14481274e0),
    (2801, 0x5b74d9ebc919c3a8),
];

/// The empty table: soc24 captures no waveform.
const SOC24_NET_VCD: u64 = 0xcbf29ce484222325;

/// The FXC2 checkpoint a worker hosting two of noc6's partitions holds
/// before its first step — one engine blob per hosted partition plus its
/// cross-worker flow marks — fed every strict prefix and seeded byte
/// flip: each is refused as a configuration error, or accepted and
/// re-captured byte for byte.
#[test]
fn damaged_two_partition_checkpoints_are_refused_or_restored_exactly() {
    // Payloads cut from a whole-design build, as `prepare_job` cuts
    // them, without turning the tracer on (that would stamp the other
    // tests' samples with host time).
    let (design, whole) = noc6_observed()
        .backend(Backend::Net)
        .build()
        .expect("flow builds");
    let payloads: Vec<Vec<u8>> = (0..2)
        .map(|p| encode_partition_payload(&PartitionCut::of(&design, &whole, p)))
        .collect();
    let settings = WireSettings {
        sample_interval: 50,
        vcd: true,
        ..WireSettings::default()
    };
    let payloads: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let mut sim = build_partitions(&payloads, &settings, &soc_behaviors).expect("set build");
    let blob = session_checkpoint(&mut sim, &settings).expect("portable state");
    for bad in damaged(&blob) {
        match bounded_by(blob.len(), || {
            restore_checkpoint(&mut sim, &settings, 0, &bad)
        }) {
            Ok(again) => assert_eq!(again, bad),
            Err(e) => assert!(matches!(e, SimError::Config { .. }), "{e}"),
        }
    }
    // The undamaged blob still restores after all of that.
    assert_eq!(
        restore_checkpoint(&mut sim, &settings, 0, &blob).unwrap(),
        blob
    );
}
