//! Frozen bytes of the portable state codec.
//!
//! A partition's `snapshot_partition_bytes` blob is what a cluster
//! checkpoint ships to the coordinator and what a respawned or pooled
//! worker restores from, and an `Interpreter::snapshot_bytes` blob is its
//! innermost layer. Both are a function of the design and the cycle only,
//! and both are a wire format: a rewrite of any layer that captures or
//! restores state must reproduce them byte for byte.
//!
//! Each blob is checked by length and FNV-1a digest against values frozen
//! from the tree this suite was written against (PR 20's). On a mismatch
//! the test prints the table it got in source form; run the suite on the
//! reference tree with `STATE_BLOBS_DUMP=<dir>` to write every blob to a
//! file and compare those.
//!
//! The blobs also arrive off a socket (`Msg::Restore`), so the second
//! half feeds the decoders every strict prefix and seeded single-byte
//! corruptions of each frozen blob: a restore either refuses or lands on
//! exactly the state the bytes describe, and never asks the allocator
//! for more than a small multiple of the blob.

use fireaxe::ir::{
    state_fields, CombPath, ExternBehavior, ExternInfo, Module, Port, PortWriter, ResourceHints,
    StateDec,
};
use fireaxe::net::{
    build_partition, build_partitions, encode_partition_payload, prepare_job, restore_checkpoint,
    session_checkpoint, WireSettings,
};
use fireaxe::prelude::*;
use fireaxe::sim::{PartitionCut, SimError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

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

/// Runs `f` and checks that no single allocation inside it exceeded a
/// small multiple of `blob_len` (decoded values are a few times wider in
/// memory than on the wire, and vectors grow by doubling).
fn bounded_by<R>(blob_len: usize, f: impl FnOnce() -> R) -> R {
    LARGEST.with(|l| l.set(0));
    let r = f();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 8 * blob_len + 4096,
        "decoding {blob_len} bytes asked for {largest} at once"
    );
    r
}

/// Every strict prefix of `blob`, then 256 copies with one byte changed
/// at a seeded position.
fn damaged(blob: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut seed = fnv1a(blob);
    let flips = (0..256).map(move |_| {
        // splitmix64
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut bad = blob.to_vec();
        bad[(z >> 8) as usize % blob.len()] ^= (z as u8).max(1);
        bad
    });
    (0..blob.len()).map(|n| blob[..n].to_vec()).chain(flips)
}

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

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

/// Every partition built the way a net worker builds it — from the
/// coordinator's payload, only its own threads elaborated — with its
/// cycle-0 blob and VCD signal table digest.
fn own_partition_cycle0(
    (circuit, spec): (Circuit, PartitionSpec),
    settings: WireSettings,
) -> (Vec<Vec<u8>>, Vec<u64>) {
    let prepared = prepare_job(&circuit, &spec, &settings, &soc_behaviors).expect("prepare");
    (0..prepared.n_partitions())
        .map(|p| {
            let payload = prepared.partition_payload(p);
            let sim = build_partition(payload, p, prepared.settings(), &soc_behaviors)
                .expect("partition build");
            let counters = sim.metrics().counters;
            assert!(
                counters.iter().all(|c| c.partition == p),
                "built a foreign node"
            );
            (
                sim.snapshot_partition_bytes(p).expect("portable state"),
                vcd_table_digest(sim.vcd_signal_table()),
            )
        })
        .unzip()
}

#[test]
fn own_partition_builds_reproduce_the_noc6_net_blobs() {
    let settings = WireSettings {
        sample_interval: 50,
        vcd: true,
        ..WireSettings::default()
    };
    let (blobs, vcd) = own_partition_cycle0(noc6_cut(), settings);
    check("noc6_own_0", &blobs, NOC6_NET_0);
    assert!(vcd.iter().all(|&d| d == NOC6_NET_VCD), "VCD table moved");
}

#[test]
fn own_partition_builds_reproduce_the_soc24_net_blobs() {
    let (blobs, vcd) = own_partition_cycle0(soc24_cut(), WireSettings::default());
    check("soc24_own_0", &blobs, SOC24_NET_0);
    assert!(vcd.iter().all(|&d| d == SOC24_NET_VCD), "VCD table moved");
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
    let mut lie = (1u64 << 20).to_be_bytes().to_vec();
    lie.resize(8 + (1 << 20), 0);
    let items = bounded_by(lie.len(), || {
        StateDec::new(&lie).item::<Vec<(u64, u64, u64)>>()
    });
    assert!(items.is_none());
    let queue = bounded_by(lie.len(), || {
        StateDec::new(&lie).item::<std::collections::VecDeque<Vec<u64>>>()
    });
    assert!(queue.is_none());
    let wide = [&(1u32 << 20).to_be_bytes()[..], &[0; 64]].concat();
    assert!(bounded_by(wide.len(), || StateDec::new(&wide).bits()).is_none());
}

// Frozen from PR 20's tree.

const NOC6_137: &[(usize, u64)] = &[
    (5702, 0x9b34d3fe15cdf3c7),
    (5686, 0xe26d08d55514491d),
    (5750, 0x04ca5da556ee4dd9),
    (32216, 0x92b8fdd24b82cdfe),
];

const SOC24_300: &[(usize, u64)] = &[
    (7230, 0xd291b97603744fce),
    (7902, 0x36a3e9c0f66fe634),
    (7662, 0x4c08829970570053),
    (8158, 0xf267a78081532054),
    (3105, 0x063bba6969f18bae),
];

const INTERP_23: &[(usize, u64)] = &[(308, 0xe2e3d0928c7c4d7f)];

// Frozen from PR 21's tree (whole-design `Backend::Net` builds).

const NOC6_NET_0: &[(usize, u64)] = &[
    (2006, 0x60907b52d9ecd0a4),
    (2030, 0x00721bb502ec6235),
    (2030, 0xa2bb8294283402f9),
    (2120, 0x32a87abdbd46f326),
];

const NOC6_NET_VCD: u64 = 0x084918e20b4a066c;

const SOC24_NET_0: &[(usize, u64)] = &[
    (4726, 0x9bc71c4e62996881),
    (4750, 0xe10e6fbc08028b7b),
    (4750, 0xcd3be73b30df7c37),
    (4750, 0x288d328b18ff2e99),
    (2905, 0xeec413dcc37f605b),
];

/// The empty table: soc24 captures no waveform.
const SOC24_NET_VCD: u64 = 0xcbf29ce484222325;

/// The FXC1 checkpoint a worker hosting two of noc6's partitions holds
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
