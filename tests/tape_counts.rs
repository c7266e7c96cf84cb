//! Frozen dirty-set counts and end states of the compiled engine.
//!
//! The compiled tape decides, pass by pass, which definitions to run:
//! the dirty set is seeded from roots that changed since the last settle
//! and grows along the fanout of every slot whose value moved. How the
//! tape stores its values (slots, shadows, arenas) must not change which
//! programs that set contains, nor what state the run ends in.
//!
//! Each scenario runs a design on `ExecEngine::Compiled` and checks the
//! final `ExecStats` triple, the top-level `state_digest` and the FNV-1a
//! of `snapshot_bytes` against values frozen from the tree this suite was
//! written against (the one whose slots were all heap-backed `Bits` and
//! whose narrow programs read them through per-operand source tags). The
//! snapshot digests were re-frozen when state blobs moved to the shared
//! codec's `u32` length prefixes; the other four columns did not move. On
//! a mismatch the test prints the row it got in source form.
//!
//! The bit-sliced engine skips lane kernels by the same rules, so two of
//! the designs also run as 64-lane batches with the same stimulus in
//! every lane: their rows freeze the batch's `ExecStats` (a definition
//! counts once per settle however many lanes it covers), and every
//! lane's digest must equal the compiled row's state digest. Both
//! batches run exactly the definitions the compiled runs do (a folded
//! copy of the compiled tape is a copy program of the sliced one).

use fireaxe::ir::parser::parse_circuit;
use fireaxe::ir::printer::print_circuit;
use fireaxe::ir::{Circuit, ExecEngine, ExecStats, Interpreter, SlicedInterpreter};
use fireaxe::prelude::*;
use fireaxe::soc::noc::{ring_noc_circuit, NocConfig};

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a finished run is checked by: `(settle_passes, defs_run,
/// defs_skipped, state_digest, FNV-1a of snapshot_bytes)`.
type Row = (u64, u64, u64, u64, u64);

fn row(sim: &Interpreter) -> Row {
    let ExecStats {
        settle_passes,
        defs_run,
        defs_skipped,
    } = sim.exec_stats();
    let blob = sim.snapshot_bytes().expect("every model is checkpointable");
    (
        settle_passes,
        defs_run,
        defs_skipped,
        sim.state_digest(),
        fnv1a(&blob),
    )
}

fn check(name: &str, sim: &Interpreter, frozen: Row) {
    let got = row(sim);
    assert!(
        got == frozen,
        "tape counts moved on `{name}`; they read now:\n    ({}, {}, {}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2,
        got.3,
        got.4
    );
}

/// Checks a 64-lane batch's final `ExecStats` triple, and that every
/// lane ends on `digest`.
fn check_sliced(name: &str, sim: &SlicedInterpreter, frozen: (u64, u64, u64), digest: u64) {
    let ExecStats {
        settle_passes,
        defs_run,
        defs_skipped,
    } = sim.exec_stats();
    let got = (settle_passes, defs_run, defs_skipped);
    assert!(
        got == frozen,
        "sliced tape counts moved on `{name}`; they read now:\n    ({}, {}, {})",
        got.0,
        got.1,
        got.2
    );
    for lane in 0..sim.lanes() {
        assert_eq!(sim.lane_digest(lane), digest, "`{name}` lane {lane}");
    }
}

fn compiled(circuit: &Circuit) -> Interpreter {
    let mut sim = Interpreter::with_engine(circuit, ExecEngine::Compiled).unwrap();
    for (path, key, bound) in sim.extern_instances() {
        if !bound {
            let model = fireaxe::soc::make_behavior(&key, &path).unwrap();
            sim.bind_behavior(&path, model).unwrap();
        }
    }
    sim.reset();
    sim
}

/// SplitMix64, as the reference benchmark's stimulus uses it.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives every node of a bare ring NoC for `cycles` cycles with
/// `flit(cycle, node) -> (valid, bits)`, then settles once more.
fn run_ring(
    sim: &mut Interpreter,
    nodes: usize,
    cycles: u64,
    flit: impl Fn(u64, usize) -> (bool, u64),
) {
    let valid: Vec<String> = (0..nodes).map(|i| format!("node{i}_tx_valid")).collect();
    let bits: Vec<String> = (0..nodes).map(|i| format!("node{i}_tx_bits")).collect();
    for c in 0..cycles {
        for i in 0..nodes {
            let (v, b) = flit(c, i);
            sim.poke_u64(&valid[i], u64::from(v)).unwrap();
            sim.poke_u64(&bits[i], b).unwrap();
        }
        sim.eval().unwrap();
        sim.tick();
    }
    sim.eval().unwrap();
}

const NOC4: NocConfig = NocConfig {
    nodes: 4,
    payload_bits: 32,
};

/// `interp_bench`'s 4-node ring stimulus: every node offers a flit two
/// cycles in three.
fn noc4_flit(c: u64, i: usize) -> (bool, u64) {
    let layout = NOC4.flit();
    let dest = (i + 1 + (c as usize % (NOC4.nodes - 1))) % NOC4.nodes;
    let flit = layout.pack(dest as u64, i as u64, 0, (c ^ i as u64) & 0xFFFF);
    (!c.is_multiple_of(3), flit & ((1u64 << layout.width()) - 1))
}

/// The 4-node ring under `interp_bench`'s stimulus.
#[test]
fn noc_ring_4() {
    let mut sim = compiled(&ring_noc_circuit(&NOC4));
    run_ring(&mut sim, NOC4.nodes, 3_000, noc4_flit);
    check(
        "noc_ring_4",
        &sim,
        (
            3001,
            399_952,
            128_224,
            0x8bb1_4c40_7f04_6225,
            0xf474_44a1_c228_0f66,
        ),
    );
}

/// The same run as a 64-lane batch, every lane poked alike.
#[test]
fn noc_ring_4_sliced() {
    let mut sim = SlicedInterpreter::new(&ring_noc_circuit(&NOC4), 64).unwrap();
    for c in 0..3_000 {
        for i in 0..NOC4.nodes {
            let (v, b) = noc4_flit(c, i);
            sim.poke_lanes_u64(&format!("node{i}_tx_valid"), &[u64::from(v); 64]);
            sim.poke_lanes_u64(&format!("node{i}_tx_bits"), &[b; 64]);
        }
        sim.eval().unwrap();
        sim.tick();
    }
    sim.eval().unwrap();
    check_sliced(
        "noc_ring_4_sliced",
        &sim,
        (3001, 399_952, 128_224),
        0x8bb1_4c40_7f04_6225,
    );
}

/// `ring32_mono`'s design and stimulus (seed 1), through the same
/// print → parse round trip, for the probe run's 3 750 cycles.
#[test]
fn ring32() {
    let cfg = NocConfig {
        nodes: 32,
        payload_bits: 32,
    };
    let layout = cfg.flit();
    let circuit = parse_circuit(&print_circuit(&ring_noc_circuit(&cfg))).unwrap();
    let mut sim = compiled(&circuit);
    let seed = 1u64;
    run_ring(&mut sim, cfg.nodes, 3_750, |c, i| {
        let r = mix(seed ^ c.wrapping_mul(0x1_0001) ^ ((i as u64) << 48));
        let dest = (i + 1 + (r as usize % (cfg.nodes - 1))) % cfg.nodes;
        let payload = (r >> 16) & 0xFFFF;
        let bits = layout.pack(dest as u64, i as u64, 0, payload) & ((1u64 << layout.width()) - 1);
        (r >> 60 != 0, bits)
    });
    check(
        "ring32",
        &sim,
        (
            3751,
            1_894_234,
            3_387_174,
            0x1202_9d7d_7cd4_32a8,
            0x6286_79cf_8755_cf03,
        ),
    );
}

/// The Fig. 6 SoC monolithic, every behavioural model bound: extern
/// comb programs, extern source roots and wide flits in one tape.
#[test]
fn soc24_monolithic() {
    let soc = ring_soc(&RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        ..Default::default()
    });
    let mut sim = compiled(&soc.circuit);
    for _ in 0..2_000 {
        sim.step().unwrap();
    }
    sim.eval().unwrap();
    check(
        "soc24_monolithic",
        &sim,
        (
            2001,
            453_338,
            2_049_913,
            0x4824_dd56_aa4e_da28,
            0x0430_7ffb_675a_3b45,
        ),
    );
}

/// RocketLite run to `done`: memory read and write ports on the tape.
#[test]
fn rocket_to_done() {
    let mut sim = compiled(&fireaxe::soc::validation::rocket_soc(30, 8));
    let mut cycles = 0u64;
    loop {
        sim.eval().unwrap();
        if sim.peek("done").to_u64() == 1 {
            break;
        }
        sim.tick();
        cycles += 1;
        assert!(cycles < 1_000_000, "RocketLite never finished");
    }
    check(
        "rocket_to_done",
        &sim,
        (
            5192,
            12_492,
            205_572,
            0x581c_d0fa_58d9_9645,
            0xcc54_cab0_507d_459c,
        ),
    );
}

/// RocketLite to `done` as a 64-lane batch (no inputs: every lane runs
/// the same program).
#[test]
fn rocket_to_done_sliced() {
    let circuit = fireaxe::soc::validation::rocket_soc(30, 8);
    let mut sim = SlicedInterpreter::new(&circuit, 64).unwrap();
    let mut cycles = 0u64;
    loop {
        sim.eval().unwrap();
        if sim.peek_u64(0, "done") == 1 {
            break;
        }
        sim.tick();
        cycles += 1;
        assert!(cycles < 1_000_000, "RocketLite never finished");
    }
    check_sliced(
        "rocket_to_done_sliced",
        &sim,
        (5192, 12_492, 205_572),
        0x581c_d0fa_58d9_9645,
    );
}
