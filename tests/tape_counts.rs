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
//! The bit-sliced engine skips lane kernels by the same rules, so three
//! of the designs also run as 64-lane batches with the same stimulus in
//! every lane: their rows freeze the batch's `ExecStats` (a definition
//! counts once per settle however many lanes it covers), and every
//! lane's digest must equal the compiled row's state digest. Each batch
//! runs exactly the definitions the compiled run does (a folded copy of
//! the compiled tape is a copy program of the sliced one).
//!
//! The `*_tapes` rows freeze what each engine builds from a design: the
//! compiled `TapeShape` (programs, folded copies, instructions, latches)
//! and the sliced `SliceCoverage` (kernels and scalarized units per
//! `SliceUnit`, and every scalarized unit's path and reason, sorted).
//! They hold both engines to the tapes they emitted before they shared
//! one lowering. `mixed_fallbacks` is built to hit every fallback reason
//! a validated design can reach, and the compiled engine's 64-bit limit.

use fireaxe::ir::parser::parse_circuit;
use fireaxe::ir::printer::print_circuit;
use fireaxe::ir::{BinOp, Circuit, ExecEngine, ExecStats, Expr, Interpreter, SlicedInterpreter};
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

/// What a design's two tapes are checked by: the compiled `TapeShape`
/// as `(programs, folded_copies, instructions, latches)`, `(kernels,
/// scalarized)` for defs, reg-nexts, mem reads and write ports, and the
/// sorted `(path, reason)` of every scalarized unit.
type Tapes = (
    (usize, usize, usize, usize),
    [(u32, u32); 4],
    &'static [(&'static str, &'static str)],
);

fn check_tapes(name: &str, circuit: &Circuit, frozen: Tapes) {
    let shape = Interpreter::with_engine(circuit, ExecEngine::Compiled)
        .unwrap()
        .tape_shape();
    let cov = SlicedInterpreter::new(circuit, 1).unwrap().coverage();
    let shape = (
        shape.programs,
        shape.folded_copies,
        shape.instructions,
        shape.latches,
    );
    let counts = [cov.defs, cov.reg_nexts, cov.mem_reads, cov.write_ports]
        .map(|c| (c.kernels, c.scalarized));
    let mut fell: Vec<(String, String)> = cov
        .scalarized
        .iter()
        .map(|s| (s.path.clone(), format!("{:?}", s.reason)))
        .collect();
    fell.sort();
    let got_fell: Vec<(&str, &str)> = fell.iter().map(|(p, r)| (p.as_str(), r.as_str())).collect();
    if (shape, counts, &got_fell[..]) != frozen {
        let list: String = got_fell
            .iter()
            .map(|(p, r)| format!("            ({p:?}, {r:?}),\n"))
            .collect();
        panic!(
            "tapes moved on `{name}`; they read now:\n        {shape:?},\n        {counts:?},\n        &[\n{list}        ],"
        );
    }
}

#[test]
fn noc_ring_4_tapes() {
    check_tapes(
        "noc_ring_4",
        &ring_noc_circuit(&NOC4),
        ((32, 144, 60, 28), [(176, 0), (28, 0), (0, 0), (0, 0)], &[]),
    );
}

#[test]
fn ring32_tapes() {
    let cfg = NocConfig {
        nodes: 32,
        payload_bits: 32,
    };
    let circuit = parse_circuit(&print_circuit(&ring_noc_circuit(&cfg))).unwrap();
    check_tapes(
        "ring32",
        &circuit,
        (
            (256, 1152, 480, 224),
            [(1408, 0), (224, 0), (0, 0), (0, 0)],
            &[],
        ),
    );
}

#[test]
fn soc24_monolithic_tapes() {
    let soc = ring_soc(&RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        ..Default::default()
    });
    check_tapes(
        "soc24_monolithic",
        &soc.circuit,
        (
            (248, 1003, 375, 175),
            [(1227, 0), (175, 0), (0, 0), (0, 0)],
            &[],
        ),
    );
}

#[test]
fn rocket_to_done_tapes() {
    check_tapes(
        "rocket_to_done",
        &fireaxe::soc::validation::rocket_soc(30, 8),
        ((29, 13, 86, 11), [(41, 0), (10, 0), (1, 0), (1, 0)], &[]),
    );
}

fn binary(op: BinOp, a: &Sig, b: &Sig) -> Sig {
    Sig::from_expr(Expr::Binary(
        op,
        Box::new(a.expr().clone()),
        Box::new(b.expr().clone()),
    ))
}

/// Every reason a validated design can fall back to the tree walker, on
/// either engine: division and remainder, a multiply past the shift-add
/// kernel, an inexact slot and its readers, mux arms of different widths
/// under a resize, memory addresses wider than 64 bits, and values wider
/// than 64 bits (the compiled engine's limit), next to narrow kernels and
/// port-connection copies. (An extract past its operand's width does not
/// pass validation.)
fn mixed_fallbacks() -> Circuit {
    let mut mb = ModuleBuilder::new("Mix");
    let a = mb.input("a", 16);
    let b = mb.input("b", 16);
    let sel = mb.input("sel", 1);
    let w = mb.input("w", 80);
    let one = Sig::lit(1, 16);
    let q = mb.node("q", &binary(BinOp::Div, &a, &b.or(&one)));
    let r = mb.node("r", &binary(BinOp::Rem, &a, &b.or(&one)));
    let p = mb.node("p", &a.resize(24).mul(&b.resize(24)));
    let pn = mb.node("pn", &a.bits(3, 0).mul(&b.bits(3, 0)));
    let mm = mb.node("mm", &sel.mux(&a, &b.bits(7, 0)));
    let mx = mb.node("mx", &mm.xor(&a));
    let mr = mb.node("mr", &sel.mux(&a, &b.bits(7, 0)).resize(16));
    let ws = mb.node("ws", &w.add(&w.shr(3)));
    let m = mb.mem("m", 8, 4);
    let rd = mb.mem_read("rd", &m, &a.bits(1, 0));
    let rw = mb.mem_read("rw", &m, &w);
    mb.mem_write(&m, &a.bits(1, 0), &a.bits(7, 0), &sel);
    mb.mem_write(&m, &w, &b.bits(7, 0), &sel.not());
    let acc = mb.reg("acc", 16, 0);
    mb.connect_sig(&acc, &binary(BinOp::Div, &acc.add(&a), &one));
    let held = mb.reg("held", 16, 0);
    mb.connect_sig(&held, &held.xor(&mx.resize(16)));
    let cnt = mb.reg("cnt", 8, 0);
    mb.connect_sig(&cnt, &cnt.add(&Sig::lit(1, 8)));
    let big = mb.reg("big", 80, 0);
    mb.connect_sig(&big, &big.xor(&ws));
    for (name, width, sig) in [
        ("oq", 16, &q),
        ("or", 16, &r),
        ("op", 24, &p),
        ("opn", 4, &pn),
        ("omm", 16, &mm),
        ("omr", 16, &mr),
        ("ows", 80, &ws),
        ("ord", 8, &rd),
        ("orw", 8, &rw),
        ("oacc", 16, &acc),
        ("oheld", 16, &held),
        ("ocnt", 8, &cnt),
        ("obig", 80, &big),
    ] {
        let o = mb.output(name, width);
        mb.connect_sig(&o, sig);
    }
    Circuit::from_modules("Mix", vec![mb.finish()], "Mix")
}

/// The inputs of `mixed_fallbacks` at cycle `c`, as `(a, b, sel, w low
/// word)`; `w`'s high bits stay zero.
fn mixed_inputs(c: u64) -> [(&'static str, u64); 4] {
    let r = mix(c);
    [
        ("a", r & 0xFFFF),
        ("b", (r >> 16) & 0xFFFF),
        ("sel", (r >> 32) & 1),
        ("w", mix(r)),
    ]
}

/// `mixed_fallbacks` for 500 cycles: tree programs, tree latches and
/// per-lane scalarization in the dirty set of both engines.
#[test]
fn mixed_fallbacks_run() {
    let circuit = mixed_fallbacks();
    let mut sim = compiled(&circuit);
    let mut sliced = SlicedInterpreter::new(&circuit, 64).unwrap();
    for c in 0..500 {
        for (name, v) in mixed_inputs(c) {
            sim.poke_u64(name, v).unwrap();
            sliced.poke_lanes_u64(name, &[v; 64]);
        }
        sim.eval().unwrap();
        sim.tick();
        sliced.eval().unwrap();
        sliced.tick();
    }
    sim.eval().unwrap();
    sliced.eval().unwrap();
    check(
        "mixed_fallbacks",
        &sim,
        (
            501,
            10_486,
            1_037,
            0x7115_b1a2_b562_b7cd,
            0x286b_f0f4_c9f8_2921,
        ),
    );
    check_sliced(
        "mixed_fallbacks_sliced",
        &sliced,
        (501, 10_486, 1_037),
        0x7115_b1a2_b562_b7cd,
    );
}

#[test]
fn mixed_fallbacks_tapes() {
    check_tapes(
        "mixed_fallbacks",
        &mixed_fallbacks(),
        (
            (13, 10, 16, 6),
            [(14, 7), (2, 2), (1, 1), (1, 1)],
            &[
                ("acc", "DivRem"),
                ("held", "InexactSlot"),
                ("m[write 1]", "WideAddress"),
                ("mm", "InexactSlot"),
                ("mr", "MuxArmWidths"),
                ("mx", "InexactSlot"),
                ("omm", "InexactSlot"),
                ("p", "WideMul"),
                ("q", "DivRem"),
                ("r", "DivRem"),
                ("rw", "WideAddress"),
            ],
        ),
    );
}
