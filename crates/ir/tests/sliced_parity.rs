//! Differential proptest: every lane of a bit-sliced batch run must be
//! bit-identical to an independent tree-walking reference run.
//!
//! Each case generates a random netlist (mixed narrow/wide signals,
//! registers, memories, optionally a stateful extern behavioral model),
//! picks a lane count (including non-multiples of 64, whose padded dead
//! lanes must not perturb live ones), drives every lane with its own
//! workload, and compares every elaborated signal, memory contents, and
//! the FNV state digest per lane after every settle — plus per-lane
//! snapshot/restore round trips.

use fireaxe_ir::build::{ModuleBuilder, Sig};
use fireaxe_ir::slice::{ScalarReason, SliceUnit};
use fireaxe_ir::{
    BinOp, Bits, Circuit, CombPath, ExecEngine, Expr, ExternBehavior, ExternInfo, Interpreter,
    Module, Port, PortWriter, ResourceHints, SlicedInterpreter, UnOp,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// splitmix64: deterministic per-seed stream for circuit + workload
/// generation, independent of the proptest shim's own PRNG details.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Stateful extern model, identical to the one in `compiled_parity`: the
/// comb output mixes input with internal state, the source output
/// publishes the state register.
#[derive(Debug, Clone, Default)]
struct XorAcc {
    state: u64,
}

impl ExternBehavior for XorAcc {
    fn reset(&mut self) {
        self.state = 0;
    }
    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("s", self.state);
    }
    fn comb_outputs(&mut self, inputs: &BTreeMap<String, Bits>, out: &mut PortWriter<'_>) {
        let x = inputs["x"].to_u64();
        out.set_u64("y", x.rotate_left(3) ^ self.state ^ 0x9E37);
    }
    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        self.state = self
            .state
            .wrapping_mul(3)
            .wrapping_add(inputs["x"].to_u64());
    }
    // Byte snapshots make identically-bound lanes eligible for the
    // engine's copy-on-write lane coalescing, so these cases also cover
    // the coalesce -> divergent-poke -> fork transition.
    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        Some(self.state.to_le_bytes().to_vec())
    }
    fn restore_bytes(&mut self, bytes: &[u8]) -> bool {
        match <[u8; 8]>::try_from(bytes) {
            Ok(b) => {
                self.state = u64::from_le_bytes(b);
                true
            }
            Err(_) => false,
        }
    }
}

fn xacc_module() -> Module {
    let mut e = Module::new("XAcc");
    e.ports.push(Port::input("x", 16));
    e.ports.push(Port::output("y", 16));
    e.ports.push(Port::output("s", 16));
    e.extern_info = Some(ExternInfo {
        behavior: "xacc".into(),
        comb_paths: vec![CombPath {
            input: "x".into(),
            output: "y".into(),
        }],
        resources: ResourceHints::default(),
    });
    e
}

const WIDTHS: &[u32] = &[1, 2, 5, 8, 13, 16, 31, 32, 33, 63, 64, 65, 80, 100, 128];

fn pick_width(rng: &mut Rng) -> u32 {
    WIDTHS[rng.below(WIDTHS.len() as u64) as usize]
}

fn rand_bits(rng: &mut Rng, w: u32) -> Bits {
    match rng.below(5) {
        0 => Bits::zero(w),
        1 => Bits::ones(w),
        2 => Bits::from_u64(rng.below(4), w),
        _ => Bits::from_words(&[rng.next(), rng.next()], w),
    }
}

/// Memory data widths: sub-word, exactly one word, one bit over, and
/// multi-word entries.
const MEM_WIDTHS: &[u32] = &[1, 8, 33, 64, 65, 80, 130];

/// A memory port address: four bits of some pool signal — depths stay
/// below 16, so reads and writes both reach past the depth. One in four
/// is widened past 64 bits with junk on top: the reference ignores it
/// (`to_u64`), and the sliced engine must scalarize that port and still
/// agree.
fn gen_addr(rng: &mut Rng, pool: &[(Sig, u32)]) -> Sig {
    let a = pool[rng.below(pool.len() as u64) as usize].0.resize(4);
    if rng.coin(4) {
        let junk = pool[rng.below(pool.len() as u64) as usize].0.resize(8);
        junk.cat(&a.resize(64))
    } else {
        a
    }
}

struct GenCircuit {
    circuit: Circuit,
    input_widths: Vec<(String, u32)>,
    has_extern: bool,
}

fn gen_circuit(rng: &mut Rng) -> GenCircuit {
    let mut mb = ModuleBuilder::new("T");
    let mut pool: Vec<(Sig, u32)> = Vec::new();

    let n_inputs = 3 + rng.below(3);
    let mut input_widths = Vec::new();
    for k in 0..n_inputs {
        let w = pick_width(rng);
        let name = format!("i{k}");
        pool.push((mb.input(&name, w), w));
        input_widths.push((name, w));
    }
    for _ in 0..2 {
        let w = pick_width(rng);
        pool.push((Sig::lit(rng.next(), w), w));
    }

    let n_regs = 1 + rng.below(3);
    let mut regs = Vec::new();
    for k in 0..n_regs {
        let w = pick_width(rng);
        let r = mb.reg(format!("r{k}"), w, rng.below(16));
        pool.push((r.clone(), w));
        regs.push(r);
    }

    let has_extern = rng.coin(3);
    let ext_safe_len = pool.len();
    if has_extern {
        mb.inst("xa", "XAcc");
        let y = mb.inst_port("xa", "y");
        let s = mb.inst_port("xa", "s");
        pool.push((y, 16));
        pool.push((s, 16));
    }

    // Half the circuits have one or two memories, each with a read port.
    let n_mems = if rng.coin(2) { 1 + rng.below(2) } else { 0 };
    let mut mems: Vec<(String, Sig)> = Vec::new();
    for k in 0..n_mems {
        let w = MEM_WIDTHS[rng.below(MEM_WIDTHS.len() as u64) as usize];
        let depth = 4 + rng.below(12) as u32;
        let m = mb.mem(format!("m{k}"), w, depth);
        let raddr = gen_addr(rng, &pool);
        let rd = mb.mem_read(format!("mrd{k}"), &m, &raddr);
        pool.push((rd, w));
        mems.push((m, raddr));
    }

    let n_nodes = 8 + rng.below(18);
    for k in 0..n_nodes {
        let (a, wa) = pool[rng.below(pool.len() as u64) as usize].clone();
        let (b, wb) = pool[rng.below(pool.len() as u64) as usize].clone();
        let (sig, w) = match rng.below(12) {
            0 => match rng.below(6) {
                0 => (a.add(&b), wa.max(wb)),
                1 => (a.sub(&b), wa.max(wb)),
                2 => (a.mul(&b), wa.max(wb)),
                3 => (a.and(&b), wa.max(wb)),
                4 => (a.or(&b), wa.max(wb)),
                _ => (a.xor(&b), wa.max(wb)),
            },
            1 if wa <= 64 && wb <= 64 => {
                // Division always scalarizes in the sliced engine. Pin
                // the operand widths: tracked widths are conservative
                // minima, and div/rem reject runtime widths over 64.
                let op = if rng.coin(2) { BinOp::Div } else { BinOp::Rem };
                let e = Expr::Binary(
                    op,
                    Box::new(a.resize(wa).expr().clone()),
                    Box::new(b.resize(wb).expr().clone()),
                );
                (Sig::from_expr(e), wa.max(wb))
            }
            2 => {
                let op = [
                    BinOp::Eq,
                    BinOp::Neq,
                    BinOp::Lt,
                    BinOp::Leq,
                    BinOp::Gt,
                    BinOp::Geq,
                ][rng.below(6) as usize];
                let e = Expr::Binary(op, Box::new(a.expr().clone()), Box::new(b.expr().clone()));
                (Sig::from_expr(e), 1)
            }
            3 => (a.not(), wa),
            4 => {
                let op = [UnOp::OrReduce, UnOp::AndReduce, UnOp::XorReduce][rng.below(3) as usize];
                (
                    Sig::from_expr(Expr::Unary(op, Box::new(a.expr().clone()))),
                    1,
                )
            }
            5 => {
                let c = pool[rng.below(pool.len() as u64) as usize].0.clone();
                if wa == wb {
                    (c.mux(&a, &b), wa)
                } else if rng.coin(3) {
                    // Mismatched arms: the runtime width is whichever arm
                    // the condition selects, so the slot goes inexact and
                    // its whole fan-out scalarizes per lane. Track the
                    // conservative minimum so later extracts stay in
                    // range for either arm.
                    (c.mux(&a, &b), wa.min(wb))
                } else {
                    (c.mux(&a, &b.resize(wa)), wa)
                }
            }
            6 if wa + wb <= 200 => (a.cat(&b), wa + wb),
            7 => {
                let lo = rng.below(wa as u64) as u32;
                let hi = lo + rng.below((wa - lo) as u64) as u32;
                (a.bits(hi, lo), hi - lo + 1)
            }
            8 => {
                let w = pick_width(rng);
                (a.resize(w), w)
            }
            9 => {
                let n = rng.below(wa as u64 + 2) as u32;
                (a.shl(n), wa)
            }
            10 => {
                let n = rng.below(wa as u64 + 2) as u32;
                (a.shr(n), wa)
            }
            _ => (a.add(&b), wa.max(wb)),
        };
        let node = mb.node(format!("n{k}"), &sig);
        pool.push((node, w));
    }

    if has_extern {
        let (x, _) = pool[rng.below(ext_safe_len as u64) as usize].clone();
        mb.connect_inst("xa", "x", &x);
    }
    for (m, raddr) in &mems {
        for _ in 0..1 + rng.below(2) {
            // Half the write ports reuse the read address, so a read and
            // a write (the read must see the pre-edge entry) and, with
            // two ports, two writes (the last must win) meet at one
            // address in one cycle.
            let waddr = if rng.coin(2) {
                raddr.clone()
            } else {
                gen_addr(rng, &pool)
            };
            let (wdata, _) = pool[rng.below(pool.len() as u64) as usize].clone();
            // A constant enable is set in every lane, dead ones included:
            // batches below 64 lanes must never write for a dead lane.
            let wen = if rng.coin(4) {
                Sig::lit(1, 1)
            } else {
                pool[rng.below(pool.len() as u64) as usize].0.resize(1)
            };
            mb.mem_write(m, &waddr, &wdata, &wen);
        }
    }
    for r in &regs {
        let (nx, _) = pool[rng.below(pool.len() as u64) as usize].clone();
        mb.connect_sig(r, &nx);
    }
    let n_outs = 2 + rng.below(3);
    for k in 0..n_outs {
        let w = pick_width(rng);
        let o = mb.output(format!("o{k}"), w);
        let (src, _) = pool[rng.below(pool.len() as u64) as usize].clone();
        mb.connect_sig(&o, &src);
    }

    let mut modules = vec![mb.finish()];
    if has_extern {
        modules.push(xacc_module());
    }
    GenCircuit {
        circuit: Circuit::from_modules("T", modules, "T"),
        input_widths,
        has_extern,
    }
}

/// Deliberately includes lane counts that leave padded dead lanes in
/// every plane.
const LANE_COUNTS: &[u32] = &[1, 2, 5, 17, 63, 64];

fn compare_lane(
    seed: u64,
    at: &str,
    lane: u32,
    paths: &[String],
    sliced: &SlicedInterpreter,
    gold: &Interpreter,
) {
    for p in paths {
        assert_eq!(
            sliced.peek(lane, p),
            *gold.peek(p),
            "signal `{p}` diverged at {at}, lane {lane} (seed {seed})"
        );
    }
    assert_eq!(
        sliced.lane_digest(lane),
        gold.state_digest(),
        "state digest diverged at {at}, lane {lane} (seed {seed})"
    );
}

fn compare_lane_mems(
    seed: u64,
    at: &str,
    lane: u32,
    sliced: &SlicedInterpreter,
    gold: &Interpreter,
) {
    for mp in gold.mem_paths() {
        let depth = gold.mem_depth(&mp).unwrap();
        for i in 0..depth {
            assert_eq!(
                sliced.peek_mem(lane, &mp, i),
                gold.peek_mem(&mp, i),
                "mem `{mp}`[{i}] diverged at {at}, lane {lane} (seed {seed})"
            );
        }
    }
}

fn run_batch_case(seed: u64) {
    let mut rng = Rng(seed);
    let g = gen_circuit(&mut rng);
    let lanes = LANE_COUNTS[rng.below(LANE_COUNTS.len() as u64) as usize];

    let mut sliced = SlicedInterpreter::new(&g.circuit, lanes)
        .unwrap_or_else(|e| panic!("sliced elaboration failed (seed {seed}): {e}"));
    let mut refs: Vec<Interpreter> = (0..lanes)
        .map(|_| {
            Interpreter::with_engine(&g.circuit, ExecEngine::Reference)
                .unwrap_or_else(|e| panic!("reference elaboration failed (seed {seed}): {e}"))
        })
        .collect();
    if g.has_extern {
        sliced
            .bind_behavior_with("xa", |_lane| Box::new(XorAcc::default()))
            .unwrap();
        for r in &mut refs {
            r.bind_behavior("xa", Box::new(XorAcc::default())).unwrap();
            r.reset();
        }
        sliced.reset();
    }
    let paths = refs[0].signal_paths();
    assert_eq!(paths, sliced.signal_paths(), "seed {seed}");
    assert_eq!(refs[0].input_ports(), sliced.input_ports(), "seed {seed}");
    assert_eq!(refs[0].output_ports(), sliced.output_ports(), "seed {seed}");

    let cycles = 8 + rng.below(10) as usize;
    let mid = cycles / 2;
    // Pre-generate every lane's workload so the post-restore replay is
    // identical. pokes[cycle][lane] -> (input, value) list.
    let mut pokes: Vec<Vec<Vec<(String, Bits)>>> = Vec::new();
    for _ in 0..cycles {
        let mut per_lane = Vec::new();
        for _ in 0..lanes {
            let mut v = Vec::new();
            for (name, w) in &g.input_widths {
                if !rng.coin(3) {
                    v.push((name.clone(), rand_bits(&mut rng, *w)));
                }
            }
            per_lane.push(v);
        }
        pokes.push(per_lane);
    }

    let mut snaps: Option<Vec<Vec<u8>>> = None;
    for (c, per_lane) in pokes.iter().enumerate() {
        for (lane, lane_pokes) in per_lane.iter().enumerate() {
            for (n, v) in lane_pokes {
                sliced.poke(lane as u32, n, v);
                refs[lane].poke(n, v.clone());
            }
        }
        sliced.eval().unwrap();
        for r in &mut refs {
            r.eval().unwrap();
        }
        if rng.coin(4) {
            // Double settle: must be idempotent.
            sliced.eval().unwrap();
            for r in &mut refs {
                r.eval().unwrap();
            }
        }
        for lane in 0..lanes {
            compare_lane(
                seed,
                &format!("cycle {c}"),
                lane,
                &paths,
                &sliced,
                &refs[lane as usize],
            );
        }
        if c == mid {
            // A lane's blob is the blob of a scalar run of that lane.
            snaps = (0..lanes).map(|l| sliced.snapshot_lane(l)).collect();
            let ref_snaps = refs.iter().map(Interpreter::snapshot_bytes).collect();
            assert_eq!(snaps, ref_snaps, "seed {seed}");
        }
        sliced.tick();
        for r in &mut refs {
            r.tick();
        }
    }
    sliced.eval().unwrap();
    for r in &mut refs {
        r.eval().unwrap();
    }
    for lane in 0..lanes {
        let gold = &refs[lane as usize];
        compare_lane(seed, "final", lane, &paths, &sliced, gold);
        compare_lane_mems(seed, "final", lane, &sliced, gold);
    }

    // Restore every lane to the mid-run checkpoint (coherent cycle across
    // the batch), replay the recorded tail, and the batch must land
    // exactly on every reference's final state again.
    if let Some(snaps) = snaps {
        for (lane, snap) in snaps.iter().enumerate() {
            assert!(sliced.restore_lane(lane as u32, snap), "seed {seed}");
        }
        assert_eq!(sliced.cycle(), mid as u64, "seed {seed}");
        for per_lane in &pokes[mid..] {
            for (lane, lane_pokes) in per_lane.iter().enumerate() {
                for (n, v) in lane_pokes {
                    sliced.poke(lane as u32, n, v);
                }
            }
            sliced.eval().unwrap();
            sliced.tick();
        }
        sliced.eval().unwrap();
        for lane in 0..lanes {
            let gold = &refs[lane as usize];
            compare_lane(seed, "after restore+replay", lane, &paths, &sliced, gold);
            compare_lane_mems(seed, "after restore+replay", lane, &sliced, gold);
        }
    }
}

/// Deterministic walk through the copy-on-write lane lifecycle:
/// identically-bound lanes stay coalesced while every lane is poked the
/// same values, the first divergent poke forks real per-lane model state,
/// and a snapshot taken while coalesced restores like any other — with
/// every phase checked against independent reference runs.
#[test]
fn lane_coalescing_forks_on_divergent_pokes() {
    let mut mb = ModuleBuilder::new("Top");
    let a = mb.input("a", 16);
    let y = mb.output("y", 16);
    let s = mb.output("s", 16);
    let inst = mb.inst("xa", "XAcc");
    mb.connect_inst(&inst, "x", &a);
    let iy = mb.inst_port(&inst, "y");
    let is = mb.inst_port(&inst, "s");
    mb.connect_sig(&y, &iy);
    mb.connect_sig(&s, &is);
    let circuit = Circuit::from_modules("Top", vec![mb.finish(), xacc_module()], "Top");

    let lanes = 6u32;
    let mut sliced = SlicedInterpreter::new(&circuit, lanes).unwrap();
    sliced
        .bind_behavior_with("xa", |_lane| Box::new(XorAcc::default()))
        .unwrap();
    let mut refs: Vec<Interpreter> = (0..lanes)
        .map(|_| {
            let mut r = Interpreter::with_engine(&circuit, ExecEngine::Reference).unwrap();
            r.bind_behavior("xa", Box::new(XorAcc::default())).unwrap();
            r.reset();
            r
        })
        .collect();
    sliced.reset();
    let paths = refs[0].signal_paths();

    // Coalesced phase: every lane sees the same stimulus.
    for c in 0..5u64 {
        for lane in 0..lanes {
            sliced.poke_u64(lane, "a", 0x1234 ^ c).unwrap();
        }
        for r in &mut refs {
            r.poke("a", Bits::from_u64(0x1234 ^ c, 16));
        }
        sliced.eval().unwrap();
        for r in &mut refs {
            r.eval().unwrap();
        }
        for lane in 0..lanes {
            compare_lane(
                0,
                &format!("coalesced cycle {c}"),
                lane,
                &paths,
                &sliced,
                &refs[lane as usize],
            );
        }
        sliced.tick();
        for r in &mut refs {
            r.tick();
        }
    }
    // A snapshot taken while coalesced must already carry real model
    // state (it reads lane 0's live model).
    let snap = sliced.snapshot_lane(3).expect("snapshot while coalesced");

    // Divergent phase: lane-specific pokes force the fork.
    for c in 0..5u64 {
        for lane in 0..lanes {
            let v = c.wrapping_mul(u64::from(lane) + 1) ^ 0xBEEF;
            sliced.poke_u64(lane, "a", v).unwrap();
            refs[lane as usize].poke("a", Bits::from_u64(v, 16));
        }
        sliced.eval().unwrap();
        for r in &mut refs {
            r.eval().unwrap();
        }
        for lane in 0..lanes {
            compare_lane(
                0,
                &format!("forked cycle {c}"),
                lane,
                &paths,
                &sliced,
                &refs[lane as usize],
            );
        }
        sliced.tick();
        for r in &mut refs {
            r.tick();
        }
    }

    // Restoring that coalesced-era snapshot into a fresh batch (itself
    // still coalesced at bind) must materialize lanes first and land on
    // exactly the state a reference restore lands on.
    let mut replay = SlicedInterpreter::new(&circuit, lanes).unwrap();
    replay
        .bind_behavior_with("xa", |_lane| Box::new(XorAcc::default()))
        .unwrap();
    assert!(replay.restore_lane(2, &snap));
    let mut gold = Interpreter::with_engine(&circuit, ExecEngine::Reference).unwrap();
    gold.bind_behavior("xa", Box::new(XorAcc::default()))
        .unwrap();
    gold.reset();
    assert!(gold.restore_snapshot_bytes(&snap));
    replay.poke_u64(2, "a", 0x0F0F).unwrap();
    gold.poke("a", Bits::from_u64(0x0F0F, 16));
    replay.eval().unwrap();
    gold.eval().unwrap();
    compare_lane(0, "restored lane", 2, &paths, &replay, &gold);
}

/// The memory-port kernels' corner cases, each forced rather than left
/// to the generator: two write ports and the read port on one address in
/// one cycle (last write wins, the read sees the pre-edge entry),
/// addresses past the depth on every port, a 130-bit and a 1-bit memory,
/// enables set only in dead lanes, and ports whose address is wider than
/// 64 bits — which `coverage()` must report as the only scalarized ones.
#[test]
fn memory_port_kernels_match_reference_at_the_corners() {
    let mut mb = ModuleBuilder::new("T");
    let a = mb.input("a", 4);
    let d = mb.input("d", 130);
    let en0 = mb.input("en0", 1);
    let en1 = mb.input("en1", 1);
    let junk = mb.input("junk", 8);
    let wide_a = junk.cat(&a.resize(64));

    let m0 = mb.mem("m0", 130, 5);
    let rd0 = mb.mem_read("rd0", &m0, &a);
    mb.mem_write(&m0, &a, &d, &en0);
    mb.mem_write(&m0, &a, &d.not(), &en1);

    let m1 = mb.mem("m1", 1, 9);
    let rd1 = mb.mem_read("rd1", &m1, &wide_a);
    // Constant enable: set in every lane of the plane, dead ones too.
    mb.mem_write(&m1, &a, &d, &Sig::lit(1, 1));
    mb.mem_write(&m1, &wide_a, &d.shr(1), &en0);
    // `!en1` is 1 in the never-poked dead lanes whatever the live ones do.
    mb.mem_write(&m1, &a.add(&Sig::lit(1, 4)), &d.shr(2), &en1.not());

    let o0 = mb.output("o0", 130);
    let o1 = mb.output("o1", 1);
    mb.connect_sig(&o0, &rd0);
    mb.connect_sig(&o1, &rd1);
    let circuit = Circuit::from_modules("T", vec![mb.finish()], "T");

    let lanes = 5u32;
    let mut sliced = SlicedInterpreter::new(&circuit, lanes).unwrap();
    let cov = sliced.coverage();
    assert_eq!((cov.mem_reads.kernels, cov.mem_reads.scalarized), (1, 1));
    assert_eq!(
        (cov.write_ports.kernels, cov.write_ports.scalarized),
        (4, 1)
    );
    let fell: Vec<_> = cov
        .scalarized
        .iter()
        .map(|s| (s.unit, s.path.as_str(), s.reason))
        .collect();
    assert_eq!(
        fell,
        [
            (SliceUnit::MemRead, "rd1", ScalarReason::WideAddress),
            (
                SliceUnit::WritePort,
                "m1[write 1]",
                ScalarReason::WideAddress
            ),
        ]
    );

    let mut refs: Vec<Interpreter> = (0..lanes)
        .map(|_| Interpreter::with_engine(&circuit, ExecEngine::Reference).unwrap())
        .collect();
    let paths = refs[0].signal_paths();
    let mut rng = Rng(0xC0FFEE);
    for c in 0..64u64 {
        // Every fourth cycle all live lanes raise `en1`, so `!en1` is set
        // in dead lanes only and that port must be skipped outright.
        let all_en1 = c % 4 == 0;
        for lane in 0..lanes {
            let pokes = [
                ("a", Bits::from_u64(rng.below(16), 4)),
                (
                    "d",
                    Bits::from_words(&[rng.next(), rng.next(), rng.next()], 130),
                ),
                ("en0", Bits::from_u64(rng.below(2), 1)),
                ("en1", Bits::from_u64(u64::from(all_en1) | rng.below(2), 1)),
                ("junk", Bits::from_u64(rng.next(), 8)),
            ];
            for (n, v) in &pokes {
                sliced.poke(lane, n, v);
                refs[lane as usize].poke(n, v.clone());
            }
        }
        sliced.eval().unwrap();
        for (lane, r) in refs.iter_mut().enumerate() {
            r.eval().unwrap();
            compare_lane(0, &format!("cycle {c}"), lane as u32, &paths, &sliced, r);
            compare_lane_mems(0, &format!("cycle {c}"), lane as u32, &sliced, r);
            r.tick();
        }
        sliced.tick();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn sliced_lanes_match_reference(seed in any::<u64>()) {
        run_batch_case(seed);
    }
}
