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
//!
//! The `lockstep_*` cases drive fixed designs through the writes a
//! work-skipping scheduler must not miss: a poke between `eval` and
//! `tick`, a long idle stretch ended by a poke, memory writes under a
//! held read address, `restore_lane` mid-run, a coalesced extern forking
//! mid-run, and two settles without a latch.

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

/// A sliced batch and one independent reference run per lane, driven in
/// lock step: every poke, settle and latch goes to both, and
/// [`Lockstep::check`] compares every signal, every memory entry and the
/// state digest of every lane. The cases below hold the engine to the
/// reference at the points where a scheduler that skips work could fall
/// behind: writes from outside the settle sweep, long idle stretches,
/// lane restores and extern forks.
struct Lockstep {
    sliced: SlicedInterpreter,
    refs: Vec<Interpreter>,
    paths: Vec<String>,
    lanes: u32,
}

impl Lockstep {
    fn new(circuit: &Circuit, lanes: u32, xacc: bool) -> Self {
        let mut sliced = SlicedInterpreter::new(circuit, lanes).unwrap();
        let mut refs: Vec<Interpreter> = (0..lanes)
            .map(|_| Interpreter::with_engine(circuit, ExecEngine::Reference).unwrap())
            .collect();
        if xacc {
            sliced
                .bind_behavior_with("xa", |_lane| Box::new(XorAcc::default()))
                .unwrap();
            for r in &mut refs {
                r.bind_behavior("xa", Box::new(XorAcc::default())).unwrap();
            }
        }
        sliced.reset();
        for r in &mut refs {
            r.reset();
        }
        let paths = refs[0].signal_paths();
        Lockstep {
            sliced,
            refs,
            paths,
            lanes,
        }
    }

    fn poke(&mut self, lane: u32, name: &str, value: u64) {
        self.sliced.poke_u64(lane, name, value).unwrap();
        self.refs[lane as usize].poke_u64(name, value).unwrap();
    }

    /// Drives `name` on every lane through the transposed all-lane poke.
    fn poke_lanes(&mut self, name: &str, value: impl Fn(u32) -> u64) {
        let values: Vec<u64> = (0..self.lanes).map(&value).collect();
        self.sliced.poke_lanes_u64(name, &values);
        for (r, v) in self.refs.iter_mut().zip(&values) {
            r.poke_u64(name, *v).unwrap();
        }
    }

    fn eval(&mut self) {
        self.sliced.eval().unwrap();
        for r in &mut self.refs {
            r.eval().unwrap();
        }
    }

    fn tick(&mut self) {
        self.sliced.tick();
        for r in &mut self.refs {
            r.tick();
        }
    }

    fn check(&self, at: &str) {
        assert_eq!(self.sliced.cycle(), self.refs[0].cycle(), "cycle at {at}");
        for (lane, gold) in self.refs.iter().enumerate() {
            compare_lane(0, at, lane as u32, &self.paths, &self.sliced, gold);
            compare_lane_mems(0, at, lane as u32, &self.sliced, gold);
        }
    }
}

/// A register that adds an input it reads directly, one that latches a
/// product of that input through a node (so it latches whatever the last
/// settle left there), a wide register and a scalarized one.
fn latch_circuit() -> Circuit {
    let mut mb = ModuleBuilder::new("Latch");
    let a = mb.input("a", 16);
    let b = mb.input("b", 70);
    let n = mb.node("n", &a.mul(&Sig::lit(3, 16)));
    let q = mb.node(
        "q",
        &Sig::from_expr(Expr::Binary(
            BinOp::Div,
            Box::new(a.expr().clone()),
            Box::new(a.bits(3, 0).or(&Sig::lit(1, 4)).expr().clone()),
        )),
    );
    let direct = mb.reg("direct", 16, 1);
    mb.connect_sig(&direct, &direct.add(&a));
    let via_node = mb.reg("via_node", 16, 2);
    mb.connect_sig(&via_node, &n);
    let wide = mb.reg("wide", 70, 3);
    mb.connect_sig(&wide, &wide.xor(&b).add(&a.resize(70)));
    let slow = mb.reg("slow", 16, 4);
    mb.connect_sig(
        &slow,
        &Sig::from_expr(Expr::Binary(
            BinOp::Rem,
            Box::new(slow.add(&a).expr().clone()),
            Box::new(Sig::lit(1000, 16).expr().clone()),
        )),
    );
    let o = mb.output("o", 16);
    mb.connect_sig(&o, &direct.xor(&via_node).xor(&q));
    let ow = mb.output("ow", 70);
    mb.connect_sig(&ow, &wide);
    Circuit::from_modules("Latch", vec![mb.finish()], "Latch")
}

/// An input poked between `eval` and `tick` reaches every register that
/// reads it directly at that tick — and only those: a register behind a
/// node latches the value the last settle computed.
#[test]
fn lockstep_poke_between_eval_and_tick() {
    let mut ls = Lockstep::new(&latch_circuit(), 7, false);
    let fell: Vec<_> = ls
        .sliced
        .coverage()
        .scalarized
        .iter()
        .map(|s| s.unit)
        .collect();
    assert_eq!(fell, [SliceUnit::Def, SliceUnit::RegNext]);
    let mut rng = Rng(0x5EED_0001);
    for c in 0..40u64 {
        for lane in 0..ls.lanes {
            let v = rng.below(1 << 16);
            ls.poke(lane, "a", v);
        }
        ls.poke_lanes("b", |lane| (u64::from(lane) * 0x9E37) ^ c);
        ls.eval();
        ls.check(&format!("cycle {c} settled"));
        // Re-poke after the settle: some lanes move, some keep the value
        // they just settled with, and every third cycle none move.
        if c % 3 != 0 {
            for lane in (0..ls.lanes).filter(|l| (l + c as u32).is_multiple_of(2)) {
                let v = rng.below(1 << 16);
                ls.poke(lane, "a", v);
            }
        }
        ls.tick();
        ls.check(&format!("cycle {c} latched"));
    }
    ls.eval();
    ls.check("final");
}

/// A sequencer that sits idle (its registers hold) until `go` is poked,
/// with a scalarized divide, an inexact mux and a wide node on the
/// woken path.
fn idle_circuit() -> Circuit {
    let mut mb = ModuleBuilder::new("Idle");
    let go = mb.input("go", 1);
    let k = mb.input("k", 8);
    let cnt = mb.reg("cnt", 16, 0);
    mb.connect_sig(&cnt, &go.mux(&cnt.add(&k.resize(16)), &cnt));
    let d = mb.node(
        "d",
        &Sig::from_expr(Expr::Binary(
            BinOp::Div,
            Box::new(cnt.expr().clone()),
            Box::new(k.or(&Sig::lit(1, 8)).expr().clone()),
        )),
    );
    // Arms of different widths: the slot's width follows `go` at run
    // time, so it and its readers scalarize per lane.
    let mm = mb.node("mm", &go.mux(&cnt, &k));
    let wide = mb.node("wide", &cnt.cat(&d).cat(&cnt.not()).resize(100));
    let acc = mb.reg("acc", 100, 7);
    mb.connect_sig(&acc, &go.mux(&acc.xor(&wide).shl(1), &acc));
    let seen = mb.reg("seen", 1, 0);
    mb.connect_sig(&seen, &seen.or(&go));
    let o = mb.output("o", 16);
    mb.connect_sig(&o, &d.xor(&mm.resize(16)));
    let ow = mb.output("ow", 100);
    mb.connect_sig(&ow, &acc);
    let os = mb.output("os", 1);
    mb.connect_sig(&os, &seen);
    Circuit::from_modules("Idle", vec![mb.finish()], "Idle")
}

/// Hundreds of idle cycles (nothing moves, so a scheduler may skip every
/// kernel), then a poke wakes some lanes, then they fall idle again.
#[test]
fn lockstep_idle_design_woken_by_a_poke() {
    let lanes = 64;
    let mut ls = Lockstep::new(&idle_circuit(), lanes, false);
    let reasons: Vec<_> = ls
        .sliced
        .coverage()
        .scalarized
        .iter()
        .map(|s| s.reason)
        .collect();
    assert!(reasons.contains(&ScalarReason::DivRem), "{reasons:?}");
    assert!(reasons.contains(&ScalarReason::InexactSlot), "{reasons:?}");
    ls.poke_lanes("k", |lane| (u64::from(lane) * 7 + 3) & 0xFF);
    for c in 0..300u64 {
        ls.eval();
        if c % 50 == 0 {
            ls.check(&format!("idle cycle {c}"));
        }
        ls.tick();
    }
    ls.eval();
    ls.check("end of idle");
    // Wake every fifth lane for 20 cycles.
    for lane in (0..lanes).step_by(5) {
        ls.poke(lane, "go", 1);
    }
    for c in 0..20 {
        ls.eval();
        ls.check(&format!("woken cycle {c}"));
        ls.tick();
    }
    ls.poke_lanes("go", |_| 0);
    for c in 0..200 {
        ls.eval();
        if c % 40 == 0 {
            ls.check(&format!("idle again {c}"));
        }
        ls.tick();
    }
    // One lane wakes for a single cycle.
    ls.poke(63, "go", 1);
    ls.eval();
    ls.check("one lane woken");
    ls.tick();
    ls.poke(63, "go", 0);
    ls.eval();
    ls.check("one lane back to idle");
}

/// A memory whose read address holds still while writes land under it.
fn mem_hold_circuit() -> Circuit {
    let mut mb = ModuleBuilder::new("MemHold");
    let ra = mb.input("ra", 3);
    let wa = mb.input("wa", 3);
    let wd = mb.input("wd", 16);
    let we = mb.input("we", 1);
    let m = mb.mem("m", 16, 8);
    let rd = mb.mem_read("rd", &m, &ra);
    mb.mem_write(&m, &wa, &wd, &we);
    let w = mb.mem("w", 80, 6);
    // The wide memory's read address is a register that never moves.
    let wra = mb.reg("wra", 3, 2);
    mb.connect_sig(&wra, &wra);
    let wrd = mb.mem_read("wrd", &w, &wra);
    mb.mem_write(&w, &wa, &wd.cat(&wd).cat(&wd).resize(80), &we);
    let acc = mb.reg("acc", 16, 0);
    mb.connect_sig(&acc, &acc.add(&rd));
    let o = mb.output("o", 16);
    mb.connect_sig(&o, &rd);
    let ow = mb.output("ow", 80);
    mb.connect_sig(&ow, &wrd);
    Circuit::from_modules("MemHold", vec![mb.finish()], "MemHold")
}

#[test]
fn lockstep_memory_written_under_a_held_read_address() {
    let lanes = 9;
    let mut ls = Lockstep::new(&mem_hold_circuit(), lanes, false);
    ls.poke_lanes("ra", |lane| u64::from(lane % 3) + 1);
    let mut rng = Rng(0x5EED_0003);
    for c in 0..80u64 {
        // Writes aim at the held address half the time.
        for lane in 0..lanes {
            let wa = if rng.coin(2) {
                u64::from(lane % 3) + 1
            } else {
                rng.below(8)
            };
            ls.poke(lane, "wa", wa);
            let wd = rng.below(1 << 16);
            ls.poke(lane, "wd", wd);
            let we = u64::from(c % 4 != 3 && rng.coin(2));
            ls.poke(lane, "we", we);
        }
        ls.eval();
        ls.check(&format!("cycle {c}"));
        ls.tick();
    }
    ls.eval();
    ls.check("final");
}

/// Restoring one lane mid-run (with another lane's same-cycle state)
/// while the rest of the batch sits idle.
#[test]
fn lockstep_restore_lane_mid_run() {
    let lanes = 16;
    let mut ls = Lockstep::new(&idle_circuit(), lanes, false);
    ls.poke_lanes("k", |lane| u64::from(lane) + 1);
    ls.poke(5, "go", 1);
    for c in 0..30 {
        ls.eval();
        ls.check(&format!("cycle {c}"));
        ls.tick();
    }
    ls.poke(5, "go", 0);
    for _ in 0..30 {
        ls.eval();
        ls.tick();
    }
    ls.eval();
    ls.check("idle before restore");
    // Lane 3 takes lane 5's state, settled or not.
    let blob = ls.refs[5].snapshot_bytes().expect("no externs");
    assert!(ls.sliced.restore_lane(3, &blob));
    assert!(ls.refs[3].restore_snapshot_bytes(&blob));
    ls.check("restored, before settle");
    for c in 0..10 {
        ls.eval();
        ls.check(&format!("after restore {c}"));
        ls.tick();
    }
    // Then a restore between `eval` and `tick`, from a lane that is
    // counting.
    ls.poke(9, "go", 1);
    ls.eval();
    ls.tick();
    ls.eval();
    let blob = ls.refs[9].snapshot_bytes().expect("no externs");
    assert!(ls.sliced.restore_lane(0, &blob));
    assert!(ls.refs[0].restore_snapshot_bytes(&blob));
    ls.tick();
    for c in 0..10 {
        ls.eval();
        ls.check(&format!("after second restore {c}"));
        ls.tick();
    }
}

/// A coalesced extern: identical lanes share one model call until a
/// divergent poke — here between `eval` and `tick`, so the fork happens
/// in the latch — splits them mid-run.
#[test]
fn lockstep_coalesced_extern_forks_mid_run() {
    let mut mb = ModuleBuilder::new("Top");
    let a = mb.input("a", 16);
    let inst = mb.inst("xa", "XAcc");
    mb.connect_inst(&inst, "x", &a);
    let iy = mb.inst_port(&inst, "y");
    let is = mb.inst_port(&inst, "s");
    let r = mb.reg("r", 16, 0);
    mb.connect_sig(&r, &r.xor(&iy));
    let y = mb.output("y", 16);
    mb.connect_sig(&y, &iy.add(&r));
    let s = mb.output("s", 16);
    mb.connect_sig(&s, &is);
    let circuit = Circuit::from_modules("Top", vec![mb.finish(), xacc_module()], "Top");

    let lanes = 12;
    let mut ls = Lockstep::new(&circuit, lanes, true);
    // Uniform phase, with the input held for stretches.
    for c in 0..30u64 {
        ls.poke_lanes("a", |_| 0x1234 ^ (c / 7));
        ls.eval();
        ls.check(&format!("coalesced cycle {c}"));
        ls.tick();
    }
    // Divergent poke after the settle: the tick must fork.
    ls.poke_lanes("a", |_| 0x4321);
    ls.eval();
    ls.poke(7, "a", 0xBEEF);
    ls.tick();
    ls.check("forked in the latch");
    for c in 0..30u64 {
        ls.poke_lanes("a", |lane| u64::from(lane) * (c / 5 + 1));
        ls.eval();
        ls.check(&format!("forked cycle {c}"));
        ls.tick();
    }
    ls.eval();
    ls.check("final");
}

/// Two settles without a latch between them (with and without a poke in
/// between) leave exactly what one settle of the last inputs leaves.
#[test]
fn lockstep_two_evals_without_a_tick() {
    let mut ls = Lockstep::new(&latch_circuit(), 5, false);
    let mut rng = Rng(0x5EED_0006);
    for c in 0..30u64 {
        for lane in 0..ls.lanes {
            let v = rng.below(1 << 16);
            ls.poke(lane, "a", v);
        }
        ls.eval();
        ls.eval();
        ls.check(&format!("cycle {c} settled twice"));
        if c % 2 == 0 {
            ls.poke(c as u32 % 5, "a", rng.below(1 << 16));
            ls.eval();
            ls.check(&format!("cycle {c} re-poked and settled"));
        }
        ls.tick();
    }
    ls.eval();
    ls.check("final");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn sliced_lanes_match_reference(seed in any::<u64>()) {
        run_batch_case(seed);
    }
}
