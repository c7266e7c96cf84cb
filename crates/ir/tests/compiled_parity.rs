//! Differential proptest: the compiled tape engine must be bit-identical
//! to the tree-walking reference evaluator on randomized circuits.
//!
//! Each case generates a random netlist (mixed narrow/wide signals,
//! registers, memories, optionally a stateful extern behavioral model,
//! optionally port-connection chains through pass-through instances),
//! runs the same workload through both engines, and compares every
//! elaborated signal after every settle, plus memory contents, port
//! traces, snapshot/restore round-trips and mid-run engine switches.
//! Hand-built cases then pin each rule by which
//! the compiled tape folds port-connection copies into their source's
//! write.

use fireaxe_ir::build::{ModuleBuilder, Sig};
use fireaxe_ir::{
    BinOp, Bits, Circuit, CombPath, ExecEngine, Expr, ExternBehavior, ExternInfo, Interpreter,
    IrError, Module, Port, PortWriter, ResourceHints, SlicedInterpreter, UnOp,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

/// Stateful extern model: comb output mixes input with internal state
/// (so it must never be dirty-skipped), source output publishes state.
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
    fireaxe_ir::state_fields!(state);
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

/// A mostly-interesting random value of the given width.
fn rand_bits(rng: &mut Rng, w: u32) -> Bits {
    match rng.below(5) {
        0 => Bits::zero(w),
        1 => Bits::ones(w),
        2 => Bits::from_u64(rng.below(4), w),
        _ => Bits::from_words(&[rng.next(), rng.next()], w),
    }
}

/// `b <= a` at width `w`: one port connection per level of hierarchy.
fn pass_module(w: u32) -> Module {
    let mut mb = ModuleBuilder::new(format!("Pass{w}"));
    let a = mb.input("a", w);
    let b = mb.output("b", w);
    mb.connect_sig(&b, &a);
    mb.finish()
}

/// Threads `src` through `depth` pass-through instances named
/// `{name}0`, `{name}1`, …: every level adds two copies (into the
/// instance, out of it).
fn pass_chain(mb: &mut ModuleBuilder, name: &str, src: &Sig, w: u32, depth: u32) -> Sig {
    let mut cur = src.clone();
    for d in 0..depth {
        let inst = format!("{name}{d}");
        mb.inst(&inst, format!("Pass{w}"));
        mb.connect_inst(&inst, "a", &cur);
        cur = mb.inst_port(&inst, "b");
    }
    cur
}

struct GenCircuit {
    circuit: Circuit,
    input_widths: Vec<(String, u32)>,
    has_extern: bool,
}

/// A random netlist; with `hier`, some nodes are port-connection chains
/// through pass-through instances (sometimes behind a node alias)
/// instead. Without it the stream of draws is the flat generator's.
fn gen_circuit(rng: &mut Rng, hier: bool) -> GenCircuit {
    let mut mb = ModuleBuilder::new("T");
    // pool of (signal, static width)
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
    // Signals up to this point (inputs, consts, regs) cannot depend on the
    // extern's comb output, so wiring one to its input can't form a cycle.
    let ext_safe_len = pool.len();
    if has_extern {
        mb.inst("xa", "XAcc");
        let y = mb.inst_port("xa", "y");
        let s = mb.inst_port("xa", "s");
        pool.push((y, 16));
        pool.push((s, 16));
    }

    let has_mem = rng.coin(2);
    let mut mem_data_width = 0;
    if has_mem {
        mem_data_width = [8u32, 16, 33, 64, 80][rng.below(5) as usize];
        let depth = 4 + rng.below(12) as u32;
        let m = mb.mem("m0", mem_data_width, depth);
        let pick = rng.below(pool.len() as u64) as usize;
        // Resize the address so reads regularly land in range.
        let raddr = pool[pick].0.resize(4);
        let rd = mb.mem_read("mrd", &m, &raddr);
        pool.push((rd, mem_data_width));
        // Write-port wiring is finished after node generation below.
    }

    let n_nodes = 8 + rng.below(18);
    let mut pass_widths = BTreeSet::new();
    for k in 0..n_nodes {
        if hier && rng.coin(3) {
            let (src, w) = pool[rng.below(pool.len() as u64) as usize].clone();
            let depth = 1 + rng.below(4) as u32;
            let mut out = pass_chain(&mut mb, &format!("p{k}_"), &src, w, depth);
            if rng.coin(2) {
                out = mb.node(format!("n{k}"), &out);
            }
            pass_widths.insert(w);
            pool.push((out, w));
            continue;
        }
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
                let op = if rng.coin(2) { BinOp::Div } else { BinOp::Rem };
                let e = Expr::Binary(op, Box::new(a.expr().clone()), Box::new(b.expr().clone()));
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
                // Equal-width mux; the mismatched-arm fallback has its own
                // dedicated test below.
                let c = pool[rng.below(pool.len() as u64) as usize].0.clone();
                let f = if wa == wb { b.clone() } else { b.resize(wa) };
                (c.mux(&a, &f), wa)
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
    if has_mem {
        let waddr = pool[rng.below(pool.len() as u64) as usize].0.resize(4);
        let (wdata, _) = pool[rng.below(pool.len() as u64) as usize].clone();
        let wen = pool[rng.below(pool.len() as u64) as usize].0.resize(1);
        mb.mem_write("m0", &waddr, &wdata, &wen);
        let _ = mem_data_width;
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
    modules.extend(pass_widths.into_iter().map(pass_module));
    GenCircuit {
        circuit: Circuit::from_modules("T", modules, "T"),
        input_widths,
        has_extern,
    }
}

fn compare_all(seed: u64, at: &str, paths: &[String], gold: &Interpreter, fast: &Interpreter) {
    assert_eq!(
        gold.cycle(),
        fast.cycle(),
        "cycle counters diverged at {at} (seed {seed})"
    );
    for p in paths {
        assert_eq!(
            gold.peek(p),
            fast.peek(p),
            "signal `{p}` diverged at {at} (seed {seed})"
        );
    }
    assert_eq!(
        gold.state_digest(),
        fast.state_digest(),
        "state digest diverged at {at} (seed {seed})"
    );
}

fn compare_mems(seed: u64, at: &str, gold: &Interpreter, fast: &Interpreter) {
    for mp in gold.mem_paths() {
        let depth = gold.mem_depth(&mp).unwrap();
        for i in 0..depth {
            assert_eq!(
                gold.peek_mem(&mp, i),
                fast.peek_mem(&mp, i),
                "mem `{mp}`[{i}] diverged at {at} (seed {seed})"
            );
        }
    }
}

fn run_case(seed: u64) {
    run_case_with(seed, false);
}

/// Every settle's totals must be the reference's: a pass either runs or
/// skips each definition, folded copies included.
fn check_stats(seed: u64, at: &str, gold: &Interpreter, fast: &Interpreter) {
    let (g, f) = (gold.exec_stats(), fast.exec_stats());
    assert_eq!(
        g.settle_passes, f.settle_passes,
        "settle passes at {at} (seed {seed})"
    );
    assert_eq!(
        g.defs_run,
        f.defs_run + f.defs_skipped,
        "definitions per pass at {at} (seed {seed})"
    );
}

/// Every signal, the state digest, the state blobs and the settle
/// totals.
fn compare_hier(seed: u64, at: &str, paths: &[String], gold: &Interpreter, fast: &Interpreter) {
    compare_all(seed, at, paths, gold, fast);
    assert_eq!(
        gold.snapshot_bytes(),
        fast.snapshot_bytes(),
        "{at} (seed {seed})"
    );
    check_stats(seed, at, gold, fast);
}

/// With `hier`, port-connection chains join the netlist and every
/// settle and latch (each of a double settle too) is checked by
/// [`compare_hier`].
fn run_case_with(seed: u64, hier: bool) {
    let mut rng = Rng(seed);
    let g = gen_circuit(&mut rng, hier);
    let mut gold = Interpreter::with_engine(&g.circuit, ExecEngine::Reference)
        .unwrap_or_else(|e| panic!("reference elaboration failed (seed {seed}): {e}"));
    let mut fast = Interpreter::with_engine(&g.circuit, ExecEngine::Compiled)
        .unwrap_or_else(|e| panic!("compiled elaboration failed (seed {seed}): {e}"));
    assert_eq!(gold.engine(), ExecEngine::Reference);
    assert_eq!(fast.engine(), ExecEngine::Compiled);
    if g.has_extern {
        gold.bind_behavior("xa", Box::new(XorAcc::default()))
            .unwrap();
        fast.bind_behavior("xa", Box::new(XorAcc::default()))
            .unwrap();
        gold.reset();
        fast.reset();
    }
    let paths = gold.signal_paths();
    assert_eq!(paths, fast.signal_paths(), "seed {seed}");

    let cycles = 15 + rng.below(25) as usize;
    let mid = cycles / 2;
    let switch_engines = rng.coin(4);
    // Pre-generate the workload so the post-restore replay is identical.
    let mut pokes: Vec<Vec<(String, Bits)>> = Vec::new();
    for _ in 0..cycles {
        let mut v = Vec::new();
        for (name, w) in &g.input_widths {
            // Sometimes leave an input untouched to exercise skipping.
            if !rng.coin(3) {
                v.push((name.clone(), rand_bits(&mut rng, *w)));
            }
        }
        pokes.push(v);
    }

    let mut snap_fast = None;
    for (c, cycle_pokes) in pokes.iter().enumerate() {
        for (n, v) in cycle_pokes {
            gold.poke(n, v.clone());
            fast.poke(n, v.clone());
        }
        gold.eval().unwrap();
        fast.eval().unwrap();
        if rng.coin(4) {
            if hier {
                compare_hier(
                    seed,
                    &format!("cycle {c}, first settle"),
                    &paths,
                    &gold,
                    &fast,
                );
            }
            // Double settle: must be idempotent on both engines.
            gold.eval().unwrap();
            fast.eval().unwrap();
        }
        compare_all(seed, &format!("cycle {c}"), &paths, &gold, &fast);
        if hier {
            compare_hier(seed, &format!("cycle {c}"), &paths, &gold, &fast);
        }
        if c == mid {
            snap_fast = fast.snapshot_bytes();
            assert_eq!(snap_fast, gold.snapshot_bytes(), "seed {seed}");
        }
        if switch_engines && c == mid + 1 {
            fast.set_engine(ExecEngine::Reference);
        }
        if switch_engines && c == mid + 3 {
            fast.set_engine(ExecEngine::Compiled);
        }
        gold.tick();
        fast.tick();
        if hier {
            compare_hier(seed, &format!("cycle {c}, latched"), &paths, &gold, &fast);
        }
    }
    gold.eval().unwrap();
    fast.eval().unwrap();
    compare_all(seed, "final", &paths, &gold, &fast);
    compare_mems(seed, "final", &gold, &fast);

    // Snapshot/restore round trip: replay the recorded tail on the
    // compiled sim and it must land exactly on the reference's final state.
    if let Some(snap) = snap_fast {
        assert!(fast.restore_snapshot_bytes(&snap), "seed {seed}");
        assert_eq!(fast.cycle(), mid as u64, "seed {seed}");
        for cycle_pokes in &pokes[mid..] {
            for (n, v) in cycle_pokes {
                fast.poke(n, v.clone());
            }
            fast.eval().unwrap();
            fast.tick();
        }
        fast.eval().unwrap();
        compare_all(seed, "after restore+replay", &paths, &gold, &fast);
        compare_mems(seed, "after restore+replay", &gold, &fast);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn compiled_engine_matches_reference(seed in any::<u64>()) {
        run_case(seed);
    }

    #[test]
    fn folded_copy_chains_match_reference(seed in any::<u64>()) {
        run_case_with(seed, true);
    }
}

/// The hierarchical generator must actually exercise the fold: most of
/// its netlists compile with folded copies.
#[test]
fn generated_chains_fold() {
    let folded = (0..100u64)
        .filter(|&seed| {
            let g = gen_circuit(&mut Rng(seed), true);
            let sim = Interpreter::with_engine(&g.circuit, ExecEngine::Compiled).unwrap();
            sim.tape_shape().folded_copies > 0
        })
        .count();
    assert!(folded >= 90, "only {folded} of 100 netlists fold a copy");
}

/// A mux whose arms have different widths has a *dynamic* runtime width
/// in the reference evaluator; the compiled engine must fall back to the
/// tree walker for that definition and still match bit for bit.
#[test]
fn mismatched_mux_arms_match_reference() {
    let mut mb = ModuleBuilder::new("M");
    let c = mb.input("c", 1);
    let a = mb.input("a", 8);
    let b = mb.input("b", 16);
    let o = mb.output("o", 16);
    let m = Sig::from_expr(Expr::Mux(
        Box::new(c.expr().clone()),
        Box::new(a.expr().clone()),
        Box::new(b.expr().clone()),
    ));
    let n = mb.node("m", &m);
    mb.connect_sig(&o, &n);
    let circuit = Circuit::from_modules("M", vec![mb.finish()], "M");
    let mut gold = Interpreter::with_engine(&circuit, ExecEngine::Reference).unwrap();
    let mut fast = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
    for (cv, av, bv) in [(0u64, 0xABu64, 0xF00Du64), (1, 0xAB, 0xF00D), (1, 0, 1)] {
        for sim in [&mut gold, &mut fast] {
            sim.poke_u64("c", cv).unwrap();
            sim.poke_u64("a", av).unwrap();
            sim.poke_u64("b", bv).unwrap();
            sim.eval().unwrap();
        }
        assert_eq!(gold.peek("o"), fast.peek("o"), "c={cv} a={av} b={bv}");
    }
}

/// A node *downstream* of a mismatched-arm mux inherits the dynamic
/// runtime width, even though its declared (build-time) width looks
/// static. The word-packing compiler must refuse to bake that width in
/// and scalarize the consumer too (the shared exactness fixpoint), or
/// widths diverge from the reference after the narrow arm is taken.
#[test]
fn dynamic_width_consumers_match_reference() {
    let mut mb = ModuleBuilder::new("M");
    let c = mb.input("c", 1);
    let a = mb.input("a", 8);
    let b = mb.input("b", 16);
    let o = mb.output("o", 16);
    let m = Sig::from_expr(Expr::Mux(
        Box::new(c.expr().clone()),
        Box::new(a.expr().clone()),
        Box::new(b.expr().clone()),
    ));
    let n = mb.node("m", &m);
    // Chain of consumers: slot copy, then an op at the dynamic width.
    let n2 = mb.node("m2", &n);
    let n3 = mb.node("m3", &n2.not());
    mb.connect_sig(&o, &n3);
    let circuit = Circuit::from_modules("M", vec![mb.finish()], "M");
    let mut gold = Interpreter::with_engine(&circuit, ExecEngine::Reference).unwrap();
    let mut fast = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
    for (cv, av, bv) in [(1u64, 0xABu64, 0xF00Du64), (0, 0xAB, 0xF00D), (1, 0, 1)] {
        for sim in [&mut gold, &mut fast] {
            sim.poke_u64("c", cv).unwrap();
            sim.poke_u64("a", av).unwrap();
            sim.poke_u64("b", bv).unwrap();
            sim.eval().unwrap();
        }
        for p in ["m", "m2", "m3", "o"] {
            assert_eq!(gold.peek(p), fast.peek(p), "`{p}` c={cv} a={av} b={bv}");
        }
    }
}

/// `poke_u64` and `poke` must agree on every in-range value; an
/// over-wide value is rejected with the field-named width error (the
/// cockpit relays it verbatim) instead of silently truncating.
#[test]
fn poke_u64_matches_poke() {
    let mut mb = ModuleBuilder::new("P");
    let i = mb.input("i", 12);
    let o = mb.output("o", 12);
    mb.connect_sig(&o, &i);
    let circuit = Circuit::from_modules("P", vec![mb.finish()], "P");
    let mut s1 = Interpreter::new(&circuit).unwrap();
    let mut s2 = Interpreter::new(&circuit).unwrap();
    for v in [0u64, 1, 0xABC, 0xFFF] {
        s1.poke("i", Bits::from_u64(v, 12));
        s2.poke_u64("i", v).unwrap();
        s1.eval().unwrap();
        s2.eval().unwrap();
        assert_eq!(s1.peek("o"), s2.peek("o"), "v={v:#x}");
    }
    for v in [0x1000u64, 0xFFFF, u64::MAX] {
        match s2.poke_u64("i", v) {
            Err(fireaxe_ir::IrError::PokeWidth {
                path,
                width,
                value_bits,
            }) => {
                assert_eq!(path, "i");
                assert_eq!(width, 12);
                assert_eq!(u64::from(value_bits), 64 - v.leading_zeros() as u64);
            }
            other => panic!("expected PokeWidth for v={v:#x}, got {other:?}"),
        }
        // A rejected poke leaves the port untouched.
        s2.eval().unwrap();
        assert_eq!(
            s1.peek("o"),
            s2.peek("o"),
            "rejected v={v:#x} perturbed state"
        );
    }
}

/// A design whose latches read top inputs directly — narrow and wide
/// registers, a narrow memory write port — beside combinational readers
/// of the same inputs and registers, an extern model (sink output and
/// source root) and a memory read port.
fn coherence_circuit() -> Circuit {
    let mut mb = ModuleBuilder::new("C");
    let i = mb.input("i", 8);
    let w = mb.input("w", 100);
    let en = mb.input("en", 1);
    let r = mb.reg("r", 8, 0);
    let acc = mb.reg("acc", 8, 1);
    let wr = mb.reg("wr", 100, 0);
    mb.connect_sig(&r, &i);
    mb.connect_sig(&acc, &acc.add(&i));
    mb.connect_sig(&wr, &w.xor(&wr));
    let n = mb.node("n", &r.xor(&i));
    let s = mb.node("s", &acc.add(&r));
    let m = mb.mem("m", 16, 16);
    mb.mem_write(&m, &i.resize(4), &i.resize(16), &en);
    let rd = mb.mem_read("rd", &m, &r.resize(4));
    mb.inst("xa", "XAcc");
    mb.connect_inst("xa", "x", &i.resize(16));
    let t = mb.node("t", &mb.inst_port("xa", "y").xor(&rd));
    let xs = mb.inst_port("xa", "s");
    for (name, width, sig) in [
        ("o1", 8, &n),
        ("o2", 8, &s),
        ("o3", 100, &wr),
        ("o4", 16, &t),
    ] {
        let o = mb.output(name, width);
        mb.connect_sig(&o, sig);
    }
    let o5 = mb.output("o5", 16);
    mb.connect_sig(&o5, &xs);
    Circuit::from_modules("C", vec![mb.finish(), xacc_module()], "C")
}

/// The reference engine and the compiled one driven in lockstep over
/// [`coherence_circuit`], compared signal by signal and memory word by
/// memory word.
struct Lockstep {
    gold: Interpreter,
    fast: Interpreter,
    paths: Vec<String>,
    inputs: Vec<(&'static str, u32)>,
    rng: Rng,
}

impl Lockstep {
    fn new(seed: u64) -> Self {
        Self::over(
            &coherence_circuit(),
            &[("i", 8), ("w", 100), ("en", 1)],
            seed,
        )
    }

    /// Both engines over `circuit`, every extern instance bound to an
    /// [`XorAcc`]; [`Lockstep::poke`] drives `inputs`.
    fn over(circuit: &Circuit, inputs: &[(&'static str, u32)], seed: u64) -> Self {
        let [gold, fast] = [ExecEngine::Reference, ExecEngine::Compiled].map(|engine| {
            let mut sim = Interpreter::with_engine(circuit, engine).unwrap();
            for (path, _, _) in sim.extern_instances() {
                sim.bind_behavior(&path, Box::new(XorAcc::default()))
                    .unwrap();
            }
            sim.reset();
            sim
        });
        let paths = gold.signal_paths();
        Lockstep {
            gold,
            fast,
            paths,
            inputs: inputs.to_vec(),
            rng: Rng(seed),
        }
    }

    fn both(&mut self, f: impl Fn(&mut Interpreter)) {
        f(&mut self.gold);
        f(&mut self.fast);
    }

    /// Pokes fresh values into some inputs (each is left alone one time
    /// in three, so unchanged roots are exercised too).
    fn poke(&mut self) {
        for (name, w) in self.inputs.clone() {
            if !self.rng.coin(3) {
                let v = rand_bits(&mut self.rng, w);
                self.both(|sim| sim.poke(name, v.clone()));
            }
        }
    }

    fn eval(&mut self) {
        self.both(|sim| sim.eval().unwrap());
    }

    fn tick(&mut self) {
        self.both(Interpreter::tick);
    }

    fn check(&self, at: &str) {
        compare_all(0, at, &self.paths, &self.gold, &self.fast);
        compare_mems(0, at, &self.gold, &self.fast);
    }

    /// [`Lockstep::check`], the state blobs and the settle totals.
    fn check_blob(&self, at: &str) {
        self.check(at);
        let blob = self.fast.snapshot_bytes();
        assert!(blob.is_some(), "{at}: no blob");
        assert_eq!(
            self.gold.snapshot_bytes(),
            blob,
            "state blob diverged at {at}"
        );
        check_stats(0, at, &self.gold, &self.fast);
    }

    /// One target cycle: poke, settle, compare, poke again before the
    /// latch, latch, compare (the latch's own writes), settle, compare.
    fn cycle(&mut self, at: &str) {
        self.poke();
        self.eval();
        self.check(&format!("{at}, settled"));
        self.poke();
        self.tick();
        self.check(&format!("{at}, latched"));
        self.eval();
        self.check(&format!("{at}, resettled"));
    }
}

/// An input poked after `eval` and before `tick` must reach every latch
/// that reads it — a register, a wide register, a memory write port —
/// exactly as the reference engine's latch reads the slot, and the
/// readers of that input must rerun at the next settle even when nothing
/// is poked in between.
#[test]
fn poke_between_eval_and_tick_reaches_the_latch() {
    let mut ls = Lockstep::new(1);
    for c in 0..200 {
        ls.cycle(&format!("cycle {c}"));
    }
    // A poke the next settle sees no further change to.
    for v in [0x5Au64, 0xA5, 0xA5, 0x00] {
        ls.both(|sim| sim.poke_u64("i", 0x11).unwrap());
        ls.eval();
        ls.both(|sim| sim.poke_u64("i", v).unwrap());
        ls.tick();
        ls.eval();
        ls.check(&format!("late poke {v:#x}"));
    }
}

/// `restore_snapshot_bytes` mid-run: straight into a latch, between a
/// settle and its latch, and at a cycle boundary.
#[test]
fn restore_mid_run_matches_reference() {
    let mut ls = Lockstep::new(2);
    for c in 0..20 {
        ls.cycle(&format!("cycle {c}"));
    }
    // A nonzero input in the blob, so a latch reading stale registers
    // after the restore cannot land on the right value by accident.
    ls.both(|sim| sim.poke_u64("i", 0x3C).unwrap());
    ls.eval();
    let blob = ls.fast.snapshot_bytes().unwrap();
    assert_eq!(Some(&blob), ls.gold.snapshot_bytes().as_ref());
    for (k, when) in ["before tick", "after eval", "at boundary"]
        .iter()
        .enumerate()
    {
        for c in 0..5 + k {
            ls.cycle(&format!("{when}, run {c}"));
        }
        match *when {
            "before tick" => {
                ls.both(|sim| assert!(sim.restore_snapshot_bytes(&blob)));
                ls.tick();
            }
            "after eval" => {
                ls.poke();
                ls.eval();
                ls.both(|sim| assert!(sim.restore_snapshot_bytes(&blob)));
                ls.tick();
            }
            _ => ls.both(|sim| assert!(sim.restore_snapshot_bytes(&blob))),
        }
        ls.check(&format!("restored {when}"));
        for c in 0..10 {
            ls.cycle(&format!("{when}, replay {c}"));
        }
    }
}

/// Compiled → reference → compiled, at cycle boundaries and between a
/// settle and its latch: the arena must come back coherent with whatever
/// the other engine left in the slots.
#[test]
fn engine_switch_round_trip_matches_reference() {
    let mut ls = Lockstep::new(4);
    let mut engine = ExecEngine::Compiled;
    for c in 0..120 {
        if c % 5 == 0 {
            engine = match engine {
                ExecEngine::Compiled => ExecEngine::Reference,
                _ => ExecEngine::Compiled,
            };
            if c % 10 == 0 {
                ls.fast.set_engine(engine);
            } else {
                ls.poke();
                ls.eval();
                ls.fast.set_engine(engine);
                ls.poke();
                ls.tick();
                ls.check(&format!("cycle {c}, switched before the latch"));
            }
        }
        ls.cycle(&format!("cycle {c}"));
    }
    assert_eq!(ls.fast.engine(), ExecEngine::Compiled);
}

/// Port-connection chains through two levels of pass-through instances
/// behind every kind of fold head: a register (`r`, whose next value
/// `r ^ i` returns it to where it was after two latches with the same
/// `i`), a top input (`i`, also latched through its copy by `s`), a
/// computing node (`n`), and an extern's source output (`xa.s`).
fn fold_circuit() -> Circuit {
    let mut mb = ModuleBuilder::new("F");
    let i = mb.input("i", 8);
    let j = mb.input("j", 8);
    let r = mb.reg("r", 8, 3);
    mb.connect_sig(&r, &r.xor(&i));
    let rc = pass_chain(&mut mb, "pr", &r, 8, 2);
    let ic = pass_chain(&mut mb, "pi", &i, 8, 2);
    let n = mb.node("n", &rc.add(&j));
    let nc = pass_chain(&mut mb, "pn", &n, 8, 2);
    let s = mb.reg("s", 8, 0);
    mb.connect_sig(&s, &ic);
    mb.inst("xa", "XAcc");
    mb.connect_inst("xa", "x", &i.resize(16));
    let (s_out, y_out) = (mb.inst_port("xa", "s"), mb.inst_port("xa", "y"));
    let xs = pass_chain(&mut mb, "px", &s_out, 16, 2);
    let xy = mb.node("xy", &y_out.bits(7, 0));
    for (name, width, sig) in [
        ("o1", 8, &rc),
        ("o2", 8, &ic),
        ("o3", 8, &nc),
        ("o4", 8, &s),
        ("o5", 16, &xs),
        ("o6", 8, &xy),
    ] {
        let o = mb.output(name, width);
        mb.connect_sig(&o, sig);
    }
    let modules = vec![mb.finish(), xacc_module(), pass_module(8), pass_module(16)];
    Circuit::from_modules("F", modules, "F")
}

const FOLD_INPUTS: &[(&str, u32)] = &[("i", 8), ("j", 8)];

#[test]
fn fold_circuit_folds_every_chain() {
    let sim = Interpreter::with_engine(&fold_circuit(), ExecEngine::Compiled).unwrap();
    let shape = sim.tape_shape();
    // Four chains of two instances (four copies each) plus the four
    // outputs that copy a chain's end or a register.
    assert!(shape.folded_copies >= 16, "{shape}");
}

/// A register's copies keep its old value from the latch to the next
/// settle: a peek in between reads them as the reference leaves them.
#[test]
fn register_copy_peeked_between_tick_and_eval() {
    let mut ls = Lockstep::over(&fold_circuit(), FOLD_INPUTS, 11);
    for c in 0..100 {
        ls.poke();
        ls.eval();
        ls.check_blob(&format!("cycle {c}, settled"));
        ls.tick();
        ls.check_blob(&format!("cycle {c}, latched"));
        assert_eq!(ls.gold.peek("pr1.b"), ls.fast.peek("pr1.b"), "cycle {c}");
    }
}

/// An input poked between a settle and its latch: the latch reading
/// the input's copy sees the copy's settled value, and the copies follow
/// the input only at the next settle.
#[test]
fn input_copy_poked_between_eval_and_tick() {
    let mut ls = Lockstep::over(&fold_circuit(), FOLD_INPUTS, 12);
    for c in 0..100 {
        ls.poke();
        ls.eval();
        ls.check_blob(&format!("cycle {c}, settled"));
        let v = ls.rng.below(256);
        ls.both(|sim| sim.poke_u64("i", v).unwrap());
        ls.check_blob(&format!("cycle {c}, poked"));
        ls.tick();
        ls.check_blob(&format!("cycle {c}, latched"));
    }
}

/// Two latches with no settle between them, the register coming back
/// to its old value: its copies did not change, and the counts say so
/// as the dirty set without folding counted them (frozen from it).
#[test]
fn register_returns_across_two_ticks() {
    let mut ls = Lockstep::over(&fold_circuit(), FOLD_INPUTS, 13);
    for c in 0..20 {
        ls.poke();
        ls.eval();
        ls.check_blob(&format!("cycle {c}, settled"));
        if c % 3 == 0 {
            ls.tick();
            ls.check_blob(&format!("cycle {c}, first latch"));
        }
        ls.tick();
        ls.check_blob(&format!("cycle {c}, latched"));
    }
    ls.eval();
    ls.check_blob("final");
    let f = ls.fast.exec_stats();
    assert_eq!(
        (f.settle_passes, f.defs_run, f.defs_skipped),
        (21, 409, 137)
    );
}

/// A blob restored between a settle and its latch, taken at every point
/// of the cycle.
#[test]
fn restore_between_eval_and_tick_with_copies() {
    let mut ls = Lockstep::over(&fold_circuit(), FOLD_INPUTS, 14);
    let mut blobs = Vec::new();
    for c in 0..30 {
        ls.poke();
        blobs.push(ls.fast.snapshot_bytes().unwrap());
        ls.eval();
        ls.check_blob(&format!("cycle {c}, settled"));
        if c % 4 == 3 {
            let blob = &blobs[ls.rng.below(blobs.len() as u64) as usize];
            ls.both(|sim| assert!(sim.restore_snapshot_bytes(blob)));
            ls.check_blob(&format!("cycle {c}, restored"));
        }
        ls.tick();
        ls.check_blob(&format!("cycle {c}, latched"));
    }
}

/// Port-connection copies read straight out of the slots rather than
/// through the arena: an extern input port (`xa.x`, the end of a
/// register's chain), tree-walked definitions (a 72-bit cat and a mux
/// with arms of different widths), a wide register's next value and a
/// wide memory's write port, each reading a register's or an input's
/// copy; beside them a narrow register latching an input's copy.
fn eager_circuit() -> Circuit {
    let mut mb = ModuleBuilder::new("E");
    let i = mb.input("i", 8);
    let j = mb.input("j", 16);
    let c = mb.input("c", 1);
    let q = mb.input("q", 64);
    let r = mb.reg("r", 8, 3);
    let x = mb.reg("x", 16, 7);
    mb.connect_sig(&r, &r.add(&i));
    mb.connect_sig(&x, &x.xor(&j));
    let rc = pass_chain(&mut mb, "pr", &r, 8, 2);
    let ic = pass_chain(&mut mb, "pi", &i, 8, 2);
    let xc = pass_chain(&mut mb, "px", &x, 16, 2);
    let jc = pass_chain(&mut mb, "pj", &j, 16, 2);
    mb.inst("xa", "XAcc");
    mb.connect_inst("xa", "x", &xc);
    let y = mb.inst_port("xa", "y");
    let wide = mb.node("wide", &rc.cat(&q));
    let dynw = mb.node("dynw", &c.mux(&ic, &jc));
    let wr = mb.reg("wr", 100, 0);
    mb.connect_sig(&wr, &wr.xor(&ic.cat(&q).resize(100)));
    let s = mb.reg("s", 8, 0);
    mb.connect_sig(&s, &ic);
    let m = mb.mem("m", 80, 16);
    mb.mem_write(&m, &rc.resize(4), &jc.cat(&q), &c);
    let rd = mb.mem_read("rd", &m, &ic.resize(4));
    for (name, width, sig) in [
        ("o1", 16, &y),
        ("o2", 72, &wide),
        ("o3", 16, &dynw),
        ("o4", 100, &wr),
        ("o5", 8, &s),
        ("o6", 80, &rd),
        ("o7", 8, &rc),
    ] {
        let o = mb.output(name, width);
        mb.connect_sig(&o, sig);
    }
    let modules = vec![mb.finish(), xacc_module(), pass_module(8), pass_module(16)];
    Circuit::from_modules("E", modules, "E")
}

const EAGER_INPUTS: &[(&str, u32)] = &[("i", 8), ("j", 16), ("c", 1), ("q", 64)];

/// A register's copy feeds an extern input port: the model's settle and
/// its tick read the copy as the reference leaves it, before and after
/// the latch.
#[test]
fn copy_feeding_an_extern_input() {
    let mut ls = Lockstep::over(&eager_circuit(), EAGER_INPUTS, 21);
    for c in 0..100 {
        ls.poke();
        ls.eval();
        ls.check_blob(&format!("cycle {c}, settled"));
        ls.tick();
        ls.check_blob(&format!("cycle {c}, latched"));
        assert_eq!(ls.gold.peek("xa.x"), ls.fast.peek("xa.x"), "cycle {c}");
        assert_eq!(ls.gold.peek("o1"), ls.fast.peek("o1"), "cycle {c}");
    }
}

/// Tree-walked definitions and latches read copies of registers and
/// inputs; inputs poked between a settle and its latch and two latches
/// without a settle move the copies only when the reference's do.
#[test]
fn copy_read_by_a_tree_fallback_unit() {
    let mut ls = Lockstep::over(&eager_circuit(), EAGER_INPUTS, 22);
    for c in 0..100 {
        ls.poke();
        ls.eval();
        ls.check_blob(&format!("cycle {c}, settled"));
        ls.poke();
        ls.check_blob(&format!("cycle {c}, poked"));
        if c % 3 == 0 {
            ls.tick();
            ls.check_blob(&format!("cycle {c}, first latch"));
        }
        ls.tick();
        ls.check_blob(&format!("cycle {c}, latched"));
    }
    ls.eval();
    ls.check_blob("final");
}

/// Compiled → reference → compiled over copies of every kind, switched
/// after a settle, after a poke and after a latch, with every signal
/// peeked right after each switch.
#[test]
fn engine_switches_peek_copies_after_each_switch() {
    for (circuit, inputs) in [
        (fold_circuit(), FOLD_INPUTS),
        (eager_circuit(), EAGER_INPUTS),
    ] {
        let mut ls = Lockstep::over(&circuit, inputs, 23);
        let mut engine = ExecEngine::Compiled;
        for c in 0..90 {
            let mut switch = |ls: &mut Lockstep, at: &str| {
                engine = match engine {
                    ExecEngine::Compiled => ExecEngine::Reference,
                    _ => ExecEngine::Compiled,
                };
                ls.fast.set_engine(engine);
                ls.check_blob(&format!("cycle {c}, switched {at}"));
            };
            ls.poke();
            ls.eval();
            if c % 3 == 0 {
                switch(&mut ls, "after the settle");
            }
            ls.poke();
            if c % 3 == 1 {
                switch(&mut ls, "after a poke");
            }
            ls.tick();
            if c % 3 == 2 {
                switch(&mut ls, "after the latch");
            }
            ls.check_blob(&format!("cycle {c}, latched"));
        }
    }
}

/// An input copied through eight instances beside an extern model that
/// reads it: most of the chain is scheduled after the extern.
fn unbound_circuit() -> Circuit {
    let mut mb = ModuleBuilder::new("U");
    let i = mb.input("i", 16);
    let r = mb.reg("r", 16, 5);
    mb.connect_sig(&r, &r.add(&i));
    let ic = pass_chain(&mut mb, "pi", &i, 16, 8);
    let rc = pass_chain(&mut mb, "pr", &r, 16, 8);
    mb.inst("xa", "XAcc");
    mb.connect_inst("xa", "x", &i);
    let y = mb.inst_port("xa", "y");
    for (name, sig) in [("o1", &ic), ("o2", &rc), ("o3", &y)] {
        let o = mb.output(name, 16);
        mb.connect_sig(&o, sig);
    }
    let modules = vec![mb.finish(), xacc_module(), pass_module(16)];
    Circuit::from_modules("U", modules, "U")
}

/// A settle with an extern that has no model fails before any
/// definition runs, on both engines and on the sliced front end: every
/// signal and the settle totals stay where they were, so no copy is left
/// apart from its source.
#[test]
fn unbound_extern_fails_before_the_sweep() {
    let circuit = unbound_circuit();
    let [mut gold, mut fast] = [ExecEngine::Reference, ExecEngine::Compiled]
        .map(|engine| Interpreter::with_engine(&circuit, engine).unwrap());
    let mut sliced = SlicedInterpreter::new(&circuit, 4).unwrap();
    let paths = gold.signal_paths();
    let peeks = |sim: &Interpreter| {
        paths
            .iter()
            .map(|p| sim.peek(p).clone())
            .collect::<Vec<_>>()
    };
    let lane_peeks = |sim: &SlicedInterpreter| {
        (0..4)
            .flat_map(|lane| paths.iter().map(move |p| sim.peek(lane, p)))
            .collect::<Vec<_>>()
    };
    for c in 0..6u64 {
        for sim in [&mut gold, &mut fast] {
            sim.poke_u64("i", 0x1234 + c).unwrap();
        }
        for lane in 0..4 {
            sliced.poke_u64(lane, "i", 0x1234 + c).unwrap();
        }
        let (before, stats) = (peeks(&gold), gold.exec_stats());
        let lanes_before = lane_peeks(&sliced);
        let (g, f, s) = (gold.eval(), fast.eval(), sliced.eval());
        assert_eq!(format!("{g:?}"), format!("{f:?}"), "cycle {c}");
        assert_eq!(format!("{g:?}"), format!("{s:?}"), "cycle {c}");
        assert!(
            matches!(g, Err(IrError::ExternWithoutBehavior { .. })),
            "cycle {c}"
        );
        for sim in [&gold, &fast] {
            assert_eq!(peeks(sim), before, "cycle {c}");
            assert_eq!(sim.exec_stats(), stats, "cycle {c}");
        }
        assert_eq!(lane_peeks(&sliced), lanes_before, "cycle {c}");
        compare_all(0, &format!("cycle {c}, refused"), &paths, &gold, &fast);
        assert_ne!(gold.peek("i"), gold.peek("pi7.b"), "cycle {c}");
        gold.tick();
        fast.tick();
        compare_all(0, &format!("cycle {c}, latched"), &paths, &gold, &fast);
    }
    for sim in [&mut gold, &mut fast] {
        sim.bind_behavior("xa", Box::new(XorAcc::default()))
            .unwrap();
    }
    for c in 0..6u64 {
        for sim in [&mut gold, &mut fast] {
            sim.poke_u64("i", 0x4321 + c).unwrap();
            sim.eval().unwrap();
        }
        compare_all(0, &format!("bound, cycle {c}"), &paths, &gold, &fast);
        assert_eq!(
            gold.snapshot_bytes(),
            fast.snapshot_bytes(),
            "bound, cycle {c}"
        );
        gold.tick();
        fast.tick();
    }
}
