//! Property-based tests over the core invariants.
//!
//! The headline property is the paper's central correctness claim: for
//! *any* design with a legal partition boundary, exact-mode partitioned
//! simulation is cycle- and bit-identical to monolithic interpretation.
//! We generate random register+logic tiles, partition them, and compare
//! full output traces.

use fireaxe::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------- Bits algebra ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bits_add_commutes(a in any::<u64>(), b in any::<u64>(), w in 1u32..100) {
        let x = Bits::from_u64(a, w);
        let y = Bits::from_u64(b, w);
        prop_assert_eq!(x.add(&y), y.add(&x));
    }

    #[test]
    fn bits_sub_inverts_add(a in any::<u64>(), b in any::<u64>(), w in 1u32..100) {
        let x = Bits::from_u64(a, w);
        let y = Bits::from_u64(b, w);
        prop_assert_eq!(x.add(&y).sub(&y), x);
    }

    #[test]
    fn bits_cat_extract_roundtrip(hi in any::<u64>(), lo in any::<u64>(), wh in 1u32..40, wl in 1u32..40) {
        let h = Bits::from_u64(hi, wh);
        let l = Bits::from_u64(lo, wl);
        let c = h.cat(&l);
        prop_assert_eq!(c.extract(wl + wh - 1, wl), h);
        prop_assert_eq!(c.extract(wl - 1, 0), l);
    }

    #[test]
    fn bits_xor_self_annihilates(a in any::<u64>(), w in 1u32..128) {
        let x = Bits::from_u64(a, w);
        prop_assert!(x.xor(&x).is_zero());
        prop_assert_eq!(x.xor(&Bits::zero(w)), x);
    }

    #[test]
    fn bits_not_involution(a in any::<u64>(), w in 1u32..128) {
        let x = Bits::from_u64(a, w);
        prop_assert_eq!(x.not().not(), x);
    }
}

// ---------- Channel packing ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn channel_pack_unpack_roundtrip(vals in proptest::collection::vec((1u32..48, any::<u64>()), 1..6)) {
        use fireaxe::libdn::ChannelSpec;
        let ports: Vec<(String, Width)> = vals
            .iter()
            .enumerate()
            .map(|(i, (w, _))| (format!("p{i}"), Width::new(*w)))
            .collect();
        let spec = ChannelSpec::new("c", ports);
        let mut map = BTreeMap::new();
        for (i, (w, v)) in vals.iter().enumerate() {
            map.insert(format!("p{i}"), Bits::from_u64(*v, *w));
        }
        let token = spec.pack(&map);
        let back = spec.unpack(&token);
        for (i, (w, v)) in vals.iter().enumerate() {
            prop_assert_eq!(&back[&format!("p{i}")], &Bits::from_u64(*v, *w));
        }
    }
}

// ---------- Random circuit generation ----------

/// A random register update: which operation over which operands.
#[derive(Debug, Clone)]
struct RegRule {
    op: u8,
    a: u8, // operand selector: regs or input
    b: u8,
}

fn apply(op: u8, a: &Sig, b: &Sig) -> Sig {
    match op % 6 {
        0 => a.add(b),
        1 => a.sub(b),
        2 => a.xor(b),
        3 => a.and(b),
        4 => a.or(b),
        _ => a.add(b).xor(a),
    }
}

/// Builds a random tile: `nregs` registers updated by random rules over
/// (registers, input), a register-driven `src_out`, and a combinational
/// `snk_out` that depends on the input.
fn random_tile(rules: &[RegRule], inits: &[u64]) -> fireaxe::ir::Module {
    let n = rules.len();
    let mut mb = ModuleBuilder::new("Tile");
    let input = mb.input("req", 16);
    let src_out = mb.output("src_out", 16);
    let snk_out = mb.output("snk_out", 16);
    let regs: Vec<Sig> = (0..n)
        .map(|i| mb.reg(format!("r{i}"), 16, inits[i]))
        .collect();
    let pick = |sel: u8| -> Sig {
        let k = sel as usize % (n + 1);
        if k == n {
            input.clone()
        } else {
            regs[k].clone()
        }
    };
    for (i, rule) in rules.iter().enumerate() {
        let next = apply(rule.op, &pick(rule.a), &pick(rule.b));
        mb.connect_sig(&regs[i], &next);
    }
    mb.connect_sig(&src_out, &regs[0]);
    // Sink output: combinational on the input (exercises the two-crossing
    // exact-mode schedule).
    let comb = apply(rules[0].op ^ 1, &input, &regs[n - 1]);
    mb.connect_sig(&snk_out, &comb);
    mb.finish()
}

fn random_soc(rules: &[RegRule], inits: &[u64]) -> Circuit {
    let tile = random_tile(rules, inits);
    let mut top = ModuleBuilder::new("Soc");
    let i = top.input("i", 16);
    let o_src = top.output("o_src", 16);
    let o_snk = top.output("o_snk", 16);
    top.inst("t", "Tile");
    let hub = top.reg("hub", 16, 1);
    top.connect_inst("t", "req", &hub);
    let s = top.inst_port("t", "src_out");
    let k = top.inst_port("t", "snk_out");
    top.connect_sig(&hub, &k.xor(&i));
    top.connect_sig(&o_src, &s);
    top.connect_sig(&o_snk, &k);
    Circuit::from_modules("Soc", vec![top.finish(), tile], "Soc")
}

/// Monolithic golden trace of both outputs (default engine).
fn golden_trace(c: &Circuit, cycles: usize) -> Vec<(u64, u64)> {
    golden_trace_on(c, cycles, fireaxe::ir::ExecEngine::default())
}

/// Monolithic trace on a specific execution engine.
fn golden_trace_on(c: &Circuit, cycles: usize, engine: fireaxe::ir::ExecEngine) -> Vec<(u64, u64)> {
    let mut sim = Interpreter::with_engine(c, engine).unwrap();
    let mut out = Vec::new();
    for cyc in 0..cycles {
        sim.poke("i", Bits::from_u64(stimulus(cyc as u64), 16));
        sim.eval().unwrap();
        out.push((sim.peek("o_src").to_u64(), sim.peek("o_snk").to_u64()));
        sim.tick();
    }
    out
}

fn stimulus(cycle: u64) -> u64 {
    (cycle.wrapping_mul(2654435761)) & 0xFFFF
}

fn partitioned_trace(c: &Circuit, mode: PartitionMode, cycles: usize) -> Vec<(u64, u64)> {
    partitioned_trace_on(c, mode, cycles, Backend::Des)
}

fn partitioned_trace_on(
    c: &Circuit,
    mode: PartitionMode,
    cycles: usize,
    backend: Backend,
) -> Vec<(u64, u64)> {
    let spec = PartitionSpec {
        mode,
        channel_policy: ChannelPolicy::Separated,
        groups: vec![PartitionGroup::instances("t", vec!["t".into()])],
    };
    let bridge = ScriptBridge::new(|cycle| {
        let mut m = BTreeMap::new();
        m.insert("i".to_string(), Bits::from_u64(stimulus(cycle), 16));
        m
    })
    .recording();
    let (design, mut sim) = fireaxe::FireAxe::new(c.clone(), spec)
        .backend(backend)
        .bridge(1, Box::new(bridge))
        .build()
        .unwrap();
    // The backend-parity proptests draw worker counts from 0..=P+1.
    assert_eq!(design.node_count(), 2, "one tile partition + the rest");
    sim.run_target_cycles(cycles as u64 + 2).unwrap();
    let rest = design.node_index(1, 0);
    let b = sim
        .bridge_mut(rest)
        .as_any()
        .downcast_mut::<ScriptBridge>()
        .unwrap();
    // Merge the src/snk channels by token index.
    let mut by_cycle: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for t in b.log() {
        let e = by_cycle.entry(t.cycle).or_default();
        if let Some(v) = t.values.get("o_src") {
            e.0 = Some(v.to_u64());
        }
        if let Some(v) = t.values.get("o_snk") {
            e.1 = Some(v.to_u64());
        }
    }
    by_cycle
        .into_values()
        .take(cycles)
        .map(|(a, b)| (a.unwrap(), b.unwrap()))
        .collect()
}

/// Deterministic replay of the shrunken case recorded in
/// `props.proptest-regressions`: register init values wider than the
/// register. Exact-mode partitioning must still match the monolithic
/// interpreter bit for bit.
#[test]
fn regression_register_inits_wider_than_register() {
    let rules = vec![RegRule { op: 0, a: 0, b: 0 }, RegRule { op: 0, a: 0, b: 0 }];
    let inits = vec![
        26878071216826627,
        2819299258004080555,
        5527288683126244663,
        17068007786349050263,
        9104386042750791233,
    ];
    let c = random_soc(&rules, &inits);
    let cycles = 40;
    let golden = golden_trace(&c, cycles);
    let exact = partitioned_trace(&c, PartitionMode::Exact, cycles);
    assert_eq!(&exact[..], &golden[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The central theorem: exact-mode == monolithic, bit for bit, on
    /// randomized designs.
    #[test]
    fn exact_mode_is_cycle_exact_on_random_circuits(
        rules in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(op, a, b)| RegRule { op, a, b }),
            2..5,
        ),
        inits in proptest::collection::vec(any::<u64>(), 5),
    ) {
        let c = random_soc(&rules, &inits);
        let cycles = 40;
        let golden = golden_trace(&c, cycles);
        let exact = partitioned_trace(&c, PartitionMode::Exact, cycles);
        prop_assert_eq!(&exact[..], &golden[..]);
    }

    /// Fast-mode must stay deterministic (cycle-exact w.r.t. the modified
    /// target) even though it diverges from the unmodified RTL.
    #[test]
    fn fast_mode_is_deterministic_on_random_circuits(
        rules in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(op, a, b)| RegRule { op, a, b }),
            2..4,
        ),
        inits in proptest::collection::vec(any::<u64>(), 5),
    ) {
        let c = random_soc(&rules, &inits);
        let a = partitioned_trace(&c, PartitionMode::Fast, 30);
        let b = partitioned_trace(&c, PartitionMode::Fast, 30);
        prop_assert_eq!(a, b);
    }
}

// ---------- Backend parity ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Backend parity, the threaded-execution counterpart of the central
    /// theorem: on random circuits, a `Backend::Threads` run is
    /// bit-identical to both the `Backend::Des` golden model *and* the
    /// monolithic interpreter (exact mode), despite OS scheduling being
    /// free to deliver tokens in any host-side order. The monolithic
    /// trace itself is produced by both execution engines (compiled tape
    /// and tree-walking reference), which must agree bit for bit. The
    /// worker count ranges over `0..=P+1` for this P = 2 cut: one per core,
    /// one worker hosting both partitions, one per partition, and a cap
    /// above the partition count.
    #[test]
    fn threaded_backend_matches_des_and_monolithic(
        rules in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(op, a, b)| RegRule { op, a, b }),
            2..5,
        ),
        inits in proptest::collection::vec(any::<u64>(), 5),
        workers in 0usize..4,
    ) {
        let c = random_soc(&rules, &inits);
        let cycles = 25;
        let golden = golden_trace_on(&c, cycles, fireaxe::ir::ExecEngine::Reference);
        let compiled = golden_trace_on(&c, cycles, fireaxe::ir::ExecEngine::Compiled);
        let des = partitioned_trace_on(&c, PartitionMode::Exact, cycles, Backend::Des);
        let threads =
            partitioned_trace_on(&c, PartitionMode::Exact, cycles, Backend::Threads(workers));
        prop_assert_eq!(&compiled[..], &golden[..]);
        prop_assert_eq!(&des[..], &golden[..]);
        prop_assert_eq!(&threads[..], &des[..]);
    }

    /// Fast mode seeds links from reset state; both backends must agree
    /// on the seeded (modified-target) trace too, at every worker count.
    #[test]
    fn threaded_backend_matches_des_fast_mode(
        rules in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(op, a, b)| RegRule { op, a, b }),
            2..4,
        ),
        inits in proptest::collection::vec(any::<u64>(), 5),
        workers in 0usize..4,
    ) {
        let c = random_soc(&rules, &inits);
        let des = partitioned_trace_on(&c, PartitionMode::Fast, 25, Backend::Des);
        let threads =
            partitioned_trace_on(&c, PartitionMode::Fast, 25, Backend::Threads(workers));
        prop_assert_eq!(threads, des);
    }
}

// ---------- Parser/printer roundtrip ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn circuit_text_roundtrip(
        rules in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(op, a, b)| RegRule { op, a, b }),
            2..5,
        ),
        inits in proptest::collection::vec(0u64..1000, 5),
    ) {
        let c = random_soc(&rules, &inits);
        let text = fireaxe::ir::printer::print_circuit(&c);
        let back = fireaxe::ir::parser::parse_circuit(&text).unwrap();
        prop_assert_eq!(back, c);
    }
}

// ---------- Skid buffer FIFO order ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skid_buffer_preserves_fifo_order(pattern in proptest::collection::vec(any::<bool>(), 10..60)) {
        // Push a known sequence with a random ready pattern on the
        // consumer; everything pushed must come out once, in order.
        let m = fireaxe::ripper::fastmode::make_skid_module("Skid", 16);
        let c = Circuit::from_modules("Skid", vec![m], "Skid");
        let mut sim = Interpreter::new(&c).unwrap();
        let mut pushed: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        let mut next = 1u64;
        for ready in &pattern {
            sim.poke("deq_ready", Bits::from_u64(u64::from(*ready), 1));
            // Producer follows the advertised ready strictly.
            sim.eval().unwrap();
            let can = sim.peek("enq_ready").to_u64() == 1;
            sim.poke("enq_valid", Bits::from_u64(u64::from(can), 1));
            sim.poke("enq_bits", Bits::from_u64(next, 16));
            sim.eval().unwrap();
            if can {
                pushed.push(next);
                next += 1;
            }
            if *ready && sim.peek("deq_valid").to_u64() == 1 {
                popped.push(sim.peek("deq_bits").to_u64());
            }
            sim.tick();
        }
        // Drain.
        sim.poke("enq_valid", Bits::from_u64(0, 1));
        sim.poke("deq_ready", Bits::from_u64(1, 1));
        for _ in 0..8 {
            sim.eval().unwrap();
            if sim.peek("deq_valid").to_u64() == 1 {
                popped.push(sim.peek("deq_bits").to_u64());
            }
            sim.tick();
        }
        prop_assert_eq!(popped, pushed);
    }
}
