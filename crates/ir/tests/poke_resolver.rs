//! The poke resolver: every poke, on either front end and in any order,
//! lands on the port its name resolves to through the signal-name index,
//! and every bad poke fails with the same typed error.
//!
//! Pokes try the port that followed the last one poked the time before,
//! then the name index. Each case here runs an order that hits that guess
//! from the start (declaration order), one that misses it until it has
//! been learned (reversed) and random orders that mostly miss, with bad
//! names and over-wide values mixed in between good pokes. The expected
//! outcome of each poke is worked out from the design's port list and
//! signal paths alone.

use fireaxe_ir::build::ModuleBuilder;
use fireaxe_ir::{Bits, Circuit, ExecEngine, Interpreter, IrError, SlicedInterpreter};
use std::collections::BTreeMap;

/// Input ports of five widths, plus a node, a register and an output
/// that are signals but not pokeable.
fn design() -> Circuit {
    let mut mb = ModuleBuilder::new("P");
    let ins: Vec<_> = [("a", 1), ("b", 8), ("c", 13), ("d", 64), ("e", 100)]
        .into_iter()
        .map(|(name, w)| mb.input(name, w))
        .collect();
    let n = mb.node("n", &ins[1].add(&ins[2].resize(8)));
    let r = mb.reg("r", 8, 0);
    mb.connect_sig(&r, &n);
    let o = mb.output("o", 8);
    mb.connect_sig(&o, &r.xor(&ins[0].resize(8)));
    Circuit::from_modules("P", vec![mb.finish()], "P")
}

/// splitmix64, for poke orders and values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What `poke_u64(name, value)` must return, from the port widths and
/// signal paths alone.
fn expected(
    widths: &BTreeMap<String, u32>,
    paths: &[String],
    name: &str,
    value: u64,
) -> Result<(), IrError> {
    let path = name.to_string();
    match widths.get(name) {
        None if paths.iter().any(|p| p == name) => Err(IrError::NotPokeable { path }),
        None => Err(IrError::UnknownSignal { path }),
        Some(&width) => {
            let value_bits = 64 - value.leading_zeros();
            if width < 64 && value_bits > width {
                Err(IrError::PokeWidth {
                    path,
                    width,
                    value_bits,
                })
            } else {
                Ok(())
            }
        }
    }
}

/// A value that fits `width` most of the time and overflows it now and
/// then.
fn value(rng: &mut Rng, width: u32) -> u64 {
    let v = rng.next();
    if width >= 64 || rng.next().is_multiple_of(4) {
        v
    } else {
        v & ((1 << width) - 1)
    }
}

/// Pokes `names` in turn on a scalar and a 4-lane sliced interpreter,
/// each followed half the time by a bad poke, and checks every result
/// and every port value against [`expected`].
fn run(names: &[String], rng: &mut Rng) {
    let circuit = design();
    let mut sim = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
    let mut si = SlicedInterpreter::new(&circuit, 4).unwrap();
    let widths: BTreeMap<String, u32> = sim
        .input_ports()
        .into_iter()
        .map(|(n, w)| (n, w.get()))
        .collect();
    let paths = sim.signal_paths();
    let bad = ["n", "r", "o", "nope", "", "b.x", "B"];
    let mut held: BTreeMap<String, u64> = BTreeMap::new();
    for name in names {
        let w = widths[name.as_str()];
        let v = value(rng, w);
        let want = expected(&widths, &paths, name, v);
        assert_eq!(sim.poke_u64(name, v), want, "poke `{name}` = {v:#x}");
        assert_eq!(si.poke_u64(1, name, v), want, "lane poke `{name}` = {v:#x}");
        if want.is_ok() {
            held.insert(name.clone(), v);
        }
        if rng.next().is_multiple_of(2) {
            let b = bad[(rng.next() % bad.len() as u64) as usize];
            let want = expected(&widths, &paths, b, 1);
            assert_eq!(sim.poke_u64(b, 1), want, "bad poke `{b}`");
            assert_eq!(si.poke_u64(1, b, 1), want, "bad lane poke `{b}`");
        }
        for (n, &v) in &held {
            let want = Bits::from_u64(v, widths[n.as_str()]);
            assert_eq!(sim.peek(n), &want, "port `{n}` after poking `{name}`");
            assert_eq!(si.peek(1, n), want, "lane port `{n}` after poking `{name}`");
        }
    }
    sim.eval().unwrap();
    si.eval().unwrap();
    assert_eq!(sim.peek("n"), &si.peek(1, "n"));
}

fn port_names() -> Vec<String> {
    ["a", "b", "c", "d", "e"].map(String::from).to_vec()
}

#[test]
fn pokes_in_declaration_order() {
    let mut rng = Rng(1);
    let names: Vec<String> = port_names().into_iter().cycle().take(60).collect();
    run(&names, &mut rng);
}

#[test]
fn pokes_in_reverse_order() {
    let mut rng = Rng(2);
    let names: Vec<String> = port_names().into_iter().rev().cycle().take(60).collect();
    run(&names, &mut rng);
}

#[test]
fn pokes_in_random_order() {
    for seed in 0..20 {
        let mut rng = Rng(100 + seed);
        let ports = port_names();
        let names: Vec<String> = (0..40)
            .map(|_| ports[(rng.next() % ports.len() as u64) as usize].clone())
            .collect();
        run(&names, &mut rng);
    }
}

/// `poke` (a `Bits` value, resized to the port) and the sliced
/// front end's `poke` and `poke_lanes_u64` resolve through the same
/// path, and name the port in their panic.
#[test]
fn bits_and_lane_pokes_resolve_alike() {
    let circuit = design();
    let mut sim = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
    let mut si = SlicedInterpreter::new(&circuit, 4).unwrap();
    for name in ["e", "a", "e", "d", "c", "b"] {
        let v = Bits::from_words(&[0x0123_4567_89AB_CDEF, 0xFEDC_BA98], 100);
        sim.poke(name, v.clone());
        si.poke(2, name, &v);
        si.poke_lanes_u64(name, &[1, 2, 3, 4]);
        assert_eq!(sim.peek(name), &v.resize(sim.peek(name).width()));
        assert_eq!(
            si.peek(3, name),
            Bits::from_u64(4, si.peek(3, name).width())
        );
    }
    for bad in ["n", "nope"] {
        let scalar = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.poke(bad, Bits::from_u64(1, 1));
        }));
        let lanes = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            si.poke_lanes_u64(bad, &[0; 4]);
        }));
        for r in [scalar, lanes] {
            let msg = r.expect_err("a bad name panics");
            let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, format!("no top input port `{bad}`"));
        }
    }
}
