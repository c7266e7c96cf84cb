//! Fast-mode boundary transformations (paper Fig. 3c).
//!
//! Fast-mode injects one cycle of latency at the partition boundary (the
//! seed token), which breaks ready-valid backpressure: the source observes
//! `ready` a cycle late and can overrun or re-send. FireRipper therefore
//! rewrites the target boundary:
//!
//! * **sink side** — a skid buffer is inserted behind the incoming
//!   `valid/bits` so beats sent against a stale-high `ready` are never
//!   lost. The buffer advertises `ready` conservatively (two slots of
//!   slack) and accepts unconditionally while it has space.
//! * **source side** — the outgoing `valid` is gated to `valid & ready`
//!   so a beat is only visible to the peer in the cycle it is actually
//!   transferred, preventing duplicate delivery.
//!
//! These are genuine IR rewrites: the cycle-count error reported in
//! Table II *emerges* from them rather than being modeled.

use crate::error::{Result, RipperError};
use crate::hier::{rewrite_stmt_refs, Names};
use fireaxe_ir::build::{ModuleBuilder, Sig};
use fireaxe_ir::{BinOp, Circuit, Direction, Expr, Module, Ref, Stmt, Width};
use std::collections::BTreeSet;

/// A detected ready-valid bundle among a partition's boundary ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvBundle {
    /// Common prefix (`B` for ports `B_valid`/`B_ready`/`B_bits`).
    pub prefix: String,
    /// Whether this partition is the sending (`source`) side.
    pub is_source: bool,
    /// Width of the `bits` port (0 when absent).
    pub bits_width: u32,
}

/// Finds ready-valid bundles among `boundary_ports` (name, direction) of a
/// module. A bundle requires `X_valid` and `X_ready` in opposite
/// directions; `X_bits` is optional and must flow with `valid`.
pub fn detect_rv_bundles(module: &Module, boundary_ports: &BTreeSet<String>) -> Vec<RvBundle> {
    let mut bundles = Vec::new();
    let dir = |name: &str| module.port(name).map(|p| p.direction);
    let width = |name: &str| module.port(name).map(|p| p.width.get()).unwrap_or(0);
    let mut prefixes: BTreeSet<String> = BTreeSet::new();
    for p in boundary_ports {
        if let Some(pre) = p.strip_suffix("_valid") {
            prefixes.insert(pre.to_string());
        }
    }
    for pre in prefixes {
        let valid = format!("{pre}_valid");
        let ready = format!("{pre}_ready");
        let bits = format!("{pre}_bits");
        if !boundary_ports.contains(&ready) {
            continue;
        }
        let (Some(dv), Some(dr)) = (dir(&valid), dir(&ready)) else {
            continue;
        };
        if dv == dr {
            continue;
        }
        let has_bits = boundary_ports.contains(&bits) && dir(&bits) == Some(dv);
        bundles.push(RvBundle {
            prefix: pre,
            is_source: dv == Direction::Output,
            bits_width: if has_bits { width(&bits) } else { 0 },
        });
    }
    bundles
}

/// Builds the 4-entry skid-buffer module used on ready-valid sink sides.
///
/// `enq_ready` (the signal exported to the boundary) is advertised while
/// fewer than 3 entries are held, leaving slack for the beat that may
/// already be in flight against a stale `ready`; the buffer physically
/// accepts up to 4.
pub fn make_skid_module(name: &str, width: u32) -> Module {
    let w = width.max(1);
    let mut mb = ModuleBuilder::new(name);
    let enq_valid = mb.input("enq_valid", 1);
    let enq_bits = mb.input("enq_bits", w);
    let deq_ready = mb.input("deq_ready", 1);
    let enq_ready = mb.output("enq_ready", 1);
    let deq_valid = mb.output("deq_valid", 1);
    let deq_bits = mb.output("deq_bits", w);

    let count = mb.reg("count", 3, 0);
    let wr = mb.reg("wr", 2, 0);
    let rd = mb.reg("rd", 2, 0);
    let slots: Vec<Sig> = (0..4).map(|i| mb.reg(format!("slot{i}"), w, 0)).collect();

    let have_any = mb.node("have_any", &count.geq(&Sig::lit(1, 3)));
    let can_store = mb.node("can_store", &count.lt(&Sig::lit(4, 3)));
    let advertise = mb.node("advertise", &count.lt(&Sig::lit(3, 3)));
    mb.connect_sig(&enq_ready, &advertise);

    // Cut-through: an empty buffer forwards the incoming beat
    // combinationally, so the skid adds no latency on the fast path.
    let bypass = mb.node("bypass", &have_any.not().and(&enq_valid));
    mb.connect_sig(&deq_valid, &have_any.or(&enq_valid));
    let rd0 = mb.node("rd0", &rd.bits(0, 0));
    let rd1 = mb.node("rd1", &rd.bits(1, 1));
    let lo = rd0.mux(&slots[1], &slots[0]);
    let hi = rd0.mux(&slots[3], &slots[2]);
    let stored = mb.node("stored_bits", &rd1.mux(&hi, &lo));
    mb.connect_sig(&deq_bits, &bypass.mux(&enq_bits, &stored));

    // A beat is stored when it arrives and cannot bypass straight out.
    let bypass_out = mb.node("bypass_out", &bypass.and(&deq_ready));
    let do_store = mb.node(
        "do_store",
        &enq_valid.and(&bypass_out.not()).and(&can_store),
    );
    let do_deq_stored = mb.node("do_deq_stored", &have_any.and(&deq_ready));

    for (i, slot) in slots.iter().enumerate() {
        let sel = wr.eq(&Sig::lit(i as u64, 2)).and(&do_store);
        mb.connect_sig(slot, &sel.mux(&enq_bits, slot));
    }
    mb.connect_sig(&wr, &do_store.mux(&wr.add(&Sig::lit(1, 2)), &wr));
    mb.connect_sig(&rd, &do_deq_stored.mux(&rd.add(&Sig::lit(1, 2)), &rd));
    let up = count.add(&do_store.resize(3));
    mb.connect_sig(&count, &up.sub(&do_deq_stored.resize(3)).resize(3));
    mb.finish()
}

/// Applies fast-mode rewrites to one partition circuit, given the set of
/// its boundary ports. Returns the transformed bundles.
///
/// # Errors
///
/// Returns [`RipperError::Malformed`] if expected drivers are missing.
pub fn apply_fast_mode(
    circuit: &mut Circuit,
    boundary_ports: &BTreeSet<String>,
) -> Result<Vec<RvBundle>> {
    let top_name = circuit.top.clone();
    let bundles = {
        let top = circuit.module(&top_name).expect("top exists");
        detect_rv_bundles(top, boundary_ports)
    };
    for b in &bundles {
        if b.is_source {
            gate_source_valid(circuit, &top_name, &b.prefix)?;
        } else {
            insert_skid_buffer(circuit, &top_name, b)?;
        }
    }
    Ok(bundles)
}

/// Source side: rewrite `P_valid <= E` into `P_valid <= and(E, P_ready)`.
fn gate_source_valid(circuit: &mut Circuit, top_name: &str, prefix: &str) -> Result<()> {
    let top = circuit.module_mut(top_name).expect("top exists");
    let valid = format!("{prefix}_valid");
    let ready = format!("{prefix}_ready");
    for stmt in &mut top.body {
        if let Stmt::Connect { lhs, rhs } = stmt {
            if lhs.is_local() && lhs.name == valid {
                let orig = rhs.clone();
                *rhs = Expr::Binary(
                    BinOp::And,
                    Box::new(orig),
                    Box::new(Expr::reference(ready.clone())),
                );
                return Ok(());
            }
        }
    }
    Err(RipperError::Malformed {
        message: format!("no driver found for ready-valid source `{valid}` in `{top_name}`"),
    })
}

/// Sink side: insert a skid buffer between the boundary and the original
/// consumer.
fn insert_skid_buffer(circuit: &mut Circuit, top_name: &str, b: &RvBundle) -> Result<()> {
    let valid = format!("{}_valid", b.prefix);
    let ready = format!("{}_ready", b.prefix);
    let bits = format!("{}_bits", b.prefix);
    let skid_mod_name = format!("SkidBuffer{}", b.bits_width.max(1));
    if circuit.module(&skid_mod_name).is_none() {
        circuit.add_module(make_skid_module(&skid_mod_name, b.bits_width));
    }

    let top = circuit.module_mut(top_name).expect("top exists");
    let skid_inst = Names::of(top).fresh(&format!("skid_{}", b.prefix));

    // 1. Re-route the original `ready` driver into the skid's deq side and
    //    export the skid's conservative enq_ready instead.
    let mut orig_ready_driver: Option<Expr> = None;
    for stmt in &mut top.body {
        if let Stmt::Connect { lhs, rhs } = stmt {
            if lhs.is_local() && lhs.name == ready {
                orig_ready_driver = Some(std::mem::replace(
                    rhs,
                    Expr::Ref(Ref::instance_port(skid_inst.clone(), "enq_ready")),
                ));
                break;
            }
        }
    }
    let orig_ready_driver = orig_ready_driver.ok_or_else(|| RipperError::Malformed {
        message: format!("no driver found for ready-valid sink `{ready}` in `{top_name}`"),
    })?;

    // 2. Redirect all consumers of the incoming valid/bits to the skid's
    //    deq side.
    let rewrite = |r: &mut Ref| {
        if r.is_local() && r.name == valid {
            *r = Ref::instance_port(skid_inst.clone(), "deq_valid");
        } else if b.bits_width > 0 && r.is_local() && r.name == bits {
            *r = Ref::instance_port(skid_inst.clone(), "deq_bits");
        }
    };
    for stmt in &mut top.body {
        rewrite_stmt_refs(stmt, &rewrite);
    }

    // 3. Wire the skid's enq side to the boundary.
    top.body.push(Stmt::Inst {
        name: skid_inst.clone(),
        module: skid_mod_name,
    });
    top.body.push(Stmt::Connect {
        lhs: Ref::instance_port(skid_inst.clone(), "enq_valid"),
        rhs: Expr::reference(valid),
    });
    top.body.push(Stmt::Connect {
        lhs: Ref::instance_port(skid_inst.clone(), "enq_bits"),
        rhs: if b.bits_width > 0 {
            Expr::reference(bits)
        } else {
            Expr::Lit(fireaxe_ir::Bits::zero(Width::new(1)))
        },
    });
    top.body.push(Stmt::Connect {
        lhs: Ref::instance_port(skid_inst, "deq_ready"),
        rhs: orig_ready_driver,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_ir::typecheck::validate;
    use fireaxe_ir::{Bits, Interpreter};

    #[test]
    fn skid_module_validates_and_queues() {
        let m = make_skid_module("Skid8", 8);
        let c = Circuit::from_modules("Skid8", vec![m], "Skid8");
        validate(&c).unwrap();
        let mut sim = Interpreter::new(&c).unwrap();
        // Push three beats without draining.
        for v in [10u64, 20, 30] {
            sim.poke("enq_valid", Bits::from_u64(1, 1));
            sim.poke("enq_bits", Bits::from_u64(v, 8));
            sim.poke("deq_ready", Bits::from_u64(0, 1));
            sim.step().unwrap();
        }
        sim.poke("enq_valid", Bits::from_u64(0, 1));
        sim.eval().unwrap();
        // Conservative ready deasserts at 3 entries even though a 4th fits.
        assert_eq!(sim.peek("enq_ready").to_u64(), 0);
        assert_eq!(sim.peek("deq_valid").to_u64(), 1);
        assert_eq!(sim.peek("deq_bits").to_u64(), 10);
        // Drain in order.
        let mut seen = Vec::new();
        for _ in 0..3 {
            sim.poke("deq_ready", Bits::from_u64(1, 1));
            sim.eval().unwrap();
            seen.push(sim.peek("deq_bits").to_u64());
            sim.step().unwrap();
        }
        assert_eq!(seen, vec![10, 20, 30]);
        sim.eval().unwrap();
        assert_eq!(sim.peek("deq_valid").to_u64(), 0);
    }

    #[test]
    fn skid_accepts_one_beat_past_advertised_ready() {
        let m = make_skid_module("Skid8", 8);
        let c = Circuit::from_modules("Skid8", vec![m], "Skid8");
        let mut sim = Interpreter::new(&c).unwrap();
        // Fill to 4 entries: the 4th arrives after ready deasserted
        // (stale-ready overrun) and must still be captured.
        for v in [1u64, 2, 3, 4] {
            sim.poke("enq_valid", Bits::from_u64(1, 1));
            sim.poke("enq_bits", Bits::from_u64(v, 8));
            sim.poke("deq_ready", Bits::from_u64(0, 1));
            sim.step().unwrap();
        }
        sim.poke("enq_valid", Bits::from_u64(0, 1));
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.poke("deq_ready", Bits::from_u64(1, 1));
            sim.eval().unwrap();
            seen.push(sim.peek("deq_bits").to_u64());
            sim.step().unwrap();
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    fn rv_module(source: bool) -> Module {
        // A module that either produces (source) or consumes (sink) a
        // ready-valid stream named `req` at its boundary.
        let mut mb = ModuleBuilder::new(if source { "Src" } else { "Snk" });
        if source {
            let ready = mb.input("req_ready", 1);
            let valid = mb.output("req_valid", 1);
            let bits = mb.output("req_bits", 8);
            let data = mb.reg("data", 8, 5);
            let pending = mb.reg("pending", 1, 1);
            mb.connect_sig(&valid, &pending);
            mb.connect_sig(&bits, &data);
            let fire = pending.and(&ready);
            mb.connect_sig(&pending, &fire.mux(&Sig::lit(0, 1), &pending));
            let _ = data;
        } else {
            let valid = mb.input("req_valid", 1);
            let bits = mb.input("req_bits", 8);
            let ready = mb.output("req_ready", 1);
            let busy = mb.reg("busy", 1, 0);
            mb.connect_sig(&ready, &busy.not());
            let fire = valid.and(&busy.not());
            mb.connect_sig(&busy, &fire.mux(&Sig::lit(1, 1), &busy));
            let acc = mb.reg("acc", 8, 0);
            mb.connect_sig(&acc, &fire.mux(&bits, &acc));
        }
        mb.finish()
    }

    #[test]
    fn detects_bundles_in_both_directions() {
        let src = rv_module(true);
        let ports: BTreeSet<String> = src.ports.iter().map(|p| p.name.clone()).collect();
        let bundles = detect_rv_bundles(&src, &ports);
        assert_eq!(bundles.len(), 1);
        assert!(bundles[0].is_source);
        assert_eq!(bundles[0].bits_width, 8);

        let snk = rv_module(false);
        let ports: BTreeSet<String> = snk.ports.iter().map(|p| p.name.clone()).collect();
        let bundles = detect_rv_bundles(&snk, &ports);
        assert_eq!(bundles.len(), 1);
        assert!(!bundles[0].is_source);
    }

    #[test]
    fn ignores_non_boundary_and_mismatched_ports() {
        let src = rv_module(true);
        // Not in the boundary set -> not detected.
        let bundles = detect_rv_bundles(&src, &BTreeSet::new());
        assert!(bundles.is_empty());
        // valid without ready -> not detected.
        let ports: BTreeSet<String> = ["req_valid".to_string()].into_iter().collect();
        assert!(detect_rv_bundles(&src, &ports).is_empty());
    }

    #[test]
    fn source_gating_rewrites_valid() {
        let src = rv_module(true);
        let mut c = Circuit::from_modules("Src", vec![src], "Src");
        let ports: BTreeSet<String> = c
            .top_module()
            .ports
            .iter()
            .map(|p| p.name.clone())
            .collect();
        apply_fast_mode(&mut c, &ports).unwrap();
        validate(&c).unwrap();
        let mut sim = Interpreter::new(&c).unwrap();
        // With ready low, gated valid stays low (pre-transform it was 1).
        sim.poke("req_ready", Bits::from_u64(0, 1));
        sim.eval().unwrap();
        assert_eq!(sim.peek("req_valid").to_u64(), 0);
        sim.poke("req_ready", Bits::from_u64(1, 1));
        sim.eval().unwrap();
        assert_eq!(sim.peek("req_valid").to_u64(), 1);
    }

    #[test]
    fn sink_skid_preserves_transfers() {
        let snk = rv_module(false);
        let mut c = Circuit::from_modules("Snk", vec![snk], "Snk");
        let ports: BTreeSet<String> = c
            .top_module()
            .ports
            .iter()
            .map(|p| p.name.clone())
            .collect();
        apply_fast_mode(&mut c, &ports).unwrap();
        validate(&c).unwrap();
        let mut sim = Interpreter::new(&c).unwrap();
        // Send a beat; it should land in `acc` (through the skid) even
        // though the boundary ready is now conservative.
        sim.poke("req_valid", Bits::from_u64(1, 1));
        sim.poke("req_bits", Bits::from_u64(0x7E, 8));
        sim.step().unwrap();
        sim.poke("req_valid", Bits::from_u64(0, 1));
        for _ in 0..3 {
            sim.step().unwrap();
        }
        sim.eval().unwrap();
        assert_eq!(sim.peek("acc").to_u64(), 0x7E);
    }
}
