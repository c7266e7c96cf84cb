//! Binary circuit tapes — a compact, versioned serialization of a
//! [`Circuit`].
//!
//! The textual format ([`crate::printer`]/[`crate::parser`]) is the
//! round-tripping human interface; the *tape* is the machine interface:
//! a binary encoding dense enough to ship over the wire on every job
//! submission and to key a compiled-design cache by content digest. The
//! job server (`fireaxe-serve`) stores tapes, not text — decoding a tape
//! skips the parser entirely, which is the first leg of the
//! compile-once/run-many amortization the service is built around.
//!
//! Layout: the magic `FXT1`, a format version byte ([`TAPE_VERSION`]),
//! then the [`Circuit`] in the [`crate::codec`] layouts declared beside
//! the AST types (big-endian integers, `u32` counts, tag bytes for
//! enums). The encoding is canonical: equal circuits produce equal
//! tapes, so a hash over the tape bytes is a usable cache key even
//! before elaboration.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ast::Circuit;
use crate::codec::{Dec, Wire};
use crate::error::{IrError, Result};

/// Magic prefix of every circuit tape: `FXT1`.
pub const TAPE_MAGIC: [u8; 4] = *b"FXT1";
/// Current tape format version.
pub const TAPE_VERSION: u8 = 2;

/// Serializes a circuit into tape bytes.
///
/// The encoding is canonical: structurally equal circuits produce
/// byte-identical tapes.
pub fn circuit_to_tape(circuit: &Circuit) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&TAPE_MAGIC);
    out.push(TAPE_VERSION);
    circuit.put(&mut out);
    out
}

/// Deserializes a circuit from tape bytes produced by
/// [`circuit_to_tape`].
///
/// Rejects bad magic, unknown versions, truncated buffers, expressions
/// nested deeper than [`crate::codec::MAX_DEPTH`], and trailing garbage
/// with [`IrError::Malformed`]. The decoded circuit is *not* typechecked
/// — callers that accept tapes from untrusted peers should run
/// [`crate::typecheck::validate`] before elaborating.
pub fn circuit_from_tape(bytes: &[u8]) -> Result<Circuit> {
    let mut d = Dec::new(bytes);
    let circuit = (|| {
        d.magic(&TAPE_MAGIC, "tape")?;
        let version = d.get::<u8>()?;
        if version != TAPE_VERSION {
            return Err(format!(
                "tape version {version} unsupported (expected {TAPE_VERSION})"
            ));
        }
        let circuit = d.get::<Circuit>()?;
        d.finish()?;
        Ok(circuit)
    })();
    circuit.map_err(|message| IrError::Malformed {
        message: format!("tape: {message}"),
    })
}

// The tests below build circuits from these.
#[cfg(test)]
use crate::{
    ast::{CombPath, ExternInfo, Module, Port, ResourceHints},
    bits::Bits,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{ModuleBuilder, Sig};

    fn sample_circuit() -> Circuit {
        // Exercises every Stmt variant, several Expr variants, wide
        // literals (multi-word Bits), and extern metadata.
        let mut mb = ModuleBuilder::new("Leaf");
        let a = mb.input("a", 8);
        let b = mb.input("b", 8);
        let y = mb.output("y", 8);
        let r = mb.reg("r", 8, 3);
        let m = mb.mem("scratch", 8, 16);
        let rd = mb.mem_read("rd", &m, &a.bits(3, 0).resize(4));
        mb.mem_write(
            &m,
            &b.bits(3, 0).resize(4),
            &rd.add(&Sig::lit(1, 8)),
            &a.or_reduce(),
        );
        let w = mb.wire("w", 8);
        mb.connect_sig(&w, &a.mux(&b, &r).not().shl(1).shr(2));
        let wide = mb.node("wide", &Sig::lit_bits(Bits::from_words(&[u64::MAX, 7], 80)));
        mb.connect_sig(&r, &a.add(&b).xor(&wide.resize(8)));
        mb.connect_sig(&y, &r.cat(&w).bits(7, 0));
        let leaf = mb.finish();

        let mut top = ModuleBuilder::new("Top");
        let x = top.input("x", 8);
        let out = top.output("out", 8);
        top.inst("leaf", "Leaf");
        top.connect_inst("leaf", "a", &x);
        top.connect_inst("leaf", "b", &Sig::lit(0x5a, 8));
        let leaf_y = top.inst_port("leaf", "y");
        top.connect_sig(&out, &leaf_y.xor(&Sig::lit(1, 8)));
        let top_mod = top.finish();

        let mut xmod = Module::new("Dram");
        xmod.ports.push(Port::input("req", 16));
        xmod.ports.push(Port::output("resp", 16));
        xmod.extern_info = Some(ExternInfo {
            behavior: "dram".to_string(),
            comb_paths: vec![CombPath {
                input: "req".to_string(),
                output: "resp".to_string(),
            }],
            resources: ResourceHints {
                luts: 100,
                regs: 200,
                brams: 3,
                dsps: 0,
            },
        });

        Circuit::from_modules("Top", vec![top_mod, leaf, xmod], "Top")
    }

    #[test]
    fn tape_round_trips() {
        let c = sample_circuit();
        let tape = circuit_to_tape(&c);
        let back = circuit_from_tape(&tape).expect("decode");
        assert_eq!(c, back);
        // Canonical: re-encoding the decoded circuit is byte-identical.
        assert_eq!(tape, circuit_to_tape(&back));
    }

    #[test]
    fn tape_matches_printed_text() {
        let c = sample_circuit();
        let back = circuit_from_tape(&circuit_to_tape(&c)).expect("decode");
        assert_eq!(
            crate::printer::print_circuit(&c),
            crate::printer::print_circuit(&back)
        );
    }

    #[test]
    fn tape_rejects_corruption() {
        let c = sample_circuit();
        let tape = circuit_to_tape(&c);
        assert!(circuit_from_tape(&tape[..tape.len() - 1]).is_err());
        let mut bad_magic = tape.clone();
        bad_magic[0] = b'X';
        assert!(circuit_from_tape(&bad_magic).is_err());
        let mut bad_version = tape.clone();
        bad_version[4] = 0xff;
        assert!(circuit_from_tape(&bad_version).is_err());
        let mut trailing = tape.clone();
        trailing.push(0);
        assert!(circuit_from_tape(&trailing).is_err());
        // A corrupt element count must not panic or over-allocate.
        let mut huge = tape.clone();
        // Module count lives right after magic+version+name+top.
        let off = 4 + 1 + (4 + c.name.len()) + (4 + c.top.len());
        huge[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(circuit_from_tape(&huge).is_err());
    }
}
