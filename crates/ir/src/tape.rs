//! Binary circuit tapes — a compact, versioned serialization of a
//! [`Circuit`].
//!
//! The textual format ([`crate::printer`]/[`crate::parser`]) is the
//! round-tripping human interface; the *tape* is the machine interface:
//! a length-prefixed binary encoding dense enough to ship over the wire
//! on every job submission and to key a compiled-design cache by content
//! digest. The job server (`fireaxe-serve`) stores tapes, not text —
//! decoding a tape skips the parser entirely, which is the first leg of
//! the compile-once/run-many amortization the service is built around.
//!
//! Layout: a 4-byte magic (`FXT1`), a format version byte, then the
//! circuit as nested records. Strings are `u32` length + UTF-8 bytes;
//! enums are single tag bytes; [`Bits`] are width + little-endian `u64`
//! words. The encoding is canonical: equal circuits produce equal
//! tapes, so a hash over the tape bytes is a usable cache key even
//! before elaboration.

use crate::ast::{
    BinOp, Circuit, CombPath, Direction, Expr, ExternInfo, Module, Port, Ref, ResourceHints, Stmt,
    UnOp,
};
use crate::bits::{Bits, Width};
use crate::error::{IrError, Result};

/// Magic prefix of every circuit tape: `FXT1`.
pub const TAPE_MAGIC: [u8; 4] = *b"FXT1";
/// Current tape format version.
pub const TAPE_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bits(out: &mut Vec<u8>, b: &Bits) {
    put_u32(out, b.width().get());
    for w in b.as_words() {
        put_u64(out, *w);
    }
}

fn put_ref(out: &mut Vec<u8>, r: &Ref) {
    match &r.instance {
        Some(inst) => {
            out.push(1);
            put_str(out, inst);
        }
        None => out.push(0),
    }
    put_str(out, &r.name);
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Eq => 8,
        BinOp::Neq => 9,
        BinOp::Lt => 10,
        BinOp::Leq => 11,
        BinOp::Gt => 12,
        BinOp::Geq => 13,
    }
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Not => 0,
        UnOp::OrReduce => 1,
        UnOp::AndReduce => 2,
        UnOp::XorReduce => 3,
    }
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Lit(b) => {
            out.push(0);
            put_bits(out, b);
        }
        Expr::Ref(r) => {
            out.push(1);
            put_ref(out, r);
        }
        Expr::Unary(op, a) => {
            out.push(2);
            out.push(un_op_tag(*op));
            put_expr(out, a);
        }
        Expr::Binary(op, a, b) => {
            out.push(3);
            out.push(bin_op_tag(*op));
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Mux(sel, t, f) => {
            out.push(4);
            put_expr(out, sel);
            put_expr(out, t);
            put_expr(out, f);
        }
        Expr::Cat(parts) => {
            out.push(5);
            put_u32(out, parts.len() as u32);
            for p in parts {
                put_expr(out, p);
            }
        }
        Expr::Extract(a, hi, lo) => {
            out.push(6);
            put_expr(out, a);
            put_u32(out, *hi);
            put_u32(out, *lo);
        }
        Expr::Resize(a, w) => {
            out.push(7);
            put_expr(out, a);
            put_u32(out, w.get());
        }
        Expr::Shl(a, n) => {
            out.push(8);
            put_expr(out, a);
            put_u32(out, *n);
        }
        Expr::Shr(a, n) => {
            out.push(9);
            put_expr(out, a);
            put_u32(out, *n);
        }
    }
}

fn put_stmt(out: &mut Vec<u8>, s: &Stmt) {
    match s {
        Stmt::Wire { name, width } => {
            out.push(0);
            put_str(out, name);
            put_u32(out, width.get());
        }
        Stmt::Node { name, expr } => {
            out.push(1);
            put_str(out, name);
            put_expr(out, expr);
        }
        Stmt::Reg { name, width, init } => {
            out.push(2);
            put_str(out, name);
            put_u32(out, width.get());
            put_bits(out, init);
        }
        Stmt::Mem { name, width, depth } => {
            out.push(3);
            put_str(out, name);
            put_u32(out, width.get());
            put_u32(out, *depth);
        }
        Stmt::MemRead { name, mem, addr } => {
            out.push(4);
            put_str(out, name);
            put_str(out, mem);
            put_expr(out, addr);
        }
        Stmt::MemWrite {
            mem,
            addr,
            data,
            en,
        } => {
            out.push(5);
            put_str(out, mem);
            put_expr(out, addr);
            put_expr(out, data);
            put_expr(out, en);
        }
        Stmt::Inst { name, module } => {
            out.push(6);
            put_str(out, name);
            put_str(out, module);
        }
        Stmt::Connect { lhs, rhs } => {
            out.push(7);
            put_ref(out, lhs);
            put_expr(out, rhs);
        }
    }
}

fn put_module(out: &mut Vec<u8>, m: &Module) {
    put_str(out, &m.name);
    put_u32(out, m.ports.len() as u32);
    for p in &m.ports {
        put_str(out, &p.name);
        out.push(match p.direction {
            Direction::Input => 0,
            Direction::Output => 1,
        });
        put_u32(out, p.width.get());
    }
    put_u32(out, m.body.len() as u32);
    for s in &m.body {
        put_stmt(out, s);
    }
    match &m.extern_info {
        None => out.push(0),
        Some(xi) => {
            out.push(1);
            put_str(out, &xi.behavior);
            put_u32(out, xi.comb_paths.len() as u32);
            for cp in &xi.comb_paths {
                put_str(out, &cp.input);
                put_str(out, &cp.output);
            }
            put_u64(out, xi.resources.luts);
            put_u64(out, xi.resources.regs);
            put_u64(out, xi.resources.brams);
            put_u64(out, xi.resources.dsps);
        }
    }
}

/// Serializes a circuit into tape bytes.
///
/// The encoding is canonical: structurally equal circuits produce
/// byte-identical tapes.
pub fn circuit_to_tape(circuit: &Circuit) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&TAPE_MAGIC);
    out.push(TAPE_VERSION);
    put_str(&mut out, &circuit.name);
    put_str(&mut out, &circuit.top);
    put_u32(&mut out, circuit.modules.len() as u32);
    for m in &circuit.modules {
        put_module(&mut out, m);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn bad(message: impl Into<String>) -> IrError {
    IrError::Malformed {
        message: message.into(),
    }
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad("tape truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("tape string is not UTF-8"))
    }

    /// Reads a count of variable-size records, bounding it by the bytes
    /// remaining so a corrupt length cannot force a huge allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(bad("tape count exceeds remaining bytes"));
        }
        Ok(n)
    }

    fn bits(&mut self) -> Result<Bits> {
        let width = self.u32()?;
        let words = Width::new(width).words();
        if words > (self.buf.len() - self.pos) / 8 {
            return Err(bad("tape bits exceed remaining bytes"));
        }
        let mut w = Vec::with_capacity(words);
        for _ in 0..words {
            w.push(self.u64()?);
        }
        Ok(Bits::from_words(&w, width))
    }

    fn reference(&mut self) -> Result<Ref> {
        let has_inst = self.u8()?;
        let instance = match has_inst {
            0 => None,
            1 => Some(self.str()?),
            t => return Err(bad(format!("bad ref tag {t}"))),
        };
        let name = self.str()?;
        Ok(Ref { instance, name })
    }

    fn expr(&mut self, depth: u32) -> Result<Expr> {
        if depth > 10_000 {
            return Err(bad("tape expression nests too deep"));
        }
        let tag = self.u8()?;
        Ok(match tag {
            0 => Expr::Lit(self.bits()?),
            1 => Expr::Ref(self.reference()?),
            2 => {
                let op = match self.u8()? {
                    0 => UnOp::Not,
                    1 => UnOp::OrReduce,
                    2 => UnOp::AndReduce,
                    3 => UnOp::XorReduce,
                    t => return Err(bad(format!("bad unop tag {t}"))),
                };
                Expr::Unary(op, Box::new(self.expr(depth + 1)?))
            }
            3 => {
                let op = match self.u8()? {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Div,
                    4 => BinOp::Rem,
                    5 => BinOp::And,
                    6 => BinOp::Or,
                    7 => BinOp::Xor,
                    8 => BinOp::Eq,
                    9 => BinOp::Neq,
                    10 => BinOp::Lt,
                    11 => BinOp::Leq,
                    12 => BinOp::Gt,
                    13 => BinOp::Geq,
                    t => return Err(bad(format!("bad binop tag {t}"))),
                };
                let a = Box::new(self.expr(depth + 1)?);
                let b = Box::new(self.expr(depth + 1)?);
                Expr::Binary(op, a, b)
            }
            4 => {
                let sel = Box::new(self.expr(depth + 1)?);
                let t = Box::new(self.expr(depth + 1)?);
                let f = Box::new(self.expr(depth + 1)?);
                Expr::Mux(sel, t, f)
            }
            5 => {
                let n = self.count(1)?;
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(self.expr(depth + 1)?);
                }
                Expr::Cat(parts)
            }
            6 => {
                let a = Box::new(self.expr(depth + 1)?);
                let hi = self.u32()?;
                let lo = self.u32()?;
                Expr::Extract(a, hi, lo)
            }
            7 => {
                let a = Box::new(self.expr(depth + 1)?);
                let w = Width::new(self.u32()?);
                Expr::Resize(a, w)
            }
            8 => {
                let a = Box::new(self.expr(depth + 1)?);
                Expr::Shl(a, self.u32()?)
            }
            9 => {
                let a = Box::new(self.expr(depth + 1)?);
                Expr::Shr(a, self.u32()?)
            }
            t => return Err(bad(format!("bad expr tag {t}"))),
        })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => Stmt::Wire {
                name: self.str()?,
                width: Width::new(self.u32()?),
            },
            1 => Stmt::Node {
                name: self.str()?,
                expr: self.expr(0)?,
            },
            2 => Stmt::Reg {
                name: self.str()?,
                width: Width::new(self.u32()?),
                init: self.bits()?,
            },
            3 => Stmt::Mem {
                name: self.str()?,
                width: Width::new(self.u32()?),
                depth: self.u32()?,
            },
            4 => Stmt::MemRead {
                name: self.str()?,
                mem: self.str()?,
                addr: self.expr(0)?,
            },
            5 => Stmt::MemWrite {
                mem: self.str()?,
                addr: self.expr(0)?,
                data: self.expr(0)?,
                en: self.expr(0)?,
            },
            6 => Stmt::Inst {
                name: self.str()?,
                module: self.str()?,
            },
            7 => Stmt::Connect {
                lhs: self.reference()?,
                rhs: self.expr(0)?,
            },
            t => return Err(bad(format!("bad stmt tag {t}"))),
        })
    }

    fn module(&mut self) -> Result<Module> {
        let name = self.str()?;
        let n_ports = self.count(9)?;
        let mut ports = Vec::with_capacity(n_ports);
        for _ in 0..n_ports {
            let pname = self.str()?;
            let direction = match self.u8()? {
                0 => Direction::Input,
                1 => Direction::Output,
                t => return Err(bad(format!("bad direction tag {t}"))),
            };
            let width = Width::new(self.u32()?);
            ports.push(Port {
                name: pname,
                direction,
                width,
            });
        }
        let n_body = self.count(1)?;
        let mut body = Vec::with_capacity(n_body);
        for _ in 0..n_body {
            body.push(self.stmt()?);
        }
        let extern_info = match self.u8()? {
            0 => None,
            1 => {
                let behavior = self.str()?;
                let n_paths = self.count(8)?;
                let mut comb_paths = Vec::with_capacity(n_paths);
                for _ in 0..n_paths {
                    comb_paths.push(CombPath {
                        input: self.str()?,
                        output: self.str()?,
                    });
                }
                let resources = ResourceHints {
                    luts: self.u64()?,
                    regs: self.u64()?,
                    brams: self.u64()?,
                    dsps: self.u64()?,
                };
                Some(ExternInfo {
                    behavior,
                    comb_paths,
                    resources,
                })
            }
            t => return Err(bad(format!("bad extern tag {t}"))),
        };
        Ok(Module {
            name,
            ports,
            body,
            extern_info,
        })
    }
}

/// Deserializes a circuit from tape bytes produced by
/// [`circuit_to_tape`].
///
/// Rejects bad magic, unknown versions, truncated buffers, and trailing
/// garbage with [`IrError::Malformed`]. The decoded circuit is *not*
/// typechecked — callers that accept tapes from untrusted peers should
/// run [`crate::typecheck::validate`] before elaborating.
pub fn circuit_from_tape(bytes: &[u8]) -> Result<Circuit> {
    let mut cur = Cur { buf: bytes, pos: 0 };
    if cur.take(4)? != TAPE_MAGIC {
        return Err(bad("tape magic mismatch (expected FXT1)"));
    }
    let version = cur.u8()?;
    if version != TAPE_VERSION {
        return Err(bad(format!(
            "tape version {version} unsupported (expected {TAPE_VERSION})"
        )));
    }
    let name = cur.str()?;
    let top = cur.str()?;
    let n_modules = cur.count(9)?;
    let mut modules = Vec::with_capacity(n_modules);
    for _ in 0..n_modules {
        modules.push(cur.module()?);
    }
    if cur.pos != cur.buf.len() {
        return Err(bad(format!(
            "tape has {} trailing bytes",
            cur.buf.len() - cur.pos
        )));
    }
    Ok(Circuit { name, modules, top })
}

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
