//! Bit-sliced (transposed) batch execution: 64 scenarios per tape pass.
//!
//! The compiled engine packs one value *horizontally* into a `u64`; this
//! module transposes the layout instead. Every 1-bit signal becomes one
//! `u64` **plane** whose bit *k* belongs to scenario (lane) *k*, and an
//! N-bit signal becomes N consecutive planes. A bitwise instruction over
//! planes then evaluates all 64 lanes at once, and word-level arithmetic
//! lowers to ripple-carry / bit-serial **lane kernels** (`SOp`) that
//! still amortize one instruction across 64 scenarios — the GSIM/RTeAAL
//! reformulation of RTL simulation as data-parallel evaluation, applied
//! to the paper's batch-of-seeds use case (many configurations of the
//! same design, cf. Fig. 6).
//!
//! ## Exactness and fallback
//!
//! Planes have no room for a runtime width, so only *exact* slots (see
//! `crate::lower`, whose program this engine maps) live in the plane
//! arena; inexact slots fall back to one [`Bits`] per lane. A unit the
//! lowering sends to the tree walker — plus divisions, wide multiplies
//! and wide addresses, which do not slice profitably — scalarizes per
//! lane through the reference tree walker (gather lane → eval → scatter
//! lane), preserving exact reference semantics including its documented
//! panics. [`SlicedInterpreter::coverage`] reports what still scalarizes
//! and why.
//!
//! ## Memory ports
//!
//! Memory contents are lane-local words, not planes, so a port is where
//! the two layouts meet — by *transpose*, not by per-lane tree walks. A
//! read compiles its address to a plane program, turns the address
//! planes into 64 lane-major addresses with one 64×64 bit transpose,
//! looks each lane's word up (zero past the depth), and transposes each
//! 64-bit word of data back into the destination planes. A write port
//! compiles enable, address and data into one plane program; a cycle
//! whose enable plane is zero over the live lanes costs nothing more,
//! and otherwise only the enabled lanes' words are staged and committed
//! in the reference's order. A port scalarizes only when its expressions
//! do not slice or its address is wider than 64 bits.
//!
//! ## Dirty-set scheduling
//!
//! The compiled engine's rules, over planes, on the lowering's rows:
//! every slot lists the definitions and register next-values that read
//! it, every memory its read ports. A settle runs only the marked
//! definitions, in schedule order; a full sweep is the same loop with
//! every position marked.
//! The `Store` that ends a definition's kernel notes, as it writes,
//! whether any live lane's plane changed, and a change marks the slot's
//! readers. A register next-value runs at the edge only when one of its
//! reads moved (its pending planes otherwise still hold what it last
//! computed); the commit compares pending and current planes and marks
//! on change; a memory write marks that memory's read ports. Extern
//! combinational settles and the writers the lowering forces run every
//! settle. Pokes mark the poked slot's readers when a live lane's value
//! moved, and extern outputs mark theirs when a model's write moves
//! them; `reset`, `restore_lane`, binding a behavior and forking a
//! coalesced extern mark everything.
//!
//! ## Front end
//!
//! [`SlicedInterpreter`] is the batched front end: per-lane pokes,
//! peeks, snapshots and digests over up to 64 lanes of one design.
//!
//! Dead lanes (`lane >= lanes`) may hold garbage in every plane; nothing
//! ever reads them, so padding a batch to fewer than 64 live lanes cannot
//! perturb live lanes.

use crate::ast::{BinOp, Circuit, UnOp};
use crate::bits::{Bits, Width};
use crate::error::{IrError, Result};
use crate::exec::ExecEngine;
use crate::interp::{
    encode_state, sync_extern_inputs, DefKind, ExternBehavior, ExternInst, Interpreter, PortSink,
    PortWriter,
};
pub use crate::lower::ScalarReason;
use crate::lower::{Csr, Lowered, Op, Unit};

/// Hard lane capacity: one bit position per lane in a `u64` plane.
pub const MAX_LANES: u32 = 64;

/// Widest multiply lowered to the shift-add lane kernel; beyond this the
/// O(w²) plane work loses to per-lane scalarization.
const MUL_SLICE_MAX: u32 = 16;

/// Byte-wise FNV-1a, the same digest the observability layer uses for
/// cross-backend state comparison (`fireaxe-obs` has its own copy; the IR
/// crate sits below it in the dependency order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Where a sliced operand's planes live.
#[derive(Debug, Clone, Copy)]
enum SLoc {
    /// The canonical plane arena (an exact slot's storage).
    Plane,
    /// The per-definition temporary plane arena.
    Tmp,
    /// The constant plane arena (each plane all-zeros or all-ones).
    Const,
}

/// A sliced operand: a `width`-bit value whose low `phys` bits live as
/// planes starting at `base` in the arena named by `loc`; bits in
/// `[phys, width)` are zero and have no storage. Reads at or above
/// `phys` return all-zero, which encodes the reference engine's
/// zero-extension at width-mismatched operators for free — and lets
/// `Resize`, `Extract` and `Shr` compile to *re-windowed descriptors*
/// (adjusted `base`/`phys`/`width`) instead of plane copies.
/// Invariant: `phys <= width`.
#[derive(Debug, Clone, Copy)]
struct SSrc {
    loc: SLoc,
    base: u32,
    phys: u32,
    width: u32,
}

/// One bit-sliced lane-kernel instruction. Each op writes `width` planes
/// of the temporary arena at `dst` (except [`SOp::Store`], which writes
/// the canonical plane arena). Dead-lane bits may be garbage after any
/// op; only live lanes are ever gathered.
#[derive(Debug, Clone)]
enum SOp {
    /// Plane-parallel And/Or/Xor at `w` planes.
    Logic {
        op: BinOp,
        a: SSrc,
        b: SSrc,
        w: u32,
        dst: u32,
    },
    /// Plane-parallel complement.
    Not { a: SSrc, w: u32, dst: u32 },
    /// Ripple-carry addition: one carry plane swept LSB→MSB.
    Add { a: SSrc, b: SSrc, w: u32, dst: u32 },
    /// Ripple-borrow subtraction (`a + !b + 1` with an all-ones carry-in).
    Sub { a: SSrc, b: SSrc, w: u32, dst: u32 },
    /// Shift-add multiply, only emitted for `w <= MUL_SLICE_MAX`.
    Mul { a: SSrc, b: SSrc, w: u32, dst: u32 },
    /// Equality over `w` planes into one result plane (`neg` for `!=`).
    CmpEq {
        a: SSrc,
        b: SSrc,
        w: u32,
        neg: bool,
        dst: u32,
    },
    /// Bit-serial unsigned `a < b` over `w` planes (`neg` for `>=`; the
    /// compiler maps `>`/`<=` by swapping operands).
    CmpLt {
        a: SSrc,
        b: SSrc,
        w: u32,
        neg: bool,
        dst: u32,
    },
    /// OR/AND/XOR reduction of all of `a`'s planes into one plane.
    Red { op: UnOp, a: SSrc, dst: u32 },
    /// Lane-wise select: lanes where any plane of `c` is set take `t`.
    Mux {
        c: SSrc,
        t: SSrc,
        f: SSrc,
        w: u32,
        dst: u32,
    },
    /// Plane copy `dst[dst_lo..dst_lo+n] = a[src_lo..src_lo+n]`, reading
    /// zero beyond `a`'s width — one op covers Extract, Resize, Shr and
    /// Cat segments.
    Copy {
        a: SSrc,
        src_lo: u32,
        dst_lo: u32,
        n: u32,
        dst: u32,
    },
    /// Left shift by a static amount at width `w` (low planes zeroed).
    Shl { a: SSrc, n: u32, w: u32, dst: u32 },
    /// Store `w` planes into the canonical plane arena at `base` — the
    /// final op of every sliced definition program.
    Store { a: SSrc, base: u32, w: u32 },
}

/// Reads plane `j` of operand `s` (zero beyond the operand's width).
#[inline(always)]
fn rd(s: SSrc, j: u32, planes: &[u64], tmps: &[u64], consts: &[u64]) -> u64 {
    if j >= s.phys {
        return 0;
    }
    let i = (s.base + j) as usize;
    match s.loc {
        SLoc::Plane => planes[i],
        SLoc::Tmp => tmps[i],
        SLoc::Const => consts[i],
    }
}

/// How one scheduled definition executes under the sliced engine.
#[derive(Debug)]
enum DefProg {
    /// Plane-kernel program `ops[lo..hi]` (ends in a `Store` to the
    /// definition's slot `slot`).
    Sliced { lo: u32, hi: u32, slot: u32 },
    /// A definition whose whole program is one `Store` from the plane
    /// arena (a port connection, or a resize or extract of a slot):
    /// `phys` planes from `src`, zeros up to `w`, into `slot` at `dst`.
    Copy {
        src: u32,
        phys: u32,
        dst: u32,
        w: u32,
        slot: u32,
    },
    /// Memory read: the plane program `ops[lo..hi]` computes the address
    /// `addr`, then one transposed lookup per 64-bit word of data fills
    /// `slot`'s planes (see `SlicedInterpreter::eval`).
    MemRead {
        lo: u32,
        hi: u32,
        addr: SSrc,
        mem: u32,
        slot: u32,
    },
    /// Per-lane scalarization through the reference tree walker.
    Fallback,
    /// Extern behavioral settle, one model call per lane.
    Extern { ext: u32 },
}

/// How one register's next-value executes at the clock edge.
#[derive(Debug)]
enum RegProg {
    /// Plane program whose result (`out`, already resized to the register
    /// width) is copied into the pending arena at `pend` before commit.
    Sliced {
        lo: u32,
        hi: u32,
        out: SSrc,
        pend: u32,
        slot: u32,
    },
    /// Per-lane evaluation of `regs[ri].next` (reads pre-gathered).
    Fallback { ri: u32, reads: Vec<u32> },
}

/// How one memory write port executes at the clock edge.
#[derive(Debug)]
enum MemWProg {
    /// One plane program `ops[lo..hi]` computes enable, address and data
    /// (`data` already re-windowed to the memory width); lanes whose
    /// enable is set stage their word through a transpose.
    Sliced {
        mem: u32,
        lo: u32,
        hi: u32,
        en: SSrc,
        addr: SSrc,
        data: SSrc,
    },
    /// Per-lane evaluation of `mems[mem].writes[port]` (reads
    /// pre-gathered).
    Fallback {
        mem: u32,
        port: u32,
        reads: Vec<u32>,
    },
}

/// The four kinds of work a [`SliceCoverage`] report counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceUnit {
    /// A scheduled combinational expression definition.
    Def,
    /// A register's next-value expression.
    RegNext,
    /// A memory read port.
    MemRead,
    /// A memory write port.
    WritePort,
}

/// How many units of one kind run as plane kernels and how many
/// scalarize per lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCount {
    /// Compiled to plane kernels.
    pub kernels: u32,
    /// Evaluated per lane through the reference tree walker.
    pub scalarized: u32,
}

/// One unit that still scalarizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scalarized {
    /// What kind of unit it is.
    pub unit: SliceUnit,
    /// Hierarchical path of the signal it drives (for a write port, the
    /// memory's path and the port's index).
    pub path: String,
    /// Why the compiler could not slice it.
    pub reason: ScalarReason,
}

/// Kernel coverage of one design under the bit-sliced engine: where the
/// tree walker is still in the cycle, and why. Produced by
/// [`SlicedInterpreter::coverage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceCoverage {
    /// Scheduled expression definitions.
    pub defs: KernelCount,
    /// Register next-values.
    pub reg_nexts: KernelCount,
    /// Memory read ports.
    pub mem_reads: KernelCount,
    /// Memory write ports.
    pub write_ports: KernelCount,
    /// Every unit counted as scalarized above: definitions and memory
    /// reads in schedule order, then register next-values, then write
    /// ports. Empty when the tree walker is out of the cycle.
    pub scalarized: Vec<Scalarized>,
}

impl std::fmt::Display for SliceCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let row = |c: KernelCount| format!("{}/{}", c.kernels, c.kernels + c.scalarized);
        write!(
            f,
            "kernels: defs {}, reg-nexts {}, mem reads {}, write ports {} ({} scalarized)",
            row(self.defs),
            row(self.reg_nexts),
            row(self.mem_reads),
            row(self.write_ports),
            self.scalarized.len()
        )?;
        for s in &self.scalarized {
            write!(f, "\n  {:?} `{}`: {}", s.unit, s.path, s.reason)?;
        }
        Ok(())
    }
}

/// Result of compiling something to plane kernels.
type Sliceable<T> = std::result::Result<T, ScalarReason>;

/// The bit-sliced compilation of an elaborated netlist: plane layout,
/// lane-kernel programs, and fallback bookkeeping. Holds no live state —
/// [`SlicedInterpreter`] owns the arenas.
#[derive(Debug)]
pub(crate) struct SlicedTape {
    /// Declared width of every slot (runtime widths can differ only for
    /// inexact slots).
    widths: Vec<u32>,
    /// Result of the exactness fixpoint, per slot.
    exact: Vec<bool>,
    /// First plane of each exact slot (`u32::MAX` for inexact slots).
    plane_base: Vec<u32>,
    /// Per-lane scalar index of each inexact slot (`u32::MAX` otherwise).
    scalar_idx: Vec<u32>,
    n_planes: u32,
    n_tmps: u32,
    n_pend: u32,
    consts: Vec<u64>,
    ops: Vec<SOp>,
    def_progs: Vec<DefProg>,
    reg_progs: Vec<RegProg>,
    memw_progs: Vec<MemWProg>,
    /// Everything that fell back: its kind, the slot it drives (the
    /// memory, for a write port), the port and the reason.
    /// [`SlicedInterpreter::coverage`] resolves them to paths.
    scalarized: Vec<(SliceUnit, usize, usize, ScalarReason)>,
    /// slot → dirty-set entries reading it: definition positions
    /// `0..def_progs.len()`, then register next-value `k` at
    /// `def_progs.len() + k`.
    readers: Csr,
    /// memory → positions of its read ports.
    mem_readers: Csr,
    /// Definition positions that run on every settle.
    always: Vec<bool>,
}

/// Maps lowered nodes to plane kernels, one unit at a time. Temporaries
/// are unit-local (the arena is reused), constants accumulate in the
/// shared constant arena (a unit that falls back may leave unused
/// constant planes behind — wasted words, never read).
struct Slicer<'p, 'a> {
    prog: &'p Lowered<'a>,
    plane_base: &'p [u32],
    consts: Vec<u64>,
    /// Every finished unit's ops, and the most temporaries any used.
    ops: Vec<SOp>,
    n_tmps: u32,
    /// The unit being mapped: its ops, its first node and the operand
    /// of each of its nodes mapped so far.
    buf: Vec<SOp>,
    lo: u32,
    src: Vec<SSrc>,
    ntmp: u32,
}

impl Slicer<'_, '_> {
    fn tmp_src(&mut self, w: u32) -> SSrc {
        let base = self.ntmp;
        self.ntmp += w;
        SSrc {
            loc: SLoc::Tmp,
            base,
            phys: w,
            width: w,
        }
    }

    /// `w` constant planes, plane `j` all-ones where `bit(j)`.
    fn constant(&mut self, w: u32, bit: impl Fn(u32) -> bool) -> SSrc {
        let base = self.consts.len() as u32;
        self.consts
            .extend((0..w).map(|j| if bit(j) { u64::MAX } else { 0 }));
        SSrc {
            loc: SLoc::Const,
            base,
            phys: w,
            width: w,
        }
    }

    /// Maps `unit` into buffered ops and returns its value; `addr`
    /// names a memory address among its nodes. `Err` names the first
    /// node that does not slice.
    fn unit(&mut self, unit: &Unit, addr: Option<u32>) -> Sliceable<SSrc> {
        self.buf.clear();
        self.src.clear();
        (self.lo, self.ntmp) = (unit.lo, 0);
        for i in unit.lo..unit.hi {
            if let Some((_, reason)) = unit.fallback.filter(|&(at, _)| at == i) {
                return Err(reason);
            }
            let s = self.node(i)?;
            // The lane lookup reads one `u64` per lane, so a wider
            // address scalarizes.
            if addr == Some(i) && s.width > 64 {
                return Err(ScalarReason::WideAddress);
            }
            self.src.push(s);
        }
        Ok(self.val(unit.root()))
    }

    /// The operand of node `i` of the unit being mapped.
    fn val(&self, i: u32) -> SSrc {
        self.src[(i - self.lo) as usize]
    }

    /// Moves the unit's buffered ops to the end of `ops` and returns
    /// their range.
    fn finish(&mut self) -> (u32, u32) {
        let lo = self.ops.len() as u32;
        self.ops.append(&mut self.buf);
        self.n_tmps = self.n_tmps.max(self.ntmp);
        (lo, self.ops.len() as u32)
    }

    /// Pushes `op(dst)`, which writes a fresh `w`-plane temporary.
    fn emit(&mut self, w: u32, op: impl FnOnce(u32) -> SOp) -> SSrc {
        let out = self.tmp_src(w);
        self.buf.push(op(out.base));
        out
    }

    /// Maps node `i` into buffered ops.
    fn node(&mut self, i: u32) -> Sliceable<SSrc> {
        let prog = self.prog;
        Ok(match prog.nodes[i as usize].op {
            Op::Lit(b) => self.constant(b.width().get(), |j| b.bit(j)),
            Op::Slot(s) => SSrc {
                loc: SLoc::Plane,
                base: self.plane_base[s],
                phys: prog.widths[s],
                width: prog.widths[s],
            },
            Op::Unary(UnOp::Not, a) => {
                let a = self.val(a);
                self.emit(a.width, |dst| SOp::Not { a, w: a.width, dst })
            }
            // reduce_and of a zero-width value is 0 (the kernel's
            // all-ones fold would say 1).
            Op::Unary(UnOp::AndReduce, a) if self.val(a).width == 0 => self.constant(1, |_| false),
            Op::Unary(op, a) => {
                let a = self.val(a);
                self.emit(1, |dst| SOp::Red { op, a, dst })
            }
            Op::Binary(op, a, b) => {
                let (a, b) = (self.val(a), self.val(b));
                let w = a.width.max(b.width);
                match op {
                    BinOp::Div | BinOp::Rem => return Err(ScalarReason::DivRem),
                    BinOp::Mul if w > MUL_SLICE_MAX => return Err(ScalarReason::WideMul),
                    BinOp::Mul => self.emit(w, |dst| SOp::Mul { a, b, w, dst }),
                    BinOp::Add => self.emit(w, |dst| SOp::Add { a, b, w, dst }),
                    BinOp::Sub => self.emit(w, |dst| SOp::Sub { a, b, w, dst }),
                    BinOp::And | BinOp::Or | BinOp::Xor => {
                        self.emit(w, |dst| SOp::Logic { op, a, b, w, dst })
                    }
                    BinOp::Eq | BinOp::Neq => {
                        let neg = op == BinOp::Neq;
                        self.emit(1, |dst| SOp::CmpEq { a, b, w, neg, dst })
                    }
                    BinOp::Lt | BinOp::Gt | BinOp::Leq | BinOp::Geq => {
                        // lt(a, b) directly; a>b == lt(b,a); a<=b ==
                        // !lt(b,a); a>=b == !lt(a,b).
                        let (a, b, neg) = match op {
                            BinOp::Lt => (a, b, false),
                            BinOp::Gt => (b, a, false),
                            BinOp::Leq => (b, a, true),
                            _ => (a, b, true),
                        };
                        self.emit(1, |dst| SOp::CmpLt { a, b, w, neg, dst })
                    }
                }
            }
            Op::Mux(c, t, f) => {
                let (c, t, f) = (self.val(c), self.val(t), self.val(f));
                self.emit(t.width, |dst| SOp::Mux {
                    c,
                    t,
                    f,
                    w: t.width,
                    dst,
                })
            }
            Op::Cat(lo, hi) => {
                let parts = &prog.args[lo as usize..hi as usize];
                let total = parts.iter().map(|&p| self.val(p).width).sum();
                let out = self.tmp_src(total);
                // parts[0] is the most significant segment.
                let mut lo = total;
                for &p in parts {
                    let a = self.val(p);
                    lo -= a.width;
                    if a.width > 0 {
                        self.buf.push(SOp::Copy {
                            a,
                            src_lo: 0,
                            dst_lo: lo,
                            n: a.width,
                            dst: out.base,
                        });
                    }
                }
                out
            }
            // Free re-window: the selected field is a contiguous sub-range
            // of the source's planes (or past its physical extent,
            // all-zero).
            Op::Extract(a, hi, lo) => {
                let a = self.val(a);
                let w = hi - lo + 1;
                SSrc {
                    base: a.base + lo.min(a.phys),
                    phys: a.phys.saturating_sub(lo).min(w),
                    width: w,
                    ..a
                }
            }
            // Free re-window: truncation shrinks the physical extent,
            // zero-extension just widens the semantic width (bits past
            // `phys` already read as zero).
            Op::Resize(a, w) => {
                let a = self.val(a);
                SSrc {
                    phys: a.phys.min(w),
                    width: w,
                    ..a
                }
            }
            Op::Shl(a, n) => {
                let a = self.val(a);
                self.emit(a.width, |dst| SOp::Shl {
                    a,
                    n,
                    w: a.width,
                    dst,
                })
            }
            // Free re-window: dropping the low `n` bits slides the window
            // up; the width stays (zeros shift in from the top).
            Op::Shr(a, n) => {
                let a = self.val(a);
                SSrc {
                    base: a.base + n.min(a.phys),
                    phys: a.phys.saturating_sub(n),
                    ..a
                }
            }
        })
    }
}

impl SlicedTape {
    /// Maps the lowered netlist onto planes: exact slots get planes,
    /// inexact ones a scalar per lane, and every unit a plane kernel
    /// unless it falls back.
    pub(crate) fn build(interp: &Interpreter, prog: Lowered) -> Self {
        let n = prog.widths.len();
        let mut plane_base = vec![u32::MAX; n];
        let mut scalar_idx = vec![u32::MAX; n];
        let mut n_planes = 0u32;
        let mut n_scalars = 0u32;
        for s in 0..n {
            if prog.exact[s] {
                plane_base[s] = n_planes;
                n_planes += prog.widths[s];
            } else {
                scalar_idx[s] = n_scalars;
                n_scalars += 1;
            }
        }

        let mut cc = Slicer {
            prog: &prog,
            plane_base: &plane_base,
            consts: Vec::new(),
            ops: Vec::new(),
            n_tmps: 0,
            buf: Vec::new(),
            lo: 0,
            src: Vec::new(),
            ntmp: 0,
        };
        let mut scalarized = Vec::new();

        let mut def_progs = Vec::with_capacity(interp.schedule.len());
        for &di in &interp.schedule {
            let (d, unit) = (&interp.defs[di], &prog.defs[di]);
            def_progs.push(match d.kind {
                DefKind::Expr(_) => {
                    let slot = d.writes[0];
                    match cc.unit(unit, None) {
                        Ok(src) if cc.buf.is_empty() && matches!(src.loc, SLoc::Plane) => {
                            DefProg::Copy {
                                src: src.base,
                                phys: src.phys,
                                dst: plane_base[slot],
                                w: src.width,
                                slot: slot as u32,
                            }
                        }
                        Ok(src) => {
                            cc.buf.push(SOp::Store {
                                a: src,
                                base: plane_base[slot],
                                w: src.width,
                            });
                            let (lo, hi) = cc.finish();
                            DefProg::Sliced {
                                lo,
                                hi,
                                slot: slot as u32,
                            }
                        }
                        Err(reason) => {
                            scalarized.push((SliceUnit::Def, slot, 0, reason));
                            DefProg::Fallback
                        }
                    }
                }
                DefKind::MemRead { mem, .. } => {
                    let slot = d.writes[0];
                    match cc.unit(unit, Some(unit.root())) {
                        Ok(addr) => {
                            let (lo, hi) = cc.finish();
                            DefProg::MemRead {
                                lo,
                                hi,
                                addr,
                                mem: mem as u32,
                                slot: slot as u32,
                            }
                        }
                        Err(reason) => {
                            scalarized.push((SliceUnit::MemRead, slot, 0, reason));
                            DefProg::Fallback
                        }
                    }
                }
                DefKind::ExternComb { ext } => DefProg::Extern { ext: ext as u32 },
            });
        }

        let mut reg_progs = Vec::new();
        let mut n_pend = 0u32;
        for &(ri, next) in &prog.regs {
            let slot = interp.regs[ri].slot;
            let w = prog.widths[slot];
            reg_progs.push(match cc.unit(&next, None) {
                Ok(src) => {
                    // The commit's resize, into its own planes.
                    let out = if src.width == w {
                        src
                    } else {
                        let out = cc.tmp_src(w);
                        if w > 0 {
                            cc.buf.push(SOp::Copy {
                                a: src,
                                src_lo: 0,
                                dst_lo: 0,
                                n: w,
                                dst: out.base,
                            });
                        }
                        out
                    };
                    let (lo, hi) = cc.finish();
                    let pend = n_pend;
                    n_pend += w;
                    RegProg::Sliced {
                        lo,
                        hi,
                        out,
                        pend,
                        slot: slot as u32,
                    }
                }
                Err(reason) => {
                    scalarized.push((SliceUnit::RegNext, slot, 0, reason));
                    RegProg::Fallback {
                        ri: ri as u32,
                        reads: prog.reads(&next),
                    }
                }
            });
        }

        let mut memw_progs = Vec::new();
        for port in &prog.ports {
            let unit = &port.unit;
            // One program, three results: the temporaries of all three
            // expressions stay live until the port has executed.
            memw_progs.push(match cc.unit(unit, Some(port.addr)) {
                Ok(data) => {
                    let (en, addr) = (cc.val(port.en), cc.val(port.addr));
                    let (lo, hi) = cc.finish();
                    // The commit's resize, as a free re-window.
                    let mw = interp.mems[port.mem].width.get();
                    let data = SSrc {
                        phys: data.phys.min(mw),
                        width: mw,
                        ..data
                    };
                    MemWProg::Sliced {
                        mem: port.mem as u32,
                        lo,
                        hi,
                        en,
                        addr,
                        data,
                    }
                }
                Err(reason) => {
                    scalarized.push((SliceUnit::WritePort, port.mem, port.port, reason));
                    MemWProg::Fallback {
                        mem: port.mem as u32,
                        port: port.port as u32,
                        reads: prog.reads(unit),
                    }
                }
            });
        }

        SlicedTape {
            consts: cc.consts,
            ops: cc.ops,
            n_tmps: cc.n_tmps,
            widths: prog.widths,
            exact: prog.exact,
            plane_base,
            scalar_idx,
            n_planes,
            n_pend,
            def_progs,
            reg_progs,
            memw_progs,
            scalarized,
            readers: prog.readers,
            mem_readers: prog.mem_readers,
            always: prog.always,
        }
    }

    /// Executes the op range `[lo, hi)` against the given arenas and
    /// returns the lanes in which a `Store` changed a canonical plane (a
    /// definition's program ends in one; other programs return 0).
    fn run_ops(&self, lo: u32, hi: u32, planes: &mut [u64], tmps: &mut [u64]) -> u64 {
        let consts = &self.consts[..];
        let mut moved = 0u64;
        for op in &self.ops[lo as usize..hi as usize] {
            match op {
                SOp::Logic { op, a, b, w, dst } => {
                    for j in 0..*w {
                        let x = rd(*a, j, planes, tmps, consts);
                        let y = rd(*b, j, planes, tmps, consts);
                        tmps[(dst + j) as usize] = match op {
                            BinOp::And => x & y,
                            BinOp::Or => x | y,
                            _ => x ^ y,
                        };
                    }
                }
                SOp::Not { a, w, dst } => {
                    for j in 0..*w {
                        tmps[(dst + j) as usize] = !rd(*a, j, planes, tmps, consts);
                    }
                }
                SOp::Add { a, b, w, dst } => {
                    let mut carry = 0u64;
                    for j in 0..*w {
                        let x = rd(*a, j, planes, tmps, consts);
                        let y = rd(*b, j, planes, tmps, consts);
                        tmps[(dst + j) as usize] = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                }
                SOp::Sub { a, b, w, dst } => {
                    // a - b == a + !b + 1: invert b's planes, carry-in all-ones.
                    let mut carry = u64::MAX;
                    for j in 0..*w {
                        let x = rd(*a, j, planes, tmps, consts);
                        let y = !rd(*b, j, planes, tmps, consts);
                        tmps[(dst + j) as usize] = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                }
                SOp::Mul { a, b, w, dst } => {
                    for j in 0..*w {
                        tmps[(dst + j) as usize] = 0;
                    }
                    for i in 0..*w {
                        let ai = rd(*a, i, planes, tmps, consts);
                        if ai == 0 {
                            continue;
                        }
                        let mut carry = 0u64;
                        for j in i..*w {
                            let x = tmps[(dst + j) as usize];
                            let y = ai & rd(*b, j - i, planes, tmps, consts);
                            tmps[(dst + j) as usize] = x ^ y ^ carry;
                            carry = (x & y) | (carry & (x ^ y));
                        }
                    }
                }
                SOp::CmpEq { a, b, w, neg, dst } => {
                    let mut acc = u64::MAX;
                    for j in 0..*w {
                        acc &= !(rd(*a, j, planes, tmps, consts) ^ rd(*b, j, planes, tmps, consts));
                    }
                    tmps[*dst as usize] = if *neg { !acc } else { acc };
                }
                SOp::CmpLt { a, b, w, neg, dst } => {
                    let mut lt = 0u64;
                    for j in 0..*w {
                        let x = rd(*a, j, planes, tmps, consts);
                        let y = rd(*b, j, planes, tmps, consts);
                        lt = (!x & y) | (!(x ^ y) & lt);
                    }
                    tmps[*dst as usize] = if *neg { !lt } else { lt };
                }
                SOp::Red { op, a, dst } => {
                    let mut acc = if *op == UnOp::AndReduce { u64::MAX } else { 0 };
                    for j in 0..a.width {
                        let x = rd(*a, j, planes, tmps, consts);
                        match op {
                            UnOp::AndReduce => acc &= x,
                            UnOp::OrReduce => acc |= x,
                            _ => acc ^= x,
                        }
                    }
                    tmps[*dst as usize] = acc;
                }
                SOp::Mux { c, t, f, w, dst } => {
                    let mut cv = 0u64;
                    for j in 0..c.width {
                        cv |= rd(*c, j, planes, tmps, consts);
                    }
                    for j in 0..*w {
                        let tv = rd(*t, j, planes, tmps, consts);
                        let fv = rd(*f, j, planes, tmps, consts);
                        tmps[(dst + j) as usize] = (cv & tv) | (!cv & fv);
                    }
                }
                SOp::Copy {
                    a,
                    src_lo,
                    dst_lo,
                    n,
                    dst,
                } => {
                    // Word-level move: the physically-backed prefix is a
                    // straight memcpy/memmove, the zero-extended tail a
                    // fill. Source and destination tmp ranges never
                    // overlap (each op writes a freshly allocated range).
                    let d0 = (dst + dst_lo) as usize;
                    let avail = a.phys.saturating_sub(*src_lo).min(*n) as usize;
                    let s0 = (a.base + src_lo) as usize;
                    match a.loc {
                        SLoc::Tmp => tmps.copy_within(s0..s0 + avail, d0),
                        SLoc::Plane => {
                            tmps[d0..d0 + avail].copy_from_slice(&planes[s0..s0 + avail])
                        }
                        SLoc::Const => {
                            tmps[d0..d0 + avail].copy_from_slice(&consts[s0..s0 + avail])
                        }
                    }
                    tmps[d0 + avail..d0 + *n as usize].fill(0);
                }
                SOp::Shl { a, n, w, dst } => {
                    for j in 0..*w {
                        tmps[(dst + j) as usize] = if j >= *n {
                            rd(*a, j - n, planes, tmps, consts)
                        } else {
                            0
                        };
                    }
                }
                SOp::Store { a, base, w } => {
                    // Word-level commit into the canonical planes, noting
                    // the lanes that moved as it writes. A def never
                    // reads the slot it writes (that would be a comb
                    // cycle), so plane→plane moves are between disjoint
                    // regions.
                    let dst = *base as usize..(base + w) as usize;
                    let src = a.base as usize..(a.base + a.phys.min(*w)) as usize;
                    moved |= match a.loc {
                        SLoc::Plane => copy_planes(planes, a.base, a.phys, *base, *w),
                        SLoc::Tmp => store_planes(&mut planes[dst], &tmps[src]),
                        SLoc::Const => store_planes(&mut planes[dst], &consts[src]),
                    };
                }
            }
        }
        moved
    }
}

/// Copies `src` over the front of `dst`, zeroes the rest of `dst`, and
/// returns the lanes in which any plane changed.
#[inline]
fn store_planes(dst: &mut [u64], src: &[u64]) -> u64 {
    let (backed, zeros) = dst.split_at_mut(src.len());
    let mut moved = 0u64;
    for (d, &v) in backed.iter_mut().zip(src) {
        moved |= *d ^ v;
        *d = v;
    }
    for d in zeros {
        moved |= *d;
        *d = 0;
    }
    moved
}

/// Writes the `w` planes at `dst` from the planes at `src`, of which
/// `phys` are backed (the rest read zero), and returns the lanes in
/// which any plane changed. A backed source window lies in another
/// slot's planes, so it never overlaps the destination.
#[inline]
fn copy_planes(planes: &mut [u64], src: u32, phys: u32, dst: u32, w: u32) -> u64 {
    let (src, dst) = (src as usize, dst as usize);
    let (n, w) = (phys.min(w) as usize, w as usize);
    if n == 0 {
        store_planes(&mut planes[dst..dst + w], &[])
    } else if src < dst {
        let (from, to) = planes.split_at_mut(dst);
        store_planes(&mut to[..w], &from[src..src + n])
    } else {
        let (to, from) = planes.split_at_mut(src);
        store_planes(&mut to[dst..dst + w], &from[..n])
    }
}

/// Reconstructs lane `lane` of the plane region `[base, base+w)` into
/// `buf` as little-endian words.
fn gather_words(planes: &[u64], base: u32, w: u32, lane: u32, buf: &mut Vec<u64>) {
    buf.clear();
    buf.resize((w as usize).div_ceil(64), 0);
    for j in 0..w {
        let bit = (planes[(base + j) as usize] >> lane) & 1;
        buf[(j / 64) as usize] |= bit << (j % 64);
    }
}

/// Writes value `v` into lane `lane` of the plane region (resize
/// semantics: bits of `v` beyond `w` are dropped, planes beyond `v`'s
/// width are cleared). Other lanes are untouched. Returns whether the
/// lane's value changed.
fn scatter_bits(planes: &mut [u64], base: u32, w: u32, lane: u32, v: &Bits) -> bool {
    scatter_lane(planes, base, w, lane, |j| v.bit(j))
}

/// [`scatter_bits`] from a `u64` (bits 64+ read as zero).
fn scatter_u64(planes: &mut [u64], base: u32, w: u32, lane: u32, v: u64) -> bool {
    scatter_lane(planes, base, w, lane, |j| j < 64 && (v >> j) & 1 == 1)
}

/// Sets lane `lane` of the `w` planes at `base` to `bit(j)` for plane
/// `j`; returns whether any of them changed.
fn scatter_lane(
    planes: &mut [u64],
    base: u32,
    w: u32,
    lane: u32,
    bit: impl Fn(u32) -> bool,
) -> bool {
    let m = 1u64 << lane;
    let mut moved = 0u64;
    for (j, p) in planes[base as usize..][..w as usize].iter_mut().enumerate() {
        let old = *p;
        if bit(j as u32) {
            *p |= m;
        } else {
            *p &= !m;
        }
        moved |= old ^ *p;
    }
    moved != 0
}

/// In-place transpose of a 64×64 bit matrix (`m[i]` bit `j` = element
/// `(i, j)`), the Hacker's Delight recursive block swap: turns 64 lane
/// values into 64 planes (and back) in ~384 word ops.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32u32;
    let mut mask: u64 = 0xFFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j as usize]) & mask;
            m[k] ^= t << j;
            m[k + j as usize] ^= t;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Lane-major view of planes `[first, first + 64)` of operand `s`: row
/// `k` of the result is lane `k`'s 64-bit word (bits past the operand's
/// width read as zero). One transpose serves all 64 lanes.
fn lane_words(s: SSrc, first: u32, planes: &[u64], tmps: &[u64], consts: &[u64]) -> [u64; 64] {
    let mut m = [0u64; 64];
    let n = s.phys.saturating_sub(first).min(64);
    for j in 0..n {
        m[j as usize] = rd(s, first + j, planes, tmps, consts);
    }
    transpose64(&mut m);
    m
}

/// The batched bit-sliced front end: one design, up to 64 independent
/// scenarios (lanes), one settle sweep per batch cycle.
///
/// Exact slots live in the transposed plane arena; inexact slots,
/// memories, and extern behavioral models are lane-local. Per-lane
/// access mirrors the [`Interpreter`] API with a leading `lane`
/// argument; [`SlicedInterpreter::poke_lanes_u64`] drives one input
/// across all lanes with a 64×64 bit transpose.
///
/// All lanes share one cycle counter: they advance in lock-step, which is
/// exactly the batch-of-seeds execution model. Restoring a lane snapshot
/// ([`SlicedInterpreter::restore_lane`]) sets the shared counter, so
/// callers must restore coherent (same-cycle) snapshots across lanes.
#[derive(Debug)]
pub struct SlicedInterpreter {
    /// Structural template plus per-lane scratch: `base.slots` doubles as
    /// the gather shadow for fallback evaluation (exact entries always
    /// hold declared-width values; inexact entries are transient
    /// lane-local copies). Its extern models stay unbound — lane models
    /// live in `models`.
    base: Interpreter,
    tape: SlicedTape,
    lanes: u32,
    planes: Vec<u64>,
    tmps: Vec<u64>,
    /// `[scalar_idx][lane]` — lane-local values of inexact slots.
    scalars: Vec<Vec<Bits>>,
    /// `[mem][lane][addr]` — each lane owns its memory contents.
    lane_mems: Vec<Vec<Vec<Bits>>>,
    /// `[ext][lane]` — each lane owns its behavioral model instance.
    models: Vec<Vec<Option<Box<dyn ExternBehavior>>>>,
    /// Per extern: `true` while every lane's model is bit-identical
    /// (proved by equal [`ExternBehavior::snapshot_bytes`] at bind/reset)
    /// *and* the instance has only ever seen lane-uniform inputs. While
    /// it holds, one model call serves all lanes (copy-on-write lane
    /// coalescing); the first divergent input forks lane 0's state into
    /// the parked per-lane models and clears the flag.
    ext_uniform: Vec<bool>,
    /// The dirty set: definition positions, then register next-values
    /// (indexed as the tape's `readers` rows are).
    dirty: Vec<bool>,
    cycle: u64,
    word_buf: Vec<u64>,
    pend_reg_planes: Vec<u64>,
    pend_lane_regs: Vec<(usize, u32, Bits)>,
    /// Staged memory writes `(mem, lane, addr)` of the edge in flight;
    /// entry `i`'s data words follow entry `i - 1`'s in `pend_mem_words`.
    /// Both keep their capacity across cycles.
    pend_mem_writes: Vec<(u32, u32, usize)>,
    pend_mem_words: Vec<u64>,
    inputs: Vec<(String, Width)>,
    outputs: Vec<(String, Width)>,
}

impl SlicedInterpreter {
    /// Elaborates `circuit` for `lanes` (1..=64) concurrent scenarios.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors; rejects a lane count outside
    /// `1..=64` as [`IrError::Malformed`].
    pub fn new(circuit: &Circuit, lanes: u32) -> Result<Self> {
        if lanes == 0 || lanes > MAX_LANES {
            return Err(IrError::Malformed {
                message: format!("sliced lane count {lanes} outside 1..={MAX_LANES}"),
            });
        }
        // The template only ever runs fallbacks on the tree walker, so it
        // needs no compiled tape: the netlist is lowered once, here.
        let base = Interpreter::elaborate(circuit, ExecEngine::Reference)?;
        let tape = SlicedTape::build(&base, Lowered::new(&base));
        let planes = vec![0u64; tape.n_planes as usize];
        let tmps = vec![0u64; tape.n_tmps as usize];
        // Inexact slots in slot order, as `scalar_idx` numbers them.
        let scalars = (0..tape.widths.len())
            .filter(|&s| !tape.exact[s])
            .map(|s| vec![Bits::zero(Width::new(tape.widths[s])); lanes as usize])
            .collect();
        let lane_mems = base
            .mems
            .iter()
            .map(|m| vec![m.data.clone(); lanes as usize])
            .collect();
        let models: Vec<Vec<Option<Box<dyn ExternBehavior>>>> = base
            .externs
            .iter()
            .map(|_| (0..lanes).map(|_| None).collect())
            .collect();
        let pend_reg_planes = vec![0u64; tape.n_pend as usize];
        let dirty = vec![true; tape.def_progs.len() + tape.reg_progs.len()];
        let inputs = base.input_ports();
        let outputs = base.output_ports();
        let mut si = SlicedInterpreter {
            base,
            tape,
            lanes,
            planes,
            tmps,
            scalars,
            lane_mems,
            ext_uniform: vec![false; models.len()],
            models,
            dirty,
            cycle: 0,
            word_buf: Vec::new(),
            pend_reg_planes,
            pend_lane_regs: Vec::new(),
            pend_mem_writes: Vec::new(),
            pend_mem_words: Vec::new(),
            inputs,
            outputs,
        };
        si.reset();
        Ok(si)
    }

    /// Number of live lanes.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Completed target cycles since reset (shared by all lanes).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Which definitions, register next-values and memory ports run as
    /// plane kernels, and for each one that scalarizes per lane instead,
    /// its path and the compiler's reason.
    pub fn coverage(&self) -> SliceCoverage {
        let tape = &self.tape;
        let mut cov = SliceCoverage::default();
        for p in &tape.def_progs {
            match p {
                DefProg::Sliced { .. } | DefProg::Copy { .. } => cov.defs.kernels += 1,
                DefProg::MemRead { .. } => cov.mem_reads.kernels += 1,
                // Fallbacks are counted below, by what fell back; extern
                // settles are model calls, neither kernel nor tree walk.
                DefProg::Fallback | DefProg::Extern { .. } => {}
            }
        }
        for p in &tape.reg_progs {
            if let RegProg::Sliced { .. } = p {
                cov.reg_nexts.kernels += 1;
            }
        }
        for p in &tape.memw_progs {
            if let MemWProg::Sliced { .. } = p {
                cov.write_ports.kernels += 1;
            }
        }
        for &(unit, i, port, reason) in &tape.scalarized {
            let (count, path) = match unit {
                SliceUnit::Def => (&mut cov.defs, self.base.slot_path(i)),
                SliceUnit::RegNext => (&mut cov.reg_nexts, self.base.slot_path(i)),
                SliceUnit::MemRead => (&mut cov.mem_reads, self.base.slot_path(i)),
                SliceUnit::WritePort => (&mut cov.write_ports, self.base.mem_path(i)),
            };
            count.scalarized += 1;
            let mut path = path
                .expect("the elaborator names every slot and memory")
                .to_string();
            if unit == SliceUnit::WritePort {
                path.push_str(&format!("[write {port}]"));
            }
            cov.scalarized.push(Scalarized { unit, path, reason });
        }
        cov
    }

    /// Hierarchical paths of every elaborated signal, sorted.
    pub fn signal_paths(&self) -> Vec<String> {
        self.base.signal_paths()
    }

    /// Names and widths of the top-level input ports.
    pub fn input_ports(&self) -> Vec<(String, Width)> {
        self.inputs.clone()
    }

    /// Names and widths of the top-level output ports.
    pub fn output_ports(&self) -> Vec<(String, Width)> {
        self.outputs.clone()
    }

    /// Every extern instance as `(path, behavior key, all lanes bound)`.
    pub fn extern_instances(&self) -> Vec<(String, String, bool)> {
        self.base
            .externs
            .iter()
            .zip(&self.models)
            .map(|(e, lm)| {
                (
                    e.path.clone(),
                    e.behavior_key.clone(),
                    lm.iter().all(|m| m.is_some()),
                )
            })
            .collect()
    }

    /// Binds one behavioral model per lane to the extern instance at
    /// `path`; the factory is called with each lane index, so lanes can
    /// get differently-seeded models.
    ///
    /// # Errors
    ///
    /// Returns an error if no extern instance exists at that path.
    pub fn bind_behavior_with(
        &mut self,
        path: &str,
        mut factory: impl FnMut(u32) -> Box<dyn ExternBehavior>,
    ) -> Result<()> {
        let ext = self
            .base
            .externs
            .iter()
            .position(|e| e.path == path)
            .ok_or_else(|| IrError::Malformed {
                message: format!("no extern instance at path `{path}`"),
            })?;
        for lane in 0..self.lanes {
            let mut m = factory(lane);
            m.reset();
            self.models[ext][lane as usize] = Some(m);
        }
        self.recompute_uniform(ext);
        self.dirty.fill(true);
        Ok(())
    }

    /// Re-derives the copy-on-write lane-coalescing eligibility of one
    /// extern instance: all lane models bound, checkpointable, and in
    /// bit-identical states right now.
    fn recompute_uniform(&mut self, ext: usize) {
        let lanes = self.lanes as usize;
        let lm = &self.models[ext];
        self.ext_uniform[ext] = match lm[0].as_ref().and_then(|m| m.snapshot_bytes()) {
            Some(b0) => lm[1..lanes]
                .iter()
                .all(|m| m.as_ref().and_then(|m| m.snapshot_bytes()) == Some(b0.clone())),
            None => false,
        };
    }

    /// Forks every still-coalesced extern into true per-lane models
    /// (lane 0's state is cloned into the parked lanes) so per-lane
    /// mutation — snapshot restore, divergent inputs — is sound.
    fn materialize_lanes(&mut self) {
        for ext in 0..self.models.len() {
            if self.ext_uniform[ext] {
                fork_extern_lanes(
                    &mut self.models,
                    ext,
                    self.lanes,
                    &self.base.externs[ext].path,
                    &mut self.dirty,
                );
                self.ext_uniform[ext] = false;
            }
        }
    }

    /// Resets registers, memories and lane models; cycle returns to 0.
    /// Mirrors [`Interpreter::reset`] per lane (non-register signals keep
    /// their values, exactly like the reference).
    pub fn reset(&mut self) {
        for r in &self.base.regs {
            if self.tape.exact[r.slot] {
                // Same init in every lane: each plane is a constant fill.
                let base = self.tape.plane_base[r.slot];
                for j in 0..self.tape.widths[r.slot] {
                    self.planes[(base + j) as usize] = if r.init.bit(j) { u64::MAX } else { 0 };
                }
            } else {
                let si = self.tape.scalar_idx[r.slot] as usize;
                for lane in 0..self.lanes as usize {
                    self.scalars[si][lane] = r.init.clone();
                }
            }
        }
        for (mi, m) in self.base.mems.iter().enumerate() {
            for lane in 0..self.lanes as usize {
                for d in &mut self.lane_mems[mi][lane] {
                    *d = Bits::zero(m.width);
                }
            }
        }
        for lm in &mut self.models {
            for m in lm.iter_mut().flatten() {
                m.reset();
            }
        }
        for ext in 0..self.models.len() {
            self.recompute_uniform(ext);
        }
        self.cycle = 0;
        self.dirty.fill(true);
        self.publish_sources();
    }

    /// Drives input `name` on one lane (resize semantics, like
    /// [`Interpreter::poke`]).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane` is out of range.
    pub fn poke(&mut self, lane: u32, name: &str, value: &Bits) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let slot = self.base.input_slot(name);
        let moved = if self.tape.exact[slot] {
            scatter_bits(
                &mut self.planes,
                self.tape.plane_base[slot],
                self.tape.widths[slot],
                lane,
                value,
            )
        } else {
            // Lane scalars are written without a compare: always moved.
            self.scalars[self.tape.scalar_idx[slot] as usize][lane as usize].assign_resized(value);
            true
        };
        if moved {
            self.tape.readers.mark(slot, &mut self.dirty);
        }
    }

    /// Drives input `name` on one lane from a `u64`. Never allocates on
    /// the exact-slot fast path. Mirrors [`Interpreter::poke_u64`]'s
    /// error contract so the cockpit's per-lane pokes degrade to typed
    /// errors on both engines.
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::poke_u64`]: `UnknownSignal`, `NotPokeable`,
    /// or `PokeWidth`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn poke_u64(&mut self, lane: u32, name: &str, value: u64) -> Result<()> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let slot = self.base.try_input_slot(name)?;
        let width = self.tape.widths[slot];
        let value_bits = 64 - value.leading_zeros();
        if width < 64 && value_bits > width {
            return Err(IrError::PokeWidth {
                path: name.to_string(),
                width,
                value_bits,
            });
        }
        self.poke_u64_at(lane, slot, value);
        Ok(())
    }

    fn poke_u64_at(&mut self, lane: u32, slot: usize, value: u64) {
        let moved = if self.tape.exact[slot] {
            scatter_u64(
                &mut self.planes,
                self.tape.plane_base[slot],
                self.tape.widths[slot],
                lane,
                value,
            )
        } else {
            let v = Bits::from_u64(value, Width::new(self.tape.widths[slot]));
            self.scalars[self.tape.scalar_idx[slot] as usize][lane as usize].assign_resized(&v);
            true
        };
        if moved {
            self.tape.readers.mark(slot, &mut self.dirty);
        }
    }

    /// Drives input `name` on every lane at once: `values[k]` goes to
    /// lane `k` (truncated to the port width). For ports wider than a few
    /// bits this transposes a 64×64 bit matrix instead of scattering
    /// lane by lane, which is what keeps wide-port batch driving cheap.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `values.len() != lanes`.
    pub fn poke_lanes_u64(&mut self, name: &str, values: &[u64]) {
        assert_eq!(
            values.len(),
            self.lanes as usize,
            "poke_lanes_u64 needs one value per lane"
        );
        let slot = self.base.input_slot(name);
        if !self.tape.exact[slot] {
            for (lane, v) in values.iter().enumerate() {
                self.poke_u64_at(lane as u32, slot, *v);
            }
            return;
        }
        let base = self.tape.plane_base[slot] as usize;
        let w = self.tape.widths[slot] as usize;
        let dst = &mut self.planes[base..base + w];
        let moved = if w >= 7 {
            let mut m = [0u64; 64];
            m[..values.len()].copy_from_slice(values);
            transpose64(&mut m);
            store_planes(dst, &m[..w.min(64)])
        } else {
            let mut moved = 0u64;
            for (j, p) in dst.iter_mut().enumerate() {
                let mut plane = 0u64;
                for (lane, v) in values.iter().enumerate() {
                    plane |= ((v >> j) & 1) << lane;
                }
                moved |= *p ^ plane;
                *p = plane;
            }
            moved
        };
        if moved & live_mask(self.lanes) != 0 {
            self.tape.readers.mark(slot, &mut self.dirty);
        }
    }

    /// Reads any signal on one lane by hierarchical path.
    ///
    /// # Panics
    ///
    /// Panics if the path does not name a signal or `lane` is out of
    /// range.
    pub fn peek(&self, lane: u32, path: &str) -> Bits {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let slot = self
            .base
            .slot_index(path)
            .unwrap_or_else(|| panic!("no signal at path `{path}`"));
        self.read_slot(lane, slot)
    }

    /// The non-panicking [`SlicedInterpreter::peek`]: reads any signal on
    /// one lane by hierarchical path, routing exact slots through the
    /// plane arena (gathering the lane's bits out of the transposed
    /// layout) and inexact slots through their per-lane scalars. This is
    /// how the cockpit peeks individual scenarios of a batched run —
    /// unknown paths and dead lanes are `None`, never a panic, because
    /// the path arrives over the wire from an interactive client.
    pub fn peek_opt(&self, lane: u32, path: &str) -> Option<Bits> {
        if lane >= self.lanes {
            return None;
        }
        let slot = self.base.slot_index(path)?;
        Some(self.read_slot(lane, slot))
    }

    /// Reads the low 64 bits of a signal on one lane without allocating.
    ///
    /// # Panics
    ///
    /// Same as [`SlicedInterpreter::peek`].
    pub fn peek_u64(&self, lane: u32, path: &str) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let slot = self
            .base
            .slot_index(path)
            .unwrap_or_else(|| panic!("no signal at path `{path}`"));
        if self.tape.exact[slot] {
            let base = self.tape.plane_base[slot];
            let w = self.tape.widths[slot].min(64);
            let mut v = 0u64;
            for j in 0..w {
                v |= ((self.planes[(base + j) as usize] >> lane) & 1) << j;
            }
            v
        } else {
            self.scalars[self.tape.scalar_idx[slot] as usize][lane as usize].to_u64()
        }
    }

    /// Reads one entry of a memory on one lane; `None` for an unknown
    /// path or out-of-range index.
    pub fn peek_mem(&self, lane: u32, path: &str, index: usize) -> Option<&Bits> {
        let mi = self.base.mem_index(path)?;
        self.lane_mems[mi].get(lane as usize)?.get(index)
    }

    fn read_slot(&self, lane: u32, slot: usize) -> Bits {
        if self.tape.exact[slot] {
            let mut buf = Vec::new();
            gather_words(
                &self.planes,
                self.tape.plane_base[slot],
                self.tape.widths[slot],
                lane,
                &mut buf,
            );
            Bits::from_words(&buf, Width::new(self.tape.widths[slot]))
        } else {
            self.scalars[self.tape.scalar_idx[slot] as usize][lane as usize].clone()
        }
    }

    /// FNV-1a digest of one lane's top-level output-port values — the
    /// same formula as [`Interpreter::state_digest`], so a sliced lane
    /// can be compared against an independent sequential run with one
    /// `u64`.
    pub fn lane_digest(&self, lane: u32) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let mut h = Fnv1a::default();
        for (_, s) in &self.base.top_outputs {
            let v = self.read_slot(lane, *s);
            h.write_u64(u64::from(v.width().get()));
            for w in v.as_words() {
                h.write_u64(*w);
            }
        }
        h.finish()
    }

    /// Captures one lane's full architectural state as the byte blob a
    /// plain [`Interpreter::snapshot_bytes`] produces, so a lane can be
    /// rehydrated into a sequential interpreter (or restored into a
    /// lane). `None` when any lane model is unbound or declares no state.
    pub fn snapshot_lane(&self, lane: u32) -> Option<Vec<u8>> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let l = lane as usize;
        // While an extern is lane-coalesced, only lane 0's model is
        // live (the parked lanes are stale until a fork); its state
        // *is* every lane's state.
        let models = self.models.iter().zip(&self.ext_uniform);
        encode_state(
            self.cycle,
            (0..self.tape.widths.len()).map(|s| self.read_slot(lane, s)),
            self.lane_mems.iter().map(|m| &m[l]),
            models.map(|(lm, uniform)| &lm[if *uniform { 0 } else { l }]),
        )
    }

    /// Restores one lane from a blob taken by
    /// [`SlicedInterpreter::snapshot_lane`] or
    /// [`Interpreter::snapshot_bytes`] over the same design. Returns
    /// `false` (lane untouched) when the blob does not decode or does not
    /// fit the design.
    ///
    /// Lanes share one cycle counter, so this sets it from the blob:
    /// restore coherent same-cycle blobs across all live lanes.
    pub fn restore_lane(&mut self, lane: u32, bytes: &[u8]) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let Some(state) = self.base.decode_state(bytes) else {
            return false;
        };
        // Restoring one lane's model breaks lane uniformity: fork every
        // coalesced extern into real per-lane models first.
        self.materialize_lanes();
        let l = lane as usize;
        for (s, v) in state.slots.iter().enumerate() {
            if self.tape.exact[s] {
                scatter_bits(
                    &mut self.planes,
                    self.tape.plane_base[s],
                    self.tape.widths[s],
                    lane,
                    v,
                );
            } else {
                self.scalars[self.tape.scalar_idx[s] as usize][l].clone_from(v);
            }
        }
        for (mem, data) in self.lane_mems.iter_mut().zip(state.mems) {
            mem[l] = data;
        }
        self.cycle = state.cycle;
        self.dirty.fill(true);
        self.models
            .iter_mut()
            .zip(state.externs)
            .all(|(lm, b)| lm[l].as_mut().is_some_and(|m| m.restore_bytes(b)))
    }

    /// Settles all combinational logic across every lane: of the
    /// definitions marked dirty (see the module docs), sliced ones run
    /// once over planes, fallback ones scalarize per lane, extern
    /// settles call each lane's model.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ExternWithoutBehavior`] if any lane of an
    /// extern instance with a combinational settle has no bound model,
    /// before any definition runs.
    pub fn eval(&mut self) -> Result<()> {
        for &ei in &self.base.comb_externs {
            let ei = ei as usize;
            // A lane-coalesced instance runs lane 0's model for all.
            let live = if self.ext_uniform[ei] { 1 } else { self.lanes };
            if self.models[ei][..live as usize].iter().any(Option::is_none) {
                return Err(self.base.externs[ei].unbound());
            }
        }
        let lanes = self.lanes;
        let live = live_mask(lanes);
        let tape = &self.tape;
        let planes = &mut self.planes;
        let tmps = &mut self.tmps;
        let scalars = &mut self.scalars;
        let lane_mems = &self.lane_mems;
        let models = &mut self.models;
        let word_buf = &mut self.word_buf;
        let ext_uniform = &mut self.ext_uniform;
        let dirty = &mut self.dirty;
        let parts = self.base.parts_mut();
        let slots = parts.slots;
        let n_progs = tape.def_progs.len();
        let mut run = 0u64;
        for pos in 0..n_progs {
            if !dirty[pos] {
                continue;
            }
            dirty[pos] = tape.always[pos];
            run += 1;
            match &tape.def_progs[pos] {
                DefProg::Sliced { lo, hi, slot } => {
                    if tape.run_ops(*lo, *hi, planes, tmps) & live != 0 {
                        tape.readers.mark(*slot as usize, dirty);
                    }
                }
                &DefProg::Copy {
                    src,
                    phys,
                    dst,
                    w,
                    slot,
                } => {
                    if copy_planes(planes, src, phys, dst, w) & live != 0 {
                        tape.readers.mark(slot as usize, dirty);
                    }
                }
                DefProg::MemRead {
                    lo,
                    hi,
                    addr,
                    mem,
                    slot,
                } => {
                    tape.run_ops(*lo, *hi, planes, tmps);
                    let addrs = lane_words(*addr, 0, planes, tmps, &tape.consts);
                    let lane_mem = &lane_mems[*mem as usize];
                    let base = tape.plane_base[*slot as usize] as usize;
                    let w = tape.widths[*slot as usize] as usize;
                    let mut moved = 0u64;
                    for (k, dst) in planes[base..base + w].chunks_mut(64).enumerate() {
                        // Dead lanes stay zero; past the depth reads zero.
                        let mut m = [0u64; 64];
                        for (word, (mem, a)) in m.iter_mut().zip(lane_mem.iter().zip(&addrs)) {
                            if let Some(v) = mem.get(*a as usize) {
                                *word = v.as_words()[k];
                            }
                        }
                        transpose64(&mut m);
                        moved |= store_planes(dst, &m[..dst.len()]);
                    }
                    if moved & live != 0 {
                        tape.readers.mark(*slot as usize, dirty);
                    }
                }
                DefProg::Fallback => {
                    let def = &parts.defs[parts.schedule[pos]];
                    let mut moved = false;
                    for lane in 0..lanes {
                        for &s in &def.reads {
                            load_shadow(slots, tape, planes, scalars, word_buf, s, lane);
                        }
                        let v = match &def.kind {
                            DefKind::Expr(e) => e.eval(slots),
                            DefKind::MemRead { mem, addr } => {
                                let a = addr.eval(slots).to_u64() as usize;
                                let m = &lane_mems[*mem][lane as usize];
                                m.get(a)
                                    .cloned()
                                    .unwrap_or_else(|| Bits::zero(parts.mems[*mem].width))
                            }
                            DefKind::ExternComb { .. } => {
                                unreachable!("extern defs have Extern progs")
                            }
                        };
                        moved |= store_lane(tape, planes, scalars, def.writes[0], lane, v);
                    }
                    if moved {
                        tape.readers.mark(def.writes[0], dirty);
                    }
                }
                DefProg::Extern { ext } => {
                    let ei = *ext as usize;
                    let e = &mut parts.externs[ei];
                    if ext_uniform[ei] {
                        if extern_inputs_uniform(tape, planes, scalars, e, lanes) {
                            // Every lane sees the same inputs and all lane
                            // models are in the same state: one settle call
                            // serves the whole batch.
                            for &(_, s) in &e.input_slots {
                                load_shadow(slots, tape, planes, scalars, word_buf, s, 0);
                            }
                            sync_extern_inputs(slots, e);
                            let model = models[ei][0].as_mut().ok_or_else(|| e.unbound())?;
                            let mut sink = LaneSink {
                                tape,
                                planes,
                                scalars,
                                dirty,
                                live,
                                lane: None,
                            };
                            model.comb_outputs(
                                &e.inputs_buf,
                                &mut PortWriter::new(&e.sink_output_slots, &mut sink),
                            );
                            continue;
                        }
                        fork_extern_lanes(models, ei, lanes, &e.path, dirty);
                        ext_uniform[ei] = false;
                    }
                    for lane in 0..lanes {
                        for &(_, s) in &e.input_slots {
                            load_shadow(slots, tape, planes, scalars, word_buf, s, lane);
                        }
                        sync_extern_inputs(slots, e);
                        let model = models[ei][lane as usize]
                            .as_mut()
                            .ok_or_else(|| e.unbound())?;
                        let mut sink = LaneSink {
                            tape,
                            planes,
                            scalars,
                            dirty,
                            live,
                            lane: Some(lane),
                        };
                        model.comb_outputs(
                            &e.inputs_buf,
                            &mut PortWriter::new(&e.sink_output_slots, &mut sink),
                        );
                    }
                }
            }
        }
        let stats = &mut self.base.stats;
        stats.settle_passes += 1;
        stats.defs_run += run;
        stats.defs_skipped += n_progs as u64 - run;
        Ok(())
    }

    /// Latches registers, applies memory writes, ticks lane models, and
    /// publishes next-cycle extern source outputs — the reference
    /// engine's commit order, lane by lane where state is lane-local.
    /// Register next-values whose reads did not move keep what they last
    /// computed. Must be preceded by [`SlicedInterpreter::eval`].
    pub fn tick(&mut self) {
        let lanes = self.lanes;
        let live = live_mask(lanes);
        let tape = &self.tape;
        let planes = &mut self.planes;
        let tmps = &mut self.tmps;
        let scalars = &mut self.scalars;
        let lane_mems = &mut self.lane_mems;
        let models = &mut self.models;
        let word_buf = &mut self.word_buf;
        let pend_planes = &mut self.pend_reg_planes;
        let pend_lane_regs = &mut self.pend_lane_regs;
        let pend_mem_writes = &mut self.pend_mem_writes;
        let pend_mem_words = &mut self.pend_mem_words;
        let ext_uniform = &mut self.ext_uniform;
        let dirty = &mut self.dirty;
        let parts = self.base.parts_mut();
        let slots = parts.slots;

        // 1. Register next-values whose reads moved, all computed against
        // pre-edge state.
        let n_defs = tape.def_progs.len();
        for (rp, d) in tape.reg_progs.iter().zip(&mut dirty[n_defs..]) {
            if !*d {
                continue;
            }
            *d = false;
            match rp {
                RegProg::Sliced {
                    lo,
                    hi,
                    out,
                    pend,
                    slot,
                } => {
                    tape.run_ops(*lo, *hi, planes, tmps);
                    let consts = &tape.consts[..];
                    for j in 0..tape.widths[*slot as usize] {
                        pend_planes[(pend + j) as usize] = rd(*out, j, planes, tmps, consts);
                    }
                }
                RegProg::Fallback { ri, reads } => {
                    let r = &parts.regs[*ri as usize];
                    let e = r.next.as_ref().expect("fallback reg has next");
                    let w = Width::new(tape.widths[r.slot]);
                    for lane in 0..lanes {
                        for &s in reads {
                            load_shadow(slots, tape, planes, scalars, word_buf, s as usize, lane);
                        }
                        pend_lane_regs.push((r.slot, lane, e.eval(slots).resize(w)));
                    }
                }
            }
        }

        // 2. Memory writes, also against pre-edge state: staged as
        // (mem, lane, addr) plus the entry's words, in port order.
        let live_lanes = live_mask(lanes);
        for mp in &tape.memw_progs {
            match mp {
                MemWProg::Sliced {
                    mem,
                    lo,
                    hi,
                    en,
                    addr,
                    data,
                } => {
                    tape.run_ops(*lo, *hi, planes, tmps);
                    let consts = &tape.consts[..];
                    let mut enabled = 0u64;
                    for j in 0..en.phys {
                        enabled |= rd(*en, j, planes, tmps, consts);
                    }
                    enabled &= live_lanes;
                    if enabled == 0 {
                        continue;
                    }
                    let m = &parts.mems[*mem as usize];
                    let addrs = lane_words(*addr, 0, planes, tmps, consts);
                    let first = pend_mem_writes.len();
                    while enabled != 0 {
                        let lane = enabled.trailing_zeros();
                        enabled &= enabled - 1;
                        let a = addrs[lane as usize] as usize;
                        if a < m.data.len() {
                            pend_mem_writes.push((*mem, lane, a));
                        }
                    }
                    let staged = &pend_mem_writes[first..];
                    let nw = m.width.words();
                    let w0 = pend_mem_words.len();
                    pend_mem_words.resize(w0 + nw * staged.len(), 0);
                    for k in 0..nw {
                        let words = lane_words(*data, 64 * k as u32, planes, tmps, consts);
                        for (i, &(_, lane, _)) in staged.iter().enumerate() {
                            pend_mem_words[w0 + i * nw + k] = words[lane as usize];
                        }
                    }
                }
                MemWProg::Fallback { mem, port, reads } => {
                    let m = &parts.mems[*mem as usize];
                    let (addr, data, en) = &m.writes[*port as usize];
                    for lane in 0..lanes {
                        for &s in reads {
                            load_shadow(slots, tape, planes, scalars, word_buf, s as usize, lane);
                        }
                        if !en.eval(slots).is_zero() {
                            let a = addr.eval(slots).to_u64() as usize;
                            if a < m.data.len() {
                                pend_mem_writes.push((*mem, lane, a));
                                pend_mem_words
                                    .extend_from_slice(data.eval(slots).resize(m.width).as_words());
                            }
                        }
                    }
                }
            }
        }

        // 3. Extern model ticks see final settled (pre-edge) inputs.
        // Inputs may have been poked per-lane since `eval`, so coalesced
        // instances re-check uniformity (and fork if it just broke).
        for (ei, e) in parts.externs.iter_mut().enumerate() {
            if ext_uniform[ei] {
                if extern_inputs_uniform(tape, planes, scalars, e, lanes) {
                    for &(_, s) in &e.input_slots {
                        load_shadow(slots, tape, planes, scalars, word_buf, s, 0);
                    }
                    sync_extern_inputs(slots, e);
                    if let Some(model) = &mut models[ei][0] {
                        model.tick(&e.inputs_buf);
                    }
                    continue;
                }
                fork_extern_lanes(models, ei, lanes, &e.path, dirty);
                ext_uniform[ei] = false;
            }
            for lane in 0..lanes {
                for &(_, s) in &e.input_slots {
                    load_shadow(slots, tape, planes, scalars, word_buf, s, lane);
                }
                sync_extern_inputs(slots, e);
                if let Some(model) = &mut models[ei][lane as usize] {
                    model.tick(&e.inputs_buf);
                }
            }
        }

        // 4. Commit registers (sliced: one plane copy covers all lanes),
        // marking the readers of every register that moved.
        for rp in &tape.reg_progs {
            if let RegProg::Sliced { pend, slot, .. } = rp {
                let base = tape.plane_base[*slot as usize] as usize;
                let w = tape.widths[*slot as usize] as usize;
                let p0 = *pend as usize;
                let moved = store_planes(&mut planes[base..base + w], &pend_planes[p0..p0 + w]);
                if moved & live != 0 {
                    tape.readers.mark(*slot as usize, dirty);
                }
            }
        }
        for (slot, lane, v) in pend_lane_regs.drain(..) {
            if store_lane(tape, planes, scalars, slot, lane, v) {
                tape.readers.mark(slot, dirty);
            }
        }

        // 5. Commit memory writes in evaluation order (last write wins
        // per lane, matching the reference); each marks the memory's
        // read ports.
        let mut words = &pend_mem_words[..];
        for &(mem, lane, a) in pend_mem_writes.iter() {
            let (entry, rest) = words.split_at(parts.mems[mem as usize].width.words());
            lane_mems[mem as usize][lane as usize][a].set_from_words(entry);
            words = rest;
            tape.mem_readers.mark(mem as usize, dirty);
        }
        pend_mem_writes.clear();
        pend_mem_words.clear();

        // 6. Publish next-cycle extern source outputs.
        let mut sink = LaneSink {
            tape,
            planes,
            scalars,
            dirty,
            live,
            lane: None,
        };
        publish_lane_sources(&mut sink, parts.externs, models, ext_uniform, lanes);
        self.cycle += 1;
    }

    fn publish_sources(&mut self) {
        let mut sink = LaneSink {
            tape: &self.tape,
            planes: &mut self.planes,
            scalars: &mut self.scalars,
            dirty: &mut self.dirty,
            live: live_mask(self.lanes),
            lane: None,
        };
        publish_lane_sources(
            &mut sink,
            &self.base.externs,
            &mut self.models,
            &self.ext_uniform,
            self.lanes,
        );
    }

    /// One full target cycle across every lane: settle then latch.
    ///
    /// # Errors
    ///
    /// See [`SlicedInterpreter::eval`].
    pub fn step(&mut self) -> Result<()> {
        self.eval()?;
        self.tick();
        Ok(())
    }

    /// Cumulative settle-loop statistics (shared across lanes; one batch
    /// settle counts as one pass, and each definition it runs or skips
    /// counts once however many lanes it covers).
    pub fn exec_stats(&self) -> crate::exec::ExecStats {
        self.base.stats
    }
}

/// Refreshes the shadow slot `s` with lane `lane`'s value so the
/// reference tree walker can evaluate against it.
fn load_shadow(
    slots: &mut [Bits],
    tape: &SlicedTape,
    planes: &[u64],
    scalars: &[Vec<Bits>],
    word_buf: &mut Vec<u64>,
    s: usize,
    lane: u32,
) {
    if tape.exact[s] {
        gather_words(planes, tape.plane_base[s], tape.widths[s], lane, word_buf);
        slots[s].set_from_words(word_buf);
    } else {
        slots[s].clone_from(&scalars[tape.scalar_idx[s] as usize][lane as usize]);
    }
}

/// Stores an owned evaluation result into lane `lane` of slot `s`
/// (replace semantics, like the reference's `slots[w] = v`); returns
/// whether the lane's value changed.
fn store_lane(
    tape: &SlicedTape,
    planes: &mut [u64],
    scalars: &mut [Vec<Bits>],
    s: usize,
    lane: u32,
    v: Bits,
) -> bool {
    if tape.exact[s] {
        debug_assert_eq!(
            v.width().get(),
            tape.widths[s],
            "exactness analysis admitted a dynamic width"
        );
        scatter_bits(planes, tape.plane_base[s], tape.widths[s], lane, &v)
    } else {
        let old = &mut scalars[tape.scalar_idx[s] as usize][lane as usize];
        let moved = *old != v;
        *old = v;
        moved
    }
}

/// Plane mask of the live lanes `0..lanes`.
fn live_mask(lanes: u32) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// `true` when every live lane of every input slot of extern `e` holds
/// the same value — the per-cycle condition for keeping a lane-coalesced
/// instance coalesced. Exact slots need one masked compare per plane
/// (a uniform plane restricted to live lanes is all-zeros or all-ones);
/// inexact slots compare lane scalars directly.
fn extern_inputs_uniform(
    tape: &SlicedTape,
    planes: &[u64],
    scalars: &[Vec<Bits>],
    e: &ExternInst,
    lanes: u32,
) -> bool {
    let mask = live_mask(lanes);
    for &(_, s) in &e.input_slots {
        if tape.exact[s] {
            let base = tape.plane_base[s];
            for j in 0..tape.widths[s] {
                let p = planes[(base + j) as usize] & mask;
                if p != 0 && p != mask {
                    return false;
                }
            }
        } else {
            let lv = &scalars[tape.scalar_idx[s] as usize];
            if lv[1..lanes as usize].iter().any(|v| *v != lv[0]) {
                return false;
            }
        }
    }
    true
}

/// Clones lane 0's model state into every parked lane of extern `ext`,
/// turning a lane-coalesced instance into real per-lane models, and
/// marks everything dirty. Only ever
/// called while the uniformity invariant holds, which requires
/// [`ExternBehavior::snapshot_bytes`] support — so a failure here is a
/// snapshot-contract violation, not a recoverable condition.
fn fork_extern_lanes(
    models: &mut [Vec<Option<Box<dyn ExternBehavior>>>],
    ext: usize,
    lanes: u32,
    path: &str,
    dirty: &mut [bool],
) {
    dirty.fill(true);
    let bytes = models[ext][0]
        .as_ref()
        .and_then(|m| m.snapshot_bytes())
        .unwrap_or_else(|| {
            panic!("extern `{path}`: lane fork needs snapshot_bytes, which succeeded at bind")
        });
    for (lane, slot) in models[ext][1..lanes as usize].iter_mut().enumerate() {
        let ok = slot.as_mut().is_some_and(|m| m.restore_bytes(&bytes));
        assert!(
            ok,
            "extern `{path}`: lane {} rejected the snapshot its own type produced",
            lane + 1
        );
    }
}

/// [`PortSink`] over the plane arena: what an extern model writes lands
/// in one lane, or — for a lane-coalesced instance, whose single call
/// serves the whole batch — in every lane at once. Stores have the
/// reference's `assign_resized` semantics (the slot keeps its width).
/// Broadcast stores reach dead lanes too, which is harmless — nothing
/// reads them — and keeps uniform planes exactly all-zeros/all-ones.
/// A store that moves a live lane marks the slot's readers (a lane
/// scalar's always does).
struct LaneSink<'a> {
    tape: &'a SlicedTape,
    planes: &'a mut [u64],
    scalars: &'a mut [Vec<Bits>],
    dirty: &'a mut [bool],
    live: u64,
    /// `None` broadcasts to every lane.
    lane: Option<u32>,
}

impl LaneSink<'_> {
    /// Stores one value given as a bit predicate (exact slots) or as an
    /// in-place scalar assignment (inexact slots).
    fn store(&mut self, s: usize, bit: impl Fn(u32) -> bool, assign: impl Fn(&mut Bits)) {
        let tape = self.tape;
        let moved = if tape.exact[s] {
            let region = &mut self.planes[tape.plane_base[s] as usize..][..tape.widths[s] as usize];
            let mut moved = 0u64;
            for (j, p) in region.iter_mut().enumerate() {
                let old = *p;
                let set = bit(j as u32);
                match self.lane {
                    Some(lane) if set => *p |= 1u64 << lane,
                    Some(lane) => *p &= !(1u64 << lane),
                    None => *p = if set { u64::MAX } else { 0 },
                }
                moved |= old ^ *p;
            }
            moved & self.live != 0
        } else {
            let lanes = &mut self.scalars[tape.scalar_idx[s] as usize];
            match self.lane {
                Some(lane) => assign(&mut lanes[lane as usize]),
                None => lanes.iter_mut().for_each(assign),
            }
            true
        };
        if moved {
            tape.readers.mark(s, self.dirty);
        }
    }
}

impl PortSink for LaneSink<'_> {
    fn put_u64(&mut self, slot: usize, value: u64) {
        self.store(
            slot,
            |j| j < 64 && (value >> j) & 1 == 1,
            |b| b.set_from_u64(value),
        );
    }

    fn put(&mut self, slot: usize, value: &Bits) {
        self.store(slot, |j| value.bit(j), |b| b.assign_resized(value));
    }
}

/// Publishes every lane model's register-driven source outputs into the
/// planes through `sink`; a lane-coalesced instance publishes once for
/// the whole batch.
fn publish_lane_sources(
    sink: &mut LaneSink<'_>,
    externs: &[ExternInst],
    models: &mut [Vec<Option<Box<dyn ExternBehavior>>>],
    ext_uniform: &[bool],
    lanes: u32,
) {
    for (ei, e) in externs.iter().enumerate() {
        let calls = if ext_uniform[ei] { 1 } else { lanes };
        for lane in 0..calls {
            if let Some(model) = &mut models[ei][lane as usize] {
                sink.lane = (!ext_uniform[ei]).then_some(lane);
                model.source_outputs(&mut PortWriter::new(&e.source_output_slots, sink));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ModuleBuilder;

    #[test]
    fn transpose64_roundtrip_and_known_values() {
        let mut m = [0u64; 64];
        for (i, v) in m.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 40;
        }
        let orig = m;
        transpose64(&mut m);
        for (i, &row) in orig.iter().enumerate() {
            for (j, &col) in m.iter().enumerate() {
                assert_eq!(
                    (col >> i) & 1,
                    (row >> j) & 1,
                    "transpose mismatch at ({i},{j})"
                );
            }
        }
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    fn alu_circuit() -> Circuit {
        let mut mb = ModuleBuilder::new("Alu");
        let a = mb.input("a", 16);
        let b = mb.input("b", 16);
        let sum = mb.output("sum", 16);
        let diff = mb.output("diff", 16);
        let prod = mb.output("prod", 4);
        let lt = mb.output("lt", 1);
        let eq = mb.output("eq", 1);
        let acc = mb.reg("acc", 16, 1);
        mb.connect_sig(&acc, &acc.add(&a.xor(&b)));
        mb.connect_sig(&sum, &a.add(&b));
        mb.connect_sig(&diff, &a.sub(&b));
        mb.connect_sig(&prod, &a.bits(3, 0).mul(&b.bits(3, 0)));
        mb.connect_sig(&lt, &a.lt(&b));
        mb.connect_sig(&eq, &a.eq(&b));
        Circuit::from_modules("Alu", vec![mb.finish()], "Alu")
    }

    #[test]
    fn lanes_match_independent_reference_runs() {
        let circuit = alu_circuit();
        let lanes = 64u32;
        let mut sim = SlicedInterpreter::new(&circuit, lanes).unwrap();
        let mut refs: Vec<Interpreter> = (0..lanes)
            .map(|_| Interpreter::with_engine(&circuit, ExecEngine::Reference).unwrap())
            .collect();
        let mut s = 0x1234_5678_9ABC_DEF0u64;
        for _cycle in 0..20 {
            for lane in 0..lanes {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let av = (s >> 16) & 0xFFFF;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bv = (s >> 16) & 0xFFFF;
                sim.poke_u64(lane, "a", av).unwrap();
                sim.poke_u64(lane, "b", bv).unwrap();
                refs[lane as usize].poke_u64("a", av).unwrap();
                refs[lane as usize].poke_u64("b", bv).unwrap();
            }
            sim.step().unwrap();
            for r in &mut refs {
                r.step().unwrap();
            }
            sim.eval().unwrap();
            for r in &mut refs {
                r.eval().unwrap();
            }
            for lane in 0..lanes {
                let r = &refs[lane as usize];
                for p in ["sum", "diff", "prod", "lt", "eq", "acc"] {
                    assert_eq!(sim.peek(lane, p), *r.peek(p), "lane {lane} signal {p}");
                }
                assert_eq!(sim.lane_digest(lane), r.state_digest(), "lane {lane}");
            }
        }
    }

    #[test]
    fn poke_lanes_matches_individual_pokes() {
        let circuit = alu_circuit();
        let mut a = SlicedInterpreter::new(&circuit, 64).unwrap();
        let mut b = SlicedInterpreter::new(&circuit, 64).unwrap();
        let vals: Vec<u64> = (0..64u64)
            .map(|i| (i.wrapping_mul(0xDEAD_BEEF_CAFE_F00D) ^ (i << 59)) & 0xFFFF)
            .collect();
        a.poke_lanes_u64("a", &vals);
        a.poke_lanes_u64("b", &vals);
        for (lane, v) in vals.iter().enumerate() {
            b.poke_u64(lane as u32, "a", *v).unwrap();
            b.poke_u64(lane as u32, "b", *v).unwrap();
        }
        a.eval().unwrap();
        b.eval().unwrap();
        for lane in 0..64 {
            assert_eq!(a.lane_digest(lane), b.lane_digest(lane), "lane {lane}");
        }
    }

    #[test]
    fn padded_lanes_do_not_perturb_live_ones() {
        let circuit = alu_circuit();
        for lanes in [1u32, 5, 63] {
            let mut part = SlicedInterpreter::new(&circuit, lanes).unwrap();
            let mut full = SlicedInterpreter::new(&circuit, 64).unwrap();
            for c in 0..8u64 {
                for lane in 0..lanes {
                    let v = c.wrapping_mul(0x9E37).wrapping_add(u64::from(lane) << 3) & 0xFFFF;
                    part.poke_u64(lane, "a", v).unwrap();
                    part.poke_u64(lane, "b", !v & 0xFFFF).unwrap();
                    full.poke_u64(lane, "a", v).unwrap();
                    full.poke_u64(lane, "b", !v & 0xFFFF).unwrap();
                }
                part.step().unwrap();
                full.step().unwrap();
            }
            part.eval().unwrap();
            full.eval().unwrap();
            for lane in 0..lanes {
                assert_eq!(
                    part.lane_digest(lane),
                    full.lane_digest(lane),
                    "lanes={lanes}"
                );
            }
        }
    }

    #[test]
    fn lane_count_validated() {
        let circuit = alu_circuit();
        assert!(SlicedInterpreter::new(&circuit, 0).is_err());
        assert!(SlicedInterpreter::new(&circuit, 65).is_err());
        assert!(SlicedInterpreter::new(&circuit, 64).is_ok());
    }
}
