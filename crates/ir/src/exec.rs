//! Compiled levelized execution engine.
//!
//! This module maps the lowered netlist (`crate::lower`) onto a flat
//! instruction **tape**: one program per scheduled definition, laid out in
//! topological (levelized) order so a settle pass is a single linear sweep
//! with no recursion and no per-node heap traffic.
//!
//! Five ideas carry the speedup:
//!
//! * **A value arena** — every exact slot of at most 64 bits has a `u64`
//!   in one dense arena, laid out as `[slot values | constant pool |
//!   temporaries]`. Every lowered unit whose values all fit in 64 bits
//!   maps to instructions that name their operands by one `u32` index
//!   into it; all instructions live in one vector and a program is a
//!   range of it. A unit the lowering sends to the tree walker, or one
//!   with a value wider than 64 bits, runs on the tree-walking `CExpr`
//!   evaluator instead, preserving exact reference semantics including
//!   its documented panics.
//! * **Folded copies** — the lowering folds port connections out of the
//!   program it hands over, and every node that read one reads its view,
//!   so they cost nothing here; a resize to a value's own width emits
//!   nothing either. A folded copy's own slot is left stale: whatever
//!   observes it reads through the interpreter's view table.
//! * **Write-through** — the canonical [`Bits`] slots stay the
//!   interpreter's state. A narrow program stores into its slot
//!   ([`Bits::set_from_u64`], in place, no allocation) only when its
//!   arena value changed, and whatever else writes a narrow slot (tree
//!   programs, memory reads, extern models) refreshes the arena, so peeks,
//!   snapshots, externs and the other engines see exactly the slots the
//!   reference engine would leave.
//! * **Slot-indexed extern bindings** — extern behavioral models keep a
//!   persistent, name-sorted input buffer that is refreshed by zipping
//!   slot indices against the buffer entries, and write their outputs
//!   through a [`crate::PortWriter`] bound to the instance's slot table:
//!   no map is built in either direction.
//! * **Dirty-set skipping** — the lowering's reader rows (slot → reading
//!   positions) let the sweep skip definitions whose inputs did not
//!   change, and its copy counts keep the totals of the unfolded
//!   program. Slots written from outside the sweep (top inputs, extern source outputs, slots
//!   nothing drives) are *roots* compared at the start of each settle
//!   against the arena, which holds their last scanned value (wide ones
//!   keep a `Bits` copy); registers and memory writes mark their readers
//!   when they commit. Extern combinational programs and the writers the lowering
//!   forces (multi-writer slots, externally written slots) run every
//!   pass, so call counts and settle order match the reference engine
//!   exactly. The bit-sliced engine follows the same rules over planes.
//!
//! The tree-walking evaluator remains the golden model: the compiled
//! engine is validated bit-for-bit against it by differential proptests.

use crate::ast::{BinOp, UnOp};
use crate::bits::{low_mask as mask, Bits};
use crate::error::Result;
use crate::interp::{run_extern_comb, DefKind, Interpreter};
use crate::lower::{CopyCounts, Csr, Lowered, Op, Unit};
use std::collections::HashMap;

/// Selects how an [`Interpreter`] settles and latches each target cycle.
///
/// Both engines maintain the same canonical architectural state (value
/// slots, memories, extern models), so they can be switched at any cycle
/// boundary and produce bit-identical traces. The compiled tape and the
/// bit-sliced one (its own batched front end,
/// [`crate::slice::SlicedInterpreter`]) are both built from the one
/// lowered program of `crate::lower`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Flat levelized instruction tape with a word-packed `u64` fast path
    /// and dirty-set skipping — the default.
    #[default]
    Compiled,
    /// The original tree-walking evaluator, kept as the differential
    /// golden reference.
    Reference,
}

/// Cumulative settle-loop statistics, kept by both engines and read via
/// `Interpreter::exec_stats`. All counters are since elaboration (they
/// survive `reset`), so consumers sample them over time and difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Combinational settle passes (`eval` calls).
    pub settle_passes: u64,
    /// Definitions executed across all settle passes.
    pub defs_run: u64,
    /// Definitions the dirty-set scheduler skipped (compiled and
    /// bit-sliced engines; always 0 on the reference engine, which
    /// sweeps the full schedule).
    pub defs_skipped: u64,
}

impl ExecStats {
    /// Fraction of definitions skipped by dirty-set scheduling, in
    /// `[0, 1]` (0 before anything ran).
    pub fn dirty_skip_rate(&self) -> f64 {
        let total = self.defs_run + self.defs_skipped;
        if total == 0 {
            return 0.0;
        }
        self.defs_skipped as f64 / total as f64
    }
}

/// One arena instruction: reads operands `vals[a]`, `vals[b]`, … and
/// writes `vals[dst]`. Every operator has its own opcode, so executing an
/// instruction is one dispatch; masks are precomputed at compile time and
/// every value in the arena is already truncated to its width.
#[derive(Debug, Clone, Copy)]
enum FOp {
    Add {
        a: u32,
        b: u32,
        mask: u64,
        dst: u32,
    },
    Sub {
        a: u32,
        b: u32,
        mask: u64,
        dst: u32,
    },
    Mul {
        a: u32,
        b: u32,
        mask: u64,
        dst: u32,
    },
    /// Division and remainder by zero yield zero.
    Div {
        a: u32,
        b: u32,
        dst: u32,
    },
    Rem {
        a: u32,
        b: u32,
        dst: u32,
    },
    And {
        a: u32,
        b: u32,
        dst: u32,
    },
    Or {
        a: u32,
        b: u32,
        dst: u32,
    },
    Xor {
        a: u32,
        b: u32,
        dst: u32,
    },
    Eq {
        a: u32,
        b: u32,
        dst: u32,
    },
    Neq {
        a: u32,
        b: u32,
        dst: u32,
    },
    Lt {
        a: u32,
        b: u32,
        dst: u32,
    },
    Leq {
        a: u32,
        b: u32,
        dst: u32,
    },
    Gt {
        a: u32,
        b: u32,
        dst: u32,
    },
    Geq {
        a: u32,
        b: u32,
        dst: u32,
    },
    /// Bitwise NOT at the operand's width.
    Not {
        a: u32,
        mask: u64,
        dst: u32,
    },
    RedOr {
        a: u32,
        dst: u32,
    },
    /// AND-reduction: `a == full`, the operand's all-ones.
    RedAnd {
        a: u32,
        full: u64,
        dst: u32,
    },
    RedXor {
        a: u32,
        dst: u32,
    },
    /// `if c != 0 { t } else { f }`; arms have equal widths.
    Mux {
        c: u32,
        t: u32,
        f: u32,
        dst: u32,
    },
    /// `(hi << shift) | lo` with `shift < 64`; the total width fits.
    Cat {
        hi: u32,
        lo: u32,
        shift: u32,
        dst: u32,
    },
    /// `(a >> lo) & mask`.
    Extract {
        a: u32,
        lo: u32,
        mask: u64,
        dst: u32,
    },
    /// Truncate or zero-extend: `a & mask` (a copy when `mask` is all
    /// ones, the constant 0 when it is 0).
    Resize {
        a: u32,
        mask: u64,
        dst: u32,
    },
    /// `(a << n) & mask` with `n < 64`.
    Shl {
        a: u32,
        n: u32,
        mask: u64,
        dst: u32,
    },
    /// `a >> n` with `n < 64`.
    Shr {
        a: u32,
        n: u32,
        dst: u32,
    },
}

/// Runs `ops` over the arena.
#[inline(always)]
fn run(ops: &[FOp], v: &mut [u64]) {
    for op in ops {
        let (dst, x) = match *op {
            FOp::Add { a, b, mask, dst } => (dst, v[a as usize].wrapping_add(v[b as usize]) & mask),
            FOp::Sub { a, b, mask, dst } => (dst, v[a as usize].wrapping_sub(v[b as usize]) & mask),
            FOp::Mul { a, b, mask, dst } => (dst, v[a as usize].wrapping_mul(v[b as usize]) & mask),
            FOp::Div { a, b, dst } => (dst, v[a as usize].checked_div(v[b as usize]).unwrap_or(0)),
            FOp::Rem { a, b, dst } => (dst, v[a as usize].checked_rem(v[b as usize]).unwrap_or(0)),
            FOp::And { a, b, dst } => (dst, v[a as usize] & v[b as usize]),
            FOp::Or { a, b, dst } => (dst, v[a as usize] | v[b as usize]),
            FOp::Xor { a, b, dst } => (dst, v[a as usize] ^ v[b as usize]),
            FOp::Eq { a, b, dst } => (dst, u64::from(v[a as usize] == v[b as usize])),
            FOp::Neq { a, b, dst } => (dst, u64::from(v[a as usize] != v[b as usize])),
            FOp::Lt { a, b, dst } => (dst, u64::from(v[a as usize] < v[b as usize])),
            FOp::Leq { a, b, dst } => (dst, u64::from(v[a as usize] <= v[b as usize])),
            FOp::Gt { a, b, dst } => (dst, u64::from(v[a as usize] > v[b as usize])),
            FOp::Geq { a, b, dst } => (dst, u64::from(v[a as usize] >= v[b as usize])),
            FOp::Not { a, mask, dst } => (dst, !v[a as usize] & mask),
            FOp::RedOr { a, dst } => (dst, u64::from(v[a as usize] != 0)),
            FOp::RedAnd { a, full, dst } => (dst, u64::from(v[a as usize] == full)),
            FOp::RedXor { a, dst } => (dst, u64::from(v[a as usize].count_ones() % 2 == 1)),
            FOp::Mux { c, t, f, dst } => (
                dst,
                if v[c as usize] != 0 {
                    v[t as usize]
                } else {
                    v[f as usize]
                },
            ),
            FOp::Cat { hi, lo, shift, dst } => (dst, (v[hi as usize] << shift) | v[lo as usize]),
            FOp::Extract { a, lo, mask, dst } => (dst, (v[a as usize] >> lo) & mask),
            FOp::Resize { a, mask, dst } => (dst, v[a as usize] & mask),
            FOp::Shl { a, n, mask, dst } => (dst, (v[a as usize] << n) & mask),
            FOp::Shr { a, n, dst } => (dst, v[a as usize] >> n),
        };
        v[dst as usize] = x;
    }
}

/// The compiled form of one definition of the folded program. Narrow
/// programs are the instruction range `ops[start..end]`, whose result is
/// `vals[out]`.
#[derive(Debug, Clone, Copy)]
enum Program {
    /// Word-packed expression: store `vals[out]` into `slot`.
    Narrow {
        start: u32,
        end: u32,
        out: u32,
        slot: u32,
    },
    /// Word-packed memory read: the range computes the address
    /// `vals[addr]`; store entry `addr` of memory `mem` into `slot`.
    NarrowMem {
        start: u32,
        end: u32,
        addr: u32,
        mem: u32,
        slot: u32,
    },
    /// Fall back to the tree-walking evaluator for definition `di`.
    Tree { di: u32 },
    /// Extern combinational model call for definition `di` (always run).
    Extern { di: u32 },
}

/// The compiled form of one register update or memory write port, run at
/// `tick` in the reference engine's order (registers, then ports).
#[derive(Debug, Clone, Copy)]
enum Latch {
    /// Word-packed register: its next value is `vals[out]`, already
    /// masked to the register's width.
    Reg {
        start: u32,
        end: u32,
        out: u32,
        slot: u32,
    },
    /// Tree-walk `regs[ri].next` like the reference engine.
    RegTree { ri: u32 },
    /// Word-packed write port of a memory at most 64 bits wide: enable,
    /// address and data are `vals[en]`, `vals[addr]`, `vals[data]`;
    /// `dmask` truncates the data to the memory width.
    MemWrite {
        start: u32,
        end: u32,
        en: u32,
        addr: u32,
        data: u32,
        mi: u32,
        dmask: u64,
    },
    /// Tree-walk port `port` of memory `mi`.
    MemWriteTree { mi: u32, port: u32 },
}

/// Pending memory write value awaiting commit (kept in port order).
#[derive(Debug)]
enum PendVal {
    N(u64),
    W(Bits),
}

/// The size of a compiled tape, from [`Interpreter::tape_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeShape {
    /// Programs the settle sweep visits.
    pub programs: usize,
    /// Port-connection copies the lowering folded out of the program:
    /// their readers read the copy's view instead.
    pub folded_copies: usize,
    /// Word-packed instructions of every program and latch.
    pub instructions: usize,
    /// Register updates and memory write ports.
    pub latches: usize,
}

impl std::fmt::Display for TapeShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} programs + {} folded copies, {} instructions, {} latches",
            self.programs, self.folded_copies, self.instructions, self.latches
        )
    }
}

/// The compiled execution state attached to an [`Interpreter`].
///
/// Everything in here is derived from the interpreter's architectural
/// state: snapshots never capture the tape, and any external state change
/// (reset, snapshot restore, engine switch) simply sets [`Tape::force_all`],
/// which reloads the arena from the slots and runs every program.
#[derive(Debug)]
pub(crate) struct Tape {
    /// Every narrow instruction of every program and latch.
    ops: Vec<FOp>,
    /// One program per position of the folded program.
    programs: Vec<Program>,
    /// Register updates then memory write ports.
    latches: Vec<Latch>,
    /// `[slot values | constant pool | temporaries]`; the entry of a slot
    /// outside the arena (wide, of dynamic width, or a folded copy) is
    /// never read.
    vals: Vec<u64>,
    /// Positions to run this settle pass.
    dirty: Vec<bool>,
    /// Positions that must run every pass (externs, multi-writer slots,
    /// writers of externally written slots).
    always_dirty: Vec<bool>,
    /// slot → positions reading it.
    fanout: Csr,
    /// memory → positions reading it.
    mem_users: Csr,
    /// The folded copies each position's run counts.
    copies: CopyCounts,
    /// Non-register roots held in the arena, which holds their value as
    /// of the last scan.
    roots: Vec<u32>,
    /// Non-register roots outside the arena, each with its last scanned
    /// value.
    wide_roots: Vec<(u32, Bits)>,
    /// Commits awaiting the end of the latch: register slot and value.
    pending_narrow: Vec<(u32, u64)>,
    pending_wide: Vec<(u32, Bits)>,
    pending_mems: Vec<(u32, u32, PendVal)>,
    /// Reload the arena and run everything next pass.
    pub(crate) force_all: bool,
}

/// Maps lowered nodes to arena instructions, one program at a time.
struct Emitter<'p, 'a> {
    prog: &'p Lowered<'a>,
    /// Literal value → its arena index in the constant pool.
    consts: HashMap<u64, u32>,
    /// Arena index of temporary 0. Temporaries are program-local and the
    /// region is shared by every program.
    tmp_base: u32,
    ops: Vec<FOp>,
    /// Per node: the arena index of its value, once emitted.
    at: Vec<u32>,
    /// Temporaries used by the program being emitted.
    ntmp: u32,
    /// The most any program used: the size of the temporary region.
    max_tmp: u32,
}

impl Emitter<'_, '_> {
    /// Allocates a program-local temporary.
    fn tmp(&mut self) -> u32 {
        self.ntmp += 1;
        self.max_tmp = self.max_tmp.max(self.ntmp);
        self.tmp_base + self.ntmp - 1
    }

    /// The arena index of node `i`'s value.
    fn val(&self, i: u32) -> u32 {
        self.at[i as usize]
    }

    /// Emits `unit`, which the lowering packs ([`Lowered::packs`]), as one
    /// program, then `body`, which may add to it. Returns `(start, end,
    /// body's result)`.
    fn program<T>(&mut self, unit: &Unit, body: impl FnOnce(&mut Self) -> T) -> (u32, u32, T) {
        let start = self.ops.len() as u32;
        self.ntmp = 0;
        for i in unit.lo..unit.hi {
            self.at[i as usize] = self.node(i);
        }
        let out = body(self);
        (start, self.ops.len() as u32, out)
    }

    /// Emits node `i`; returns the arena index of its value.
    fn node(&mut self, i: u32) -> u32 {
        let prog = self.prog;
        let width = |j| {
            prog.width_of(j)
                .expect("a packed unit's nodes have static widths")
        };
        let w = width(i);
        match prog.nodes[i as usize].op {
            Op::Lit(b) => return self.consts[&b.to_u64()],
            Op::Slot(s) => return s as u32,
            // Arena values are already masked to their width.
            Op::Resize(a, _) if width(a) == w => return self.val(a),
            Op::Cat(lo, hi) => {
                let Some((&first, rest)) = prog.args[lo as usize..hi as usize].split_first() else {
                    return self.consts[&0];
                };
                let mut acc = self.val(first);
                for &p in rest {
                    let (hi, lo, shift, dst) = (acc, self.val(p), width(p), self.tmp());
                    self.ops.push(if shift == 64 {
                        // Only a zero-width high part can sit above a
                        // 64-bit low part.
                        FOp::Resize {
                            a: lo,
                            mask: u64::MAX,
                            dst,
                        }
                    } else {
                        FOp::Cat { hi, lo, shift, dst }
                    });
                    acc = dst;
                }
                return acc;
            }
            _ => {}
        }
        let (mask, dst) = (mask(w), self.tmp());
        let v = |j| self.val(j);
        let op = match prog.nodes[i as usize].op {
            Op::Unary(UnOp::Not, a) => FOp::Not { a: v(a), mask, dst },
            Op::Unary(UnOp::OrReduce, a) => FOp::RedOr { a: v(a), dst },
            // reduce_and of a zero-width value is defined as 0.
            Op::Unary(UnOp::AndReduce, a) if width(a) == 0 => FOp::Resize {
                a: v(a),
                mask: 0,
                dst,
            },
            Op::Unary(UnOp::AndReduce, a) => FOp::RedAnd {
                a: v(a),
                full: crate::bits::low_mask(width(a)),
                dst,
            },
            Op::Unary(UnOp::XorReduce, a) => FOp::RedXor { a: v(a), dst },
            Op::Binary(op, a, b) => {
                let (a, b) = (v(a), v(b));
                match op {
                    BinOp::Add => FOp::Add { a, b, mask, dst },
                    BinOp::Sub => FOp::Sub { a, b, mask, dst },
                    BinOp::Mul => FOp::Mul { a, b, mask, dst },
                    BinOp::Div => FOp::Div { a, b, dst },
                    BinOp::Rem => FOp::Rem { a, b, dst },
                    BinOp::And => FOp::And { a, b, dst },
                    BinOp::Or => FOp::Or { a, b, dst },
                    BinOp::Xor => FOp::Xor { a, b, dst },
                    BinOp::Eq => FOp::Eq { a, b, dst },
                    BinOp::Neq => FOp::Neq { a, b, dst },
                    BinOp::Lt => FOp::Lt { a, b, dst },
                    BinOp::Leq => FOp::Leq { a, b, dst },
                    BinOp::Gt => FOp::Gt { a, b, dst },
                    BinOp::Geq => FOp::Geq { a, b, dst },
                }
            }
            Op::Mux(c, t, f) => FOp::Mux {
                c: v(c),
                t: v(t),
                f: v(f),
                dst,
            },
            Op::Extract(a, _, lo) => FOp::Extract {
                a: v(a),
                lo,
                mask,
                dst,
            },
            Op::Resize(a, _) => FOp::Resize { a: v(a), mask, dst },
            Op::Shl(a, n) | Op::Shr(a, n) if n >= 64 => FOp::Resize {
                a: v(a),
                mask: 0,
                dst,
            },
            Op::Shl(a, n) => FOp::Shl {
                a: v(a),
                n,
                mask,
                dst,
            },
            Op::Shr(a, n) => FOp::Shr { a: v(a), n, dst },
            Op::Lit(_) | Op::Slot(_) | Op::Cat(..) => unreachable!("handled above"),
        };
        self.ops.push(op);
        dst
    }
}

impl Tape {
    /// Maps the lowered netlist onto a tape. Pure function of the
    /// interpreter's structure; the first settle pass runs everything.
    pub(crate) fn build(interp: &Interpreter, prog: Lowered) -> Tape {
        let n_slots = interp.slots.len();

        // The constant pool sits between the slots and the temporaries,
        // so it is interned before anything is emitted.
        let mut pool = vec![0u64];
        let mut consts = HashMap::from([(0u64, n_slots as u32)]);
        for n in &prog.nodes {
            if let Op::Lit(b) = n.op {
                if b.width().get() <= 64 {
                    consts.entry(b.to_u64()).or_insert_with(|| {
                        pool.push(b.to_u64());
                        (n_slots + pool.len() - 1) as u32
                    });
                }
            }
        }

        let mut em = Emitter {
            prog: &prog,
            consts,
            tmp_base: (n_slots + pool.len()) as u32,
            ops: Vec::new(),
            at: vec![0; prog.nodes.len()],
            ntmp: 0,
            max_tmp: 0,
        };
        let mut programs = Vec::with_capacity(prog.order.len());
        for (pos, &di) in prog.order.iter().enumerate() {
            let (d, unit) = (&interp.defs[di], &prog.defs[di]);
            programs.push(match d.kind {
                DefKind::ExternComb { .. } => Program::Extern { di: di as u32 },
                // Writers that must run every pass stay on the tree walker.
                _ if !prog.packs_def(interp, di, prog.always[pos]) => {
                    Program::Tree { di: di as u32 }
                }
                DefKind::MemRead { mem, .. } => {
                    let (start, end, addr) = em.program(unit, |em| em.val(unit.root()));
                    Program::NarrowMem {
                        start,
                        end,
                        addr,
                        mem: mem as u32,
                        slot: d.writes[0] as u32,
                    }
                }
                DefKind::Expr(_) => {
                    let (start, end, out) = em.program(unit, |em| em.val(unit.root()));
                    Program::Narrow {
                        start,
                        end,
                        out,
                        slot: d.writes[0] as u32,
                    }
                }
            });
        }

        // Roots: slots with no writer definition plus every externally
        // written slot. Registers are left out: they change only when a
        // tick commits them, and the commit marks their readers. The
        // arena holds the exact slots of at most 64 bits: reading any
        // other slot word-packed would bake in a width the reference
        // engine varies at run time, or not fit.
        let mut is_reg = vec![false; n_slots];
        for r in &interp.regs {
            is_reg[r.slot] = true;
        }
        let (mut roots, mut wide_roots) = (Vec::new(), Vec::new());
        for (s, b) in interp.slots.iter().enumerate() {
            if (prog.writer_count[s] == 0 || prog.external[s]) && !is_reg[s] {
                if prog.exact[s] && prog.widths[s] <= 64 {
                    roots.push(s as u32);
                } else {
                    wide_roots.push((s as u32, b.clone()));
                }
            }
        }

        let mut latches = Vec::new();
        for &(ri, next) in &prog.regs {
            let slot = interp.regs[ri].slot;
            let w = prog.widths[slot];
            latches.push(if prog.packs(&next, w) {
                let (start, end, out) = em.program(&next, |em| {
                    // The commit's resize, the identity at the value's
                    // own width.
                    let a = em.val(next.root());
                    if prog.width_of(next.root()) == Some(w) {
                        return a;
                    }
                    let dst = em.tmp();
                    em.ops.push(FOp::Resize {
                        a,
                        mask: mask(w),
                        dst,
                    });
                    dst
                });
                Latch::Reg {
                    start,
                    end,
                    out,
                    slot: slot as u32,
                }
            } else {
                Latch::RegTree { ri: ri as u32 }
            });
        }
        for port in &prog.ports {
            let (mi, mw) = (port.mem as u32, interp.mems[port.mem].width.get());
            latches.push(if prog.packs(&port.unit, mw) {
                let (start, end, (en, addr, data)) = em.program(&port.unit, |em| {
                    (em.val(port.en), em.val(port.addr), em.val(port.unit.root()))
                });
                // The commit's resize is `dmask`.
                Latch::MemWrite {
                    start,
                    end,
                    en,
                    addr,
                    data,
                    mi,
                    dmask: mask(mw),
                }
            } else {
                let port = port.port as u32;
                Latch::MemWriteTree { mi, port }
            });
        }

        let mut vals: Vec<u64> = interp.slots.iter().map(Bits::to_u64).collect();
        vals.extend(&pool);
        vals.resize(vals.len() + em.max_tmp as usize, 0);
        // Register next-values read slots too, but latches always run.
        let n_pos = programs.len() as u32;
        Tape {
            ops: em.ops,
            dirty: vec![false; programs.len()],
            programs,
            latches,
            vals,
            fanout: prog.readers.renumber(|p| (p < n_pos).then_some(p)),
            always_dirty: prog.always,
            mem_users: prog.mem_readers,
            copies: prog.copies,
            roots,
            wide_roots,
            pending_narrow: Vec::new(),
            pending_wide: Vec::new(),
            pending_mems: Vec::new(),
            force_all: true,
        }
    }

    /// Reloads every slot's arena value and every wide root's last
    /// scanned value from the canonical slots.
    fn reload(&mut self, slots: &[Bits]) {
        for (v, b) in self.vals.iter_mut().zip(slots) {
            *v = b.to_u64();
        }
        for (s, last) in &mut self.wide_roots {
            last.clone_from(&slots[*s as usize]);
        }
    }

    /// Settles combinational logic: the compiled counterpart of the
    /// reference engine's schedule sweep.
    pub(crate) fn eval(&mut self, interp: &mut Interpreter) -> Result<()> {
        let slots = &mut interp.slots;
        let all = self.force_all;
        if all {
            self.reload(slots);
            self.dirty.fill(true);
            self.force_all = false;
        }
        let Tape {
            ops,
            programs,
            vals,
            dirty,
            always_dirty,
            fanout,
            copies,
            roots,
            wide_roots,
            ..
        } = self;
        for &s in roots.iter() {
            let cur = slots[s as usize].to_u64();
            if cur != vals[s as usize] {
                vals[s as usize] = cur;
                fanout.mark(s as usize, dirty);
            }
        }
        for (s, last) in wide_roots.iter_mut() {
            let cur = &slots[*s as usize];
            if cur != &*last {
                last.clone_from(cur);
                fanout.mark(*s as usize, dirty);
            }
        }

        let mut defs_run: u64 = 0;
        for pos in 0..programs.len() {
            if !dirty[pos] {
                continue;
            }
            defs_run += 1;
            dirty[pos] = always_dirty[pos];
            let (s, v) = match programs[pos] {
                Program::Narrow {
                    start,
                    end,
                    out,
                    slot,
                } => {
                    run(&ops[start as usize..end as usize], vals);
                    (slot as usize, vals[out as usize])
                }
                Program::NarrowMem {
                    start,
                    end,
                    addr,
                    mem,
                    slot,
                } => {
                    run(&ops[start as usize..end as usize], vals);
                    let a = vals[addr as usize] as usize;
                    let v = interp.mems[mem as usize]
                        .data
                        .get(a)
                        .map_or(0, Bits::to_u64);
                    (slot as usize, v)
                }
                Program::Tree { di } => {
                    let def = &interp.defs[di as usize];
                    let v = match &def.kind {
                        DefKind::Expr(e) => e.eval(slots),
                        DefKind::MemRead { mem, addr } => {
                            let a = addr.eval(slots).to_u64() as usize;
                            let m = &interp.mems[*mem];
                            m.data
                                .get(a)
                                .cloned()
                                .unwrap_or_else(|| Bits::zero(m.width))
                        }
                        DefKind::ExternComb { .. } => {
                            unreachable!("extern defs use Program::Extern")
                        }
                    };
                    let s = def.writes[0];
                    let changed = slots[s] != v;
                    if changed {
                        vals[s] = v.to_u64();
                        slots[s] = v;
                        fanout.mark(s, dirty);
                    }
                    defs_run += copies.run(pos, changed || all);
                    continue;
                }
                Program::Extern { di } => {
                    let def = &interp.defs[di as usize];
                    let DefKind::ExternComb { ext } = &def.kind else {
                        unreachable!("Program::Extern wraps an extern def")
                    };
                    let e = &mut interp.externs[*ext];
                    // `Interpreter::eval` checked every model is bound.
                    run_extern_comb(slots, e, |s, changed| {
                        if changed {
                            fanout.mark(s, dirty);
                        }
                    })?;
                    for (_, s) in &e.sink_output_slots {
                        vals[*s] = slots[*s].to_u64();
                    }
                    continue;
                }
            };
            let changed = vals[s] != v;
            if changed {
                vals[s] = v;
                slots[s].set_from_u64(v);
                fanout.mark(s, dirty);
            }
            defs_run += copies.run(pos, changed || all);
        }
        interp.stats.settle_passes += 1;
        interp.stats.defs_run += defs_run;
        interp.stats.defs_skipped += interp.schedule.len() as u64 - defs_run;
        Ok(())
    }

    /// The tape's size: programs, folded copies, instructions, latches.
    pub(crate) fn shape(&self) -> TapeShape {
        TapeShape {
            programs: self.programs.len(),
            folded_copies: self.copies.total(),
            instructions: self.ops.len(),
            latches: self.latches.len(),
        }
    }

    /// Latches registers, applies memory writes, ticks extern models, and
    /// publishes source outputs — the compiled counterpart of the
    /// reference engine's `tick`, in the same commit order.
    pub(crate) fn tick(&mut self, interp: &mut Interpreter) {
        let slots = &mut interp.slots;
        // The latches read the arena, so it must hold what the reference
        // engine's latch would read from the slots: after an out-of-band
        // change, everything; otherwise any input poked since `eval`.
        // The readers of a re-read root are marked for the next settle,
        // as its own root scan would have.
        if self.force_all {
            self.reload(slots);
        }
        let Tape {
            ops,
            latches,
            vals,
            dirty,
            fanout,
            mem_users,
            roots,
            pending_narrow,
            pending_wide,
            pending_mems,
            ..
        } = self;
        for &s in roots.iter() {
            let cur = slots[s as usize].to_u64();
            if cur != vals[s as usize] {
                vals[s as usize] = cur;
                fanout.mark(s as usize, dirty);
            }
        }

        for latch in latches.iter() {
            match *latch {
                Latch::Reg {
                    start,
                    end,
                    out,
                    slot,
                } => {
                    run(&ops[start as usize..end as usize], vals);
                    pending_narrow.push((slot, vals[out as usize]));
                }
                Latch::RegTree { ri } => {
                    let r = &interp.regs[ri as usize];
                    let e = r.next.as_ref().expect("RegTree has a next expression");
                    let w = slots[r.slot].width();
                    pending_wide.push((r.slot as u32, e.eval(slots).resize(w)));
                }
                Latch::MemWrite {
                    start,
                    end,
                    en,
                    addr,
                    data,
                    mi,
                    dmask,
                } => {
                    run(&ops[start as usize..end as usize], vals);
                    if vals[en as usize] != 0 {
                        let a = vals[addr as usize];
                        if (a as usize) < interp.mems[mi as usize].data.len() {
                            let v = vals[data as usize] & dmask;
                            pending_mems.push((mi, a as u32, PendVal::N(v)));
                        }
                    }
                }
                Latch::MemWriteTree { mi, port } => {
                    let m = &interp.mems[mi as usize];
                    let (addr, data, en) = &m.writes[port as usize];
                    if !en.eval(slots).is_zero() {
                        let a = addr.eval(slots).to_u64() as usize;
                        if a < m.data.len() {
                            let v = data.eval(slots).resize(m.width);
                            pending_mems.push((mi, a as u32, PendVal::W(v)));
                        }
                    }
                }
            }
        }

        for e in interp.externs.iter_mut() {
            crate::interp::sync_extern_inputs(slots, e);
            if let Some(model) = &mut e.model {
                model.tick(&e.inputs_buf);
            }
        }

        // A committed register's copies keep the old value until the next
        // settle runs its shadow, as on the reference engine.
        for (s, v) in pending_narrow.drain(..) {
            let s = s as usize;
            if vals[s] != v {
                vals[s] = v;
                slots[s].set_from_u64(v);
                fanout.mark(s, dirty);
            }
        }
        for (s, b) in pending_wide.drain(..) {
            let s = s as usize;
            if slots[s] != b {
                vals[s] = b.to_u64();
                slots[s] = b;
                fanout.mark(s, dirty);
            }
        }
        for (mi, a, v) in pending_mems.drain(..) {
            let cell = &mut interp.mems[mi as usize].data[a as usize];
            match v {
                PendVal::N(x) => cell.set_from_u64(x),
                PendVal::W(b) => *cell = b,
            }
            mem_users.mark(mi as usize, dirty);
        }

        crate::interp::publish_sources(slots, &mut interp.externs);
        interp.cycle += 1;
    }
}
