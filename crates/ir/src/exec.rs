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
//! * **Folded copies** — a resize to a value's own width emits nothing,
//!   so a port connection `y <= x` (a plain copy in the lowered program)
//!   maps to no instruction; chains of such copies leave the program
//!   list, and whatever read a copy reads its view instead, the slot
//!   heading the chain or that head's one shadow (see `Folds`).
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
//!   schedule positions), renumbered past the folded copies, let the
//!   sweep skip definitions whose inputs did not change. Slots written
//!   from outside the sweep (top inputs, extern source outputs, slots
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
use crate::lower::{Copies, Csr, Lowered, Op, Unit, NO_COPY};
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

/// Marks a program, latch or root whose slot heads no folded copies.
const NO_HEAD: u32 = u32::MAX;

/// The compiled form of one scheduled definition. Narrow programs are the
/// instruction range `ops[start..end]`, whose result is `vals[out]`.
/// `head` names the fold head ([`Folds`]) of the written slot, or is
/// [`NO_HEAD`].
#[derive(Debug, Clone, Copy)]
enum Program {
    /// Word-packed expression: store `vals[out]` into `slot`.
    Narrow {
        start: u32,
        end: u32,
        out: u32,
        slot: u32,
        head: u32,
    },
    /// Word-packed memory read: the range computes the address
    /// `vals[addr]`; store entry `addr` of memory `mem` into `slot`.
    NarrowMem {
        start: u32,
        end: u32,
        addr: u32,
        mem: u32,
        slot: u32,
        head: u32,
    },
    /// Fall back to the tree-walking evaluator for definition `di`.
    Tree { di: u32, head: u32 },
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
        head: u32,
    },
    /// Tree-walk `regs[ri].next` like the reference engine.
    RegTree { ri: u32, head: u32 },
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

/// Port-connection copies folded out of the program list
/// ([`crate::lower::Copies`]).
///
/// No instruction reads a folded copy: each reads the copy's *view*
/// instead, the inner head itself or the outer head's shadow (its first
/// copy), and every copy holds its view's value at every observation
/// point (the view invariant), so observation reads through the same
/// view table. Only two kinds of copy keep a live slot. An outer head's
/// shadow holds the head's value as of the last settle: the settle after
/// the head moved writes it and marks one merged reader row for all the
/// head's copies. An *eager* copy is one the tree walker or an extern
/// model reads straight out of the slots; it is written whenever its
/// head moves.
#[derive(Debug)]
struct Folds {
    /// Per head: its slot. Heads `0..shadow.len()` (outer heads) change
    /// outside the sweep (roots, registers); the rest are program outputs.
    slot: Vec<u32>,
    /// Per outer head: its shadow.
    shadow: Vec<u32>,
    /// Per head: how many copies it heads, and how many of those read
    /// the head itself.
    copies: Vec<u32>,
    direct: Vec<u32>,
    /// Row `h`: head `h`'s eager copies, its shadow left out.
    eager: Csr,
}

impl Folds {
    /// Brings outer head `h`'s shadow and eager copies up to the head if
    /// it moved since the last settle (or `all`), marking the readers of
    /// every copy. Returns how many copies that counts as running: all of
    /// them when the head moved, else those that read the head itself.
    #[inline]
    fn settle_outer(
        &self,
        h: usize,
        all: bool,
        vals: &mut [u64],
        slots: &mut [Bits],
        fanout: &Csr,
        dirty: &mut [bool],
    ) -> u64 {
        let (head, shadow) = (self.slot[h] as usize, self.shadow[h] as usize);
        let v = vals[head];
        if !all && vals[shadow] == v {
            return u64::from(self.direct[h]);
        }
        vals[shadow] = v;
        slots[shadow].set_from_u64(v);
        fanout.mark(shadow, dirty);
        self.spread(h, v, slots)
    }

    /// Writes `v`, head `h`'s value, into its eager copies; returns how
    /// many copies `h` heads.
    #[inline]
    fn spread(&self, h: usize, v: u64, slots: &mut [Bits]) -> u64 {
        for &y in self.eager.row(h) {
            slots[y as usize].set_from_u64(v);
        }
        u64::from(self.copies[h])
    }
}

/// Outer fold heads that changed since the last settle, each listed once.
#[derive(Debug)]
struct Deferred {
    heads: Vec<u32>,
    queued: Vec<bool>,
}

impl Deferred {
    #[inline]
    fn push(&mut self, h: u32) {
        if h != NO_HEAD && !self.queued[h as usize] {
            self.queued[h as usize] = true;
            self.heads.push(h);
        }
    }
}

/// The size of a compiled tape, from [`Interpreter::tape_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeShape {
    /// Programs the settle sweep visits.
    pub programs: usize,
    /// Port-connection copies folded out of the program list: their
    /// readers read the copy's view instead.
    pub folded_copies: usize,
    /// Folded copies that hold an outer head's value as of the last
    /// settle (one per register, input or other slot written outside
    /// the sweep that heads copies).
    pub shadows: usize,
    /// Folded copies, shadows left out, still written whenever their
    /// head moves: the tree walker or an extern model reads them.
    pub eager_copies: usize,
    /// Word-packed instructions of every program and latch.
    pub instructions: usize,
    /// Register updates and memory write ports.
    pub latches: usize,
}

impl std::fmt::Display for TapeShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} programs + {} folded copies ({} shadows, {} eager), {} instructions, {} latches",
            self.programs,
            self.folded_copies,
            self.shadows,
            self.eager_copies,
            self.instructions,
            self.latches
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
    /// One program per schedule position, in schedule order.
    programs: Vec<Program>,
    /// Register updates then memory write ports.
    latches: Vec<Latch>,
    /// `[slot values | constant pool | temporaries]`; the entry of a slot
    /// outside the arena (wide, or of dynamic width) is never read.
    vals: Vec<u64>,
    /// Positions to run this settle pass.
    dirty: Vec<bool>,
    /// Positions that must run every pass (externs, multi-writer slots,
    /// writers of externally written slots).
    always_dirty: Vec<bool>,
    /// view slot → tape positions reading it or any slot it is the
    /// view of.
    fanout: Csr,
    /// memory → tape positions reading it.
    mem_users: Csr,
    folds: Folds,
    /// Outer heads whose copies the next settle brings up to date.
    deferred: Deferred,
    /// Non-register roots held in the arena, which holds their value as
    /// of the last scan, each with its fold head.
    roots: Vec<(u32, u32)>,
    /// Non-register roots outside the arena, each with its last scanned
    /// value.
    wide_roots: Vec<(u32, Bits)>,
    /// Register commits awaiting the end of the latch: slot, value, head.
    pending_narrow: Vec<(u32, u64, u32)>,
    pending_wide: Vec<(u32, Bits, u32)>,
    pending_mems: Vec<(u32, u32, PendVal)>,
    /// Reload the arena, run everything next pass, refresh all shadows.
    pub(crate) force_all: bool,
}

/// Maps lowered nodes to arena instructions, one program at a time.
struct Emitter<'p, 'a> {
    prog: &'p Lowered<'a>,
    /// Per slot: the arena index a read of it names (its view).
    view: &'p [u32],
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

    /// Emits `unit` as one program, then `body`, which may add to it.
    /// Returns `(start, end, body's result)`, or `None` with nothing
    /// emitted when the unit falls back or any of its values is wider
    /// than 64 bits.
    fn program<T>(
        &mut self,
        unit: &Unit,
        body: impl FnOnce(&mut Self) -> T,
    ) -> Option<(u32, u32, T)> {
        if unit.fallback.is_some() {
            return None;
        }
        let start = self.ops.len();
        self.ntmp = 0;
        for i in unit.lo..unit.hi {
            let Some(v) = self.node(i) else {
                self.ops.truncate(start);
                return None;
            };
            self.at[i as usize] = v;
        }
        let out = body(self);
        Some((start as u32, self.ops.len() as u32, out))
    }

    /// Emits node `i`; returns the arena index of its value.
    fn node(&mut self, i: u32) -> Option<u32> {
        let prog = self.prog;
        let w = prog.width_of(i).filter(|&w| w <= 64)?;
        let width = |j| {
            prog.width_of(j)
                .expect("operands of a lowered node have static widths")
        };
        match prog.nodes[i as usize].op {
            Op::Lit(b) => return Some(self.consts[&b.to_u64()]),
            Op::Slot(s) => return Some(self.view[s]),
            // Arena values are already masked to their width.
            Op::Resize(a, _) if width(a) == w => return Some(self.val(a)),
            Op::Cat(lo, hi) => {
                let Some((&first, rest)) = prog.args[lo as usize..hi as usize].split_first() else {
                    return Some(self.consts[&0]);
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
                return Some(acc);
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
        Some(dst)
    }
}

impl Tape {
    /// Maps the lowered netlist onto a tape, its folded copies grouped by
    /// `copies` (from [`Lowered::copies`]). Pure function of the
    /// interpreter's structure; the first settle pass runs everything.
    pub(crate) fn build(interp: &Interpreter, prog: Lowered, copies: &Copies) -> Tape {
        let n_slots = interp.slots.len();
        let n_pos = interp.schedule.len();

        // The arena holds the exact slots of at most 64 bits: reading
        // any other slot word-packed would bake in a width the reference
        // engine varies at run time, or not fit.
        let narrow: Vec<bool> = (0..n_slots)
            .map(|s| prog.exact[s] && prog.widths[s] <= 64)
            .collect();
        let (writer_count, ext_written) = (&prog.writer_count, &prog.external);
        let mut is_reg = vec![false; n_slots];
        for r in &interp.regs {
            is_reg[r.slot] = true;
        }

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
            view: &copies.view,
            consts,
            tmp_base: (n_slots + pool.len()) as u32,
            ops: Vec::new(),
            at: vec![0; prog.nodes.len()],
            ntmp: 0,
            max_tmp: 0,
        };
        // Heads written outside the sweep take the low ids.
        let mut head_slots: Vec<u32> = (0..n_slots)
            .filter(|&y| copies.head[y] != NO_COPY)
            .map(|y| copies.head[y])
            .collect();
        head_slots.sort_unstable_by_key(|&s| (writer_count[s as usize] != 0, s));
        head_slots.dedup();
        let outer = head_slots
            .iter()
            .take_while(|&&s| writer_count[s as usize] == 0)
            .count();
        let mut head_id = vec![NO_HEAD; n_slots];
        for (h, &s) in head_slots.iter().enumerate() {
            head_id[s as usize] = h as u32;
        }

        // Slots read straight out of `slots` (by the tree walker or an
        // extern model): their copies are written eagerly.
        let mut eager = vec![false; n_slots];
        for e in &interp.externs {
            for &(_, s) in &e.input_slots {
                eager[s] = true;
            }
        }

        // One program per schedule position but the folded copies; the
        // reader rows are renumbered by the compacted list.
        let mut programs = Vec::with_capacity(n_pos);
        let mut always = Vec::with_capacity(n_pos);
        let mut kept_at = vec![NO_HEAD; n_pos];
        for (pos, &di) in interp.schedule.iter().enumerate() {
            if copies.folded[pos] {
                continue;
            }
            kept_at[pos] = programs.len() as u32;
            always.push(prog.always[pos]);
            let (d, unit) = (&interp.defs[di], &prog.defs[di]);
            if let DefKind::ExternComb { .. } = d.kind {
                programs.push(Program::Extern { di: di as u32 });
                continue;
            }
            let slot = d.writes[0];
            let head = head_id[slot];
            // Writers that must run every pass stay on the tree walker.
            let fits = !prog.always[pos]
                && narrow[slot]
                && match d.kind {
                    DefKind::MemRead { mem, .. } => interp.mems[mem].width.get() <= 64,
                    _ => true,
                };
            let emitted = fits.then(|| em.program(unit, |em| em.val(unit.root())));
            programs.push(match (emitted.flatten(), &d.kind) {
                (Some((start, end, addr)), DefKind::MemRead { mem, .. }) => Program::NarrowMem {
                    start,
                    end,
                    addr,
                    mem: *mem as u32,
                    slot: slot as u32,
                    head,
                },
                (Some((start, end, out)), _) => Program::Narrow {
                    start,
                    end,
                    out,
                    slot: slot as u32,
                    head,
                },
                (None, _) => {
                    for &r in &d.reads {
                        eager[r] = true;
                    }
                    Program::Tree {
                        di: di as u32,
                        head,
                    }
                }
            });
        }

        // Roots: slots with no writer definition plus every externally
        // written slot. Registers are left out: they change only when a
        // tick commits them, and the commit marks their readers.
        let mut roots = Vec::new();
        let mut wide_roots = Vec::new();
        for (s, b) in interp.slots.iter().enumerate() {
            if (writer_count[s] == 0 || ext_written[s]) && !is_reg[s] {
                if narrow[s] {
                    roots.push((s as u32, head_id[s]));
                } else {
                    wide_roots.push((s as u32, b.clone()));
                }
            }
        }

        let mut latches = Vec::new();
        let mut tree_reads = Vec::new();
        for &(ri, next) in &prog.regs {
            let r = &interp.regs[ri];
            let (w, head) = (prog.widths[r.slot], head_id[r.slot]);
            let compiled = narrow[r.slot]
                .then(|| {
                    em.program(&next, |em| {
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
                    })
                })
                .flatten();
            latches.push(match compiled {
                Some((start, end, out)) => Latch::Reg {
                    start,
                    end,
                    out,
                    slot: r.slot as u32,
                    head,
                },
                None => {
                    if let Some(e) = &r.next {
                        e.reads(&mut tree_reads);
                    }
                    Latch::RegTree {
                        ri: ri as u32,
                        head,
                    }
                }
            });
        }
        for port in &prog.ports {
            let m = &interp.mems[port.mem];
            let compiled = (m.width.get() <= 64)
                .then(|| {
                    em.program(&port.unit, |em| {
                        (em.val(port.en), em.val(port.addr), em.val(port.unit.root()))
                    })
                })
                .flatten();
            latches.push(match compiled {
                // The commit's resize is `dmask`.
                Some((start, end, (en, addr, data))) => Latch::MemWrite {
                    start,
                    end,
                    en,
                    addr,
                    data,
                    mi: port.mem as u32,
                    dmask: mask(m.width.get()),
                },
                None => {
                    let (addr, data, en) = &m.writes[port.port];
                    for e in [addr, data, en] {
                        e.reads(&mut tree_reads);
                    }
                    Latch::MemWriteTree {
                        mi: port.mem as u32,
                        port: port.port as u32,
                    }
                }
            });
        }
        for r in tree_reads {
            eager[r] = true;
        }

        // Per head: its copies, those reading the head itself, its shadow
        // and its eager copies, in schedule order.
        let n_heads = head_slots.len();
        let (mut n_copies, mut direct) = (vec![0u32; n_heads], vec![0u32; n_heads]);
        let mut shadow = vec![0; outer];
        let mut eager_pairs = Vec::new();
        for (pos, &di) in interp.schedule.iter().enumerate() {
            if !copies.folded[pos] {
                continue;
            }
            let y = interp.defs[di].writes[0];
            let top = copies.head[y];
            let h = head_id[top as usize] as usize;
            n_copies[h] += 1;
            let x = prog
                .copy_of(&prog.defs[di])
                .expect("a folded copy copies a slot");
            direct[h] += u32::from(x as u32 == top);
            let view = copies.view[y];
            if h < outer {
                shadow[h] = view;
            }
            if eager[y] && view != y as u32 {
                eager_pairs.push((h as u32, y as u32));
            }
        }

        let mut vals: Vec<u64> = interp.slots.iter().map(Bits::to_u64).collect();
        vals.extend(&pool);
        vals.resize(vals.len() + em.max_tmp as usize, 0);
        // Register next-values read slots too, but latches always run.
        let renumber = |p: u32| kept_at.get(p as usize).copied().filter(|&k| k != NO_HEAD);
        Tape {
            ops: em.ops,
            dirty: vec![false; programs.len()],
            programs,
            latches,
            vals,
            always_dirty: always,
            fanout: prog.readers.merge(&copies.view, renumber),
            mem_users: prog.mem_readers.renumber(renumber),
            folds: Folds {
                slot: head_slots,
                shadow,
                copies: n_copies,
                direct,
                eager: Csr::from_pairs(n_heads, &eager_pairs),
            },
            deferred: Deferred {
                heads: Vec::with_capacity(outer),
                queued: vec![false; n_heads],
            },
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
            folds,
            deferred,
            roots,
            wide_roots,
            ..
        } = self;
        for &(s, h) in roots.iter() {
            let cur = slots[s as usize].to_u64();
            if cur != vals[s as usize] {
                vals[s as usize] = cur;
                fanout.mark(s as usize, dirty);
                deferred.push(h);
            }
        }
        for (s, last) in wide_roots.iter_mut() {
            let cur = &slots[*s as usize];
            if cur != &*last {
                last.clone_from(cur);
                fanout.mark(*s as usize, dirty);
            }
        }

        // Shadows of outer heads: all of them after an out-of-band change;
        // otherwise those of heads that changed since the last settle.
        let mut defs_run: u64 = 0;
        for &h in &deferred.heads {
            deferred.queued[h as usize] = false;
            if !all {
                defs_run += folds.settle_outer(h as usize, false, vals, slots, fanout, dirty);
            }
        }
        deferred.heads.clear();
        if all {
            for h in 0..folds.shadow.len() {
                defs_run += folds.settle_outer(h, true, vals, slots, fanout, dirty);
            }
        }

        for pos in 0..programs.len() {
            if !dirty[pos] {
                continue;
            }
            defs_run += 1;
            dirty[pos] = always_dirty[pos];
            let (s, v, head) = match programs[pos] {
                Program::Narrow {
                    start,
                    end,
                    out,
                    slot,
                    head,
                } => {
                    run(&ops[start as usize..end as usize], vals);
                    (slot as usize, vals[out as usize], head)
                }
                Program::NarrowMem {
                    start,
                    end,
                    addr,
                    mem,
                    slot,
                    head,
                } => {
                    run(&ops[start as usize..end as usize], vals);
                    let a = vals[addr as usize] as usize;
                    let v = interp.mems[mem as usize]
                        .data
                        .get(a)
                        .map_or(0, Bits::to_u64);
                    (slot as usize, v, head)
                }
                Program::Tree { di, head } => {
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
                    if (changed || all) && head != NO_HEAD {
                        defs_run += folds.spread(head as usize, vals[s], slots);
                    }
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
            if (changed || all) && head != NO_HEAD {
                defs_run += folds.spread(head as usize, v, slots);
            }
        }
        interp.stats.settle_passes += 1;
        interp.stats.defs_run += defs_run;
        interp.stats.defs_skipped += interp.schedule.len() as u64 - defs_run;
        Ok(())
    }

    /// The tape's size: programs, folded copies (shadows and eager ones
    /// among them), instructions, latches.
    pub(crate) fn shape(&self) -> TapeShape {
        TapeShape {
            programs: self.programs.len(),
            folded_copies: self.folds.copies.iter().sum::<u32>() as usize,
            shadows: self.folds.shadow.len(),
            eager_copies: self.folds.eager.idx.len(),
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
            deferred,
            roots,
            pending_narrow,
            pending_wide,
            pending_mems,
            ..
        } = self;
        for &(s, h) in roots.iter() {
            let cur = slots[s as usize].to_u64();
            if cur != vals[s as usize] {
                vals[s as usize] = cur;
                fanout.mark(s as usize, dirty);
                deferred.push(h);
            }
        }

        for latch in latches.iter() {
            match *latch {
                Latch::Reg {
                    start,
                    end,
                    out,
                    slot,
                    head,
                } => {
                    run(&ops[start as usize..end as usize], vals);
                    pending_narrow.push((slot, vals[out as usize], head));
                }
                Latch::RegTree { ri, head } => {
                    let r = &interp.regs[ri as usize];
                    let e = r.next.as_ref().expect("RegTree has a next expression");
                    let w = slots[r.slot].width();
                    pending_wide.push((r.slot as u32, e.eval(slots).resize(w), head));
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
        // settle, as on the reference engine.
        for (s, v, h) in pending_narrow.drain(..) {
            let s = s as usize;
            if vals[s] != v {
                vals[s] = v;
                slots[s].set_from_u64(v);
                fanout.mark(s, dirty);
                deferred.push(h);
            }
        }
        for (s, b, h) in pending_wide.drain(..) {
            let s = s as usize;
            if slots[s] != b {
                vals[s] = b.to_u64();
                slots[s] = b;
                fanout.mark(s, dirty);
                deferred.push(h);
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
