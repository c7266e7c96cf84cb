//! Compiled levelized execution engine.
//!
//! This module lowers an elaborated [`Interpreter`] netlist into a flat
//! instruction **tape**: one program per scheduled definition, laid out in
//! topological (levelized) order so a settle pass is a single linear sweep
//! with no recursion and no per-node heap traffic.
//!
//! Three ideas carry the speedup:
//!
//! * **Word packing** — every definition whose operands and result all fit
//!   in 64 bits compiles to straight-line `NOp`s over a dense `u64`
//!   temporary arena. Results are written back into the canonical
//!   [`Bits`] slots in place ([`Bits::set_from_u64`]), so the fast path
//!   performs zero heap allocations once warm. Anything wider — or any
//!   construct whose runtime width is dynamic (width-mismatched mux
//!   arms) — falls back to the tree-walking `CExpr` evaluator for that
//!   one definition, preserving exact reference semantics including its
//!   documented panics.
//! * **Slot-indexed extern bindings** — extern behavioral models keep a
//!   persistent, name-sorted input buffer that is refreshed by zipping
//!   slot indices against the buffer entries, and write their outputs
//!   through a [`crate::PortWriter`] bound to the instance's slot table:
//!   no map is built in either direction.
//! * **Dirty-set skipping** — elaboration-time fanout lists (slot →
//!   reading tape positions) let the sweep skip definitions whose inputs
//!   did not change. Externally written slots (top inputs, registers,
//!   extern source outputs) are *roots* diffed against shadows at the
//!   start of each settle; memory writes mark their readers at commit.
//!   Extern combinational programs are never skipped (models may be
//!   stateful), and multi-writer slots force their writers to always run,
//!   so call counts and settle order match the reference engine exactly.
//!
//! The tree-walking evaluator remains the golden model: the compiled
//! engine is validated bit-for-bit against it by differential proptests.

use crate::ast::BinOp;
use crate::bits::Bits;
use crate::error::Result;
use crate::interp::{run_extern_comb, DefKind, Interpreter};

/// Selects how an [`Interpreter`] settles and latches each target cycle.
///
/// Both engines maintain the same canonical architectural state (value
/// slots, memories, extern models), so they can be switched at any cycle
/// boundary and produce bit-identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Flat levelized instruction tape with a word-packed `u64` fast path
    /// and dirty-set skipping — the default.
    #[default]
    Compiled,
    /// The original tree-walking evaluator, kept as the differential
    /// golden reference.
    Reference,
    /// The bit-sliced (transposed) tape: every 1-bit signal is a `u64` of
    /// 64 lanes, so one sweep evaluates up to 64 independent scenarios.
    /// On a plain [`Interpreter`] only lane 0 is populated (useful for
    /// differential testing); the batched front end is
    /// [`crate::slice::SlicedInterpreter`].
    Sliced,
}

impl std::str::FromStr for ExecEngine {
    type Err = crate::error::IrError;

    /// Parses an engine name as used by `FIREAXE_ENGINE` and the
    /// `engine` config knob. `compiled`/`tape` pick the word-packed
    /// tape, `reference`/`tree` the tree walker, `sliced`/`slice` the
    /// bit-sliced tape; the empty string picks the default.
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "" | "compiled" | "tape" => Ok(ExecEngine::Compiled),
            "reference" | "tree" => Ok(ExecEngine::Reference),
            "sliced" | "slice" => Ok(ExecEngine::Sliced),
            other => Err(crate::error::IrError::UnknownEngine {
                value: other.to_string(),
            }),
        }
    }
}

impl ExecEngine {
    /// Engine selected by the `FIREAXE_ENGINE` environment variable
    /// (unset or empty picks [`ExecEngine::Compiled`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::IrError::UnknownEngine`] when the variable
    /// is set to a name no engine answers to — a misspelled engine should
    /// fail loudly, not silently fall back to the default.
    pub fn from_env() -> Result<Self> {
        match std::env::var("FIREAXE_ENGINE") {
            Ok(v) => v.parse(),
            Err(_) => Ok(ExecEngine::Compiled),
        }
    }
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
    /// Definitions the dirty-set scheduler skipped (compiled engine
    /// only; always 0 on the reference engine, which sweeps the full
    /// schedule).
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

/// Operand of a narrow (word-packed) instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NSrc {
    /// Read the low word of a canonical value slot (width ≤ 64 by
    /// construction, so the low word is the whole value).
    Slot(u32),
    /// Read a `u64` temporary written earlier in the same program.
    Tmp(u32),
    /// An inline constant.
    Const(u64),
}

/// One word-packed instruction. Every instruction writes the `u64`
/// temporary `dst`; masks are precomputed at compile time so execution is
/// branch-light integer arithmetic.
#[derive(Debug, Clone)]
pub(crate) enum NOp {
    /// Binary op at `max(width)` bits; `mask` truncates the result.
    Bin {
        op: BinOp,
        a: NSrc,
        b: NSrc,
        mask: u64,
        dst: u32,
    },
    /// Bitwise NOT at the operand's width.
    Not { a: NSrc, mask: u64, dst: u32 },
    /// OR-reduction to one bit.
    RedOr { a: NSrc, dst: u32 },
    /// AND-reduction: `a == full` where `full` is the operand's all-ones.
    RedAnd { a: NSrc, full: u64, dst: u32 },
    /// XOR-reduction (parity).
    RedXor { a: NSrc, dst: u32 },
    /// `if c != 0 { t } else { f }`; arms have equal widths.
    Mux { c: NSrc, t: NSrc, f: NSrc, dst: u32 },
    /// `(hi << shift) | lo`; total width ≤ 64 so no mask is needed.
    Cat {
        hi: NSrc,
        lo: NSrc,
        shift: u32,
        dst: u32,
    },
    /// `(a >> lo) & mask`.
    Extract {
        a: NSrc,
        lo: u32,
        mask: u64,
        dst: u32,
    },
    /// Truncate or zero-extend to a new width: `a & mask`.
    Resize { a: NSrc, mask: u64, dst: u32 },
    /// Left shift keeping the operand width.
    Shl {
        a: NSrc,
        n: u32,
        mask: u64,
        dst: u32,
    },
    /// Right shift keeping the operand width.
    Shr { a: NSrc, n: u32, dst: u32 },
}

/// The compiled form of one scheduled definition.
#[derive(Debug)]
pub(crate) enum Program {
    /// Word-packed expression: run `ops`, read `out`, store into `slot`.
    Narrow { ops: Vec<NOp>, out: NSrc, slot: u32 },
    /// Word-packed memory read: run `ops` for the address, index `mem`.
    NarrowMem {
        ops: Vec<NOp>,
        addr: NSrc,
        mem: u32,
        slot: u32,
    },
    /// Fall back to the tree-walking evaluator for definition `di`.
    Tree { di: u32 },
    /// Extern combinational model call for definition `di` (always run).
    Extern { di: u32 },
}

/// Compiled register next-value computation, run at `tick`.
#[derive(Debug)]
pub(crate) enum RegExec {
    /// Word-packed: result already masked to the register's width.
    Narrow { ops: Vec<NOp>, out: NSrc, slot: u32 },
    /// Tree-walk `regs[ri].next` like the reference engine.
    Tree { ri: u32 },
}

/// Compiled memory write port, run at `tick`.
#[derive(Debug)]
pub(crate) enum MemWExec {
    /// All of enable/address/data word-packed and the memory ≤ 64 bits
    /// wide; `dmask` truncates the data to the memory width.
    Narrow {
        mi: u32,
        ops: Vec<NOp>,
        en: NSrc,
        addr: NSrc,
        data: NSrc,
        dmask: u64,
    },
    /// Tree-walk port `port` of memory `mi`.
    Tree { mi: u32, port: u32 },
}

/// Pending register value awaiting commit (kept in register order).
#[derive(Debug)]
enum RegPend {
    N(u32, u64),
    W(u32, Bits),
}

/// Pending memory write value awaiting commit (kept in port order).
#[derive(Debug)]
enum PendVal {
    N(u64),
    W(Bits),
}

/// An externally written slot diffed against a shadow at settle start.
#[derive(Debug)]
enum Root {
    Narrow { slot: u32, shadow: u64 },
    Wide { slot: u32, shadow: Bits },
}

/// The compiled execution state attached to an [`Interpreter`].
///
/// Everything in here is derived from the interpreter's architectural
/// state: snapshots never capture the tape, and any external state change
/// (reset, snapshot restore, engine switch) simply sets [`Tape::force_all`].
#[derive(Debug)]
pub(crate) struct Tape {
    /// One program per schedule position, in schedule order.
    programs: Vec<Program>,
    /// Positions to run this settle pass.
    dirty: Vec<bool>,
    /// Positions that must run every pass (externs, multi-writer slots,
    /// writers of externally written slots).
    always_dirty: Vec<bool>,
    /// slot → tape positions reading it.
    fanout: Vec<Vec<u32>>,
    /// memory → tape positions reading it.
    mem_users: Vec<Vec<u32>>,
    /// Externally written slots and their shadows.
    roots: Vec<Root>,
    reg_exec: Vec<RegExec>,
    memw_exec: Vec<MemWExec>,
    pending_regs: Vec<RegPend>,
    pending_mems: Vec<(u32, u32, PendVal)>,
    /// Memories written since the last settle pass.
    mem_dirty: Vec<bool>,
    /// Shared `u64` temporary arena, sized for the largest program.
    tmps: Vec<u64>,
    /// Run everything next pass and refresh all shadows.
    pub(crate) force_all: bool,
    /// Dirty-set skipping enabled (otherwise every pass runs everything).
    pub(crate) skip: bool,
}

#[inline]
fn mask(w: u32) -> u64 {
    match w {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << w) - 1,
    }
}

#[inline(always)]
fn nread(src: NSrc, tmps: &[u64], slots: &[Bits]) -> u64 {
    match src {
        NSrc::Slot(i) => slots[i as usize].to_u64(),
        NSrc::Tmp(i) => tmps[i as usize],
        NSrc::Const(c) => c,
    }
}

fn run_nops(ops: &[NOp], tmps: &mut [u64], slots: &[Bits]) {
    for op in ops {
        match *op {
            NOp::Bin {
                op,
                a,
                b,
                mask,
                dst,
            } => {
                let a = nread(a, tmps, slots);
                let b = nread(b, tmps, slots);
                tmps[dst as usize] = match op {
                    BinOp::Add => a.wrapping_add(b) & mask,
                    BinOp::Sub => a.wrapping_sub(b) & mask,
                    BinOp::Mul => a.wrapping_mul(b) & mask,
                    BinOp::Div => a.checked_div(b).unwrap_or(0),
                    BinOp::Rem => a.checked_rem(b).unwrap_or(0),
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Eq => u64::from(a == b),
                    BinOp::Neq => u64::from(a != b),
                    BinOp::Lt => u64::from(a < b),
                    BinOp::Leq => u64::from(a <= b),
                    BinOp::Gt => u64::from(a > b),
                    BinOp::Geq => u64::from(a >= b),
                };
            }
            NOp::Not { a, mask, dst } => {
                tmps[dst as usize] = !nread(a, tmps, slots) & mask;
            }
            NOp::RedOr { a, dst } => {
                tmps[dst as usize] = u64::from(nread(a, tmps, slots) != 0);
            }
            NOp::RedAnd { a, full, dst } => {
                tmps[dst as usize] = u64::from(nread(a, tmps, slots) == full);
            }
            NOp::RedXor { a, dst } => {
                tmps[dst as usize] = u64::from(nread(a, tmps, slots).count_ones() % 2 == 1);
            }
            NOp::Mux { c, t, f, dst } => {
                tmps[dst as usize] = if nread(c, tmps, slots) != 0 {
                    nread(t, tmps, slots)
                } else {
                    nread(f, tmps, slots)
                };
            }
            NOp::Cat { hi, lo, shift, dst } => {
                let l = nread(lo, tmps, slots);
                tmps[dst as usize] = if shift >= 64 {
                    l
                } else {
                    (nread(hi, tmps, slots) << shift) | l
                };
            }
            NOp::Extract { a, lo, mask, dst } => {
                tmps[dst as usize] = (nread(a, tmps, slots) >> lo) & mask;
            }
            NOp::Resize { a, mask, dst } => {
                tmps[dst as usize] = nread(a, tmps, slots) & mask;
            }
            NOp::Shl { a, n, mask, dst } => {
                let v = nread(a, tmps, slots);
                tmps[dst as usize] = if n >= 64 { 0 } else { (v << n) & mask };
            }
            NOp::Shr { a, n, dst } => {
                let v = nread(a, tmps, slots);
                tmps[dst as usize] = if n >= 64 { 0 } else { v >> n };
            }
        }
    }
}

/// Word-packing compiler: lowers a [`CExpr`] to [`NOp`]s, or gives up
/// (returning `None`) when any intermediate exceeds 64 bits or has a
/// dynamic runtime width.
struct NCompiler<'a> {
    slots: &'a [Bits],
    /// Slots proven by [`crate::slice::exact_slots`] to always hold their
    /// declared width. Reading any other slot word-packed would bake in a
    /// width that the reference engine varies at runtime (nodes fed by
    /// width-mismatched mux arms), so those reads force tree fallback.
    exact: &'a [bool],
    ops: Vec<NOp>,
    ntmp: u32,
}

use crate::interp::CExpr;

impl<'a> NCompiler<'a> {
    fn new(slots: &'a [Bits], exact: &'a [bool]) -> Self {
        NCompiler {
            slots,
            exact,
            ops: Vec::new(),
            ntmp: 0,
        }
    }

    fn tmp(&mut self) -> u32 {
        let t = self.ntmp;
        self.ntmp += 1;
        t
    }

    /// Compiles `e`; returns the value source and its static width.
    fn go(&mut self, e: &CExpr) -> Option<(NSrc, u32)> {
        match e {
            CExpr::Lit(b) => {
                let w = b.width().get();
                (w <= 64).then(|| (NSrc::Const(b.to_u64()), w))
            }
            CExpr::Slot(i) => {
                let w = self.slots[*i].width().get();
                (w <= 64 && self.exact[*i]).then_some((NSrc::Slot(*i as u32), w))
            }
            CExpr::Unary(op, a) => {
                let (a, wa) = self.go(a)?;
                use crate::ast::UnOp;
                let dst = self.tmp();
                let (op, w) = match op {
                    UnOp::Not => (
                        NOp::Not {
                            a,
                            mask: mask(wa),
                            dst,
                        },
                        wa,
                    ),
                    UnOp::OrReduce => (NOp::RedOr { a, dst }, 1),
                    UnOp::AndReduce => {
                        if wa == 0 {
                            // reduce_and of a zero-width value is defined
                            // as 0; encode it as a constant resize.
                            (NOp::Resize { a, mask: 0, dst }, 1)
                        } else {
                            (
                                NOp::RedAnd {
                                    a,
                                    full: mask(wa),
                                    dst,
                                },
                                1,
                            )
                        }
                    }
                    UnOp::XorReduce => (NOp::RedXor { a, dst }, 1),
                };
                self.ops.push(op);
                Some((NSrc::Tmp(dst), w))
            }
            CExpr::Binary(op, a, b) => {
                let (a, wa) = self.go(a)?;
                let (b, wb) = self.go(b)?;
                let w = wa.max(wb);
                let cmp = matches!(
                    op,
                    BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Leq | BinOp::Gt | BinOp::Geq
                );
                let dst = self.tmp();
                self.ops.push(NOp::Bin {
                    op: *op,
                    a,
                    b,
                    mask: mask(w),
                    dst,
                });
                Some((NSrc::Tmp(dst), if cmp { 1 } else { w }))
            }
            CExpr::Mux(c, t, f) => {
                let (c, _) = self.go(c)?;
                let (t, wt) = self.go(t)?;
                let (f, wf) = self.go(f)?;
                if wt != wf {
                    // The reference evaluator returns the taken arm at its
                    // own width, making the result width dynamic.
                    return None;
                }
                let dst = self.tmp();
                self.ops.push(NOp::Mux { c, t, f, dst });
                Some((NSrc::Tmp(dst), wt))
            }
            CExpr::Cat(parts) => {
                let mut it = parts.iter();
                let Some(first) = it.next() else {
                    return Some((NSrc::Const(0), 0));
                };
                let (mut acc, mut wacc) = self.go(first)?;
                for p in it {
                    let (lo, wlo) = self.go(p)?;
                    if wacc + wlo > 64 {
                        return None;
                    }
                    let dst = self.tmp();
                    self.ops.push(NOp::Cat {
                        hi: acc,
                        lo,
                        shift: wlo,
                        dst,
                    });
                    acc = NSrc::Tmp(dst);
                    wacc += wlo;
                }
                Some((acc, wacc))
            }
            CExpr::Extract(a, hi, lo) => {
                let (a, wa) = self.go(a)?;
                if *hi >= wa {
                    // The reference evaluator panics here; keep that
                    // behavior by falling back to the tree walker.
                    return None;
                }
                let w = hi - lo + 1;
                let dst = self.tmp();
                self.ops.push(NOp::Extract {
                    a,
                    lo: *lo,
                    mask: mask(w),
                    dst,
                });
                Some((NSrc::Tmp(dst), w))
            }
            CExpr::Resize(a, w) => {
                let wn = w.get();
                if wn > 64 {
                    return None;
                }
                let (a, _) = self.go(a)?;
                let dst = self.tmp();
                self.ops.push(NOp::Resize {
                    a,
                    mask: mask(wn),
                    dst,
                });
                Some((NSrc::Tmp(dst), wn))
            }
            CExpr::Shl(a, n) => {
                let (a, wa) = self.go(a)?;
                let dst = self.tmp();
                self.ops.push(NOp::Shl {
                    a,
                    n: *n,
                    mask: mask(wa),
                    dst,
                });
                Some((NSrc::Tmp(dst), wa))
            }
            CExpr::Shr(a, n) => {
                let (a, wa) = self.go(a)?;
                let dst = self.tmp();
                self.ops.push(NOp::Shr { a, n: *n, dst });
                Some((NSrc::Tmp(dst), wa))
            }
        }
    }
}

impl Tape {
    /// Lowers the elaborated netlist into a tape. Pure function of the
    /// interpreter's structure; the first settle pass runs everything.
    pub(crate) fn build(interp: &Interpreter) -> Tape {
        let n_slots = interp.slots.len();
        let n_pos = interp.schedule.len();

        // Width-exactness fixpoint, shared with the bit-sliced engine:
        // defs that read a dynamic-width slot must stay on the tree
        // walker so runtime widths match the reference bit for bit.
        let slot_widths: Vec<u32> = interp.slots.iter().map(|b| b.width().get()).collect();
        let exact = crate::slice::exact_slots(interp, &slot_widths);

        // Writer counts identify multi-writer slots (their writers must
        // always run so last-writer-wins settle order is preserved).
        let mut writer_count = vec![0u32; n_slots];
        for d in &interp.defs {
            for &w in &d.writes {
                writer_count[w] += 1;
            }
        }

        // Externally written slots: top inputs (poke), register slots
        // (tick commit), extern source outputs (publish). These are the
        // dirt roots; if any of them *also* has a writer definition, that
        // definition must always run or a poke could stick where the
        // reference engine would overwrite it.
        let mut ext_written = vec![false; n_slots];
        for (_, s) in &interp.top_inputs {
            ext_written[*s] = true;
        }
        for r in &interp.regs {
            ext_written[r.slot] = true;
        }
        for e in &interp.externs {
            for (_, s) in &e.source_output_slots {
                ext_written[*s] = true;
            }
        }

        let mut programs = Vec::with_capacity(n_pos);
        let mut always_dirty = vec![false; n_pos];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n_slots];
        let mut mem_users: Vec<Vec<u32>> = vec![Vec::new(); interp.mems.len()];
        let mut max_tmp = 0u32;

        for (pos, &di) in interp.schedule.iter().enumerate() {
            let def = &interp.defs[di];
            let forced = def
                .writes
                .iter()
                .any(|&w| writer_count[w] > 1 || ext_written[w]);
            let program = match &def.kind {
                DefKind::ExternComb { .. } => {
                    // Models may be stateful: never skip.
                    always_dirty[pos] = true;
                    Program::Extern { di: di as u32 }
                }
                DefKind::Expr(e) => {
                    let slot = def.writes[0];
                    let slot_w = interp.slots[slot].width().get();
                    let mut nc = NCompiler::new(&interp.slots, &exact);
                    match nc.go(e) {
                        Some((out, w)) if !forced && w == slot_w => {
                            max_tmp = max_tmp.max(nc.ntmp);
                            Program::Narrow {
                                ops: nc.ops,
                                out,
                                slot: slot as u32,
                            }
                        }
                        _ => {
                            always_dirty[pos] |= forced;
                            Program::Tree { di: di as u32 }
                        }
                    }
                }
                DefKind::MemRead { mem, addr } => {
                    mem_users[*mem].push(pos as u32);
                    let slot = def.writes[0];
                    let mem_w = interp.mems[*mem].width.get();
                    let mut nc = NCompiler::new(&interp.slots, &exact);
                    match nc.go(addr) {
                        Some((out, _)) if !forced && mem_w <= 64 => {
                            max_tmp = max_tmp.max(nc.ntmp);
                            Program::NarrowMem {
                                ops: nc.ops,
                                addr: out,
                                mem: *mem as u32,
                                slot: slot as u32,
                            }
                        }
                        _ => {
                            always_dirty[pos] |= forced;
                            Program::Tree { di: di as u32 }
                        }
                    }
                }
            };
            let mut reads = def.reads.clone();
            reads.sort_unstable();
            reads.dedup();
            for r in reads {
                fanout[r].push(pos as u32);
            }
            programs.push(program);
        }

        // Roots: slots with no writer definition plus every externally
        // written slot, each shadowed for change detection.
        let mut roots = Vec::new();
        for (s, b) in interp.slots.iter().enumerate() {
            if writer_count[s] == 0 || ext_written[s] {
                roots.push(if b.width().get() <= 64 {
                    Root::Narrow {
                        slot: s as u32,
                        shadow: b.to_u64(),
                    }
                } else {
                    Root::Wide {
                        slot: s as u32,
                        shadow: b.clone(),
                    }
                });
            }
        }

        let mut reg_exec = Vec::new();
        for (ri, r) in interp.regs.iter().enumerate() {
            let Some(next) = &r.next else { continue };
            let w = interp.slots[r.slot].width().get();
            let mut nc = NCompiler::new(&interp.slots, &exact);
            let compiled = nc.go(next).map(|(src, _)| {
                // Mirror the reference engine's final `.resize(w)`.
                let dst = nc.tmp();
                nc.ops.push(NOp::Resize {
                    a: src,
                    mask: mask(w),
                    dst,
                });
                NSrc::Tmp(dst)
            });
            reg_exec.push(match compiled {
                Some(out) if w <= 64 => {
                    max_tmp = max_tmp.max(nc.ntmp);
                    RegExec::Narrow {
                        ops: nc.ops,
                        out,
                        slot: r.slot as u32,
                    }
                }
                _ => RegExec::Tree { ri: ri as u32 },
            });
        }

        let mut memw_exec = Vec::new();
        for (mi, m) in interp.mems.iter().enumerate() {
            let mem_w = m.width.get();
            for (port, (addr, data, en)) in m.writes.iter().enumerate() {
                let mut nc = NCompiler::new(&interp.slots, &exact);
                let triple = (|| {
                    let (en, _) = nc.go(en)?;
                    let (addr, _) = nc.go(addr)?;
                    let (data, _) = nc.go(data)?;
                    Some((en, addr, data))
                })();
                memw_exec.push(match triple {
                    Some((en, addr, data)) if mem_w <= 64 => {
                        max_tmp = max_tmp.max(nc.ntmp);
                        MemWExec::Narrow {
                            mi: mi as u32,
                            ops: nc.ops,
                            en,
                            addr,
                            data,
                            dmask: mask(mem_w),
                        }
                    }
                    _ => MemWExec::Tree {
                        mi: mi as u32,
                        port: port as u32,
                    },
                });
            }
        }

        Tape {
            programs,
            dirty: vec![false; n_pos],
            always_dirty,
            fanout,
            mem_users,
            roots,
            reg_exec,
            memw_exec,
            pending_regs: Vec::new(),
            pending_mems: Vec::new(),
            mem_dirty: vec![false; interp.mems.len()],
            tmps: vec![0; max_tmp as usize],
            force_all: true,
            skip: true,
        }
    }

    /// Settles combinational logic: the compiled counterpart of the
    /// reference engine's schedule sweep.
    pub(crate) fn eval(&mut self, interp: &mut Interpreter) -> Result<()> {
        let Tape {
            programs,
            dirty,
            always_dirty,
            fanout,
            mem_users,
            roots,
            mem_dirty,
            tmps,
            force_all,
            skip,
            ..
        } = self;
        let slots = &mut interp.slots;

        if *force_all || !*skip {
            dirty.iter_mut().for_each(|d| *d = true);
            for r in roots.iter_mut() {
                match r {
                    Root::Narrow { slot, shadow } => *shadow = slots[*slot as usize].to_u64(),
                    Root::Wide { slot, shadow } => shadow.clone_from(&slots[*slot as usize]),
                }
            }
            mem_dirty.iter_mut().for_each(|d| *d = false);
            *force_all = false;
        } else {
            for r in roots.iter_mut() {
                match r {
                    Root::Narrow { slot, shadow } => {
                        let cur = slots[*slot as usize].to_u64();
                        if cur != *shadow {
                            *shadow = cur;
                            for &p in &fanout[*slot as usize] {
                                dirty[p as usize] = true;
                            }
                        }
                    }
                    Root::Wide { slot, shadow } => {
                        let cur = &slots[*slot as usize];
                        if cur != &*shadow {
                            shadow.clone_from(cur);
                            for &p in &fanout[*slot as usize] {
                                dirty[p as usize] = true;
                            }
                        }
                    }
                }
            }
            for (mi, d) in mem_dirty.iter_mut().enumerate() {
                if *d {
                    *d = false;
                    for &p in &mem_users[mi] {
                        dirty[p as usize] = true;
                    }
                }
            }
        }

        let mut defs_run: u64 = 0;
        let mut defs_skipped: u64 = 0;
        for pos in 0..programs.len() {
            if !dirty[pos] {
                defs_skipped += 1;
                continue;
            }
            defs_run += 1;
            dirty[pos] = always_dirty[pos];
            match &programs[pos] {
                Program::Narrow { ops, out, slot } => {
                    run_nops(ops, tmps, slots);
                    let v = nread(*out, tmps, slots);
                    let s = *slot as usize;
                    if slots[s].to_u64() != v {
                        slots[s].set_from_u64(v);
                        for &p in &fanout[s] {
                            dirty[p as usize] = true;
                        }
                    }
                }
                Program::NarrowMem {
                    ops,
                    addr,
                    mem,
                    slot,
                } => {
                    run_nops(ops, tmps, slots);
                    let a = nread(*addr, tmps, slots) as usize;
                    let v = interp.mems[*mem as usize]
                        .data
                        .get(a)
                        .map_or(0, Bits::to_u64);
                    let s = *slot as usize;
                    if slots[s].to_u64() != v {
                        slots[s].set_from_u64(v);
                        for &p in &fanout[s] {
                            dirty[p as usize] = true;
                        }
                    }
                }
                Program::Tree { di } => {
                    let def = &interp.defs[*di as usize];
                    match &def.kind {
                        DefKind::Expr(e) => {
                            let v = e.eval(slots);
                            let s = def.writes[0];
                            if slots[s] != v {
                                slots[s] = v;
                                for &p in &fanout[s] {
                                    dirty[p as usize] = true;
                                }
                            }
                        }
                        DefKind::MemRead { mem, addr } => {
                            let a = addr.eval(slots).to_u64() as usize;
                            let m = &interp.mems[*mem];
                            let v = m
                                .data
                                .get(a)
                                .cloned()
                                .unwrap_or_else(|| Bits::zero(m.width));
                            let s = def.writes[0];
                            if slots[s] != v {
                                slots[s] = v;
                                for &p in &fanout[s] {
                                    dirty[p as usize] = true;
                                }
                            }
                        }
                        DefKind::ExternComb { .. } => {
                            unreachable!("extern defs use Program::Extern")
                        }
                    }
                }
                Program::Extern { di } => {
                    let def = &interp.defs[*di as usize];
                    let DefKind::ExternComb { ext } = &def.kind else {
                        unreachable!("Program::Extern wraps an extern def")
                    };
                    let e = &mut interp.externs[*ext];
                    run_extern_comb(slots, e, |s, changed| {
                        if changed {
                            for &p in &fanout[s] {
                                dirty[p as usize] = true;
                            }
                        }
                    })?;
                }
            }
        }
        interp.stats.settle_passes += 1;
        interp.stats.defs_run += defs_run;
        interp.stats.defs_skipped += defs_skipped;
        Ok(())
    }

    /// Latches registers, applies memory writes, ticks extern models, and
    /// publishes source outputs — the compiled counterpart of the
    /// reference engine's `tick`, in the same commit order.
    pub(crate) fn tick(&mut self, interp: &mut Interpreter) {
        let Tape {
            reg_exec,
            memw_exec,
            pending_regs,
            pending_mems,
            mem_dirty,
            tmps,
            ..
        } = self;
        let slots = &mut interp.slots;

        pending_regs.clear();
        for rx in reg_exec.iter() {
            match rx {
                RegExec::Narrow { ops, out, slot } => {
                    run_nops(ops, tmps, slots);
                    pending_regs.push(RegPend::N(*slot, nread(*out, tmps, slots)));
                }
                RegExec::Tree { ri } => {
                    let r = &interp.regs[*ri as usize];
                    let e = r.next.as_ref().expect("Tree reg has a next expression");
                    let w = slots[r.slot].width();
                    pending_regs.push(RegPend::W(r.slot as u32, e.eval(slots).resize(w)));
                }
            }
        }

        pending_mems.clear();
        for mx in memw_exec.iter() {
            match mx {
                MemWExec::Narrow {
                    mi,
                    ops,
                    en,
                    addr,
                    data,
                    dmask,
                } => {
                    run_nops(ops, tmps, slots);
                    if nread(*en, tmps, slots) != 0 {
                        let a = nread(*addr, tmps, slots);
                        if (a as usize) < interp.mems[*mi as usize].data.len() {
                            let v = nread(*data, tmps, slots) & dmask;
                            pending_mems.push((*mi, a as u32, PendVal::N(v)));
                        }
                    }
                }
                MemWExec::Tree { mi, port } => {
                    let m = &interp.mems[*mi as usize];
                    let (addr, data, en) = &m.writes[*port as usize];
                    if !en.eval(slots).is_zero() {
                        let a = addr.eval(slots).to_u64() as usize;
                        if a < m.data.len() {
                            let v = data.eval(slots).resize(m.width);
                            pending_mems.push((*mi, a as u32, PendVal::W(v)));
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

        for p in pending_regs.drain(..) {
            match p {
                RegPend::N(s, v) => slots[s as usize].set_from_u64(v),
                RegPend::W(s, b) => slots[s as usize] = b,
            }
        }
        for (mi, a, v) in pending_mems.drain(..) {
            let cell = &mut interp.mems[mi as usize].data[a as usize];
            match v {
                PendVal::N(x) => cell.set_from_u64(x),
                PendVal::W(b) => *cell = b,
            }
            mem_dirty[mi as usize] = true;
        }

        crate::interp::publish_sources(slots, &mut interp.externs);
        interp.cycle += 1;
    }
}
