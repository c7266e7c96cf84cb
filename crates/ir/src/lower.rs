//! The one lowering pass both tape engines are built from.
//!
//! The compiled engine ([`crate::exec`]) packs each value into a `u64`
//! word; the bit-sliced engine ([`crate::slice`]) transposes values into
//! 64-lane planes. Both map one [`Lowered`] program: [`Lowered::new`]
//! walks the elaborated netlist once — every definition, register
//! next-value and memory write port — and flattens each expression into
//! [`Node`]s in post-order, operands first. Over that flat program it
//! settles, once for both engines:
//!
//! * **Static widths and exactness.** The reference evaluator stores
//!   whatever width an expression produces (`slots[w] = e.eval(..)`, no
//!   resize), so a slot's runtime width can differ from its declared
//!   width (width-mismatched mux arms). A slot is *exact* when every
//!   value it ever holds has its declared width: starting from all
//!   slots exact, a fixpoint over the node widths (the width rules of
//!   [`CExpr::eval`]; `None` when a width depends on runtime values)
//!   demotes a slot one of whose expression definitions may produce
//!   another width. Register commits, memory reads, extern outputs and
//!   pokes all resize, so nothing else can demote a slot.
//!   [`Lowered::settled`] stops after it.
//! * **Fallback.** A unit with a runtime-dependent width runs on the
//!   reference tree walker in both engines, with the reason of its first
//!   such node in post-order: a read of an inexact slot
//!   ([`ScalarReason::InexactSlot`], also for a definition or register
//!   writing one), mux arms of different widths
//!   ([`ScalarReason::MuxArmWidths`]), or an extract past its operand
//!   ([`ScalarReason::ExtractOutOfRange`]; the reference panics, and so
//!   does the fallback). Each engine adds its own limits while it maps
//!   the nodes before that one: 64 bits for the compiled engine;
//!   division, wide multiplies and wide addresses for the sliced one.
//! * **Plain copies.** A definition that only copies another slot at its
//!   own width (a port connection) names it. [`Lowered::copies`] groups
//!   the ones the compiled engine folds away by the slot heading each
//!   chain and gives every slot its *view*, the slot an engine reads for
//!   it.
//! * **Resize on commit.** A register commits its next value resized to
//!   its width, a write port its data resized to the memory's; each
//!   engine encodes that resize its own way.
//! * **Dirty-set rows.** Which definitions must run on every settle
//!   (extern models, and the writers of slots with several writers or
//!   also written from outside the sweep), which definitions and
//!   register next-values read each slot, and which read ports read each
//!   memory, as [`Csr`] rows. At run time a write that moves a slot
//!   marks its row in a `dirty` vector.

use crate::ast::{BinOp, UnOp};
use crate::bits::Bits;
use crate::interp::{CExpr, DefKind, Interpreter};

/// Why a definition, register next-value or memory port runs per lane
/// through the reference tree walker instead of as a plane kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarReason {
    /// Reads or writes a slot whose runtime width is not provably its
    /// declared width (see the module docs on exactness).
    InexactSlot,
    /// Contains a division or remainder.
    DivRem,
    /// Contains a multiply wider than the shift-add kernel's limit.
    WideMul,
    /// Memory address expression wider than 64 bits.
    WideAddress,
    /// Extracts bits past its operand's width (the reference panics; the
    /// fallback preserves the panic).
    ExtractOutOfRange,
    /// Mux arms of different widths under a resize (runtime-dynamic
    /// width inside the expression).
    MuxArmWidths,
}

impl std::fmt::Display for ScalarReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScalarReason::InexactSlot => "inexact slot",
            ScalarReason::DivRem => "div/rem",
            ScalarReason::WideMul => "wide mul",
            ScalarReason::WideAddress => "wide address",
            ScalarReason::ExtractOutOfRange => "out-of-range extract",
            ScalarReason::MuxArmWidths => "mux arm widths differ",
        })
    }
}

/// Compressed rows: row `i` is `idx[off[i]..off[i + 1]]`.
#[derive(Debug, Default)]
pub(crate) struct Csr {
    pub(crate) off: Vec<u32>,
    pub(crate) idx: Vec<u32>,
}

impl Csr {
    /// Rows `0..n` from `(row, entry)` pairs, each row in pair order.
    pub(crate) fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut off = vec![0u32; n + 1];
        for &(r, _) in pairs {
            off[r as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let (mut next, mut idx) = (off.clone(), vec![0; pairs.len()]);
        for &(r, e) in pairs {
            idx[next[r as usize] as usize] = e;
            next[r as usize] += 1;
        }
        Csr { off, idx }
    }

    /// The same rows with every entry renumbered by `f`, dropping those
    /// it maps to `None`.
    pub(crate) fn renumber(&self, f: impl Fn(u32) -> Option<u32>) -> Csr {
        let mut off = Vec::with_capacity(self.off.len());
        let mut idx = Vec::with_capacity(self.idx.len());
        off.push(0);
        for w in self.off.windows(2) {
            for &p in &self.idx[w[0] as usize..w[1] as usize] {
                idx.extend(f(p));
            }
            off.push(idx.len() as u32);
        }
        Csr { off, idx }
    }

    /// Rows `0..into.len()` where row `r` holds, once each and in
    /// order, the entries of every row `i` with `into[i] == r`,
    /// renumbered by `f` (dropping those it maps to `None`).
    pub(crate) fn merge(&self, into: &[u32], f: impl Fn(u32) -> Option<u32>) -> Csr {
        let mut pairs = Vec::with_capacity(self.idx.len());
        for (i, w) in self.off.windows(2).enumerate() {
            for &p in &self.idx[w[0] as usize..w[1] as usize] {
                pairs.extend(f(p).map(|k| (into[i], k)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        Csr::from_pairs(into.len(), &pairs)
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.idx[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Marks every position in row `i` dirty.
    #[inline]
    pub(crate) fn mark(&self, i: usize, dirty: &mut [bool]) {
        for &p in self.row(i) {
            dirty[p as usize] = true;
        }
    }
}

/// Marks a slot that is no folded copy in [`Copies::head`].
pub(crate) const NO_COPY: u32 = u32::MAX;

/// The port-connection copies the compiled engine folds away, from
/// [`Lowered::copies`].
///
/// A *folded copy* is a definition `y <= x` with no instruction of its
/// own: `y` is a width-exact slot of at most 64 bits, of `x`'s width,
/// with one unforced writer. Following `x` up through other folded copies
/// ends at the chain's *head*: a slot no definition writes (top input,
/// register, extern source output, undriven), an *outer* head, or the
/// output of one unforced program that is no extern settle, an *inner*
/// head. Every copy holds its head's value as of the last settle, so it
/// needs no slot of its own: an inner head's copies read the head, which
/// only a settle moves, and an outer head's copies read its first copy
/// in schedule order, its *shadow*, which the settle brings up to the
/// head.
#[derive(Debug)]
pub(crate) struct Copies {
    /// Per schedule position: the definition is a folded copy.
    pub(crate) folded: Vec<bool>,
    /// Per slot: the head of the chain when the slot is a folded copy,
    /// else [`NO_COPY`].
    pub(crate) head: Vec<u32>,
    /// Per slot: the slot holding its value at every observation point —
    /// its inner head or its outer head's shadow for a folded copy,
    /// itself otherwise.
    pub(crate) view: Vec<u32>,
}

/// What one node computes; operands are indices of earlier nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op<'a> {
    Lit(&'a Bits),
    Slot(usize),
    Unary(UnOp, u32),
    Binary(BinOp, u32, u32),
    /// Condition, true arm, false arm.
    Mux(u32, u32, u32),
    /// Parts `args[lo..hi]`, most significant first.
    Cat(u32, u32),
    /// Operand, `hi`, `lo`.
    Extract(u32, u32, u32),
    /// Operand, target width.
    Resize(u32, u32),
    Shl(u32, u32),
    Shr(u32, u32),
}

/// One lowered expression node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node<'a> {
    pub(crate) op: Op<'a>,
    /// Static width; `None` when it depends on runtime values.
    pub(crate) width: Option<u32>,
}

/// The nodes `lo..hi` lowered together: one definition's value, one
/// register's next value, or one write port's enable, address and data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    /// Why the unit runs on the tree walker, and the node that decides
    /// it (every node before it lowers).
    pub(crate) fallback: Option<(u32, ScalarReason)>,
}

impl Unit {
    /// The last node: the unit's value.
    pub(crate) fn root(&self) -> u32 {
        self.hi - 1
    }
}

/// One memory write port, its data committed resized to the memory's
/// width. One unit holds the enable, address and data nodes in that
/// order; `en` and `addr` are their roots, the data's is the unit's.
#[derive(Debug)]
pub(crate) struct Port {
    pub(crate) mem: usize,
    pub(crate) port: usize,
    pub(crate) en: u32,
    pub(crate) addr: u32,
    pub(crate) unit: Unit,
}

/// The elaborated netlist as one levelised, width-exact program.
#[derive(Debug, Default)]
pub(crate) struct Lowered<'a> {
    /// Declared width of every slot.
    pub(crate) widths: Vec<u32>,
    /// Per slot: every value it holds has its declared width.
    pub(crate) exact: Vec<bool>,
    pub(crate) nodes: Vec<Node<'a>>,
    /// Part lists of `Op::Cat` nodes.
    pub(crate) args: Vec<u32>,
    /// Per definition, indexed like `interp.defs`: its value, or its
    /// memory read's address (empty for an extern settle).
    pub(crate) defs: Vec<Unit>,
    /// Per schedule position: runs on every settle.
    pub(crate) always: Vec<bool>,
    /// Every register with a next value, as `(register, next value)`;
    /// the commit resizes the value to the register's width.
    pub(crate) regs: Vec<(usize, Unit)>,
    /// Write ports, memory by memory.
    pub(crate) ports: Vec<Port>,
    /// Per slot: how many definitions write it, and whether anything
    /// outside the settle sweep does (a poke of a top input, a register
    /// commit, an extern model publishing a source output).
    pub(crate) writer_count: Vec<u32>,
    pub(crate) external: Vec<bool>,
    /// slot → the schedule positions reading it, then entry `k` of
    /// `regs` as position `schedule.len() + k`.
    pub(crate) readers: Csr,
    /// memory → schedule positions of its read ports.
    pub(crate) mem_readers: Csr,
}

impl<'a> Lowered<'a> {
    /// The program a tape engine maps: [`Lowered::settled`], then each
    /// unit's fallback and the dirty-set rows.
    pub(crate) fn new(interp: &'a Interpreter) -> Lowered<'a> {
        let mut p = Lowered::settled(interp);
        let n_slots = p.widths.len();

        // A unit writing an inexact slot falls back before its first node.
        for (di, d) in interp.defs.iter().enumerate() {
            if !matches!(d.kind, DefKind::ExternComb { .. }) {
                p.defs[di].fallback = p.fallback(&p.defs[di], p.exact[d.writes[0]]);
            }
        }
        for k in 0..p.regs.len() {
            let (ri, unit) = p.regs[k];
            p.regs[k].1.fallback = p.fallback(&unit, p.exact[interp.regs[ri].slot]);
        }
        for k in 0..p.ports.len() {
            p.ports[k].unit.fallback = p.fallback(&p.ports[k].unit, true);
        }

        // Reader rows as `(slot or memory, position)` pairs, one per slot
        // a position reads.
        let (mut readers, mut mem_readers) = (Vec::new(), Vec::new());
        let mut seen = vec![u32::MAX; n_slots];
        let mut read = |s: usize, pos: u32| {
            if std::mem::replace(&mut seen[s], pos) != pos {
                readers.push((s as u32, pos));
            }
        };
        for (pos, &di) in interp.schedule.iter().enumerate() {
            let d = &interp.defs[di];
            for &r in &d.reads {
                read(r, pos as u32);
            }
            if let DefKind::MemRead { mem, .. } = d.kind {
                mem_readers.push((mem as u32, pos as u32));
            }
            // Models may be stateful. A slot with several writers keeps
            // last-writer-wins order only if all of them run, and one also
            // written from outside the sweep (a poke, say) must be
            // overwritten by its definition exactly when the reference
            // engine would.
            let extern_settle = matches!(d.kind, DefKind::ExternComb { .. });
            let forced = d
                .writes
                .iter()
                .any(|&w| p.writer_count[w] > 1 || p.external[w]);
            p.always.push(extern_settle || forced);
        }
        for (k, (_, next)) in p.regs.iter().enumerate() {
            let pos = (interp.schedule.len() + k) as u32;
            for n in &p.nodes[next.lo as usize..next.hi as usize] {
                if let Op::Slot(s) = n.op {
                    read(s, pos);
                }
            }
        }
        p.readers = Csr::from_pairs(n_slots, &readers);
        p.mem_readers = Csr::from_pairs(interp.mems.len(), &mem_readers);
        p
    }

    /// Every expression flattened, with static widths, the slots'
    /// exactness and the writer counts settled; no fallbacks or rows yet.
    pub(crate) fn settled(interp: &'a Interpreter) -> Lowered<'a> {
        let n_slots = interp.slots.len();
        let mut p = Lowered {
            widths: interp.slots.iter().map(|b| b.width().get()).collect(),
            exact: vec![true; n_slots],
            defs: Vec::with_capacity(interp.defs.len()),
            always: Vec::with_capacity(interp.schedule.len()),
            writer_count: vec![0; n_slots],
            external: vec![false; n_slots],
            ..Lowered::default()
        };

        // Flatten every expression: definitions in elaboration order (the
        // compiled engine's constant pool follows node order), then
        // register next-values, then write ports.
        let since = |p: &Lowered, lo| Unit {
            lo,
            hi: p.nodes.len() as u32,
            fallback: None,
        };
        let sources = interp.externs.iter().flat_map(|e| &e.source_output_slots);
        for &(_, s) in interp.top_inputs.iter().chain(sources) {
            p.external[s] = true;
        }
        let stack = &mut Vec::new();
        for d in &interp.defs {
            for &w in &d.writes {
                p.writer_count[w] += 1;
            }
            let lo = p.nodes.len() as u32;
            if let DefKind::Expr(e) | DefKind::MemRead { addr: e, .. } = &d.kind {
                p.flatten(e, stack);
            }
            p.defs.push(since(&p, lo));
        }
        for (ri, r) in interp.regs.iter().enumerate() {
            p.external[r.slot] = true;
            if let Some(next) = &r.next {
                let lo = p.nodes.len() as u32;
                p.flatten(next, stack);
                p.regs.push((ri, since(&p, lo)));
            }
        }
        for (mem, m) in interp.mems.iter().enumerate() {
            for (port, (addr, data, en)) in m.writes.iter().enumerate() {
                let lo = p.nodes.len() as u32;
                let (en, addr) = (p.flatten(en, stack), p.flatten(addr, stack));
                p.flatten(data, stack);
                let unit = since(&p, lo);
                p.ports.push(Port {
                    mem,
                    port,
                    en,
                    addr,
                    unit,
                });
            }
        }

        // The exactness fixpoint. It only ever demotes, so it ends.
        loop {
            for i in 0..p.nodes.len() {
                p.nodes[i].width = p.width(p.nodes[i].op);
            }
            let mut changed = false;
            for (d, u) in interp.defs.iter().zip(&p.defs) {
                let s = match d.kind {
                    DefKind::Expr(_) => d.writes[0],
                    _ => continue,
                };
                if p.exact[s] && p.width_of(u.root()) != Some(p.widths[s]) {
                    p.exact[s] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        p
    }

    /// Appends `e`'s nodes in post-order; returns its root. `stack`
    /// holds the parts of the cats being flattened.
    fn flatten(&mut self, e: &'a CExpr, stack: &mut Vec<u32>) -> u32 {
        let op = match e {
            CExpr::Lit(b) => Op::Lit(b),
            CExpr::Slot(s) => Op::Slot(*s),
            CExpr::Unary(op, a) => Op::Unary(*op, self.flatten(a, stack)),
            CExpr::Binary(op, a, b) => {
                let a = self.flatten(a, stack);
                Op::Binary(*op, a, self.flatten(b, stack))
            }
            CExpr::Mux(c, t, f) => {
                let c = self.flatten(c, stack);
                let t = self.flatten(t, stack);
                Op::Mux(c, t, self.flatten(f, stack))
            }
            CExpr::Cat(parts) => {
                let base = stack.len();
                for p in parts {
                    let root = self.flatten(p, stack);
                    stack.push(root);
                }
                let lo = self.args.len() as u32;
                self.args.extend(stack.drain(base..));
                Op::Cat(lo, self.args.len() as u32)
            }
            CExpr::Extract(a, hi, lo) => Op::Extract(self.flatten(a, stack), *hi, *lo),
            CExpr::Resize(a, w) => Op::Resize(self.flatten(a, stack), w.get()),
            CExpr::Shl(a, n) => Op::Shl(self.flatten(a, stack), *n),
            CExpr::Shr(a, n) => Op::Shr(self.flatten(a, stack), *n),
        };
        self.nodes.push(Node { op, width: None });
        self.nodes.len() as u32 - 1
    }

    /// The static width of node `i`.
    pub(crate) fn width_of(&self, i: u32) -> Option<u32> {
        self.nodes[i as usize].width
    }

    /// The width `op` produces from its operands' widths: the rules of
    /// [`CExpr::eval`], under the current exactness.
    fn width(&self, op: Op<'_>) -> Option<u32> {
        let w = |i| self.width_of(i);
        match op {
            Op::Lit(b) => Some(b.width().get()),
            Op::Slot(s) => self.exact[s].then(|| self.widths[s]),
            Op::Unary(UnOp::Not, a) | Op::Shl(a, _) | Op::Shr(a, _) => w(a),
            Op::Unary(..)
            | Op::Binary(
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Leq | BinOp::Gt | BinOp::Geq,
                ..,
            ) => Some(1),
            Op::Binary(_, a, b) => Some(w(a)?.max(w(b)?)),
            // The taken arm's width; the condition's never reaches it.
            Op::Mux(_, t, f) => {
                let wt = w(t)?;
                (w(f)? == wt).then_some(wt)
            }
            Op::Cat(lo, hi) => self.args[lo as usize..hi as usize]
                .iter()
                .map(|&p| w(p))
                .sum(),
            // What every completed evaluation produces: one past its
            // operand's width panics instead.
            Op::Extract(_, hi, lo) => Some(hi - lo + 1),
            Op::Resize(_, w) => Some(w),
        }
    }

    /// Why node `i` has a runtime-dependent width (or, for an extract
    /// past its operand, panics), when its operands do not.
    fn fault(&self, i: u32) -> Option<ScalarReason> {
        let w = |i| self.width_of(i);
        match self.nodes[i as usize].op {
            Op::Slot(s) if !self.exact[s] => Some(ScalarReason::InexactSlot),
            Op::Mux(_, t, f) if w(t).zip(w(f)).is_some_and(|(t, f)| t != f) => {
                Some(ScalarReason::MuxArmWidths)
            }
            Op::Extract(a, hi, _) if w(a).is_some_and(|wa| hi >= wa) => {
                Some(ScalarReason::ExtractOutOfRange)
            }
            _ => None,
        }
    }

    /// Why `unit` runs on the tree walker, and where: before its first
    /// node when its destination is inexact, else at its first node with
    /// a runtime-dependent width.
    fn fallback(&self, unit: &Unit, exact_dest: bool) -> Option<(u32, ScalarReason)> {
        if !exact_dest {
            return Some((unit.lo, ScalarReason::InexactSlot));
        }
        (unit.lo..unit.hi).find_map(|i| Some((i, self.fault(i)?)))
    }

    /// The slot `unit` copies at its own width, when that is all it
    /// does: a slot read, through resizes to the slot's own width and
    /// one-part cats, whose values are the slot's.
    pub(crate) fn copy_of(&self, unit: &Unit) -> Option<usize> {
        if unit.fallback.is_some() {
            return None;
        }
        let mut i = unit.root();
        loop {
            match self.nodes[i as usize].op {
                Op::Slot(s) => return Some(s),
                Op::Resize(a, w) if self.width_of(a) == Some(w) => i = a,
                Op::Cat(lo, hi) if hi - lo == 1 => i = self.args[lo as usize],
                _ => return None,
            }
        }
    }

    /// The copies the compiled engine folds, grouped by head in schedule
    /// order (see [`Copies`]). A copy's source can head it when nothing
    /// writes the source, or one unforced program other than an extern
    /// settle does (a folded copy included); schedule order puts every
    /// source before its copies.
    pub(crate) fn copies(&self, interp: &Interpreter) -> Copies {
        let n_slots = self.widths.len();
        let mut by_extern = vec![false; n_slots];
        for d in &interp.defs {
            if let DefKind::ExternComb { .. } = d.kind {
                for &w in &d.writes {
                    by_extern[w] = true;
                }
            }
        }
        let can_head = |x: usize| {
            let n = self.writer_count[x];
            n == 0 || (n == 1 && !self.external[x] && !by_extern[x])
        };
        let mut c = Copies {
            folded: vec![false; interp.schedule.len()],
            head: vec![NO_COPY; n_slots],
            view: (0..n_slots as u32).collect(),
        };
        let mut shadow = vec![NO_COPY; n_slots];
        for (pos, &di) in interp.schedule.iter().enumerate() {
            let d = &interp.defs[di];
            let DefKind::Expr(_) = d.kind else {
                continue;
            };
            let y = d.writes[0];
            if self.always[pos] || !self.exact[y] || self.widths[y] > 64 {
                continue;
            }
            let Some(x) = self.copy_of(&self.defs[di]).filter(|&x| can_head(x)) else {
                continue;
            };
            let h = if c.head[x] == NO_COPY {
                x
            } else {
                c.head[x] as usize
            };
            c.folded[pos] = true;
            c.head[y] = h as u32;
            c.view[y] = if self.writer_count[h] != 0 {
                h as u32
            } else {
                if shadow[h] == NO_COPY {
                    shadow[h] = y as u32;
                }
                shadow[h]
            };
        }
        c
    }

    /// The slots `unit` reads, sorted: a fallback's gather list.
    pub(crate) fn reads(&self, unit: &Unit) -> Vec<u32> {
        let mut reads: Vec<u32> = self.nodes[unit.lo as usize..unit.hi as usize]
            .iter()
            .filter_map(|n| match n.op {
                Op::Slot(s) => Some(s as u32),
                _ => None,
            })
            .collect();
        reads.sort_unstable();
        reads.dedup();
        reads
    }
}
