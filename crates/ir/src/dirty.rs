//! Dirty-set bookkeeping shared by the two tape engines.
//!
//! The compiled tape ([`crate::exec`]) and the bit-sliced tape
//! ([`crate::slice`]) skip work the same way: at build time each records,
//! per slot, which of its programs read it ([`Csr`] rows), and at run
//! time a write that moves a slot marks that row in a `dirty` vector.
//! Which writers may never be skipped is decided once, here
//! ([`SlotWriters::forced`]).

use crate::interp::Interpreter;

/// Compressed rows: row `i` is `idx[off[i]..off[i + 1]]`.
#[derive(Debug)]
pub(crate) struct Csr {
    pub(crate) off: Vec<u32>,
    pub(crate) idx: Vec<u32>,
}

impl Csr {
    pub(crate) fn new(rows: &[Vec<u32>]) -> Csr {
        let mut off = Vec::with_capacity(rows.len() + 1);
        off.push(0);
        for r in rows {
            off.push(off[off.len() - 1] + r.len() as u32);
        }
        Csr {
            off,
            idx: rows.concat(),
        }
    }

    /// Marks every position in row `i` dirty.
    #[inline]
    pub(crate) fn mark(&self, i: usize, dirty: &mut [bool]) {
        for &p in &self.idx[self.off[i] as usize..self.off[i + 1] as usize] {
            dirty[p as usize] = true;
        }
    }
}

/// Who writes each slot: how many definitions, and whether anything
/// outside the settle sweep does (a poke of a top input, a register
/// commit, an extern model publishing a source output).
#[derive(Debug)]
pub(crate) struct SlotWriters {
    /// Definitions writing each slot.
    pub(crate) count: Vec<u32>,
    /// Slots written from outside the sweep.
    pub(crate) external: Vec<bool>,
}

impl SlotWriters {
    pub(crate) fn new(interp: &Interpreter) -> SlotWriters {
        let n = interp.slots.len();
        let mut count = vec![0u32; n];
        for d in &interp.defs {
            for &w in &d.writes {
                count[w] += 1;
            }
        }
        let mut external = vec![false; n];
        for (_, s) in &interp.top_inputs {
            external[*s] = true;
        }
        for r in &interp.regs {
            external[r.slot] = true;
        }
        for e in &interp.externs {
            for (_, s) in &e.source_output_slots {
                external[*s] = true;
            }
        }
        SlotWriters { count, external }
    }

    /// Whether a definition writing `writes` must run on every settle: a
    /// slot with several writers keeps last-writer-wins order only if all
    /// of them run, and a slot also written from outside the sweep (a
    /// poke, say) must be overwritten by its definition exactly when the
    /// reference engine would.
    pub(crate) fn forced(&self, writes: &[usize]) -> bool {
        writes
            .iter()
            .any(|&w| self.count[w] > 1 || self.external[w])
    }
}
