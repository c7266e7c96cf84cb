//! VCD (Value Change Dump) waveform export over model time.
//!
//! The writer collects `(time, signal, value)` changes in any order —
//! the simulation engine records each node's watched signals as that
//! node's target clock advances, and nodes advance independently — and
//! renders a deterministic, byte-stable VCD document at the end:
//! changes are stably sorted by `(time, signal index)` and consecutive
//! identical values per signal are elided. One VCD time unit is one
//! target cycle (`$timescale 1 ns`).

use fireaxe_ir::Bits;

fireaxe_ir::wire_struct! {
    /// One watched signal: a scope (typically the node name), the signal's
    /// hierarchical path inside the scope, and its width in bits.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct VcdSignal {
        /// Enclosing scope, e.g. the partition-thread (node) name.
        pub scope: String,
        /// Signal path within the scope.
        pub name: String,
        /// Width in bits.
        pub width: u32,
    }
}

/// Collects value changes and renders a VCD document.
#[derive(Debug)]
pub struct VcdWriter {
    signals: Vec<VcdSignal>,
    changes: Vec<(u64, u32, Bits)>,
}

/// Short VCD identifier code for signal index `i` (base-94 over the
/// printable ASCII range `!`..`~`).
fn id_code(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

/// Formats a value change for `sig` at identifier `id`.
fn fmt_change(value: &Bits, width: u32, id: &str, out: &mut String) {
    if width == 1 {
        out.push(if value.bit(0) { '1' } else { '0' });
        out.push_str(id);
    } else {
        out.push('b');
        let mut leading = true;
        for i in (0..width).rev() {
            let b = value.bit(i);
            if leading && !b && i != 0 {
                continue;
            }
            leading = false;
            out.push(if b { '1' } else { '0' });
        }
        out.push(' ');
        out.push_str(id);
    }
    out.push('\n');
}

impl VcdWriter {
    /// Starts a dump over the given signal set. Signal order fixes the
    /// identifier codes and the header layout, so a stable signal list
    /// yields byte-identical output for identical change sets.
    pub fn new(signals: Vec<VcdSignal>) -> Self {
        VcdWriter {
            signals,
            changes: Vec::new(),
        }
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Records that signal `sig` (index into the constructor's list)
    /// held `value` from time `time` on. Calls may arrive in any order
    /// across signals; per signal, times must be distinct (the last
    /// record wins is *not* guaranteed — duplicates are kept and elided
    /// only if equal).
    pub fn change(&mut self, time: u64, sig: u32, value: Bits) {
        debug_assert!((sig as usize) < self.signals.len(), "signal index in range");
        self.changes.push((time, sig, value));
    }

    /// Renders the complete VCD document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256 + self.changes.len() * 12);
        out.push_str("$comment fireaxe-obs $end\n");
        out.push_str("$timescale 1 ns $end\n");
        // Scoped declarations, in signal order; a new `$scope` opens
        // whenever the scope name changes.
        let mut open: Option<&str> = None;
        for (i, s) in self.signals.iter().enumerate() {
            if open != Some(s.scope.as_str()) {
                if open.is_some() {
                    out.push_str("$upscope $end\n");
                }
                out.push_str("$scope module ");
                out.push_str(&s.scope);
                out.push_str(" $end\n");
                open = Some(s.scope.as_str());
            }
            out.push_str(&format!(
                "$var wire {} {} {} $end\n",
                s.width,
                id_code(i),
                s.name
            ));
        }
        if open.is_some() {
            out.push_str("$upscope $end\n");
        }
        out.push_str("$enddefinitions $end\n");
        out.push_str("$dumpvars\n");
        for (i, s) in self.signals.iter().enumerate() {
            if s.width == 1 {
                out.push('x');
                out.push_str(&id_code(i));
            } else {
                out.push_str("bx ");
                out.push_str(&id_code(i));
            }
            out.push('\n');
        }
        out.push_str("$end\n");

        let mut ordered = self.changes.clone();
        ordered.sort_by_key(|&(t, s, _)| (t, s));
        let mut last: Vec<Option<&Bits>> = vec![None; self.signals.len()];
        let mut cur_time: Option<u64> = None;
        for (t, s, v) in &ordered {
            let si = *s as usize;
            if last[si] == Some(v) {
                continue;
            }
            if cur_time != Some(*t) {
                out.push_str(&format!("#{t}\n"));
                cur_time = Some(*t);
            }
            fmt_change(v, self.signals[si].width, &id_code(si), &mut out);
            last[si] = Some(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_distinct_and_printable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            let id = id_code(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn render_is_order_independent_and_elides_repeats() {
        let sigs = vec![
            VcdSignal {
                scope: "tile".into(),
                name: "acc".into(),
                width: 8,
            },
            VcdSignal {
                scope: "rest".into(),
                name: "valid".into(),
                width: 1,
            },
        ];
        let mut a = VcdWriter::new(sigs.clone());
        a.change(0, 0, Bits::from_u64(5, 8));
        a.change(1, 0, Bits::from_u64(5, 8)); // elided
        a.change(2, 0, Bits::from_u64(6, 8));
        a.change(0, 1, Bits::from_u64(1, 1));
        let mut b = VcdWriter::new(sigs);
        // Same changes, interleaved differently.
        b.change(0, 1, Bits::from_u64(1, 1));
        b.change(2, 0, Bits::from_u64(6, 8));
        b.change(0, 0, Bits::from_u64(5, 8));
        b.change(1, 0, Bits::from_u64(5, 8));
        let ra = a.render();
        assert_eq!(ra, b.render());
        assert!(ra.contains("$scope module tile $end"));
        assert!(ra.contains("$var wire 8 ! acc $end"));
        assert!(ra.contains("b101 !"));
        assert!(ra.contains("b110 !"));
        assert!(ra.contains("1\""));
        // The elided repeat leaves no #1 timestamp.
        assert!(!ra.contains("#1\n"));
    }
}
