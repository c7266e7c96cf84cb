//! Streaming delta-VCD: incremental waveform frames for the live
//! cockpit.
//!
//! The batch [`VcdWriter`] collects every change
//! of a run and renders one document at the end — useless for watching
//! a *running* simulation. This module splits that pipeline into a
//! producer half and a consumer half that meet over the wire:
//!
//! * [`DeltaVcdEncoder`] sits where the changes are recorded (a worker
//!   process, or an in-process backend between run segments) and turns
//!   the raw per-node change log into **delta frames**: only signals
//!   whose value actually differs from the last emitted value, in
//!   recording order. Frames are incrementally flushable — encode the
//!   new tail of the change log whenever you like.
//! * [`DeltaVcdReassembler`] sits at the attached client and replays
//!   frames into an ordinary `VcdWriter`; [`DeltaVcdReassembler::render`]
//!   then produces a document **byte-identical** to a batch writer fed
//!   the full change log of the same run.
//!
//! Why elision commutes with reassembly: per signal, changes are
//! recorded in increasing target-cycle order (a signal belongs to one
//! node and that node's clock only moves forward), and the batch
//! renderer's stable `(time, signal)` sort never reorders one signal's
//! changes. So dropping a value equal to the signal's previous value
//! here removes exactly the records the renderer would have elided
//! anyway — the rendered bytes cannot tell the difference. That is the
//! property the `delta_vcd` golden tests pin for all three backends.

use crate::chrome::escape;
use crate::metrics::NodeSample;
use crate::vcd::{VcdSignal, VcdWriter};
use fireaxe_ir::Bits;

/// One recorded waveform change: `(target cycle, signal index, value)`.
/// Signal indices refer to the shared [`VcdSignal`] table both ends of
/// the stream were built from.
pub type WaveChange = (u64, u32, Bits);

/// Producer half of the streaming waveform pipeline: turns a raw change
/// log into only-what-changed delta frames.
#[derive(Debug)]
pub struct DeltaVcdEncoder {
    /// Last emitted value per signal index.
    last: Vec<Option<Bits>>,
}

impl DeltaVcdEncoder {
    /// An encoder over `signal_count` watched signals (the length of the
    /// shared [`VcdSignal`] table).
    pub fn new(signal_count: usize) -> Self {
        DeltaVcdEncoder {
            last: vec![None; signal_count],
        }
    }

    /// Encodes a batch of raw recorded changes (the new tail of a change
    /// log) into a delta frame, dropping every change whose value equals
    /// the signal's last emitted value. Call with successive tails;
    /// per-signal ordering inside and across calls must follow recording
    /// order, which the engine's monotonic node clocks guarantee.
    pub fn encode(&mut self, changes: &[WaveChange]) -> Vec<WaveChange> {
        let mut frame = Vec::new();
        for (t, s, v) in changes {
            let si = *s as usize;
            debug_assert!(si < self.last.len(), "signal index in range");
            if self.last[si].as_ref() == Some(v) {
                continue;
            }
            self.last[si] = Some(v.clone());
            frame.push((*t, *s, v.clone()));
        }
        frame
    }
}

/// Consumer half: replays delta frames into a [`VcdWriter`] so the
/// reassembled document is byte-identical to a batch dump of the same
/// run.
#[derive(Debug)]
pub struct DeltaVcdReassembler {
    writer: VcdWriter,
    frames: u64,
}

impl DeltaVcdReassembler {
    /// A reassembler over the shared signal table. The table must be the
    /// byte-for-byte same list the producer's run was built with —
    /// identifier codes and header layout derive from it.
    pub fn new(signals: Vec<VcdSignal>) -> Self {
        DeltaVcdReassembler {
            writer: VcdWriter::new(signals),
            frames: 0,
        }
    }

    /// Applies one delta frame, in stream order.
    pub fn apply(&mut self, frame: &[WaveChange]) {
        for (t, s, v) in frame {
            self.writer.change(*t, *s, v.clone());
        }
        self.frames += 1;
    }

    /// Frames applied so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Renders the reassembled VCD document.
    pub fn render(&self) -> String {
        self.writer.render()
    }
}

/// A [`Bits`] value as a `0x…` hex literal (for JSON streaming, where a
/// wide value does not fit a JSON number).
fn bits_hex(v: &Bits) -> String {
    let words = v.as_words();
    let mut s = String::from("0x");
    let mut leading = true;
    for w in words.iter().rev() {
        if leading {
            if *w == 0 && words.len() > 1 {
                continue;
            }
            s.push_str(&format!("{w:x}"));
            leading = false;
        } else {
            s.push_str(&format!("{w:016x}"));
        }
    }
    if leading {
        s.push('0');
    }
    s
}

/// One newline-delimited JSON line describing a wave delta frame, for
/// the cockpit's `--serve-http` browser stream. Values are hex strings
/// so arbitrary widths survive; `sig` indexes the shared signal table
/// the stream's first `signals` line declared.
pub fn wave_delta_json(signals: &[VcdSignal], frame: &[WaveChange]) -> String {
    let mut s = String::from("{\"type\":\"wave\",\"changes\":[");
    for (i, (t, sig, v)) in frame.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let name = signals
            .get(*sig as usize)
            .map(|d| format!("{}:{}", d.scope, d.name))
            .unwrap_or_default();
        s.push_str(&format!("{{\"cycle\":{t},\"sig\":{sig},\"name\":\""));
        escape(&name, &mut s);
        s.push_str(&format!("\",\"value\":\"{}\"}}", bits_hex(v)));
    }
    s.push_str("]}");
    s
}

/// One newline-delimited JSON line declaring the shared signal table
/// (sent once at the head of an HTTP stream so `sig` indices resolve).
pub fn signal_table_json(signals: &[VcdSignal]) -> String {
    let mut s = String::from("{\"type\":\"signals\",\"signals\":[");
    for (i, d) in signals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"sig\":{i},\"scope\":\""));
        escape(&d.scope, &mut s);
        s.push_str("\",\"name\":\"");
        escape(&d.name, &mut s);
        s.push_str(&format!("\",\"width\":{}}}", d.width));
    }
    s.push_str("]}");
    s
}

/// One newline-delimited JSON line describing a metric delta frame (new
/// samples of one node's series).
pub fn metric_delta_json(node: &str, samples: &[NodeSample]) -> String {
    let mut s = String::from("{\"type\":\"metrics\",\"node\":\"");
    escape(node, &mut s);
    s.push_str("\",\"samples\":[");
    for (i, m) in samples.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"cycle\":{},\"host_cycles\":{},\"tokens_enqueued\":{},\"tokens_dequeued\":{},\
             \"queue_occupancy\":{},\"state_digest\":{}}}",
            m.cycle,
            m.host_cycles,
            m.tokens_enqueued,
            m.tokens_dequeued,
            m.queue_occupancy,
            m.state_digest
        ));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs() -> Vec<VcdSignal> {
        vec![
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
        ]
    }

    /// The module invariant: stream (encode tails → apply frames →
    /// render) equals batch (all changes → render), byte for byte, even
    /// when the log carries elidable repeats and the tails split at
    /// awkward places.
    #[test]
    fn streamed_deltas_reassemble_byte_identical() {
        let log: Vec<WaveChange> = vec![
            (0, 0, Bits::from_u64(5, 8)),
            (0, 1, Bits::from_u64(1, 1)),
            (1, 0, Bits::from_u64(5, 8)), // repeat: elided by both paths
            (1, 1, Bits::from_u64(1, 1)), // repeat
            (2, 0, Bits::from_u64(6, 8)),
            (3, 1, Bits::from_u64(0, 1)),
            (4, 0, Bits::from_u64(6, 8)), // repeat
            (5, 0, Bits::from_u64(7, 8)),
        ];
        let mut batch = VcdWriter::new(sigs());
        for (t, s, v) in &log {
            batch.change(*t, *s, v.clone());
        }

        for split in 0..log.len() {
            let mut enc = DeltaVcdEncoder::new(2);
            let mut re = DeltaVcdReassembler::new(sigs());
            re.apply(&enc.encode(&log[..split]));
            re.apply(&enc.encode(&log[split..]));
            assert_eq!(re.render(), batch.render(), "split at {split}");
        }
    }

    /// Delta frames carry only genuinely changed values.
    #[test]
    fn encoder_drops_unchanged_values() {
        let mut enc = DeltaVcdEncoder::new(1);
        let f1 = enc.encode(&[(0, 0, Bits::from_u64(3, 8))]);
        assert_eq!(f1.len(), 1);
        let f2 = enc.encode(&[(1, 0, Bits::from_u64(3, 8))]);
        assert!(f2.is_empty(), "unchanged value must be elided");
        let f3 = enc.encode(&[(2, 0, Bits::from_u64(4, 8))]);
        assert_eq!(f3.len(), 1);
    }

    #[test]
    fn json_lines_are_wellformed() {
        let frame = vec![(7, 0, Bits::from_u64(0xAB, 8))];
        let j = wave_delta_json(&sigs(), &frame);
        assert!(j.starts_with("{\"type\":\"wave\""));
        assert!(j.contains("\"cycle\":7"));
        assert!(j.contains("\"name\":\"tile:acc\""));
        assert!(j.contains("\"value\":\"0xab\""));
        let t = signal_table_json(&sigs());
        assert!(t.contains("\"scope\":\"tile\""));
        assert!(t.contains("\"width\":1"));
        let m = metric_delta_json(
            "tile0",
            &[NodeSample {
                cycle: 9,
                state_digest: 42,
                ..Default::default()
            }],
        );
        assert!(m.contains("\"node\":\"tile0\""));
        assert!(m.contains("\"cycle\":9"));
        assert!(m.contains("\"state_digest\":42"));
    }
}
