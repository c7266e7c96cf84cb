//! The harness's own clock and span recorder.
//!
//! Spans are recorded from outside the program: around the harness's
//! calls into each layer's public functions. They are kept in memory
//! (name, start, end, parent) and written as Chrome-trace JSON when the
//! run ends. Disabled, [`Tracer::timed`] still times the call — the
//! end-to-end numbers come from those untraced runs — but records
//! nothing.
//!
//! Every duration the harness reports is in *reference-clock* seconds.
//! The reference box is a shared VM whose cores flip between discrete
//! speed levels up to 28 % apart, for tens of milliseconds to tens of
//! seconds at a time, with its neighbours' load: medians of identical
//! single-threaded 10 s runs spread 23 % as measured. So each operation
//! is preceded by [`Tracer::calibrate`], a fixed chain of dependent
//! multiplies — a software cycle counter — and everything timed until
//! the next calibration is scaled by `REFERENCE_PROBE_S / probe time`:
//! what the operation would have taken at the reference box's undisturbed
//! clock. The same runs then spread 1.5 %. The Chrome trace keeps the raw
//! timeline and carries each span's scale in `args.clock_scale`.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `crate.module[.function]`.
    pub name: &'static str,
    /// Which input the call ran on (a design name).
    pub tag: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Reference-clock seconds per measured second while it ran.
    pub scale: f64,
}

/// Iterations of the calibration probe (≈ 0.7 ms).
const PROBE_ITERATIONS: u64 = 400_000;

/// What the probe takes on the reference box when nothing disturbs it:
/// the definition of the reference clock.
const REFERENCE_PROBE_S: f64 = 720e-6;

/// Records spans on the harness thread (all calls into the program are
/// made from it; the program's own threads are the system under test).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    scale: Cell<f64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only times (`!on`).
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            scale: Cell::new(1.0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Samples the core's current speed: everything timed from here to
    /// the next call is scaled to the reference clock by it.
    pub fn calibrate(&self) {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..black_box(PROBE_ITERATIONS) {
            x = (x ^ (x >> 30))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
        black_box(x);
        self.scale
            .set(REFERENCE_PROBE_S / t.elapsed().as_secs_f64());
    }

    /// Reference-clock seconds per measured second, as last calibrated:
    /// the factor for host times the harness reads by other means
    /// (`getrusage`, times the program reports).
    pub fn scale(&self) -> f64 {
        self.scale.get()
    }

    /// Runs `f`, returning its result and its wall time in reference-clock
    /// seconds; when tracing is on the interval is also recorded as a span
    /// named `name`, child of whichever span is open.
    pub fn timed<T>(&self, name: &'static str, tag: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let scale = self.scale.get();
        if !self.on {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_secs_f64() * scale);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                tag: tag.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.borrow().last().copied(),
                scale,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9 * scale)
    }

    /// Durations (reference-clock seconds) of every recorded span called
    /// `name` on `tag`.
    pub fn durations(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9 * s.scale)
            .collect()
    }

    /// Writes every span as a Chrome-trace "complete" event. `self_us`
    /// (duration minus the part covered by child spans) rides in `args`,
    /// so a layer's own cost is readable without subtracting by hand.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"input\": \"{}\", \"id\": {i}, \"parent\": {}, \
                 \"self_us\": {:.3}, \"clock_scale\": {:.4}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                dur as f64 / 1e3,
                s.tag,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                (dur - child_ns[i].min(dur)) as f64 / 1e3,
                s.scale,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
