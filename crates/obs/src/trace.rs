//! Lock-free per-thread ring-buffer event tracer.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Every recording macro checks one
//!    relaxed atomic load before evaluating any argument; the disabled
//!    path performs no allocation, takes no lock, and touches no
//!    thread-local. The `interp_bench` counting-allocator gate enforces
//!    this.
//! 2. **No heap allocation on the hot path when enabled.** Each thread
//!    owns a fixed-capacity ring of plain-old-data events (names are
//!    `&'static str`), allocated once on first use. When the ring is
//!    full the oldest event is overwritten and the ring's own drop
//!    counter bumps; it joins the global count when the ring is flushed.
//! 3. **No locks on the hot path.** The only synchronization is the
//!    enable flag and the epoch; the global sink mutex is taken only at
//!    flush time (explicit [`flush_thread`], thread exit, or
//!    [`take_events`]).
//! 4. **The cheapest clock that keeps time, read as seldom as it can
//!    be.** A span costs two clock reads, and a traced settle loop opens
//!    one per target cycle. Where the kernel itself keeps time by the
//!    x86-64 time-stamp counter, events are stamped with the raw counter
//!    (about half the cost of reading an `Instant`) and turned into
//!    nanoseconds since the epoch when their ring is flushed; elsewhere
//!    they are stamped from `Instant` directly. Back-to-back spans, such
//!    as one per cycle, share each boundary's stamp through a
//!    [`SpanSeq`]: one clock read and one ring slot a span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Records each thread-local ring can hold before overwriting the
/// oldest: one per event, or one per boundary of a [`SpanSeq`] (the end
/// of one span and the begin of the next).
pub const RING_CAPACITY: usize = 1 << 14;

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Start of a named span (Chrome `ph:B`).
    SpanBegin,
    /// End of the innermost span with the same name (Chrome `ph:E`).
    SpanEnd,
    /// A point event (Chrome `ph:i`).
    Instant,
    /// A named counter sample carrying a value (Chrome `ph:C`).
    Counter,
}

fireaxe_ir::wire_enum!(EventKind, "event kind" {
    0 => SpanBegin, 1 => SpanEnd, 2 => Instant, 3 => Counter,
});

/// One recorded event. Plain old data: recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Static event name.
    pub name: &'static str,
    /// Event kind.
    pub kind: EventKind,
    /// Host time, nanoseconds since the tracer epoch (first enable).
    pub host_ns: u64,
    /// Virtual time, picoseconds (0 when the recorder has no virtual
    /// clock, e.g. the threaded backend).
    pub virt_ps: u64,
    /// Counter value ([`EventKind::Counter`] only; 0 otherwise).
    pub value: f64,
    /// Small dense id of the recording thread.
    pub tid: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Epoch> = OnceLock::new();

/// The tracer's time origin and the clock its events are stamped with.
struct Epoch {
    at: Instant,
    /// The time-stamp counter at `at`, when events are stamped by it.
    tsc: Option<u64>,
}

impl Epoch {
    fn new() -> Epoch {
        let tsc = tsc_keeps_time().then(read_tsc);
        Epoch {
            at: Instant::now(),
            tsc,
        }
    }

    /// An event stamp: counter ticks, or nanoseconds since the epoch.
    #[inline]
    fn stamp(&self) -> u64 {
        match self.tsc {
            Some(_) => read_tsc(),
            None => self.ns(),
        }
    }

    fn ns(&self) -> u64 {
        self.at.elapsed().as_nanos() as u64
    }

    /// Turns the stamps of `events` into nanoseconds since the epoch,
    /// at the counter's rate over the whole time since the epoch.
    fn stamps_to_ns(&self, events: &mut [TraceEvent]) {
        let Some(t0) = self.tsc else { return };
        let (ticks, ns) = (read_tsc().saturating_sub(t0), self.ns());
        let ns_per_tick = ns as f64 / ticks.max(1) as f64;
        for e in events {
            e.host_ns = (e.host_ns.saturating_sub(t0) as f64 * ns_per_tick) as u64;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn read_tsc() -> u64 {
    // SAFETY: `rdtsc` reads a counter; it has no preconditions on x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn read_tsc() -> u64 {
    0
}

/// Whether the kernel keeps time by the time-stamp counter, which it
/// does only when the counter runs at a constant rate and agrees across
/// CPUs.
fn tsc_keeps_time() -> bool {
    cfg!(target_arch = "x86_64")
        && std::fs::read_to_string(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource",
        )
        .is_ok_and(|s| s.trim() == "tsc")
}

fn sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Globally enables or disables tracing. The epoch is pinned at the
/// first enable so `host_ns` stamps are comparable across threads.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Epoch::new);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled. The macros check this before
/// evaluating any argument; it compiles to one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Events overwritten because a thread ring was full, counted when each
/// ring was last flushed.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// An event stamp (see [`Epoch::stamp`]); `0` before the first enable.
#[inline]
fn stamp() -> u64 {
    EPOCH.get().map_or(0, Epoch::stamp)
}

/// Host time in nanoseconds since the tracer epoch — `0` until tracing
/// is first enabled. Used to stamp metric samples with the same clock
/// the trace events carry.
pub fn host_ns() -> u64 {
    EPOCH.get().map_or(0, Epoch::ns)
}

/// One ring slot: an event without its thread id (set when the ring
/// drains), or the boundary between two spans of a [`SpanSeq`].
#[derive(Debug, Clone, Copy)]
struct Rec {
    name: &'static str,
    /// `None` marks a [`SpanSeq`] boundary, which drains as the end of
    /// one span and the begin of the next, both at `stamp`.
    kind: Option<EventKind>,
    stamp: u64,
    virt_ps: u64,
    value: f64,
}

impl Rec {
    /// How many events the record drains as.
    fn events(&self) -> u64 {
        if self.kind.is_some() {
            1
        } else {
            2
        }
    }
}

/// Fixed-capacity overwrite-oldest ring of records.
struct Ring {
    buf: Vec<Rec>,
    start: usize,
    len: usize,
    tid: u64,
    /// Events recorded since the last drain, which counts those of them
    /// overwritten: a plain count, so a full ring's hot path has no
    /// atomic and reads nothing back from the slot it overwrites.
    recorded: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            buf: Vec::with_capacity(RING_CAPACITY),
            start: 0,
            len: 0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            recorded: 0,
        }
    }

    #[inline]
    fn push(&mut self, rec: Rec) {
        self.recorded += rec.events();
        if self.len < RING_CAPACITY {
            let pos = (self.start + self.len) % RING_CAPACITY;
            if pos == self.buf.len() {
                self.buf.push(rec); // within pre-reserved capacity
            } else {
                self.buf[pos] = rec;
            }
            self.len += 1;
        } else {
            self.buf[self.start] = rec;
            self.start = (self.start + 1) % RING_CAPACITY;
        }
    }

    fn drain_into(&mut self, out: &mut Vec<TraceEvent>) {
        let from = out.len();
        for i in 0..self.len {
            let r = self.buf[(self.start + i) % RING_CAPACITY];
            let event = |kind, virt_ps, value| TraceEvent {
                name: r.name,
                kind,
                host_ns: r.stamp,
                virt_ps,
                value,
                tid: self.tid,
            };
            match r.kind {
                Some(kind) => out.push(event(kind, r.virt_ps, r.value)),
                None => {
                    out.push(event(EventKind::SpanEnd, 0, 0.0));
                    out.push(event(EventKind::SpanBegin, r.virt_ps, 0.0));
                }
            }
        }
        self.start = 0;
        self.len = 0;
        let dropped = self.recorded - (out.len() - from) as u64;
        DROPPED.fetch_add(dropped, Ordering::Relaxed);
        self.recorded = 0;
    }
}

/// Wrapper whose `Drop` flushes the ring into the global sink when the
/// thread's locals are torn down, so a thread joined through its
/// `JoinHandle` never loses its tail of events. That does **not** cover
/// `std::thread::scope`'s implicit join, which returns before
/// thread-local destructors have run: scoped workers (the threaded and
/// net backends) call [`flush_thread`] as the last thing they do.
struct RingCell(RefCell<Ring>);

impl Drop for RingCell {
    fn drop(&mut self) {
        flush_ring(&mut self.0.borrow_mut());
    }
}

/// Moves `ring`'s events into the global sink, stamped in nanoseconds.
fn flush_ring(ring: &mut Ring) {
    if ring.len > 0 {
        let mut out = sink()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let from = out.len();
        ring.drain_into(&mut out);
        if let Some(e) = EPOCH.get() {
            e.stamps_to_ns(&mut out[from..]);
        }
    }
}

thread_local! {
    static RING: RingCell = RingCell(RefCell::new(Ring::new()));
}

/// Records one ring slot stamped now; `kind` as in [`Rec`].
#[inline]
fn record(name: &'static str, kind: Option<EventKind>, virt_ps: u64, value: f64) {
    let rec = Rec {
        name,
        kind,
        stamp: stamp(),
        virt_ps,
        value,
    };
    // Reentrancy-safe: try_with fails only during thread teardown.
    let _ = RING.try_with(|cell| {
        if let Ok(mut ring) = cell.0.try_borrow_mut() {
            ring.push(rec);
        }
    });
}

/// Records an instant event. Prefer the [`obs_instant!`](crate::obs_instant) macro, which
/// short-circuits when tracing is disabled.
pub fn instant(name: &'static str, virt_ps: u64) {
    record(name, Some(EventKind::Instant), virt_ps, 0.0);
}

/// Records a counter sample. Prefer the [`obs_counter!`](crate::obs_counter) macro.
pub fn counter(name: &'static str, virt_ps: u64, value: f64) {
    record(name, Some(EventKind::Counter), virt_ps, value);
}

/// Opens a span; the returned guard records the end on drop. Prefer the
/// [`obs_span!`](crate::obs_span) macro.
pub fn span(name: &'static str, virt_ps: u64) -> SpanGuard {
    record(name, Some(EventKind::SpanBegin), virt_ps, 0.0);
    SpanGuard { name }
}

/// RAII guard recording a [`EventKind::SpanEnd`] when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(self.name, Some(EventKind::SpanEnd), 0, 0.0);
    }
}

/// Back-to-back spans of one name on one thread, such as one per target
/// cycle of a settle loop, at one clock read and one ring slot a span:
/// each [`next`](SpanSeq::next) ends the open span and opens the next at
/// the same stamp, where an [`obs_span!`](crate::obs_span) per iteration
/// reads the clock twice and fills two slots. Dropping the sequence ends
/// its open span. With tracing disabled, `next` costs one relaxed load
/// (and ends a span left open when tracing was turned off).
#[derive(Debug)]
pub struct SpanSeq {
    name: &'static str,
    open: bool,
}

impl SpanSeq {
    /// A sequence of spans called `name`, none open yet.
    pub const fn new(name: &'static str) -> SpanSeq {
        SpanSeq { name, open: false }
    }

    /// Ends the open span, if any, and opens the next, its begin stamped
    /// with virtual time `virt_ps`.
    #[inline]
    pub fn next(&mut self, virt_ps: u64) {
        if enabled() {
            let kind = (!self.open).then_some(EventKind::SpanBegin);
            record(self.name, kind, virt_ps, 0.0);
            self.open = true;
        } else if self.open {
            self.end();
        }
    }

    fn end(&mut self) {
        if self.open {
            record(self.name, Some(EventKind::SpanEnd), 0, 0.0);
            self.open = false;
        }
    }
}

impl Drop for SpanSeq {
    fn drop(&mut self) {
        self.end();
    }
}

/// Flushes the calling thread's ring into the global sink.
pub fn flush_thread() {
    let _ = RING.try_with(|cell| flush_ring(&mut cell.0.borrow_mut()));
}

/// Flushes the calling thread and drains every event collected so far,
/// sorted by host timestamp (ties keep arrival order). Threads joined
/// through a `JoinHandle` flushed on teardown; live threads other than
/// the caller, and scoped threads before their scope ends (see
/// `RingCell`), must call [`flush_thread`] themselves before this.
pub fn take_events() -> Vec<TraceEvent> {
    flush_thread();
    let mut out: Vec<TraceEvent> = {
        let mut sink = sink()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *sink)
    };
    out.sort_by_key(|e| e.host_ns);
    out
}

/// Opens a span when tracing is enabled; evaluates to an
/// `Option<SpanGuard>` to bind (`let _g = obs_span!("name");`). An
/// optional second argument stamps the begin event with virtual time.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        if $crate::trace::enabled() {
            Some($crate::trace::span($name, 0))
        } else {
            None
        }
    };
    ($name:expr, $virt:expr) => {
        if $crate::trace::enabled() {
            Some($crate::trace::span($name, $virt))
        } else {
            None
        }
    };
}

/// Records an instant event when tracing is enabled; arguments are not
/// evaluated otherwise.
#[macro_export]
macro_rules! obs_instant {
    ($name:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::instant($name, 0);
        }
    };
    ($name:expr, $virt:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::instant($name, $virt);
        }
    };
}

/// Records a counter sample when tracing is enabled; arguments are not
/// evaluated otherwise.
#[macro_export]
macro_rules! obs_counter {
    ($name:expr, $virt:expr, $value:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::counter($name, $virt, $value as f64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is global; tests that toggle it serialize on this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_macros_do_not_evaluate_args() {
        let _l = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(false);
        let mut evaluated = false;
        obs_counter!("x", 0, {
            evaluated = true;
            1.0
        });
        assert!(!evaluated, "disabled macro must not evaluate its value");
    }

    #[test]
    fn events_round_trip_through_ring_and_sink() {
        let _l = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(true);
        let _ = take_events(); // clear prior state
        {
            let _g = obs_span!("outer", 42);
            obs_instant!("tick", 7);
            obs_counter!("fmr", 7, 1.5);
        }
        set_enabled(false);
        let events = take_events();
        let names: Vec<(&str, EventKind)> = events.iter().map(|e| (e.name, e.kind)).collect();
        assert!(names.contains(&("outer", EventKind::SpanBegin)));
        assert!(names.contains(&("outer", EventKind::SpanEnd)));
        assert!(names.contains(&("tick", EventKind::Instant)));
        let c = events
            .iter()
            .find(|e| e.kind == EventKind::Counter)
            .expect("counter recorded");
        assert_eq!(c.value, 1.5);
        assert_eq!(c.virt_ps, 7);
        // Begin precedes end in host time order.
        let b = names
            .iter()
            .position(|&(n, k)| n == "outer" && k == EventKind::SpanBegin);
        let e = names
            .iter()
            .position(|&(n, k)| n == "outer" && k == EventKind::SpanEnd);
        assert!(b < e);
    }

    /// Event stamps come out in the nanoseconds `host_ns` reads, on
    /// either clock: a span recorded between two `host_ns` readings lands
    /// between them and lasts at least as long as it was timed open.
    #[test]
    fn event_stamps_keep_host_time() {
        let _l = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(true);
        let _ = take_events();
        let before = host_ns();
        let open = {
            let _g = obs_span!("timed");
            let t = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.elapsed().as_nanos() as u64
        };
        let after = host_ns();
        set_enabled(false);
        let events = take_events();
        let at = |k| {
            events
                .iter()
                .find(|e| e.name == "timed" && e.kind == k)
                .expect("span recorded")
                .host_ns
        };
        let (b, e) = (at(EventKind::SpanBegin), at(EventKind::SpanEnd));
        // Conversion from counter ticks may be off by a few ns.
        let slack = 1_000;
        assert!(
            before <= b + slack && e <= after + slack,
            "{before} {b} {e} {after}"
        );
        assert!(e - b + slack >= open, "span {} ns, timed {open} ns", e - b);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = Ring::new();
        let rec = |i: usize, kind| Rec {
            name: "e",
            kind,
            stamp: i as u64,
            virt_ps: 0,
            value: 0.0,
        };
        for i in 0..(RING_CAPACITY + 10) {
            ring.push(rec(i, Some(EventKind::Instant)));
        }
        let before = dropped_events();
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(dropped_events() - before, 10);
        assert_eq!(ring.recorded, 0);
        assert_eq!(out.len(), RING_CAPACITY);
        assert_eq!(out.first().unwrap().host_ns, 10);
        assert_eq!(out.last().unwrap().host_ns, (RING_CAPACITY + 10 - 1) as u64);
        // A span boundary is one slot, two events, both when it drains
        // and when it is overwritten.
        for i in 0..(RING_CAPACITY + 1) {
            ring.push(rec(i, None));
        }
        let before = dropped_events();
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(dropped_events() - before, 2);
        assert_eq!(out.len(), 2 * RING_CAPACITY);
    }

    /// A span sequence drains as balanced begin/end pairs, each boundary
    /// an end and the next begin at one stamp, and ends its open span
    /// when tracing is turned off under it.
    #[test]
    fn span_sequences_drain_as_balanced_spans() {
        let _l = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(true);
        let _ = take_events();
        let mut seq = SpanSeq::new("cycle");
        for c in 0..3 {
            seq.next(c);
        }
        set_enabled(false);
        seq.next(3); // ends the third span
        seq.next(4); // disabled, nothing open: records nothing
        drop(seq);
        let events = take_events();
        let got: Vec<(EventKind, u64)> = events.iter().map(|e| (e.kind, e.virt_ps)).collect();
        use EventKind::{SpanBegin as B, SpanEnd as E};
        assert_eq!(got, [(B, 0), (E, 0), (B, 1), (E, 0), (B, 2), (E, 0)]);
        assert!(events.iter().all(|e| e.name == "cycle"));
        assert_eq!(events[1].host_ns, events[2].host_ns);
        assert_eq!(events[3].host_ns, events[4].host_ns);
        assert!(events[0].host_ns <= events[1].host_ns);
    }

    #[test]
    fn cross_thread_events_are_collected_on_thread_exit() {
        let _l = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(true);
        let _ = take_events();
        // An explicit join waits for the thread's locals to be dropped,
        // and the ring with them.
        std::thread::spawn(|| {
            obs_instant!("joined-worker-event");
        })
        .join()
        .unwrap();
        // A scope's implicit join does not (the closure has returned, the
        // destructors may not have run): scoped workers flush themselves.
        std::thread::scope(|s| {
            s.spawn(|| {
                obs_instant!("scoped-worker-event");
                flush_thread();
            });
        });
        set_enabled(false);
        let events = take_events();
        for name in ["joined-worker-event", "scoped-worker-event"] {
            assert!(events.iter().any(|e| e.name == name), "lost {name}");
        }
    }
}
