//! Chrome `trace_event` JSON export.
//!
//! Produces the JSON-object flavor of the [trace event format] that
//! Perfetto and `chrome://tracing` load directly: spans become `B`/`E`
//! duration events, instants become `i`, counters become `C` with their
//! value in `args`. Every event carries its virtual-time stamp in
//! `args.virt_ps`, so the DES backend's virtual clock survives into the
//! viewer even though the track timeline runs on host time.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::trace::{EventKind, TraceEvent};

/// Escapes a string for embedding in a JSON string literal: the one
/// escaper behind every JSON document the workspace writes.
pub fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fireaxe_ir::wire_struct! {
    /// A trace event with an owned name: what cross-process trace merging
    /// ships over the wire (a [`TraceEvent`]'s `&'static str` name only
    /// exists in the recording process).
    #[derive(Debug, Clone, PartialEq)]
    pub struct OwnedTraceEvent {
        /// Event name.
        pub name: String,
        /// Event kind.
        pub kind: EventKind,
        /// Host-time stamp, nanoseconds since the recording tracer's epoch.
        pub host_ns: u64,
        /// Virtual-time stamp, picoseconds (0 without a virtual clock).
        pub virt_ps: u64,
        /// Counter value (counters only).
        pub value: f64,
        /// Recording thread's dense tracer id within its process.
        pub tid: u64,
    }
}

impl From<&TraceEvent> for OwnedTraceEvent {
    fn from(e: &TraceEvent) -> Self {
        OwnedTraceEvent {
            name: e.name.to_string(),
            kind: e.kind,
            host_ns: e.host_ns,
            virt_ps: e.virt_ps,
            value: e.value,
            tid: e.tid,
        }
    }
}

/// Renders `events` (host-time ordered; see
/// [`crate::trace::take_events`]) as a Chrome trace JSON document: the
/// merged document of one process, `fireaxe`.
///
/// Timestamps are microseconds (`ts`) with nanosecond precision kept in
/// the fraction. All events share `pid` 1; `tid` is the recording
/// thread's dense tracer id.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let events = events.iter().map(OwnedTraceEvent::from).collect();
    to_chrome_json_merged(&[("fireaxe".to_string(), events)])
}

/// Renders per-process event sets as one merged Chrome trace document.
///
/// Each `(process label, events)` part becomes its own `pid` (1-based,
/// in part order) with a `process_name` metadata record, so a
/// distributed run's coordinator and workers land as separate process
/// tracks in Perfetto while sharing one timeline. Host clocks are
/// per-process epochs; tracks are individually self-consistent.
pub fn to_chrome_json_merged(parts: &[(String, Vec<OwnedTraceEvent>)]) -> String {
    let total: usize = parts.iter().map(|(_, evs)| evs.len()).sum();
    let mut s = String::with_capacity(128 + total * 96);
    s.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (pid0, (label, events)) in parts.iter().enumerate() {
        let pid = pid0 + 1;
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\""
        ));
        escape(label, &mut s);
        s.push_str("\"}}");
        for e in events {
            let ph = match e.kind {
                EventKind::SpanBegin => "B",
                EventKind::SpanEnd => "E",
                EventKind::Instant => "i",
                EventKind::Counter => "C",
            };
            s.push(',');
            s.push_str("{\"name\":\"");
            escape(&e.name, &mut s);
            s.push_str("\",\"ph\":\"");
            s.push_str(ph);
            s.push_str(&format!(
                "\",\"ts\":{}.{:03},\"pid\":{pid},\"tid\":{}",
                e.host_ns / 1_000,
                e.host_ns % 1_000,
                e.tid
            ));
            if e.kind == EventKind::Instant {
                s.push_str(",\"s\":\"t\"");
            }
            s.push_str(",\"args\":{\"virt_ps\":");
            s.push_str(&e.virt_ps.to_string());
            if e.kind == EventKind::Counter {
                let v = if e.value.is_finite() { e.value } else { 0.0 };
                s.push_str(&format!(",\"value\":{v}"));
            }
            s.push_str("}}");
        }
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: EventKind, host_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            kind,
            host_ns,
            virt_ps: 5,
            value: 2.5,
            tid: 3,
        }
    }

    #[test]
    fn renders_all_phases() {
        let events = [
            ev("s", EventKind::SpanBegin, 1000),
            ev("i", EventKind::Instant, 1500),
            ev("c", EventKind::Counter, 2000),
            ev("s", EventKind::SpanEnd, 3210),
        ];
        let json = to_chrome_json(&events);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":3.210"));
        assert!(json.contains("\"value\":2.5"));
        assert!(json.contains("\"virt_ps\":5"));
    }

    #[test]
    fn escapes_names() {
        let events = [ev("a\"b\\c", EventKind::Instant, 0)];
        let json = to_chrome_json(&events);
        assert!(json.contains("a\\\"b\\\\c"));
    }

    #[test]
    fn merged_export_separates_processes() {
        let parts = vec![
            (
                "coordinator".to_string(),
                vec![OwnedTraceEvent::from(&ev("relay", EventKind::Instant, 10))],
            ),
            (
                "worker0".to_string(),
                vec![OwnedTraceEvent::from(&ev(
                    "service",
                    EventKind::Counter,
                    20,
                ))],
            ),
        ];
        let json = to_chrome_json_merged(&parts);
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"name\":\"worker0\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"name\":\"relay\""));
        assert!(json.contains("\"name\":\"service\""));
        // Parses with the bundled JSON parser downstream; here a basic
        // structural check is enough.
        assert!(json.ends_with("]}\n"));
    }
}
