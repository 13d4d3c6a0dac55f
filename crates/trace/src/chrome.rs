//! Chrome `trace_event` JSON export: the merged timeline rendered as an
//! array of complete (`"ph":"X"`) and instant (`"ph":"i"`) events,
//! loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! One process (`pid` 0) with one track (`tid`) per image; timestamps
//! are microseconds on the shared trace clock.

use std::fmt::Write as _;

use crate::op::EventKind;
use crate::session::{Trace, TraceEvent};

/// Nanoseconds rendered as microseconds with fixed three decimals
/// (Chrome's `ts`/`dur` unit).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn write_event(out: &mut String, e: &TraceEvent) {
    let tid: i64 = if e.image == usize::MAX {
        -1
    } else {
        e.image as i64
    };
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}",
        e.op.name(),
        e.op.layer(),
        match e.kind {
            EventKind::Span => "X",
            EventKind::Instant => "i",
        },
        us(e.t0_ns)
    );
    if e.kind == EventKind::Span {
        let _ = write!(out, ",\"dur\":{}", us(e.dur_ns));
    } else {
        let _ = write!(out, ",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"pid\":0,\"tid\":{tid},\"args\":{{\"bytes\":{}", e.bytes);
    if let Some(t) = e.target {
        let _ = write!(out, ",\"target\":{t}");
    }
    if let Some(w) = e.window {
        let _ = write!(out, ",\"window\":{w}");
    }
    let _ = write!(out, "}}}}");
}

impl Trace {
    /// Render the whole trace as Chrome `trace_event` JSON (the
    /// "JSON array format": a single array of event objects).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 * self.events.len() + 2);
        out.push_str("[\n");
        for (i, e) in self.events.iter().enumerate() {
            write_event(&mut out, e);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    /// Golden-file test: the exporter's exact output for a small fixed
    /// trace. Any format change must be deliberate.
    #[test]
    fn chrome_json_golden() {
        let trace = Trace {
            events: vec![
                TraceEvent {
                    image: 0,
                    op: Op::EventNotify,
                    kind: EventKind::Span,
                    t0_ns: 1_234_567,
                    dur_ns: 89_012,
                    arg: 0,
                    target: Some(1),
                    bytes: 64,
                    window: Some(2),
                    depth: 0,
                    top_cat: true,
                    disp: None,
                },
                TraceEvent {
                    image: 1,
                    op: Op::RmaPut,
                    kind: EventKind::Instant,
                    t0_ns: 2_000_000,
                    dur_ns: 0,
                    arg: 0,
                    target: None,
                    bytes: 8,
                    window: None,
                    depth: 1,
                    top_cat: false,
                    disp: None,
                },
                TraceEvent {
                    image: usize::MAX,
                    op: Op::AmPoll,
                    kind: EventKind::Span,
                    t0_ns: 3_000_001,
                    dur_ns: 1_000,
                    arg: 0,
                    target: None,
                    bytes: 0,
                    window: None,
                    depth: 0,
                    top_cat: false,
                    disp: None,
                },
            ],
            stalls: vec![],
            dropped_events: 0,
        };
        let golden = concat!(
            "[\n",
            "{\"name\":\"EventNotify\",\"cat\":\"caf\",\"ph\":\"X\",\"ts\":1234.567,",
            "\"dur\":89.012,\"pid\":0,\"tid\":0,",
            "\"args\":{\"bytes\":64,\"target\":1,\"window\":2}},\n",
            "{\"name\":\"RmaPut\",\"cat\":\"mpi\",\"ph\":\"i\",\"ts\":2000.000,",
            "\"s\":\"t\",\"pid\":0,\"tid\":1,\"args\":{\"bytes\":8}},\n",
            "{\"name\":\"AmPoll\",\"cat\":\"gasnet\",\"ph\":\"X\",\"ts\":3000.001,",
            "\"dur\":1.000,\"pid\":0,\"tid\":-1,\"args\":{\"bytes\":0}}\n",
            "]"
        );
        assert_eq!(trace.to_chrome_json(), golden);
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        let t = Trace::default();
        assert_eq!(t.to_chrome_json(), "[\n]");
    }
}
