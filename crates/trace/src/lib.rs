//! `caf-trace`: structured runtime tracing for the CAF stack.
//!
//! The paper's evaluation (Figs 4 and 8) is HPCToolkit-style time
//! decomposition: every performance gap — the Θ(P) `flush_all` inside
//! `event_notify`, the SRQ slow path, the hand-rolled alltoall — was found
//! by attributing wall-clock time to runtime primitives. This crate is the
//! equivalent first-class instrument for the in-process runtime:
//!
//! * **Per-image collectors** — each runtime thread owns a lock-free
//!   ring buffer of fixed-size event records; recording is a handful of
//!   relaxed atomic stores, and when tracing is disabled every probe is a
//!   single thread-local load ([`enabled`]).
//! * **Spans and instants** — [`span`] brackets an operation
//!   (recorded on drop with its duration); [`instant`] records a point
//!   event. Both carry an optional target image, payload size, and
//!   window/segment id.
//! * **A scoped session** — [`Session::start`] turns tracing on for the
//!   calling thread and every job it launches ([`scope`]), registers
//!   collectors as threads first record, and [`Session::finish`] merges
//!   all per-image buffers into one time-sorted [`Trace`].
//! * **Exports** — [`Trace::to_chrome_json`] emits Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` / Perfetto;
//!   [`Trace::decomposition`] reproduces the `StatCat` decomposition of
//!   Figs 4/8 from the trace itself (the runtime's `stats` view is the
//!   same data aggregated eagerly).
//! * **Stall detection** — a watchdog thread samples open spans; any
//!   blocking operation open past a threshold produces a
//!   [`StallReport`] naming the blocked image and the image/window edge
//!   it is blocked on, turning the paper's Figure 2 interoperability
//!   deadlock into an actionable diagnostic instead of a silent hang.

#![warn(missing_docs)]

mod chrome;
mod collector;
mod decomp;
mod op;
mod ring;
pub mod scope;
mod session;
mod stall;

pub use collector::SpanGuard;
pub use scope::Scope;
pub use decomp::{Cat, Decomposition, NCAT};
pub use op::{Chan, EventKind, Op};
pub use session::{
    enabled, instant, instant_a, instant_d, set_image, span, span_d, span_t, Session, Trace,
    TraceConfig, TraceError, TraceEvent,
};
pub use stall::StallReport;

/// Nanosecond timestamp on the process-global trace clock.
///
/// All collectors share one epoch (the first call in the process), so
/// timestamps are directly comparable across images.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
