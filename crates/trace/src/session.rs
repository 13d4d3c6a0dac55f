//! Trace sessions: the enable flag every probe checks, the registry
//! collecting per-thread buffers, and the merge into one timeline. A
//! session records on the thread that started it and in every job that
//! thread launches while it is armed ([`crate::scope`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::collector::{Collector, SpanGuard};
use crate::op::{EventKind, Op};
use crate::scope::{self, Part};
use crate::stall::{self, StallReport};

thread_local! {
    /// This thread's collector and the session it feeds.
    static TLS: RefCell<Option<(Weak<SessionShared>, Arc<Collector>)>> =
        const { RefCell::new(None) };
}

/// Whether a trace session records on the calling thread: the disarmed
/// path of every probe, one thread-local load.
#[inline]
pub fn enabled() -> bool {
    scope::tracing()
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` against this thread's collector, creating and registering it
/// with the scope's session on first use. No-op (returns `None`) when
/// tracing is disabled or the session has finished.
fn with_collector<R>(f: impl FnOnce(&Arc<Collector>) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    scope::with(|s| {
        let shared = s.trace.as_ref().filter(|t| t.live.load(Ordering::Relaxed))?;
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let fresh = matches!(&*tls, Some((w, _)) if w.as_ptr() == Arc::as_ptr(shared));
            if !fresh {
                let col = Arc::new(Collector::new(shared.cfg.ring_capacity));
                lock(&shared.collectors).push(Arc::clone(&col));
                *tls = Some((Arc::downgrade(shared), col));
            }
            let (_, col) = tls.as_ref().expect("collector just installed");
            Some(f(col))
        })
    })
}

/// Declare this thread's image index; recorded events and stall reports
/// are attributed to it. Call early (e.g. in image init).
pub fn set_image(rank: usize) {
    let _ = with_collector(|c| c.image.store(rank as u64, Ordering::Relaxed));
}

/// Open a span for `op`; it is recorded with its duration when the
/// returned guard drops. Inert when tracing is disabled.
#[inline]
pub fn span(op: Op) -> SpanGuard {
    span_t(op, None, 0, None)
}

/// [`span`] with a target image, payload size, and window/segment id.
#[inline]
pub fn span_t(op: Op, target: Option<usize>, bytes: u64, window: Option<u64>) -> SpanGuard {
    span_d(op, target, bytes, window, None)
}

/// [`span_t`] plus a displacement / sync-token word (byte offset for
/// data ops, event id for notify/wait, team id for collectives) — the
/// extra coordinate offline checkers need.
#[inline]
pub fn span_d(
    op: Op,
    target: Option<usize>,
    bytes: u64,
    window: Option<u64>,
    disp: Option<u64>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    with_collector(|c| c.open_span(op, target, bytes, window, disp))
        .unwrap_or_else(SpanGuard::disabled)
}

/// Record a point event. Inert when tracing is disabled.
#[inline]
pub fn instant(op: Op, target: Option<usize>, bytes: u64, window: Option<u64>) {
    instant_d(op, target, bytes, window, None);
}

/// [`instant`] with the displacement / sync-token word (see [`span_d`]).
#[inline]
pub fn instant_d(op: Op, target: Option<usize>, bytes: u64, window: Option<u64>, disp: Option<u64>) {
    if !enabled() {
        return;
    }
    let _ = with_collector(|c| c.record_instant(op, target, bytes, window, disp));
}

/// Configuration for a trace session.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Events retained per image before the oldest are overwritten.
    pub ring_capacity: usize,
    /// Blocking ops open at least this long produce a [`StallReport`];
    /// `None` disables the watchdog.
    pub stall_threshold: Option<Duration>,
    /// How often the watchdog samples open spans.
    pub stall_poll_period: Duration,
    /// Print each stall report to stderr as it is detected.
    pub announce_stalls: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 1 << 16,
            stall_threshold: Some(Duration::from_millis(100)),
            stall_poll_period: Duration::from_millis(10),
            announce_stalls: true,
        }
    }
}

/// Why a session could not be started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Another [`Session`] is already recording on this thread.
    SessionActive,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::SessionActive => write!(f, "a trace session is already active"),
        }
    }
}

impl std::error::Error for TraceError {}

pub(crate) struct SessionShared {
    /// Cleared when the session finishes: a thread still in its scope
    /// stops recording.
    pub live: AtomicBool,
    pub cfg: TraceConfig,
    pub collectors: Mutex<Vec<Arc<Collector>>>,
    pub stalls: Mutex<Vec<StallReport>>,
}

/// An active recording session. It records on the thread that started
/// it and in the jobs that thread launches; finish it (after the traced
/// job's threads have been joined) to obtain the merged [`Trace`].
pub struct Session {
    shared: Arc<SessionShared>,
    watchdog: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl Session {
    /// Begin recording on the calling thread. Fails if a session is
    /// already recording there. No stall watchdog runs under an armed
    /// model gate: a free-running sampling thread would perturb (and
    /// outlive) the explored schedules, and wall-clock thresholds mean
    /// nothing under the gate's logical clock.
    pub fn start(cfg: TraceConfig) -> Result<Session, TraceError> {
        if scope::with(|s| s.trace.as_ref().is_some_and(|t| t.live.load(Ordering::Relaxed))) {
            return Err(TraceError::SessionActive);
        }
        let shared = Arc::new(SessionShared {
            live: AtomicBool::new(true),
            cfg: cfg.clone(),
            collectors: Mutex::new(Vec::new()),
            stalls: Mutex::new(Vec::new()),
        });
        scope::modify(|s| s.trace = Some(Arc::clone(&shared)));
        let watchdog = cfg
            .stall_threshold
            .filter(|_| !scope::armed(Part::Gate))
            .map(|threshold| {
                let stop = Arc::new(AtomicBool::new(false));
                let handle = stall::spawn_watchdog(
                    Arc::clone(&shared),
                    Arc::clone(&stop),
                    threshold,
                    cfg.stall_poll_period,
                    cfg.announce_stalls,
                );
                (stop, handle)
            });
        Ok(Session { shared, watchdog })
    }

    /// Stall reports accumulated so far (live view; the watchdog keeps
    /// running until [`Session::finish`]).
    pub fn stall_reports(&self) -> Vec<StallReport> {
        lock(&self.shared.stalls).clone()
    }

    /// Stop recording and merge every per-image buffer into one
    /// time-sorted trace. Call after the traced job's threads have been
    /// joined; events recorded by still-running threads afterwards are
    /// not included.
    pub fn finish(mut self) -> Trace {
        self.teardown();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for col in lock(&self.shared.collectors).iter() {
            let image = col.image_index().unwrap_or(usize::MAX);
            dropped += col.ring.dropped();
            for r in col.records() {
                events.push(TraceEvent {
                    image,
                    op: r.op,
                    kind: r.kind,
                    t0_ns: r.t0_ns,
                    dur_ns: r.dur_ns,
                    target: r.target,
                    bytes: r.bytes,
                    window: r.window,
                    depth: r.depth,
                    top_cat: r.top_cat,
                    disp: r.disp,
                });
            }
        }
        // Stable by start time: ties keep per-image recording order.
        events.sort_by_key(|e| (e.t0_ns, e.image));
        Trace {
            events,
            stalls: lock(&self.shared.stalls).clone(),
            dropped_events: dropped,
        }
    }

    fn teardown(&mut self) {
        if !self.shared.live.swap(false, Ordering::Relaxed) {
            return;
        }
        if let Some((stop, handle)) = self.watchdog.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
        if scope::with(|s| s.trace.as_ref().is_some_and(|t| Arc::ptr_eq(t, &self.shared))) {
            scope::modify(|s| s.trace = None);
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// One event of the merged timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Recording image (`usize::MAX` if the thread never identified).
    pub image: usize,
    /// What ran.
    pub op: Op,
    /// Span (has `dur_ns`) or instant.
    pub kind: EventKind,
    /// Start time on the shared trace clock.
    pub t0_ns: u64,
    /// Duration (zero for instants).
    pub dur_ns: u64,
    /// Target image of the operation, if any.
    pub target: Option<usize>,
    /// Payload bytes moved, if meaningful.
    pub bytes: u64,
    /// RMA window / segment id, if any.
    pub window: Option<u64>,
    /// Span nesting depth at which this was recorded.
    pub depth: u8,
    /// Whether the Fig 4/8 decomposition counts this event (it maps to
    /// a category and no enclosing span did).
    pub top_cat: bool,
    /// Byte displacement within the window/region for data ops, or the
    /// sync token (event id, team id) for synchronization ops.
    pub disp: Option<u64>,
}

/// A finished, merged trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, sorted by start time.
    pub events: Vec<TraceEvent>,
    /// Stall reports raised during the session.
    pub stalls: Vec<StallReport>,
    /// Events lost to ring-buffer wraparound across all images.
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;

    #[test]
    fn disabled_probes_are_inert() {
        assert!(!enabled());
        instant(Op::RmaPut, Some(1), 8, None);
        let g = span(Op::Barrier);
        drop(g);
        // No session is armed on this thread, so no collector was made.
        assert!(TLS.with(|t| t.borrow().is_none()));
    }

    #[test]
    fn session_records_and_merges_across_threads() {
        let session = Session::start(TraceConfig {
            stall_threshold: None,
            ..TraceConfig::default()
        })
        .expect("no other session");
        assert!(enabled());
        // Raw threads record only once they enter the starter's scope.
        let scope = Scope::current();
        let handles: Vec<_> = (0..4)
            .map(|img| {
                let scope = scope.clone();
                std::thread::spawn(move || {
                    let _in = (img < 3).then(|| scope.enter());
                    set_image(img);
                    for i in 0..4 {
                        let mut s = span_t(Op::CoarrayWrite, Some((img + 1) % 3), 8, None);
                        s.set_bytes(16 + i);
                        drop(s);
                    }
                    instant_d(Op::RmaPut, Some(0), 8, Some(7), Some(img as u64 * 8));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = session.finish();
        assert!(!enabled());
        assert_eq!(trace.events.len(), 3 * 5, "the thread outside the scope recorded");
        assert_eq!(trace.dropped_events, 0);
        // Merged ordering: start times are globally non-decreasing.
        for pair in trace.events.windows(2) {
            assert!(pair[0].t0_ns <= pair[1].t0_ns);
        }
        // Every image contributed, attributed correctly.
        for img in 0..3 {
            let mine: Vec<_> = trace.events.iter().filter(|e| e.image == img).collect();
            assert_eq!(mine.len(), 5);
            assert!(mine.iter().all(|e| e.depth == 0));
        }
        // Per-image recording order survives the merge (bytes ascend).
        for img in 0..3 {
            let b: Vec<u64> = trace
                .events
                .iter()
                .filter(|e| e.image == img && e.kind == EventKind::Span)
                .map(|e| e.bytes)
                .collect();
            assert_eq!(b, vec![16, 17, 18, 19]);
        }
    }

    #[test]
    fn second_session_is_rejected_while_active() {
        let s1 = Session::start(TraceConfig::default()).unwrap();
        assert_eq!(
            Session::start(TraceConfig::default()).err(),
            Some(TraceError::SessionActive)
        );
        // Another thread is outside the session and may record its own.
        std::thread::spawn(|| Session::start(TraceConfig::default()).unwrap().finish())
            .join()
            .unwrap();
        drop(s1); // Drop (without finish) must still tear down.
        assert!(!enabled());
        let s2 = Session::start(TraceConfig::default()).unwrap();
        s2.finish();
    }
}
