//! Online check sessions and the runtime hook surface.
//!
//! Mirrors the `caf-trace` session: a session arms the thread that
//! starts it and every job that thread launches (its launch scope,
//! `caf_trace::scope`), and [`enabled`] tests one bit of a thread-local
//! flag word, so every hook is a single load when no session is armed —
//! the sanitizer costs nothing unless armed, and a job running beside an
//! armed one feeds nothing. Hooks take only primitive arguments (ids,
//! global ranks, `(start, len)` byte pairs) so the instrumented crates
//! need no types from this one.

use std::sync::{Arc, Mutex, MutexGuard};

use caf_trace::scope::{self, Part};

use crate::epoch::EpochChecker;
use crate::hb::{HbEdge, RaceDetector};
use crate::report::{ByteRange, Report, Violation};

/// True while a check session is armed on the calling thread. The fast
/// path of every hook.
#[inline]
pub fn enabled() -> bool {
    scope::armed(Part::Check)
}

/// What to do when a violation fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Collect diagnostics; [`CheckSession::finish`] returns them.
    Collect,
    /// Panic at the violation site (pinpoints the offending call in a
    /// backtrace; inside the in-process simulator this surfaces as an
    /// "image panicked" job failure).
    Panic,
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Violation handling.
    pub mode: CheckMode,
    /// Run the MPI-3 epoch-legality checker.
    pub epochs: bool,
    /// Run the happens-before race detector.
    pub races: bool,
    /// Access-history bound per `(region, owner)` shadow cell.
    pub history_limit: usize,
    /// Collected-diagnostic cap; further violations are counted as
    /// dropped. Also bounds the edge log ([`Report::edges`]).
    pub max_violations: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            mode: CheckMode::Collect,
            epochs: true,
            races: true,
            history_limit: 1 << 14,
            max_violations: 1 << 14,
        }
    }
}

/// Why a session could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckError {
    /// Another check session is armed on this thread.
    SessionActive,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::SessionActive => write!(f, "another check session is active"),
        }
    }
}

impl std::error::Error for CheckError {}

struct State {
    cfg: CheckConfig,
    epoch: EpochChecker,
    hb: RaceDetector,
    violations: Vec<Violation>,
    dropped: usize,
    edges: Vec<(u64, usize, HbEdge)>,
}

/// One session's state, as its scope holds it; `None` once finished.
type Shared = Mutex<Option<State>>;

/// Lock the session state, surviving poisoning (a `Panic`-mode violation
/// panics with the lock held; later hooks and `finish` must still work).
fn lock(shared: &Shared) -> MutexGuard<'_, Option<State>> {
    shared.lock().unwrap_or_else(|e| e.into_inner())
}

/// The session armed on the calling thread.
fn armed() -> Option<Arc<Shared>> {
    scope::with(|s| s.get(Part::Check).cloned())?.downcast().ok()
}

/// An active sanitizer session. Start one around a simulator run, then
/// [`CheckSession::finish`] to collect the [`Report`]. One per thread.
#[must_use = "finish() the session to collect its report"]
pub struct CheckSession {
    shared: Arc<Shared>,
}

impl CheckSession {
    /// Arm the sanitizer on the calling thread. Fails if a session is
    /// already armed there.
    pub fn start(cfg: CheckConfig) -> Result<CheckSession, CheckError> {
        if armed().is_some_and(|s| lock(&s).is_some()) {
            return Err(CheckError::SessionActive);
        }
        let history_limit = cfg.history_limit;
        let shared = Arc::new(Mutex::new(Some(State {
            edges: Vec::new(),
            cfg,
            epoch: EpochChecker::new(),
            hb: RaceDetector::new(history_limit),
            violations: Vec::new(),
            dropped: 0,
        })));
        scope::set(Part::Check, Some(shared.clone()));
        Ok(CheckSession { shared })
    }

    /// Disarm and return everything collected.
    pub fn finish(self) -> Report {
        self.teardown().unwrap_or_default()
    }

    fn teardown(&self) -> Option<Report> {
        if armed().is_some_and(|s| Arc::ptr_eq(&s, &self.shared)) {
            scope::set(Part::Check, None);
        }
        lock(&self.shared).take().map(|s| Report {
            violations: s.violations,
            dropped: s.dropped,
            edges: s.edges,
        })
    }
}

impl Drop for CheckSession {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Record `found` per the session's mode. Panics in `Panic` mode.
fn sink(st: &mut State, found: Vec<Violation>) {
    for v in found {
        if st.cfg.mode == CheckMode::Panic {
            panic!("caf-check: {v}");
        }
        if st.violations.len() >= st.cfg.max_violations {
            st.dropped += 1;
        } else {
            st.violations.push(v);
        }
    }
}

/// Instrumentation entry points called by the runtime crates. All are
/// no-ops (one thread-local load) unless a session is armed.
pub mod hooks {
    use super::*;

    /// The edge vocabulary of [`hb`] and its channel namespaces.
    pub use crate::hb::{HbEdge, NS_AGG, NS_EVENT, NS_SHIP};

    /// Run `f` against the armed session's state; what it finds is sunk
    /// per the session's mode.
    fn with_state(f: impl FnOnce(&mut State, &mut Vec<Violation>)) {
        if !enabled() {
            return;
        }
        let Some(shared) = armed() else { return };
        let mut guard = lock(&shared);
        let Some(st) = guard.as_mut() else { return };
        let mut found = Vec::new();
        f(st, &mut found);
        if !found.is_empty() {
            sink(st, found);
        }
    }

    /// Feed the epoch checker, when the session runs it.
    fn epoch(f: impl FnOnce(&mut EpochChecker, &mut Vec<Violation>)) {
        with_state(|st, out| {
            if st.cfg.epochs {
                f(&mut st.epoch, out);
            }
        });
    }

    /// `win_lock_all` by global rank `origin`.
    pub fn win_lock_all(window: u64, origin: usize) {
        epoch(|e, out| e.lock_all(window, origin, out));
    }

    /// `win_unlock_all`; `epoch_open` is the runtime's `locked_all` flag.
    pub fn win_unlock_all(window: u64, origin: usize, epoch_open: bool) {
        epoch(|e, out| e.unlock_all(window, origin, epoch_open, out));
    }

    /// `win_free` by `origin`.
    pub fn win_free(window: u64, origin: usize, epoch_open: bool) {
        epoch(|e, out| e.free(window, origin, epoch_open, out));
    }

    /// An `MPI_Put`-family data transfer. `(disp, len)` is the byte range
    /// in `target`'s region; `(buf_addr, buf_len)` the origin buffer's
    /// address range.
    #[allow(clippy::too_many_arguments)]
    pub fn rma_put(
        window: u64,
        origin: usize,
        target: usize,
        disp: u64,
        len: u64,
        buf_addr: u64,
        buf_len: u64,
        epoch_open: bool,
    ) {
        let (range, buf) = (ByteRange::new(disp, len), ByteRange::new(buf_addr, buf_len));
        epoch(|e, out| e.rma_put(window, origin, target, range, buf, epoch_open, out));
    }

    /// An `MPI_Get`-family data transfer.
    #[allow(clippy::too_many_arguments)]
    pub fn rma_get(
        window: u64,
        origin: usize,
        target: usize,
        disp: u64,
        len: u64,
        buf_addr: u64,
        buf_len: u64,
        epoch_open: bool,
    ) {
        let (range, buf) = (ByteRange::new(disp, len), ByteRange::new(buf_addr, buf_len));
        epoch(|e, out| e.rma_get(window, origin, target, range, buf, epoch_open, out));
    }

    /// An accumulate-family operation.
    pub fn rma_atomic(
        window: u64,
        origin: usize,
        target: usize,
        disp: u64,
        len: u64,
        epoch_open: bool,
    ) {
        let range = ByteRange::new(disp, len);
        epoch(|e, out| e.rma_atomic(window, origin, target, range, epoch_open, out));
    }

    /// A local load of `owner`'s own window region.
    pub fn local_read(window: u64, owner: usize, disp: u64, len: u64) {
        epoch(|e, out| e.local_read(window, owner, ByteRange::new(disp, len), out));
    }

    /// A local store into `owner`'s own window region.
    pub fn local_write(window: u64, owner: usize, disp: u64, len: u64) {
        epoch(|e, out| e.local_write(window, owner, ByteRange::new(disp, len), out));
    }

    /// `win_flush(origin → target)`.
    pub fn win_flush(window: u64, origin: usize, target: usize, epoch_open: bool) {
        epoch(|e, out| e.flush(window, origin, target, epoch_open, out));
    }

    /// `win_flush_all(origin)`.
    pub fn win_flush_all(window: u64, origin: usize, epoch_open: bool) {
        epoch(|e, out| e.flush_all(window, origin, epoch_open, out));
    }

    /// A request-generating RMA op went live; returns a tracking token
    /// (0 when no session is active — callers skip wait/drop reporting).
    pub fn request_open(
        window: u64,
        origin: usize,
        buf_addr: u64,
        buf_len: u64,
        kind: &'static str,
    ) -> u64 {
        if !enabled() {
            return 0;
        }
        let Some(shared) = armed() else { return 0 };
        let mut guard = lock(&shared);
        let Some(st) = guard.as_mut() else { return 0 };
        if !st.cfg.epochs {
            return 0;
        }
        st.epoch
            .request_open(window, origin, ByteRange::new(buf_addr, buf_len), kind)
    }

    /// The tracked request completed properly.
    pub fn request_wait(token: u64) {
        if token != 0 {
            epoch(|e, _| e.request_wait(token));
        }
    }

    /// The tracked request was dropped without completion.
    pub fn request_drop(token: u64) {
        if token != 0 {
            epoch(|e, out| e.request_drop(token, out));
        }
    }

    /// One happens-before edge of image `img`, reported by the CAF
    /// layer's operation prologue — the only place that calls this.
    pub fn hb(img: usize, edge: HbEdge) {
        with_state(|st, out| {
            if st.edges.len() < st.cfg.max_violations {
                st.edges.push((caf_trace::now_ns(), img, edge));
            }
            if st.cfg.races {
                st.hb.apply(img, edge, out);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ViolationKind;

    #[test]
    fn hooks_are_inert_without_a_session_and_live_with_one() {
        assert!(!enabled());
        hooks::rma_put(1, 0, 1, 0, 8, 0, 0, false); // no session: swallowed
        assert_eq!(hooks::request_open(1, 0, 0, 8, "rput"), 0);

        let s = CheckSession::start(CheckConfig::default()).expect("no active session");
        assert!(enabled());
        assert!(CheckSession::start(CheckConfig::default()).is_err());
        hooks::rma_put(1, 0, 1, 0, 8, 0, 0, false);
        // A thread outside the session's scope feeds nothing.
        std::thread::spawn(|| hooks::rma_put(1, 0, 1, 0, 8, 0, 0, false)).join().unwrap();
        let write = hooks::HbEdge::Access { region: 9, owner: 0, disp: 0, len: 8, write: true };
        hooks::hb(0, write);
        hooks::hb(1, write);
        let report = s.finish();
        assert!(!enabled());
        assert_eq!(report.of_kind(ViolationKind::OutsideEpoch).len(), 1);
        assert_eq!(report.of_kind(ViolationKind::CoarrayRace).len(), 1);
    }

    #[test]
    fn panic_mode_fires_at_the_violation_site() {
        let s = CheckSession::start(CheckConfig {
            mode: CheckMode::Panic,
            ..CheckConfig::default()
        })
        .expect("no active session");
        let r = std::panic::catch_unwind(|| hooks::rma_put(1, 0, 1, 0, 8, 0, 0, false));
        assert!(r.is_err(), "panic mode must panic");
        let report = s.finish();
        assert!(report.is_clean(), "panic mode does not collect");
    }
}
