//! Online check sessions and the runtime hook surface.
//!
//! Mirrors the `caf-trace` session pattern: a process-global session
//! guarded by one relaxed [`enabled`] flag, so every hook is a single
//! relaxed load when no session is active — the sanitizer costs nothing
//! unless armed. Hooks take only primitive arguments (ids, global ranks,
//! `(start, len)` byte pairs) so the instrumented crates need no types
//! from this one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::epoch::EpochChecker;
use crate::hb::{HbEdge, RaceDetector};
use crate::report::{ByteRange, Report, Violation};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True while a check session is active. The fast path of every hook.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
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
    /// Another check session is active in this process.
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

static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Lock the session state, surviving poisoning (a `Panic`-mode violation
/// panics with the lock held; later hooks and `finish` must still work).
fn lock() -> MutexGuard<'static, Option<State>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// An active sanitizer session. Start one around a simulator run, then
/// [`CheckSession::finish`] to collect the [`Report`]. One per process.
#[must_use = "finish() the session to collect its report"]
pub struct CheckSession {
    _priv: (),
}

impl CheckSession {
    /// Arm the sanitizer. Fails if a session is already active.
    pub fn start(cfg: CheckConfig) -> Result<CheckSession, CheckError> {
        let mut st = lock();
        if st.is_some() {
            return Err(CheckError::SessionActive);
        }
        let history_limit = cfg.history_limit;
        *st = Some(State {
            edges: Vec::new(),
            cfg,
            epoch: EpochChecker::new(),
            hb: RaceDetector::new(history_limit),
            violations: Vec::new(),
            dropped: 0,
        });
        ENABLED.store(true, Ordering::SeqCst);
        Ok(CheckSession { _priv: () })
    }

    /// Disarm and return everything collected.
    pub fn finish(self) -> Report {
        teardown().unwrap_or_default()
    }
}

impl Drop for CheckSession {
    fn drop(&mut self) {
        teardown();
    }
}

fn teardown() -> Option<Report> {
    ENABLED.store(false, Ordering::SeqCst);
    lock().take().map(|s| Report {
        violations: s.violations,
        dropped: s.dropped,
        edges: s.edges,
    })
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

/// Serializes tests that start their own global session (mirrors
/// `caf_trace::SESSION_TEST_LOCK`).
pub static SESSION_TEST_LOCK: Mutex<()> = Mutex::new(());

/// Instrumentation entry points called by the runtime crates. All are
/// no-ops (one relaxed load) unless a session is active.
pub mod hooks {
    use super::*;

    /// The edge vocabulary of [`hb`] and its channel namespaces.
    pub use crate::hb::{HbEdge, NS_AGG, NS_EVENT, NS_SHIP};

    fn with_state(f: impl FnOnce(&mut State) -> Vec<Violation>) {
        if !enabled() {
            return;
        }
        let mut guard = lock();
        let Some(st) = guard.as_mut() else { return };
        let found = f(st);
        if !found.is_empty() {
            sink(st, found);
        }
    }

    fn epochs_on(st: &State) -> bool {
        st.cfg.epochs
    }

    /// `win_lock_all` by global rank `origin`.
    pub fn win_lock_all(window: u64, origin: usize) {
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.lock_all(window, origin, &mut out);
            }
            out
        });
    }

    /// `win_unlock_all`; `epoch_open` is the runtime's `locked_all` flag.
    pub fn win_unlock_all(window: u64, origin: usize, epoch_open: bool) {
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.unlock_all(window, origin, epoch_open, &mut out);
            }
            out
        });
    }

    /// `win_free` by `origin`.
    pub fn win_free(window: u64, origin: usize, epoch_open: bool) {
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.free(window, origin, epoch_open, &mut out);
            }
            out
        });
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
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.rma_put(
                    window,
                    origin,
                    target,
                    ByteRange::new(disp, len),
                    ByteRange::new(buf_addr, buf_len),
                    epoch_open,
                    &mut out,
                );
            }
            out
        });
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
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.rma_get(
                    window,
                    origin,
                    target,
                    ByteRange::new(disp, len),
                    ByteRange::new(buf_addr, buf_len),
                    epoch_open,
                    &mut out,
                );
            }
            out
        });
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
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.rma_atomic(
                    window,
                    origin,
                    target,
                    ByteRange::new(disp, len),
                    epoch_open,
                    &mut out,
                );
            }
            out
        });
    }

    /// A local load of `owner`'s own window region.
    pub fn local_read(window: u64, owner: usize, disp: u64, len: u64) {
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch
                    .local_read(window, owner, ByteRange::new(disp, len), &mut out);
            }
            out
        });
    }

    /// A local store into `owner`'s own window region.
    pub fn local_write(window: u64, owner: usize, disp: u64, len: u64) {
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch
                    .local_write(window, owner, ByteRange::new(disp, len), &mut out);
            }
            out
        });
    }

    /// `win_flush(origin → target)`.
    pub fn win_flush(window: u64, origin: usize, target: usize, epoch_open: bool) {
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.flush(window, origin, target, epoch_open, &mut out);
            }
            out
        });
    }

    /// `win_flush_all(origin)`.
    pub fn win_flush_all(window: u64, origin: usize, epoch_open: bool) {
        with_state(|st| {
            let mut out = Vec::new();
            if epochs_on(st) {
                st.epoch.flush_all(window, origin, epoch_open, &mut out);
            }
            out
        });
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
        let mut guard = lock();
        let Some(st) = guard.as_mut() else { return 0 };
        if !st.cfg.epochs {
            return 0;
        }
        st.epoch
            .request_open(window, origin, ByteRange::new(buf_addr, buf_len), kind)
    }

    /// The tracked request completed properly.
    pub fn request_wait(token: u64) {
        if token == 0 {
            return;
        }
        with_state(|st| {
            st.epoch.request_wait(token);
            Vec::new()
        });
    }

    /// The tracked request was dropped without completion.
    pub fn request_drop(token: u64) {
        if token == 0 {
            return;
        }
        with_state(|st| {
            let mut out = Vec::new();
            st.epoch.request_drop(token, &mut out);
            out
        });
    }

    /// One happens-before edge of image `img`, reported by the CAF
    /// layer's operation prologue — the only place that calls this.
    pub fn hb(img: usize, edge: HbEdge) {
        with_state(|st| {
            if st.edges.len() < st.cfg.max_violations {
                st.edges.push((caf_trace::now_ns(), img, edge));
            }
            let mut out = Vec::new();
            if st.cfg.races {
                st.hb.apply(img, edge, &mut out);
            }
            out
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ViolationKind;

    #[test]
    fn hooks_are_inert_without_a_session_and_live_with_one() {
        let _guard = SESSION_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        hooks::rma_put(1, 0, 1, 0, 8, 0, 0, false); // no session: swallowed
        assert_eq!(hooks::request_open(1, 0, 0, 8, "rput"), 0);

        let s = CheckSession::start(CheckConfig::default()).expect("no active session");
        assert!(enabled());
        assert!(CheckSession::start(CheckConfig::default()).is_err());
        hooks::rma_put(1, 0, 1, 0, 8, 0, 0, false);
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
        let _guard = SESSION_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
