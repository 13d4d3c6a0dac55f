//! The MPI-3 passive-target epoch-legality checker.
//!
//! Pure shadow state — no clocks, no threads: the trace replay feeds it
//! one call per recorded RMA entry point, with the
//! **global** ranks of origin and target and the byte range touched in
//! the target's window coordinates. The checker tracks, per window:
//!
//! - which origins currently hold a `lock_all` epoch (to catch unbalanced
//!   lock/unlock pairs and frees with an epoch open — the epoch status
//!   used for `OutsideEpoch` is passed in as `epoch_open`, the replay's
//!   view of the origin's `locked_all` flag);
//! - the set of *pending* (issued, not yet flushed) puts and accumulates
//!   as `(origin, target, byte range)` triples, cleared by
//!   `win_flush(origin → target)` / `win_flush_all(origin)`;
//! - open request-generating operations (`rput`/`rget`/…) with the
//!   address range of the origin buffer they borrow, for the Fig 2
//!   lost-completion and buffer-reuse hazards.
//!
//! Overlap rules enforced (MPI-3 §11.7, separate memory model):
//! put/put, put/get, put/local-load, put/local-store and put/accumulate
//! conflicts within one epoch with no separating flush are flagged;
//! accumulate/accumulate is *allowed* (accumulates are atomic and
//! ordered with respect to each other).

use std::collections::HashMap;

use crate::report::{ByteRange, Violation, ViolationKind};

/// Ceiling on remembered pending operations per window; older entries are
/// forgotten first (can only cause false negatives).
const MAX_PENDING: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct Pending {
    origin: usize,
    target: usize,
    range: ByteRange,
    /// True for accumulate-family operations (atomic, mutually ordered).
    atomic: bool,
}

#[derive(Debug, Default)]
struct WinState {
    /// Origins whose shadow epoch is open (lock_all seen, no unlock_all).
    open: Vec<usize>,
    pending: Vec<Pending>,
}

#[derive(Debug, Clone)]
struct OpenRequest {
    window: u64,
    origin: usize,
    /// Origin buffer *address* range the request still borrows.
    buf: ByteRange,
    kind: &'static str,
}

/// Shadow state for every window of the job. One instance per replay;
/// all methods append any diagnostics to `out`.
#[derive(Debug, Default)]
pub struct EpochChecker {
    windows: HashMap<u64, WinState>,
    requests: HashMap<u64, OpenRequest>,
    next_token: u64,
}

impl EpochChecker {
    /// Fresh checker with no windows known.
    pub fn new() -> Self {
        Self::default()
    }

    fn win(&mut self, window: u64) -> &mut WinState {
        self.windows.entry(window).or_default()
    }

    /// `win_lock_all` by `origin`.
    pub fn lock_all(&mut self, window: u64, origin: usize, out: &mut Vec<Violation>) {
        let st = self.win(window);
        if st.open.contains(&origin) {
            out.push(Violation {
                kind: ViolationKind::UnbalancedEpoch,
                window: Some(window),
                image: origin,
                other: None,
                range: None,
                detail: "win_lock_all with this rank's epoch already open".into(),
            });
            return;
        }
        st.open.push(origin);
    }

    /// `win_unlock_all` by `origin`; `epoch_open` is the runtime's own
    /// epoch flag at call time.
    pub fn unlock_all(
        &mut self,
        window: u64,
        origin: usize,
        epoch_open: bool,
        out: &mut Vec<Violation>,
    ) {
        let st = self.win(window);
        if !epoch_open && !st.open.contains(&origin) {
            out.push(Violation {
                kind: ViolationKind::UnbalancedEpoch,
                window: Some(window),
                image: origin,
                other: None,
                range: None,
                detail: "win_unlock_all with no epoch open".into(),
            });
        }
        st.open.retain(|&o| o != origin);
        // unlock_all completes everything this origin issued.
        st.pending.retain(|p| p.origin != origin);
    }

    /// `win_free` by `origin`.
    pub fn free(
        &mut self,
        window: u64,
        origin: usize,
        epoch_open: bool,
        out: &mut Vec<Violation>,
    ) {
        let st = self.win(window);
        if epoch_open || st.open.contains(&origin) {
            out.push(Violation {
                kind: ViolationKind::OpenEpochAtFree,
                window: Some(window),
                image: origin,
                other: None,
                range: None,
                detail: "win_free while the passive-target epoch is still open".into(),
            });
        }
        st.open.retain(|&o| o != origin);
        st.pending.retain(|p| p.origin != origin);
    }

    fn outside(window: u64, origin: usize, what: &str, out: &mut Vec<Violation>) {
        out.push(Violation {
            kind: ViolationKind::OutsideEpoch,
            window: Some(window),
            image: origin,
            other: None,
            range: None,
            detail: format!("{what} outside a passive-target epoch (no win_lock_all)"),
        });
    }

    /// Scan for a pending conflict at `target` overlapping `range`.
    /// `vs_atomics` selects whether pending accumulates also conflict.
    fn conflict(
        st: &WinState,
        target: usize,
        range: ByteRange,
        vs_atomics: bool,
    ) -> Option<Pending> {
        st.pending
            .iter()
            .find(|p| {
                p.target == target && (vs_atomics || !p.atomic) && p.range.overlaps(&range)
            })
            .copied()
    }

    fn push_pending(st: &mut WinState, p: Pending) {
        if st.pending.len() >= MAX_PENDING {
            st.pending.remove(0);
        }
        st.pending.push(p);
    }

    /// An `MPI_Put` (or `rput`) of `range` bytes at `target`'s region.
    /// `buf` is the origin buffer's address range (for the buffer-reuse
    /// check); an empty range checks nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn rma_put(
        &mut self,
        window: u64,
        origin: usize,
        target: usize,
        range: ByteRange,
        buf: ByteRange,
        epoch_open: bool,
        out: &mut Vec<Violation>,
    ) {
        self.buffer_reuse(origin, buf, out);
        if !epoch_open {
            Self::outside(window, origin, "put", out);
        }
        let st = self.win(window);
        if let Some(p) = Self::conflict(st, target, range, true) {
            out.push(Violation {
                kind: ViolationKind::EpochOverlap,
                window: Some(window),
                image: origin,
                other: Some(p.origin),
                range: Some(p.range.intersect(&range)),
                detail: format!(
                    "put to image {target} overlaps an unflushed {} from image {} with no \
                     separating win_flush (undefined under MPI-3)",
                    if p.atomic { "accumulate" } else { "put" },
                    p.origin
                ),
            });
        }
        Self::push_pending(
            st,
            Pending {
                origin,
                target,
                range,
                atomic: false,
            },
        );
    }

    /// An `MPI_Get` (or `rget`) of `range` bytes from `target`'s region.
    /// Gets are not recorded as pending: on this substrate they complete
    /// in place, and get/get pairs never conflict.
    #[allow(clippy::too_many_arguments)]
    pub fn rma_get(
        &mut self,
        window: u64,
        origin: usize,
        target: usize,
        range: ByteRange,
        buf: ByteRange,
        epoch_open: bool,
        out: &mut Vec<Violation>,
    ) {
        self.buffer_reuse(origin, buf, out);
        if !epoch_open {
            Self::outside(window, origin, "get", out);
        }
        let st = self.win(window);
        if let Some(p) = Self::conflict(st, target, range, true) {
            out.push(Violation {
                kind: ViolationKind::EpochOverlap,
                window: Some(window),
                image: origin,
                other: Some(p.origin),
                range: Some(p.range.intersect(&range)),
                detail: format!(
                    "get from image {target} overlaps an unflushed {} from image {} with no \
                     separating win_flush",
                    if p.atomic { "accumulate" } else { "put" },
                    p.origin
                ),
            });
        }
    }

    /// An accumulate-family operation (atomic; conflicts with pending
    /// puts but not with other accumulates).
    pub fn rma_atomic(
        &mut self,
        window: u64,
        origin: usize,
        target: usize,
        range: ByteRange,
        epoch_open: bool,
        out: &mut Vec<Violation>,
    ) {
        if !epoch_open {
            Self::outside(window, origin, "accumulate", out);
        }
        let st = self.win(window);
        if let Some(p) = Self::conflict(st, target, range, false) {
            out.push(Violation {
                kind: ViolationKind::EpochOverlap,
                window: Some(window),
                image: origin,
                other: Some(p.origin),
                range: Some(p.range.intersect(&range)),
                detail: format!(
                    "accumulate at image {target} overlaps an unflushed put from image {}",
                    p.origin
                ),
            });
        }
        Self::push_pending(
            st,
            Pending {
                origin,
                target,
                range,
                atomic: true,
            },
        );
    }

    /// A local load of `owner`'s own window region.
    pub fn local_read(
        &mut self,
        window: u64,
        owner: usize,
        range: ByteRange,
        out: &mut Vec<Violation>,
    ) {
        let st = self.win(window);
        if let Some(p) = st
            .pending
            .iter()
            .find(|p| p.target == owner && p.range.overlaps(&range))
        {
            out.push(Violation {
                kind: ViolationKind::ReadBeforeFlush,
                window: Some(window),
                image: owner,
                other: Some(p.origin),
                range: Some(p.range.intersect(&range)),
                detail: format!(
                    "local read of window memory that an unflushed {} from image {} still \
                     targets (origin must win_flush first)",
                    if p.atomic { "accumulate" } else { "put" },
                    p.origin
                ),
            });
        }
    }

    /// A local store into `owner`'s own window region.
    pub fn local_write(
        &mut self,
        window: u64,
        owner: usize,
        range: ByteRange,
        out: &mut Vec<Violation>,
    ) {
        let st = self.win(window);
        if let Some(p) = st
            .pending
            .iter()
            .find(|p| p.target == owner && p.range.overlaps(&range))
        {
            out.push(Violation {
                kind: ViolationKind::EpochOverlap,
                window: Some(window),
                image: owner,
                other: Some(p.origin),
                range: Some(p.range.intersect(&range)),
                detail: format!(
                    "local store overlaps an unflushed {} from image {} within the epoch",
                    if p.atomic { "accumulate" } else { "put" },
                    p.origin
                ),
            });
        }
    }

    /// `win_flush(origin → target)`: completes that origin's pending
    /// operations at that target.
    pub fn flush(
        &mut self,
        window: u64,
        origin: usize,
        target: usize,
        epoch_open: bool,
        out: &mut Vec<Violation>,
    ) {
        if !epoch_open {
            Self::outside(window, origin, "win_flush", out);
        }
        self.win(window)
            .pending
            .retain(|p| !(p.origin == origin && p.target == target));
    }

    /// `win_flush_all(origin)`: completes all of that origin's pending
    /// operations on the window.
    pub fn flush_all(
        &mut self,
        window: u64,
        origin: usize,
        epoch_open: bool,
        out: &mut Vec<Violation>,
    ) {
        if !epoch_open {
            Self::outside(window, origin, "win_flush_all", out);
        }
        self.win(window).pending.retain(|p| p.origin != origin);
    }

    /// Register a live request-generating operation borrowing origin
    /// buffer addresses `buf`. Returns the tracking token (never 0).
    pub fn request_open(
        &mut self,
        window: u64,
        origin: usize,
        buf: ByteRange,
        kind: &'static str,
    ) -> u64 {
        self.next_token += 1;
        let token = self.next_token;
        self.requests.insert(
            token,
            OpenRequest {
                window,
                origin,
                buf,
                kind,
            },
        );
        token
    }

    /// The request was properly completed with `wait`/`test`.
    pub fn request_wait(&mut self, token: u64) {
        self.requests.remove(&token);
    }

    /// The request was dropped without completion — the Fig 2 hazard.
    pub fn request_drop(&mut self, token: u64, out: &mut Vec<Violation>) {
        if let Some(r) = self.requests.remove(&token) {
            out.push(Violation {
                kind: ViolationKind::LostCompletion,
                window: Some(r.window),
                image: r.origin,
                other: None,
                range: None,
                detail: format!(
                    "{} request dropped without wait: its completion certificate is lost \
                     (paper Fig 2 put-ack hazard)",
                    r.kind
                ),
            });
        }
    }

    /// Flag any live request of `origin` whose borrowed buffer overlaps
    /// `buf` (address ranges).
    fn buffer_reuse(&mut self, origin: usize, buf: ByteRange, out: &mut Vec<Violation>) {
        if buf.is_empty() {
            return;
        }
        for r in self.requests.values() {
            if r.origin == origin && r.buf.overlaps(&buf) {
                out.push(Violation {
                    kind: ViolationKind::BufferReuse,
                    window: Some(r.window),
                    image: origin,
                    other: None,
                    range: None,
                    detail: format!(
                        "origin buffer handed to a live {} request reused by another RMA \
                         operation before completion",
                        r.kind
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(start: u64, len: u64) -> ByteRange {
        ByteRange::new(start, len)
    }

    #[test]
    fn put_outside_epoch_is_flagged() {
        let mut c = EpochChecker::new();
        let mut out = Vec::new();
        c.rma_put(7, 0, 1, rng(0, 8), rng(0, 0), false, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::OutsideEpoch);
        assert_eq!(out[0].image, 0);
    }

    #[test]
    fn overlapping_unflushed_puts_conflict_and_flush_separates() {
        let mut c = EpochChecker::new();
        let mut out = Vec::new();
        c.lock_all(7, 0, &mut out);
        c.lock_all(7, 1, &mut out);
        c.rma_put(7, 0, 2, rng(0, 16), rng(0, 0), true, &mut out);
        assert!(out.is_empty());
        c.rma_put(7, 1, 2, rng(8, 16), rng(0, 0), true, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::EpochOverlap);
        assert_eq!(out[0].other, Some(0));
        assert_eq!(out[0].range, Some(ByteRange { start: 8, end: 16 }));
        out.clear();
        // After both origins flush, the same puts are legal again.
        c.flush(7, 0, 2, true, &mut out);
        c.flush_all(7, 1, true, &mut out);
        c.rma_put(7, 0, 2, rng(0, 16), rng(0, 0), true, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn local_read_of_unflushed_put_target_is_flagged() {
        let mut c = EpochChecker::new();
        let mut out = Vec::new();
        c.lock_all(7, 0, &mut out);
        c.rma_put(7, 0, 1, rng(0, 8), rng(0, 0), true, &mut out);
        c.local_read(7, 1, rng(4, 4), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::ReadBeforeFlush);
        assert_eq!(out[0].image, 1);
        assert_eq!(out[0].other, Some(0));
        out.clear();
        c.flush(7, 0, 1, true, &mut out);
        c.local_read(7, 1, rng(0, 8), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn accumulates_commute_but_conflict_with_puts() {
        let mut c = EpochChecker::new();
        let mut out = Vec::new();
        c.lock_all(7, 0, &mut out);
        c.lock_all(7, 1, &mut out);
        c.rma_atomic(7, 0, 2, rng(0, 8), true, &mut out);
        c.rma_atomic(7, 1, 2, rng(0, 8), true, &mut out);
        assert!(out.is_empty(), "accumulate/accumulate is ordered: {out:?}");
        c.rma_put(7, 1, 2, rng(0, 8), rng(0, 0), true, &mut out);
        assert_eq!(out.len(), 1, "put vs pending accumulate: {out:?}");
        assert_eq!(out[0].kind, ViolationKind::EpochOverlap);
    }

    #[test]
    fn request_lifecycle_flags_drop_and_reuse() {
        let mut c = EpochChecker::new();
        let mut out = Vec::new();
        let t = c.request_open(7, 0, rng(1000, 64), "rput");
        assert_ne!(t, 0);
        // Reusing the borrowed buffer in another op...
        c.rma_put(7, 0, 1, rng(64, 8), rng(1032, 8), true, &mut out);
        assert_eq!(out[0].kind, ViolationKind::BufferReuse);
        out.clear();
        // ...but a disjoint buffer is fine.
        c.rma_put(7, 0, 1, rng(128, 8), rng(5000, 8), true, &mut out);
        assert!(out.iter().all(|v| v.kind != ViolationKind::BufferReuse));
        out.clear();
        c.request_drop(t, &mut out);
        assert_eq!(out[0].kind, ViolationKind::LostCompletion);
        out.clear();
        let t2 = c.request_open(7, 0, rng(2000, 8), "rget");
        c.request_wait(t2);
        c.request_drop(t2, &mut out);
        assert!(out.is_empty(), "waited request never flags");
    }

    #[test]
    fn epoch_pairing_is_enforced() {
        let mut c = EpochChecker::new();
        let mut out = Vec::new();
        c.unlock_all(7, 0, false, &mut out);
        assert_eq!(out[0].kind, ViolationKind::UnbalancedEpoch);
        out.clear();
        c.lock_all(7, 0, &mut out);
        c.lock_all(7, 0, &mut out);
        assert_eq!(out[0].kind, ViolationKind::UnbalancedEpoch);
        out.clear();
        c.free(7, 0, true, &mut out);
        assert_eq!(out[0].kind, ViolationKind::OpenEpochAtFree);
    }
}
