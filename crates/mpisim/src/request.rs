//! Request objects for request-generating RMA operations (`MPI_Rput`,
//! `MPI_Rget`, `MPI_WIN_RFLUSH`).
//!
//! Completion semantics follow MPI-3 §11.3 precisely, because the paper's
//! asynchronous-operation mapping (§3.3) depends on them:
//!
//! * an **`rput`** request completes when the operation is *locally*
//!   complete (the origin buffer is reusable) — it says nothing about the
//!   target;
//! * an **`rget`** request completes when the operation is both locally and
//!   *remotely* complete (the data is at the origin).
//!
//! On this substrate the data plane applies operations at call time, so
//! requests are born complete; the distinction is preserved in the types and
//! in the cost accounting so the runtime layered above behaves exactly as it
//! would on real MPI.

use caf_fabric::Pod;
use caf_trace::Op;

/// Completion kind certified by a request, mirroring MPI-3 RMA semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaCompletion {
    /// Local completion only (PUT-style requests).
    LocalOnly,
    /// Local and remote completion (GET-style requests).
    LocalAndRemote,
}

/// A request handle returned by a request-generating RMA operation.
///
/// `T` is the fetched element type for GET-style operations, or `()` for
/// PUT-style operations. Under an armed trace its life is recorded —
/// opened, waited, or dropped without a wait (the Fig 2 put-ack hazard:
/// nothing ever certifies the operation's completion) — with the origin
/// buffer it borrows, which names it.
#[derive(Debug)]
#[must_use = "RMA requests must be completed with wait()"]
pub struct RmaRequest<T: Pod> {
    data: Option<Vec<T>>,
    completion: RmaCompletion,
    win_id: u64,
    /// Address of the origin buffer the request borrows until waited.
    buf: u64,
}

impl<T: Pod> RmaRequest<T> {
    /// A live request of `op` (`RmaPut` or `RmaGet`) on window `win_id`
    /// borrowing the origin buffer `(addr, len)` — for a get, the
    /// request's own `data`.
    pub(crate) fn open(win_id: u64, op: Op, (addr, len): (u64, u64), data: Option<Vec<T>>) -> Self {
        caf_trace::instant_a(Op::RequestOpen, None, len, Some(win_id), Some(addr), op as u64);
        RmaRequest {
            completion: if data.is_some() {
                RmaCompletion::LocalAndRemote
            } else {
                RmaCompletion::LocalOnly
            },
            data,
            win_id,
            buf: addr,
        }
    }

    /// What completing this request certifies.
    pub fn completion(&self) -> RmaCompletion {
        self.completion
    }

    /// Nonblocking completion test (`MPI_Test`).
    pub fn test(&self) -> bool {
        true
    }

    /// Wait for completion and take the fetched data (`MPI_Wait`).
    pub fn wait(mut self) -> Vec<T> {
        caf_trace::instant_d(Op::RequestWait, None, 0, Some(self.win_id), Some(self.buf));
        let data = self.data.take();
        // Completed: nothing is left for `Drop` to report.
        std::mem::forget(self);
        data.unwrap_or_default()
    }
}

impl<T: Pod> Drop for RmaRequest<T> {
    fn drop(&mut self) {
        if caf_trace::enabled() && !std::thread::panicking() {
            caf_trace::instant_d(Op::RequestDrop, None, 0, Some(self.win_id), Some(self.buf));
        }
    }
}

/// An in-flight non-blocking per-target flush — the request returned by
/// `MPI_WIN_RFLUSH`, the extension the paper proposes in §5 so that an
/// origin can overlap release-time completion with other work.
///
/// The modeled flush latency starts at initiation; [`FlushRequest::wait`]
/// spins only for whatever remains of it, then certifies remote completion
/// (memory fence, dirty-target retirement; the end of its `WinRflushWait`
/// span is the flush the caf-check replay reads). Dropping the request
/// without waiting abandons the flush: the target stays dirty and, under
/// `caf-check`, its pending puts stay pending — the same hazard an
/// unwaited `rput` models.
#[derive(Debug)]
#[must_use = "an rflush completes nothing until wait()"]
pub struct FlushRequest {
    pub(crate) win_id: u64,
    /// Comm-relative target (for dirty-set retirement).
    pub(crate) target: usize,
    /// Global target rank (for tracing).
    pub(crate) target_global: usize,
    /// Modeled completion time: issue time + per-target flush cost.
    pub(crate) deadline_ns: u64,
    pub(crate) dirty: crate::rma::DirtySet,
}

impl FlushRequest {
    /// Global rank of the flushed target.
    pub fn target_global(&self) -> usize {
        self.target_global
    }

    /// Nonblocking completion probe: whether the modeled latency has
    /// already elapsed (an immediate `wait` would not spin).
    pub fn test(&self) -> bool {
        caf_fabric::delay::monotonic_ns() >= self.deadline_ns
    }

    /// Complete the flush: pay whatever remains of the modeled per-target
    /// latency, then certify remote completion of every operation this
    /// origin had outstanding to the target.
    pub fn wait(self) {
        crate::rma::announce_sync(self.win_id);
        let _span = caf_trace::span_t(
            caf_trace::Op::WinRflushWait,
            Some(self.target_global),
            0,
            Some(self.win_id),
        );
        let now = caf_fabric::delay::monotonic_ns();
        if now < self.deadline_ns {
            caf_fabric::delay::spin_for_ns((self.deadline_ns - now) as f64);
        }
        self.dirty.clear(self.target);
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_requests_certify_remote_completion() {
        let r = RmaRequest::open(7, Op::RmaGet, (0, 16), Some(vec![1u64, 2]));
        assert_eq!(r.completion(), RmaCompletion::LocalAndRemote);
        assert!(r.test());
        assert_eq!(r.wait(), vec![1, 2]);
    }

    #[test]
    fn put_requests_certify_local_only() {
        let r = RmaRequest::<()>::open(7, Op::RmaPut, (0, 8), None);
        assert_eq!(r.completion(), RmaCompletion::LocalOnly);
        assert!(r.wait().is_empty());
    }
}
