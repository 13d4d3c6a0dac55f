//! The substrate abstraction: one CAF runtime, two communication layers.
//!
//! `Backend::Mpi` is the paper's contribution (CAF-MPI, §3); `Backend::Gasnet`
//! is the baseline the paper compares against (CAF-GASNet, the original
//! CAF 2.0 runtime). A backend holds the substrate's library and its
//! runtime-message transport — three methods that move a message's frame:
//! send, poll, and blocking receive; framing and decoding are
//! [`crate::rtmsg`]'s — and nothing per region: which region an id
//! names is one table in [`crate::Image`] on both substrates, and the
//! release walk over its windows lives beside it (`event.rs`). Remote
//! references, flush semantics and collectives availability stay
//! substrate-specific, paired with the backend through
//! `RegionInner::on`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use caf_fabric::Watch;
use caf_gasnetsim::{Gasnet, AM_MAX_MEDIUM};
use caf_mpisim::{Comm, Mpi, Src, Tag};

use crate::arena::SegmentArena;

/// How the CAF-MPI backend completes outstanding puts at a release point
/// (`event_notify`, `cofence`, `finish`, `copy_async` completion).
///
/// The paper's §4.1 analysis shows `MPI_Win_flush_all` costs Θ(P) in every
/// MPICH derivative, which makes `event_notify` scale with job size; its §5
/// fix is to complete only what is actually outstanding. The runtime keeps
/// [`FlushMode::All`] as the default so the paper's measured behaviour is
/// what benchmarks reproduce out of the box; the fixed modes are opt-in via
/// `CafConfig::flush`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushMode {
    /// Paper-faithful baseline: `MPI_Win_flush_all` on every window the
    /// image has touched — Θ(P) per window regardless of what is dirty.
    #[default]
    All,
    /// Targeted flush (§5): `MPI_Win_flush` per dirty `(window, rank)`
    /// pair. Falls back to `flush_all` on a window when more than half
    /// of its ranks are dirty (`FALLBACK_FRACTION`).
    Targeted,
    /// Non-blocking targeted flush (`MPI_WIN_RFLUSH`, §5's "even better
    /// approach"): per-target flushes are *initiated*, local release work
    /// overlaps their latency, and completion is waited at the end. Same
    /// dirty-fraction fallback as [`FlushMode::Targeted`].
    Rflush,
}

/// Dirty fraction of a window's ranks above which the targeted modes
/// flush the whole window instead (at that point the Θ(P) scan is the
/// cheaper handshake pattern).
pub(crate) const FALLBACK_FRACTION: f64 = 0.5;

impl FlushMode {
    /// Stable identifier used in bench JSON and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FlushMode::All => "all",
            FlushMode::Targeted => "targeted",
            FlushMode::Rflush => "rflush",
        }
    }
}

/// Tag used for runtime AMs on the MPI substrate's private communicator.
pub(crate) const RT_TAG: i64 = 7;
/// GASNet handler index used for runtime AMs.
pub(crate) const RT_HANDLER: usize = caf_gasnetsim::FIRST_USER_HANDLER;

/// Per-image substrate state. Boxed: one per image, matched constantly.
pub(crate) enum Backend {
    Mpi(Box<MpiBackend>),
    Gasnet(Box<GasnetBackend>),
}

/// CAF-MPI: MPI-3 is the runtime (paper §3).
pub(crate) struct MpiBackend {
    pub mpi: Mpi,
    /// Private communicator carrying runtime AMs (events, shipping), so
    /// they can never match application-level receives.
    pub rt_comm: Comm,
    /// Release-point completion policy (see [`FlushMode`]).
    pub flush: FlushMode,
}

/// CAF-GASNet: the original runtime design, for baseline comparison.
pub(crate) struct GasnetBackend {
    pub g: Gasnet,
    /// Allocator over the attached segment (coarrays live inside it).
    pub arena: SegmentArena,
    /// Received-but-unhandled runtime AM frames, filled by the GASNet
    /// handler — which runs only inside this image's own polls, so the
    /// queue has one owner and needs no lock.
    pub inbox: Rc<RefCell<VecDeque<Vec<u8>>>>,
    /// Optional co-resident MPI library (the paper's "duplicate runtimes"
    /// configuration, used by hybrid applications such as CGPOP and by the
    /// Figure-1 memory experiment).
    pub hybrid_mpi: Option<Mpi>,
}

impl GasnetBackend {
    /// The oldest runtime AM frame the handler has queued. The inbox is
    /// released before the caller handles the frame: a shipped closure
    /// that polls runs the handler again.
    fn next_frame(&self) -> Option<Vec<u8>> {
        self.inbox.borrow_mut().pop_front()
    }
}

impl Backend {
    pub fn rank(&self) -> usize {
        match self {
            Backend::Mpi(b) => b.mpi.rank(),
            Backend::Gasnet(b) => b.g.rank(),
        }
    }

    pub fn size(&self) -> usize {
        match self {
            Backend::Mpi(b) => b.mpi.size(),
            Backend::Gasnet(b) => b.g.size(),
        }
    }

    /// Send a runtime message, framed by its sender ([`crate::rtmsg`]),
    /// to a global rank. Non-blocking (paper §3.4: notifications must not
    /// block, to avoid deadlock in circular wait/notify chains): on this
    /// eager substrate an `MPI_Send` completes at injection, as an
    /// `MPI_Isend` + `MPI_Wait` would.
    pub fn send_rtmsg(&self, target: usize, frame: &[u8]) {
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::RtMsgSend,
                Some(target),
                frame.len() as u64,
                None,
            );
        }
        match self {
            Backend::Mpi(b) => {
                b.mpi.send(&b.rt_comm, target, RT_TAG, frame).expect("runtime AM send");
            }
            Backend::Gasnet(b) => {
                assert!(
                    frame.len() <= AM_MAX_MEDIUM,
                    "runtime message of {} bytes exceeds the medium-AM limit; \
                     large transfers must use puts",
                    frame.len()
                );
                b.g.am_request_medium(target, RT_HANDLER, &[], frame)
                    .expect("runtime AM send");
            }
        }
    }

    /// [`Backend::send_rtmsg`] for a frame built in a buffer the packet
    /// takes over: on CAF-GASNet it is not copied again.
    pub fn send_rtmsg_bytes(&self, target: usize, frame: Bytes) {
        let Backend::Gasnet(b) = self else {
            return self.send_rtmsg(target, &frame);
        };
        if caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::RtMsgSend, Some(target), frame.len() as u64, None);
        }
        b.g.am_request_medium_bytes(target, RT_HANDLER, frame).expect("runtime AM send");
    }

    /// Non-blocking poll for one runtime message's frame.
    pub fn try_recv_rtmsg(&self) -> Option<Vec<u8>> {
        match self {
            Backend::Mpi(b) => {
                b.mpi.try_recv(&b.rt_comm, Src::Any, Tag::Is(RT_TAG)).map(|(frame, _)| frame)
            }
            Backend::Gasnet(b) => b.next_frame().or_else(|| {
                b.g.poll();
                b.next_frame()
            }),
        }
    }

    /// Block until a runtime message arrives and return its frame, or fail
    /// with the failed subset of `watch` once a watched image has died.
    /// The blocking wait makes progress on the substrate (paper §3.4: "the
    /// blocking polling operation allows the MPI runtime to make progress
    /// internally").
    ///
    /// On the MPI substrate the runtime communicator spans the world, so
    /// the detection granularity is the whole job regardless of `watch`
    /// (a narrower watch is honored on GASNet, whose AM wait screens
    /// per-rank).
    pub fn recv_rtmsg_blocking_stat(&self, watch: Watch<'_>) -> caf_fabric::Result<Vec<u8>> {
        let _span = caf_trace::span(caf_trace::Op::RtMsgRecvBlocking);
        match self {
            Backend::Mpi(b) => Ok(b.mpi.recv(&b.rt_comm, Src::Any, Tag::Is(RT_TAG))?.0),
            Backend::Gasnet(b) => loop {
                if let Some(frame) = b.next_frame() {
                    return Ok(frame);
                }
                b.g.dispatch_packet(b.g.wait_am_packet_watching(watch)?);
            },
        }
    }

    /// The MPI library team collectives delegate to: CAF-MPI's. `None` on
    /// CAF-GASNet, whose runtime hand-rolls them from AMs (a co-resident
    /// hybrid MPI library is the application's, not the runtime's).
    pub fn coll_mpi(&self) -> Option<&Mpi> {
        match self {
            Backend::Mpi(b) => Some(&b.mpi),
            Backend::Gasnet(_) => None,
        }
    }

    /// Handle onto the substrate's failure registry.
    pub fn fault(&self) -> &caf_fabric::Fault {
        match self {
            Backend::Mpi(b) => b.mpi.fault(),
            Backend::Gasnet(b) => b.g.fault(),
        }
    }

    /// Runtime memory overhead in bytes (Figure 1): the substrate's own
    /// accounting, plus the co-resident MPI library's when running
    /// duplicate runtimes.
    pub fn memory_overhead(&self) -> usize {
        match self {
            Backend::Mpi(b) => b.mpi.mem().runtime_overhead(),
            Backend::Gasnet(b) => {
                b.g.mem().runtime_overhead()
                    + b.hybrid_mpi
                        .as_ref()
                        .map_or(0, |m| m.mem().runtime_overhead())
            }
        }
    }
}
