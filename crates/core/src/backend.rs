//! The substrate abstraction: one CAF runtime, two communication layers.
//!
//! `Backend::Mpi` is the paper's contribution (CAF-MPI, §3); `Backend::Gasnet`
//! is the baseline the paper compares against (CAF-GASNet, the original
//! CAF 2.0 runtime). A backend holds the substrate's library and its
//! runtime-message transport, and nothing per region: which region an id
//! names is one table in [`crate::Image`] on both substrates, and the
//! release walk over its windows lives beside it (`event.rs`). Remote
//! references, flush semantics and collectives availability stay
//! substrate-specific, paired with the backend through
//! `RegionInner::on`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use caf_fabric::Watch;
use caf_gasnetsim::{Gasnet, AM_MAX_MEDIUM};
use caf_mpisim::{Comm, Mpi, Src, Tag};

use crate::arena::SegmentArena;
use crate::rtmsg::RtMsg;

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
    /// Received-but-unhandled runtime AMs, filled by the GASNet handler.
    pub inbox: Arc<Mutex<VecDeque<Vec<u8>>>>,
    /// Optional co-resident MPI library (the paper's "duplicate runtimes"
    /// configuration, used by hybrid applications such as CGPOP and by the
    /// Figure-1 memory experiment).
    pub hybrid_mpi: Option<Mpi>,
}

impl GasnetBackend {
    /// The oldest runtime AM the handler has queued.
    fn next_rtmsg(&self) -> Option<RtMsg> {
        let bytes = self.inbox.lock().unwrap_or_else(PoisonError::into_inner).pop_front()?;
        Some(RtMsg::decode(bytes))
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

    /// Send a runtime message to a global rank. Non-blocking (paper §3.4:
    /// notifications use `MPI_ISEND` to avoid deadlock in circular
    /// wait/notify chains).
    pub fn send_rtmsg(&self, target: usize, msg: &RtMsg) {
        self.send_rtmsg_bytes(target, &msg.encode());
    }

    /// [`Backend::send_rtmsg`] for a message already in its
    /// [`RtMsg::encode`] form.
    pub fn send_rtmsg_bytes(&self, target: usize, bytes: &[u8]) {
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::RtMsgSend,
                Some(target),
                bytes.len() as u64,
                None,
            );
        }
        match self {
            Backend::Mpi(b) => {
                b.mpi
                    .isend(&b.rt_comm, target, RT_TAG, bytes)
                    .expect("runtime AM send")
                    .wait();
            }
            Backend::Gasnet(b) => {
                assert!(
                    bytes.len() <= AM_MAX_MEDIUM,
                    "runtime message of {} bytes exceeds the medium-AM limit; \
                     large transfers must use puts",
                    bytes.len()
                );
                b.g.am_request_medium(target, RT_HANDLER, &[], bytes)
                    .expect("runtime AM send");
            }
        }
    }

    /// Non-blocking poll for one runtime message.
    pub fn try_recv_rtmsg(&self) -> Option<RtMsg> {
        match self {
            Backend::Mpi(b) => try_match_rt(&b.mpi, &b.rt_comm, RT_TAG).map(RtMsg::decode),
            Backend::Gasnet(b) => b.next_rtmsg().or_else(|| {
                b.g.poll();
                b.next_rtmsg()
            }),
        }
    }

    /// Block until a runtime message arrives, or fail with the failed
    /// subset of `watch` once a watched image has died. The blocking wait
    /// makes progress on the substrate (paper §3.4: "the blocking polling
    /// operation allows the MPI runtime to make progress internally").
    ///
    /// On the MPI substrate the runtime communicator spans the world, so
    /// the detection granularity is the whole job regardless of `watch`
    /// (a narrower watch is honored on GASNet, whose AM wait screens
    /// per-rank).
    pub fn recv_rtmsg_blocking_stat(&self, watch: Watch<'_>) -> caf_fabric::Result<RtMsg> {
        let _span = caf_trace::span(caf_trace::Op::RtMsgRecvBlocking);
        match self {
            Backend::Mpi(b) => {
                let (bytes, _st) = b.mpi.recv::<u8>(&b.rt_comm, Src::Any, Tag::Is(RT_TAG))?;
                Ok(RtMsg::decode(bytes))
            }
            Backend::Gasnet(b) => loop {
                if let Some(msg) = b.next_rtmsg() {
                    return Ok(msg);
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

/// Runtime-AM matcher on the MPI substrate (non-blocking).
fn try_match_rt(mpi: &Mpi, rt_comm: &Comm, tag: i64) -> Option<Vec<u8>> {
    let mut req = mpi.irecv::<u8>(rt_comm, Src::Any, Tag::Is(tag));
    if req.test(mpi) {
        let (bytes, _st) = req.wait(mpi);
        Some(bytes)
    } else {
        // Dropping an unmatched irecv is safe on this substrate: irecv
        // posts no receive state until matched.
        drop(req);
        None
    }
}
