//! Traced operations across the four runtime layers.

use crate::decomp::Cat;

/// One traced operation. Variants cover the hot paths of all four layers:
/// `caf` core, `mpisim`, `gasnetsim`, and the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Op {
    // --- caf core (the ten `Cat` categories, which share these discriminants) ---
    /// Application compute bracketed by the benchmark harness.
    Computation = 0,
    /// Remote coarray write (`a(..)[p] = v`).
    CoarrayWrite,
    /// Remote coarray read (`v = a(..)[p]`).
    CoarrayRead,
    /// `event_wait` blocking on a count.
    EventWait,
    /// `event_notify` (includes the pre-notify flush).
    EventNotify,
    /// CAF-level alltoall.
    Alltoall,
    /// CAF-level barrier (`sync all`).
    Barrier,
    /// CAF-level reduction.
    Reduction,
    /// `finish` termination detection.
    Finish,
    /// Asynchronous copy (`copy_async`).
    CopyAsync,
    // --- caf core (no category of their own) ---
    /// A synchronization send: `target` = the destination image, `disp`
    /// = the token, `bytes` = the [`Chan`] it is unique in (an event post,
    /// a shipped function, an aggregation batch).
    Send,
    /// Runtime control message send.
    RtMsgSend,
    /// Blocking receive of a runtime control message.
    RtMsgRecvBlocking,
    // --- mpisim ---
    /// Two-sided send injection.
    MpiSend,
    /// Blocking two-sided receive (includes matching).
    MpiRecv,
    /// MPI barrier.
    MpiBarrier,
    /// MPI broadcast.
    MpiBcast,
    /// MPI reduce / allreduce.
    MpiReduce,
    /// MPI allgather / gather.
    MpiGather,
    /// MPI alltoall.
    MpiAlltoall,
    /// One-sided put into an RMA window.
    RmaPut,
    /// One-sided get from an RMA window.
    RmaGet,
    /// One-sided accumulate / fetch-op / compare-and-swap.
    RmaAtomic,
    /// `MPI_Win_flush` to one target.
    WinFlush,
    /// `MPI_Win_flush_all` — the Θ(P) loop over every rank.
    WinFlushAll,
    // --- gasnetsim ---
    /// Active-message handler dispatch at the target.
    AmDispatch,
    /// `gasnet_AMPoll` that dispatched at least one AM.
    AmPoll,
    /// SRQ slow path charged on AM receive.
    SrqSlowPath,
    /// AM-mediated put waiting for the target's acknowledgement
    /// (the Figure 2 hazard: completion requires the target to poll).
    AmPutAckWait,
    /// GASNet barrier (dissemination rounds).
    GasnetBarrier,
    /// GASNet RDMA put.
    GasnetPut,
    /// GASNet RDMA get.
    GasnetGet,
    // --- fabric ---
    /// Packet handed to a mailbox.
    PacketInject,
    /// Packet taken out of a mailbox.
    PacketDeliver,
    /// Byte store into a registered segment.
    SegmentPut,
    /// Byte load from a registered segment.
    SegmentGet,
    // --- mpi (epoch lifecycle, appended so discriminants stay stable) ---
    /// `MPI_Win_lock_all` — passive-target epoch opened.
    WinLockAll,
    /// `MPI_Win_unlock_all` — epoch closed (completes everything).
    WinUnlockAll,
    /// `MPI_Win_free` — window torn down.
    WinFree,
    // --- mpi (targeted-flush extension, appended for stable decode) ---
    /// `MPI_WIN_RFLUSH` initiation — non-blocking per-target flush issued
    /// (the paper's §5 proposal).
    WinRflush,
    /// Waiting out the remainder of an rflush's modeled latency.
    WinRflushWait,
    // --- caf core (small-put aggregation, appended for stable decode) ---
    /// Record parked in an aggregation bucket (target = next hop,
    /// bytes = payload, window/disp = region/offset).
    AggEnqueue,
    /// Bucket drained into one batched AM (bytes = encoded batch size,
    /// disp = record count).
    AggDrain,
    /// Record re-bucketed toward its next hop at an intermediate rank
    /// (hypercube store-and-forward).
    AggForward,
    // --- caf-fault (failed-image semantics, appended for stable decode) ---
    /// An image died (injected fault or `fail_image()`); `bytes` = the
    /// failed rank.
    ImageFailed,
    /// A blocking call returned `STAT_FAILED_IMAGE` to the program;
    /// `bytes` = number of failed images in the delivered set.
    StatDelivered,
    // --- the facts the caf-check replay needs beyond the timeline above
    //     (appended for stable decode) ---
    /// Local load of a rank's window memory (`win_read_local*`):
    /// `target` = the owner, `disp`/`bytes` = the range.
    WinLoad,
    /// Local store into a rank's window memory, as [`Op::WinLoad`].
    WinStore,
    /// An `rput`/`rget` request went live: `disp`/`bytes` = the origin
    /// buffer it borrows (address, length), `arg` = the tracked op
    /// ([`Op::RmaPut`] or [`Op::RmaGet`]).
    RequestOpen,
    /// The request borrowing the buffer at `disp` was waited.
    RequestWait,
    /// The request borrowing the buffer at `disp` was dropped — after its
    /// wait, or instead of it.
    RequestDrop,
    /// A coarray load outside a [`Op::CoarrayRead`] span (a local read,
    /// one element of a section, the fetch of a `copy_async`): `target` =
    /// the owner, `window` = the region, `disp`/`bytes` = the range.
    Load,
    /// A coarray store, as [`Op::Load`].
    Store,
    /// The receive matching a [`Op::Send`]: `disp` = the token, `bytes`
    /// = the [`Chan`].
    Recv,
    /// The image enters its next collective round on the team in `disp`.
    RoundEnter,
    /// The image leaves that round; `bytes` = the team's size.
    RoundExit,
    /// A collective free dropped the region in `window`.
    RegionFree,
    /// A delivered `Stat` told the image that `target` died.
    FailureSeen,
}

/// The channel a [`Op::Send`] / [`Op::Recv`] token is unique in, carried
/// in the record's `bytes` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Chan {
    /// Counting-event posts (token: the event id).
    Event = 1,
    /// Function shipping (token: the ship-registry slot).
    Ship = 2,
    /// Aggregation batches (token: one per drained bucket).
    Batch = 3,
}

/// Number of [`Op`] variants (for decode bounds checks).
pub(crate) const NOPS: u16 = Op::FailureSeen as u16 + 1;

impl Op {
    /// Display name (used verbatim in Chrome trace output).
    pub fn name(self) -> &'static str {
        match self {
            Op::Computation => "Computation",
            Op::CoarrayWrite => "CoarrayWrite",
            Op::CoarrayRead => "CoarrayRead",
            Op::EventWait => "EventWait",
            Op::EventNotify => "EventNotify",
            Op::Alltoall => "Alltoall",
            Op::Barrier => "Barrier",
            Op::Reduction => "Reduction",
            Op::Finish => "Finish",
            Op::CopyAsync => "CopyAsync",
            Op::Send => "Send",
            Op::RtMsgSend => "RtMsgSend",
            Op::RtMsgRecvBlocking => "RtMsgRecvBlocking",
            Op::MpiSend => "MpiSend",
            Op::MpiRecv => "MpiRecv",
            Op::MpiBarrier => "MpiBarrier",
            Op::MpiBcast => "MpiBcast",
            Op::MpiReduce => "MpiReduce",
            Op::MpiGather => "MpiGather",
            Op::MpiAlltoall => "MpiAlltoall",
            Op::RmaPut => "RmaPut",
            Op::RmaGet => "RmaGet",
            Op::RmaAtomic => "RmaAtomic",
            Op::WinFlush => "WinFlush",
            Op::WinFlushAll => "WinFlushAll",
            Op::AmDispatch => "AmDispatch",
            Op::AmPoll => "AmPoll",
            Op::SrqSlowPath => "SrqSlowPath",
            Op::AmPutAckWait => "AmPutAckWait",
            Op::GasnetBarrier => "GasnetBarrier",
            Op::GasnetPut => "GasnetPut",
            Op::GasnetGet => "GasnetGet",
            Op::PacketInject => "PacketInject",
            Op::PacketDeliver => "PacketDeliver",
            Op::SegmentPut => "SegmentPut",
            Op::SegmentGet => "SegmentGet",
            Op::WinLockAll => "WinLockAll",
            Op::WinUnlockAll => "WinUnlockAll",
            Op::WinFree => "WinFree",
            Op::WinRflush => "WinRflush",
            Op::WinRflushWait => "WinRflushWait",
            Op::AggEnqueue => "AggEnqueue",
            Op::AggDrain => "AggDrain",
            Op::AggForward => "AggForward",
            Op::ImageFailed => "ImageFailed",
            Op::StatDelivered => "StatDelivered",
            Op::WinLoad => "WinLoad",
            Op::WinStore => "WinStore",
            Op::RequestOpen => "RequestOpen",
            Op::RequestWait => "RequestWait",
            Op::RequestDrop => "RequestDrop",
            Op::Load => "Load",
            Op::Store => "Store",
            Op::Recv => "Recv",
            Op::RoundEnter => "RoundEnter",
            Op::RoundExit => "RoundExit",
            Op::RegionFree => "RegionFree",
            Op::FailureSeen => "FailureSeen",
        }
    }

    /// Runtime layer, used as the Chrome `cat` field.
    pub fn layer(self) -> &'static str {
        use Op::*;
        match self {
            Computation | CoarrayWrite | CoarrayRead | EventWait | EventNotify | Alltoall
            | Barrier | Reduction | Finish | CopyAsync | Send | RtMsgSend | RtMsgRecvBlocking
            | AggEnqueue | AggDrain | AggForward | ImageFailed | StatDelivered | Load | Store
            | Recv | RoundEnter | RoundExit | RegionFree | FailureSeen => "caf",
            MpiSend | MpiRecv | MpiBarrier | MpiBcast | MpiReduce | MpiGather | MpiAlltoall
            | RmaPut | RmaGet | RmaAtomic | WinFlush | WinFlushAll | WinLockAll
            | WinUnlockAll | WinFree | WinRflush | WinRflushWait | WinLoad | WinStore
            | RequestOpen | RequestWait | RequestDrop => "mpi",
            AmDispatch | AmPoll | SrqSlowPath | AmPutAckWait | GasnetBarrier | GasnetPut
            | GasnetGet => "gasnet",
            PacketInject | PacketDeliver | SegmentPut | SegmentGet => "fabric",
        }
    }

    /// The decomposition category this op rolls up into (the paper's
    /// Fig 4/8 legend), if any. Only the first ten ops are categories;
    /// substrate-internal ops are attributed to whichever category
    /// encloses them.
    pub fn cat(self) -> Option<Cat> {
        Cat::ALL.get(self as usize).copied()
    }

    /// Whether an open span of this op means the image is *waiting* on
    /// remote progress — the set the stall watchdog considers.
    pub fn is_blocking(self) -> bool {
        use Op::*;
        matches!(
            self,
            EventWait
                | EventNotify
                | Alltoall
                | Barrier
                | Reduction
                | Finish
                | CoarrayWrite
                | CoarrayRead
                | RtMsgRecvBlocking
                | MpiRecv
                | MpiBarrier
                | MpiBcast
                | MpiReduce
                | MpiGather
                | MpiAlltoall
                | WinFlush
                | WinFlushAll
                | WinRflushWait
                | AmPutAckWait
                | GasnetBarrier
        )
    }

    pub(crate) const fn from_u16(v: u16) -> Option<Op> {
        if v < NOPS {
            // SAFETY: repr(u16) fieldless enum with contiguous
            // discriminants 0..NOPS, checked above.
            Some(unsafe { std::mem::transmute::<u16, Op>(v) })
        } else {
            None
        }
    }
}

/// Whether an event was recorded as a bracketed span or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Completed [`crate::span`] with a duration.
    Span,
    /// Point event from [`crate::instant`].
    Instant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_roundtrips_through_u16() {
        for v in 0..NOPS {
            let op = Op::from_u16(v).unwrap();
            assert_eq!(op as u16, v);
            assert!(!op.name().is_empty());
            assert!(!op.layer().is_empty());
        }
        assert!(Op::from_u16(NOPS).is_none());
    }

    #[test]
    fn exactly_ten_cat_ops() {
        let n = (0..NOPS)
            .filter(|&v| Op::from_u16(v).unwrap().cat().is_some())
            .count();
        assert_eq!(n, crate::NCAT);
    }
}
