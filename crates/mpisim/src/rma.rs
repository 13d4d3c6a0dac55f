//! One-sided communication: windows, passive-target epochs, PUT/GET,
//! request-generating variants, one-sided atomics, and flush.
//!
//! Every data-plane operation accesses the target's registered segment
//! directly — the target thread is never involved. This is the MPI-3
//! passive-target model the paper builds coarrays on (§3.1): lock all
//! targets once at window allocation, `put`/`get` freely, `flush` for
//! remote completion, unlock only at deallocation.
//!
//! Every operation describes itself once, as an `RmaOp`, and hands the
//! description to the single prologue `Mpi::rma_begin`, which instruments,
//! validates and prices it in one fixed order (DESIGN.md §3.1). What is
//! left in each operation's body is the data movement.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use caf_fabric::delay::DelayOp;
use caf_fabric::pod::{as_bytes, as_bytes_mut, zeroed_vec};
use caf_fabric::sched::{self, ModelOp, ANY_OWNER};
use caf_fabric::{FabricError, MemCategory, PeerSegments, Pod, Result, Segment, SegmentId};

use crate::Comm;
use crate::ops::{AccOp, BitsRepr};
use crate::request::{FlushRequest, RmaRequest};
use crate::universe::Mpi;

/// Per-origin record of which target ranks have outstanding (unflushed)
/// stores through one window — the bookkeeping the paper's §5 fix needs so
/// that a release operation can complete "only the operations that are
/// actually outstanding" instead of paying `MPI_Win_flush_all`'s Θ(P) scan.
///
/// One bit per comm rank, lock-free. The set is written only by the owning
/// origin thread (window handles are per-rank, like an `MPI_Win`); atomics
/// are used for interior mutability behind shared handles, not for
/// cross-thread publication, so all accesses are `Relaxed`. Clones share
/// the underlying bits, which lets an in-flight [`FlushRequest`] retire its
/// target at completion time.
#[derive(Clone, Debug)]
pub struct DirtySet {
    bits: Arc<[AtomicU64]>,
}

impl DirtySet {
    fn new(nranks: usize) -> Self {
        let words = nranks.div_ceil(64).max(1);
        DirtySet {
            bits: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record an outstanding store to `rank`.
    pub(crate) fn mark(&self, rank: usize) {
        self.bits[rank / 64].fetch_or(1 << (rank % 64), Ordering::Relaxed);
    }

    /// Retire `rank` after a completing flush.
    pub(crate) fn clear(&self, rank: usize) {
        self.bits[rank / 64].fetch_and(!(1u64 << (rank % 64)), Ordering::Relaxed);
    }

    /// Retire every rank (a whole-window flush).
    pub(crate) fn clear_all(&self) {
        for w in self.bits.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of dirty ranks.
    pub fn count(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Dirty ranks in ascending order.
    pub fn ranks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, w) in self.bits.iter().enumerate() {
            let mut bits = w.load(Ordering::Relaxed);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// An RMA window: one registered segment per rank of a communicator.
///
/// The handle is per-rank (like an `MPI_Win`); epoch state is local to the
/// handle. Remote references through a window are `(window, rank,
/// displacement)` triples — exactly the remote-reference representation the
/// paper's CAF-MPI runtime adopts.
pub struct Window {
    pub(crate) id: u64,
    pub(crate) comm: Comm,
    pub(crate) segs: Arc<[SegmentId]>,
    /// The peers' segments this origin has touched, by comm rank.
    peers: PeerSegments,
    pub(crate) local: Arc<Segment>,
    pub(crate) locked_all: AtomicBool,
    pub(crate) dirty: DirtySet,
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("id", &self.id)
            .field("comm", &self.comm.id())
            .field("size", &self.comm.size())
            .finish()
    }
}

impl Window {
    /// Window identifier (unique per communicator lineage).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The communicator the window spans.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Direct handle to the local region (used for load/store access to
    /// one's own coarray data under the unified memory model).
    pub fn local_segment(&self) -> &Arc<Segment> {
        &self.local
    }

    /// Comm-relative ranks with outstanding (unflushed) stores from this
    /// origin through the window, in ascending order.
    pub fn dirty_targets(&self) -> Vec<usize> {
        self.dirty.ranks()
    }

    /// Number of comm-relative ranks with outstanding stores.
    pub fn dirty_count(&self) -> usize {
        self.dirty.count()
    }

    /// Whether this origin's passive-target epoch is open.
    #[inline]
    fn epoch_open(&self) -> bool {
        self.locked_all.load(Ordering::Relaxed)
    }
}

/// What a window operation is, as far as its prologue is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Put,
    Get,
    /// Accumulate / fetch-and-op / compare-and-swap.
    Atomic,
    /// Plain load of a rank's region by whichever image is executing: no
    /// epoch, no trace record, no modeled cost.
    LocalRead,
    /// Plain store, as [`Kind::LocalRead`].
    LocalWrite,
    Flush,
    /// Issue half of `MPI_WIN_RFLUSH`; [`FlushRequest::wait`] completes it.
    Rflush,
    FlushAll,
    LockAll,
    UnlockAll,
    Free,
}

/// One window operation, described once: everything the prologue needs to
/// announce, validate, trace and price it. A contiguous transfer is
/// one element of `elem` bytes; a vector transfer is `count` elements
/// `stride` bytes apart. Whole-window kinds leave everything zero.
#[derive(Debug, Clone, Copy)]
struct RmaOp {
    kind: Kind,
    /// Comm-relative target rank.
    target: usize,
    /// Byte displacement of the first element in the target's region.
    disp: usize,
    elem: usize,
    count: usize,
    /// Bytes between consecutive elements at the target (`None`:
    /// contiguous).
    stride: Option<usize>,
    /// Address of the origin buffer (for the trace record).
    origin_buf: usize,
}

impl RmaOp {
    /// A buffer-less operation on `elem` bytes at `disp` (atomics on one
    /// word, flushes with `elem == 0`).
    fn new(kind: Kind, target: usize, disp: usize, elem: usize) -> Self {
        RmaOp { kind, target, disp, elem, count: 1, stride: None, origin_buf: 0 }
    }

    /// A whole-window operation.
    fn window(kind: Kind) -> Self {
        Self::new(kind, 0, 0, 0)
    }

    /// A contiguous transfer of all of `buf`.
    fn contiguous<T>(kind: Kind, target: usize, disp: usize, buf: &[T]) -> Self {
        RmaOp {
            origin_buf: buf.as_ptr() as usize,
            ..Self::new(kind, target, disp, std::mem::size_of_val(buf))
        }
    }

    /// An `MPI_Type_vector` transfer: element `i` of `buf` lives at
    /// `disp + i·stride_elems·size_of::<T>()`.
    fn vector<T>(kind: Kind, target: usize, disp: usize, stride_elems: usize, buf: &[T]) -> Self {
        let elem = std::mem::size_of::<T>();
        RmaOp {
            count: buf.len(),
            stride: Some(stride_elems * elem),
            origin_buf: buf.as_ptr() as usize,
            ..Self::new(kind, target, disp, elem)
        }
    }

    /// Payload bytes.
    fn len(&self) -> usize {
        self.elem * self.count
    }

    /// The operation as the model explorer sees it. A vector transfer is
    /// one access covering its whole strided span (per-element yields
    /// would explode the schedule space without adding distinct
    /// conflicts); synchronization conflicts with every data operation on
    /// the window. Inlined so that the descriptor is only ever built in
    /// memory on the armed path.
    #[inline]
    fn model_op(&self, win_id: u64) -> ModelOp {
        let region = model_region(win_id);
        let owner = self.target;
        let lo = self.disp as u64;
        let hi = lo + (self.count * self.stride.unwrap_or(0).max(self.elem)) as u64;
        match self.kind {
            Kind::Put | Kind::LocalWrite => ModelOp::Write { region, owner, lo, hi },
            Kind::Get | Kind::LocalRead => ModelOp::Read { region, owner, lo, hi },
            Kind::Atomic => ModelOp::Atomic { region, owner, lo, hi },
            _ => ModelOp::Atomic { region, owner: ANY_OWNER, lo: 0, hi: u64::MAX },
        }
    }
}

/// MPI window ids live in the high-bit half of the model-checker's region
/// namespace; GASNet segment ids own the low half. Keeps the two
/// substrates' resources disjoint when both run in one hybrid job.
fn model_region(win_id: u64) -> u64 {
    win_id | (1u64 << 63)
}

/// The `(address, bytes)` of an origin buffer, as its trace records name it.
fn buffer<T>(buf: &[T]) -> (u64, u64) {
    (buf.as_ptr() as u64, std::mem::size_of_val(buf) as u64)
}

/// Announce a whole-window synchronization (the completion half of an
/// rflush, which has no `Mpi` at hand to run the prologue with).
pub(crate) fn announce_sync(win_id: u64) {
    if sched::active() {
        sched::yield_op(RmaOp::window(Kind::Flush).model_op(win_id));
    }
}

/// Step 3 of [`Mpi::rma_begin`], on an armed trace only: the record the
/// caf-check replay reads, ranks global. A vector transfer is recorded
/// one element at a time — stride gaps are untouched bytes — and a data
/// transfer carries its origin buffer's address for the buffer-reuse
/// check. `flush_all` is a span over its charges whose `bytes` is the
/// handshake count — the Θ(P) signature a trace viewer should surface.
/// Out of line, so the disarmed prologue carries none of it.
#[inline(never)]
fn trace(
    win: &Window,
    op: &RmaOp,
    trace_op: caf_trace::Op,
    handshakes: usize,
) -> Option<caf_trace::SpanGuard> {
    let target = Some(win.comm.global_rank(op.target));
    match op.kind {
        Kind::FlushAll => {
            return Some(caf_trace::span_t(trace_op, None, handshakes as u64, Some(win.id)));
        }
        Kind::LockAll | Kind::Free => caf_trace::instant(trace_op, None, 0, Some(win.id)),
        Kind::Put | Kind::Get => {
            for i in 0..op.count {
                let at = Some((op.disp + i * op.stride.unwrap_or(0)) as u64);
                let buf = (op.origin_buf + i * op.elem) as u64;
                caf_trace::instant_a(trace_op, target, op.elem as u64, Some(win.id), at, buf);
            }
        }
        Kind::Atomic | Kind::LocalRead | Kind::LocalWrite => {
            let disp = Some(op.disp as u64);
            caf_trace::instant_d(trace_op, target, op.len() as u64, Some(win.id), disp);
        }
        Kind::Flush | Kind::Rflush | Kind::UnlockAll => {
            caf_trace::instant(trace_op, target, 0, Some(win.id));
        }
    }
    None
}

impl Mpi {
    /// The prologue of every window operation: the six numbered steps
    /// below, always in this order (DESIGN.md §3.1 says why). Returns the
    /// target's segment (the window's own for operations that move no
    /// data). Always inlined: every caller passes a constant `kind`, so
    /// each operation compiles to the steps it takes and nothing else
    /// (left to its own judgement the compiler keeps one shared copy,
    /// which costs a put 35 ns on the ladder).
    #[inline(always)]
    fn rma_begin<'w>(&self, win: &'w Window, op: RmaOp) -> Result<&'w Segment> {
        use Kind::*;
        let kind = op.kind;
        // 1. Model announce: the explorer's interleaving is the order the
        //    oracle observes.
        if sched::active() {
            sched::yield_op(op.model_op(win.id));
        }
        // 2. Target range check and segment resolution: an error returns
        //    before anything is traced, charged or marked.
        let targeted = !matches!(kind, FlushAll | LockAll | UnlockAll | Free);
        if targeted && op.target >= win.comm.size() {
            return Err(FabricError::RankOutOfRange {
                rank: op.target,
                size: win.comm.size(),
            });
        }
        let moves_data = matches!(kind, Put | Get | Atomic | LocalRead | LocalWrite);
        let seg = if moves_data && op.target != win.comm.rank() {
            win.peers.resolve(&self.ep, op.target, win.segs[op.target])?
        } else {
            &win.local
        };
        let (trace_op, delay_op) = match kind {
            Put => (Some(caf_trace::Op::RmaPut), Some(DelayOp::RmaPut)),
            Get => (Some(caf_trace::Op::RmaGet), Some(DelayOp::RmaGet)),
            Atomic => (Some(caf_trace::Op::RmaAtomic), Some(DelayOp::RmaAtomic)),
            Flush => (Some(caf_trace::Op::WinFlush), Some(DelayOp::FlushPerTarget)),
            FlushAll => (Some(caf_trace::Op::WinFlushAll), Some(DelayOp::FlushPerTarget)),
            // The caller notes the cost; its spin is paid at wait time.
            Rflush => (Some(caf_trace::Op::WinRflush), None),
            LockAll => (Some(caf_trace::Op::WinLockAll), None),
            Free => (Some(caf_trace::Op::WinFree), None),
            LocalRead => (Some(caf_trace::Op::WinLoad), None),
            LocalWrite => (Some(caf_trace::Op::WinStore), None),
            // Traced by the caller, after its interior flush.
            UnlockAll => (None, None),
        };
        // `MPI_Win_flush_all` is one per-target handshake per rank of the
        // window, whatever is dirty — Θ(P), paper §4.1.
        let handshakes = if kind == FlushAll { win.comm.size() } else { 1 };
        // 3. Trace record: ahead of the assertion, so the record of an
        //    operation outside its epoch survives the abort for the
        //    caf-check replay to report.
        let _span = match trace_op {
            Some(trace_op) if caf_trace::enabled() => trace(win, &op, trace_op, handshakes),
            _ => None,
        };
        // 4. Epoch assertion.
        if !matches!(kind, LocalRead | LocalWrite | LockAll | Free) {
            assert!(
                win.epoch_open(),
                "RMA operation outside a passive-target epoch (call win_lock_all first)"
            );
        }
        // 5. Modeled cost.
        if let Some(delay_op) = delay_op {
            for _ in 0..handshakes {
                self.delays.charge(delay_op, op.len());
            }
        }
        // 6. Dirty set.
        match kind {
            Put | Atomic => win.dirty.mark(op.target),
            Flush => win.dirty.clear(op.target),
            FlushAll => win.dirty.clear_all(),
            _ => {}
        }
        Ok(seg)
    }

    /// `MPI_Win_allocate` — collective: every rank exposes `bytes` bytes of
    /// library-allocated memory.
    pub fn win_allocate(&self, comm: &Comm, bytes: usize) -> Result<Window> {
        let seg = Segment::new(bytes);
        let id = self.ep.register_segment(seg);
        let local = self.ep.segment(id)?;
        self.mem.map(MemCategory::UserData, bytes);
        self.mem.map(MemCategory::SegmentMeta, 64 * comm.size());

        // Each rank's size travels with its segment id, as in
        // `MPI_Win_allocate`'s exchange (the modeled cost is charged for
        // those bytes); the ids are what a window keeps.
        let pairs = self.allgather(comm, &[[id.0, bytes as u64]])?;
        let segs: Vec<SegmentId> = pairs.iter().map(|p| SegmentId(p[0])).collect();
        let win_id = caf_fabric::group::derive_id(comm.id(), comm.next_child(), 0x77);
        let nranks = comm.size();
        Ok(Window {
            id: win_id,
            comm: comm.clone(),
            segs: segs.into(),
            peers: PeerSegments::new(nranks),
            local,
            locked_all: AtomicBool::new(false),
            dirty: DirtySet::new(nranks),
        })
    }

    /// `MPI_Win_free` — collective; tears down the local exposure.
    pub fn win_free(&self, win: Window) -> Result<()> {
        self.win_free_shared(&win)
    }

    /// As [`Mpi::win_free`], for windows held behind shared handles
    /// (`Arc<Window>`). The caller must not use the window afterwards.
    pub fn win_free_shared(&self, win: &Window) -> Result<()> {
        // A window freed with dirty targets while its epoch is still open
        // must complete those stores before teardown — otherwise the data
        // of an unflushed put could be lost with the exposure.
        if win.epoch_open() {
            for target in win.dirty.ranks() {
                self.win_flush(win, target)?;
            }
        }
        self.rma_begin(win, RmaOp::window(Kind::Free))?;
        self.barrier(&win.comm)?;
        let me = win.comm.rank();
        self.mem.unmap(MemCategory::UserData, win.local.len());
        self.mem.unmap(MemCategory::SegmentMeta, 64 * win.comm.size());
        self.ep.unregister_segment(win.segs[me])
    }

    /// `MPI_Win_lock_all` — open a shared passive-target epoch to every
    /// rank of the window.
    pub fn win_lock_all(&self, win: &Window) {
        self.rma_begin(win, RmaOp::window(Kind::LockAll))
            .expect("opening an epoch cannot fail");
        win.locked_all.store(true, Ordering::Relaxed);
    }

    /// `MPI_Win_unlock_all` — close the epoch, completing all operations.
    pub fn win_unlock_all(&self, win: &Window) -> Result<()> {
        self.rma_begin(win, RmaOp::window(Kind::UnlockAll))?;
        self.win_flush_all(win)?;
        // Traced after the interior flush: in the recorded timeline the
        // epoch closes once its completing flush is done, which is what
        // the caf-check replay reads.
        caf_trace::instant(caf_trace::Op::WinUnlockAll, None, 0, Some(win.id));
        win.locked_all.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// `MPI_Put` — one-sided write of `data` at byte displacement `disp` in
    /// `target`'s window region. Locally complete at return; remotely
    /// complete after a flush (on this substrate the data is applied
    /// immediately, but portable callers must still flush — and the CAF
    /// runtime does).
    pub fn put<T: Pod>(&self, win: &Window, target: usize, disp: usize, data: &[T]) -> Result<()> {
        self.rma_begin(win, RmaOp::contiguous(Kind::Put, target, disp, data))?
            .put(disp, as_bytes(data))
    }

    /// `MPI_Get` — one-sided read from `target`'s window region.
    pub fn get<T: Pod>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        out: &mut [T],
    ) -> Result<()> {
        self.rma_begin(win, RmaOp::contiguous(Kind::Get, target, disp, out))?
            .get(disp, as_bytes_mut(out))
    }

    /// `MPI_Rput` — request-generating put. The returned request certifies
    /// **local completion only** (MPI-3 §11.3); remote completion still
    /// requires a flush. This asymmetry is the reason the paper's runtime
    /// falls back to active messages when a remote-completion event is
    /// requested for a PUT (§3.3, case 4).
    pub fn rput<T: Pod>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        data: &[T],
    ) -> Result<RmaRequest<()>> {
        self.put(win, target, disp, data)?;
        Ok(RmaRequest::open(win.id, caf_trace::Op::RmaPut, buffer(data), None))
    }

    /// `MPI_Rget` — request-generating get; completion of the request
    /// certifies local *and* remote completion.
    pub fn rget<T: Pod>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        count: usize,
    ) -> Result<RmaRequest<T>> {
        let mut data = zeroed_vec::<T>(count);
        self.get(win, target, disp, &mut data)?;
        // The request owns the buffer it borrows: moving the `Vec` in
        // leaves its heap address where the get wrote.
        Ok(RmaRequest::open(win.id, caf_trace::Op::RmaGet, buffer(&data), Some(data)))
    }

    /// Strided one-sided write: `count` elements of `data` land at
    /// `disp + i·stride_elems·size_of::<T>()` — the `MPI_Put` with an
    /// `MPI_Type_vector` target datatype that a CAF array section
    /// `A(lo:hi:step)[img]` compiles to.
    pub fn put_vector<T: Pod>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        stride_elems: usize,
        data: &[T],
    ) -> Result<()> {
        let op = RmaOp::vector(Kind::Put, target, disp, stride_elems, data);
        self.rma_begin(win, op)?
            .put_strided(disp, stride_elems * op.elem, data)
    }

    /// Strided one-sided read: the gather counterpart of
    /// [`Mpi::put_vector`].
    pub fn get_vector<T: Pod>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        stride_elems: usize,
        out: &mut [T],
    ) -> Result<()> {
        let op = RmaOp::vector(Kind::Get, target, disp, stride_elems, out);
        self.rma_begin(win, op)?
            .get_strided(disp, stride_elems * op.elem, out)
    }

    /// `MPI_Accumulate` — elementwise atomic `target = target OP source`.
    /// Element types are restricted to 8-byte scalars (see [`BitsRepr`]).
    pub fn accumulate<T: BitsRepr>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        data: &[T],
        op: AccOp,
    ) -> Result<()> {
        self.get_accumulate(win, target, disp, data, op).map(drop)
    }

    /// `MPI_Get_accumulate` — fetch the previous contents while applying
    /// the op. With [`AccOp::NoOp`] this is an atomic read.
    pub fn get_accumulate<T: BitsRepr>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        data: &[T],
        op: AccOp,
    ) -> Result<Vec<T>> {
        let seg = self.rma_begin(win, RmaOp::contiguous(Kind::Atomic, target, disp, data))?;
        let mut prev = Vec::with_capacity(data.len());
        for (i, &v) in data.iter().enumerate() {
            let old =
                seg.fetch_update_u64(disp + i * 8, |old| op.apply_bits::<T>(old, T::to_bits(v)))?;
            prev.push(T::from_bits(old));
        }
        Ok(prev)
    }

    /// `MPI_Fetch_and_op` — single-element fast path of `get_accumulate`.
    pub fn fetch_and_op<T: BitsRepr>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        value: T,
        op: AccOp,
    ) -> Result<T> {
        let seg = self.rma_begin(win, RmaOp::new(Kind::Atomic, target, disp, 8))?;
        let old = seg.fetch_update_u64(disp, |old| op.apply_bits::<T>(old, T::to_bits(value)))?;
        Ok(T::from_bits(old))
    }

    /// `MPI_Compare_and_swap` — returns the value observed before the swap.
    pub fn compare_and_swap<T: BitsRepr>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        expected: T,
        new: T,
    ) -> Result<T> {
        let seg = self.rma_begin(win, RmaOp::new(Kind::Atomic, target, disp, 8))?;
        let prev = seg.compare_exchange_u64(disp, T::to_bits(expected), T::to_bits(new))?;
        Ok(T::from_bits(prev))
    }

    /// `MPI_Win_flush` — complete all outstanding operations from this
    /// origin to `target`, at the origin *and* the target.
    pub fn win_flush(&self, win: &Window, target: usize) -> Result<()> {
        self.rma_begin(win, RmaOp::new(Kind::Flush, target, 0, 0))?;
        fence(Ordering::SeqCst);
        Ok(())
    }

    /// `MPI_WIN_RFLUSH` — the request-generating per-target flush the paper
    /// proposes in §5 ("an even better approach … to allow the flush
    /// operation to be nonblocking"). Initiates completion of all
    /// outstanding operations from this origin to `target` and returns
    /// immediately; only [`FlushRequest::wait`] certifies remote completion.
    ///
    /// The modeled per-target latency starts accruing at initiation, so any
    /// work the origin does between issue and wait — e.g. `event_notify`'s
    /// release-barrier `waitall` — overlaps the flush instead of adding to
    /// it.
    pub fn win_rflush(&self, win: &Window, target: usize) -> Result<FlushRequest> {
        self.rma_begin(win, RmaOp::new(Kind::Rflush, target, 0, 0))?;
        // Count and model the cost now; the spin (whatever is left of it)
        // is paid at wait time.
        let cost_ns = self.delays.note(DelayOp::FlushPerTarget, 0);
        Ok(FlushRequest {
            win_id: win.id,
            target,
            target_global: win.comm.global_rank(target),
            deadline_ns: caf_fabric::delay::monotonic_ns() + cost_ns as u64,
            dirty: win.dirty.clone(),
        })
    }

    /// `MPI_Win_flush_all` — complete outstanding operations to **every**
    /// target. Like all MPICH derivatives at the time of the paper, this
    /// flushes each rank of the window's communicator in turn, so its cost
    /// grows linearly with the job size (paper §4.1 — the root cause of
    /// CAF-MPI's `event_notify` overhead in RandomAccess).
    pub fn win_flush_all(&self, win: &Window) -> Result<()> {
        self.rma_begin(win, RmaOp::window(Kind::FlushAll))?;
        fence(Ordering::SeqCst);
        Ok(())
    }

    /// Read from this rank's own window region (a local "load" under the
    /// unified memory model).
    pub fn win_read_local<T: Pod>(&self, win: &Window, disp: usize, out: &mut [T]) -> Result<()> {
        self.win_read_local_at(win, win.comm.rank(), disp, out)
    }

    /// Write to this rank's own window region (a local "store").
    pub fn win_write_local<T: Pod>(&self, win: &Window, disp: usize, data: &[T]) -> Result<()> {
        self.win_write_local_at(win, win.comm.rank(), disp, data)
    }

    /// Read-modify-write one `u64` of this rank's own window region: the
    /// [`Mpi::win_read_local`] + [`Mpi::win_write_local`] pair as one call
    /// — the same Read-then-Write announces and trace records, one bounds
    /// check. Owner-serial (see [`Segment::rmw_u64`]).
    pub fn win_rmw_local_u64(
        &self,
        win: &Window,
        disp: usize,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<()> {
        let me = win.comm.rank();
        self.rma_begin(win, RmaOp::new(Kind::LocalRead, me, disp, 8))?;
        self.rma_begin(win, RmaOp::new(Kind::LocalWrite, me, disp, 8))?
            .rmw_u64(disp, f)
    }

    /// Read `rank`'s window region as a local "load" from whichever
    /// image is executing — the access CAF function shipping needs,
    /// where a shipped closure runs at the data's owner but captured the
    /// shipper's `Window` handle. Unlike [`Mpi::get`] no epoch is
    /// required: under the unified memory model this is a plain load on
    /// the executor. Instrumented as a local access of `rank`'s region.
    pub fn win_read_local_at<T: Pod>(
        &self,
        win: &Window,
        rank: usize,
        disp: usize,
        out: &mut [T],
    ) -> Result<()> {
        self.rma_begin(win, RmaOp::contiguous(Kind::LocalRead, rank, disp, out))?
            .get(disp, as_bytes_mut(out))
    }

    /// Write `rank`'s window region as a local "store" from whichever
    /// image is executing (see [`Mpi::win_read_local_at`]).
    pub fn win_write_local_at<T: Pod>(
        &self,
        win: &Window,
        rank: usize,
        disp: usize,
        data: &[T],
    ) -> Result<()> {
        self.rma_begin(win, RmaOp::contiguous(Kind::LocalWrite, rank, disp, data))?
            .put(disp, as_bytes(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn with_window<T: Send>(
        n: usize,
        bytes: usize,
        f: impl Fn(&Mpi, &Window) -> T + Send + Sync,
    ) -> Vec<T> {
        Universe::run(n, |mpi| {
            let w = mpi.world();
            let win = mpi.win_allocate(&w, bytes).unwrap();
            mpi.win_lock_all(&win);
            let r = f(mpi, &win);
            mpi.win_unlock_all(&win).unwrap();
            mpi.win_free(win).unwrap();
            r
        })
    }

    #[test]
    fn put_then_remote_reads_after_sync() {
        let res = with_window(2, 64, |mpi, win| {
            if mpi.rank() == 0 {
                mpi.put(win, 1, 8, &[1.5f64, 2.5]).unwrap();
                mpi.win_flush(win, 1).unwrap();
            }
            mpi.barrier(win.comm()).unwrap();
            let mut out = [0.0f64; 2];
            mpi.win_read_local(win, 8, &mut out).unwrap();
            out
        });
        assert_eq!(res[1], [1.5, 2.5]);
    }

    #[test]
    fn get_reads_remote_data() {
        let res = with_window(2, 64, |mpi, win| {
            mpi.win_write_local(win, 0, &[(mpi.rank() as u64 + 1) * 11])
                .unwrap();
            mpi.barrier(win.comm()).unwrap();
            let peer = 1 - mpi.rank();
            let mut out = [0u64; 1];
            mpi.get(win, peer, 0, &mut out).unwrap();
            out[0]
        });
        assert_eq!(res, vec![22, 11]);
    }

    #[test]
    fn one_sided_needs_no_target_participation() {
        // Target computes (never calls MPI) while origin puts and flushes.
        let res = with_window(2, 8, |mpi, win| {
            if mpi.rank() == 0 {
                mpi.put(win, 1, 0, &[7u64]).unwrap();
                mpi.win_flush(win, 1).unwrap();
                // Signal via a different mechanism only after flush.
                mpi.send(&mpi.world(), 1, 0, &[1u8]).unwrap();
                0
            } else {
                use crate::p2p::{Src, Tag};
                let _ = mpi
                    .recv::<u8>(&mpi.world(), Src::Rank(0), Tag::Is(0))
                    .unwrap();
                let mut out = [0u64; 1];
                mpi.win_read_local(win, 0, &mut out).unwrap();
                out[0]
            }
        });
        assert_eq!(res[1], 7);
    }

    #[test]
    fn rput_certifies_local_rget_remote() {
        use crate::request::RmaCompletion;
        with_window(2, 16, |mpi, win| {
            if mpi.rank() == 0 {
                let rp = mpi.rput(win, 1, 0, &[3u64]).unwrap();
                assert_eq!(rp.completion(), RmaCompletion::LocalOnly);
                rp.wait();
                mpi.win_flush(win, 1).unwrap();
            }
            mpi.barrier(win.comm()).unwrap();
            if mpi.rank() == 1 {
                let rg = mpi.rget::<u64>(win, 1, 0, 1).unwrap();
                assert_eq!(rg.completion(), RmaCompletion::LocalAndRemote);
                assert_eq!(rg.wait(), vec![3]);
            }
        });
    }

    #[test]
    fn accumulate_sums_atomically_from_all_ranks() {
        let n = 8;
        let res = with_window(n, 8, |mpi, win| {
            for _ in 0..100 {
                mpi.accumulate(win, 0, 0, &[1u64], AccOp::Sum).unwrap();
            }
            mpi.win_flush(win, 0).unwrap();
            mpi.barrier(win.comm()).unwrap();
            let mut out = [0u64; 1];
            mpi.win_read_local(win, 0, &mut out).unwrap();
            out[0]
        });
        assert_eq!(res[0], (n * 100) as u64);
    }

    #[test]
    fn accumulate_float_sum() {
        let res = with_window(4, 8, |mpi, win| {
            mpi.accumulate(win, 0, 0, &[0.25f64], AccOp::Sum).unwrap();
            mpi.barrier(win.comm()).unwrap();
            let mut out = [0.0f64; 1];
            mpi.win_read_local(win, 0, &mut out).unwrap();
            out[0]
        });
        assert_eq!(res[0], 1.0);
    }

    #[test]
    fn fetch_and_op_returns_previous() {
        let res = with_window(4, 8, |mpi, win| {
            let prev = mpi.fetch_and_op(win, 0, 0, 1u64, AccOp::Sum).unwrap();
            mpi.barrier(win.comm()).unwrap();
            prev
        });
        // The four previous values must be a permutation of 0..4.
        let mut prevs = res.clone();
        prevs.sort_unstable();
        assert_eq!(prevs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn compare_and_swap_elects_one_winner() {
        let res = with_window(8, 8, |mpi, win| {
            let seen = mpi
                .compare_and_swap(win, 0, 0, 0u64, mpi.rank() as u64 + 1)
                .unwrap();
            mpi.barrier(win.comm()).unwrap();
            seen
        });
        let winners = res.iter().filter(|&&s| s == 0).count();
        assert_eq!(winners, 1, "exactly one CAS must win: {res:?}");
    }

    #[test]
    fn get_accumulate_noop_is_atomic_read() {
        let res = with_window(2, 16, |mpi, win| {
            mpi.win_write_local(win, 0, &[5u64, 6]).unwrap();
            mpi.barrier(win.comm()).unwrap();
            let peer = 1 - mpi.rank();
            mpi.get_accumulate(win, peer, 0, &[0u64, 0], AccOp::NoOp)
                .unwrap()
        });
        assert_eq!(res[0], vec![5, 6]);
        assert_eq!(res[1], vec![5, 6]);
    }

    #[test]
    fn flush_all_visits_every_rank() {
        // flush_all charges the per-target flush once per rank of the
        // window — the Θ(P) signature of §4.1 — which the modeled-cost
        // meter records deterministically (no wall clock involved).
        use crate::universe::MpiConfig;
        use caf_fabric::delay::{DelayConfig, OpCost};
        let mut delays = DelayConfig::free();
        delays.flush_per_target = OpCost { base_ns: 10.0, ..OpCost::FREE };
        let cfg = MpiConfig {
            delays,
            ..MpiConfig::default()
        };
        let charges_for = |n: usize| -> Vec<(u64, u64)> {
            Universe::run_with_config(n, cfg, |mpi| {
                let w = mpi.world();
                let win = mpi.win_allocate(&w, 8).unwrap();
                mpi.win_lock_all(&win);
                let m = mpi.delay_meter();
                let (count0, ns0) = (
                    m.count(DelayOp::FlushPerTarget),
                    m.modeled_ns(DelayOp::FlushPerTarget),
                );
                mpi.win_flush_all(&win).unwrap();
                let delta = (
                    m.count(DelayOp::FlushPerTarget) - count0,
                    m.modeled_ns(DelayOp::FlushPerTarget) - ns0,
                );
                // Close the epoch without unlock_all's interior flush so
                // the measured delta is exactly one flush_all.
                win.locked_all.store(false, Ordering::Relaxed);
                mpi.win_free(win).unwrap();
                delta
            })
        };
        for n in [2usize, 8] {
            for (count, ns) in charges_for(n) {
                assert_eq!(count, n as u64, "one per-target handshake per rank");
                assert_eq!(ns, 10 * n as u64, "modeled cost scales with ranks");
            }
        }
    }

    #[test]
    fn puts_and_atomics_mark_dirty_and_flushes_clear() {
        with_window(4, 64, |mpi, win| {
            if mpi.rank() == 0 {
                assert_eq!(win.dirty_targets(), Vec::<usize>::new());
                mpi.put(win, 1, 0, &[1u64]).unwrap();
                mpi.accumulate(win, 2, 0, &[1u64], AccOp::Sum).unwrap();
                mpi.fetch_and_op(win, 3, 8, 1u64, AccOp::Sum).unwrap();
                assert_eq!(win.dirty_targets(), vec![1, 2, 3]);
                assert_eq!(win.dirty_count(), 3);
                mpi.win_flush(win, 2).unwrap();
                assert_eq!(win.dirty_targets(), vec![1, 3]);
                mpi.win_flush_all(win).unwrap();
                assert_eq!(win.dirty_targets(), Vec::<usize>::new());
                // get_accumulate and CAS are stores too.
                mpi.get_accumulate(win, 1, 0, &[0u64], AccOp::NoOp).unwrap();
                mpi.compare_and_swap(win, 2, 0, 0u64, 0u64).unwrap();
                assert_eq!(win.dirty_targets(), vec![1, 2]);
                mpi.win_flush_all(win).unwrap();
            }
            mpi.barrier(win.comm()).unwrap();
        });
    }

    #[test]
    fn reads_do_not_mark_dirty() {
        with_window(2, 64, |mpi, win| {
            mpi.barrier(win.comm()).unwrap();
            if mpi.rank() == 0 {
                let mut out = [0u64; 2];
                mpi.get(win, 1, 0, &mut out).unwrap();
                mpi.get_vector(win, 1, 0, 2, &mut out).unwrap();
                mpi.win_write_local(win, 0, &[7u64]).unwrap();
                assert_eq!(win.dirty_count(), 0);
            }
            mpi.barrier(win.comm()).unwrap();
        });
    }

    #[test]
    fn overlapping_epochs_keep_dirty_sets_independent() {
        // Two windows with overlapping passive-target epochs: flushing
        // (or closing) one epoch must not retire the other's targets.
        let _ = Universe::run(3, |mpi| {
            let w = mpi.world();
            let win_a = mpi.win_allocate(&w, 32).unwrap();
            let win_b = mpi.win_allocate(&w, 32).unwrap();
            mpi.win_lock_all(&win_a);
            mpi.win_lock_all(&win_b);
            if mpi.rank() == 0 {
                mpi.put(&win_a, 1, 0, &[1u64]).unwrap();
                mpi.put(&win_b, 2, 0, &[2u64]).unwrap();
                mpi.win_flush(&win_a, 1).unwrap();
                assert_eq!(win_a.dirty_count(), 0);
                assert_eq!(win_b.dirty_targets(), vec![2]);
            }
            // Close A while B's epoch (and dirty target) stays open.
            mpi.win_unlock_all(&win_a).unwrap();
            if mpi.rank() == 0 {
                assert_eq!(win_b.dirty_targets(), vec![2]);
            }
            mpi.win_unlock_all(&win_b).unwrap();
            if mpi.rank() == 0 {
                assert_eq!(win_b.dirty_count(), 0);
            }
            mpi.win_free(win_a).unwrap();
            mpi.win_free(win_b).unwrap();
        });
    }

    #[test]
    fn win_free_with_dirty_targets_completes_them() {
        use crate::universe::MpiConfig;
        use caf_fabric::delay::{DelayConfig, OpCost};
        let mut delays = DelayConfig::free();
        delays.flush_per_target = OpCost { base_ns: 5.0, ..OpCost::FREE };
        let cfg = MpiConfig {
            delays,
            ..MpiConfig::default()
        };
        let res = Universe::run_with_config(2, cfg, |mpi| {
            let w = mpi.world();
            let win = mpi.win_allocate(&w, 16).unwrap();
            mpi.win_lock_all(&win);
            let flushes0 = mpi.delay_meter().count(DelayOp::FlushPerTarget);
            if mpi.rank() == 0 {
                mpi.put(&win, 1, 0, &[9u64]).unwrap();
                assert_eq!(win.dirty_targets(), vec![1]);
            }
            // Free with the epoch still open and a target dirty: the free
            // path must complete the outstanding put before teardown.
            mpi.win_free_shared(&win).unwrap();
            let flushes = mpi.delay_meter().count(DelayOp::FlushPerTarget) - flushes0;
            if mpi.rank() == 0 {
                assert_eq!(win.dirty_count(), 0);
                assert_eq!(flushes, 1, "exactly the dirty target was flushed");
            } else {
                assert_eq!(flushes, 0, "clean origins pay nothing at free");
            }
            let mut v = [0u64];
            win.local_segment().get(0, as_bytes_mut(&mut v)).unwrap();
            v[0]
        });
        assert_eq!(res[1], 9);
    }

    #[test]
    fn rflush_overlaps_and_completes_target() {
        use crate::universe::MpiConfig;
        use caf_fabric::delay::{DelayConfig, OpCost};
        let mut delays = DelayConfig::free();
        delays.flush_per_target = OpCost { base_ns: 20.0, ..OpCost::FREE };
        let cfg = MpiConfig {
            delays,
            ..MpiConfig::default()
        };
        let res = Universe::run_with_config(2, cfg, |mpi| {
            let w = mpi.world();
            let win = mpi.win_allocate(&w, 16).unwrap();
            mpi.win_lock_all(&win);
            let observed = if mpi.rank() == 0 {
                mpi.put(&win, 1, 0, &[0xabcdu64]).unwrap();
                let m = mpi.delay_meter();
                let (count0, ns0) = (
                    m.count(DelayOp::FlushPerTarget),
                    m.modeled_ns(DelayOp::FlushPerTarget),
                );
                let req = mpi.win_rflush(&win, 1).unwrap();
                // Cost is metered at initiation (the latency runs while
                // the origin keeps working)…
                assert_eq!(m.count(DelayOp::FlushPerTarget) - count0, 1);
                assert_eq!(m.modeled_ns(DelayOp::FlushPerTarget) - ns0, 20);
                // …but the target is retired only at wait.
                assert_eq!(win.dirty_targets(), vec![1]);
                assert_eq!(req.target_global(), 1);
                req.wait();
                assert_eq!(win.dirty_count(), 0);
                // No double charge at wait.
                assert_eq!(m.count(DelayOp::FlushPerTarget) - count0, 1);
                mpi.send(&mpi.world(), 1, 0, &[1u8]).unwrap();
                0
            } else {
                use crate::p2p::{Src, Tag};
                let _ = mpi
                    .recv::<u8>(&mpi.world(), Src::Rank(0), Tag::Is(0))
                    .unwrap();
                let mut out = [0u64; 1];
                mpi.win_read_local(&win, 0, &mut out).unwrap();
                out[0]
            };
            mpi.win_unlock_all(&win).unwrap();
            mpi.win_free(win).unwrap();
            observed
        });
        assert_eq!(res[1], 0xabcd);
    }

    #[test]
    fn rflush_out_of_range_is_an_error() {
        with_window(2, 16, |mpi, win| {
            if mpi.rank() == 0 {
                assert!(matches!(
                    mpi.win_rflush(win, 7),
                    Err(FabricError::RankOutOfRange { .. })
                ));
            }
        });
    }

    #[test]
    fn epoch_discipline_is_enforced() {
        let r = std::panic::catch_unwind(|| {
            Universe::run(1, |mpi| {
                let w = mpi.world();
                let win = mpi.win_allocate(&w, 8).unwrap();
                // No lock_all: must panic.
                let _ = mpi.put(&win, 0, 0, &[1u64]);
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn oob_put_is_an_error() {
        with_window(2, 16, |mpi, win| {
            if mpi.rank() == 0 {
                assert!(matches!(
                    mpi.put(win, 1, 12, &[1u64]),
                    Err(FabricError::OutOfBounds { .. })
                ));
            }
        });
    }

    #[test]
    fn vector_put_get_respects_stride() {
        with_window(2, 128, |mpi, win| {
            if mpi.rank() == 0 {
                // Write 4 elements at stride 3 starting at element 1.
                mpi.put_vector(win, 1, 8, 3, &[10u64, 11, 12, 13]).unwrap();
                mpi.win_flush(win, 1).unwrap();
            }
            mpi.barrier(win.comm()).unwrap();
            if mpi.rank() == 1 {
                let mut all = [0u64; 16];
                mpi.win_read_local(win, 0, &mut all).unwrap();
                assert_eq!(all[1], 10);
                assert_eq!(all[4], 11);
                assert_eq!(all[7], 12);
                assert_eq!(all[10], 13);
                assert_eq!(all[2], 0, "gaps untouched");
            }
            mpi.barrier(win.comm()).unwrap();
            // Strided read back from rank 0's side.
            if mpi.rank() == 0 {
                let mut out = [0u64; 4];
                mpi.get_vector(win, 1, 8, 3, &mut out).unwrap();
                assert_eq!(out, [10, 11, 12, 13]);
            }
        });
    }

    #[test]
    fn windows_with_heterogeneous_sizes() {
        // Regions of 24, 32 and 40 bytes: every rank resolves every peer's
        // segment, its word of each lands, and each peer's end holds.
        let res = Universe::run(3, |mpi| {
            let (w, me) = (mpi.world(), mpi.rank());
            let win = mpi.win_allocate(&w, (me + 3) * 8).unwrap();
            mpi.win_lock_all(&win);
            for t in 0..3 {
                mpi.put(&win, t, 8 * me, &[me as u64 + 1]).unwrap();
                assert!(mpi.put(&win, t, (t + 3) * 8, &[0u64]).is_err(), "past {t}'s end");
            }
            mpi.win_flush_all(&win).unwrap();
            mpi.barrier(&w).unwrap();
            let mut words = [0u64; 3];
            mpi.win_read_local(&win, 0, &mut words).unwrap();
            mpi.win_unlock_all(&win).unwrap();
            mpi.win_free(win).unwrap();
            words
        });
        assert_eq!(res, vec![[1, 2, 3]; 3]);
    }
}
