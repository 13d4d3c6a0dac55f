//! One-sided communication: windows, passive-target epochs, PUT/GET,
//! request-generating variants, one-sided atomics, and flush.
//!
//! Every data-plane operation accesses the target's registered segment
//! directly — the target thread is never involved. This is the MPI-3
//! passive-target model the paper builds coarrays on (§3.1): lock all
//! targets once at window allocation, `put`/`get` freely, `flush` for
//! remote completion, unlock only at deallocation.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use caf_fabric::delay::DelayOp;
use caf_fabric::pod::{as_bytes, as_bytes_mut, vec_from_bytes};
use caf_fabric::sched::{self, ModelOp, ANY_OWNER};
use caf_fabric::{FabricError, MemCategory, Pod, Result, Segment, SegmentId};

use crate::comm::Comm;
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

    /// Whether `rank` has outstanding stores.
    pub fn is_dirty(&self, rank: usize) -> bool {
        self.bits[rank / 64].load(Ordering::Relaxed) & (1 << (rank % 64)) != 0
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
    pub(crate) sizes: Arc<[usize]>,
    pub(crate) local: Arc<Segment>,
    pub(crate) locked_all: AtomicBool,
    pub(crate) dirty: DirtySet,
}

/// MPI window ids live in the high-bit half of the model-checker's region
/// namespace; GASNet segment ids own the low half. Keeps the two
/// substrates' resources disjoint when both run in one hybrid job.
fn model_region(win_id: u64) -> u64 {
    win_id | (1u64 << 63)
}

/// Announce a window operation at the scheduler gate *before* its check
/// hook fires, so the interleaving the model explores is exactly the
/// event order the oracle observes.
fn announce(op: ModelOp) {
    if sched::active() {
        sched::yield_op(op);
    }
}

/// Whole-window synchronization (flush / epoch transitions / free):
/// conflicts with every data operation on the window.
pub(crate) fn announce_sync(win_id: u64) {
    announce(ModelOp::Atomic {
        region: model_region(win_id),
        owner: ANY_OWNER,
        lo: 0,
        hi: u64::MAX,
    });
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

    /// Size in bytes of `rank`'s exposed region.
    pub fn size_of(&self, rank: usize) -> usize {
        self.sizes[rank]
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

    fn assert_epoch(&self) {
        assert!(
            self.locked_all.load(Ordering::Relaxed),
            "RMA operation outside a passive-target epoch (call win_lock_all first)"
        );
    }
}

#[cfg(feature = "check")]
impl Mpi {
    /// Best-effort global rank of `target` for check diagnostics
    /// (out-of-range targets are reported raw; the data path returns an
    /// error right after the hook fires).
    fn check_global(&self, win: &Window, target: usize) -> usize {
        if target < win.comm.size() {
            win.comm.global_rank(target)
        } else {
            target
        }
    }
}

impl Mpi {
    /// `MPI_Win_allocate` — collective: every rank exposes `bytes` bytes of
    /// library-allocated memory.
    pub fn win_allocate(&self, comm: &Comm, bytes: usize) -> Result<Window> {
        let seg = Segment::new(bytes);
        let id = self.ep.register_segment(seg);
        let local = self.ep.segment(id)?;
        self.mem.map(MemCategory::UserData, bytes);
        self.mem.map(MemCategory::SegmentMeta, 64 * comm.size());

        let pairs = self.allgather(comm, &[[id.0, bytes as u64]])?;
        let segs: Vec<SegmentId> = pairs.iter().map(|p| SegmentId(p[0])).collect();
        let sizes: Vec<usize> = pairs.iter().map(|p| p[1] as usize).collect();
        let child = self.next_child_index(comm);
        let win_id = crate::comm::derive_comm_id(comm.id(), child, 0x77);
        let nranks = comm.size();
        Ok(Window {
            id: win_id,
            comm: comm.clone(),
            segs: segs.into(),
            sizes: sizes.into(),
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
        if win.locked_all.load(Ordering::Relaxed) && win.dirty.count() > 0 {
            for target in win.dirty.ranks() {
                self.win_flush(win, target)?;
            }
        }
        announce_sync(win.id);
        #[cfg(feature = "check")]
        caf_check::hooks::win_free(win.id, self.rank(), win.locked_all.load(Ordering::Relaxed));
        if caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::WinFree, None, 0, Some(win.id));
        }
        self.barrier(&win.comm)?;
        let me = win.comm.rank();
        self.mem.unmap(MemCategory::UserData, win.sizes[me]);
        self.mem.unmap(MemCategory::SegmentMeta, 64 * win.comm.size());
        self.ep.unregister_segment(win.segs[me])
    }

    /// `MPI_Win_lock_all` — open a shared passive-target epoch to every
    /// rank of the window.
    pub fn win_lock_all(&self, win: &Window) {
        announce_sync(win.id);
        #[cfg(feature = "check")]
        caf_check::hooks::win_lock_all(win.id, self.rank());
        if caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::WinLockAll, None, 0, Some(win.id));
        }
        win.locked_all.store(true, Ordering::Relaxed);
    }

    /// `MPI_Win_unlock_all` — close the epoch, completing all operations.
    pub fn win_unlock_all(&self, win: &Window) -> Result<()> {
        announce_sync(win.id);
        #[cfg(feature = "check")]
        caf_check::hooks::win_unlock_all(
            win.id,
            self.rank(),
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        self.win_flush_all(win)?;
        // Traced after the interior flush: in the recorded timeline the
        // epoch closes once its completing flush is done, which is what
        // the offline checker replays.
        if caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::WinUnlockAll, None, 0, Some(win.id));
        }
        win.locked_all.store(false, Ordering::Relaxed);
        Ok(())
    }

    fn trace_rma_atomic(&self, win: &Window, target: usize, bytes: usize) {
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::RmaAtomic,
                Some(win.comm.global_rank(target)),
                bytes as u64,
                Some(win.id),
            );
        }
    }

    fn target_segment(&self, win: &Window, target: usize) -> Result<Arc<Segment>> {
        if target >= win.comm.size() {
            return Err(FabricError::RankOutOfRange {
                rank: target,
                size: win.comm.size(),
            });
        }
        self.ep.segment(win.segs[target])
    }

    /// `MPI_Put` — one-sided write of `data` at byte displacement `disp` in
    /// `target`'s window region. Locally complete at return; remotely
    /// complete after a flush (on this substrate the data is applied
    /// immediately, but portable callers must still flush — and the CAF
    /// runtime does).
    pub fn put<T: Pod>(&self, win: &Window, target: usize, disp: usize, data: &[T]) -> Result<()> {
        let bytes = as_bytes(data);
        announce(ModelOp::Write {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + bytes.len() as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::rma_put(
            win.id,
            self.rank(),
            self.check_global(win, target),
            disp as u64,
            bytes.len() as u64,
            bytes.as_ptr() as u64,
            bytes.len() as u64,
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        if caf_trace::enabled() {
            caf_trace::instant_d(
                caf_trace::Op::RmaPut,
                Some(win.comm.global_rank(target)),
                bytes.len() as u64,
                Some(win.id),
                Some(disp as u64),
            );
        }
        self.delays.charge(DelayOp::RmaPut, bytes.len());
        let seg = self.target_segment(win, target)?;
        win.dirty.mark(target);
        seg.put(disp, bytes)
    }

    /// `MPI_Get` — one-sided read from `target`'s window region.
    pub fn get<T: Pod>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        out: &mut [T],
    ) -> Result<()> {
        let bytes = as_bytes_mut(out);
        announce(ModelOp::Read {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + bytes.len() as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::rma_get(
            win.id,
            self.rank(),
            self.check_global(win, target),
            disp as u64,
            bytes.len() as u64,
            bytes.as_ptr() as u64,
            bytes.len() as u64,
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        let seg = self.target_segment(win, target)?;
        if caf_trace::enabled() {
            caf_trace::instant_d(
                caf_trace::Op::RmaGet,
                Some(win.comm.global_rank(target)),
                bytes.len() as u64,
                Some(win.id),
                Some(disp as u64),
            );
        }
        self.delays.charge(DelayOp::RmaGet, bytes.len());
        seg.get(disp, bytes)
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
        let req = RmaRequest::completed_put();
        #[cfg(feature = "check")]
        let req = req.with_check_token(caf_check::hooks::request_open(
            win.id,
            self.rank(),
            data.as_ptr() as u64,
            std::mem::size_of_val(data) as u64,
            "rput",
        ));
        Ok(req)
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
        let mut buf = vec_from_bytes::<T>(&vec![0u8; count * std::mem::size_of::<T>()]);
        self.get(win, target, disp, &mut buf)?;
        #[cfg(feature = "check")]
        let token = caf_check::hooks::request_open(
            win.id,
            self.rank(),
            buf.as_ptr() as u64,
            std::mem::size_of_val(buf.as_slice()) as u64,
            "rget",
        );
        let req = RmaRequest::completed_get(buf);
        #[cfg(feature = "check")]
        let req = req.with_check_token(token);
        Ok(req)
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
        let esz = std::mem::size_of::<T>();
        // One announce covering the whole strided span (per-element yields
        // would explode the schedule space without adding distinct
        // conflicts).
        announce(ModelOp::Write {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + (data.len() * stride_elems.max(1) * esz) as u64,
        });
        #[cfg(feature = "check")]
        if caf_check::enabled() {
            let (origin, tgt) = (self.rank(), self.check_global(win, target));
            let open = win.locked_all.load(Ordering::Relaxed);
            for (i, v) in data.iter().enumerate() {
                caf_check::hooks::rma_put(
                    win.id,
                    origin,
                    tgt,
                    (disp + i * stride_elems * esz) as u64,
                    esz as u64,
                    (v as *const T) as u64,
                    esz as u64,
                    open,
                );
            }
        }
        win.assert_epoch();
        let seg = self.target_segment(win, target)?;
        win.dirty.mark(target);
        self.delays
            .charge(DelayOp::RmaPut, std::mem::size_of_val(data));
        for (i, v) in data.iter().enumerate() {
            seg.put(disp + i * stride_elems * esz, as_bytes(std::slice::from_ref(v)))?;
        }
        Ok(())
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
        let esz = std::mem::size_of::<T>();
        announce(ModelOp::Read {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + (out.len() * stride_elems.max(1) * esz) as u64,
        });
        #[cfg(feature = "check")]
        if caf_check::enabled() {
            let (origin, tgt) = (self.rank(), self.check_global(win, target));
            let open = win.locked_all.load(Ordering::Relaxed);
            for (i, v) in out.iter().enumerate() {
                caf_check::hooks::rma_get(
                    win.id,
                    origin,
                    tgt,
                    (disp + i * stride_elems * esz) as u64,
                    esz as u64,
                    (v as *const T) as u64,
                    esz as u64,
                    open,
                );
            }
        }
        win.assert_epoch();
        let seg = self.target_segment(win, target)?;
        self.delays
            .charge(DelayOp::RmaGet, std::mem::size_of_val(out));
        for (i, v) in out.iter_mut().enumerate() {
            seg.get(
                disp + i * stride_elems * esz,
                as_bytes_mut(std::slice::from_mut(v)),
            )?;
        }
        Ok(())
    }

    /// `MPI_Raccumulate` — request-generating accumulate; like `rput`,
    /// the request certifies **local completion only** (MPI-3 §11.3).
    pub fn raccumulate<T: BitsRepr>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        data: &[T],
        op: AccOp,
    ) -> Result<RmaRequest<()>> {
        self.accumulate(win, target, disp, data, op)?;
        let req = RmaRequest::completed_put();
        #[cfg(feature = "check")]
        let req = req.with_check_token(caf_check::hooks::request_open(
            win.id,
            self.rank(),
            data.as_ptr() as u64,
            std::mem::size_of_val(data) as u64,
            "raccumulate",
        ));
        Ok(req)
    }

    /// `MPI_Rget_accumulate` — request-generating fetch-and-accumulate;
    /// the request certifies local *and* remote completion and carries
    /// the fetched previous contents.
    pub fn rget_accumulate<T: BitsRepr>(
        &self,
        win: &Window,
        target: usize,
        disp: usize,
        data: &[T],
        op: AccOp,
    ) -> Result<RmaRequest<T>> {
        let prev = self.get_accumulate(win, target, disp, data, op)?;
        #[cfg(feature = "check")]
        let token = caf_check::hooks::request_open(
            win.id,
            self.rank(),
            prev.as_ptr() as u64,
            std::mem::size_of_val(prev.as_slice()) as u64,
            "rget_accumulate",
        );
        let req = RmaRequest::completed_get(prev);
        #[cfg(feature = "check")]
        let req = req.with_check_token(token);
        Ok(req)
    }

    /// `MPI_Win_shared_query` — the shared-memory window accessor of
    /// `MPI_WIN_ALLOCATE_SHARED`. On this in-process substrate every
    /// window's memory is shared, so any rank's region can be mapped for
    /// direct load/store access (the fast path the paper notes
    /// `MPI_WIN_ALLOCATE` enables, §2.2).
    pub fn win_shared_query(&self, win: &Window, rank: usize) -> Result<Arc<Segment>> {
        self.target_segment(win, rank)
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
        announce(ModelOp::Atomic {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + std::mem::size_of_val(data) as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::rma_atomic(
            win.id,
            self.rank(),
            self.check_global(win, target),
            disp as u64,
            std::mem::size_of_val(data) as u64,
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        let seg = self.target_segment(win, target)?;
        win.dirty.mark(target);
        self.trace_rma_atomic(win, target, std::mem::size_of_val(data));
        self.delays
            .charge(DelayOp::RmaAtomic, std::mem::size_of_val(data));
        for (i, &v) in data.iter().enumerate() {
            let off = disp + i * 8;
            seg.fetch_update_u64(off, |old| op.apply_bits::<T>(old, T::to_bits(v)))?;
        }
        Ok(())
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
        announce(ModelOp::Atomic {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + std::mem::size_of_val(data) as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::rma_atomic(
            win.id,
            self.rank(),
            self.check_global(win, target),
            disp as u64,
            std::mem::size_of_val(data) as u64,
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        let seg = self.target_segment(win, target)?;
        win.dirty.mark(target);
        self.trace_rma_atomic(win, target, std::mem::size_of_val(data));
        self.delays
            .charge(DelayOp::RmaAtomic, std::mem::size_of_val(data));
        let mut prev = Vec::with_capacity(data.len());
        for (i, &v) in data.iter().enumerate() {
            let off = disp + i * 8;
            let old = seg.fetch_update_u64(off, |old| op.apply_bits::<T>(old, T::to_bits(v)))?;
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
        announce(ModelOp::Atomic {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + 8,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::rma_atomic(
            win.id,
            self.rank(),
            self.check_global(win, target),
            disp as u64,
            8,
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        let seg = self.target_segment(win, target)?;
        win.dirty.mark(target);
        self.trace_rma_atomic(win, target, 8);
        self.delays.charge(DelayOp::RmaAtomic, 8);
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
        announce(ModelOp::Atomic {
            region: model_region(win.id),
            owner: target,
            lo: disp as u64,
            hi: disp as u64 + 8,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::rma_atomic(
            win.id,
            self.rank(),
            self.check_global(win, target),
            disp as u64,
            8,
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        let seg = self.target_segment(win, target)?;
        win.dirty.mark(target);
        self.trace_rma_atomic(win, target, 8);
        self.delays.charge(DelayOp::RmaAtomic, 8);
        let prev = seg.compare_exchange_u64(disp, T::to_bits(expected), T::to_bits(new))?;
        Ok(T::from_bits(prev))
    }

    /// `MPI_Win_flush` — complete all outstanding operations from this
    /// origin to `target`, at the origin *and* the target.
    pub fn win_flush(&self, win: &Window, target: usize) -> Result<()> {
        announce_sync(win.id);
        #[cfg(feature = "check")]
        caf_check::hooks::win_flush(
            win.id,
            self.rank(),
            self.check_global(win, target),
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        if target >= win.comm.size() {
            return Err(FabricError::RankOutOfRange {
                rank: target,
                size: win.comm.size(),
            });
        }
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::WinFlush,
                Some(win.comm.global_rank(target)),
                0,
                Some(win.id),
            );
        }
        self.delays.charge(DelayOp::FlushPerTarget, 0);
        win.dirty.clear(target);
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
        announce_sync(win.id);
        win.assert_epoch();
        if target >= win.comm.size() {
            return Err(FabricError::RankOutOfRange {
                rank: target,
                size: win.comm.size(),
            });
        }
        let target_global = win.comm.global_rank(target);
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::WinRflush,
                Some(target_global),
                0,
                Some(win.id),
            );
        }
        // Count and model the cost now; the spin (whatever is left of it)
        // is paid at wait time.
        let cost_ns = self.delays.note(DelayOp::FlushPerTarget, 0);
        Ok(FlushRequest::new(
            win.id,
            self.rank(),
            target,
            target_global,
            caf_fabric::delay::monotonic_ns() + cost_ns as u64,
            win.locked_all.load(Ordering::Relaxed),
            win.dirty.clone(),
        ))
    }

    /// `MPI_Win_flush_all` — complete outstanding operations to **every**
    /// target. Like all MPICH derivatives at the time of the paper, this
    /// flushes each rank of the window's communicator in turn, so its cost
    /// grows linearly with the job size (paper §4.1 — the root cause of
    /// CAF-MPI's `event_notify` overhead in RandomAccess).
    pub fn win_flush_all(&self, win: &Window) -> Result<()> {
        announce_sync(win.id);
        #[cfg(feature = "check")]
        caf_check::hooks::win_flush_all(
            win.id,
            self.rank(),
            win.locked_all.load(Ordering::Relaxed),
        );
        win.assert_epoch();
        // The span's `bytes` field carries the per-target flush count —
        // the Θ(P) signature a trace viewer should surface.
        let _span = caf_trace::span_t(
            caf_trace::Op::WinFlushAll,
            None,
            win.comm.size() as u64,
            Some(win.id),
        );
        for _target in 0..win.comm.size() {
            self.delays.charge(DelayOp::FlushPerTarget, 0);
        }
        win.dirty.clear_all();
        fence(Ordering::SeqCst);
        Ok(())
    }

    /// Resolve the segment backing `rank`'s exposed region — the direct
    /// load/store access the unified memory model permits. Used by
    /// runtimes layered on this library to access window memory from
    /// whichever process is executing (e.g. CAF function shipping).
    pub fn win_segment(&self, win: &Window, rank: usize) -> Result<Arc<Segment>> {
        self.target_segment(win, rank)
    }

    /// Read from this rank's own window region (a local "load" under the
    /// unified memory model).
    pub fn win_read_local<T: Pod>(&self, win: &Window, disp: usize, out: &mut [T]) -> Result<()> {
        let bytes = as_bytes_mut(out);
        announce(ModelOp::Read {
            region: model_region(win.id),
            owner: win.comm.rank(),
            lo: disp as u64,
            hi: disp as u64 + bytes.len() as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::local_read(
            win.id,
            win.comm.global_rank(win.comm.rank()),
            disp as u64,
            bytes.len() as u64,
        );
        win.local.get(disp, bytes)
    }

    /// Write to this rank's own window region (a local "store").
    pub fn win_write_local<T: Pod>(&self, win: &Window, disp: usize, data: &[T]) -> Result<()> {
        let bytes = as_bytes(data);
        announce(ModelOp::Write {
            region: model_region(win.id),
            owner: win.comm.rank(),
            lo: disp as u64,
            hi: disp as u64 + bytes.len() as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::local_write(
            win.id,
            win.comm.global_rank(win.comm.rank()),
            disp as u64,
            bytes.len() as u64,
        );
        win.local.put(disp, bytes)
    }

    /// Read-modify-write one `u64` of this rank's own window region: the
    /// [`Mpi::win_read_local`] + [`Mpi::win_write_local`] pair as one call
    /// — the same Read-then-Write announces and checker hooks, one bounds
    /// check. Owner-serial (see [`Segment::rmw_u64`]).
    pub fn win_rmw_local_u64(
        &self,
        win: &Window,
        disp: usize,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<()> {
        let (region, owner) = (model_region(win.id), win.comm.rank());
        let (lo, hi) = (disp as u64, disp as u64 + 8);
        announce(ModelOp::Read {
            region,
            owner,
            lo,
            hi,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::local_read(win.id, win.comm.global_rank(owner), lo, 8);
        announce(ModelOp::Write {
            region,
            owner,
            lo,
            hi,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::local_write(win.id, win.comm.global_rank(owner), lo, 8);
        win.local.rmw_u64(disp, f)
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
        let seg = self.target_segment(win, rank)?;
        let bytes = as_bytes_mut(out);
        announce(ModelOp::Read {
            region: model_region(win.id),
            owner: rank,
            lo: disp as u64,
            hi: disp as u64 + bytes.len() as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::local_read(
            win.id,
            win.comm.global_rank(rank),
            disp as u64,
            bytes.len() as u64,
        );
        seg.get(disp, bytes)
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
        let seg = self.target_segment(win, rank)?;
        let bytes = as_bytes(data);
        announce(ModelOp::Write {
            region: model_region(win.id),
            owner: rank,
            lo: disp as u64,
            hi: disp as u64 + bytes.len() as u64,
        });
        #[cfg(feature = "check")]
        caf_check::hooks::local_write(
            win.id,
            win.comm.global_rank(rank),
            disp as u64,
            bytes.len() as u64,
        );
        seg.put(disp, bytes)
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
        delays.flush_per_target = OpCost::fixed(10.0);
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
        delays.flush_per_target = OpCost::fixed(5.0);
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
        delays.flush_per_target = OpCost::fixed(20.0);
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
    fn raccumulate_and_rget_accumulate() {
        with_window(2, 16, |mpi, win| {
            if mpi.rank() == 0 {
                let r = mpi.raccumulate(win, 1, 0, &[5u64], AccOp::Sum).unwrap();
                r.wait();
                mpi.win_flush(win, 1).unwrap();
                let rga = mpi
                    .rget_accumulate(win, 1, 0, &[3u64], AccOp::Sum)
                    .unwrap();
                assert_eq!(rga.wait(), vec![5]);
            }
            mpi.barrier(win.comm()).unwrap();
            if mpi.rank() == 1 {
                let mut v = [0u64];
                mpi.win_read_local(win, 0, &mut v).unwrap();
                assert_eq!(v[0], 8);
            }
        });
    }

    #[test]
    fn shared_query_gives_direct_access() {
        with_window(2, 16, |mpi, win| {
            if mpi.rank() == 0 {
                // Load/store directly through the shared mapping.
                let seg = mpi.win_shared_query(win, 1).unwrap();
                seg.store_u64(0, 0xfeed).unwrap();
            }
            mpi.barrier(win.comm()).unwrap();
            if mpi.rank() == 1 {
                let mut v = [0u64];
                mpi.win_read_local(win, 0, &mut v).unwrap();
                assert_eq!(v[0], 0xfeed);
            }
        });
    }

    #[test]
    fn windows_with_heterogeneous_sizes() {
        let res = Universe::run(3, |mpi| {
            let w = mpi.world();
            let bytes = (mpi.rank() + 1) * 16;
            let win = mpi.win_allocate(&w, bytes).unwrap();
            mpi.win_lock_all(&win);
            let sizes: Vec<usize> = (0..3).map(|r| win.size_of(r)).collect();
            mpi.win_unlock_all(&win).unwrap();
            mpi.win_free(win).unwrap();
            sizes
        });
        for r in res {
            assert_eq!(r, vec![16, 32, 48]);
        }
    }
}
