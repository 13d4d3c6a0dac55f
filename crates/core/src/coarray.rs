//! Coarrays — "the main addition of CAF to Fortran 95" (paper §3.1).
//!
//! A `Coarray<T>` gives every image of a team `len` local elements of `T`,
//! remotely readable and writable by any other team member with one-sided
//! semantics.
//!
//! The remote-reference representation is substrate-specific, exactly as in
//! the paper:
//!
//! * **CAF-MPI**: a `(window, rank, displacement)` triple — MPI RMA hides
//!   absolute remote addresses inside the window object, so the runtime
//!   carries the window and an offset;
//! * **CAF-GASNet**: an `(image, address)` pair — GASNet exposes raw
//!   segment addresses.
//!
//! Blocking reads and writes have *global visibility* semantics: when the
//! call returns, the effect is visible to everyone (the MPI path issues
//! `MPI_Put` + `MPI_Win_flush`; GASNet puts are remotely complete at
//! return).

use std::marker::PhantomData;
use std::sync::Arc;

use caf_mpisim::Window;

use caf_fabric::{Group, Pod};

use crate::backend::{Backend, GasnetBackend, MpiBackend};
use crate::image::Image;
use crate::op::{CafOp, Edge};
use crate::stats::StatCat;
use crate::team::Team;

/// A coarray: `len` elements of `T` on every image of its team.
///
/// The handle is `Send + Sync` so it can be captured by shipped functions;
/// operations go through the *executing* image's runtime.
pub struct Coarray<T: Pod> {
    pub(crate) region: Arc<RegionInner>,
    len: usize,
    _pd: PhantomData<T>,
}

impl<T: Pod> Clone for Coarray<T> {
    fn clone(&self) -> Self {
        Coarray {
            region: Arc::clone(&self.region),
            len: self.len,
            _pd: PhantomData,
        }
    }
}

impl<T: Pod> std::fmt::Debug for Coarray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coarray")
            .field("len", &self.len)
            .field("region", &self.region.id())
            .finish()
    }
}

#[derive(Debug)]
pub(crate) enum RegionInner {
    /// MPI substrate: the coarray is an RMA window.
    Mpi(Window),
    /// GASNet substrate: per-member offsets into the attached segments.
    Gasnet(GRegion),
}

/// A coarray's region paired with the backend of the substrate it was
/// allocated on. [`RegionInner::on`] is the one place a region from the
/// other substrate can be noticed, so the mismatch panic lives there. (A
/// team is a substrate-free `caf_fabric::Group`: it has nothing to
/// mismatch.)
pub(crate) enum On<'a> {
    Mpi(&'a MpiBackend, &'a Window),
    Gasnet(&'a GasnetBackend, &'a GRegion),
}

#[derive(Debug)]
pub(crate) struct GRegion {
    pub id: u64,
    pub offsets: Arc<[usize]>,
    /// The allocating team's group.
    pub group: Group,
    pub bytes: usize,
}

impl GRegion {
    /// The `(image, address)` remote reference of byte `disp` in
    /// `member`'s part.
    #[inline]
    pub(crate) fn at(&self, member: usize, disp: usize) -> (usize, usize) {
        (self.group.global_rank(member), self.offsets[member] + disp)
    }

    /// This image's segment offset of its own part.
    #[inline]
    pub(crate) fn local_base(&self) -> usize {
        self.offsets[self.group.rank()]
    }
}

impl RegionInner {
    pub(crate) fn id(&self) -> u64 {
        match self {
            RegionInner::Mpi(win) => win.id(),
            RegionInner::Gasnet(r) => r.id,
        }
    }

    /// The allocating team's group (the window's communicator on MPI).
    #[inline]
    fn group(&self) -> &Group {
        match self {
            RegionInner::Mpi(win) => win.comm(),
            RegionInner::Gasnet(r) => &r.group,
        }
    }

    /// Team rank of global image `image`.
    fn rank_of_global(&self, image: usize) -> usize {
        self.group()
            .rank_of_global(image)
            .expect("image not a member of this coarray's team")
    }

    /// The region paired with the backend of the substrate it was
    /// allocated on.
    ///
    /// # Panics
    ///
    /// Panics when the coarray was allocated by a job on the other
    /// substrate.
    #[inline]
    pub(crate) fn on<'a>(&'a self, backend: &'a Backend) -> On<'a> {
        match (backend, self) {
            (Backend::Mpi(b), RegionInner::Mpi(win)) => On::Mpi(b, win),
            (Backend::Gasnet(b), RegionInner::Gasnet(r)) => On::Gasnet(b, r),
            _ => panic!("coarray does not belong to this substrate"),
        }
    }
}

const NO_GASNET_ATOMICS: &str = "one-sided atomics are MPI-3 features; the GASNet core API \
     has none (use events or AMs on the GASNet substrate)";

/// A strided section of a coarray — the runtime form of a Fortran array
/// section `A(lo:hi:step)[img]`: `count` elements starting at element
/// `offset`, `stride` elements apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// First element index.
    pub offset: usize,
    /// Number of elements.
    pub count: usize,
    /// Distance between consecutive elements, in elements (≥ 1).
    pub stride: usize,
}

impl Section {
    /// A section of `count` elements from `offset`, `stride` apart.
    pub fn new(offset: usize, count: usize, stride: usize) -> Self {
        assert!(stride >= 1, "section stride must be at least 1");
        Section {
            offset,
            count,
            stride,
        }
    }

    /// Index of the last touched element (inclusive); `None` when empty.
    pub fn last(&self) -> Option<usize> {
        self.count
            .checked_sub(1)
            .map(|c| self.offset + c * self.stride)
    }
}

impl Image {
    /// Collectively allocate a coarray of `len` elements per image over
    /// `team`, registered in this image's region table.
    pub fn coarray_alloc<T: Pod>(&self, team: &Team, len: usize) -> Coarray<T> {
        let bytes = len * std::mem::size_of::<T>();
        let region = match &self.backend {
            Backend::Mpi(b) => {
                // Paper §3.1: allocate with MPI_WIN_ALLOCATE, lock all
                // targets with MPI_WIN_LOCK_ALL for the window's lifetime.
                let win = b.mpi.win_allocate(&team.group, bytes).expect("win_allocate");
                b.mpi.win_lock_all(&win);
                RegionInner::Mpi(win)
            }
            Backend::Gasnet(b) => {
                let off = b.arena.alloc(bytes).unwrap_or_else(|| {
                    panic!(
                        "GASNet segment exhausted allocating {bytes} bytes \
                         (increase GasnetConfig::segment_size)"
                    )
                });
                let id = self.next_team_token(team, 0xCA);
                let gregion = |offsets: Vec<usize>| {
                    let group = team.group.clone();
                    RegionInner::Gasnet(GRegion { id, offsets: offsets.into(), group, bytes })
                };
                // Registered before the offsets exchange, which handles
                // runtime messages: a member that leaves it first may
                // already send records for this region. Only this image's
                // own offset is known yet, and only it is read locally.
                let mut mine = vec![0; team.size()];
                mine[team.rank()] = off;
                self.regions.borrow_mut().insert(id, Arc::new(gregion(mine)));
                let offsets = self.allgather(team, &[off as u64]);
                gregion(offsets.into_iter().map(|o| o as usize).collect())
            }
        };
        let region = Arc::new(region);
        self.regions.borrow_mut().insert(region.id(), Arc::clone(&region));
        Coarray {
            region,
            len,
            _pd: PhantomData,
        }
    }

    /// Collectively free a coarray. All images of the allocating team must
    /// participate; outstanding clones of the handle become invalid.
    pub fn coarray_free<T: Pod>(&self, team: &Team, ca: Coarray<T>) {
        // The free is collective and programs may rely on it as a sync
        // point, but its interior barrier is substrate-level — the
        // descriptor records the round so the race detector sees the
        // edge, then drops the region's shadow history.
        let op = CafOp {
            region: Some(ca.region.id()),
            word: Some(team.id()),
            edge: Edge::Free(team.size()),
            ..CafOp::of(None)
        };
        ca.access(self, op, |on| match on {
            On::Mpi(b, win) => {
                self.forget_region(win.id());
                b.mpi.win_unlock_all(win).expect("unlock_all");
                b.mpi.win_free_shared(win).expect("win_free");
            }
            On::Gasnet(b, r) => {
                self.barrier(team);
                self.forget_region(r.id);
                b.arena.free(r.local_base(), r.bytes);
            }
        });
    }
}

impl<T: Pod> Coarray<T> {
    /// Elements per image.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the coarray has zero elements per image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The collectively agreed region identity (the window id on
    /// CAF-MPI) — the `window` of this coarray's trace records.
    pub fn id(&self) -> u64 {
        self.region.id()
    }

    fn byte_off(&self, elem_off: usize, count: usize) -> usize {
        assert!(
            elem_off + count <= self.len,
            "coarray access [{elem_off}, {}) out of bounds (len {})",
            elem_off + count,
            self.len
        );
        elem_off * std::mem::size_of::<T>()
    }

    /// Global image index of team member `member` (for trace attribution).
    pub(crate) fn global_member(&self, member: usize) -> usize {
        self.region.group().global_rank(member)
    }

    /// The descriptor of a data operation on `elems` elements at byte
    /// `disp` of image `owner`'s part (global index).
    #[inline(always)]
    pub(crate) fn data_op(&self, cat: Option<StatCat>, owner: usize, disp: usize, elems: usize, edge: Edge) -> CafOp {
        CafOp {
            target: Some(owner),
            bytes: (elems * std::mem::size_of::<T>()) as u64,
            region: Some(self.region.id()),
            word: Some(disp as u64),
            edge,
            ..CafOp::of(cat)
        }
    }

    /// As [`Coarray::data_op`], on team member `member`'s part.
    #[inline(always)]
    fn remote_op(&self, cat: StatCat, member: usize, disp: usize, elems: usize, edge: Edge) -> CafOp {
        self.data_op(Some(cat), self.global_member(member), disp, elems, edge)
    }

    /// Run the data operation `op` with this coarray's region paired
    /// with `img`'s backend.
    #[inline(always)]
    pub(crate) fn access<'a, R>(
        &'a self,
        img: &'a Image,
        op: CafOp,
        body: impl FnOnce(On<'a>) -> R,
    ) -> R {
        img.op(op, || body(self.region.on(&img.backend)))
    }

    /// Blocking remote read: `out = A(elem_off .. elem_off+|out|)[member]`.
    pub fn read(&self, img: &Image, member: usize, elem_off: usize, out: &mut [T]) {
        let disp = self.byte_off(elem_off, out.len());
        let op = self.remote_op(StatCat::CoarrayRead, member, disp, out.len(), Edge::Read);
        self.access(img, op, |on| match on {
            On::Mpi(b, win) => b.mpi.get(win, member, disp, out).expect("coarray read"),
            On::Gasnet(b, r) => {
                let (node, addr) = r.at(member, disp);
                b.g.get(node, addr, out).expect("coarray read");
            }
        });
    }

    /// Blocking remote write: `A(elem_off ..)[member] = data`, globally
    /// visible at return (put + flush on MPI, paper §3.1).
    pub fn write(&self, img: &Image, member: usize, elem_off: usize, data: &[T]) {
        let disp = self.byte_off(elem_off, data.len());
        let op = self.remote_op(StatCat::CoarrayWrite, member, disp, data.len(), Edge::Write);
        self.access(img, op, |on| match on {
            On::Mpi(b, win) => {
                b.mpi.put(win, member, disp, data).expect("coarray write");
                b.mpi.win_flush(win, member).expect("coarray write flush");
            }
            On::Gasnet(b, r) => {
                let (node, addr) = r.at(member, disp);
                b.g.put(node, addr, data).expect("coarray write");
            }
        });
    }

    /// Read this image's local part.
    ///
    /// "Local" always means the *executing* image: a coarray handle
    /// captured by a shipped function resolves to the executor's part,
    /// not the shipper's.
    pub fn local_read(&self, img: &Image, elem_off: usize, out: &mut [T]) {
        let disp = self.byte_off(elem_off, out.len());
        let me = img.this_image();
        let idx = self.region.rank_of_global(me);
        let op = self.data_op(None, me, disp, out.len(), Edge::Read);
        self.access(img, op, |on| match on {
            On::Mpi(b, win) => b.mpi.win_read_local_at(win, idx, disp, out),
            On::Gasnet(b, r) => b.g.read_local(r.offsets[idx] + disp, out),
        })
        .expect("local read");
    }

    /// Write this image's local part (see [`Coarray::local_read`] for the
    /// meaning of "local" under function shipping).
    pub fn local_write(&self, img: &Image, elem_off: usize, data: &[T]) {
        let disp = self.byte_off(elem_off, data.len());
        let me = img.this_image();
        let idx = self.region.rank_of_global(me);
        let op = self.data_op(None, me, disp, data.len(), Edge::Write);
        self.access(img, op, |on| match on {
            On::Mpi(b, win) => b.mpi.win_write_local_at(win, idx, disp, data),
            On::Gasnet(b, r) => b.g.write_local(r.offsets[idx] + disp, data),
        })
        .expect("local write");
    }

    fn check_section(&self, sec: Section, buf_len: usize) -> usize {
        assert_eq!(sec.count, buf_len, "section/buffer length mismatch");
        if let Some(last) = sec.last() {
            assert!(
                last < self.len,
                "section reaches element {last}, beyond coarray length {}",
                self.len
            );
        }
        sec.offset * std::mem::size_of::<T>()
    }

    /// The edge of a strided transfer of `sec`.
    fn section_edge(sec: Section, write: bool) -> Edge {
        let elem = std::mem::size_of::<T>() as u64;
        Edge::Section { write, elem, stride: sec.stride as u64 * elem }
    }

    /// Blocking strided remote read of a section (`out = A(sec)[member]`).
    pub fn read_section(&self, img: &Image, member: usize, sec: Section, out: &mut [T]) {
        let disp = self.check_section(sec, out.len());
        if sec.count == 0 {
            return;
        }
        let op = self.remote_op(StatCat::CoarrayRead, member, disp, sec.count, Self::section_edge(sec, false));
        self.access(img, op, |on| match on {
            On::Mpi(b, win) => b
                .mpi
                .get_vector(win, member, disp, sec.stride, out)
                .expect("section read"),
            On::Gasnet(b, r) => {
                let (node, addr) = r.at(member, disp);
                b.g.get_strided(node, addr, sec.stride, out).expect("section read");
            }
        });
    }

    /// Blocking strided remote write of a section
    /// (`A(sec)[member] = data`), globally visible at return.
    pub fn write_section(&self, img: &Image, member: usize, sec: Section, data: &[T]) {
        let disp = self.check_section(sec, data.len());
        if sec.count == 0 {
            return;
        }
        let op = self.remote_op(StatCat::CoarrayWrite, member, disp, sec.count, Self::section_edge(sec, true));
        self.access(img, op, |on| match on {
            On::Mpi(b, win) => {
                b.mpi
                    .put_vector(win, member, disp, sec.stride, data)
                    .expect("section write");
                b.mpi.win_flush(win, member).expect("section write flush");
            }
            On::Gasnet(b, r) => {
                let (node, addr) = r.at(member, disp);
                b.g.put_strided(node, addr, sec.stride, data).expect("section write");
            }
        });
    }

    /// One-sided atomic fetch-and-add on an 8-byte element of `member`'s
    /// part (maps to `MPI_Fetch_and_op` with `MPI_SUM`). Returns the value
    /// observed before the update.
    ///
    /// Only available on the MPI substrate: the GASNet *core* API offers
    /// no remote atomics (CAF-GASNet emulates such operations with active
    /// messages), so this call panics there.
    pub fn fetch_add(&self, img: &Image, member: usize, elem_off: usize, value: T) -> T
    where
        T: caf_mpisim::BitsRepr,
    {
        let disp = self.byte_off(elem_off, 1);
        match self.region.on(&img.backend) {
            On::Mpi(b, win) => b
                .mpi
                .fetch_and_op(win, member, disp, value, caf_mpisim::AccOp::Sum)
                .expect("fetch_and_op"),
            On::Gasnet(..) => panic!("{NO_GASNET_ATOMICS}"),
        }
    }

    /// One-sided atomic compare-and-swap on an 8-byte element of
    /// `member`'s part (maps to `MPI_Compare_and_swap`). Returns the value
    /// observed before the swap. MPI substrate only (see
    /// [`Coarray::fetch_add`]).
    pub fn compare_and_swap(
        &self,
        img: &Image,
        member: usize,
        elem_off: usize,
        expected: T,
        new: T,
    ) -> T
    where
        T: caf_mpisim::BitsRepr,
    {
        let disp = self.byte_off(elem_off, 1);
        match self.region.on(&img.backend) {
            On::Mpi(b, win) => b
                .mpi
                .compare_and_swap(win, member, disp, expected, new)
                .expect("compare_and_swap"),
            On::Gasnet(..) => panic!("{NO_GASNET_ATOMICS}"),
        }
    }

    /// Convenience: fetch the whole local part as a vector.
    pub fn local_vec(&self, img: &Image) -> Vec<T> {
        let mut out = crate::zeroed_vec::<T>(self.len);
        if self.len > 0 {
            self.local_read(img, 0, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{both, CafConfig, CafUniverse, SubstrateKind};

    #[test]
    fn remote_write_then_read() {
        both(3, |img| {
            let w = img.team_world();
            let ca: Coarray<f64> = img.coarray_alloc(&w, 8);
            let me = img.this_image();
            // Everyone writes its id into slot `me` of image (me+1)%3.
            ca.write(img, (me + 1) % 3, me, &[me as f64 + 100.0]);
            img.sync_all();
            // Verify locally.
            let local = ca.local_vec(img);
            let writer = (me + 3 - 1) % 3;
            assert_eq!(local[writer], writer as f64 + 100.0);
            // And remotely.
            let mut probe = [0.0f64];
            ca.read(img, (me + 1) % 3, me, &mut probe);
            assert_eq!(probe[0], me as f64 + 100.0);
            img.coarray_free(&w, ca);
        });
    }

    /// The Θ(P log P) claim as an exact count: one collective allocate
    /// plus free injects ⌈log₂ P⌉ messages per image for the Bruck
    /// allgather of the allocate (window ids on CAF-MPI, arena offsets on
    /// CAF-GASNet) and ⌈log₂ P⌉ for the dissemination barrier of the
    /// free — where the ring and the linear exchange injected P−1.
    #[test]
    #[cfg_attr(miri, ignore = "launches jobs of 48 and 64 images")]
    fn alloc_plus_free_injects_two_log_p_messages_per_image() {
        use caf_fabric::DelayOp;

        let injected = |img: &Image| {
            let snap = img.delay_meter_snapshot();
            let (_, count, _) = snap.iter().find(|(op, ..)| *op == DelayOp::P2pInject).unwrap();
            *count
        };
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for p in [2usize, 3, 48, 64] {
                let mut cfg = CafConfig { exec: crate::ExecConfig::tasks(), ..CafConfig::on(kind) };
                cfg.gasnet.segment_size = 64 << 10;
                let deltas = CafUniverse::run_with_config(p, cfg, |img| {
                    let w = img.team_world();
                    let before = injected(img);
                    let ca: Coarray<u64> = img.coarray_alloc(&w, 4);
                    img.coarray_free(&w, ca);
                    injected(img) - before
                });
                let log2_ceil = u64::from(p.next_power_of_two().trailing_zeros());
                assert_eq!(deltas, vec![2 * log2_ceil; p], "{kind:?} P={p}");
            }
        }
    }

    #[test]
    fn coarray_over_subteam() {
        both(6, |img| {
            let w = img.team_world();
            let sub = img.team_split(&w, (img.this_image() % 2) as u64, 0);
            let ca: Coarray<u64> = img.coarray_alloc(&sub, 2);
            let peer = (sub.rank() + 1) % sub.size();
            ca.write(img, peer, 0, &[sub.rank() as u64 + 1]);
            img.barrier(&sub);
            let local = ca.local_vec(img);
            let expect = ((sub.rank() + sub.size() - 1) % sub.size()) as u64 + 1;
            assert_eq!(local[0], expect);
            img.coarray_free(&sub, ca);
            img.sync_all();
        });
    }

    #[test]
    fn gasnet_free_reuses_segment_space() {
        CafUniverse::run_with_config(2, CafConfig::on(SubstrateKind::Gasnet), |img| {
            let w = img.team_world();
            for _ in 0..50 {
                let ca: Coarray<f64> = img.coarray_alloc(&w, 1 << 12);
                img.coarray_free(&w, ca);
            }
            // 50 × 32 KB would exhaust the 4 MB default segment without
            // the allocator reclaiming freed runs — wait, 50*32KB = 1.6MB.
            // Use a size that proves reuse: 50 × 1 MB certainly would.
            for _ in 0..50 {
                let ca: Coarray<u8> = img.coarray_alloc(&w, 1 << 20);
                img.coarray_free(&w, ca);
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds (len 4)")]
    fn out_of_bounds_access_panics() {
        CafUniverse::run(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 4);
            let mut out = [0u64; 2];
            ca.read(img, 0, 3, &mut out);
        });
    }

    #[test]
    fn sections_read_write_on_both_substrates() {
        both(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 16);
            if img.this_image() == 0 {
                // A(1:13:4)[1] = [100, 101, 102, 103]  (elements 1,5,9,13)
                ca.write_section(img, 1, Section::new(1, 4, 4), &[100, 101, 102, 103]);
            }
            img.sync_all();
            if img.this_image() == 1 {
                let local = ca.local_vec(img);
                assert_eq!(local[1], 100);
                assert_eq!(local[5], 101);
                assert_eq!(local[9], 102);
                assert_eq!(local[13], 103);
                assert_eq!(local[2], 0);
            }
            img.sync_all();
            if img.this_image() == 0 {
                let mut out = [0u64; 4];
                ca.read_section(img, 1, Section::new(1, 4, 4), &mut out);
                assert_eq!(out, [100, 101, 102, 103]);
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    #[should_panic(expected = "beyond coarray length 8")]
    fn section_out_of_bounds_panics() {
        CafUniverse::run(1, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 8);
            let mut out = [0u64; 3];
            // Elements 0, 4, 8 — 8 is out of bounds for len 8.
            ca.read_section(img, 0, Section::new(0, 3, 4), &mut out);
        });
    }

    #[test]
    fn fetch_add_is_atomic_across_images() {
        CafUniverse::run(4, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            for _ in 0..250 {
                ca.fetch_add(img, 0, 0, 1u64);
            }
            img.sync_all();
            if img.this_image() == 0 {
                assert_eq!(ca.local_vec(img)[0], 1000);
            }
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn compare_and_swap_elects_one_winner() {
        CafUniverse::run(4, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let prev = ca.compare_and_swap(img, 0, 0, 0u64, img.this_image() as u64 + 1);
            let winners = img.allreduce(&w, &[(prev == 0) as u64], |a, b| a + b);
            assert_eq!(winners[0], 1);
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    #[should_panic(expected = "one-sided atomics are MPI-3 features")]
    fn atomics_unsupported_on_gasnet() {
        CafUniverse::run_with_config(1, CafConfig::on(SubstrateKind::Gasnet), |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let _ = ca.fetch_add(img, 0, 0, 1u64);
        });
    }

    #[test]
    fn multiple_coarrays_are_independent() {
        both(2, |img| {
            let w = img.team_world();
            let a: Coarray<u64> = img.coarray_alloc(&w, 4);
            let b: Coarray<u64> = img.coarray_alloc(&w, 4);
            let peer = 1 - img.this_image();
            a.write(img, peer, 0, &[111]);
            b.write(img, peer, 0, &[222]);
            img.sync_all();
            assert_eq!(a.local_vec(img)[0], 111);
            assert_eq!(b.local_vec(img)[0], 222);
            img.coarray_free(&w, a);
            img.coarray_free(&w, b);
        });
    }
}
