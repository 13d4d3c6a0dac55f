//! Registered memory segments — the fabric's "RDMA-able" memory.
//!
//! A [`Segment`] is a block of memory that remote ranks may read, write, and
//! atomically update *without any involvement of the owning rank's thread*.
//! This is the property that makes MPI-3 passive-target RMA (and GASNet
//! puts/gets) genuinely one-sided in this workspace, and it is what makes the
//! paper's Figure 2 program deadlock-free under CAF-MPI.
//!
//! The backing store is a boxed slice of `AtomicU64`. All data-plane accesses
//! are `Relaxed` atomics: racy overlapping access yields an undefined *value*
//! (exactly the MPI unified-model contract) but never undefined *behaviour*.
//! Cross-rank ordering is established by the synchronization operations of
//! the layers above (mailbox hand-offs, flush counters, events), each of
//! which performs a release/acquire edge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::FabricError;
use crate::{Endpoint, Result};

/// Identifier of a registered segment, unique within one [`crate::Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u64);

const WORD: usize = 8;

/// A registered, remotely accessible memory region.
///
/// Sizes are rounded up to a whole number of 8-byte words; [`Segment::len`]
/// reports the size originally requested, which is also the bound enforced
/// on every remote access.
pub struct Segment {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("len", &self.len).finish()
    }
}

/// The peer segments one handle — an MPI window, an attached GASNet
/// library — has resolved: looked up in the registry on first touch (a
/// lock, a hash and a reference count: more than the 8-byte put they
/// serve), borrowed from then on, released when the handle is dropped.
/// Lazy: resolving every peer up front is Θ(P²) lookups per allocate.
#[derive(Debug)]
pub struct PeerSegments(Box<[OnceLock<Arc<Segment>>]>);

impl PeerSegments {
    /// Nothing resolved yet, for `peers` ranks.
    pub fn new(peers: usize) -> Self {
        PeerSegments((0..peers).map(|_| OnceLock::new()).collect())
    }

    /// Rank `peer`'s segment, registered as `id`. A failed lookup is
    /// returned, not remembered.
    #[inline]
    pub fn resolve(&self, ep: &Endpoint, peer: usize, id: SegmentId) -> Result<&Segment> {
        match self.0[peer].get() {
            Some(seg) => Ok(seg),
            None => {
                let seg = ep.segment(id)?;
                Ok(self.0[peer].get_or_init(|| seg))
            }
        }
    }
}

impl Segment {
    /// Allocate a zero-initialized segment of `len` bytes.
    pub fn new(len: usize) -> Self {
        let n_words = len.div_ceil(WORD);
        let mut v = Vec::with_capacity(n_words);
        v.resize_with(n_words, || AtomicU64::new(0));
        Segment {
            words: v.into_boxed_slice(),
            len,
        }
    }

    /// Requested size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(FabricError::OutOfBounds {
                offset,
                len,
                capacity: self.len,
            });
        }
        Ok(())
    }

    fn check_aligned(&self, offset: usize, size: usize) -> Result<()> {
        self.check(offset, size)?;
        if offset % size != 0 {
            return Err(FabricError::BadAlignment {
                offset,
                required: size,
            });
        }
        Ok(())
    }

    /// Write `data` into the segment at byte `offset` (a remote or local PUT).
    ///
    /// Whole words are stored with single relaxed atomic stores; partial edge
    /// words use a read-modify-write merge. Concurrent writers to *disjoint*
    /// word-aligned ranges never disturb each other; concurrent writers to
    /// the same word follow MPI's "undefined result" rule.
    pub fn put(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.check(offset, data.len())?;
        if caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::SegmentPut, None, data.len() as u64, None);
        }
        let mut off = offset;
        let mut src = data;

        // Leading partial word.
        let lead = off % WORD;
        if lead != 0 && !src.is_empty() {
            let take = (WORD - lead).min(src.len());
            self.rmw_bytes(off / WORD, lead, &src[..take]);
            off += take;
            src = &src[take..];
        }
        // Full words.
        let mut w = off / WORD;
        while src.len() >= WORD {
            let v = u64::from_le_bytes(src[..WORD].try_into().expect("chunk is 8 bytes"));
            self.words[w].store(v, Ordering::Relaxed);
            w += 1;
            src = &src[WORD..];
        }
        // Trailing partial word.
        if !src.is_empty() {
            self.rmw_bytes(w, 0, src);
        }
        Ok(())
    }

    /// Merge `bytes` into word `w` starting at in-word byte `shift`.
    fn rmw_bytes(&self, w: usize, shift: usize, bytes: &[u8]) {
        debug_assert!(shift + bytes.len() <= WORD);
        let mut mask: u64 = 0;
        let mut val: u64 = 0;
        for (i, &b) in bytes.iter().enumerate() {
            mask |= 0xffu64 << ((shift + i) * 8);
            val |= (b as u64) << ((shift + i) * 8);
        }
        let _ = self.words[w].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
            Some((old & !mask) | val)
        });
    }

    /// Read `out.len()` bytes from byte `offset` (a remote or local GET).
    /// Inlined into the substrates' reads, whose prologue has just tested
    /// the same thread-local trace flag.
    #[inline]
    pub fn get(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        self.check(offset, out.len())?;
        if caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::SegmentGet, None, out.len() as u64, None);
        }
        let mut off = offset;
        let mut dst = &mut out[..];

        let lead = off % WORD;
        if lead != 0 && !dst.is_empty() {
            let take = (WORD - lead).min(dst.len());
            let word = self.words[off / WORD].load(Ordering::Relaxed).to_le_bytes();
            dst[..take].copy_from_slice(&word[lead..lead + take]);
            off += take;
            dst = &mut dst[take..];
        }
        let mut w = off / WORD;
        while dst.len() >= WORD {
            let v = self.words[w].load(Ordering::Relaxed);
            dst[..WORD].copy_from_slice(&v.to_le_bytes());
            w += 1;
            dst = &mut dst[WORD..];
        }
        if !dst.is_empty() {
            let word = self.words[w].load(Ordering::Relaxed).to_le_bytes();
            let n = dst.len();
            dst.copy_from_slice(&word[..n]);
        }
        Ok(())
    }

    /// Owner-serial read-modify-write of the `u64` at byte `offset`:
    /// `f(old)` is stored back with no atomicity between the load and the
    /// store, so only one thread at a time may update a given word this
    /// way (the owning image's progress engine applying accumulate
    /// records). Same observable effect as a [`Segment::get`] followed by
    /// a [`Segment::put`] of 8 little-endian bytes — and exactly that pair
    /// when `offset` is unaligned or a trace session is armed, so traces
    /// keep their `SegmentGet`/`SegmentPut` instants.
    pub fn rmw_u64(&self, offset: usize, f: impl FnOnce(u64) -> u64) -> Result<()> {
        if offset % WORD != 0 || caf_trace::enabled() {
            let mut b = [0u8; WORD];
            self.get(offset, &mut b)?;
            return self.put(offset, &f(u64::from_le_bytes(b)).to_le_bytes());
        }
        self.check(offset, WORD)?;
        let w = &self.words[offset / WORD];
        w.store(f(w.load(Ordering::Relaxed)), Ordering::Relaxed);
        Ok(())
    }

    /// Atomically load the aligned `u64` at byte `offset`.
    pub fn load_u64(&self, offset: usize) -> Result<u64> {
        self.check_aligned(offset, WORD)?;
        Ok(self.words[offset / WORD].load(Ordering::Acquire))
    }

    /// Atomically store the aligned `u64` at byte `offset`.
    pub fn store_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.check_aligned(offset, WORD)?;
        self.words[offset / WORD].store(value, Ordering::Release);
        Ok(())
    }

    /// Atomic fetch-and-add on the aligned `u64` at byte `offset`.
    pub fn fetch_add_u64(&self, offset: usize, value: u64) -> Result<u64> {
        self.check_aligned(offset, WORD)?;
        Ok(self.words[offset / WORD].fetch_add(value, Ordering::AcqRel))
    }

    /// Atomic fetch-and-xor on the aligned `u64` at byte `offset`.
    pub fn fetch_xor_u64(&self, offset: usize, value: u64) -> Result<u64> {
        self.check_aligned(offset, WORD)?;
        Ok(self.words[offset / WORD].fetch_xor(value, Ordering::AcqRel))
    }

    /// Atomic compare-and-swap; returns the value observed before the swap.
    pub fn compare_exchange_u64(&self, offset: usize, expected: u64, new: u64) -> Result<u64> {
        self.check_aligned(offset, WORD)?;
        Ok(
            match self.words[offset / WORD].compare_exchange(
                expected,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(prev) => prev,
                Err(prev) => prev,
            },
        )
    }

    /// Atomic read-modify-write with an arbitrary pure update function.
    ///
    /// Returns the previous value. Used to implement `MPI_Accumulate` /
    /// `MPI_Get_accumulate` element updates (e.g. floating-point SUM via a
    /// CAS loop on the bit pattern).
    pub fn fetch_update_u64(
        &self,
        offset: usize,
        mut f: impl FnMut(u64) -> u64,
    ) -> Result<u64> {
        self.check_aligned(offset, WORD)?;
        Ok(self.words[offset / WORD]
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| Some(f(old)))
            .expect("fetch_update closure always returns Some"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::{as_bytes, vec_from_bytes};

    #[test]
    fn put_get_roundtrip_aligned() {
        let seg = Segment::new(64);
        let data = [1.0f64, 2.0, 3.0, 4.0];
        seg.put(0, as_bytes(&data)).unwrap();
        let mut out = [0u8; 32];
        seg.get(0, &mut out).unwrap();
        assert_eq!(vec_from_bytes::<f64>(&out), data);
    }

    #[test]
    fn put_get_unaligned_offsets() {
        let seg = Segment::new(64);
        for off in 0..17 {
            let data: Vec<u8> = (0..23).map(|i| (i + off) as u8).collect();
            seg.put(off, &data).unwrap();
            let mut out = vec![0u8; 23];
            seg.get(off, &mut out).unwrap();
            assert_eq!(out, data, "offset {off}");
        }
    }

    #[test]
    fn partial_writes_do_not_clobber_neighbours() {
        let seg = Segment::new(24);
        seg.put(0, &[0xaa; 24]).unwrap();
        seg.put(3, &[0x55; 2]).unwrap();
        let mut out = [0u8; 24];
        seg.get(0, &mut out).unwrap();
        let mut expect = [0xaa; 24];
        expect[3] = 0x55;
        expect[4] = 0x55;
        assert_eq!(out, expect);
    }

    #[test]
    fn bounds_are_enforced() {
        let seg = Segment::new(16);
        assert!(matches!(
            seg.put(10, &[0u8; 8]),
            Err(FabricError::OutOfBounds { .. })
        ));
        let mut out = [0u8; 4];
        assert!(matches!(
            seg.get(16, &mut out),
            Err(FabricError::OutOfBounds { .. })
        ));
        // Zero-length access at the very end is fine.
        seg.put(16, &[]).unwrap();
    }

    #[test]
    fn atomics_require_alignment() {
        let seg = Segment::new(32);
        assert!(matches!(
            seg.fetch_add_u64(4, 1),
            Err(FabricError::BadAlignment { .. })
        ));
        assert_eq!(seg.fetch_add_u64(8, 5).unwrap(), 0);
        assert_eq!(seg.load_u64(8).unwrap(), 5);
    }

    #[test]
    fn rmw_u64_matches_get_then_put() {
        let seg = Segment::new(29);
        seg.put(0, &(0u8..29).collect::<Vec<_>>()).unwrap();
        // Aligned fast path, unaligned fallback, last whole word.
        for off in [0usize, 8, 3, 13, 16, 21] {
            let mut before = [0u8; 8];
            seg.get(off, &mut before).unwrap();
            seg.rmw_u64(off, |v| v ^ 0xA5A5_5A5A_0F0F_F0F0).unwrap();
            let mut after = [0u8; 8];
            seg.get(off, &mut after).unwrap();
            assert_eq!(
                u64::from_le_bytes(after),
                u64::from_le_bytes(before) ^ 0xA5A5_5A5A_0F0F_F0F0,
                "offset {off}"
            );
        }
        // One bounds rule for both paths: the whole word must be inside
        // the requested length, even where a backing word exists.
        assert!(matches!(
            seg.rmw_u64(24, |v| v),
            Err(FabricError::OutOfBounds { .. })
        ));
        assert!(matches!(
            seg.rmw_u64(22, |v| v),
            Err(FabricError::OutOfBounds { .. })
        ));
        assert!(matches!(
            seg.rmw_u64(usize::MAX - 3, |v| v),
            Err(FabricError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn compare_exchange_reports_previous() {
        let seg = Segment::new(8);
        seg.store_u64(0, 7).unwrap();
        assert_eq!(seg.compare_exchange_u64(0, 7, 9).unwrap(), 7);
        assert_eq!(seg.load_u64(0).unwrap(), 9);
        // Failed CAS returns the observed value and leaves memory unchanged.
        assert_eq!(seg.compare_exchange_u64(0, 7, 11).unwrap(), 9);
        assert_eq!(seg.load_u64(0).unwrap(), 9);
    }

    #[test]
    fn fetch_update_applies_float_sum() {
        let seg = Segment::new(8);
        seg.store_u64(0, 1.5f64.to_bits()).unwrap();
        seg.fetch_update_u64(0, |old| (f64::from_bits(old) + 2.25).to_bits())
            .unwrap();
        assert_eq!(f64::from_bits(seg.load_u64(0).unwrap()), 3.75);
    }

    #[test]
    fn fetch_xor_updates() {
        let seg = Segment::new(8);
        seg.store_u64(0, 0b1100).unwrap();
        assert_eq!(seg.fetch_xor_u64(0, 0b1010).unwrap(), 0b1100);
        assert_eq!(seg.load_u64(0).unwrap(), 0b0110);
    }

    #[test]
    fn concurrent_disjoint_puts_are_exact() {
        use std::sync::Arc;
        let seg = Arc::new(Segment::new(8 * 64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let seg = Arc::clone(&seg);
                std::thread::spawn(move || {
                    let data = vec![t as u8; 64];
                    seg.put(t * 64, &data).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8usize {
            let mut out = vec![0u8; 64];
            seg.get(t * 64, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == t as u8));
        }
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        use std::sync::Arc;
        let seg = Arc::new(Segment::new(8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let seg = Arc::clone(&seg);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        seg.fetch_add_u64(0, 1).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seg.load_u64(0).unwrap(), 4000);
    }

    #[test]
    fn len_reports_requested_bytes() {
        assert_eq!(Segment::new(13).len(), 13);
        assert!(Segment::new(0).is_empty());
        // Access within the requested (non-word-multiple) length works.
        let seg = Segment::new(13);
        seg.put(12, &[9]).unwrap();
        let mut b = [0u8];
        seg.get(12, &mut b).unwrap();
        assert_eq!(b[0], 9);
        assert!(seg.put(13, &[1]).is_err());
    }
}
