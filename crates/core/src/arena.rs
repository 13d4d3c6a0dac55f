//! Segment allocator for the GASNet substrate.
//!
//! GASNet exposes one fixed segment per image; the CAF-GASNet runtime
//! manages coarray storage inside it with its own allocator (the original
//! CAF 2.0 runtime did the same). This is a first-fit free-list allocator
//! with coalescing, 8-byte granularity.

use std::cell::RefCell;

/// First-fit free-list allocator over a fixed byte range.
#[derive(Debug)]
pub struct SegmentArena {
    capacity: usize,
    /// Sorted, non-adjacent `(offset, len)` free runs.
    free: RefCell<Vec<(usize, usize)>>,
}

const ALIGN: usize = 8;

fn round_up(x: usize) -> usize {
    x.div_ceil(ALIGN) * ALIGN
}

impl SegmentArena {
    /// An arena over `[0, capacity)`.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity / ALIGN * ALIGN;
        SegmentArena {
            capacity: cap,
            free: RefCell::new(if cap > 0 { vec![(0, cap)] } else { vec![] }),
        }
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocate `bytes` (rounded up to 8); returns the offset, or `None`
    /// when no run is large enough.
    pub fn alloc(&self, bytes: usize) -> Option<usize> {
        let need = round_up(bytes.max(1));
        let mut free = self.free.borrow_mut();
        for i in 0..free.len() {
            let (off, len) = free[i];
            if len >= need {
                if len == need {
                    free.remove(i);
                } else {
                    free[i] = (off + need, len - need);
                }
                return Some(off);
            }
        }
        None
    }

    /// Return `[offset, offset + bytes)` to the free list, coalescing with
    /// neighbours.
    ///
    /// # Panics
    ///
    /// Panics on frees that overlap an existing free run (double free) or
    /// fall outside the arena.
    pub fn free(&self, offset: usize, bytes: usize) {
        let len = round_up(bytes.max(1));
        assert!(
            offset % ALIGN == 0 && offset + len <= self.capacity,
            "free of [{offset}, {}) outside arena of {}",
            offset + len,
            self.capacity
        );
        let mut free = self.free.borrow_mut();
        let pos = free.partition_point(|&(o, _)| o < offset);
        // Overlap checks against neighbours.
        if pos > 0 {
            let (po, pl) = free[pos - 1];
            assert!(po + pl <= offset, "double free overlapping [{po}, {})", po + pl);
        }
        if pos < free.len() {
            let (no, _) = free[pos];
            assert!(offset + len <= no, "double free overlapping [{no}, ..)");
        }
        free.insert(pos, (offset, len));
        // Coalesce with successor, then predecessor.
        if pos + 1 < free.len() && free[pos].0 + free[pos].1 == free[pos + 1].0 {
            free[pos].1 += free[pos + 1].1;
            free.remove(pos + 1);
        }
        if pos > 0 && free[pos - 1].0 + free[pos - 1].1 == free[pos].0 {
            free[pos - 1].1 += free[pos].1;
            free.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes currently free.
    fn free_bytes(a: &SegmentArena) -> usize {
        a.free.borrow().iter().map(|&(_, l)| l).sum()
    }

    #[test]
    fn alloc_advances_and_frees_coalesce() {
        let a = SegmentArena::new(1024);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        let z = a.alloc(100).unwrap();
        assert_eq!((x, y, z), (0, 104, 208));
        a.free(y, 100);
        a.free(x, 100);
        a.free(z, 100);
        // Everything coalesced back into one run.
        assert_eq!(free_bytes(&a), 1024);
        assert_eq!(a.alloc(1024), Some(0));
    }

    #[test]
    fn first_fit_reuses_holes() {
        let a = SegmentArena::new(256);
        let x = a.alloc(64).unwrap();
        let _y = a.alloc(64).unwrap();
        a.free(x, 64);
        // The hole at 0 is reused for a fitting request.
        assert_eq!(a.alloc(32), Some(0));
    }

    #[test]
    fn exhaustion_returns_none() {
        let a = SegmentArena::new(64);
        assert!(a.alloc(64).is_some());
        assert!(a.alloc(8).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let a = SegmentArena::new(64);
        let x = a.alloc(16).unwrap();
        a.free(x, 16);
        a.free(x, 16);
    }

    #[test]
    fn zero_sized_allocs_get_distinct_slots() {
        let a = SegmentArena::new(64);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn capacity_rounds_down_to_words() {
        let a = SegmentArena::new(29);
        assert_eq!(a.capacity(), 24);
    }

    #[test]
    fn interleaved_alloc_free_stress() {
        let a = SegmentArena::new(4096);
        let mut live: Vec<(usize, usize)> = Vec::new();
        // Deterministic pseudo-random workload.
        let mut state = 12345u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..500 {
            if live.len() < 8 && rng() % 2 == 0 {
                let sz = rng() % 256 + 1;
                if let Some(off) = a.alloc(sz) {
                    // No overlap with any live allocation.
                    for &(lo, ll) in &live {
                        let end = off + super::round_up(sz);
                        assert!(end <= lo || lo + super::round_up(ll) <= off);
                    }
                    live.push((off, sz));
                }
            } else if let Some(i) = live.pop() {
                a.free(i.0, i.1);
            }
        }
        for (off, sz) in live.drain(..) {
            a.free(off, sz);
        }
        assert_eq!(free_bytes(&a), 4096);
    }
}
