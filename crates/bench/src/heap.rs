//! A counting global allocator, for the binaries that ask how much heap
//! the runtime takes: the allocation tests (`tests/agg_alloc.rs`,
//! `tests/alltoall_alloc.rs`, `tests/fft_alloc.rs`, `tests/rtmsg_alloc.rs`,
//! `tests/launch_footprint.rs`) and `figures real`. Each installs it with
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: caf_bench::heap::Counting = caf_bench::heap::Counting;
//! ```
//!
//! Counters are per thread — an image is a thread — and read zero in a
//! binary that did not install it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the reallocations: a buffer grown (or shrunk) in place
    /// of one sized right the first time.
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation counts what it
    /// grew by): what a copy into a new buffer costs, whenever it is
    /// freed.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed. A block freed by
    /// another thread than its allocator (a packet payload, say) stays on
    /// the allocator's books and goes negative on the other's.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(allocs: u64, bytes: i64) {
    ALLOCS.with(|c| c.set(c.get() + allocs));
    LIVE.with(|c| c.set(c.get() + bytes));
    if allocs > 0 {
        ALLOCATED.with(|c| c.set(c.get() + bytes.max(0) as u64));
    }
}

/// `System`, counted.
pub struct Counting;

// SAFETY: every operation is `System`'s, unchanged; the only addition is
// a bump of const-initialized, destructor-free thread-local counters,
// which neither allocate nor are visible to the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc`'s contract, passed through to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller vouches for `layout`.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: as for `alloc`. Not left to the default (`alloc` + memset):
    // `System`'s zeroed pages stay untouched, so installing the counter
    // does not change what is resident.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller vouches for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: as for `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: as for `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        REALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Reallocations this thread has made so far (counted in [`allocs`] too).
pub fn reallocs() -> u64 {
    REALLOCS.with(Cell::get)
}

/// Bytes this thread has allocated so far, freed or not.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// Heap bytes this thread holds: allocated minus freed, by this thread.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}
