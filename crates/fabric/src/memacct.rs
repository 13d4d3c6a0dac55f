//! Per-runtime mapped-memory accounting.
//!
//! The paper's Figure 1 measures the per-process mapped memory of a program
//! that initializes GASNet only, MPI only, or both runtimes. Each substrate
//! in this workspace reports every buffer a library of its kind maps (eager
//! buffers, segment metadata, matching structures, window tables, ...) to a
//! [`MemAccount`], so the same experiment can be rerun over the simulated
//! runtimes. The ledger is the whole of it: only user data (windows,
//! segments) is backed by memory.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The runtime layer a mapping belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemCategory {
    /// User-visible data (coarrays, window contents). Excluded from the
    /// Figure-1 style "runtime overhead" totals.
    UserData,
    /// Eager / bounce buffers for two-sided messaging.
    EagerBuffers,
    /// Message-matching metadata (posted/unexpected queues, per-peer state).
    Matching,
    /// Segment or window bookkeeping (translation tables, epoch state).
    SegmentMeta,
    /// Collective scratch space.
    CollectiveScratch,
    /// Connection state that scales with the number of peers.
    PerPeerState,
}

const N_CATS: usize = 6;

fn idx(c: MemCategory) -> usize {
    match c {
        MemCategory::UserData => 0,
        MemCategory::EagerBuffers => 1,
        MemCategory::Matching => 2,
        MemCategory::SegmentMeta => 3,
        MemCategory::CollectiveScratch => 4,
        MemCategory::PerPeerState => 5,
    }
}

/// Thread-safe ledger of bytes mapped by one runtime instance.
#[derive(Debug, Default)]
pub struct MemAccount {
    cats: [AtomicUsize; N_CATS],
}

impl MemAccount {
    /// New, empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` newly mapped under `cat`.
    pub fn map(&self, cat: MemCategory, bytes: usize) {
        self.cats[idx(cat)].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `bytes` unmapped from `cat`.
    pub fn unmap(&self, cat: MemCategory, bytes: usize) {
        let prev = self.cats[idx(cat)].fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "unmap of more bytes than mapped");
    }

    /// Bytes currently mapped under `cat`.
    pub fn mapped(&self, cat: MemCategory) -> usize {
        self.cats[idx(cat)].load(Ordering::Relaxed)
    }

    /// Total runtime-overhead bytes: everything except user data.
    pub fn runtime_overhead(&self) -> usize {
        self.total() - self.mapped(MemCategory::UserData)
    }

    /// Total mapped bytes including user data.
    pub fn total(&self) -> usize {
        self.cats.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_balance() {
        let a = MemAccount::new();
        a.map(MemCategory::EagerBuffers, 1024);
        a.map(MemCategory::EagerBuffers, 512);
        a.unmap(MemCategory::EagerBuffers, 1024);
        assert_eq!(a.mapped(MemCategory::EagerBuffers), 512);
    }

    #[test]
    fn overhead_excludes_user_data() {
        let a = MemAccount::new();
        a.map(MemCategory::UserData, 1 << 20);
        a.map(MemCategory::Matching, 100);
        a.map(MemCategory::PerPeerState, 200);
        assert_eq!(a.runtime_overhead(), 300);
        assert_eq!(a.total(), (1 << 20) + 300);
    }

    #[test]
    fn categories_are_independent() {
        let a = MemAccount::new();
        for (i, c) in [
            MemCategory::UserData,
            MemCategory::EagerBuffers,
            MemCategory::Matching,
            MemCategory::SegmentMeta,
            MemCategory::CollectiveScratch,
            MemCategory::PerPeerState,
        ]
        .into_iter()
        .enumerate()
        {
            a.map(c, i + 1);
        }
        assert_eq!(a.mapped(MemCategory::SegmentMeta), 4);
        assert_eq!(a.total(), 1 + 2 + 3 + 4 + 5 + 6);
    }
}
