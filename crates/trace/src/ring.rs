//! Fixed-capacity single-writer ring buffer of trace records.
//!
//! Each record is seven `AtomicU64` words, so the owning image thread can
//! record with plain atomic stores (no locks, no allocation) while the
//! merge pass — which runs after the traced job's threads are joined —
//! reads the same words back. On overflow the oldest records are
//! overwritten; the push counter keeps the survivors' order exact.
//!
//! The slots are allocated a block at a time, on the first push that
//! reaches the block: a ring costs the records it holds, and its
//! capacity is only the bound at which it starts to wrap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::op::{EventKind, Op};

pub(crate) const WORDS: usize = 7;

/// Sentinel for "no target image" / "no window id".
pub(crate) const NONE_SENTINEL: u64 = u64::MAX;

/// One decoded trace record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Record {
    pub op: Op,
    pub kind: EventKind,
    /// True when the op maps to a decomposition category and no
    /// enclosing span did — i.e. this record is the one the Fig 4/8
    /// roll-up should count.
    pub top_cat: bool,
    pub depth: u8,
    pub t0_ns: u64,
    pub dur_ns: u64,
    /// An instant's argument word (the slot a span keeps its duration in).
    pub arg: u64,
    pub target: Option<usize>,
    pub bytes: u64,
    pub window: Option<u64>,
    /// Byte displacement within the window/region, or a sync token
    /// (event id, team id) for ops that carry one.
    pub disp: Option<u64>,
}

type Slot = [AtomicU64; WORDS];

/// Slots per block (28 KiB).
const BLOCK: usize = 512;

pub(crate) struct Ring {
    /// `capacity` slots in blocks of [`BLOCK`] (the last one may be
    /// shorter), each allocated when first written.
    blocks: Box<[OnceLock<Box<[Slot]>>]>,
    capacity: u64,
    /// Total pushes ever; `head % capacity` is the next write index.
    head: AtomicU64,
}

const KIND_SPAN: u64 = 1 << 24;
const TOP_CAT: u64 = 1 << 25;

impl Ring {
    pub fn new(capacity: usize) -> Ring {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            blocks: (0..capacity.div_ceil(BLOCK)).map(|_| OnceLock::new()).collect(),
            capacity: capacity as u64,
            head: AtomicU64::new(0),
        }
    }

    /// The slot push number `i` writes, its block allocated on demand.
    #[inline]
    fn slot(&self, i: u64) -> &Slot {
        let i = (i % self.capacity) as usize;
        let block = match self.blocks[i / BLOCK].get() {
            Some(block) => block,
            None => self.allocate(i / BLOCK),
        };
        &block[i % BLOCK]
    }

    #[cold]
    #[inline(never)]
    fn allocate(&self, b: usize) -> &[Slot] {
        let len = BLOCK.min(self.capacity as usize - b * BLOCK);
        self.blocks[b].get_or_init(|| (0..len).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect())
    }

    /// Total records ever pushed (including overwritten ones).
    #[cfg(test)]
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record one event. Single-writer: only the owning thread calls this.
    /// `dur_or_arg` is a span's duration or an instant's argument word.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        op: Op,
        kind: EventKind,
        top_cat: bool,
        depth: u8,
        t0_ns: u64,
        dur_or_arg: u64,
        target: Option<usize>,
        bytes: u64,
        window: Option<u64>,
        disp: Option<u64>,
    ) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = self.slot(head);
        let mut w0 = op as u64 | (u64::from(depth) << 16);
        if matches!(kind, EventKind::Span) {
            w0 |= KIND_SPAN;
        }
        if top_cat {
            w0 |= TOP_CAT;
        }
        slot[0].store(w0, Ordering::Relaxed);
        slot[1].store(t0_ns, Ordering::Relaxed);
        slot[2].store(dur_or_arg, Ordering::Relaxed);
        slot[3].store(target.map_or(NONE_SENTINEL, |t| t as u64), Ordering::Relaxed);
        slot[4].store(bytes, Ordering::Relaxed);
        slot[5].store(window.unwrap_or(NONE_SENTINEL), Ordering::Relaxed);
        slot[6].store(disp.unwrap_or(NONE_SENTINEL), Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Read back the surviving records, oldest first. Records that were
    /// overwritten by wraparound are gone; `dropped()` says how many.
    pub fn drain(&self) -> Vec<Record> {
        let head = self.head.load(Ordering::Acquire);
        let live = head.min(self.capacity);
        let mut out = Vec::with_capacity(live as usize);
        for i in (head - live)..head {
            let slot = self.slot(i);
            let w0 = slot[0].load(Ordering::Relaxed);
            let Some(op) = Op::from_u16((w0 & 0xffff) as u16) else {
                continue;
            };
            let target = match slot[3].load(Ordering::Relaxed) {
                NONE_SENTINEL => None,
                t => Some(t as usize),
            };
            let window = match slot[5].load(Ordering::Relaxed) {
                NONE_SENTINEL => None,
                w => Some(w),
            };
            let disp = match slot[6].load(Ordering::Relaxed) {
                NONE_SENTINEL => None,
                d => Some(d),
            };
            let span = w0 & KIND_SPAN != 0;
            let w2 = slot[2].load(Ordering::Relaxed);
            out.push(Record {
                op,
                kind: if span { EventKind::Span } else { EventKind::Instant },
                top_cat: w0 & TOP_CAT != 0,
                depth: ((w0 >> 16) & 0xff) as u8,
                t0_ns: slot[1].load(Ordering::Relaxed),
                dur_ns: if span { w2 } else { 0 },
                arg: if span { 0 } else { w2 },
                target,
                bytes: slot[4].load(Ordering::Relaxed),
                window,
                disp,
            });
        }
        out
    }

    /// Records lost to wraparound.
    pub fn dropped(&self) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        head.saturating_sub(self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(ring: &Ring, n: u64) {
        for i in 0..n {
            ring.push(
                Op::RmaPut,
                EventKind::Instant,
                false,
                0,
                i,
                0,
                Some(1),
                8,
                Some(3),
                None,
            );
        }
    }

    #[test]
    fn records_roundtrip() {
        let ring = Ring::new(8);
        ring.push(
            Op::EventNotify,
            EventKind::Span,
            true,
            2,
            100,
            50,
            Some(4),
            64,
            None,
            Some(12),
        );
        let recs = ring.drain();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.op, Op::EventNotify);
        assert_eq!(r.kind, EventKind::Span);
        assert!(r.top_cat);
        assert_eq!(r.depth, 2);
        assert_eq!((r.t0_ns, r.dur_ns), (100, 50));
        assert_eq!(r.target, Some(4));
        assert_eq!(r.bytes, 64);
        assert_eq!(r.window, None);
        assert_eq!(r.disp, Some(12));
    }

    #[test]
    fn an_instant_keeps_its_argument_word_and_no_duration() {
        let ring = Ring::new(2);
        ring.push(Op::RmaPut, EventKind::Instant, false, 0, 5, 0xbeef, Some(1), 8, Some(3), Some(0));
        let r = &ring.drain()[0];
        assert_eq!((r.dur_ns, r.arg), (0, 0xbeef));
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let ring = Ring::new(4);
        push_n(&ring, 11);
        assert_eq!(ring.pushed(), 11);
        assert_eq!(ring.dropped(), 7);
        let recs = ring.drain();
        assert_eq!(recs.len(), 4);
        // The four newest, oldest-first.
        let t0s: Vec<u64> = recs.iter().map(|r| r.t0_ns).collect();
        assert_eq!(t0s, vec![7, 8, 9, 10]);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let ring = Ring::new(16);
        push_n(&ring, 5);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.drain().len(), 5);
    }

    #[test]
    fn blocks_are_allocated_as_pushes_reach_them() {
        let ring = Ring::new(1 << 16);
        let allocated = |r: &Ring| r.blocks.iter().filter(|b| b.get().is_some()).count();
        assert_eq!(allocated(&ring), 0);
        push_n(&ring, BLOCK as u64 + 1);
        assert_eq!(allocated(&ring), 2);

        // A capacity that is not a multiple of the block wraps through a
        // short last block.
        let ring = Ring::new(BLOCK + 3);
        push_n(&ring, 3 * BLOCK as u64);
        assert_eq!(ring.dropped(), 2 * BLOCK as u64 - 3);
        let t0s: Vec<u64> = ring.drain().iter().map(|r| r.t0_ns).collect();
        assert_eq!(t0s, (2 * BLOCK as u64 - 3..3 * BLOCK as u64).collect::<Vec<_>>());
    }
}
