//! Per-image trace collector: a ring buffer of completed events plus a
//! small table of currently-open spans that the stall watchdog can
//! sample from another thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::op::{EventKind, Op};
use crate::ring::{Record, Ring, NONE_SENTINEL};

/// Open spans tracked per collector; deeper nesting still times
/// correctly but is invisible to the watchdog.
pub(crate) const MAX_OPEN: usize = 32;

/// Globally unique (nonzero) ids for open spans, so the watchdog can
/// report each stalled span exactly once.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// One currently-open span, readable concurrently by the watchdog.
/// `seq` is nonzero while the span is open; readers must re-check it
/// after loading the payload words (torn reads are discarded).
#[derive(Debug)]
pub(crate) struct OpenSlot {
    pub seq: AtomicU64,
    pub op: AtomicU64,
    pub t0: AtomicU64,
    pub target: AtomicU64,
    pub window: AtomicU64,
}

impl OpenSlot {
    fn empty() -> OpenSlot {
        OpenSlot {
            seq: AtomicU64::new(0),
            op: AtomicU64::new(0),
            t0: AtomicU64::new(0),
            target: AtomicU64::new(NONE_SENTINEL),
            window: AtomicU64::new(NONE_SENTINEL),
        }
    }
}

/// Trace state owned by one runtime thread (one image, usually).
pub(crate) struct Collector {
    /// Image index, `NONE_SENTINEL` until [`crate::set_image`] runs.
    pub image: AtomicU64,
    /// Completed events.
    pub ring: Ring,
    /// Raw span nesting depth (written only by the owning thread).
    depth: AtomicU64,
    /// Nesting depth counting only category-mapped spans; a span is the
    /// decomposition's "top" span when this is zero at open.
    cat_depth: AtomicU64,
    /// Open-span stack indexed by raw depth.
    pub open: [OpenSlot; MAX_OPEN],
}

impl Collector {
    pub fn new(ring_capacity: usize) -> Collector {
        Collector {
            image: AtomicU64::new(NONE_SENTINEL),
            ring: Ring::new(ring_capacity),
            depth: AtomicU64::new(0),
            cat_depth: AtomicU64::new(0),
            open: std::array::from_fn(|_| OpenSlot::empty()),
        }
    }

    pub fn image_index(&self) -> Option<usize> {
        match self.image.load(Ordering::Relaxed) {
            NONE_SENTINEL => None,
            v => Some(v as usize),
        }
    }

    /// Record a point event at the current depth.
    pub fn record_instant(
        &self,
        op: Op,
        target: Option<usize>,
        bytes: u64,
        window: Option<u64>,
        disp: Option<u64>,
        arg: u64,
    ) {
        let depth = self.depth.load(Ordering::Relaxed).min(255) as u8;
        let top_cat = op.cat().is_some() && self.cat_depth.load(Ordering::Relaxed) == 0;
        self.ring.push(
            op,
            EventKind::Instant,
            top_cat,
            depth,
            crate::now_ns(),
            arg,
            target,
            bytes,
            window,
            disp,
        );
    }

    /// Open a span; the returned guard records it on drop.
    pub fn open_span(
        self: &Arc<Self>,
        op: Op,
        target: Option<usize>,
        bytes: u64,
        window: Option<u64>,
        disp: Option<u64>,
    ) -> SpanGuard {
        let depth = self.depth.load(Ordering::Relaxed);
        let cat_depth = self.cat_depth.load(Ordering::Relaxed);
        let top_cat = op.cat().is_some() && cat_depth == 0;
        let t0 = crate::now_ns();
        let open_idx = (depth as usize) < MAX_OPEN;
        if open_idx {
            let slot = &self.open[depth as usize];
            slot.op.store(op as u64, Ordering::Relaxed);
            slot.t0.store(t0, Ordering::Relaxed);
            slot.target
                .store(target.map_or(NONE_SENTINEL, |t| t as u64), Ordering::Relaxed);
            slot.window.store(window.unwrap_or(NONE_SENTINEL), Ordering::Relaxed);
            // Publish last: a nonzero seq tells the watchdog the payload
            // words above are meaningful.
            slot.seq
                .store(NEXT_SEQ.fetch_add(1, Ordering::Relaxed), Ordering::Release);
        }
        self.depth.store(depth + 1, Ordering::Relaxed);
        if op.cat().is_some() {
            self.cat_depth.store(cat_depth + 1, Ordering::Relaxed);
        }
        SpanGuard {
            inner: Some(SpanInner {
                col: Arc::clone(self),
                op,
                t0,
                depth: depth.min(255) as u8,
                top_cat,
                tracked: open_idx,
                target,
                bytes,
                window,
                disp,
            }),
        }
    }

    pub(crate) fn records(&self) -> Vec<Record> {
        self.ring.drain()
    }
}

struct SpanInner {
    col: Arc<Collector>,
    op: Op,
    t0: u64,
    depth: u8,
    top_cat: bool,
    tracked: bool,
    target: Option<usize>,
    bytes: u64,
    window: Option<u64>,
    disp: Option<u64>,
}

/// RAII guard for an open span; completes (and records) it on drop.
/// Inert when tracing is disabled, costing only its `Option` check.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// The inert guard handed out when tracing is off.
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// Attach or update the payload byte count after opening.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(inner) = &mut self.inner {
            inner.bytes = bytes;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur = crate::now_ns().saturating_sub(inner.t0);
        let col = &inner.col;
        let depth = col.depth.load(Ordering::Relaxed);
        debug_assert_eq!(depth, u64::from(inner.depth) + 1, "span drop out of order");
        col.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        if inner.op.cat().is_some() {
            let cd = col.cat_depth.load(Ordering::Relaxed);
            col.cat_depth.store(cd.saturating_sub(1), Ordering::Relaxed);
        }
        if inner.tracked {
            col.open[inner.depth as usize].seq.store(0, Ordering::Release);
        }
        col.ring.push(
            inner.op,
            EventKind::Span,
            inner.top_cat,
            inner.depth,
            inner.t0,
            dur,
            inner.target,
            inner.bytes,
            inner.window,
            inner.disp,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_track_depth_and_top_cat() {
        let col = Arc::new(Collector::new(64));
        {
            let _outer = col.open_span(Op::CoarrayWrite, Some(1), 8, None, Some(64));
            {
                let _mid = col.open_span(Op::WinFlushAll, None, 0, Some(2), None);
                let _inner = col.open_span(Op::EventNotify, Some(1), 0, None, None);
            }
            col.record_instant(Op::RmaPut, Some(1), 8, Some(2), Some(16), 0);
        }
        let recs = col.records();
        // Drop order: inner EventNotify, WinFlushAll, RmaPut instant, outer.
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].op, Op::EventNotify);
        assert_eq!(recs[0].depth, 2);
        assert!(!recs[0].top_cat, "nested under CoarrayWrite");
        assert_eq!(recs[1].op, Op::WinFlushAll);
        assert!(!recs[1].top_cat, "never a category op");
        assert_eq!(recs[2].op, Op::RmaPut);
        assert_eq!(recs[2].depth, 1);
        assert_eq!(recs[2].disp, Some(16));
        assert_eq!(recs[3].op, Op::CoarrayWrite);
        assert_eq!(recs[3].depth, 0);
        assert_eq!(recs[3].disp, Some(64));
        assert!(recs[3].top_cat);
        assert_eq!(col.depth.load(Ordering::Relaxed), 0);
        assert_eq!(col.cat_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn open_slot_visible_while_span_is_open() {
        let col = Arc::new(Collector::new(64));
        let guard = col.open_span(Op::AmPutAckWait, Some(3), 16, None, None);
        let slot = &col.open[0];
        assert_ne!(slot.seq.load(Ordering::Acquire), 0);
        assert_eq!(slot.op.load(Ordering::Relaxed), Op::AmPutAckWait as u64);
        assert_eq!(slot.target.load(Ordering::Relaxed), 3);
        drop(guard);
        assert_eq!(slot.seq.load(Ordering::Acquire), 0);
    }
}
