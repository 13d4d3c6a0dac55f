//! Aggregation of a merged trace into the paper's Fig 4/8 time
//! decomposition: per-image seconds attributed to the ten runtime
//! primitive categories.

use crate::op::{EventKind, Op};
use crate::session::Trace;

/// Number of decomposition categories.
pub const NCAT: usize = 10;

/// Decomposition category: the legend of the paper's Figs 4 and 8, and
/// the ledger categories of the runtime's `Stats` (`caf::StatCat` is this
/// enum). Each category *is* one of the first ten [`Op`]s — the
/// discriminants are shared, so [`Cat::op`], [`Op::cat`] and
/// [`Cat::index`] are casts, not tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Cat {
    /// Application compute, bracketed by the application itself.
    Computation = Op::Computation as u16,
    /// Blocking remote coarray writes.
    CoarrayWrite = Op::CoarrayWrite as u16,
    /// Blocking remote coarray reads.
    CoarrayRead = Op::CoarrayRead as u16,
    /// `event_wait` / `event_trywait` polling.
    EventWait = Op::EventWait as u16,
    /// `event_notify`, including its release barrier and flush.
    EventNotify = Op::EventNotify as u16,
    /// Team alltoall (the FFT hot spot).
    Alltoall = Op::Alltoall as u16,
    /// Team barriers.
    Barrier = Op::Barrier as u16,
    /// Team reductions / broadcasts.
    Reduction = Op::Reduction as u16,
    /// `finish` termination detection and closing synchronization.
    Finish = Op::Finish as u16,
    /// Asynchronous-copy issue path.
    CopyAsync = Op::CopyAsync as u16,
}

impl Cat {
    /// All categories in display (and discriminant) order.
    pub const ALL: [Cat; NCAT] = [
        Cat::Computation,
        Cat::CoarrayWrite,
        Cat::CoarrayRead,
        Cat::EventWait,
        Cat::EventNotify,
        Cat::Alltoall,
        Cat::Barrier,
        Cat::Reduction,
        Cat::Finish,
        Cat::CopyAsync,
    ];

    /// Position in [`Cat::ALL`].
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The trace operation this category's sections are recorded under.
    #[inline]
    pub const fn op(self) -> Op {
        match Op::from_u16(self as u16) {
            Some(op) => op,
            None => unreachable!(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        self.op().name()
    }
}

/// Per-image, per-category seconds and call counts computed from a
/// trace — the same numbers `caf::stats` accumulates eagerly, making
/// `stats` a thin view over trace data.
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    /// Images present, sorted.
    pub images: Vec<usize>,
    /// `seconds[i][cat.index()]` for `images[i]`.
    pub seconds: Vec<[f64; NCAT]>,
    /// `calls[i][cat.index()]` for `images[i]`.
    pub calls: Vec<[u64; NCAT]>,
    /// Per-image seconds spent inside flush operations (`WinFlushAll`
    /// spans and `WinRflushWait` remainders). Flushes run *within* the
    /// ten categories — mostly EventNotify and Finish — so this column is
    /// a drill-down, not an eleventh share-bearing category.
    pub flush_seconds: Vec<f64>,
    /// Per-image count of per-target flush handshakes: one per `WinFlush`
    /// or `WinRflush`, and one per rank visited by a `WinFlushAll` (whose
    /// span carries the per-target count in its `bytes` field). This is
    /// the Θ(P)-vs-targeted signature in trace form.
    pub flush_calls: Vec<u64>,
    /// Per-image count of records parked in aggregation buckets
    /// (`AggEnqueue` instants). Like the flush column this is a
    /// drill-down: enqueues happen *inside* CoarrayWrite/CopyAsync.
    pub agg_records: Vec<u64>,
    /// Per-image count of drained buckets (`AggDrain` instants) — each
    /// one batched AM on the wire.
    pub agg_batches: Vec<u64>,
    /// Per-image encoded bytes across drained buckets (the `bytes`
    /// field of `AggDrain`); `agg_batch_bytes / agg_batches` is the
    /// bytes-per-packet figure of merit.
    pub agg_batch_bytes: Vec<u64>,
    /// Per-image count of records re-bucketed at an intermediate hop
    /// (`AggForward` instants) — nonzero only with routing on.
    pub agg_forwards: Vec<u64>,
}

impl Decomposition {
    /// Mean seconds per image in `cat`.
    pub fn mean_seconds(&self, cat: Cat) -> f64 {
        if self.images.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.seconds.iter().map(|row| row[cat.index()]).sum();
        sum / self.images.len() as f64
    }

    /// Total calls across images in `cat`.
    pub fn total_calls(&self, cat: Cat) -> u64 {
        self.calls.iter().map(|row| row[cat.index()]).sum()
    }

    /// Median per-image seconds in `cat` (0.0 with no images). At
    /// microsecond scale a single preempted image can swamp the mean, so
    /// cross-substrate comparisons should use medians.
    pub fn median_seconds(&self, cat: Cat) -> f64 {
        if self.images.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = self.seconds.iter().map(|row| row[cat.index()]).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    /// `cat`'s share of the summed per-category median time (0.0 when
    /// the trace attributed no time at all).
    pub fn median_share(&self, cat: Cat) -> f64 {
        let total: f64 = Cat::ALL.iter().map(|&c| self.median_seconds(c)).sum();
        if total <= 0.0 {
            0.0
        } else {
            self.median_seconds(cat) / total
        }
    }

    /// `cat`'s share of the summed per-category mean time (0.0 when the
    /// trace attributed no time at all).
    pub fn share(&self, cat: Cat) -> f64 {
        let total: f64 = Cat::ALL.iter().map(|&c| self.mean_seconds(c)).sum();
        if total <= 0.0 {
            0.0
        } else {
            self.mean_seconds(cat) / total
        }
    }

    /// Mean per-image flush seconds.
    pub fn mean_flush_seconds(&self) -> f64 {
        if self.images.is_empty() {
            return 0.0;
        }
        self.flush_seconds.iter().sum::<f64>() / self.images.len() as f64
    }

    /// Total per-target flush handshakes across images.
    pub fn total_flush_calls(&self) -> u64 {
        self.flush_calls.iter().sum()
    }

    /// Total records enqueued into aggregation buckets across images.
    pub fn total_agg_records(&self) -> u64 {
        self.agg_records.iter().sum()
    }

    /// Total drained buckets (batched AMs) across images.
    pub fn total_agg_batches(&self) -> u64 {
        self.agg_batches.iter().sum()
    }

    /// Total records forwarded at intermediate hops across images.
    pub fn total_agg_forwards(&self) -> u64 {
        self.agg_forwards.iter().sum()
    }

    /// Mean encoded bytes per batched AM (0.0 when nothing drained) —
    /// the coalescing figure of merit against a small-put wire size.
    pub fn agg_bytes_per_batch(&self) -> f64 {
        let batches = self.total_agg_batches();
        if batches == 0 {
            return 0.0;
        }
        self.agg_batch_bytes.iter().sum::<u64>() as f64 / batches as f64
    }

    /// Plain-text table: one row per category with mean seconds, share,
    /// and call counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>14} {:>12} {:>8} {:>12} {:>8} {:>10}",
            "category", "mean (s)", "share", "median (s)", "share", "calls"
        );
        for &cat in &Cat::ALL {
            let _ = writeln!(
                out,
                "{:>14} {:>12.6} {:>7.1}% {:>12.6} {:>7.1}% {:>10}",
                cat.name(),
                self.mean_seconds(cat),
                self.share(cat) * 100.0,
                self.median_seconds(cat),
                self.median_share(cat) * 100.0,
                self.total_calls(cat)
            );
        }
        let _ = writeln!(
            out,
            "{:>14} {:>12.6} {:>8} {:>12} {:>8} {:>10}  (within categories)",
            "flush",
            self.mean_flush_seconds(),
            "-",
            "-",
            "-",
            self.total_flush_calls()
        );
        if self.total_agg_records() + self.total_agg_batches() > 0 {
            let _ = writeln!(
                out,
                "{:>14} {:>12} {:>8} {:>12.1} {:>8} {:>10}  (records/batches, B/batch, fwds)",
                "agg",
                format!(
                    "{}/{}",
                    self.total_agg_records(),
                    self.total_agg_batches()
                ),
                "-",
                self.agg_bytes_per_batch(),
                "-",
                self.total_agg_forwards()
            );
        }
        out
    }
}

impl Trace {
    /// Roll the trace up into the Fig 4/8 decomposition. Only top-level
    /// category spans count (a category span nested inside another
    /// category span is attributed to the outer one), mirroring the
    /// double-count guard of `caf::stats`.
    pub fn decomposition(&self) -> Decomposition {
        let mut images: Vec<usize> = self
            .events
            .iter()
            .filter(|e| e.image != usize::MAX)
            .map(|e| e.image)
            .collect();
        images.sort_unstable();
        images.dedup();
        let mut seconds = vec![[0.0f64; NCAT]; images.len()];
        let mut calls = vec![[0u64; NCAT]; images.len()];
        let mut flush_seconds = vec![0.0f64; images.len()];
        let mut flush_calls = vec![0u64; images.len()];
        let mut agg_records = vec![0u64; images.len()];
        let mut agg_batches = vec![0u64; images.len()];
        let mut agg_batch_bytes = vec![0u64; images.len()];
        let mut agg_forwards = vec![0u64; images.len()];
        for e in &self.events {
            let Ok(i) = images.binary_search(&e.image) else {
                continue;
            };
            match e.op {
                Op::WinFlush | Op::WinRflush => flush_calls[i] += 1,
                Op::AggEnqueue => agg_records[i] += 1,
                Op::AggDrain => {
                    agg_batches[i] += 1;
                    agg_batch_bytes[i] += e.bytes;
                }
                Op::AggForward => agg_forwards[i] += 1,
                Op::WinFlushAll if e.kind == EventKind::Span => {
                    // The span's `bytes` field carries the per-target
                    // flush count (see `Mpi::win_flush_all`).
                    flush_calls[i] += e.bytes;
                    flush_seconds[i] += e.dur_ns as f64 / 1e9;
                }
                Op::WinRflushWait if e.kind == EventKind::Span => {
                    flush_seconds[i] += e.dur_ns as f64 / 1e9;
                }
                _ => {}
            }
            if !e.top_cat || e.kind != EventKind::Span {
                continue;
            }
            let Some(cat) = e.op.cat() else { continue };
            seconds[i][cat.index()] += e.dur_ns as f64 / 1e9;
            calls[i][cat.index()] += 1;
        }
        Decomposition {
            images,
            seconds,
            calls,
            flush_seconds,
            flush_calls,
            agg_records,
            agg_batches,
            agg_batch_bytes,
            agg_forwards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::session::TraceEvent;

    fn ev(image: usize, op: Op, kind: EventKind, dur_ns: u64, top_cat: bool) -> TraceEvent {
        TraceEvent {
            image,
            op,
            kind,
            t0_ns: 0,
            dur_ns,
            arg: 0,
            target: None,
            bytes: 0,
            window: None,
            depth: 0,
            top_cat,
            disp: None,
        }
    }

    #[test]
    fn rollup_counts_only_top_level_category_spans() {
        let trace = Trace {
            events: vec![
                ev(0, Op::EventNotify, EventKind::Span, 2_000_000_000, true),
                // Nested category span: excluded.
                ev(0, Op::Barrier, EventKind::Span, 500_000_000, false),
                // Substrate op: never a category.
                ev(0, Op::WinFlushAll, EventKind::Span, 1_000_000_000, false),
                // Instant events never carry duration.
                ev(0, Op::RmaPut, EventKind::Instant, 0, false),
                ev(1, Op::EventNotify, EventKind::Span, 1_000_000_000, true),
                ev(1, Op::Computation, EventKind::Span, 3_000_000_000, true),
            ],
            stalls: vec![],
            dropped_events: 0,
        };
        let d = trace.decomposition();
        assert_eq!(d.images, vec![0, 1]);
        assert!((d.seconds[0][Cat::EventNotify.index()] - 2.0).abs() < 1e-9);
        assert_eq!(d.seconds[0][Cat::Barrier.index()], 0.0);
        assert!((d.mean_seconds(Cat::EventNotify) - 1.5).abs() < 1e-9);
        assert!((d.median_seconds(Cat::EventNotify) - 2.0).abs() < 1e-9);
        assert_eq!(d.total_calls(Cat::EventNotify), 2);
        let mshare_sum: f64 = Cat::ALL.iter().map(|&c| d.median_share(c)).sum();
        assert!((mshare_sum - 1.0).abs() < 1e-9);
        let share_sum: f64 = Cat::ALL.iter().map(|&c| d.share(c)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        let table = d.render();
        assert!(table.contains("EventNotify"));
    }

    #[test]
    fn flush_column_aggregates_all_flush_flavours() {
        let mut flush_all = ev(0, Op::WinFlushAll, EventKind::Span, 1_500_000_000, false);
        flush_all.bytes = 4; // four per-target handshakes inside one flush_all
        let trace = Trace {
            events: vec![
                ev(0, Op::EventNotify, EventKind::Span, 2_000_000_000, true),
                flush_all,
                ev(0, Op::WinFlush, EventKind::Instant, 0, false),
                ev(1, Op::WinRflush, EventKind::Instant, 0, false),
                ev(1, Op::WinRflushWait, EventKind::Span, 500_000_000, false),
            ],
            stalls: vec![],
            dropped_events: 0,
        };
        let d = trace.decomposition();
        assert_eq!(d.flush_calls, vec![5, 1]);
        assert!((d.flush_seconds[0] - 1.5).abs() < 1e-9);
        assert!((d.flush_seconds[1] - 0.5).abs() < 1e-9);
        assert!((d.mean_flush_seconds() - 1.0).abs() < 1e-9);
        assert_eq!(d.total_flush_calls(), 6);
        // The flush column is a drill-down: category shares are unchanged.
        assert!((d.share(Cat::EventNotify) - 1.0).abs() < 1e-9);
        assert!(d.render().contains("flush"));
    }

    #[test]
    fn agg_column_counts_records_batches_and_forwards() {
        let mut drain = ev(0, Op::AggDrain, EventKind::Instant, 0, false);
        drain.bytes = 400;
        let trace = Trace {
            events: vec![
                ev(0, Op::CopyAsync, EventKind::Span, 1_000_000_000, true),
                ev(0, Op::AggEnqueue, EventKind::Instant, 0, false),
                ev(0, Op::AggEnqueue, EventKind::Instant, 0, false),
                drain,
                ev(1, Op::AggForward, EventKind::Instant, 0, false),
            ],
            stalls: vec![],
            dropped_events: 0,
        };
        let d = trace.decomposition();
        assert_eq!(d.total_agg_records(), 2);
        assert_eq!(d.total_agg_batches(), 1);
        assert!((d.agg_bytes_per_batch() - 400.0).abs() < 1e-9);
        assert_eq!(d.total_agg_forwards(), 1);
        // Drill-down only: the category shares are untouched.
        assert!((d.share(Cat::CopyAsync) - 1.0).abs() < 1e-9);
        assert!(d.render().contains("agg"));
    }

    /// What the shared discriminants promise: `ALL` is in index order and
    /// a category and its op name each other.
    #[test]
    fn cat_index_matches_all_order() {
        for (i, c) in Cat::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(c.op().cat(), Some(*c));
            assert_eq!(c.name(), c.op().name());
        }
    }
}
