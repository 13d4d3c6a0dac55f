//! Per-image time decomposition — the runtime's built-in stand-in for the
//! paper's HPCToolkit profiles (Figures 4 and 8).
//!
//! Every runtime primitive runs inside a ledger section opened by its
//! prologue (`crate::op`), so after a benchmark run each image can report
//! how much wall-clock time went to coarray writes, event waits, event
//! notifies, alltoalls, and so on — the exact categories the paper's
//! decomposition figures use.

use std::cell::Cell;

use caf_fabric::delay::monotonic_ns;

/// The accounting categories — the legend of the paper's Figs 4 and 8.
/// The enum lives in `caf-trace`, whose spans are recorded under the
/// same ten names; the ledger indexes its rows with [`StatCat::index`].
pub use caf_trace::Cat as StatCat;

/// Every category, in display order.
pub const ALL_CATS: [StatCat; caf_trace::NCAT] = StatCat::ALL;

/// Per-image accounting ledger. Not thread-safe by design — each image owns
/// its own.
#[derive(Debug)]
pub struct Stats {
    nanos: [Cell<u64>; caf_trace::NCAT],
    calls: [Cell<u64>; caf_trace::NCAT],
    /// Depth guard so nested timed sections do not double-count: only the
    /// outermost section accrues time.
    depth: Cell<u32>,
    /// When false, a section runs its closure without reading the clock
    /// or touching the ledger (trace spans are still emitted if tracing
    /// is on).
    enabled: Cell<bool>,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            nanos: Default::default(),
            calls: Default::default(),
            depth: Cell::new(0),
            enabled: Cell::new(true),
        }
    }
}

impl Stats {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn the wall-clock accounting on or off. Disabled, a section costs
    /// one branch per call — no `Instant::now`, no ledger writes. Tracing
    /// (the `caf-trace` session, if one is active) is unaffected.
    pub fn set_accounting(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Whether wall-clock accounting is currently on.
    pub fn accounting_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Run `f` as a section of `cat`: a trace span plus a ledger
    /// section. The entry point for application code — a kernel brackets
    /// its compute phase with `StatCat::Computation`; the runtime's own
    /// operations go through their prologue instead, which tags the span
    /// with the operation's coordinates.
    pub fn timed<R>(&self, cat: StatCat, f: impl FnOnce() -> R) -> R {
        let _span = caf_trace::span(cat.op());
        self.section(cat, f)
    }

    /// Run `f`, attributing its wall-clock time to `cat`. Nested
    /// sections do not double-count: an inner section is charged to its
    /// own category *only when entered at top level*; time inside an
    /// outer section stays with the outer category (the call is still
    /// counted).
    #[inline]
    pub(crate) fn section<R>(&self, cat: StatCat, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        if self.depth.get() > 0 {
            // Count the call but let the enclosing section keep the time.
            self.add_ns(cat, 0);
            return f();
        }
        self.depth.set(1);
        let t0 = monotonic_ns();
        let r = f();
        let ns = monotonic_ns().saturating_sub(t0);
        self.depth.set(0);
        self.add_ns(cat, ns);
        r
    }

    /// Directly add `ns` nanoseconds to `cat` (for callers that measured
    /// themselves).
    #[inline]
    pub fn add_ns(&self, cat: StatCat, ns: u64) {
        let i = cat.index();
        self.nanos[i].set(self.nanos[i].get() + ns);
        self.calls[i].set(self.calls[i].get() + 1);
    }

    /// Seconds accumulated under `cat`.
    pub fn seconds(&self, cat: StatCat) -> f64 {
        self.nanos[cat.index()].get() as f64 * 1e-9
    }

    /// Number of sections/calls recorded under `cat`.
    pub fn calls(&self, cat: StatCat) -> u64 {
        self.calls[cat.index()].get()
    }

    /// Reset every counter.
    pub fn reset(&self) {
        for c in &self.nanos {
            c.set(0);
        }
        for c in &self.calls {
            c.set(0);
        }
    }

    /// Snapshot of all categories as `(category, seconds, calls)`.
    pub fn snapshot(&self) -> Vec<(StatCat, f64, u64)> {
        ALL_CATS
            .iter()
            .map(|&c| (c, self.seconds(c), self.calls(c)))
            .collect()
    }
}

/// A plain-data snapshot that can cross thread boundaries (per-image stats
/// gathered by the launcher).
#[derive(Debug, Clone, Default)]
pub struct StatsReport {
    /// `(category, seconds, calls)` rows in [`ALL_CATS`] order.
    pub rows: Vec<(StatCat, f64, u64)>,
}

impl StatsReport {
    /// Capture from a live ledger.
    pub fn capture(stats: &Stats) -> Self {
        StatsReport {
            rows: stats.snapshot(),
        }
    }

    /// Seconds for one category (0 in a default, empty report).
    pub fn seconds(&self, cat: StatCat) -> f64 {
        self.rows.get(cat.index()).map_or(0.0, |row| row.1)
    }

    /// Elementwise mean across many reports (per-image → per-run).
    pub fn mean(reports: &[StatsReport]) -> StatsReport {
        let n = reports.len().max(1);
        let calls = |r: &StatsReport, c: StatCat| r.rows.get(c.index()).map_or(0, |row| row.2);
        let mean_row = |&c: &StatCat| {
            let secs = reports.iter().map(|r| r.seconds(c)).sum::<f64>() / n as f64;
            (c, secs, reports.iter().map(|r| calls(r, c)).sum::<u64>() / n as u64)
        };
        StatsReport { rows: ALL_CATS.iter().map(mean_row).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn timed_accumulates() {
        let s = Stats::new();
        s.timed(StatCat::Barrier, || std::thread::sleep(Duration::from_millis(5)));
        s.timed(StatCat::Barrier, || std::thread::sleep(Duration::from_millis(5)));
        assert!(s.seconds(StatCat::Barrier) >= 0.009);
        assert_eq!(s.calls(StatCat::Barrier), 2);
        assert_eq!(s.seconds(StatCat::Alltoall), 0.0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn nesting_does_not_double_count() {
        let s = Stats::new();
        s.timed(StatCat::EventNotify, || {
            s.timed(StatCat::Barrier, || {
                std::thread::sleep(Duration::from_millis(5))
            });
        });
        assert!(s.seconds(StatCat::EventNotify) >= 0.004);
        assert_eq!(s.seconds(StatCat::Barrier), 0.0);
        assert_eq!(s.calls(StatCat::Barrier), 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = Stats::new();
        s.add_ns(StatCat::Alltoall, 1_000_000);
        s.reset();
        assert_eq!(s.seconds(StatCat::Alltoall), 0.0);
        assert_eq!(s.calls(StatCat::Alltoall), 0);
    }

    #[test]
    fn report_mean() {
        let mk = |ns: u64| {
            let s = Stats::new();
            s.add_ns(StatCat::EventWait, ns);
            StatsReport::capture(&s)
        };
        let m = StatsReport::mean(&[mk(1_000_000_000), mk(3_000_000_000)]);
        assert!((m.seconds(StatCat::EventWait) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn timed_returns_value() {
        let s = Stats::new();
        let v = s.timed(StatCat::Computation, || 42);
        assert_eq!(v, 42);
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn disabled_accounting_records_nothing() {
        let s = Stats::new();
        assert!(s.accounting_enabled());
        s.set_accounting(false);
        let v = s.timed(StatCat::Barrier, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert_eq!(s.seconds(StatCat::Barrier), 0.0);
        assert_eq!(s.calls(StatCat::Barrier), 0);
        s.set_accounting(true);
        s.timed(StatCat::Barrier, || {});
        assert_eq!(s.calls(StatCat::Barrier), 1);
    }
}
