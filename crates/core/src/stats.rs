//! Per-image time decomposition — the runtime's built-in stand-in for the
//! paper's HPCToolkit profiles (Figures 4 and 8).
//!
//! Every runtime primitive runs inside a ledger section opened by its
//! prologue (`crate::op`), so after a benchmark run each image can report
//! how much wall-clock time went to coarray writes, event waits, event
//! notifies, alltoalls, and so on — the exact categories the paper's
//! decomposition figures use.
//!
//! Calls are counted exactly. Sections that can block or move real data
//! are timed on every call; a small coarray read, write or asynchronous
//! copy costs less than the clock reads that would bracket it and is
//! timed by sample, like the profiler this ledger stands in for
//! (DESIGN.md §3.2).

use std::cell::Cell;

use caf_fabric::delay::monotonic_ns;

/// The accounting categories — the legend of the paper's Figs 4 and 8.
/// The enum lives in `caf-trace`, whose spans are recorded under the
/// same ten names; the ledger indexes its rows with [`StatCat::index`].
pub use caf_trace::Cat as StatCat;

/// Every category, in display order.
pub const ALL_CATS: [StatCat; caf_trace::NCAT] = StatCat::ALL;

/// One sampled call in this many is timed. Prime, so that a loop whose
/// period is a power of two cannot fall into step with the samples.
const STRIDE: u64 = 61;

/// The largest transfer timed by sample; a bigger copy dwarfs the clock.
const SAMPLED_MAX_BYTES: u64 = 1024;

/// The part of a sampled interval that is multiplied. Beyond it the call
/// met a one-off (descheduled, blocked) that says nothing about the calls
/// it stands for: the excess is charged once.
const SAMPLE_CAP_NS: u64 = 16_384;

/// Whether a `cat` operation on `bytes` bytes is timed by sample: one
/// compare where `cat` is a constant, as in every operation's descriptor.
#[inline(always)]
pub(crate) const fn sampled(cat: StatCat, bytes: u64) -> bool {
    matches!(cat, StatCat::CoarrayRead | StatCat::CoarrayWrite | StatCat::CopyAsync)
        && bytes <= SAMPLED_MAX_BYTES
}

/// How many calls the sampled call after `n` others of its category stands
/// for: 0 (not timed), else itself and the untimed calls before it — the
/// first only itself, so a cold start is charged once.
#[inline(always)]
const fn sample_weight(n: u64) -> u64 {
    if n == 0 { 1 } else if n % STRIDE == 0 { STRIDE } else { 0 }
}

/// Per-image accounting ledger. Not thread-safe by design — each image owns
/// its own.
#[derive(Debug, Default)]
pub struct Stats {
    nanos: [Cell<u64>; caf_trace::NCAT],
    calls: [Cell<u64>; caf_trace::NCAT],
    /// Depth guard so nested timed sections do not double-count: only the
    /// outermost section accrues time.
    depth: Cell<u32>,
    /// When set, a section runs its closure without reading the clock
    /// or touching the ledger (trace spans are still emitted if tracing
    /// is on).
    off: Cell<bool>,
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
        self.off.set(!on);
    }

    /// Whether wall-clock accounting is currently on.
    fn accounting_enabled(&self) -> bool {
        !self.off.get()
    }

    /// Run `f` as a section of `cat`: a trace span plus a ledger
    /// section, timed on every call. The entry point for application code
    /// — a kernel brackets its compute phase with `StatCat::Computation`;
    /// the runtime's own operations go through their prologue instead,
    /// which tags the span with the operation's coordinates.
    pub fn timed<R>(&self, cat: StatCat, f: impl FnOnce() -> R) -> R {
        let _span = caf_trace::span(cat.op());
        self.section(cat, false, f)
    }

    /// Run `f`, counting the call and attributing its wall-clock time to
    /// `cat`. Nested sections do not double-count: an inner section is
    /// charged to its own category *only when entered at top level*; time
    /// inside an outer section stays with the outer category, whether or
    /// not that one read the clock. A `sampled` top-level section reads
    /// it on the calls [`sample_weight`] picks — twice before `f`: what a
    /// clock pair reads right here, run as rarely as it is (twice what it
    /// reads hot in a loop), comes off the interval it inflates.
    ///
    /// One body on purpose: a timed branch with its own inlined copy of
    /// `f` samples a copy that runs once in [`STRIDE`] calls, cold.
    #[inline]
    pub(crate) fn section<R>(&self, cat: StatCat, sampled: bool, f: impl FnOnce() -> R) -> R {
        let i = cat.index();
        let on = self.accounting_enabled();
        let top = on && self.depth.get() == 0;
        let n = self.calls[i].get();
        if on {
            self.calls[i].set(n + 1);
        }
        if top {
            self.depth.set(1);
        }
        let weight = match (top, sampled) {
            (false, _) => 0,
            (true, false) => 1,
            (true, true) => sample_weight(n),
        };
        let t0 = if weight > 0 { monotonic_ns() } else { 0 };
        let t1 = if weight > 0 && sampled { monotonic_ns() } else { t0 };
        let r = f();
        if weight > 0 {
            let ns = monotonic_ns().saturating_sub(t1).saturating_sub(t1 - t0);
            let ns = ns + ns.min(SAMPLE_CAP_NS) * (weight - 1);
            self.nanos[i].set(self.nanos[i].get() + ns);
        }
        if top {
            self.depth.set(0);
        }
        r
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
        s.nanos[StatCat::Alltoall.index()].set(1_000_000);
        s.calls[StatCat::Alltoall.index()].set(1);
        s.reset();
        assert_eq!(s.seconds(StatCat::Alltoall), 0.0);
        assert_eq!(s.calls(StatCat::Alltoall), 0);
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
        let nap = || {
            std::thread::sleep(Duration::from_millis(2));
            7
        };
        assert_eq!(s.timed(StatCat::Barrier, nap), 7);
        // The first call of a sampled category would be timed.
        assert_eq!(s.section(StatCat::CoarrayWrite, true, nap), 7);
        for cat in [StatCat::Barrier, StatCat::CoarrayWrite] {
            assert_eq!(s.seconds(cat), 0.0);
            assert_eq!(s.calls(cat), 0);
        }
        s.set_accounting(true);
        s.timed(StatCat::Barrier, || {});
        assert_eq!(s.calls(StatCat::Barrier), 1);
    }

    #[test]
    fn one_call_in_stride_is_timed_in_every_power_of_two_residue_class() {
        const N: u64 = 100_000;
        assert_eq!(sample_weight(0), 1, "the first call is timed, for itself");
        // Every sample stands for itself and the untimed calls before it.
        let mut stood_for = 0;
        for n in 0..N {
            stood_for += sample_weight(n);
            assert!(n + 1 - stood_for < STRIDE, "after call {n}: {stood_for}");
            assert_eq!(sample_weight(n) > 0, n % STRIDE == 0, "call {n}");
        }
        // A loop of period 2, 4, …, 1024 sees its share of samples at
        // every phase.
        for period in (1..=10).map(|k| 1u64 << k) {
            for phase in 0..period {
                let calls = (phase..N).step_by(period as usize);
                let timed = calls.filter(|&n| sample_weight(n) > 0).count() as f64;
                let fair = N as f64 / (period * STRIDE) as f64;
                assert!((timed - fair).abs() <= 1.0, "period {period} phase {phase}: {timed} vs {fair}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn sampling_counts_every_call_and_keeps_categories_apart() {
        let s = Stats::new();
        let spin = || {
            let t0 = monotonic_ns();
            while monotonic_ns() - t0 < 4_000 {}
        };
        s.section(StatCat::CoarrayWrite, true, spin);
        let first = s.seconds(StatCat::CoarrayWrite);
        assert!(first >= 3e-6, "the first call of a category is timed: {first}");
        // Read's first call is timed whatever Write has counted ...
        s.section(StatCat::CoarrayRead, true, spin);
        assert!(s.seconds(StatCat::CoarrayRead) >= 3e-6);
        // ... and does not move Write's stride: its next STRIDE - 1 calls
        // are counted and not timed, the one after stands for all of them.
        for _ in 1..STRIDE {
            s.section(StatCat::CoarrayWrite, true, spin);
        }
        assert_eq!(s.seconds(StatCat::CoarrayWrite), first);
        s.section(StatCat::CoarrayWrite, true, spin);
        let strided = s.seconds(StatCat::CoarrayWrite);
        assert!(strided >= first + STRIDE as f64 * 3e-6, "{strided}");
        assert_eq!(s.calls(StatCat::CoarrayWrite), STRIDE + 1);
        assert_eq!(s.calls(StatCat::CoarrayRead), 1);
        // The same section unsampled is timed on every call.
        s.section(StatCat::CoarrayRead, false, spin);
        assert!(s.seconds(StatCat::CoarrayRead) >= 6e-6);
        // A sample that met a one-off is charged it once, not STRIDE times.
        for _ in 1..STRIDE {
            s.section(StatCat::CoarrayWrite, true, || ());
        }
        s.section(StatCat::CoarrayWrite, true, || std::thread::sleep(Duration::from_millis(20)));
        let capped = s.seconds(StatCat::CoarrayWrite) - strided;
        assert!((0.02..0.02 * STRIDE as f64 / 2.0).contains(&capped), "{capped}");
    }

    #[test]
    fn seconds_never_decrease() {
        // An empty section reads about what its clock pair reads: the
        // difference saturates at zero instead of wrapping.
        let s = Stats::new();
        let mut last = 0.0;
        for _ in 0..50 * STRIDE {
            s.section(StatCat::CopyAsync, true, || ());
            let now = s.seconds(StatCat::CopyAsync);
            assert!(now >= last, "{now} < {last}");
            last = now;
        }
        assert_eq!(s.calls(StatCat::CopyAsync), 50 * STRIDE);
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn a_skipped_section_still_owns_its_nested_ones() {
        let s = Stats::new();
        s.section(StatCat::CoarrayWrite, true, || ());
        let before = s.seconds(StatCat::CoarrayWrite);
        // The second call of the category is not timed; the barrier
        // inside it is counted and must not be charged to `Barrier`.
        s.section(StatCat::CoarrayWrite, true, || {
            s.timed(StatCat::Barrier, || std::thread::sleep(Duration::from_millis(2)));
        });
        assert_eq!(s.seconds(StatCat::CoarrayWrite), before);
        assert_eq!(s.seconds(StatCat::Barrier), 0.0);
        assert_eq!(s.calls(StatCat::Barrier), 1);
        // At top level again, the barrier is charged.
        s.timed(StatCat::Barrier, || std::thread::sleep(Duration::from_millis(2)));
        assert!(s.seconds(StatCat::Barrier) >= 0.0019);
    }

    /// The ledger against a stopwatch held outside it: rounds of
    /// 61 × 400 remote 8-byte writes, judged on the least disturbed round
    /// (a descheduled round inflates the outer time alone).
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn sampled_write_time_tracks_the_wall_clock_on_both_substrates() {
        crate::image::both(2, |img| {
            let w = img.team_world();
            let ca: crate::Coarray<u64> = img.coarray_alloc(&w, 512);
            if img.this_image() == 0 {
                let round = |_| {
                    let before = img.stats().seconds(StatCat::CoarrayWrite);
                    let t0 = monotonic_ns();
                    for i in 0..STRIDE * 400 {
                        ca.write(img, 1, i as usize % 512, &[i]);
                    }
                    let wall = monotonic_ns() - t0;
                    (wall, img.stats().seconds(StatCat::CoarrayWrite) - before)
                };
                round(0); // warm up; takes the category's first, cold sample
                let (wall, ledger) = (0..21).map(round).min_by_key(|r| r.0).expect("21 rounds");
                let ratio = ledger * 1e9 / wall as f64;
                assert!((0.4..=1.3).contains(&ratio), "{:?}: {ledger} s of {wall} ns", img.substrate());
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }
}
