//! Launching a universe under a deadline, and the per-image harness that
//! times repetitions, records spans and reads the public ledgers.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf::stats::ALL_CATS;
use caf::{CafConfig, CafUniverse, Image, StatCat};
use caf_fabric::DelayOp;

use crate::host::{self, Pinning};
use crate::spans::{LedgerChild, Recorder, Span};

/// The issue-side delay-meter ops: charged at the origin in program
/// order, so their counts are a function of the program alone.
pub const ISSUE_OPS: [DelayOp; 5] = [
    DelayOp::P2pInject,
    DelayOp::RmaPut,
    DelayOp::RmaGet,
    DelayOp::RmaAtomic,
    DelayOp::FlushPerTarget,
];

/// Why a launch produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// An image panicked (its partners may be blocked forever).
    Panicked { image: usize, message: String },
    /// The universe did not return within the deadline.
    Deadline { after_s: f64 },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Panicked { image, message } => write!(f, "image {image} panicked: {message}"),
            Failure::Deadline { after_s } => write!(f, "no result within {after_s:.1} s deadline"),
        }
    }
}

/// Per-image results of a completed launch and its wall time.
#[derive(Debug)]
pub struct Launched<T> {
    pub results: Vec<T>,
    /// Wall seconds of `CafUniverse::run_with_config`.
    pub wall_s: f64,
}

enum Msg<T> {
    Done(Vec<T>, f64),
    Panicked(usize, String),
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run `f` on `p` images on a helper thread and wait for it at most
/// `deadline`. The helper pins itself to the job CPU first, so every
/// thread of the universe inherits the binding; each image reads its
/// affinity back and hands it to `f`.
///
/// An image that panics leaves partners blocked in a collective forever,
/// and a blocked universe cannot be torn down from outside. So a panic is
/// reported the moment it happens and a hang when the deadline passes;
/// in both cases the helper thread is abandoned, and the caller must
/// report and exit the process rather than launch again.
pub fn launch<T, F>(
    p: usize,
    cfg: CafConfig,
    pin: &Arc<Pinning>,
    deadline: Duration,
    f: F,
) -> Result<Launched<T>, Failure>
where
    T: Send + 'static,
    F: Fn(&Image, Option<Vec<usize>>) -> T + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel::<Msg<T>>();
    let pin = Arc::clone(pin);
    let helper = std::thread::Builder::new()
        .name("wallbench-universe".into())
        .spawn(move || {
            pin.pin();
            let early = tx.clone();
            let t = Instant::now();
            let done = catch_unwind(AssertUnwindSafe(|| {
                CafUniverse::run_with_config(p, cfg, |img| {
                    let affinity = host::current_affinity();
                    match catch_unwind(AssertUnwindSafe(|| f(img, affinity))) {
                        Ok(v) => v,
                        Err(payload) => {
                            let _ = early
                                .send(Msg::Panicked(img.this_image(), panic_message(&*payload)));
                            resume_unwind(payload)
                        }
                    }
                })
            }));
            if let Ok(results) = done {
                let _ = tx.send(Msg::Done(results, t.elapsed().as_secs_f64()));
            }
        })
        .expect("spawn universe helper thread");
    match rx.recv_timeout(deadline) {
        Ok(Msg::Done(results, wall_s)) => {
            helper.join().expect("helper thread sent its result");
            Ok(Launched { results, wall_s })
        }
        // The helper is deliberately not joined on failure: it may never
        // return. Process exit reaps it.
        Ok(Msg::Panicked(image, message)) => Err(Failure::Panicked { image, message }),
        Err(_) => Err(Failure::Deadline {
            after_s: deadline.as_secs_f64(),
        }),
    }
}

/// Deltas of the public ledgers over the measured repetitions of one
/// image: `Image::stats()` per category, the issue-side ops of
/// `Image::delay_meter_snapshot()`, and `Image::agg_stats()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Nanoseconds per [`ALL_CATS`] entry.
    pub cat_ns: [u64; 10],
    /// Calls per [`ALL_CATS`] entry.
    pub cat_calls: [u64; 10],
    /// Counts per [`ISSUE_OPS`] entry.
    pub ops: [u64; 5],
    pub agg_records: u64,
    pub agg_batches: u64,
    /// Wall nanoseconds of the repetitions the deltas cover.
    pub rep_ns: u64,
}

impl Ledger {
    fn read(img: &Image) -> Ledger {
        let mut l = Ledger::default();
        for (i, &(_, secs, calls)) in img.stats().snapshot().iter().enumerate() {
            l.cat_ns[i] = (secs * 1e9).round() as u64;
            l.cat_calls[i] = calls;
        }
        let mut meters = vec![img.delay_meter_snapshot()];
        // On CAF-GASNet with `hybrid_mpi` the co-resident MPI library
        // keeps a meter of its own.
        if img.substrate() == caf::SubstrateKind::Gasnet {
            if let Some(mpi) = img.mpi() {
                meters.push(mpi.delay_meter().snapshot());
            }
        }
        for (slot, op) in l.ops.iter_mut().zip(ISSUE_OPS) {
            *slot = meters
                .iter()
                .flatten()
                .filter(|(o, _, _)| *o == op)
                .map(|&(_, count, _)| count)
                .sum();
        }
        let agg = img.agg_stats();
        l.agg_records = agg.enqueued;
        l.agg_batches = agg.drained_buckets;
        l
    }

    fn minus(&self, before: &Ledger) -> Ledger {
        let mut d = self.clone();
        for i in 0..10 {
            d.cat_ns[i] -= before.cat_ns[i];
            d.cat_calls[i] -= before.cat_calls[i];
        }
        for i in 0..5 {
            d.ops[i] -= before.ops[i];
        }
        d.agg_records -= before.agg_records;
        d.agg_batches -= before.agg_batches;
        d
    }

    pub fn add(&mut self, other: &Ledger) {
        for i in 0..10 {
            self.cat_ns[i] += other.cat_ns[i];
            self.cat_calls[i] += other.cat_calls[i];
        }
        for i in 0..5 {
            self.ops[i] += other.ops[i];
        }
        self.agg_records += other.agg_records;
        self.agg_batches += other.agg_batches;
        self.rep_ns += other.rep_ns;
    }

    fn children(&self) -> Vec<LedgerChild> {
        ALL_CATS
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.cat_calls[i] > 0)
            .map(|(i, &cat)| LedgerChild {
                name: format!("core.{}", cat_name(cat)),
                layer: "core",
                total_ns: self.cat_ns[i],
                calls: self.cat_calls[i],
            })
            .collect()
    }
}

/// Stable snake_case name of a ledger category (metric name part).
pub fn cat_name(cat: StatCat) -> &'static str {
    match cat {
        StatCat::Computation => "computation",
        StatCat::CoarrayWrite => "coarray_write",
        StatCat::CoarrayRead => "coarray_read",
        StatCat::EventWait => "event_wait",
        StatCat::EventNotify => "event_notify",
        StatCat::Alltoall => "alltoall",
        StatCat::Barrier => "barrier",
        StatCat::Reduction => "reduction",
        StatCat::Finish => "finish",
        StatCat::CopyAsync => "copy_async",
    }
}

/// What one image hands back from a launch.
#[derive(Debug)]
pub struct ImageReport<V> {
    /// Timed seconds of every repetition this image timed, warm-up
    /// first. Empty on images that only serve (e.g. the `put8` target).
    pub timed_s: Vec<f64>,
    /// Seconds spent inside the universe on verification.
    pub verify_s: f64,
    /// Ledger deltas summed over the measured repetitions (traced runs).
    pub ledger: Ledger,
    pub spans: Vec<Span>,
    /// Affinity read back after pinning.
    pub affinity: Option<Vec<usize>>,
    /// Workload-specific data checked outside the universe.
    pub verify: V,
}

/// The per-image side of a launch: wraps each call the workload makes
/// into a layer.
pub struct ImageHarness<'a> {
    pub img: &'a Image,
    warmup: usize,
    rec: Recorder,
    timed_s: Vec<f64>,
    verify_s: f64,
    ledger: Ledger,
}

impl<'a> ImageHarness<'a> {
    /// `traced` turns the span recorder and the per-rep ledger reads on.
    pub fn new(img: &'a Image, warmup: usize, traced: bool) -> Self {
        let mut rec = Recorder::new(traced, img.this_image());
        rec.enter("launch", "bench", None);
        ImageHarness {
            img,
            warmup,
            rec,
            timed_s: Vec::new(),
            verify_s: 0.0,
            ledger: Ledger::default(),
        }
    }

    /// An untimed call into `layer` (alloc, free, sync, ...).
    pub fn call<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.rec.scope(name, layer, f)
    }

    /// One repetition; `f` returns the seconds of its timed section.
    /// The first `warmup` repetitions are timed but not measured.
    pub fn rep(&mut self, layer: &'static str, f: impl FnOnce() -> f64) {
        let idx = self.timed_s.len();
        let measured = idx >= self.warmup;
        let traced = self.rec.enabled();
        let before = traced.then(|| Ledger::read(self.img));
        self.rec.enter("rep", layer, Some(idx));
        let t = Instant::now();
        let secs = f();
        let rep_ns = t.elapsed().as_nanos() as u64;
        let children = before.map_or(Vec::new(), |before| {
            let mut delta = Ledger::read(self.img).minus(&before);
            delta.rep_ns = rep_ns;
            if measured {
                self.ledger.add(&delta);
            }
            delta.children()
        });
        self.rec.exit(children);
        self.timed_s.push(secs);
    }

    /// Verification work that has to run inside the universe; its time
    /// is excluded from `setup_s`.
    pub fn verification<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = self.rec.scope("verify", "bench", f);
        self.verify_s += t.elapsed().as_secs_f64();
        r
    }

    pub fn finish<V>(mut self, affinity: Option<Vec<usize>>, verify: V) -> ImageReport<V> {
        self.rec.exit(Vec::new());
        ImageReport {
            timed_s: self.timed_s,
            verify_s: self.verify_s,
            ledger: self.ledger,
            spans: self.rec.into_spans(),
            affinity,
            verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pin() -> Arc<Pinning> {
        Arc::new(Pinning::detect())
    }

    #[test]
    fn a_clean_launch_returns_results_in_image_order() {
        let out = launch(
            2,
            CafConfig::default(),
            &pin(),
            Duration::from_secs(30),
            |img, _| {
                img.sync_all();
                img.this_image() * 10
            },
        )
        .expect("clean launch");
        assert_eq!(out.results, vec![0, 10]);
        assert!(out.wall_s > 0.0);
    }

    #[test]
    fn a_panicking_image_is_a_failure_not_a_stuck_process() {
        // Image 0 dies before the barrier; image 1 blocks in it forever.
        let t = Instant::now();
        let out = launch(
            2,
            CafConfig::default(),
            &pin(),
            Duration::from_secs(30),
            |img, _| {
                if img.this_image() == 0 {
                    panic!("deliberate failure");
                }
                img.sync_all();
            },
        );
        assert_eq!(
            out.unwrap_err(),
            Failure::Panicked {
                image: 0,
                message: "deliberate failure".into()
            }
        );
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "reported at once, not at the deadline"
        );
    }

    #[test]
    fn a_hang_is_a_failure_within_the_deadline() {
        // Nobody ever posts the event image 0 waits for.
        let t = Instant::now();
        let out = launch(
            2,
            CafConfig::default(),
            &pin(),
            Duration::from_millis(300),
            |img, _| {
                let ev = img.event_alloc(&img.team_world());
                if img.this_image() == 0 {
                    img.event_wait(&ev);
                }
                img.sync_all();
            },
        );
        assert!(matches!(out, Err(Failure::Deadline { .. })), "{out:?}");
        assert!(t.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn rep_ledger_covers_measured_reps_only() {
        let out = launch(
            2,
            CafConfig::default(),
            &pin(),
            Duration::from_secs(30),
            |img, aff| {
                let mut h = ImageHarness::new(img, 1, true);
                for _ in 0..3 {
                    h.rep("core", || {
                        img.sync_all();
                        0.5
                    });
                }
                h.finish(aff, ())
            },
        )
        .expect("clean launch");
        let r = &out.results[0];
        assert_eq!(r.timed_s, vec![0.5; 3]);
        let barrier = ALL_CATS
            .iter()
            .position(|&c| c == StatCat::Barrier)
            .unwrap();
        assert_eq!(r.ledger.cat_calls[barrier], 2, "warm-up rep not counted");
        // launch + three reps, each rep under the launch span.
        assert_eq!(r.spans.len(), 4);
        assert!(r.spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.name == "rep"));
        assert_eq!(r.spans[1].ledger[0].name, "core.barrier");
    }
}
