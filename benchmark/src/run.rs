//! The workload driver: fits launches into the time budget, alternating
//! substrates, verifies every launch, and turns the samples into the
//! named metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf::stats::ALL_CATS;
use caf::SubstrateKind;
use caf_fabric::DelayOp;

use crate::harness::{cat_name, launch, ImageHarness, Ledger, ISSUE_OPS};
use crate::host::{self, Pinning};
use crate::metrics::SUBSTRATES;
use crate::spans::{self, Span};
use crate::stats::{first_decile, median, tail, Tail};
use crate::workloads::{config_for, Workload};

pub const KINDS: [SubstrateKind; 2] = [SubstrateKind::Mpi, SubstrateKind::Gasnet];

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Wall seconds the launches of this run should fill.
    pub seconds: f64,
    /// Alternate traced and untraced launches (spans + ledgers on).
    pub traced: bool,
    pub pin: Arc<Pinning>,
}

/// What the launches of one substrate in one mode (traced or not) gave.
#[derive(Debug, Default)]
struct Samples {
    /// Timed seconds of every measured repetition.
    rep_s: Vec<f64>,
    /// Per launch: universe wall − Σ timed sections − verification.
    setup_s: Vec<f64>,
    /// Ledger deltas summed over images and launches.
    ledger: Ledger,
    /// Measured repetitions the ledger covers.
    ledger_reps: u64,
    /// One span vector per image per launch.
    spans: Vec<Vec<Span>>,
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub work_unit: &'static str,
    pub p: usize,
    work_per_rep: f64,
    /// `[substrate][traced as usize]`.
    samples: [[Samples; 2]; 2],
    /// Measured repetitions attempted / failed (verification mismatch,
    /// panic, or deadline).
    pub attempted: u64,
    pub failed: u64,
    /// Why repetitions failed, if any did.
    pub failures: Vec<String>,
    /// The run was cut short: an image panicked or hung, and the stuck
    /// universe cannot be torn down.
    pub aborted: bool,
    /// Affinity each image read back after pinning (first launch).
    pub affinity: Vec<Option<Vec<usize>>>,
    pub launches: usize,
    pub wall_s: f64,
    /// `(user_s, sys_s)` of the process over the run.
    pub cpu_s: Option<(f64, f64)>,
}

/// Run workload `w` for about `opts.seconds`.
pub fn run_workload<W: Workload>(w: W, opts: &RunOpts) -> Outcome {
    let w = Arc::new(w);
    let (warm, measured) = w.reps();
    // Three times the whole budget for a single launch: generous, yet a
    // hang still ends well inside the 180 s a run may take.
    let deadline = Duration::from_secs_f64((3.0 * opts.seconds).clamp(10.0, 100.0));
    let mut out = Outcome {
        workload: w.name(),
        work_unit: w.work_unit(),
        p: w.p(),
        work_per_rep: w.work_per_rep(),
        samples: Default::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        aborted: false,
        affinity: Vec::new(),
        launches: 0,
        wall_s: 0.0,
        cpu_s: None,
    };
    let cpu_before = host::cpu_times();
    let started = Instant::now();
    let mut round = 0usize;
    'rounds: loop {
        let traced = opts.traced && round % 2 == 0;
        let first = round == 0;
        for (si, &kind) in KINDS.iter().enumerate() {
            out.attempted += measured as u64;
            out.launches += 1;
            let body = Arc::clone(&w);
            let launched = launch(
                w.p(),
                config_for(&*w, kind),
                &opts.pin,
                deadline,
                move |img, affinity| {
                    let mut h = ImageHarness::new(img, warm, traced);
                    let verify = body.image_main(&mut h, first);
                    h.finish(affinity, verify)
                },
            );
            let launched = match launched {
                Ok(l) => l,
                Err(failure) => {
                    out.failed += measured as u64;
                    out.failures
                        .push(format!("{} on {}: {failure}", w.name(), SUBSTRATES[si]));
                    out.aborted = true;
                    break 'rounds;
                }
            };
            let s = &mut out.samples[si][traced as usize];
            // Image 0 times every workload (kernels report the
            // all-image maximum, identical on every image).
            let timed = &launched.results[0].timed_s;
            s.rep_s.extend_from_slice(&timed[warm..]);
            let verify_s = launched
                .results
                .iter()
                .map(|r| r.verify_s)
                .fold(0.0, f64::max);
            s.setup_s
                .push(launched.wall_s - timed.iter().sum::<f64>() - verify_s);
            if first && si == 0 {
                out.affinity = launched
                    .results
                    .iter()
                    .map(|r| r.affinity.clone())
                    .collect();
            }
            let mut handed_back = Vec::with_capacity(launched.results.len());
            for r in launched.results {
                s.ledger.add(&r.ledger);
                if traced {
                    s.spans.push(r.spans);
                }
                handed_back.push(r.verify);
            }
            if traced {
                s.ledger_reps += measured as u64;
            }
            if let Err(why) = w.check(&handed_back, first) {
                out.failed += measured as u64;
                out.failures
                    .push(format!("{} on {}: {why}", w.name(), SUBSTRATES[si]));
            }
        }
        round += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / round as f64;
        // A traced run needs one round of each kind.
        let min_rounds = if opts.traced { 2 } else { 1 };
        if round >= min_rounds && elapsed + per_round / 2.0 > opts.seconds {
            break;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.cpu_s = cpu_before
        .zip(host::cpu_times())
        .map(|((u0, s0), (u1, s1))| (u1 - u0, s1 - s0));
    out
}

/// A metric value; `None` is "unavailable", never zero.
pub type Values = BTreeMap<String, Option<f64>>;

impl Outcome {
    /// Work per repetition over the first-decile timed seconds.
    fn rate(&self, si: usize, traced: bool) -> Option<f64> {
        first_decile(&self.samples[si][traced as usize].rep_s).map(|s| self.work_per_rep / s)
    }

    /// `fail_ratio`: failed ÷ attempted repetitions.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics, from the untraced launches.
    pub fn end_to_end(&self) -> Values {
        let mut v = Values::new();
        for (si, s) in SUBSTRATES.iter().enumerate() {
            v.insert(format!("{s}.rate"), self.rate(si, false));
        }
        let setup: Option<f64> = (0..2).map(|si| median(&self.samples[si][0].setup_s)).sum();
        v.insert("setup_s".into(), setup);
        v.insert("peak_rss_mb".into(), host::peak_rss_mb());
        v
    }

    /// The tail of the traced launches' repetition times on a substrate.
    pub fn rep_tail(&self, si: usize) -> Option<Tail> {
        tail(&self.samples[si][1].rep_s)
    }

    /// The `run.*` group and the ledgers, from the traced launches.
    pub fn traced_run(&self) -> Values {
        let mut v = Values::new();
        for (si, s) in SUBSTRATES.iter().enumerate() {
            let t = &self.samples[si][1];
            v.insert(
                format!("run.{s}.rep_p50_ms"),
                median(&t.rep_s).map(|x| x * 1e3),
            );
            v.insert(
                format!("run.{s}.rep_tail_ms"),
                self.rep_tail(si).map(|t| t.value * 1e3),
            );
            let rep_ns = t.ledger.rep_ns as f64;
            for (i, cat) in ALL_CATS.iter().enumerate() {
                v.insert(
                    format!("share.{}.{s}", cat_name(*cat)),
                    (rep_ns > 0.0).then(|| t.ledger.cat_ns[i] as f64 / rep_ns),
                );
            }
            let per_rep =
                |count: u64| (t.ledger_reps > 0).then(|| count as f64 / t.ledger_reps as f64);
            for (i, op) in ISSUE_OPS.iter().enumerate() {
                v.insert(
                    format!("count.{}.{s}", DelayOp::name(*op)),
                    per_rep(t.ledger.ops[i]),
                );
            }
            v.insert(
                format!("count.agg_records.{s}"),
                per_rep(t.ledger.agg_records),
            );
            v.insert(
                format!("count.agg_batches.{s}"),
                per_rep(t.ledger.agg_batches),
            );
        }
        v.insert("run.user_s".into(), self.cpu_s.map(|c| c.0));
        v.insert("run.sys_s".into(), self.cpu_s.map(|c| c.1));
        v.insert(
            "run.mpi_over_gasnet".into(),
            self.rate(0, true)
                .zip(self.rate(1, true))
                .map(|(m, g)| m / g),
        );
        // Traced against untraced first-decile repetition time, both
        // substrates pooled.
        let cost = |traced: bool| -> Option<f64> {
            (0..2)
                .map(|si| first_decile(&self.samples[si][traced as usize].rep_s))
                .sum()
        };
        v.insert(
            "run.trace_overhead_pct".into(),
            cost(true)
                .zip(cost(false))
                .map(|(t, u)| (t / u - 1.0) * 100.0),
        );
        v
    }

    /// All spans of the traced launches, merged.
    pub fn merged_spans(&mut self) -> Vec<Span> {
        let per_image = self
            .samples
            .iter_mut()
            .flat_map(|by_mode| std::mem::take(&mut by_mode[1].spans))
            .collect();
        spans::merge(per_image)
    }
}
