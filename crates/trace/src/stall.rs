//! Stall detection: a watchdog thread samples every collector's open
//! spans and reports blocking operations stuck past a threshold —
//! turning a silent interoperability deadlock (the paper's Figure 2)
//! into a diagnostic that names the blocked image and the image/window
//! edge it is waiting on.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::collector::{Collector, MAX_OPEN};
use crate::op::Op;
use crate::ring::NONE_SENTINEL;
use crate::session::{lock, SessionShared};

/// A blocking operation observed open past the configured threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The blocked image (`None` if its thread never called
    /// [`crate::set_image`]).
    pub image: Option<usize>,
    /// The operation it is stuck in.
    pub op: Op,
    /// The image it is blocked on, when the operation has one.
    pub target: Option<usize>,
    /// The RMA window / segment involved, when known.
    pub window: Option<u64>,
    /// How long the span had been open when detected.
    pub waited_ns: u64,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.image {
            Some(i) => write!(f, "image {i}")?,
            None => write!(f, "unidentified image")?,
        }
        write!(
            f,
            " blocked in {} for {} ms",
            self.op.name(),
            self.waited_ns / 1_000_000
        )?;
        if let Some(t) = self.target {
            write!(f, ", waiting on image {t}")?;
            if self.op == Op::AmPutAckWait {
                write!(f, " (target must poll to acknowledge the AM put)")?;
            }
        }
        if let Some(w) = self.window {
            write!(f, " [window {w}]")?;
        }
        Ok(())
    }
}

/// Scan one collector for its deepest over-threshold blocking span.
fn scan_collector(col: &Collector, now: u64, threshold_ns: u64) -> Option<(u64, StallReport)> {
    for idx in (0..MAX_OPEN).rev() {
        let slot = &col.open[idx];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == 0 {
            continue;
        }
        let op_raw = slot.op.load(Ordering::Relaxed);
        let t0 = slot.t0.load(Ordering::Relaxed);
        let target = slot.target.load(Ordering::Relaxed);
        let window = slot.window.load(Ordering::Relaxed);
        // Discard torn reads: the owner may have closed/reopened the
        // slot while we were reading the payload words.
        if slot.seq.load(Ordering::Acquire) != seq {
            continue;
        }
        let Some(op) = Op::from_u16(op_raw as u16) else {
            continue;
        };
        if !op.is_blocking() {
            continue;
        }
        let waited = now.saturating_sub(t0);
        if waited < threshold_ns {
            // A fast-churning inner wait; an enclosing span may still be
            // stuck, so keep scanning shallower slots.
            continue;
        }
        return Some((
            seq,
            StallReport {
                image: col.image_index(),
                op,
                target: match target {
                    NONE_SENTINEL => None,
                    t => Some(t as usize),
                },
                window: match window {
                    NONE_SENTINEL => None,
                    w => Some(w),
                },
                waited_ns: waited,
            },
        ));
    }
    None
}

pub(crate) fn spawn_watchdog(
    shared: Arc<SessionShared>,
    stop: Arc<AtomicBool>,
    threshold: Duration,
    period: Duration,
    announce: bool,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("caf-trace-stall-watchdog".into())
        .spawn(move || {
            let threshold_ns = threshold.as_nanos() as u64;
            let mut reported: HashSet<u64> = HashSet::new();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(period);
                let collectors: Vec<Arc<Collector>> = lock(&shared.collectors).clone();
                let now = crate::now_ns();
                for col in &collectors {
                    if let Some((seq, report)) = scan_collector(col, now, threshold_ns) {
                        if reported.insert(seq) {
                            if announce {
                                eprintln!("[caf-trace] STALL: {report}");
                            }
                            lock(&shared.stalls).push(report);
                        }
                    }
                }
            }
        })
        .expect("spawn stall watchdog")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use crate::session::{set_image, span_t, Session, TraceConfig};

    #[test]
    fn report_display_names_the_edge() {
        let r = StallReport {
            image: Some(0),
            op: Op::AmPutAckWait,
            target: Some(1),
            window: Some(3),
            waited_ns: 150_000_000,
        };
        let s = r.to_string();
        assert!(s.contains("image 0"), "{s}");
        assert!(s.contains("AmPutAckWait"), "{s}");
        assert!(s.contains("150 ms"), "{s}");
        assert!(s.contains("waiting on image 1"), "{s}");
        assert!(s.contains("window 3"), "{s}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "watchdog thread + wall-clock sleeps")]
    fn watchdog_reports_long_open_blocking_span_once() {
        let session = Session::start(TraceConfig {
            stall_threshold: Some(Duration::from_millis(20)),
            stall_poll_period: Duration::from_millis(5),
            announce_stalls: false,
            ..TraceConfig::default()
        })
        .unwrap();
        let scope = Scope::current();
        let worker = std::thread::spawn(move || {
            let _in = scope.enter();
            set_image(7);
            let g = span_t(Op::EventWait, Some(2), 0, None);
            std::thread::sleep(Duration::from_millis(120));
            drop(g);
        });
        worker.join().unwrap();
        let trace = session.finish();
        assert_eq!(trace.stalls.len(), 1, "{:?}", trace.stalls);
        let r = &trace.stalls[0];
        assert_eq!(r.image, Some(7));
        assert_eq!(r.op, Op::EventWait);
        assert_eq!(r.target, Some(2));
        assert!(r.waited_ns >= 20_000_000);
    }

    #[test]
    #[cfg_attr(miri, ignore = "watchdog thread + wall-clock sleeps")]
    fn short_spans_do_not_trip_the_watchdog() {
        let session = Session::start(TraceConfig {
            stall_threshold: Some(Duration::from_millis(80)),
            stall_poll_period: Duration::from_millis(5),
            announce_stalls: false,
            ..TraceConfig::default()
        })
        .unwrap();
        let scope = Scope::current();
        let worker = std::thread::spawn(move || {
            let _in = scope.enter();
            set_image(1);
            for _ in 0..10 {
                let g = span_t(Op::MpiRecv, Some(0), 0, None);
                std::thread::sleep(Duration::from_millis(2));
                drop(g);
            }
        });
        worker.join().unwrap();
        let trace = session.finish();
        assert!(trace.stalls.is_empty(), "{:?}", trace.stalls);
    }
}
