//! The checker: replay a recorded [`caf_trace::Trace`] through the epoch
//! checker and the happens-before race detector.
//!
//! A checked run is a `caf_trace::Session` around the job, then
//! [`check_trace`] over what it recorded. The two runtime prologues put
//! everything the analyses need on the trace (DESIGN.md §10):
//!
//! * the MPI substrate's window operations with global ranks, byte
//!   ranges and origin-buffer addresses (`RmaPut`/`RmaGet`/`RmaAtomic`,
//!   one record per element of a vector transfer), its flushes and epoch
//!   lifecycle, the local loads and stores of window memory
//!   (`WinLoad`/`WinStore`) and the life of every request
//!   (`RequestOpen`/`RequestWait`/`RequestDrop`);
//! * the portable layer's happens-before edges: coarray accesses (a
//!   remote read or write is its `CoarrayRead`/`CoarrayWrite` span, any
//!   other access a `Load`/`Store`), `Send`/`Recv` legs of event posts,
//!   shipped functions and aggregation batches, collective rounds with
//!   their member counts, region frees and observed failures.
//!
//! The replay orders every image's actions by the trace clock. A send
//! and an access carry the time the operation started; a receive is
//! recorded once its message was consumed, a round is left after its
//! span closed, so every edge is replayed after the send it joins.

use std::collections::{HashMap, HashSet, VecDeque};

use caf_trace::{Op, Trace, TraceEvent};

use crate::epoch::EpochChecker;
use crate::hb::{HbEdge, RaceDetector};
use crate::report::{ByteRange, Report, Violation};

/// Which analyses a replay runs.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// The MPI-3 epoch-legality checker.
    pub epochs: bool,
    /// The happens-before race detector.
    pub races: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { epochs: true, races: true }
    }
}

/// Access-history bound per `(region, owner)` shadow cell.
const HISTORY_LIMIT: usize = 1 << 14;

/// Collected-diagnostic cap (further violations are counted as dropped);
/// also bounds the edge log, [`Report::edges`].
const MAX_VIOLATIONS: usize = 1 << 14;

/// One replayed step of an image, in the analyses' vocabulary.
enum Action {
    LockAll { win: u64 },
    UnlockAll { win: u64 },
    Free { win: u64 },
    Put { win: u64, target: usize, range: ByteRange, buf: ByteRange },
    Get { win: u64, target: usize, range: ByteRange, buf: ByteRange },
    Atomic { win: u64, target: usize, range: ByteRange },
    LocalRead { win: u64, owner: usize, range: ByteRange },
    LocalWrite { win: u64, owner: usize, range: ByteRange },
    Flush { win: u64, target: usize },
    FlushAll { win: u64 },
    /// A request went live borrowing `buf`.
    Open { win: u64, buf: ByteRange, kind: &'static str },
    /// The request borrowing the buffer at `addr` was waited.
    Wait { addr: u64 },
    /// ... or dropped without a wait.
    Drop { addr: u64 },
    /// A happens-before edge of the portable layer.
    Hb(HbEdge),
}

/// What `e` asks of the analyses, and when: `None` for an event they do
/// not read.
fn action(e: &TraceEvent) -> Option<(u64, Action)> {
    let range = |disp: u64| ByteRange::new(disp, e.bytes);
    let a = match (e.op, e.window, e.target, e.disp) {
        (Op::WinLockAll, Some(win), ..) => Action::LockAll { win },
        (Op::WinUnlockAll, Some(win), ..) => Action::UnlockAll { win },
        (Op::WinFree, Some(win), ..) => Action::Free { win },
        (Op::RmaPut, Some(win), Some(target), Some(d)) => {
            Action::Put { win, target, range: range(d), buf: range(e.arg) }
        }
        (Op::RmaGet, Some(win), Some(target), Some(d)) => {
            Action::Get { win, target, range: range(d), buf: range(e.arg) }
        }
        (Op::RmaAtomic, Some(win), Some(target), Some(d)) => Action::Atomic { win, target, range: range(d) },
        (Op::WinLoad, Some(win), Some(owner), Some(d)) => Action::LocalRead { win, owner, range: range(d) },
        (Op::WinStore, Some(win), Some(owner), Some(d)) => Action::LocalWrite { win, owner, range: range(d) },
        (Op::WinFlush, Some(win), Some(target), _) => Action::Flush { win, target },
        // An rflush certifies its target when its wait completes.
        (Op::WinRflushWait, Some(win), Some(target), _) => {
            return Some((e.t0_ns.saturating_add(e.dur_ns), Action::Flush { win, target }));
        }
        (Op::WinFlushAll, Some(win), ..) => Action::FlushAll { win },
        (Op::RequestOpen, Some(win), _, Some(addr)) => {
            let kind = if e.arg == Op::RmaGet as u64 { "rget" } else { "rput" };
            Action::Open { win, buf: range(addr), kind }
        }
        (Op::RequestWait, _, _, Some(addr)) => Action::Wait { addr },
        (Op::RequestDrop, _, _, Some(addr)) => Action::Drop { addr },
        (Op::CoarrayRead | Op::CoarrayWrite | Op::Load | Op::Store, Some(region), Some(owner), Some(disp)) => {
            let write = matches!(e.op, Op::CoarrayWrite | Op::Store);
            Action::Hb(HbEdge::Access { region, owner, disp, len: e.bytes, write })
        }
        (Op::Send, _, Some(dest), Some(token)) => Action::Hb(HbEdge::Send { ns: e.bytes as u8, token, dest }),
        (Op::Recv, _, _, Some(token)) => Action::Hb(HbEdge::Recv { ns: e.bytes as u8, token }),
        (Op::RoundEnter, _, _, Some(team)) => Action::Hb(HbEdge::CollEnter { team }),
        (Op::RoundExit, _, _, Some(team)) => {
            Action::Hb(HbEdge::CollExit { team, members: e.bytes as usize })
        }
        (Op::RegionFree, Some(region), ..) => Action::Hb(HbEdge::RegionFree { region }),
        (Op::FailureSeen, _, Some(failed), _) => Action::Hb(HbEdge::ImageFailed { failed }),
        _ => return None,
    };
    Some((e.t0_ns, a))
}

/// Replay `trace` through the analyses `cfg` selects and report what they
/// flag. Events lost to ring wraparound, and events the analyses read
/// that no image recorded, are counted in [`Report::dropped`]: a report
/// that could not see everything is never clean.
pub fn check_trace(trace: &Trace, cfg: CheckConfig) -> Report {
    let mut dropped = trace.dropped_events as usize;
    let mut actions: Vec<(u64, usize, usize, Action)> = Vec::new();
    for (seq, e) in trace.events.iter().enumerate() {
        let Some((t, a)) = action(e) else { continue };
        if e.image == usize::MAX {
            // Recorded by a thread no launch attributed: no image's
            // program order to place it in.
            dropped += 1;
            continue;
        }
        actions.push((t, seq, e.image, a));
    }
    actions.sort_by_key(|&(t, seq, _, _)| (t, seq));

    let mut epoch = EpochChecker::new();
    let mut hb = RaceDetector::new(HISTORY_LIMIT);
    // Per-origin epoch state, as the runtime's `locked_all` flag had it.
    let mut open = HashSet::new();
    // Live requests' tokens by (origin, buffer address), oldest first.
    let mut requests: HashMap<(usize, u64), VecDeque<u64>> = HashMap::new();
    let mut edges = Vec::new();
    let mut out: Vec<Violation> = Vec::new();
    let mut found = Vec::new();
    for (t, _, img, a) in actions {
        match a {
            Action::Hb(edge) => {
                if edges.len() < MAX_VIOLATIONS {
                    edges.push((t, img, edge));
                }
                if cfg.races {
                    hb.apply(img, edge, &mut found);
                }
            }
            a if cfg.epochs => replay_epoch(&mut epoch, &mut open, &mut requests, img, a, &mut found),
            _ => {}
        }
        for v in found.drain(..) {
            if out.len() < MAX_VIOLATIONS {
                out.push(v);
            } else {
                dropped += 1;
            }
        }
    }
    Report { violations: out, dropped, edges }
}

/// Feed one epoch-checker action of image `img`.
fn replay_epoch(
    epoch: &mut EpochChecker,
    open: &mut HashSet<(u64, usize)>,
    requests: &mut HashMap<(usize, u64), VecDeque<u64>>,
    img: usize,
    a: Action,
    out: &mut Vec<Violation>,
) {
    let is_open = |win| open.contains(&(win, img));
    match a {
        Action::LockAll { win } => {
            epoch.lock_all(win, img, out);
            open.insert((win, img));
        }
        Action::UnlockAll { win } => {
            let was = open.remove(&(win, img));
            epoch.unlock_all(win, img, was, out);
        }
        Action::Free { win } => {
            let was = open.remove(&(win, img));
            epoch.free(win, img, was, out);
        }
        Action::Put { win, target, range, buf } => {
            epoch.rma_put(win, img, target, range, buf, is_open(win), out);
        }
        Action::Get { win, target, range, buf } => {
            epoch.rma_get(win, img, target, range, buf, is_open(win), out);
        }
        Action::Atomic { win, target, range } => {
            epoch.rma_atomic(win, img, target, range, is_open(win), out);
        }
        Action::LocalRead { win, owner, range } => epoch.local_read(win, owner, range, out),
        Action::LocalWrite { win, owner, range } => epoch.local_write(win, owner, range, out),
        Action::Flush { win, target } => epoch.flush(win, img, target, is_open(win), out),
        Action::FlushAll { win } => epoch.flush_all(win, img, is_open(win), out),
        Action::Open { win, buf, kind } => {
            let token = epoch.request_open(win, img, buf, kind);
            requests.entry((img, buf.start)).or_default().push_back(token);
        }
        Action::Wait { addr } | Action::Drop { addr } => {
            let Some(token) = requests.get_mut(&(img, addr)).and_then(VecDeque::pop_front) else {
                return;
            };
            if matches!(a, Action::Wait { .. }) {
                epoch.request_wait(token);
            } else {
                epoch.request_drop(token, out);
            }
        }
        Action::Hb(_) => unreachable!("edges go to the race detector"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ViolationKind;
    use caf_trace::{Chan, EventKind};

    /// Replay a hand-built event list with both analyses.
    fn check_events(events: Vec<TraceEvent>) -> Report {
        let trace = Trace { events, stalls: Vec::new(), dropped_events: 0 };
        check_trace(&trace, CheckConfig::default())
    }

    fn ev(image: usize, op: Op, t0: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            image,
            op,
            kind: if dur == 0 { EventKind::Instant } else { EventKind::Span },
            t0_ns: t0,
            dur_ns: dur,
            arg: 0,
            target: None,
            bytes: 0,
            window: None,
            depth: 0,
            top_cat: false,
            disp: None,
        }
    }

    /// A coarray access of bytes `[0, 8)` of image 0's part of region 9.
    fn access(img: usize, t0: u64, write: bool) -> TraceEvent {
        let mut e = ev(img, if write { Op::CoarrayWrite } else { Op::CoarrayRead }, t0, 1);
        e.window = Some(9);
        e.target = Some(0);
        e.disp = Some(0);
        e.bytes = 8;
        e
    }

    /// An edge leg on the event channel.
    fn leg(img: usize, op: Op, t0: u64, dest: Option<usize>) -> TraceEvent {
        let mut e = ev(img, op, t0, 0);
        e.bytes = Chan::Event as u64;
        e.disp = Some(42);
        e.target = dest;
        e
    }

    #[test]
    fn offline_flags_put_outside_epoch_and_overlap() {
        let mut put0 = ev(0, Op::RmaPut, 10, 0);
        put0.window = Some(7);
        put0.target = Some(2);
        put0.disp = Some(0);
        put0.bytes = 16;
        // Image 1 puts to an overlapping range later, inside an epoch.
        let mut lock0 = ev(0, Op::WinLockAll, 5, 0);
        lock0.window = Some(7);
        let mut lock1 = ev(1, Op::WinLockAll, 5, 0);
        lock1.window = Some(7);
        let mut put1 = ev(1, Op::RmaPut, 20, 0);
        put1.window = Some(7);
        put1.target = Some(2);
        put1.disp = Some(8);
        put1.bytes = 16;

        // Without image 0's lock the first put is outside an epoch.
        let r = check_events(vec![lock1.clone(), put0.clone(), put1.clone()]);
        assert_eq!(r.of_kind(ViolationKind::OutsideEpoch).len(), 1);
        assert_eq!(r.of_kind(ViolationKind::EpochOverlap).len(), 1);

        // With both locks: only the overlap remains.
        let r = check_events(vec![lock0, lock1, put0, put1]);
        assert!(r.of_kind(ViolationKind::OutsideEpoch).is_empty());
        let overlaps = r.of_kind(ViolationKind::EpochOverlap);
        assert_eq!(overlaps.len(), 1);
        assert_eq!(overlaps[0].image, 1);
        assert_eq!(overlaps[0].other, Some(0));
        assert_eq!(overlaps[0].range, Some(ByteRange { start: 8, end: 16 }));
    }

    #[test]
    fn offline_event_edge_orders_coarray_accesses() {
        // write(0) → post(0) → take(1) → read(1): clean.
        let r = check_events(vec![
            access(0, 10, true),
            leg(0, Op::Send, 20, Some(1)),
            leg(1, Op::Recv, 30, None),
            access(1, 40, false),
        ]);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.edges.len(), 4, "every edge is logged");

        // Same accesses with no edge: a race.
        let r = check_events(vec![access(0, 10, true), access(1, 40, false)]);
        assert_eq!(r.of_kind(ViolationKind::CoarrayRace).len(), 1);
    }

    /// Regression: the notify edge was posted at the end of the notify's
    /// span, so a waiter whose wait ended first joined nothing and its
    /// next read was flagged. The edge is the post, made inside the span
    /// before the waiter could consume it.
    #[test]
    fn a_wait_ending_before_its_notify_span_still_joins_the_post() {
        let mut notify = ev(0, Op::EventNotify, 20, 30);
        notify.target = Some(1);
        notify.disp = Some(42);
        let mut wait = ev(1, Op::EventWait, 21, 19);
        wait.disp = Some(42);
        let r = check_events(vec![
            access(0, 10, true),
            notify,
            wait,
            leg(0, Op::Send, 30, Some(1)),
            leg(1, Op::Recv, 39, None),
            access(1, 45, false),
        ]);
        assert!(r.is_clean(), "{}", r.render());
    }

    /// Regression: an event recorded by a thread that never called
    /// `caf_trace::set_image` carries image `usize::MAX`, and replaying
    /// it grew the detector's clock table to `usize::MAX + 1` entries —
    /// an `attempt to add with overflow` panic. Such events are skipped
    /// and counted.
    #[test]
    fn offline_skips_and_counts_unattributed_events() {
        let stray_access = access(usize::MAX, 10, true);
        let mut stray_round = ev(usize::MAX, Op::RoundEnter, 20, 0);
        stray_round.disp = Some(5);
        let mut write = stray_access.clone();
        write.image = 1;
        write.t0_ns = 30;

        let r = check_events(vec![stray_access, stray_round, write]);
        assert!(r.violations.is_empty(), "{}", r.render());
        assert_eq!(r.dropped, 2);
        assert!(!r.is_clean(), "a report that skipped events says so");

        // So is one whose rings wrapped.
        let trace = Trace { events: Vec::new(), stalls: Vec::new(), dropped_events: 3 };
        assert_eq!(check_trace(&trace, CheckConfig::default()).dropped, 3);
    }

    #[test]
    fn offline_collective_round_synchronizes() {
        let round = |img: usize, t0: u64| {
            let mut enter = ev(img, Op::RoundEnter, t0, 0);
            enter.disp = Some(5);
            let mut exit = ev(img, Op::RoundExit, t0 + 10, 0);
            exit.disp = Some(5);
            exit.bytes = 2;
            [enter, exit]
        };
        let mut events = vec![access(0, 10, true)];
        events.extend(round(0, 20));
        events.extend(round(1, 22));
        events.push(access(1, 50, true));
        let r = check_events(events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn request_records_flag_reuse_and_a_lost_completion() {
        let at = |op: Op, t0: u64, addr: u64, bytes: u64| {
            let mut e = ev(0, op, t0, 0);
            e.window = Some(7);
            e.disp = Some(addr);
            e.bytes = bytes;
            e
        };
        let mut lock = ev(0, Op::WinLockAll, 1, 0);
        lock.window = Some(7);
        let mut open = at(Op::RequestOpen, 3, 1000, 64);
        open.arg = Op::RmaPut as u64;
        // A put whose origin buffer lies inside the live request's.
        let mut put = at(Op::RmaPut, 4, 128, 8);
        put.target = Some(0);
        put.arg = 1032;
        let r = check_events(vec![lock, open.clone(), put, at(Op::RequestDrop, 5, 1000, 0)]);
        assert_eq!(r.violations.len(), 2, "{}", r.render());
        assert_eq!(r.violations[0].kind, ViolationKind::BufferReuse);
        assert_eq!(r.violations[1].kind, ViolationKind::LostCompletion);
        assert!(r.violations[1].detail.contains("rput"));

        // Waited, then dropped: nothing.
        let r = check_events(vec![open, at(Op::RequestWait, 4, 1000, 0), at(Op::RequestDrop, 5, 1000, 0)]);
        assert!(r.is_clean(), "{}", r.render());
    }
}
