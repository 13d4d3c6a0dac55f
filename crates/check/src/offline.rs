//! Offline checking: replay a recorded [`caf_trace::Trace`] through the
//! same epoch and happens-before analyses the online hooks drive.
//!
//! The trace carries enough to reconstruct most of the online view on
//! the MPI substrate: `WinLockAll`/`WinUnlockAll`/`WinFree` instants,
//! `RmaPut`/`RmaGet`/`RmaAtomic` instants with the target displacement
//! in the `disp` field, `WinFlush`/`WinFlushAll`, coarray read/write
//! spans tagged with region id + displacement, and sync tokens on
//! `EventNotify`/`EventWait` spans (the event id in `disp`) and
//! collective spans (the team id in `disp`).
//!
//! The offline pass is necessarily approximate where the trace is:
//! origin-buffer addresses and request lifetimes are not recorded (no
//! buffer-reuse / lost-completion detection), local loads of window
//! memory are not traced (no read-before-flush), and function-shipping
//! edges are not replayed. The online session sees all of those; use
//! the offline pass to audit traces collected without the sanitizer.

use std::collections::HashSet;

use caf_trace::{Op, Trace, TraceEvent};

use crate::epoch::EpochChecker;
use crate::hb::{HbEdge, RaceDetector, NS_EVENT};
use crate::report::{ByteRange, Report, Violation};

enum Action {
    LockAll { win: u64 },
    UnlockAll { win: u64 },
    Free { win: u64 },
    Put { win: u64, target: usize, range: ByteRange },
    Get { win: u64, target: usize, range: ByteRange },
    Atomic { win: u64, target: usize, range: ByteRange },
    Flush { win: u64, target: usize },
    FlushAll { win: u64 },
    /// A CAF-layer edge, in the vocabulary the online hook reports.
    Hb(HbEdge),
}

/// Replay `trace` through both checkers and report what they flag.
pub fn check_trace(trace: &Trace) -> Report {
    let mut actions: Vec<(u64, usize, usize, Action)> = Vec::new();
    let mut push = |t: u64, seq: usize, img: usize, a: Action| actions.push((t, seq, img, a));

    let mut unattributed = 0usize;
    for (seq, e) in trace.events.iter().enumerate() {
        let img = e.image;
        if img == usize::MAX {
            // Recorded by a thread that never called
            // `caf_trace::set_image` (a helper or harness thread): no
            // image's program order to place it in.
            unattributed += 1;
            continue;
        }
        let t0 = e.t0_ns;
        let t_end = e.t0_ns.saturating_add(e.dur_ns);
        match e.op {
            Op::WinLockAll => {
                if let Some(win) = e.window {
                    push(t0, seq, img, Action::LockAll { win });
                }
            }
            Op::WinUnlockAll => {
                if let Some(win) = e.window {
                    push(t0, seq, img, Action::UnlockAll { win });
                }
            }
            Op::WinFree => {
                if let Some(win) = e.window {
                    push(t0, seq, img, Action::Free { win });
                }
            }
            Op::RmaPut | Op::RmaGet | Op::RmaAtomic => {
                if let (Some(win), Some(target), Some(disp)) = (e.window, e.target, e.disp) {
                    let range = ByteRange::new(disp, e.bytes);
                    let a = match e.op {
                        Op::RmaPut => Action::Put { win, target, range },
                        Op::RmaGet => Action::Get { win, target, range },
                        _ => Action::Atomic { win, target, range },
                    };
                    push(t0, seq, img, a);
                }
            }
            Op::WinFlush => {
                if let (Some(win), Some(target)) = (e.window, e.target) {
                    push(t0, seq, img, Action::Flush { win, target });
                }
            }
            Op::WinFlushAll => {
                if let Some(win) = e.window {
                    push(t0, seq, img, Action::FlushAll { win });
                }
            }
            Op::EventNotify => {
                // The span's target is the notified image; it is part of
                // the channel key (posts count at the receiver).
                if let (Some(id), Some(dest)) = (e.disp, e.target) {
                    push(t_end, seq, img, Action::Hb(HbEdge::Send { ns: NS_EVENT, token: id, dest }));
                }
            }
            Op::EventWait => {
                if let Some(id) = e.disp {
                    push(t_end, seq, img, Action::Hb(HbEdge::Recv { ns: NS_EVENT, token: id }));
                }
            }
            Op::Barrier | Op::Reduction | Op::Alltoall => {
                if let Some(team) = e.disp {
                    // Offline member counts are unknown: `usize::MAX`
                    // keeps rounds alive, bounded by the number of
                    // collectives.
                    push(t0, seq, img, Action::Hb(HbEdge::CollEnter { team }));
                    let exit = HbEdge::CollExit { team, members: usize::MAX };
                    push(t_end, seq, img, Action::Hb(exit));
                }
            }
            Op::CoarrayWrite | Op::CoarrayRead => {
                if let (Some(region), Some(owner), Some(disp)) = (e.window, e.target, e.disp) {
                    let write = e.op == Op::CoarrayWrite;
                    let access = HbEdge::Access { region, owner, disp, len: e.bytes, write };
                    push(t0, seq, img, Action::Hb(access));
                }
            }
            _ => {}
        }
    }
    actions.sort_by_key(|&(t, seq, _, _)| (t, seq));

    let mut epoch = EpochChecker::new();
    let mut hb = RaceDetector::new(1 << 14);
    let mut open: HashSet<(u64, usize)> = HashSet::new();
    let mut out: Vec<Violation> = Vec::new();
    let none = ByteRange::new(0, 0);

    for (_, _, img, a) in actions {
        match a {
            Action::LockAll { win } => {
                epoch.lock_all(win, img, &mut out);
                open.insert((win, img));
            }
            Action::UnlockAll { win } => {
                let was = open.remove(&(win, img));
                epoch.unlock_all(win, img, was, &mut out);
            }
            Action::Free { win } => {
                let is_open = open.remove(&(win, img));
                epoch.free(win, img, is_open, &mut out);
            }
            Action::Put { win, target, range } => {
                let o = open.contains(&(win, img));
                epoch.rma_put(win, img, target, range, none, o, &mut out);
            }
            Action::Get { win, target, range } => {
                let o = open.contains(&(win, img));
                epoch.rma_get(win, img, target, range, none, o, &mut out);
            }
            Action::Atomic { win, target, range } => {
                let o = open.contains(&(win, img));
                epoch.rma_atomic(win, img, target, range, o, &mut out);
            }
            Action::Flush { win, target } => {
                let o = open.contains(&(win, img));
                epoch.flush(win, img, target, o, &mut out);
            }
            Action::FlushAll { win } => {
                let o = open.contains(&(win, img));
                epoch.flush_all(win, img, o, &mut out);
            }
            Action::Hb(edge) => hb.apply(img, edge, &mut out),
        }
    }

    Report {
        violations: out,
        dropped: unattributed,
        edges: Vec::new(),
    }
}

/// Convenience for tests: replay a hand-built event list.
pub fn check_events(events: Vec<TraceEvent>) -> Report {
    check_trace(&Trace {
        events,
        stalls: Vec::new(),
        dropped_events: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ViolationKind;
    use caf_trace::EventKind;

    fn ev(image: usize, op: Op, t0: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            image,
            op,
            kind: if dur == 0 { EventKind::Instant } else { EventKind::Span },
            t0_ns: t0,
            dur_ns: dur,
            target: None,
            bytes: 0,
            window: None,
            depth: 0,
            top_cat: false,
            disp: None,
        }
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
        let access = |img: usize, t0: u64, write: bool| {
            let mut e = ev(img, if write { Op::CoarrayWrite } else { Op::CoarrayRead }, t0, 1);
            e.window = Some(9);
            e.target = Some(0);
            e.disp = Some(0);
            e.bytes = 8;
            e
        };
        let mut notify = ev(0, Op::EventNotify, 20, 5);
        notify.disp = Some(42);
        notify.target = Some(1);
        let mut wait = ev(1, Op::EventWait, 21, 10);
        wait.disp = Some(42);

        // write(0) → notify(0) → wait(1) → read(1): clean.
        let r = check_events(vec![access(0, 10, true), notify.clone(), wait.clone(), access(1, 40, false)]);
        assert!(r.is_clean(), "{}", r.render());

        // Same accesses with no edge: a race.
        let r = check_events(vec![access(0, 10, true), access(1, 40, false)]);
        assert_eq!(r.of_kind(ViolationKind::CoarrayRace).len(), 1);
    }

    /// Regression: an event recorded by a thread that never called
    /// `caf_trace::set_image` carries image `usize::MAX`, and replaying
    /// it grew the detector's clock table to `usize::MAX + 1` entries —
    /// an `attempt to add with overflow` panic. Such events are skipped
    /// and counted.
    #[test]
    fn offline_skips_and_counts_unattributed_events() {
        let mut stray_access = ev(usize::MAX, Op::CoarrayWrite, 10, 1);
        stray_access.window = Some(9);
        stray_access.target = Some(0);
        stray_access.disp = Some(0);
        stray_access.bytes = 8;
        let mut stray_barrier = ev(usize::MAX, Op::Barrier, 20, 5);
        stray_barrier.disp = Some(5);
        let mut write = stray_access.clone();
        write.image = 1;
        write.t0_ns = 30;

        let r = check_events(vec![stray_access, stray_barrier, write]);
        assert!(r.violations.is_empty(), "{}", r.render());
        assert_eq!(r.dropped, 2);
        assert!(!r.is_clean(), "a report that skipped events says so");
    }

    #[test]
    fn offline_collective_round_synchronizes() {
        let access = |img: usize, t0: u64| {
            let mut e = ev(img, Op::CoarrayWrite, t0, 1);
            e.window = Some(9);
            e.target = Some(0);
            e.disp = Some(0);
            e.bytes = 8;
            e
        };
        let barrier = |img: usize, t0: u64| {
            let mut e = ev(img, Op::Barrier, t0, 10);
            e.disp = Some(5);
            e
        };
        let r = check_events(vec![
            access(0, 10),
            barrier(0, 20),
            barrier(1, 22),
            access(1, 50),
        ]);
        assert!(r.is_clean(), "{}", r.render());
    }
}
