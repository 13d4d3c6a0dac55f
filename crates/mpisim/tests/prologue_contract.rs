//! The window-operation prologue's contract, table-driven: every public
//! window operation, run by rank 0 of a two-rank job, with its
//! success-path observables pinned — the trace records it leaves, the
//! `DelayOp`s it is charged, the dirty set afterwards, and the `ModelOp`s
//! it announces to the explorer. An out-of-range target must leave none
//! of them. Two more rows pin whose the remembered peer segments are: the
//! window's, for its life and no longer.
//!
//! The trace session and the model gate see only the jobs this test's
//! thread launches, so nothing else in the process adds to what is pinned.

use std::sync::Arc;

use caf_fabric::sched::{self, Choice, Chooser, ModelOp, RunStatus, ANY_OWNER};
use caf_fabric::{DelayOp, FabricError};
use caf_mpisim::{AccOp, Mpi, Universe, Window};
use caf_trace::{EventKind, Op, Session, TraceConfig};

const P: usize = 2;

/// A trace record, minus its timestamps: `(op, kind, target, bytes, disp)`.
/// Every record of interest carries the window id, which is how they are
/// picked out of the timeline.
type Rec = (Op, EventKind, Option<usize>, u64, Option<u64>);

fn instant(op: Op, target: Option<usize>, bytes: u64, disp: Option<u64>) -> Rec {
    (op, EventKind::Instant, target, bytes, disp)
}

/// Stands for the origin buffer's address in a request's records: where
/// the buffer lives is the caller's business, that the records name it is
/// the replay's (caf-check's unit tests pin the pairing).
const BUF: Option<u64> = Some(u64::MAX - 1);

/// A request's life: opened over `bytes` of origin buffer, then waited.
fn request(bytes: u64) -> [Rec; 2] {
    [instant(Op::RequestOpen, None, bytes, BUF), instant(Op::RequestWait, None, 0, BUF)]
}

/// An announced memory operation, window-relative.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mem {
    Read(usize, u64, u64),
    Write(usize, u64, u64),
    Atomic(usize, u64, u64),
    /// Whole-window synchronization.
    Sync,
}

struct Row {
    name: &'static str,
    run: fn(&Mpi, &Window),
    trace: Vec<Rec>,
    charges: Vec<(DelayOp, u64)>,
    /// `Window::dirty_targets` once the operation has returned.
    dirty: &'static [usize],
    model: Vec<Mem>,
}

/// Every public window operation, in an order that makes each flush
/// follow a store (so "clears the dirty bit" is observable).
fn table() -> Vec<Row> {
    use DelayOp::*;
    use Mem::*;
    let row = |name, run, trace, charges, dirty, model| Row {
        name,
        run,
        trace,
        charges,
        dirty,
        model,
    };
    vec![
        row(
            "win_lock_all",
            |mpi, win| mpi.win_lock_all(win),
            vec![instant(Op::WinLockAll, None, 0, None)],
            vec![],
            &[],
            vec![Sync],
        ),
        row(
            "put",
            |mpi, win| mpi.put(win, 1, 8, &[1u64, 2]).unwrap(),
            vec![instant(Op::RmaPut, Some(1), 16, Some(8))],
            vec![(RmaPut, 1)],
            &[1],
            vec![Write(1, 8, 24)],
        ),
        row(
            "win_flush",
            |mpi, win| mpi.win_flush(win, 1).unwrap(),
            vec![instant(Op::WinFlush, Some(1), 0, None)],
            vec![(FlushPerTarget, 1)],
            &[],
            vec![Sync],
        ),
        row(
            "get",
            |mpi, win| {
                let mut out = [0u64; 2];
                mpi.get(win, 1, 8, &mut out).unwrap();
                assert_eq!(out, [1, 2]);
            },
            vec![instant(Op::RmaGet, Some(1), 16, Some(8))],
            vec![(RmaGet, 1)],
            &[],
            vec![Read(1, 8, 24)],
        ),
        row(
            "rput",
            |mpi, win| {
                mpi.rput(win, 1, 0, &[7u64]).unwrap().wait();
            },
            [vec![instant(Op::RmaPut, Some(1), 8, Some(0))], request(8).into()].concat(),
            vec![(RmaPut, 1)],
            &[1],
            vec![Write(1, 0, 8)],
        ),
        row(
            "rget",
            |mpi, win| assert_eq!(mpi.rget::<u64>(win, 1, 0, 1).unwrap().wait(), [7]),
            [vec![instant(Op::RmaGet, Some(1), 8, Some(0))], request(8).into()].concat(),
            vec![(RmaGet, 1)],
            &[1],
            vec![Read(1, 0, 8)],
        ),
        // Vector transfers: one record per element (stride gaps are not
        // claimed), one charge for the payload, one announce over the
        // whole strided span (4 elements, 3 apart).
        row(
            "put_vector",
            |mpi, win| mpi.put_vector(win, 1, 32, 3, &[1u64, 2, 3, 4]).unwrap(),
            [32, 56, 80, 104].map(|d| instant(Op::RmaPut, Some(1), 8, Some(d))).into(),
            vec![(RmaPut, 1)],
            &[1],
            vec![Write(1, 32, 32 + 96)],
        ),
        row(
            "get_vector",
            |mpi, win| {
                let mut out = [0u64; 4];
                mpi.get_vector(win, 1, 32, 3, &mut out).unwrap();
                assert_eq!(out, [1, 2, 3, 4]);
            },
            [32, 56, 80, 104].map(|d| instant(Op::RmaGet, Some(1), 8, Some(d))).into(),
            vec![(RmaGet, 1)],
            &[1],
            vec![Read(1, 32, 32 + 96)],
        ),
        // The issue charges the flush; the wait certifies it.
        row(
            "win_rflush + FlushRequest::wait",
            |mpi, win| mpi.win_rflush(win, 1).unwrap().wait(),
            vec![
                instant(Op::WinRflush, Some(1), 0, None),
                (Op::WinRflushWait, EventKind::Span, Some(1), 0, None),
            ],
            vec![(FlushPerTarget, 1)],
            &[],
            vec![Sync, Sync],
        ),
        row(
            "accumulate",
            |mpi, win| mpi.accumulate(win, 1, 0, &[1u64, 1], AccOp::Sum).unwrap(),
            vec![instant(Op::RmaAtomic, Some(1), 16, Some(0))],
            vec![(RmaAtomic, 1)],
            &[1],
            vec![Atomic(1, 0, 16)],
        ),
        row(
            "get_accumulate",
            |mpi, win| {
                let prev = mpi.get_accumulate(win, 1, 0, &[1u64, 1], AccOp::Sum);
                assert_eq!(prev.unwrap(), [8, 2]);
            },
            vec![instant(Op::RmaAtomic, Some(1), 16, Some(0))],
            vec![(RmaAtomic, 1)],
            &[1],
            vec![Atomic(1, 0, 16)],
        ),
        row(
            "fetch_and_op",
            |mpi, win| assert_eq!(mpi.fetch_and_op(win, 1, 8, 1u64, AccOp::Sum).unwrap(), 3),
            vec![instant(Op::RmaAtomic, Some(1), 8, Some(8))],
            vec![(RmaAtomic, 1)],
            &[1],
            vec![Atomic(1, 8, 16)],
        ),
        row(
            "compare_and_swap",
            |mpi, win| assert_eq!(mpi.compare_and_swap(win, 1, 8, 4u64, 0).unwrap(), 4),
            vec![instant(Op::RmaAtomic, Some(1), 8, Some(8))],
            vec![(RmaAtomic, 1)],
            &[1],
            vec![Atomic(1, 8, 16)],
        ),
        // Θ(P): one handshake per rank of the window, dirty or not; the
        // span's `bytes` carries the count.
        row(
            "win_flush_all",
            |mpi, win| mpi.win_flush_all(win).unwrap(),
            vec![(Op::WinFlushAll, EventKind::Span, None, P as u64, None)],
            vec![(FlushPerTarget, P as u64)],
            &[],
            vec![Sync],
        ),
        // Local accesses: announced and traced, never charged or marked.
        row(
            "win_write_local",
            |mpi, win| mpi.win_write_local(win, 16, &[5u64]).unwrap(),
            vec![instant(Op::WinStore, Some(0), 8, Some(16))],
            vec![],
            &[],
            vec![Write(0, 16, 24)],
        ),
        row(
            "win_read_local",
            |mpi, win| {
                let mut out = [0u64];
                mpi.win_read_local(win, 16, &mut out).unwrap();
                assert_eq!(out, [5]);
            },
            vec![instant(Op::WinLoad, Some(0), 8, Some(16))],
            vec![],
            &[],
            vec![Read(0, 16, 24)],
        ),
        row(
            "win_rmw_local_u64",
            |mpi, win| mpi.win_rmw_local_u64(win, 16, |v| v + 1).unwrap(),
            vec![instant(Op::WinLoad, Some(0), 8, Some(16)), instant(Op::WinStore, Some(0), 8, Some(16))],
            vec![],
            &[],
            vec![Read(0, 16, 24), Write(0, 16, 24)],
        ),
        row(
            "win_write_local_at",
            |mpi, win| mpi.win_write_local_at(win, 1, 24, &[9u64]).unwrap(),
            vec![instant(Op::WinStore, Some(1), 8, Some(24))],
            vec![],
            &[],
            vec![Write(1, 24, 32)],
        ),
        row(
            "win_read_local_at",
            |mpi, win| {
                let mut out = [0u64];
                mpi.win_read_local_at(win, 1, 24, &mut out).unwrap();
                assert_eq!(out, [9]);
            },
            vec![instant(Op::WinLoad, Some(1), 8, Some(24))],
            vec![],
            &[],
            vec![Read(1, 24, 32)],
        ),
        // Traced after its interior flush_all, which is its only cost.
        row(
            "win_unlock_all",
            |mpi, win| mpi.win_unlock_all(win).unwrap(),
            vec![
                (Op::WinFlushAll, EventKind::Span, None, P as u64, None),
                instant(Op::WinUnlockAll, None, 0, None),
            ],
            vec![(FlushPerTarget, P as u64)],
            &[],
            vec![Sync, Sync],
        ),
        // Collective: rank 1 is waiting in its own `win_free`. The barrier
        // inside charges p2p ops, which `charges` below does not list —
        // only the ops of the window layer are compared.
        row(
            "win_free_shared",
            |mpi, win| mpi.win_free_shared(win).unwrap(),
            vec![instant(Op::WinFree, None, 0, None)],
            vec![],
            &[],
            vec![Sync],
        ),
    ]
}

const WINDOW_OPS: [DelayOp; 4] = [
    DelayOp::RmaPut,
    DelayOp::RmaGet,
    DelayOp::RmaAtomic,
    DelayOp::FlushPerTarget,
];

fn window_charges(mpi: &Mpi) -> Vec<u64> {
    let meter = mpi.delay_meter();
    WINDOW_OPS.iter().map(|&op| meter.count(op)).collect()
}

/// Rank 0 runs the table; rank 1 only exposes its window. Returns the
/// window id (rank 0) for picking records out of the timeline.
fn program(mpi: &Mpi) -> u64 {
    let win = mpi.win_allocate(&mpi.world(), 256).unwrap();
    if mpi.rank() == 1 {
        // The barrier inside holds this rank's exposure open until rank 0
        // reaches its own `win_free_shared` row.
        mpi.win_free_shared(&win).unwrap();
        return win.id();
    }
    for row in table() {
        let before = window_charges(mpi);
        (row.run)(mpi, &win);
        let delta: Vec<(DelayOp, u64)> = WINDOW_OPS
            .iter()
            .zip(window_charges(mpi).iter().zip(&before))
            .filter(|(_, (after, before))| after != before)
            .map(|(&op, (after, before))| (op, after - before))
            .collect();
        assert_eq!(delta, row.charges, "{}: DelayOp counts", row.name);
        assert_eq!(win.dirty_targets(), row.dirty, "{}: dirty set", row.name);
    }
    win.id()
}

/// Out-of-range target: `RankOutOfRange` from every targeted operation,
/// before anything is charged or marked (the trace is checked by the
/// caller: it must hold no record at all).
fn out_of_range_program(mpi: &Mpi) -> u64 {
    let win = mpi.win_allocate(&mpi.world(), 64).unwrap();
    mpi.win_lock_all(&win);
    if mpi.rank() == 0 {
        let before = mpi.delay_meter().snapshot();
        let mut out = [0u64; 2];
        let results = [
            ("put", mpi.put(&win, 7, 0, &[1u64])),
            ("get", mpi.get(&win, 7, 0, &mut out)),
            ("rput", mpi.rput(&win, 7, 0, &[1u64]).map(|r| drop(r.wait()))),
            ("rget", mpi.rget::<u64>(&win, 7, 0, 1).map(|r| drop(r.wait()))),
            ("put_vector", mpi.put_vector(&win, 7, 0, 2, &[1u64, 2])),
            ("get_vector", mpi.get_vector(&win, 7, 0, 2, &mut out)),
            ("accumulate", mpi.accumulate(&win, 7, 0, &[1u64], AccOp::Sum)),
            ("get_accumulate", mpi.get_accumulate(&win, 7, 0, &[1u64], AccOp::Sum).map(drop)),
            ("fetch_and_op", mpi.fetch_and_op(&win, 7, 0, 1u64, AccOp::Sum).map(drop)),
            ("compare_and_swap", mpi.compare_and_swap(&win, 7, 0, 0u64, 1).map(drop)),
            ("win_flush", mpi.win_flush(&win, 7)),
            ("win_rflush", mpi.win_rflush(&win, 7).map(|r| r.wait())),
            ("win_write_local_at", mpi.win_write_local_at(&win, 7, 0, &[1u64])),
            ("win_read_local_at", mpi.win_read_local_at(&win, 7, 0, &mut out)),
        ];
        for (name, result) in results {
            assert!(
                matches!(result, Err(FabricError::RankOutOfRange { rank: 7, size: P })),
                "{name}: {result:?}"
            );
        }
        assert_eq!(mpi.delay_meter().snapshot(), before, "an error charges nothing");
        assert_eq!(win.dirty_count(), 0, "an error marks nothing");
    }
    let id = win.id();
    // Closed without `win_unlock_all`, which would trace its flush.
    mpi.win_free(win).unwrap();
    id
}

/// Each rank writes its peer's part of a window, frees the window, and
/// does the same on a fresh one. A window resolves a peer's segment on
/// first touch and remembers it — per window, never per endpoint:
///
/// * "put after win_free + win_allocate": the second put lands in the new
///   window's segment and leaves the freed one's bytes alone;
/// * "win_free releases the peers": the collective free drops the
///   registry's handle, the window's own and the one the peer's window
///   remembered — the exposed memory is the holder's alone again.
fn realloc_program(mpi: &Mpi) {
    let world = mpi.world();
    let peer = 1 - mpi.rank();
    let touch = |value: u64| {
        let win = mpi.win_allocate(&world, 64).unwrap();
        // lint:allow(segment-direct) counts the handles, moves no data through them
        let exposed = Arc::clone(win.local_segment());
        // The registry, the window, this function.
        assert_eq!(Arc::strong_count(&exposed), 3);
        mpi.barrier(&world).unwrap();
        mpi.win_lock_all(&win);
        mpi.put(&win, peer, 0, &[value]).unwrap();
        mpi.put(&win, peer, 8, &[value]).unwrap();
        mpi.win_flush(&win, peer).unwrap();
        mpi.barrier(&world).unwrap();
        assert_eq!(Arc::strong_count(&exposed), 4, "the peer's window resolved once, for two puts");
        mpi.win_unlock_all(&win).unwrap();
        mpi.win_free(win).unwrap();
        mpi.barrier(&world).unwrap();
        assert_eq!(Arc::strong_count(&exposed), 1, "win_free releases the peers");
        exposed
    };
    let word = |seg: &caf_fabric::Segment| {
        let mut out = [0u8; 8];
        seg.get(0, &mut out).unwrap();
        u64::from_ne_bytes(out)
    };
    let first = touch(0xA);
    let second = touch(0xB);
    assert_eq!((word(&first), word(&second)), (0xA, 0xB), "put after win_free + win_allocate");
}

/// Rank 0's records on window `win`, in program order.
fn window_records(trace: &caf_trace::Trace, win: u64) -> Vec<Rec> {
    trace
        .events
        .iter()
        .filter(|e| e.image == 0 && e.window == Some(win))
        .map(|e| {
            let request = matches!(e.op, Op::RequestOpen | Op::RequestWait | Op::RequestDrop);
            (e.op, e.kind, e.target, e.bytes, if request { BUF } else { e.disp })
        })
        .collect()
}

struct RankZeroFirst;

impl Chooser for RankZeroFirst {
    fn choose(&mut self, _step: usize, enabled: &[usize], _pending: &[(usize, ModelOp)]) -> Choice {
        Choice::Pick(enabled[0])
    }
}

#[test]
fn every_window_op_keeps_its_observables() {
    // Trace records, charges and dirty bits, gate disarmed.
    let session = Session::start(TraceConfig {
        stall_threshold: None,
        ..TraceConfig::default()
    })
    .unwrap();
    let win = Universe::run(P, program)[0];
    let got = window_records(&session.finish(), win);
    let mut cursor = got.iter().cloned();
    for row in table() {
        let records: Vec<Rec> = cursor.by_ref().take(row.trace.len()).collect();
        assert_eq!(records, row.trace, "{}: trace records", row.name);
    }
    assert_eq!(cursor.next(), None, "records nobody expected");

    // The announced ModelOps, under the gate.
    sched::arm(P, 100_000, Box::new(RankZeroFirst)).unwrap();
    let win = Universe::run(P, program)[0];
    let outcome = sched::disarm().unwrap();
    assert!(matches!(outcome.status, RunStatus::Completed), "{:?}", outcome.status);
    let region = win | 1 << 63;
    let mut announced = outcome
        .steps
        .iter()
        .filter(|s| s.chosen == 0 && !s.retry)
        .filter_map(|s| match s.op {
            ModelOp::Atomic { region: r, owner: ANY_OWNER, .. } if r == region => Some(Mem::Sync),
            ModelOp::Read { region: r, owner, lo, hi } if r == region => Some(Mem::Read(owner, lo, hi)),
            ModelOp::Write { region: r, owner, lo, hi } if r == region => Some(Mem::Write(owner, lo, hi)),
            ModelOp::Atomic { region: r, owner, lo, hi } if r == region => Some(Mem::Atomic(owner, lo, hi)),
            _ => None,
        });
    for row in table() {
        let ops: Vec<Mem> = announced.by_ref().take(row.model.len()).collect();
        assert_eq!(ops, row.model, "{}: ModelOp sequence", row.name);
    }
    assert_eq!(announced.next(), None, "announces nobody expected");

    // The error path leaves no record either: all the window's timeline
    // holds is the epoch being opened and the window being freed.
    let session = Session::start(TraceConfig {
        stall_threshold: None,
        ..TraceConfig::default()
    })
    .unwrap();
    let win = Universe::run(P, out_of_range_program)[0];
    assert_eq!(
        window_records(&session.finish(), win),
        [
            instant(Op::WinLockAll, None, 0, None),
            instant(Op::WinFree, None, 0, None)
        ]
    );

    Universe::run(P, realloc_program);
}
