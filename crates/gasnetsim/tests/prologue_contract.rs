//! The segment-operation prologue's contract, table-driven: every public
//! segment operation, run by rank 0 of a two-rank job, with its
//! success-path observables pinned — the trace records it leaves, the
//! `DelayOp`s it is charged, and the `ModelOp`s it announces to the
//! explorer. One more row pins the remembered peer segment: resolved
//! once, and never a way around the fault screen.
//!
//! The trace session and the model gate see only the jobs this test's
//! thread launches, so nothing else in the process adds to what is pinned.

use std::sync::Arc;

use caf_fabric::sched::{self, Choice, Chooser, ModelOp, RunStatus};
use caf_fabric::{DelayOp, Fabric, FabricConfig, FabricError};
use caf_gasnetsim::{Gasnet, GasnetConfig, GasnetUniverse, FIRST_USER_HANDLER};
use caf_trace::{Op, Session, TraceConfig};

/// A put/get trace record: `(op, target, bytes)`; GASNet records carry
/// neither window nor displacement.
type Rec = (Op, Option<usize>, u64);

/// An announced segment access: `(owner, lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mem {
    Read(usize, u64, u64),
    Write(usize, u64, u64),
}

struct Row {
    name: &'static str,
    run: fn(&Gasnet),
    trace: Vec<Rec>,
    charges: Vec<(DelayOp, u64)>,
    model: Vec<Mem>,
}

fn table() -> Vec<Row> {
    use DelayOp::*;
    use Mem::*;
    let row = |name, run, trace, charges, model| Row {
        name,
        run,
        trace,
        charges,
        model,
    };
    vec![
        row(
            "put",
            |g| g.put(1, 8, &[1u64, 2]).unwrap(),
            vec![(Op::GasnetPut, Some(1), 16)],
            vec![(RmaPut, 1)],
            vec![Write(1, 8, 24)],
        ),
        row(
            "put_nbi",
            |g| g.put_nbi(1, 0, &[7u64]).unwrap(),
            vec![(Op::GasnetPut, Some(1), 8)],
            vec![(RmaPut, 1)],
            vec![Write(1, 0, 8)],
        ),
        row(
            "get",
            |g| {
                let mut out = [0u64; 3];
                g.get(1, 0, &mut out).unwrap();
                assert_eq!(out, [7, 1, 2]);
            },
            vec![(Op::GasnetGet, Some(1), 24)],
            vec![(RmaGet, 1)],
            vec![Read(1, 0, 24)],
        ),
        // Strided transfers: no trace record, one charge for the payload,
        // one announce over the whole strided span (4 elements, 3 apart).
        row(
            "put_strided",
            |g| g.put_strided(1, 32, 3, &[1u64, 2, 3, 4]).unwrap(),
            vec![],
            vec![(RmaPut, 1)],
            vec![Write(1, 32, 32 + 96)],
        ),
        row(
            "get_strided",
            |g| {
                let mut out = [0u64; 4];
                g.get_strided(1, 32, 3, &mut out).unwrap();
                assert_eq!(out, [1, 2, 3, 4]);
            },
            vec![],
            vec![(RmaGet, 1)],
            vec![Read(1, 32, 32 + 96)],
        ),
        // At or above `put_via_am_threshold` a put is a long AM: its
        // deposit is priced as a put and announced as a write, but only
        // the AM is traced. (Issue-side charges only: the ack's dispatch
        // is charged when the poll that finds it runs.)
        row(
            "put (AM-mediated)",
            |g| g.put(1, 192, &[3u64; 8]).unwrap(),
            vec![],
            vec![(P2pInject, 1), (RmaPut, 1)],
            vec![Write(1, 192, 256)],
        ),
        // The same deposit, reached through the public long AM.
        row(
            "am_request_long",
            |g| g.am_request_long(1, FIRST_USER_HANDLER, &[], &[9u8; 8], 128).unwrap(),
            vec![],
            vec![(P2pInject, 1), (RmaPut, 1)],
            vec![Write(1, 128, 136)],
        ),
        // Local accesses: announced, never traced or charged.
        row(
            "write_local",
            |g| g.write_local(16, &[5u64]).unwrap(),
            vec![],
            vec![],
            vec![Write(0, 16, 24)],
        ),
        row(
            "read_local",
            |g| {
                let mut out = [0u64];
                g.read_local(16, &mut out).unwrap();
                assert_eq!(out, [5]);
            },
            vec![],
            vec![],
            vec![Read(0, 16, 24)],
        ),
        row(
            "rmw_local_u64",
            |g| g.rmw_local_u64(16, |v| v + 1).unwrap(),
            vec![],
            vec![],
            vec![Read(0, 16, 24), Write(0, 16, 24)],
        ),
    ]
}

/// Rank 0 runs the table between two barriers; rank 1 only keeps its
/// segment attached (and runs the long AM's handler in the second one).
fn program(g: &Gasnet) {
    caf_trace::set_image(g.rank());
    g.register_handler(FIRST_USER_HANDLER, |_g, _tok, _args, data| {
        assert_eq!(data, [9u8; 8]);
    });
    g.barrier();
    if g.rank() == 0 {
        for row in table() {
            let before = g.delay_meter().snapshot();
            (row.run)(g);
            let delta: Vec<(DelayOp, u64)> = g
                .delay_meter()
                .snapshot()
                .iter()
                .zip(&before)
                .filter(|(after, before)| !after.0.receive_side() && after.1 != before.1)
                .map(|(after, before)| (after.0, after.1 - before.1))
                .collect();
            assert_eq!(delta, row.charges, "{}: DelayOp counts", row.name);
        }
    }
    g.barrier();
}

/// "repeated ops resolve once, screened every time": rank 0 touches rank
/// 1's segment three times and the registry hands out one handle, held
/// for as long as the library is attached; the fault screen still runs
/// ahead of it on every operation — once rank 1 is dead a store is
/// dropped uncharged and a load fails, remembered segment or not.
fn memo_program(g: &Gasnet) {
    // The registry and the library.
    // lint:allow(segment-direct) counts the handles, moves no data through them
    let attached = Arc::strong_count(g.local_segment());
    g.barrier();
    if g.rank() == 0 {
        let mut out = [0u64];
        g.put(1, 0, &[7u64]).unwrap();
        g.get(1, 0, &mut out).unwrap();
        g.put(1, 8, &[out[0] + 1]).unwrap();
    }
    g.barrier();
    if g.rank() == 1 {
        // lint:allow(segment-direct) as above
        assert_eq!(Arc::strong_count(g.local_segment()), attached + 1, "resolved once");
        g.fail_now();
    }
    while !g.fault().is_failed(1) {
        std::thread::yield_now();
    }
    let before = g.delay_meter().snapshot();
    let mut out = [0u64];
    for _ in 0..2 {
        let load = g.get(1, 0, &mut out);
        assert!(matches!(&load, Err(FabricError::ImageFailed { failed }) if failed == &[1]), "{load:?}");
        g.put(1, 0, &[9u64]).unwrap();
    }
    assert_eq!(g.delay_meter().snapshot(), before, "a dropped operation costs nothing");
}

/// Puts of 64 bytes and more travel as long AMs.
fn config() -> GasnetConfig {
    GasnetConfig {
        put_via_am_threshold: Some(64),
        ..GasnetConfig::default()
    }
}

struct FirstEnabled;

impl Chooser for FirstEnabled {
    fn choose(&mut self, _step: usize, enabled: &[usize], _pending: &[(usize, ModelOp)]) -> Choice {
        Choice::Pick(enabled[0])
    }
}

#[test]
fn every_segment_op_keeps_its_observables() {
    // Trace records and charges, gate disarmed.
    let session = Session::start(TraceConfig {
        stall_threshold: None,
        ..TraceConfig::default()
    })
    .unwrap();
    GasnetUniverse::run_with_config(2, config(), program);
    let trace = session.finish();
    let mut got = trace
        .events
        .iter()
        .filter(|e| e.image == 0 && matches!(e.op, Op::GasnetPut | Op::GasnetGet))
        .map(|e| {
            assert_eq!((e.window, e.disp), (None, None));
            (e.op, e.target, e.bytes)
        });
    for row in table() {
        let records: Vec<Rec> = got.by_ref().take(row.trace.len()).collect();
        assert_eq!(records, row.trace, "{}: trace records", row.name);
    }
    assert_eq!(got.next(), None, "records nobody expected");

    // The announced ModelOps, under the gate.
    sched::arm(2, 100_000, Box::new(FirstEnabled)).unwrap();
    GasnetUniverse::run_with_config(2, config(), program);
    let outcome = sched::disarm().unwrap();
    assert!(matches!(outcome.status, RunStatus::Completed), "{:?}", outcome.status);
    let mut announced = outcome
        .steps
        .iter()
        .filter(|s| !s.retry)
        .filter_map(|s| match s.op {
            ModelOp::Read { owner, lo, hi, .. } => Some((s.chosen, Mem::Read(owner, lo, hi))),
            ModelOp::Write { owner, lo, hi, .. } => Some((s.chosen, Mem::Write(owner, lo, hi))),
            _ => None,
        })
        .filter(|&(image, _)| image == 0)
        .map(|(_, mem)| mem);
    for row in table() {
        let ops: Vec<Mem> = announced.by_ref().take(row.model.len()).collect();
        assert_eq!(ops, row.model, "{}: ModelOp sequence", row.name);
    }
    assert_eq!(announced.next(), None, "announces nobody expected");

    let survived = Fabric::run_with_config_ft(2, FabricConfig::default(), |ep| {
        memo_program(&Gasnet::init(ep, GasnetConfig::default()))
    });
    assert!(survived[0].is_some() && survived[1].is_none());
}
