//! Execution-mode parity: the caf-sched task executor is a pure
//! scheduling substrate, so every program must produce **byte-identical**
//! results under `ExecMode::Threads` (one OS thread per image, the
//! paper-faithful default) and `ExecMode::Tasks` (images as carrier
//! threads passing a few run slots between them). The comparison covers
//! the four workload families the runtime exercises — RandomAccess routing,
//! event notify/wait release, `finish` termination, and the caf-agg
//! coalescing path — on both substrates, plus the modeled delay-meter
//! deltas (schedule-independent by design; an executor that changed them
//! would be perturbing the communication schedule itself). On one run
//! slot the executor goes further: a job's trace is the same on every
//! run.

use caf::{
    AsyncOpts, CafConfig, CafUniverse, Coarray, ExecConfig, ExecMode, SubstrateKind,
};
use caf_bench::fast;
use caf_hpcc::ra::{self, RaOpts};
use proptest::prelude::*;

/// The same base configuration under both execution modes. Three run
/// slots for the tasks: fewer slots than images, so the cooperative park
/// paths (not just the handoff) are load-bearing.
fn modes(kind: SubstrateKind) -> [CafConfig; 2] {
    let base = fast(kind);
    [
        CafConfig { exec: ExecConfig::default(), ..base },
        CafConfig {
            exec: ExecConfig { workers: 3, ..ExecConfig::tasks() },
            ..base
        },
    ]
}

fn fingerprint(table: &[u64]) -> Vec<u64> {
    let mut out = table.to_vec();
    let hash = table
        .iter()
        .enumerate()
        .fold(0xcbf29ce484222325u64, |acc, (i, &v)| {
            (acc ^ v.wrapping_add(i as u64)).wrapping_mul(0x100000001b3)
        });
    out.push(hash);
    out
}

/// The meter entries that are a pure function of the program: issue-side
/// charges. Receive-side dispatch counts are charged by whichever poll
/// drains the message, and the metered window can catch a straggler on
/// either side of its snapshot boundary depending on the schedule — see
/// `DelayOp::receive_side`.
fn issue_side(meter: &[(caf_fabric::DelayOp, u64, u64)]) -> Vec<(caf_fabric::DelayOp, u64, u64)> {
    meter.iter().copied().filter(|(op, _, _)| !op.receive_side()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Random put/notify/wait programs (the event release path): each
    /// image async-puts into other images' tables, notifies its targets,
    /// and waits for one post per remote writer.
    #[test]
    fn notify_programs_agree_across_exec_modes(
        writes in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..8, any::<u64>()),
            1..24,
        )
    ) {
        const P: usize = 4;
        const SLOTS: usize = 8;
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<_> = writes
            .into_iter()
            .filter(|&(_, t, s, _)| seen.insert((t, s)))
            .collect();

        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let mut results: Vec<Vec<Vec<u64>>> = Vec::new();
            for cfg in modes(kind) {
                let w = writes.clone();
                let out = CafUniverse::run_with_config(P, cfg, move |img| {
                    let world = img.team_world();
                    let ca: Coarray<u64> = img.coarray_alloc(&world, SLOTS);
                    let ev = img.event_alloc(&world);
                    let me = img.this_image();
                    for &(writer, target, slot, value) in &w {
                        if me == writer && target != me {
                            // Released by the event_notify loop below: `targets` is
                            // non-empty exactly when this image put. lint:allow(sync-protocol)
                            img.copy_async_put(&ca, target, slot, &[value], AsyncOpts::none());
                        } else if me == writer {
                            ca.local_write(img, slot, &[value]);
                        }
                    }
                    let mut targets: Vec<usize> = w
                        .iter()
                        .filter(|&&(wr, t, _, _)| wr == me && t != me)
                        .map(|&(_, t, _, _)| t)
                        .collect();
                    targets.sort_unstable();
                    targets.dedup();
                    for &t in &targets {
                        img.event_notify(&world, &ev, t);
                    }
                    let mut writers: Vec<usize> = w
                        .iter()
                        .filter(|&&(wr, t, _, _)| t == me && wr != me)
                        .map(|&(wr, _, _, _)| wr)
                        .collect();
                    writers.sort_unstable();
                    writers.dedup();
                    for _ in 0..writers.len() {
                        img.event_wait(&ev);
                    }
                    let table = ca.local_vec(img);
                    img.sync_all();
                    img.coarray_free(&world, ca);
                    fingerprint(&table)
                });
                results.push(out);
            }
            prop_assert_eq!(&results[1], &results[0]);
        }
    }

    /// Aggregated RandomAccess (caf-agg coalescing inside a `finish`
    /// block): tables AND the per-image modeled delay-meter deltas must
    /// match — batching decisions are functions of the update stream, not
    /// of when the image held a slot.
    #[test]
    fn aggregated_ra_agrees_across_exec_modes(updates in 1usize..64) {
        const P: usize = 8;
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let mut results = Vec::new();
            for cfg in modes(kind) {
                let cfg = CafConfig { agg: caf::AggConfig::on(), ..cfg };
                let out = CafUniverse::run_with_config(P, cfg, move |img| {
                    let world = img.team_world();
                    let o = ra::run_opts(
                        img,
                        &world,
                        4,
                        updates,
                        RaOpts { aggregated: true, ..RaOpts::default() },
                    );
                    (fingerprint(&o.local_table), issue_side(&o.meter_delta))
                });
                results.push(out);
            }
            prop_assert_eq!(&results[1], &results[0]);
        }
    }
}

/// Direct (staging-router) RandomAccess at P=64 — the largest job the
/// thread-per-image launcher is comfortable with, and well above the
/// slot count, on both substrates: tables and meter deltas identical.
#[test]
#[cfg_attr(miri, ignore = "spawns a 64-image job per mode")]
fn direct_ra_at_p64_agrees_across_exec_modes() {
    const P: usize = 64;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let mut results = Vec::new();
        for cfg in modes(kind) {
            let out = CafUniverse::run_with_config(P, cfg, |img| {
                let world = img.team_world();
                let o = ra::run_opts(
                    img,
                    &world,
                    4,
                    32,
                    RaOpts { async_puts: true, ..RaOpts::default() },
                );
                (fingerprint(&o.local_table), issue_side(&o.meter_delta))
            });
            results.push(out);
        }
        assert_eq!(results[1], results[0], "substrate {kind:?}");
    }
}

/// P=1024 under `Tasks`: the job the thread-per-image launcher cannot
/// reasonably run is just another job for the executor. A neighbour ring
/// with a full release barrier — every image writes its right neighbour's
/// slot, synchronizes, and checks what its left neighbour wrote — and
/// then a second collective allocate while the first window is live,
/// written a third of the ring away: at this size the allocate's window
/// table comes out of ten Bruck rounds and a rotation, and a wrong entry
/// sends the write to the wrong image.
#[test]
#[cfg_attr(miri, ignore = "1024-image job (wall-clock scale)")]
fn p1024_ring_executes_for_real_under_tasks() {
    const P: usize = 1024;
    const FAR: usize = P / 3;
    let cfg = CafConfig {
        exec: ExecConfig::tasks(),
        ..fast(SubstrateKind::Mpi)
    };
    assert_eq!(cfg.exec.mode, ExecMode::Tasks);
    let out = CafUniverse::run_with_config(P, cfg, |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, 1);
        let me = img.this_image();
        let right = (me + 1) % P;
        ca.write(img, right, 0, &[me as u64 + 1]);
        img.sync_all();
        let mut got = [0u64; 2];
        ca.local_read(img, 0, &mut got[..1]);

        let far: Coarray<u64> = img.coarray_alloc(&world, 1);
        far.write(img, (me + FAR) % P, 0, &[me as u64 + 1]);
        img.sync_all();
        far.local_read(img, 0, &mut got[1..]);
        img.sync_all();
        img.coarray_free(&world, far);
        img.coarray_free(&world, ca);
        got
    });
    for (me, &got) in out.iter().enumerate() {
        let writers = [(me + P - 1) % P, (me + P - FAR) % P];
        assert_eq!(got, writers.map(|w| w as u64 + 1), "image {me} saw the wrong writer");
    }
}

/// One run slot makes the run order a pure function of the program: the
/// executor queues ready tasks FIFO and adds no choice of its own. So an
/// ungated one-slot job — a direct RandomAccess round, then an event
/// ring — records the same trace event sequence on every run. This is
/// what keeps a model-gate replay token valid: the gate runs every job
/// this way. `arg` (heap addresses for some ops) and the timestamps are
/// left out of the comparison.
#[test]
#[cfg_attr(miri, ignore = "two 16-image traced jobs per substrate")]
fn one_slot_jobs_record_the_same_trace_on_every_run() {
    const P: usize = 16;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let mut cfg = CafConfig {
            exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
            ..fast(kind)
        };
        cfg.gasnet.segment_size = 64 << 10;
        let run = || {
            let trace = caf_trace::TraceConfig {
                stall_threshold: None,
                ..caf_trace::TraceConfig::default()
            };
            let session = caf_trace::Session::start(trace).expect("no session on this thread");
            CafUniverse::run_with_config(P, cfg, |img| {
                let world = img.team_world();
                ra::run_opts(img, &world, 4, 32, RaOpts::default());
                let ev = img.event_alloc(&world);
                let me = img.this_image();
                img.event_notify(&world, &ev, (me + 1) % P);
                img.event_wait(&ev);
                img.sync_all();
            });
            let trace = session.finish();
            assert_eq!(trace.dropped_events, 0, "{kind:?}");
            trace
                .events
                .iter()
                .map(|e| (e.image, e.op, e.target, e.bytes, e.window, e.disp, e.depth))
                .collect::<Vec<_>>()
        };
        let first = run();
        assert!(!first.is_empty(), "{kind:?}: nothing traced");
        let second = run();
        let at = first.iter().zip(&second).position(|(a, b)| a != b);
        assert!(
            first == second,
            "{kind:?}: runs of {} and {} events differ from event {at:?} on",
            first.len(),
            second.len()
        );
    }
}
