//! The modeled programs: small, closed CAF jobs whose schedule spaces the
//! explorer walks. Shared by `tests/model_explore.rs` and the
//! `figures model` section so both always talk about the same programs.
//!
//! Every scenario is a plain `fn()` that runs one complete job
//! (`CafUniverse::run_with_config` or `Fabric::run`); the explorer arms
//! the scheduler gate around it and re-runs it once per schedule, so
//! scenario bodies must be self-contained and repeatable.

use caf::{
    AggConfig, AsyncOpts, CafConfig, CafUniverse, Coarray, FaultPlan, FlushMode, GasnetConfig,
    KillSite, SubstrateKind,
};
use caf_fabric::{Fabric, Packet};

/// One modeled program.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Display name (`figures model` rows, test messages).
    pub name: &'static str,
    /// Image count the job spawns (the gate is armed for exactly this).
    pub images: usize,
    /// Run the whole job once.
    pub run: fn(),
}

/// Fabric-level ping-pong, two ranks, two rounds. The smallest scenario
/// with real branching (each rank's sends are independent of the peer's),
/// used to measure the sleep-set reduction factor against naive
/// enumeration.
pub fn ping_pong() -> Scenario {
    Scenario { name: "ping-pong (fabric)", images: 2, run: ping_pong_run }
}

fn ping_pong_run() {
    Fabric::run(2, |ep| {
        let peer = 1 - ep.rank();
        for round in 0..2i64 {
            ep.send(peer, Packet::control(ep.rank(), 1, round, [0; 4])).unwrap();
            let p = ep.recv_blocking().unwrap();
            assert_eq!(p.tag, round);
        }
    });
}

/// The quickstart ring: write to the right neighbour, `sync_all`, read
/// locally. Race-free in every interleaving — the clean baseline.
pub fn ring(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => Scenario { name: "ring (CAF-MPI)", images: 2, run: ring_mpi },
        SubstrateKind::Gasnet => {
            Scenario { name: "ring (CAF-GASNet)", images: 2, run: ring_gasnet }
        }
    }
}

fn ring_mpi() {
    ring_run(SubstrateKind::Mpi);
}

fn ring_gasnet() {
    ring_run(SubstrateKind::Gasnet);
}

fn ring_run(kind: SubstrateKind) {
    CafUniverse::run_with_config(2, CafConfig::on(kind), |img| {
        let world = img.team_world();
        let me = img.this_image();
        let ca: Coarray<u64> = img.coarray_alloc(&world, 2);
        let right = (me + 1) % img.num_images();
        ca.write(img, right, 0, &[me as u64 + 100]);
        img.sync_all();
        let left = (me + 1) % 2;
        assert_eq!(ca.local_vec(img)[0], left as u64 + 100);
        img.coarray_free(&world, ca);
    });
}

/// Event ping-pong: image 0 writes and notifies, image 1 waits, reads,
/// writes back and notifies. Event notify/wait carries the
/// happens-before edge, so every interleaving is clean.
pub fn event_ping_pong(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => {
            Scenario { name: "event ping-pong (CAF-MPI)", images: 2, run: event_pp_mpi }
        }
        SubstrateKind::Gasnet => {
            Scenario { name: "event ping-pong (CAF-GASNet)", images: 2, run: event_pp_gasnet }
        }
    }
}

fn event_pp_mpi() {
    event_pp_run(SubstrateKind::Mpi);
}

fn event_pp_gasnet() {
    event_pp_run(SubstrateKind::Gasnet);
}

fn event_pp_run(kind: SubstrateKind) {
    CafUniverse::run_with_config(2, CafConfig::on(kind), |img| {
        let world = img.team_world();
        let me = img.this_image();
        let ca: Coarray<u64> = img.coarray_alloc(&world, 1);
        let ev = img.event_alloc(&world);
        if me == 0 {
            ca.write(img, 1, 0, &[7]);
            img.event_notify(&world, &ev, 1);
            img.event_wait(&ev);
            assert_eq!(ca.local_vec(img)[0], 9);
        } else {
            img.event_wait(&ev);
            assert_eq!(ca.local_vec(img)[0], 7);
            ca.write(img, 0, 0, &[9]);
            img.event_notify(&world, &ev, 0);
        }
        img.coarray_free(&world, ca);
    });
}

/// One miniature RandomAccess round: every image updates one distinct
/// slot of every other image's table, then all verify after `sync_all`.
/// Disjoint slots, so clean on both substrates.
pub fn ra_round(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => {
            Scenario { name: "RandomAccess round (CAF-MPI)", images: 2, run: ra_mpi }
        }
        SubstrateKind::Gasnet => {
            Scenario { name: "RandomAccess round (CAF-GASNet)", images: 2, run: ra_gasnet }
        }
    }
}

fn ra_mpi() {
    ra_run(SubstrateKind::Mpi, 2);
}

fn ra_gasnet() {
    ra_run(SubstrateKind::Gasnet, 2);
}

/// [`ra_round`] at sixteen images: about 1 500 scheduling steps per
/// schedule, where the two-image round takes 40.
pub fn ra_round_p16(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => {
            Scenario { name: "RandomAccess round, P=16 (CAF-MPI)", images: 16, run: ra16_mpi }
        }
        SubstrateKind::Gasnet => {
            Scenario { name: "RandomAccess round, P=16 (CAF-GASNet)", images: 16, run: ra16_gasnet }
        }
    }
}

fn ra16_mpi() {
    ra_run(SubstrateKind::Mpi, 16);
}

fn ra16_gasnet() {
    ra_run(SubstrateKind::Gasnet, 16);
}

/// GASNet segments are 64 KiB, which the round's few words fit many
/// times over: zero-filling sixteen of the default 4 MiB would cost more
/// than a schedule.
fn ra_run(kind: SubstrateKind, images: usize) {
    let mut cfg = CafConfig::on(kind);
    cfg.gasnet.segment_size = 64 << 10;
    CafUniverse::run_with_config(images, cfg, |img| {
        let world = img.team_world();
        let me = img.this_image();
        let n = img.num_images();
        let table: Coarray<u64> = img.coarray_alloc(&world, n);
        img.sync_all();
        for other in 0..n {
            let update = ((me as u64) << 8) | other as u64;
            if other == me {
                table.local_write(img, me, &[update]);
            } else {
                table.write(img, other, me, &[update]);
            }
        }
        img.sync_all();
        let v = table.local_vec(img);
        for (slot, val) in v.iter().enumerate() {
            assert_eq!(*val, ((slot as u64) << 8) | me as u64, "slot {slot} on image {me}");
        }
        img.coarray_free(&world, table);
    });
}

/// The paper's Figure 2 on the hazardous configuration: GASNet with
/// AM-mediated puts and a co-resident MPI library. Image 0's coarray
/// write completes only when image 1 makes GASNet progress; image 1 is
/// blocked in `MPI_Barrier`, which never polls GASNet. Every
/// interleaving deadlocks — the explorer reports the wait-for cycle
/// instead of hanging.
pub fn fig2_deadlock() -> Scenario {
    Scenario { name: "Fig 2 (GASNet AM put vs MPI barrier)", images: 2, run: fig2_run }
}

fn fig2_run() {
    let cfg = CafConfig {
        substrate: SubstrateKind::Gasnet,
        gasnet: GasnetConfig {
            put_via_am_threshold: Some(1),
            ..GasnetConfig::default()
        },
        hybrid_mpi: true,
        ..CafConfig::default()
    };
    CafUniverse::run_with_config(2, cfg, |img| {
        let world = img.team_world();
        let a: Coarray<u64> = img.coarray_alloc(&world, 4);
        if img.this_image() == 0 {
            // A(:)[1] = A(:) — blocks on the target's GASNet progress.
            a.write(img, 1, 0, &[7, 8, 9, 10]);
        }
        // CALL MPI_BARRIER — the duplicate runtime, which makes no GASNet
        // progress while blocked.
        let mpi = img.mpi().expect("hybrid MPI library");
        mpi.barrier(&mpi.world()).expect("barrier");
        img.coarray_free(&world, a);
    });
}

/// A schedule-dependent unflushed-put bug on CAF-MPI: image 1 issues an
/// implicitly synchronized `copy_async_put` into image 0's slot and only
/// later completes it; image 0 meanwhile loads the same slot locally. In
/// the default (image-0-first) interleaving the read happens before the
/// put and nothing is wrong; in interleavings where the put lands first,
/// the read observes window memory an unflushed put still targets —
/// `read_before_flush`.
pub fn unflushed_put() -> Scenario {
    Scenario { name: "unflushed put vs local read (CAF-MPI)", images: 2, run: unflushed_run }
}

/// The targeted-flush release path (CAF-MPI, `FlushMode::Targeted`): an
/// async put left dirty until `event_notify`, whose release barrier
/// flushes only the dirty `(window, target)` pair. Correct under every
/// interleaving — the epoch oracle must stay silent across the schedule
/// space (if targeted flushing under-flushed, some schedule would read
/// window memory with a put still pending).
pub fn targeted_flush_release() -> Scenario {
    Scenario {
        name: "targeted-flush release (CAF-MPI)",
        images: 2,
        run: targeted_release_run,
    }
}

fn targeted_release_run() {
    flush_release_run(FlushMode::Targeted);
}

/// As [`targeted_flush_release`], under `FlushMode::Rflush`: the release
/// barrier *issues* non-blocking per-target flushes, overlaps the local
/// waitall, and completes them before the notification is sent.
pub fn rflush_release() -> Scenario {
    Scenario {
        name: "rflush release (CAF-MPI)",
        images: 2,
        run: rflush_release_run,
    }
}

fn rflush_release_run() {
    flush_release_run(FlushMode::Rflush);
}

fn flush_release_run(flush: FlushMode) {
    let cfg = CafConfig {
        flush,
        ..CafConfig::on(SubstrateKind::Mpi)
    };
    CafUniverse::run_with_config(2, cfg, |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, 1);
        let ev = img.event_alloc(&world);
        if img.this_image() == 0 {
            img.copy_async_put(&ca, 1, 0, &[0xD1E7], AsyncOpts::none());
            img.event_notify(&world, &ev, 1);
        } else {
            img.event_wait(&ev);
            // The notify's targeted release barrier guarantees the put is
            // remotely complete before the post is observable.
            assert_eq!(ca.local_vec(img)[0], 0xD1E7);
        }
        img.sync_all();
        img.coarray_free(&world, ca);
    });
}

/// Aggregated enqueue/drain/notify: image 0's small puts park in a
/// bucket until `event_notify` drains them as ONE batched AM; the notify
/// AM follows the batch on the same FIFO rt channel, so in every
/// interleaving the waiter observes all records once the post lands.
/// Clean under the full oracle across the schedule space — the batch
/// token's happens-before edge must cover every coalesced record.
pub fn agg_notify_release(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => Scenario {
            name: "agg enqueue/drain/notify (CAF-MPI)",
            images: 2,
            run: agg_notify_mpi,
        },
        SubstrateKind::Gasnet => Scenario {
            name: "agg enqueue/drain/notify (CAF-GASNet)",
            images: 2,
            run: agg_notify_gasnet,
        },
    }
}

fn agg_notify_mpi() {
    agg_notify_run(SubstrateKind::Mpi);
}

fn agg_notify_gasnet() {
    agg_notify_run(SubstrateKind::Gasnet);
}

fn agg_notify_run(kind: SubstrateKind) {
    let cfg = CafConfig {
        agg: AggConfig::on(),
        ..CafConfig::on(kind)
    };
    CafUniverse::run_with_config(2, cfg, |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, 4);
        let ev = img.event_alloc(&world);
        if img.this_image() == 0 {
            for i in 0..4 {
                img.copy_async_put(&ca, 1, i, &[0xA660 + i as u64], AsyncOpts::none());
            }
            img.event_notify(&world, &ev, 1);
        } else {
            img.event_wait(&ev);
            for (i, v) in ca.local_vec(img).iter().enumerate() {
                assert_eq!(*v, 0xA660 + i as u64, "record {i} lost or torn");
            }
        }
        img.sync_all();
        img.coarray_free(&world, ca);
    });
}

/// Bucket drains racing `finish`'s termination detection (hypercube
/// routing on): both images coalesce accumulates to each other, the
/// drain ships batches whose target-side application increments the
/// completion counters Yang's loop sums. If a schedule let `finish`
/// declare quiescence while a batch was still in flight (or applied a
/// record after the block exited), the post-finish assertions would see
/// partial sums on some interleaving.
pub fn agg_drain_races_finish() -> Scenario {
    Scenario {
        name: "agg drain vs finish termination (CAF-MPI, routed)",
        images: 2,
        run: agg_drain_finish_run,
    }
}

fn agg_drain_finish_run() {
    let cfg = CafConfig {
        agg: AggConfig::routed(),
        ..CafConfig::on(SubstrateKind::Mpi)
    };
    CafUniverse::run_with_config(2, cfg, |img| {
        let world = img.team_world();
        let me = img.this_image();
        let peer = 1 - me;
        let ca: Coarray<u64> = img.coarray_alloc(&world, 2);
        img.finish(&world, |img| {
            img.agg_accumulate_add(&ca, peer, 0, me as u64 + 1);
            img.agg_accumulate_xor(&ca, peer, 1, 0xB0 | me as u64);
            img.agg_accumulate_add(&ca, me, 0, 10);
        });
        // finish completed: both the peer's batch and the self-applied
        // accumulate must be fully visible.
        let v = ca.local_vec(img);
        assert_eq!(v[0], peer as u64 + 1 + 10, "partial sum after finish");
        assert_eq!(v[1], 0xB0 | peer as u64, "xor record lost after finish");
        img.coarray_free(&world, ca);
    });
}

/// Node ids from the committed `LINT_WAITGRAPH.json` that the
/// wait-graph-seeded scenario drives schedules against. CAFL009's
/// static pass proved no held-across edge connects them; this scenario
/// contends on exactly these lock/park classes so the explorer would
/// surface a deadlock counterexample if the static claim ever went
/// stale (a guard growing across a park site, a new lock-order
/// inversion). `tests/model_explore.rs` asserts each id is present in
/// the committed graph, coupling the scenario to the artifact.
pub const WAITGRAPH_TARGETED_NODES: &[&str] = &[
    "lock:core/slots",
    "lock:fabric/queue",
    "park:core/wait",
    "park:fabric/model_blocking",
    "park:fabric/yield_op",
];

/// The wait-graph-seeded scenario: ship-registry contention
/// (`lock:core/slots` taken from both images while Yang's finish
/// accounting parks and unparks them) followed by an async-put
/// notify/wait handshake (`park:core/wait` with the release barrier in
/// flight). Every lock class in [`WAITGRAPH_TARGETED_NODES`] is
/// acquired on paths that interleave with every park class — the
/// dynamic complement of the static wait graph.
pub fn waitgraph_targeted() -> Scenario {
    Scenario {
        name: "wait-graph targeted (CAF-MPI, ship+event)",
        images: 2,
        run: waitgraph_targeted_run,
    }
}

fn waitgraph_targeted_run() {
    CafUniverse::run_with_config(2, CafConfig::on(SubstrateKind::Mpi), |img| {
        let world = img.team_world();
        let me = img.this_image();
        let peer = 1 - me;
        let ca: Coarray<u64> = img.coarray_alloc(&world, 2);
        let ev = img.event_alloc(&world);
        // Both images park a closure in the ship slot registry and the
        // peer's executor claims it: lock:core/slots from two sides,
        // racing finish's termination detection.
        img.finish(&world, |img| {
            let c = ca.clone();
            img.ship(&world, peer, move |exec| {
                c.local_write(exec, 0, &[me as u64 + 0x50]);
            });
        });
        // Async put released by the notify; the waiter sits parked in
        // the event machinery until the post lands.
        img.copy_async_put(&ca, peer, 1, &[me as u64 + 0x60], AsyncOpts::none());
        img.event_notify(&world, &ev, peer);
        img.event_wait(&ev);
        let v = ca.local_vec(img);
        assert_eq!(v[0], peer as u64 + 0x50, "shipped write lost");
        assert_eq!(v[1], peer as u64 + 0x60, "put not released by notify");
        img.sync_all();
        img.coarray_free(&world, ca);
    });
}

// ---------------------------------------------------------------------------
// Failure scenarios (failed-image semantics under the fault plan)

/// Image 1 is killed at its first `event_notify`; image 0 sits in
/// `event_wait_stat`. With detection on (the default), every schedule
/// must end with the waiter observing `Stat::FailedImage([1])` and
/// completing — the explorer proves the detection path hang-free.
pub fn fail_during_notify_wait(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => Scenario {
            name: "fail during notify/wait (CAF-MPI)",
            images: 2,
            run: fail_nw_mpi,
        },
        SubstrateKind::Gasnet => Scenario {
            name: "fail during notify/wait (CAF-GASNet)",
            images: 2,
            run: fail_nw_gasnet,
        },
    }
}

fn fail_nw_mpi() {
    fail_nw_run(SubstrateKind::Mpi, true);
}

fn fail_nw_gasnet() {
    fail_nw_run(SubstrateKind::Gasnet, true);
}

/// The negative control for [`fail_during_notify_wait`]: the same kill
/// with detection *disabled* — no registry mark, no failure notices.
/// Image 0 waits for a post that can never arrive, so every schedule
/// deadlocks; the explorer must report a replayable wait-for cycle
/// instead of hanging.
pub fn fail_notify_wait_undetected(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => Scenario {
            name: "fail during notify/wait, detection off (CAF-MPI)",
            images: 2,
            run: fail_nw_undet_mpi,
        },
        SubstrateKind::Gasnet => Scenario {
            name: "fail during notify/wait, detection off (CAF-GASNet)",
            images: 2,
            run: fail_nw_undet_gasnet,
        },
    }
}

fn fail_nw_undet_mpi() {
    fail_nw_run(SubstrateKind::Mpi, false);
}

fn fail_nw_undet_gasnet() {
    fail_nw_run(SubstrateKind::Gasnet, false);
}

fn fail_nw_run(kind: SubstrateKind, detect: bool) {
    let mut cfg = CafConfig::on(kind);
    cfg.fault = FaultPlan::kill(1, KillSite::Op { name: "event_notify", hits: 1 });
    if !detect {
        cfg.fault = cfg.fault.undetected();
    }
    let results = CafUniverse::run_with_config_ft(2, cfg, |img| {
        let world = img.team_world();
        let ev = img.event_alloc(&world);
        if img.this_image() == 1 {
            img.event_notify(&world, &ev, 0); // killed at this op
            unreachable!("image 1 is killed by the fault plan");
        }
        let stat = img.event_wait_stat(&ev);
        assert_eq!(stat.failed(), &[1], "waiter must observe the failure");
        let (survivors, stat) = img.team_reform(&world);
        assert_eq!(stat.failed(), &[1]);
        assert_eq!(survivors.size(), 1);
    });
    assert!(results[0].is_some() && results[1].is_none());
}

/// Image 2 of three is killed on entry to `finish`; the survivors'
/// termination-detection SUM-reduce doubles as the failure detector, so
/// every schedule must end with `finish_stat` returning
/// `Stat::FailedImage([2])` on both survivors, followed by a clean
/// two-image reform.
pub fn fail_during_finish(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => Scenario {
            name: "fail during finish (CAF-MPI)",
            images: 3,
            run: fail_fin_mpi,
        },
        SubstrateKind::Gasnet => Scenario {
            name: "fail during finish (CAF-GASNet)",
            images: 3,
            run: fail_fin_gasnet,
        },
    }
}

fn fail_fin_mpi() {
    fail_fin_run(SubstrateKind::Mpi);
}

fn fail_fin_gasnet() {
    fail_fin_run(SubstrateKind::Gasnet);
}

fn fail_fin_run(kind: SubstrateKind) {
    let mut cfg = CafConfig::on(kind);
    cfg.fault = FaultPlan::kill(2, KillSite::Op { name: "finish", hits: 1 });
    let results = CafUniverse::run_with_config_ft(3, cfg, |img| {
        let world = img.team_world();
        let ((), stat) = img.finish_stat(&world, |_| ());
        assert_eq!(stat.failed(), &[2], "finish must surface the death");
        let (survivors, stat) = img.team_reform(&world);
        assert_eq!(stat.failed(), &[2]);
        assert_eq!(survivors.size(), 2);
        img.barrier(&survivors);
    });
    assert!(results[0].is_some() && results[1].is_some() && results[2].is_none());
}

/// Image 1 is killed at its first bucket drain (`agg_drain`, inside the
/// closing `finish_stat`), with coalescing on. Image 0's drain has
/// in-flight coalesced puts toward the dead image; its finish must
/// return `Stat::FailedImage([1])` — never a hang and never a lost
/// record toward a *surviving* destination.
pub fn fail_mid_agg_drain(kind: SubstrateKind) -> Scenario {
    match kind {
        SubstrateKind::Mpi => Scenario {
            name: "fail mid agg drain (CAF-MPI)",
            images: 2,
            run: fail_agg_mpi,
        },
        SubstrateKind::Gasnet => Scenario {
            name: "fail mid agg drain (CAF-GASNet)",
            images: 2,
            run: fail_agg_gasnet,
        },
    }
}

fn fail_agg_mpi() {
    fail_agg_run(SubstrateKind::Mpi);
}

fn fail_agg_gasnet() {
    fail_agg_run(SubstrateKind::Gasnet);
}

fn fail_agg_run(kind: SubstrateKind) {
    let mut cfg = CafConfig {
        agg: AggConfig::on(),
        ..CafConfig::on(kind)
    };
    cfg.fault = FaultPlan::kill(1, KillSite::Op { name: "agg_drain", hits: 1 });
    let results = CafUniverse::run_with_config_ft(2, cfg, |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, 2);
        let peer = 1 - img.this_image();
        let ((), stat) = img.finish_stat(&world, |img| {
            // Both images coalesce puts toward the peer; image 1 dies
            // draining its bucket inside the finish epilogue.
            img.copy_async_put(&ca, peer, 0, &[0xFA], AsyncOpts::none());
            img.copy_async_put(&ca, peer, 1, &[0xFB], AsyncOpts::none());
        });
        assert_eq!(stat.failed(), &[1], "finish must surface the death");
        let (survivors, stat) = img.team_reform(&world);
        assert_eq!(stat.failed(), &[1]);
        assert_eq!(survivors.size(), 1);
    });
    assert!(results[0].is_some() && results[1].is_none());
}

fn unflushed_run() {
    CafUniverse::run_with_config(2, CafConfig::on(SubstrateKind::Mpi), |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, 1);
        if img.this_image() == 1 {
            img.copy_async_put(&ca, 0, 0, &[42], AsyncOpts::none());
            img.cofence();
        } else {
            let v = ca.local_vec(img)[0];
            assert!(v == 0 || v == 42, "torn read: {v}");
        }
        img.sync_all();
        // Complete the put globally before the windows are freed.
        img.finish(&world, |_| {});
        img.coarray_free(&world, ca);
    });
}
