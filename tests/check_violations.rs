//! Negative tests for the `caf-check` sanitizer: each test runs a
//! deliberately-broken program and asserts the **exact** diagnostic —
//! violation kind, offending image(s), window, and byte range — so the
//! checker's reports stay precise enough to debug from, not just
//! non-empty.
//!
//! Every test records its job under its own `caf_trace::Session` and
//! replays the trace; a session sees only the jobs its thread launches,
//! so the tests run side by side.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use caf::{CafConfig, CafUniverse, Coarray, SubstrateKind};
use caf_check::{check_trace, ByteRange, CheckConfig, Report, ViolationKind};
use caf_mpisim::Universe;
use caf_trace::{Session, TraceConfig};

/// Record `f` and replay the trace with the given config.
fn collect(cfg: CheckConfig, f: impl FnOnce()) -> Report {
    let session = Session::start(TraceConfig { stall_threshold: None, ..TraceConfig::default() })
        .expect("no other trace session active");
    f();
    check_trace(&session.finish(), cfg)
}

/// An `MPI_Put` with no `win_lock_all` in sight. The put's record must
/// exist *before* the simulator's own epoch assertion aborts the image,
/// so the replay reports the outside-epoch diagnostic (with the window
/// and origin).
#[test]
fn put_outside_epoch_is_flagged_before_the_runtime_aborts() {
    let win_id = AtomicU64::new(0);
    let report = collect(CheckConfig::default(), || {
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            Universe::run(1, |mpi| {
                let world = mpi.world();
                let win = mpi.win_allocate(&world, 64).expect("win_allocate");
                win_id.store(win.id(), Ordering::SeqCst);
                mpi.put(&win, 0, 0, &[1u64]).unwrap();
            });
        }));
        assert!(aborted.is_err(), "the simulator aborts the illegal put");
    });
    let v = report.of_kind(ViolationKind::OutsideEpoch);
    assert_eq!(v.len(), 1, "{}", report.render());
    assert_eq!(v[0].window, Some(win_id.load(Ordering::SeqCst)));
    assert_eq!(v[0].image, 0);
    assert_eq!(v[0].other, None);
}

/// Image 1 loads its own window memory while an unflushed put from
/// image 0 still targets the same bytes — the origin must `win_flush`
/// first. The diagnostic pinpoints reader, origin, and the overlap.
#[test]
fn local_read_of_unflushed_put_pinpoints_origin_and_range() {
    let report = collect(CheckConfig::default(), || {
        let ids = Universe::run(2, |mpi| {
            let world = mpi.world();
            let win = mpi.win_allocate(&world, 256).expect("win_allocate");
            mpi.win_lock_all(&win);
            if mpi.rank() == 0 {
                // 16 bytes at displacement 8 of image 1's region, no flush.
                mpi.put(&win, 1, 8, &[7u64, 9u64]).unwrap();
            }
            mpi.barrier(&world).unwrap();
            if mpi.rank() == 1 {
                let mut out = [0u8; 8];
                mpi.win_read_local(&win, 12, &mut out).unwrap();
            }
            mpi.barrier(&world).unwrap();
            if mpi.rank() == 0 {
                mpi.win_flush(&win, 1).unwrap();
            }
            mpi.win_unlock_all(&win).unwrap();
            let id = win.id();
            mpi.win_free(win).unwrap();
            id
        });
        assert_eq!(ids[0], ids[1]);
    });
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::ReadBeforeFlush);
    assert_eq!(v.image, 1, "the reader is the flagged image");
    assert_eq!(v.other, Some(0), "the unflushed origin is named");
    assert!(v.window.is_some());
    // put [8, 24) ∩ read [12, 20) — the exact contested bytes.
    assert_eq!(v.range, Some(ByteRange { start: 12, end: 20 }));
}

/// Two origins put overlapping ranges into image 2's region within one
/// epoch with no separating flush — undefined under MPI-3 §11.7.
#[test]
fn overlapping_unflushed_puts_flag_epoch_overlap() {
    let report = collect(CheckConfig::default(), || {
        Universe::run(3, |mpi| {
            let world = mpi.world();
            let win = mpi.win_allocate(&world, 256).expect("win_allocate");
            mpi.win_lock_all(&win);
            if mpi.rank() == 0 {
                mpi.put(&win, 2, 0, &[0u64, 0u64]).unwrap(); // [0, 16)
            }
            mpi.barrier(&world).unwrap();
            if mpi.rank() == 1 {
                mpi.put(&win, 2, 8, &[1u64, 1u64]).unwrap(); // [8, 24)
            }
            mpi.barrier(&world).unwrap();
            mpi.win_unlock_all(&win).unwrap();
            mpi.win_free(win).unwrap();
        });
    });
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::EpochOverlap);
    assert_eq!(v.image, 1, "the second putter trips the conflict");
    assert_eq!(v.other, Some(0), "...against the first");
    assert_eq!(v.range, Some(ByteRange { start: 8, end: 16 }));
}

/// The origin buffer handed to a live `rput` is reused by another RMA
/// operation before `wait` — the request still borrows it.
#[test]
fn origin_buffer_reuse_before_request_completion_is_flagged() {
    let report = collect(CheckConfig::default(), || {
        Universe::run(1, |mpi| {
            let world = mpi.world();
            let win = mpi.win_allocate(&world, 256).expect("win_allocate");
            mpi.win_lock_all(&win);
            let data = [3u64; 8];
            let req = mpi.rput(&win, 0, 0, &data).unwrap();
            // Same origin buffer, disjoint target range: only the
            // buffer-reuse hazard fires, not an epoch overlap.
            mpi.put(&win, 0, 128, &data[..2]).unwrap();
            req.wait();
            mpi.win_unlock_all(&win).unwrap();
            mpi.win_free(win).unwrap();
        });
    });
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::BufferReuse);
    assert_eq!(v.image, 0);
    assert!(v.window.is_some());
}

/// An `rput` request dropped without `wait`: its completion certificate
/// is lost — the paper's Figure 2 put-ack hazard.
#[test]
fn dropped_rput_request_loses_its_completion_certificate() {
    let report = collect(CheckConfig::default(), || {
        Universe::run(1, |mpi| {
            let world = mpi.world();
            let win = mpi.win_allocate(&world, 64).expect("win_allocate");
            mpi.win_lock_all(&win);
            let _ = mpi.rput(&win, 0, 0, &[1u64]).unwrap(); // dropped, never waited
            mpi.win_unlock_all(&win).unwrap();
            mpi.win_free(win).unwrap();
        });
    });
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::LostCompletion);
    assert_eq!(v.image, 0);
    assert!(v.detail.contains("rput"), "{}", v.detail);
}

/// Epoch pairing: a second `win_lock_all` with the epoch already open,
/// then `win_free` without ever unlocking.
#[test]
fn unbalanced_lock_and_free_with_open_epoch_are_flagged() {
    let report = collect(CheckConfig::default(), || {
        Universe::run(1, |mpi| {
            let world = mpi.world();
            let win = mpi.win_allocate(&world, 64).expect("win_allocate");
            mpi.win_lock_all(&win);
            mpi.win_lock_all(&win); // already open
            mpi.win_free(win).unwrap(); // never unlocked
        });
    });
    assert_eq!(report.violations.len(), 2, "{}", report.render());
    assert_eq!(
        report.of_kind(ViolationKind::UnbalancedEpoch).len(),
        1,
        "{}",
        report.render()
    );
    let free = report.of_kind(ViolationKind::OpenEpochAtFree);
    assert_eq!(free.len(), 1);
    assert_eq!(free[0].image, 0);
}

/// Unsynchronized conflicting coarray accesses: image 0 writes image 1's
/// part while image 1 reads it locally, with no event/collective edge
/// between them. Epoch checking is off so the only possible diagnostic
/// is the vector-clock race.
fn coarray_race_on(kind: SubstrateKind) -> Report {
    collect(
        CheckConfig {
            epochs: false,
            ..CheckConfig::default()
        },
        || {
            CafUniverse::run_with_config(2, CafConfig::on(kind), |img| {
                let world = img.team_world();
                let a: Coarray<u64> = img.coarray_alloc(&world, 8);
                if img.this_image() == 0 {
                    a.write(img, 1, 0, &[7, 8, 9, 10]); // [0, 32) of image 1's part
                } else {
                    let mut out = [0u64; 4];
                    a.local_read(img, 0, &mut out); // same bytes, no ordering edge
                }
                img.sync_all();
                img.coarray_free(&world, a);
            });
        },
    )
}

fn assert_exactly_one_race(report: &Report) {
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::CoarrayRace);
    // Flagged at whichever access came second; the pair is {0, 1}.
    let pair = (v.image, v.other.expect("racing peer is named"));
    assert!(pair == (0, 1) || pair == (1, 0), "{pair:?}");
    assert!(v.window.is_some(), "region id is reported");
    assert_eq!(v.range, Some(ByteRange { start: 0, end: 32 }));
}

#[test]
fn unsynchronized_coarray_write_read_races_on_caf_mpi() {
    let report = coarray_race_on(SubstrateKind::Mpi);
    assert_exactly_one_race(&report);
}

#[test]
fn unsynchronized_coarray_write_read_races_on_caf_gasnet() {
    let report = coarray_race_on(SubstrateKind::Gasnet);
    assert_exactly_one_race(&report);
}

/// The same race with an event edge between the accesses is silent —
/// the detector keys notify/wait channels per destination image, so the
/// single edge orders exactly this pair.
#[test]
fn event_ordered_coarray_accesses_do_not_race() {
    let report = collect(
        CheckConfig {
            epochs: false,
            ..CheckConfig::default()
        },
        || {
            CafUniverse::run(2, |img| {
                let world = img.team_world();
                let a: Coarray<u64> = img.coarray_alloc(&world, 8);
                let ev = img.event_alloc(&world);
                if img.this_image() == 0 {
                    a.write(img, 1, 0, &[7, 8, 9, 10]);
                    img.event_notify(&world, &ev, 1);
                } else {
                    img.event_wait(&ev);
                    let mut out = [0u64; 4];
                    a.local_read(img, 0, &mut out);
                    assert_eq!(out, [7, 8, 9, 10]);
                }
                img.sync_all();
                img.coarray_free(&world, a);
            });
        },
    );
    assert!(report.is_clean(), "{}", report.render());
}
