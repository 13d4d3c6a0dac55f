//! Positive suite for the `caf-check` sanitizer: correctly synchronized
//! programs must produce **zero** diagnostics on both substrates.
//!
//! Three layers:
//!
//! * property tests over randomized schedules of coarray traffic whose
//!   only synchronization is the legal kind (`sync_all` phases, event
//!   notify/wait chains) — a sound sanitizer must stay silent on all of
//!   them;
//! * representative programs on the runtime's alternative paths —
//!   aggregated puts and accumulates, the targeted and rflush release
//!   policies — which must discharge the same obligations as the direct
//!   path;
//! * regression tests pinning two diagnostics that early versions of
//!   the checker raised against *correct* code (see the test comments),
//!   so those false-positive classes cannot return.
//!
//! A session arms the thread that starts it and the jobs that thread
//! launches, nothing else, so these tests run side by side with no lock.

use caf::{AggConfig, AsyncOpts, CafConfig, CafUniverse, Coarray, FlushMode, SubstrateKind};
use caf_bench::checked::{checked_fft, checked_ra};
use caf_bench::{fast, traced_ra};
use caf_check::{CheckConfig, CheckSession, Report};
use proptest::prelude::*;

/// Run `job` under an armed default session.
fn sanitized(job: impl FnOnce()) -> Report {
    let session =
        CheckSession::start(CheckConfig::default()).expect("no other check session active");
    job();
    session.finish()
}

const P: usize = 3;
/// Elements of each origin image's private slot within every member's
/// coarray part (writes from different images never overlap).
const SLOT: usize = 8;

/// One image's plan for one round: a write into its own slot of some
/// member's part, then (after a `sync_all`) a read of an arbitrary
/// range. Decoded from raw proptest bytes so the suite only leans on
/// primitive strategies.
#[derive(Debug, Clone, Copy)]
struct Plan {
    member: usize,
    wr_off: usize,
    wr_len: usize,
    rd_member: usize,
    rd_off: usize,
    rd_len: usize,
}

fn decode_plans(bytes: &[u8]) -> Vec<Vec<Plan>> {
    let total = P * SLOT;
    bytes
        .chunks_exact(6 * P)
        .map(|round| {
            round
                .chunks_exact(6)
                .map(|b| {
                    let wr_off = b[1] as usize % SLOT;
                    let rd_off = b[4] as usize % total;
                    Plan {
                        member: b[0] as usize % P,
                        wr_off,
                        wr_len: 1 + b[2] as usize % (SLOT - wr_off),
                        rd_member: b[3] as usize % P,
                        rd_off,
                        rd_len: 1 + b[5] as usize % (total - rd_off),
                    }
                })
                .collect()
        })
        .collect()
}

/// Run a barrier-phased schedule: every image writes only its own slot
/// (never overlapping another image's writes), `sync_all`, then reads
/// anywhere (ordered behind every write by the collective), `sync_all`.
fn run_phased(kind: SubstrateKind, rounds: &[Vec<Plan>]) -> Report {
    sanitized(|| {
        CafUniverse::run_with_config(P, CafConfig::on(kind), |img| {
            let world = img.team_world();
            let a: Coarray<u64> = img.coarray_alloc(&world, P * SLOT);
            let me = img.this_image();
            for round in rounds {
                let plan = round[me];
                let data = vec![me as u64 + 1; plan.wr_len];
                a.write(img, plan.member, me * SLOT + plan.wr_off, &data);
                img.sync_all();
                let mut out = vec![0u64; plan.rd_len];
                a.read(img, plan.rd_member, plan.rd_off, &mut out);
                img.sync_all();
            }
            img.coarray_free(&world, a);
        });
    })
}

/// Run an event ping-pong: image 0 writes image 1's part and notifies;
/// image 1 waits, reads, writes image 0's part back and notifies; image
/// 0 waits and reads. Each round's accesses are ordered purely by the
/// two event chains — no barriers between rounds.
fn run_pingpong(kind: SubstrateKind, rounds: usize) -> Report {
    sanitized(|| {
        CafUniverse::run_with_config(2, CafConfig::on(kind), |img| {
            let world = img.team_world();
            let a: Coarray<u64> = img.coarray_alloc(&world, 8);
            let fwd = img.event_alloc(&world);
            let back = img.event_alloc(&world);
            for k in 0..rounds as u64 {
                if img.this_image() == 0 {
                    a.write(img, 1, 0, &[k; 4]);
                    img.event_notify(&world, &fwd, 1);
                    img.event_wait(&back);
                    let mut out = [0u64; 4];
                    a.local_read(img, 0, &mut out);
                    assert_eq!(out, [k + 100; 4]);
                } else {
                    img.event_wait(&fwd);
                    let mut out = [0u64; 4];
                    a.local_read(img, 0, &mut out);
                    assert_eq!(out, [k; 4]);
                    a.write(img, 0, 0, &[k + 100; 4]);
                    img.event_notify(&world, &back, 0);
                }
            }
            img.sync_all();
            img.coarray_free(&world, a);
        });
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn phased_schedules_are_clean_on_caf_mpi(
        bytes in proptest::collection::vec(any::<u8>(), 6 * P..(4 * 6 * P + 1)),
    ) {
        let report = run_phased(SubstrateKind::Mpi, &decode_plans(&bytes));
        prop_assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn phased_schedules_are_clean_on_caf_gasnet(
        bytes in proptest::collection::vec(any::<u8>(), 6 * P..(4 * 6 * P + 1)),
    ) {
        let report = run_phased(SubstrateKind::Gasnet, &decode_plans(&bytes));
        prop_assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn event_chains_are_clean_on_both_substrates(seed in any::<u8>()) {
        let rounds = 1 + seed as usize % 5;
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let report = run_pingpong(kind, rounds);
            prop_assert!(report.is_clean(), "{kind:?}: {}", report.render());
        }
    }
}

/// Regression: the race detector once flagged RandomAccess's staging
/// slots as racy. Every image notifies the *same* per-round event id, so
/// a notify/wait channel keyed only `(namespace, event)` could pair a
/// wait with a snapshot sent to a *different* image and lose the true
/// edge. Channels are now keyed per destination image; the correctly
/// synchronized kernel must stay silent forever.
#[test]
fn randomaccess_kernel_is_clean_under_the_sanitizer() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let report = checked_ra(4, kind, 8, 1000);
        assert!(report.is_clean(), "{kind:?}: {}", report.render());
    }
}

/// The FFT kernel (all-to-all transpose plus collectives) is the other
/// tier-1 workload `figures check` replays; it must stay silent too.
#[test]
fn fft_kernel_is_clean_under_the_sanitizer() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let report = checked_fft(4, kind, 10);
        assert!(report.is_clean(), "{kind:?}: {}", report.render());
    }
}

/// Representative aggregated programs: batch delivery must discharge
/// every epoch/race obligation exactly as the direct path does (the
/// happens-before edges ride the batch token).
#[test]
fn aggregated_programs_are_checker_clean() {
    const P: usize = 4;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        for routing in [false, true] {
            let agg = if routing { AggConfig::routed() } else { AggConfig::on() };
            let cfg = CafConfig { agg, ..fast(kind) };
            let report = sanitized(|| {
                CafUniverse::run_with_config(P, cfg, |img| {
                    let world = img.team_world();
                    let ca: Coarray<u64> = img.coarray_alloc(&world, 8);
                    let ev = img.event_alloc(&world);
                    let me = img.this_image();
                    let right = (me + 1) % P;
                    // Notify-released put batches (routing-off path) ...
                    if !img.agg_config().routing {
                        for round in 0..3 {
                            img.copy_async_put(&ca, right, round, &[me as u64], AsyncOpts::none());
                            img.event_notify(&world, &ev, right);
                            img.event_wait(&ev);
                        }
                    }
                    // ... and finish-released accumulate batches (both paths).
                    img.finish(&world, |img| {
                        for target in 0..P {
                            img.agg_accumulate_xor(&ca, target, 4 + me % 4, 1 << me);
                        }
                    });
                    img.sync_all();
                    img.coarray_free(&world, ca);
                });
            });
            assert!(
                report.is_clean(),
                "aggregation (routing={routing}, {kind:?}) leaked checker obligations:\n{}",
                report.render()
            );
        }
    }
}

/// The targeted and rflush release policies must satisfy the epoch
/// checker's flush obligations exactly as `flush_all` does (no
/// pending-put leaks).
#[test]
fn targeted_and_rflush_are_checker_clean() {
    const P: usize = 4;
    for flush in [FlushMode::targeted(), FlushMode::rflush()] {
        let cfg = CafConfig {
            flush,
            ..fast(SubstrateKind::Mpi)
        };
        let report = sanitized(|| {
            CafUniverse::run_with_config(P, cfg, |img| {
                let world = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&world, 4);
                let ev = img.event_alloc(&world);
                let me = img.this_image();
                let right = (me + 1) % P;
                for round in 0..3 {
                    img.copy_async_put(&ca, right, round, &[me as u64], AsyncOpts::none());
                    img.event_notify(&world, &ev, right);
                    img.event_wait(&ev);
                }
                img.sync_all();
                img.coarray_free(&world, ca);
            });
        });
        assert!(
            report.is_clean(),
            "flush mode {} leaked checker obligations:\n{}",
            flush.name(),
            report.render()
        );
    }
}

/// Regression: the offline checker once reported `win_flush_all` outside
/// an epoch for every window of a recorded run. `win_unlock_all` used to
/// emit its trace instant *before* running the interior flush that
/// completes the epoch, so the recorded timeline closed the epoch too
/// early. The instant is now emitted after the flush; auditing a traced
/// run of correct code must be clean.
#[test]
fn offline_audit_of_a_traced_randomaccess_run_is_clean() {
    let (_, trace) = traced_ra(2, SubstrateKind::Mpi, 7, 500, 1);
    assert!(!trace.events.is_empty());
    let report = caf_check::check_trace(&trace);
    assert!(report.is_clean(), "{}", report.render());
}
