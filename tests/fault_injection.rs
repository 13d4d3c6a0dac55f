//! Seeded fault-injection properties (failed-image semantics, DESIGN.md
//! §17), over random `(seed, P, kill-site)` on both substrates:
//!
//! * **Bounded detection, never a hang**: once an image dies, every
//!   blocking point whose partner set includes it — here, `sync all`
//!   barriers over the world team — returns `Stat::FailedImage` naming
//!   the victim within a bounded number of rounds. The harness has no
//!   timeout because none is needed: detection fail-fasts.
//! * **Survivor parity**: after `team_reform`, a deterministic exchange
//!   program run by the survivors produces coarray bytes identical to a
//!   fault-free run launched on a universe of exactly the survivor
//!   count.
//!
//! Kill sites come from [`FaultPlan::seeded`] (a blocking-point index in
//! `0..8`); a victim whose barriers happen to be satisfied without ever
//! blocking falls back to an explicit `fail image`, so the death — and
//! therefore the detection bound — is guaranteed on every schedule.
//! Everything here is deterministic and reads the wall clock only as
//! the double-kill test's failure deadline, so the whole file runs under
//! Miri (with a reduced case count).

use caf::{
    CafConfig, CafUniverse, Coarray, ExecConfig, FaultPlan, Image, ImageStatus, SubstrateKind, Team,
};
use caf_bench::fast;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Phase-1 barrier rounds. [`FaultPlan::seeded`] kills at blocking-point
/// index `0..8` and every barrier enters at least one blocking receive
/// on the slow path, so the victim is dead — and, by the explicit
/// fallback, *guaranteed* dead — before round `ROUNDS`.
const ROUNDS: usize = 12;

/// Mix a deterministic cell value from (seed, writer team rank, owner
/// team rank) — SplitMix64 finalizer.
fn mix(seed: u64, writer: u64, owner: u64) -> u64 {
    let mut x = seed ^ writer.wrapping_mul(0x9e3779b97f4a7c15) ^ owner.rotate_left(32);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The deterministic exchange every (surviving) image runs on `team`:
/// one slot per member, each member puts `mix(seed, me, j)` into slot
/// `me` of every member `j` under a `finish` block, then reads its own
/// table back. Depends only on the *team-relative* geometry, so the
/// faulty run's reformed team and the fault-free reference universe
/// produce identical tables.
fn survivor_exchange(img: &Image, team: &Team, seed: u64) -> Vec<u64> {
    let s = team.size();
    let ca: Coarray<u64> = img.coarray_alloc(team, s);
    let me = team.rank();
    let ((), stat) = img.finish_stat(team, |img| {
        for j in 0..s {
            let v = [mix(seed, me as u64, j as u64)];
            if j == me {
                ca.local_write(img, me, &v);
            } else {
                img.copy_async_put(&ca, j, me, &v, caf::AsyncOpts::none());
            }
        }
    });
    assert!(stat.is_ok(), "post-reform finish saw {:?}", stat.failed());
    let stat = img.barrier_stat(team);
    assert!(stat.is_ok(), "post-reform barrier saw {:?}", stat.failed());
    let table = ca.local_vec(img);
    img.coarray_free(team, ca);
    table
}

/// One faulty job: P images, the seeded plan's victim dies during the
/// barrier churn, survivors must detect it within `ROUNDS + 2` rounds,
/// reform the world team, and run the exchange. Returns one table per
/// survivor (and `None` in the victim's slot).
fn faulty_run(kind: SubstrateKind, p: usize, seed: u64) -> Vec<Option<Vec<u64>>> {
    let cfg = CafConfig {
        fault: FaultPlan::seeded(seed, p),
        ..fast(kind)
    };
    let victim = cfg.fault.kills[0].expect("seeded plan has one kill").rank;
    CafUniverse::run_with_config_ft(p, cfg, move |img| {
        let me = img.this_image();
        let mut detected = None;
        for round in 0..ROUNDS + 2 {
            if me == victim && round == ROUNDS {
                // The planned blocking site never fired (fast-path
                // barriers): die explicitly so the property below is
                // schedule-independent.
                img.fail_image();
            }
            let stat = img.sync_all_stat();
            if !stat.is_ok() {
                assert_eq!(stat.failed(), &[victim], "round {round}");
                detected = Some(round);
                break;
            }
        }
        // Bounded detection: the victim cannot outlive round `ROUNDS`,
        // so the first barrier it skips — at the latest — must report it.
        let detected = detected
            .unwrap_or_else(|| panic!("image {me}: no failure within {} rounds", ROUNDS + 2));
        assert!(detected <= ROUNDS + 1, "detection too late: round {detected}");
        // The registry is authoritative from the first report on.
        assert_eq!(img.image_status(victim), ImageStatus::Failed);
        assert_eq!(img.failed_images(), vec![victim]);
        assert_eq!(img.sync_all_stat().failed(), &[victim], "later blocking points fail fast");

        let world = img.team_world();
        let (survivors, stat) = img.team_reform(&world);
        assert_eq!(stat.failed(), &[victim]);
        assert_eq!(survivors.size(), p - 1);
        survivor_exchange(img, &survivors, seed)
    })
}

/// The fault-free reference: a universe of exactly the survivor count
/// running the same exchange on its world team.
fn reference_run(kind: SubstrateKind, survivors: usize, seed: u64) -> Vec<Vec<u64>> {
    CafUniverse::run_with_config(survivors, fast(kind), move |img| {
        let world = img.team_world();
        survivor_exchange(img, &world, seed)
    })
}

/// The whole property for one (kind, p, seed) point.
fn check_point(kind: SubstrateKind, p: usize, seed: u64) {
    let victim = FaultPlan::seeded(seed, p).kills[0].unwrap().rank;
    let out = faulty_run(kind, p, seed);
    assert!(out[victim].is_none(), "the victim's result must be dropped");
    let reference = reference_run(kind, p - 1, seed);
    let survivor_tables: Vec<&Vec<u64>> = (0..p)
        .filter(|&g| g != victim)
        .map(|g| out[g].as_ref().expect("survivors complete"))
        .collect();
    for (i, (got, want)) in survivor_tables.iter().zip(&reference).enumerate() {
        assert_eq!(
            *got, want,
            "{kind:?} p={p} seed={seed:#x}: survivor {i} diverged from the fault-free run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 2 } else { 8 },
        ..ProptestConfig::default()
    })]

    /// Random (seed, P) on CAF-MPI: bounded detection + survivor parity.
    #[test]
    fn seeded_kills_detected_and_survivors_match_mpi(
        seed in any::<u64>(),
        p in 2usize..9,
    ) {
        check_point(SubstrateKind::Mpi, p, seed);
    }

    /// Random (seed, P) on CAF-GASNet: bounded detection + survivor parity.
    #[test]
    fn seeded_kills_detected_and_survivors_match_gasnet(
        seed in any::<u64>(),
        p in 2usize..9,
    ) {
        check_point(SubstrateKind::Gasnet, p, seed);
    }
}

/// The ISSUE-stated upper bound of the injection domain: P = 32 on both
/// substrates (one seed each; the proptests above cover the breadth).
#[test]
#[cfg_attr(miri, ignore = "32 threads x 2 substrates is too slow under Miri")]
fn seeded_kill_at_p32_both_substrates() {
    check_point(SubstrateKind::Mpi, 32, 0xFA17_D00D_0000_0001);
    check_point(SubstrateKind::Gasnet, 32, 0xFA17_D00D_0000_0002);
}

/// Death *inside* `Gasnet::init`: the victim's first blocking point is
/// the first receive of the attach fence (MPI's init never blocks, and a
/// fence receive blocks without polling first), so it dies there on every
/// schedule, having published its segment and sent its round-0 packet.
/// Victim `p/2` owes its later rounds to half the job. Every survivor must
/// still leave `init` — early from the fence, or past it at the entry
/// screen — and then see exactly that death at its first `sync all`. Run
/// on threads and as tasks on one run slot.
#[test]
#[cfg_attr(miri, ignore = "eighteen jobs of up to 16 hybrid images")]
fn victim_dies_inside_gasnet_bootstrap() {
    let one_slot = ExecConfig { workers: 1, ..ExecConfig::tasks() };
    for exec in [ExecConfig::default(), one_slot] {
        for p in [4usize, 8, 16] {
            for victim in [1, p / 2, p - 1] {
                let cfg = CafConfig {
                    fault: FaultPlan::kill(victim, caf::KillSite::Blocking(0)),
                    exec,
                    ..fast(SubstrateKind::Gasnet)
                };
                let out = CafUniverse::run_with_config_ft(p, cfg, move |img| {
                    assert_ne!(img.this_image(), victim, "p={p}: the victim outlived init");
                    assert_eq!(img.sync_all_stat().failed(), &[victim], "p={p}");
                    assert_eq!(img.image_status(victim), ImageStatus::Failed);
                    img.this_image()
                });
                let survivors: Vec<usize> = (0..p).filter(|&g| g != victim).collect();
                assert_eq!(
                    out.into_iter().flatten().collect::<Vec<_>>(),
                    survivors,
                    "p={p} victim={victim}: every survivor, and only they, finished"
                );
            }
        }
    }
}

/// The bootstrap death at P=64, as tasks on one run slot, where images
/// start in rank order. The victim dies in round 0 of the attach fence:
/// victim 1 before any later image has published its segment, victim
/// `p/2` owing rounds 1 to 5 to half the job. The images before the
/// victim leave the fence early with the death; those after it find the
/// death at the fence's entry screen and skip it, and each leaves `init`
/// only once every later image has published. Then the survivors reform
/// the world team, allocate a coarray on it, and each writes its cell
/// into every other survivor's part and reads it back: no image is
/// reached through an attach id before it has published it.
#[test]
#[cfg_attr(miri, ignore = "two jobs of 64 hybrid images")]
fn survivors_of_a_bootstrap_death_reach_every_attached_segment() {
    const P: usize = 64;
    for victim in [1, P / 2] {
        let base = fast(SubstrateKind::Gasnet);
        let cfg = CafConfig {
            fault: FaultPlan::kill(victim, caf::KillSite::Blocking(0)),
            exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
            gasnet: caf::GasnetConfig { segment_size: 1 << 20, ..base.gasnet },
            ..base
        };
        let out = CafUniverse::run_with_config_ft(P, cfg, move |img| {
            assert_ne!(img.this_image(), victim, "the victim outlived the attach fence");
            assert_eq!(img.sync_all_stat().failed(), &[victim]);
            let (team, stat) = img.team_reform(&img.team_world());
            assert_eq!(stat.failed(), &[victim]);
            let (s, me) = (team.size(), team.rank());
            let ca: Coarray<u64> = img.coarray_alloc(&team, s);
            for j in (0..s).filter(|&j| j != me) {
                let cell = [mix(7, me as u64, j as u64)];
                ca.write(img, j, me, &cell);
                let mut back = [0u64];
                ca.read(img, j, me, &mut back);
                assert_eq!(back, cell, "victim {victim}: image {me} -> {j}");
            }
            assert!(img.barrier_stat(&team).is_ok());
            let table = ca.local_vec(img);
            img.coarray_free(&team, ca);
            (0..s).filter(|&w| w != me).all(|w| table[w] == mix(7, w as u64, me as u64))
        });
        assert!(out[victim].is_none());
        assert!(
            out.iter().enumerate().all(|(g, ok)| g == victim || *ok == Some(true)),
            "victim {victim}: every survivor holds every other survivor's cell"
        );
    }
}

/// A window (CAF-MPI) or the attached library (CAF-GASNet) remembers the
/// segment of a target it has touched, and a failed target answers the
/// same either way. Image 0 writes to image 1 after it died — having
/// resolved its segment while it lived (`touched`), or touching it now
/// for the first time. On CAF-GASNet the store is dropped at the fault
/// screen, ahead of any resolution; on CAF-MPI it lands in the dead
/// rank's exposure, which outlives its owner, as it always has. On both
/// the write returns, and writes to the living image 2 go on landing.
#[test]
fn a_dead_target_answers_the_same_whether_or_not_its_segment_was_resolved() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        for (exec, touched) in [ExecConfig::default(), ExecConfig::tasks()]
            .into_iter()
            .flat_map(|exec| [(exec, false), (exec, true)])
        {
            let cfg = CafConfig { exec, ..fast(kind) };
            let out = CafUniverse::run_with_config_ft(3, cfg, move |img| {
                let me = img.this_image();
                let world = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&world, 4);
                let go = img.event_alloc(&world);
                if me == 0 {
                    if touched {
                        ca.write(img, 1, 0, &[1]);
                    }
                    img.event_notify(&world, &go, 1);
                }
                if me == 1 {
                    // lint:allow(CAFL008) nobody has died yet: the victim is the waiter
                    img.event_wait(&go);
                    img.fail_image();
                }
                while img.sync_all_stat().is_ok() {}
                assert_eq!(img.image_status(1), ImageStatus::Failed);
                if me == 0 {
                    ca.write(img, 1, 1, &[2]);
                    ca.write(img, 2, 0, &[3]);
                    if kind == SubstrateKind::Mpi {
                        let mut landed = [0u64];
                        ca.read(img, 1, 1, &mut landed);
                        assert_eq!(landed, [2]);
                    }
                }
                let (survivors, _) = img.team_reform(&world);
                assert!(img.barrier_stat(&survivors).is_ok());
                ca.local_vec(img)[0]
            });
            let what = format!("{kind:?} {:?} touched={touched}", exec.mode);
            assert_eq!(out, [Some(0), None, Some(3)], "{what}");
        }
    }
}

/// Multi-kill plan: two images die; every blocking point reports the
/// union once both are gone, and the reform drops both. After the
/// *first* death, world barriers fail-fast without rendezvous — the
/// survivors are no longer in lockstep with the second victim — so the
/// second death is awaited against a wall-clock deadline rather than the
/// lockstep `ROUNDS` bound of the single-kill property.
#[test]
fn double_kill_reforms_to_p_minus_2() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let p = 6;
        let cfg = CafConfig {
            fault: FaultPlan::kill(2, caf::KillSite::Blocking(2))
                .with(4, caf::KillSite::Blocking(5)),
            ..fast(kind)
        };
        let out = CafUniverse::run_with_config_ft(p, cfg, move |img| {
            let me = img.this_image();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut failed: Vec<usize> = Vec::new();
            let mut round = 0;
            while failed != [2, 4] {
                assert!(Instant::now() < deadline, "image {me}: saw only {failed:?} die");
                if round == ROUNDS && (me == 2 || me == 4) {
                    // Fail-fast barriers stop entering blocking receives
                    // once image 2 is gone, so image 4's planned blocking
                    // site may never fire: die explicitly.
                    img.fail_image();
                }
                round += 1;
                let stat = img.sync_all_stat();
                failed.extend_from_slice(stat.failed());
                failed.sort_unstable();
                failed.dedup();
            }
            let world = img.team_world();
            let (survivors, stat) = img.team_reform(&world);
            assert_eq!(stat.failed(), &[2, 4]);
            assert_eq!(survivors.size(), p - 2);
            let stat = img.barrier_stat(&survivors);
            assert!(stat.is_ok());
            survivors.rank()
        });
        assert!(out[2].is_none() && out[4].is_none());
        let ranks: Vec<usize> = out.iter().filter_map(|r| *r).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3], "{kind:?}: dense renumbering in parent order");
    }
}
