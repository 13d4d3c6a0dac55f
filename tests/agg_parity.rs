//! Property-based aggregation parity: coalescing small puts into batched
//! active messages is a transport optimization — programs must produce
//! **byte-identical** results with aggregation on and off, on both
//! substrates, under every [`caf::FlushMode`]. Also pins the PR-4
//! composition contract: a drained bucket is ONE wire message, and the
//! per-notify flush charge scales with drained buckets, not with the
//! records inside them.

use caf::{AggConfig, AsyncOpts, CafConfig, CafUniverse, Coarray, FlushMode, SubstrateKind};
use caf_bench::fast;
use caf_fabric::DelayOp;
use proptest::prelude::*;

const P: usize = 4;
const SLOTS: usize = 8;

/// Aggregating configurations: both substrates under all three flush
/// modes (GASNet ignores the MPI-only flush knob; running it anyway makes
/// it a control group).
fn agg_configs() -> Vec<CafConfig> {
    let mut v = Vec::new();
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        for flush in [FlushMode::All, FlushMode::Targeted, FlushMode::Rflush] {
            v.push(CafConfig {
                agg: AggConfig::on(),
                flush,
                ..fast(kind)
            });
        }
    }
    v
}

/// One image's view after the program: its local table plus an order-
/// insensitive echo hash (catches torn/partial writes that happen to
/// leave the right final table on some other image).
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

/// Random put/notify/wait program, parameterized over the config. The
/// event-notify release is what drains the writer's buckets, and the
/// FIFO rt channel is what orders each batch before the notify that
/// releases it — so every flush mode exercises the drain-at-release path.
fn run_put_program(cfg: CafConfig, writes: Vec<(usize, usize, usize, u64)>) -> Vec<Vec<u64>> {
    CafUniverse::run_with_config(P, cfg, move |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, SLOTS);
        let ev = img.event_alloc(&world);
        let me = img.this_image();

        for &(writer, target, slot, value) in &writes {
            if me == writer && target != me {
                // Released by the event_notify loop below: `targets` is
                // non-empty exactly when this image put. lint:allow(sync-protocol)
                img.copy_async_put(&ca, target, slot, &[value], AsyncOpts::none());
            } else if me == writer {
                ca.local_write(img, slot, &[value]);
            }
        }
        let mut targets: Vec<usize> = writes
            .iter()
            .filter(|&&(wr, t, _, _)| wr == me && t != me)
            .map(|&(_, t, _, _)| t)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        for &t in &targets {
            img.event_notify(&world, &ev, t);
        }
        let mut writers: Vec<usize> = writes
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
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Aggregated put programs equal the direct (aggregation-off) run,
    /// across both substrates and all three flush modes.
    #[test]
    fn aggregated_puts_match_direct(
        writes in proptest::collection::vec(
            (0usize..P, 0usize..P, 0usize..SLOTS, any::<u64>()),
            1..24,
        )
    ) {
        // One writer per (target, slot) so the outcome is deterministic.
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<_> = writes
            .into_iter()
            .filter(|&(_, t, s, _)| seen.insert((t, s)))
            .collect();

        let reference = run_put_program(fast(SubstrateKind::Mpi), writes.clone());
        for cfg in agg_configs() {
            let out = run_put_program(cfg, writes.clone());
            prop_assert_eq!(&out, &reference);
        }
    }

    /// Aggregated accumulates (the RA path) under `finish`, with and
    /// without hypercube routing, match the serially computed table.
    /// Each slot sees a single op kind (xor on even slots, add on odd):
    /// updates then commute, so the expected value is order-insensitive
    /// no matter how batches interleave or re-bucket along hops.
    #[test]
    fn aggregated_accumulates_match_serial(
        updates in proptest::collection::vec(
            (0usize..P, 0usize..P, 0usize..SLOTS, any::<u64>()),
            1..32,
        )
    ) {
        let updates: Vec<(usize, usize, usize, u64, bool)> = updates
            .into_iter()
            .map(|(w, t, s, v)| (w, t, s, v, s % 2 == 0))
            .collect();
        let mut expected = vec![[0u64; SLOTS]; P];
        for &(_, target, slot, v, is_xor) in &updates {
            let e = &mut expected[target][slot];
            *e = if is_xor { *e ^ v } else { e.wrapping_add(v) };
        }

        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for routing in [false, true] {
                let agg = if routing { AggConfig::routed() } else { AggConfig::on() };
                let cfg = CafConfig { agg, ..fast(kind) };
                let ups = updates.clone();
                let exp = expected.clone();
                let out = CafUniverse::run_with_config(P, cfg, move |img| {
                    let world = img.team_world();
                    let ca: Coarray<u64> = img.coarray_alloc(&world, SLOTS);
                    let me = img.this_image();
                    img.finish(&world, |img| {
                        for &(writer, target, slot, v, is_xor) in &ups {
                            if me != writer {
                                continue;
                            }
                            if is_xor {
                                img.agg_accumulate_xor(&ca, target, slot, v);
                            } else {
                                img.agg_accumulate_add(&ca, target, slot, v);
                            }
                        }
                    });
                    let table = ca.local_vec(img);
                    img.sync_all();
                    img.coarray_free(&world, ca);
                    (table, exp[me])
                });
                for (me, (table, exp)) in out.iter().enumerate() {
                    prop_assert!(
                        table.as_slice() == exp.as_slice(),
                        "routing={} on {:?}: image {} table {:?} != expected {:?} (updates {:?})",
                        routing, kind, me, table, exp, updates
                    );
                }
            }
        }
    }
}

/// PR-4 composition regression: draining a bucket of N records at a
/// notify costs ONE wire message and O(drained buckets) — not O(N) —
/// targeted flushes. Batched AMs complete by target-side application,
/// so they never dirty a window at all: the targeted per-notify flush
/// charge is bounded by a constant while N records ride one batch.
#[test]
fn notify_flush_cost_is_per_bucket_not_per_record() {
    const RECORDS: usize = 48;
    let cfg = CafConfig {
        agg: AggConfig::on(),
        flush: FlushMode::Targeted,
        ..fast(SubstrateKind::Mpi)
    };
    let per_image = CafUniverse::run_with_config(P, cfg, |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, RECORDS);
        let ev = img.event_alloc(&world);
        let right = (img.this_image() + 1) % P;
        for i in 0..RECORDS {
            img.copy_async_put(&ca, right, i, &[i as u64], AsyncOpts::none());
        }
        img.barrier(&world);
        let before = img.delay_meter_snapshot();
        let buckets_before = img.agg_stats().drained_buckets;
        img.event_notify(&world, &ev, right);
        let after = img.delay_meter_snapshot();
        let drained = img.agg_stats().drained_buckets - buckets_before;
        img.event_wait(&ev);
        img.sync_all();
        img.coarray_free(&world, ca);
        let count = |op: DelayOp| {
            let d = |s: &[(DelayOp, u64, u64)]| {
                s.iter().find(|&&(o, _, _)| o == op).map(|&(_, c, _)| c).unwrap_or(0)
            };
            d(&after) - d(&before)
        };
        (
            drained,
            count(DelayOp::FlushPerTarget),
            count(DelayOp::P2pInject),
            count(DelayOp::RmaPut),
        )
    });
    for (drained, flushes, injects, puts) in per_image {
        assert_eq!(drained, 1, "all {RECORDS} records drained as one bucket");
        assert_eq!(puts, 0, "no per-record RMA puts on the wire");
        assert!(
            flushes <= drained,
            "notify charged {flushes} targeted flushes for {drained} drained bucket(s) \
             ({RECORDS} records) — flush cost must scale with buckets, not records"
        );
        assert!(
            injects <= 2,
            "notify injected {injects} messages for {RECORDS} records — \
             expected one batch + one notify AM"
        );
    }
}

/// Failed-hop reroute regression (DESIGN.md §17): hypercube
/// store-and-forward is an optimization, not a delivery requirement.
/// Routing geometry stays the *world* hypercube even after a reform, so
/// with global rank 1 dead, writer 0 loses its dimension-0 hop toward
/// every odd global destination (0→3, 0→5, 0→7 all route through 1):
/// those records must detour directly to their destinations at drain
/// time instead of being stranded in a dead mailbox. Records *destined*
/// to the dead image are dropped — their target can never apply them.
/// Delivery is then proven complete under the reformed team's `finish`
/// (a degraded-world `finish_stat` discards its counters on failure and
/// guarantees nothing, which is exactly why the reform exists).
#[test]
fn routed_drain_reroutes_around_failed_hop() {
    const RP: usize = 8; // routing needs a power-of-two image count
    const DEAD: usize = 1;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let cfg = CafConfig {
            agg: AggConfig::routed(),
            ..fast(kind)
        };
        let out = CafUniverse::run_with_config_ft(RP, cfg, move |img| {
            let me = img.this_image();
            let world = img.team_world();
            // Allocate while everyone is still alive (a collective over
            // the whole world team). The victim exits the barrier below
            // only once every rank has entered it — i.e. only after
            // every alloc completed — so the kill can never race a
            // survivor's alloc. Survivors may still observe the death
            // *inside* this barrier (fail-fast is conservative), hence
            // the stat-tolerant form.
            let world_ca: Coarray<u64> = img.coarray_alloc(&world, RP);
            let stat = img.sync_all_stat();
            assert!(stat.is_ok() || stat.failed() == [DEAD]);
            if me == DEAD {
                img.fail_image();
            }
            // Wait until the death is visible, so every drain below runs
            // with the failed hop already in the registry.
            let mut seen = false;
            for _ in 0..16 {
                let stat = img.sync_all_stat();
                if stat.failed() == [DEAD] {
                    seen = true;
                    break;
                }
            }
            assert!(seen, "image {me} never observed the death");
            // Dead-destination records: writer 0's goes straight at the
            // failed target and must be counted as dropped, not shipped
            // into the void.
            let ((), stat) = img.finish_stat(&world, |img| {
                img.agg_accumulate_add(&world_ca, DEAD, 0, 0xDEAD);
            });
            assert_eq!(stat.failed(), &[DEAD], "finish must surface the death");

            // Self-heal, then the real exchange on the reformed team:
            // its finish has no failed member, so Yang's termination
            // detection runs to quiescence and delivery is guaranteed.
            let (team, stat) = img.team_reform(&world);
            assert_eq!(stat.failed(), &[DEAD]);
            assert_eq!(team.size(), RP - 1);
            let ca: Coarray<u64> = img.coarray_alloc(&team, RP - 1);
            let t = team.rank();
            // lint:allow(CAFL008) reform dropped the only failed member
            img.finish(&team, |img| {
                for j in 0..RP - 1 {
                    if j != t {
                        img.agg_accumulate_add(&ca, j, t, 1 + t as u64);
                    }
                }
            });
            // lint:allow(CAFL008) same: the reformed team is whole
            img.barrier(&team);
            let table = ca.local_vec(img);
            let stats = img.agg_stats();
            (table, stats.rerouted, stats.dropped_dead)
        });
        assert!(out[DEAD].is_none(), "{kind:?}: the victim's slot must be dropped");
        let mut total_rerouted = 0;
        let mut total_dropped = 0;
        for slot in out.iter().flatten() {
            let (table, rerouted, dropped) = slot;
            for (w, &got) in table.iter().enumerate() {
                // Slot w was written by team rank w with value 1 + w,
                // except the reader's own slot which nobody writes.
                if got != 0 {
                    assert_eq!(got, 1 + w as u64, "{kind:?}: slot {w} corrupted");
                }
            }
            let zeros = table.iter().filter(|&&v| v == 0).count();
            assert_eq!(
                zeros, 1,
                "{kind:?}: a record was stranded on the dead hop ({table:?})"
            );
            total_rerouted += rerouted;
            total_dropped += dropped;
        }
        // Writer global-0 alone owes three detours (0→3, 0→5, 0→7 all
        // lost their first hop), and its dead-destination record is a
        // guaranteed direct drop.
        assert!(
            total_rerouted >= 3,
            "{kind:?}: only {total_rerouted} rerouted records — the detour path never fired"
        );
        assert!(
            total_dropped >= 1,
            "{kind:?}: no dead-destination drop was recorded"
        );
    }
}
