//! HPC Challenge RandomAccess (GUPS) — random read-modify-write updates to
//! a distributed table, routed with CAF 2.0's hypercube software-routing
//! algorithm: `log2(P)` rounds of bulk exchanges built from **coarray
//! writes** and **event notify/wait** (paper §4.1: "the CAF 2.0 primitives
//! most heavily used in the RandomAccess benchmark are coarray write and
//! event notify").
//!
//! Those two primitives are exactly where CAF-MPI and CAF-GASNet differ
//! most — the per-op RMA overhead gap and the Θ(P) `MPI_Win_flush_all`
//! inside `event_notify` — which is why the paper uses RandomAccess as the
//! communication-library stress test (Figures 3–5) and profiles it into
//! the Figure-4 decomposition.
//!
//! Performance is reported in GUP/s = total updates / seconds / 10⁹.

use std::time::Instant;

use caf::{AsyncOpts, Coarray, Image, Team};
use caf_fabric::topology::{is_pow2, log2_exact};
use caf_fabric::DelayOp;

use crate::BenchResult;

/// The HPCC RandomAccess LFSR polynomial.
pub const POLY: u64 = 0x7;
/// Period of the update stream.
pub const PERIOD: i64 = 1_317_624_576_693_539_401;

/// One step of the HPCC update stream.
#[inline]
pub fn lcg_next(x: u64) -> u64 {
    (x << 1) ^ (((x as i64) < 0) as u64 * POLY)
}

/// The HPCC `HPCC_starts` function: the `n`-th element of the update
/// stream in O(log n) via GF(2) matrix squaring.
pub fn starts(n: i64) -> u64 {
    let mut n = n;
    while n < 0 {
        n += PERIOD;
    }
    while n > PERIOD {
        n -= PERIOD;
    }
    if n == 0 {
        return 0x1;
    }
    let mut m2 = [0u64; 64];
    let mut temp = 0x1u64;
    for slot in m2.iter_mut() {
        *slot = temp;
        temp = lcg_next(lcg_next(temp));
    }
    let mut i: i32 = 62;
    while i >= 0 && (n >> i) & 1 == 0 {
        i -= 1;
    }
    let mut ran = 0x2u64;
    while i > 0 {
        let mut temp = 0u64;
        for (j, m) in m2.iter().enumerate() {
            if (ran >> j) & 1 == 1 {
                temp ^= m;
            }
        }
        ran = temp;
        i -= 1;
        if (n >> i) & 1 == 1 {
            ran = lcg_next(ran);
        }
    }
    ran
}

/// Serial reference: the exact table contents after all images' update
/// streams are applied (XOR updates commute, so this is deterministic).
pub fn serial_reference(
    num_images: usize,
    local_size: usize,
    updates_per_image: usize,
) -> Vec<u64> {
    let table_size = local_size * num_images;
    let mask = (table_size - 1) as u64;
    let mut table: Vec<u64> = (0..table_size as u64).collect();
    for img in 0..num_images {
        let mut ran = starts((img * updates_per_image) as i64);
        for _ in 0..updates_per_image {
            ran = lcg_next(ran);
            table[(ran & mask) as usize] ^= ran;
        }
    }
    table
}

/// Knobs for the RandomAccess router (see [`run_opts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RaOpts {
    /// Route staging buckets with `copy_async_put` instead of the blocking
    /// `Coarray::write`. A blocking write flushes its own target at issue,
    /// so by `event_notify` time nothing is dirty and every flush policy
    /// costs the same; async puts defer remote completion to the notify
    /// release barrier — the paper's §4.1 hot path, where `FlushMode::All`
    /// pays Θ(P) per window and the targeted modes pay O(dirty targets).
    pub async_puts: bool,
    /// Route updates through the `caf-agg` subsystem instead of the
    /// explicit staging router: each update becomes one coalesced
    /// XOR-accumulate record inside a `finish` block, drained as batched
    /// AMs (and hypercube-forwarded when `CafConfig::agg.routing` is on).
    /// Requires aggregation enabled in the universe config.
    pub aggregated: bool,
}

/// Result of a distributed RandomAccess run.
#[derive(Debug, Clone)]
pub struct RaOutcome {
    /// Timing and GUP/s.
    pub bench: BenchResult,
    /// This image's final local table (for verification).
    pub local_table: Vec<u64>,
    /// Per-[`DelayOp`] `(op, count, modeled_ns)` deltas attributable to the
    /// timed kernel on this image — the delay-meter snapshot after the
    /// closing barrier minus the one before the opening barrier, so
    /// allocation and teardown costs (which include their own whole-window
    /// flushes) are excluded. Issue-side entries (`!op.receive_side()`)
    /// are a pure function of the program and safe to gate in CI;
    /// receive-side entries (`AmDispatch`, `P2pReceive`) can catch a
    /// straggler message on either side of the snapshot boundary and so
    /// vary with scheduling.
    pub meter_delta: Vec<(DelayOp, u64, u64)>,
}

/// Run RandomAccess over `team`: a table of `2^log2_local` entries per
/// image, `updates_per_image` updates generated on each image and routed
/// through the hypercube.
///
/// # Panics
///
/// Panics unless the team size is a power of two.
pub fn run(
    img: &Image,
    team: &Team,
    log2_local: u32,
    updates_per_image: usize,
) -> RaOutcome {
    run_opts(img, team, log2_local, updates_per_image, RaOpts::default())
}

/// [`run`] with explicit router options.
///
/// # Panics
///
/// Panics unless the team size is a power of two.
pub fn run_opts(
    img: &Image,
    team: &Team,
    log2_local: u32,
    updates_per_image: usize,
    opts: RaOpts,
) -> RaOutcome {
    let p = team.size();
    assert!(is_pow2(p), "RandomAccess requires a power-of-two team");
    let d = log2_exact(p);
    let me = team.rank();
    let local_size = 1usize << log2_local;
    let table_size = local_size * p;
    let mask = (table_size - 1) as u64;

    // Table coarray, initialized to the identity permutation.
    let table: Coarray<u64> = img.coarray_alloc(team, local_size);
    let init: Vec<u64> = (0..local_size as u64)
        .map(|i| me as u64 * local_size as u64 + i)
        .collect();
    table.local_write(img, 0, &init);

    if opts.aggregated {
        return run_aggregated(img, team, table, log2_local, updates_per_image);
    }

    // Per-round staging slots: [header][data ...], one slot per round so a
    // fast partner in round k+1 can never clobber unconsumed round-k data.
    // The slot is a *fixed-size window*, not a bound on the bucket: a
    // bucket larger than `cap` streams through it in chunks (header bit 63
    // = "more chunks follow"), each chunk acknowledged on a dedicated
    // per-round event before the sender overwrites the slot. Low bits of
    // the LCG stream are far from uniform, so at larger P a single image
    // can attract a multiple of the per-image update count in one round —
    // the old `count <= cap` assert tripped at P >= 16 and wedged every
    // other image in `event_wait`.
    let cap = 4 * updates_per_image + 64;
    let staging: Coarray<u64> = img.coarray_alloc(team, d as usize * (cap + 1));
    let round_events: Vec<caf::Event> = (0..d).map(|_| img.event_alloc(team)).collect();
    let ack_events: Vec<caf::Event> = (0..d).map(|_| img.event_alloc(team)).collect();
    const MORE: u64 = 1 << 63;

    img.barrier(team);
    let meter_before = img.delay_meter_snapshot();
    let t = Instant::now();

    // Generate this image's update stream.
    let mut pending: Vec<u64> = Vec::with_capacity(2 * updates_per_image);
    let mut ran = starts((me * updates_per_image) as i64);
    for _ in 0..updates_per_image {
        ran = lcg_next(ran);
        pending.push(ran);
    }

    // Hypercube routing: in round k, updates whose destination differs
    // from me in bit k travel to partner = me ^ 2^k.
    for k in 0..d {
        let partner = me ^ (1usize << k);
        let mut keep = Vec::with_capacity(pending.len());
        let mut out = Vec::with_capacity(pending.len());
        for &u in &pending {
            let dest = ((u & mask) as usize) >> log2_local;
            if (dest >> k) & 1 == (me >> k) & 1 {
                keep.push(u);
            } else {
                out.push(u);
            }
        }
        let slot_base = k as usize * (cap + 1);
        let nchunks = out.len().div_ceil(cap).max(1);
        let send_chunk = |j: usize| {
            let lo = j * cap;
            let hi = (lo + cap).min(out.len());
            let mut buf = Vec::with_capacity(hi - lo + 1);
            let more = if j + 1 < nchunks { MORE } else { 0 };
            buf.push((hi - lo) as u64 | more);
            buf.extend_from_slice(&out[lo..hi]);
            if opts.async_puts {
                // Remote completion deferred to the notify release barrier:
                // this is where the flush policy is actually exercised.
                img.copy_async_put(&staging, partner, slot_base, &buf, AsyncOpts::none());
            } else {
                table_guard(&staging, img, partner, slot_base, &buf);
            }
            img.event_notify(team, &round_events[k as usize], partner);
        };

        // Prime the window with the first chunk, then alternate one
        // receive step (absorb a partner chunk, ack it if more follow)
        // with one send step (wait for the partner's ack of the chunk in
        // flight, then overwrite the slot with the next). Acks are sent
        // *before* blocking again, so two peers chunking at each other
        // always hand each other progress.
        send_chunk(0);
        let mut next = 1;
        let mut recv_done = false;
        while !recv_done || next < nchunks {
            if !recv_done {
                img.event_wait(&round_events[k as usize]);
                let mut header = [0u64; 1];
                staging.local_read(img, slot_base, &mut header);
                let incoming = (header[0] & !MORE) as usize;
                if incoming > 0 {
                    let mut buf = vec![0u64; incoming];
                    staging.local_read(img, slot_base + 1, &mut buf);
                    keep.extend_from_slice(&buf);
                }
                if header[0] & MORE != 0 {
                    img.event_notify(team, &ack_events[k as usize], partner);
                } else {
                    recv_done = true;
                }
            }
            if next < nchunks {
                img.event_wait(&ack_events[k as usize]);
                send_chunk(next);
                next += 1;
            }
        }
        pending = keep;
    }

    // All pending updates are now local: apply the XORs.
    let mut local = table.local_vec(img);
    let base = (me * local_size) as u64;
    for &u in &pending {
        let idx = (u & mask) - base;
        local[idx as usize] ^= u;
    }
    table.local_write(img, 0, &local);

    img.barrier(team);
    let dt = t.elapsed().as_secs_f64();
    let meter_after = img.delay_meter_snapshot();
    let secs = img.allreduce(team, &[dt], |a, b| a.max(b))[0];
    let total_updates = (updates_per_image * p) as f64;

    let meter_delta = meter_after
        .iter()
        .zip(meter_before.iter())
        .map(|(&(op, ca, na), &(_, cb, nb))| (op, ca - cb, na - nb))
        .collect();

    let local_table = table.local_vec(img);
    img.coarray_free(team, staging);
    img.coarray_free(team, table);

    RaOutcome {
        bench: BenchResult {
            seconds: secs,
            metric: total_updates / secs * 1e-9,
        },
        local_table,
        meter_delta,
    }
}

/// Thin wrapper so the staging write shows up as a `coarray_write` in the
/// stats decomposition (it is *the* hot write of this benchmark).
fn table_guard(staging: &Coarray<u64>, img: &Image, partner: usize, off: usize, data: &[u64]) {
    staging.write(img, partner, off, data);
}

/// The aggregated update loop: no staging coarray, no per-round events —
/// every update is one `agg_accumulate_xor` record, coalesced per
/// (next-hop) target and delivered in batched AMs; the closing `finish`
/// awaits all batches and forwarded chains (owner-side application keeps
/// the read-modify-write atomic, so no extra synchronization is needed).
fn run_aggregated(
    img: &Image,
    team: &Team,
    table: Coarray<u64>,
    log2_local: u32,
    updates_per_image: usize,
) -> RaOutcome {
    assert!(
        img.agg_config().enabled,
        "RaOpts::aggregated requires CafConfig::agg.enabled"
    );
    let p = team.size();
    let me = team.rank();
    let local_size = 1usize << log2_local;
    let mask = (local_size * p - 1) as u64;

    img.barrier(team);
    let meter_before = img.delay_meter_snapshot();
    let t = Instant::now();

    let mut ran = starts((me * updates_per_image) as i64);
    img.finish(team, |img| {
        for _ in 0..updates_per_image {
            ran = lcg_next(ran);
            let idx = (ran & mask) as usize;
            let dest = idx >> log2_local;
            img.agg_accumulate_xor(&table, dest, idx & (local_size - 1), ran);
        }
    });

    img.barrier(team);
    let dt = t.elapsed().as_secs_f64();
    let meter_after = img.delay_meter_snapshot();
    let secs = img.allreduce(team, &[dt], |a, b| a.max(b))[0];
    let total_updates = (updates_per_image * p) as f64;

    let meter_delta = meter_after
        .iter()
        .zip(meter_before.iter())
        .map(|(&(op, ca, na), &(_, cb, nb))| (op, ca - cb, na - nb))
        .collect();

    let local_table = table.local_vec(img);
    img.coarray_free(team, table);

    RaOutcome {
        bench: BenchResult {
            seconds: secs,
            metric: total_updates / secs * 1e-9,
        },
        local_table,
        meter_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf::{CafConfig, CafUniverse, SubstrateKind};

    /// One **fault-tolerant** aggregated RandomAccess epoch over `team`
    /// (DESIGN.md §17): the kernel of [`run_aggregated`] with every blocking
    /// point threading a `Stat`, so a member dying mid-epoch surfaces as
    /// `Err(failed)` instead of a hang or a panic. The caller owns recovery:
    /// `team_reform` the team and retry the epoch on the survivors (RA needs
    /// a power-of-two team, so pick fault plans whose survivor count stays
    /// one).
    ///
    /// On a failed epoch the table coarray is intentionally **leaked** — a
    /// collective free over a team with a dead member can never complete.
    /// The retry allocates a fresh table on the reformed team.
    ///
    /// # Panics
    ///
    /// Panics unless the team size is a power of two and aggregation is
    /// enabled in the universe config.
    fn run_aggregated_epoch_ft(
        img: &Image,
        team: &Team,
        log2_local: u32,
        updates_per_image: usize,
    ) -> Result<Vec<u64>, Vec<usize>> {
        assert!(
            img.agg_config().enabled,
            "run_aggregated_epoch_ft requires CafConfig::agg.enabled"
        );
        let p = team.size();
        assert!(is_pow2(p), "RandomAccess requires a power-of-two team");
        let me = team.rank();
        let local_size = 1usize << log2_local;
        let mask = (local_size * p - 1) as u64;

        // The alloc is a collective; a member that dies *after* its own
        // participation still lets this complete (its contributions are
        // already in flight and already-delivered data wins over the death).
        let table: Coarray<u64> = img.coarray_alloc(team, local_size);
        let init: Vec<u64> = (0..local_size as u64)
            .map(|i| me as u64 * local_size as u64 + i)
            .collect();
        table.local_write(img, 0, &init);
        let stat = img.barrier_stat(team);
        if !stat.is_ok() {
            return Err(stat.failed().to_vec());
        }

        let ((), stat) = img.finish_stat(team, |img| {
            let mut ran = starts((me * updates_per_image) as i64);
            for _ in 0..updates_per_image {
                ran = lcg_next(ran);
                let idx = (ran & mask) as usize;
                let dest = idx >> log2_local;
                img.agg_accumulate_xor(&table, dest, idx & (local_size - 1), ran);
            }
        });
        if !stat.is_ok() {
            return Err(stat.failed().to_vec());
        }
        let stat = img.barrier_stat(team);
        if !stat.is_ok() {
            return Err(stat.failed().to_vec());
        }

        let local = table.local_vec(img);
        img.coarray_free(team, table);
        Ok(local)
    }

    #[test]
    fn stream_matches_known_values() {
        // starts(0) is defined as 1; the stream must be reproducible and
        // starts(n) must equal n steps from starts(0).
        assert_eq!(starts(0), 1);
        let mut x = starts(0);
        for n in 1..200i64 {
            x = lcg_next(x);
            assert_eq!(starts(n), x, "starts({n})");
        }
    }

    #[test]
    fn lcg_has_no_short_cycle() {
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = lcg_next(x);
            assert_ne!(x, 0);
        }
        assert_ne!(x, 1);
    }

    #[test]
    fn distributed_matches_serial_reference() {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for p in [1usize, 2, 4] {
                let expect = serial_reference(p, 256, 500);
                let locals = CafUniverse::run_with_config(
                    p,
                    CafConfig::on(kind),
                    |img| {
                        let team = img.team_world();
                        run(img, &team, 8, 500).local_table
                    },
                );
                let got: Vec<u64> = locals.into_iter().flatten().collect();
                assert_eq!(got, expect, "substrate {kind:?} P={p}");
            }
        }
    }

    #[test]
    fn async_put_router_matches_reference_under_all_flush_modes() {
        // The §4.1 hot-path variant must stay correct under every flush
        // policy on both substrates.
        use caf::FlushMode;
        let p = 4;
        let expect = serial_reference(p, 256, 500);
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for flush in [FlushMode::All, FlushMode::Targeted, FlushMode::Rflush] {
                let cfg = CafConfig {
                    flush,
                    ..CafConfig::on(kind)
                };
                let locals = CafUniverse::run_with_config(p, cfg, |img| {
                    let team = img.team_world();
                    run_opts(img, &team, 8, 500, RaOpts { async_puts: true, ..RaOpts::default() }).local_table
                });
                let got: Vec<u64> = locals.into_iter().flatten().collect();
                assert_eq!(got, expect, "substrate {kind:?} flush {}", flush.name());
            }
        }
    }

    #[test]
    fn targeted_flush_cheaper_than_flush_all_on_notify_path() {
        // The tentpole contrast: with async puts (one dirty target per
        // round), FlushMode::All pays a per-rank flush charge for every
        // rank of every window at each notify, while Targeted pays one.
        // The delay meter isolates the kernel (alloc/free excluded).
        use caf::FlushMode;
        use caf_fabric::DelayOp;
        let p = 8;
        let flush_count = |flush: FlushMode| -> u64 {
            let cfg = CafConfig {
                flush,
                ..CafConfig::on(SubstrateKind::Mpi)
            };
            let counts = CafUniverse::run_with_config(p, cfg, |img| {
                let team = img.team_world();
                let out = run_opts(img, &team, 8, 300, RaOpts { async_puts: true, ..RaOpts::default() });
                out.meter_delta
                    .iter()
                    .find(|(op, _, _)| *op == DelayOp::FlushPerTarget)
                    .map(|&(_, c, _)| c)
                    .unwrap_or(0)
            });
            counts.iter().sum()
        };
        let all = flush_count(FlushMode::All);
        let targeted = flush_count(FlushMode::Targeted);
        let rflush = flush_count(FlushMode::Rflush);
        // All: every notify flushes both windows rank-by-rank (Θ(P) each).
        // Targeted/rflush: only the round's single dirty partner.
        assert!(
            targeted * 2 < all,
            "targeted ({targeted}) should be far below flush_all ({all})"
        );
        assert!(
            rflush * 2 < all,
            "rflush ({rflush}) should be far below flush_all ({all})"
        );
    }

    #[test]
    fn aggregated_router_matches_reference() {
        // The coalesced-update path must be byte-identical to the
        // explicit router, with and without hypercube forwarding.
        use caf::AggConfig;
        let p = 4;
        let expect = serial_reference(p, 256, 500);
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for routing in [false, true] {
                let cfg = CafConfig {
                    agg: AggConfig {
                        routing,
                        ..AggConfig::on()
                    },
                    ..CafConfig::on(kind)
                };
                let locals = CafUniverse::run_with_config(p, cfg, |img| {
                    let team = img.team_world();
                    run_opts(
                        img,
                        &team,
                        8,
                        500,
                        RaOpts {
                            aggregated: true,
                            ..RaOpts::default()
                        },
                    )
                    .local_table
                });
                let got: Vec<u64> = locals.into_iter().flatten().collect();
                assert_eq!(got, expect, "substrate {kind:?} routing {routing}");
            }
        }
    }

    #[test]
    fn ra_survives_mid_epoch_failure_with_shrunken_team() {
        // Images 2 and 3 die at their first non-empty aggregation drain —
        // inside the epoch's finish block, after updates are already on
        // the wire. Survivors see the failed epoch as Err(failed), reform
        // the team (4 -> 2, still a power of two), and re-run the epoch;
        // the shrunken run must match the serial reference for 2 images.
        use caf::{AggConfig, FaultPlan, KillSite};
        // 401 updates: prime, so the final partial bucket can never land
        // exactly empty and skip the victims' drain-site kill.
        const UPDATES: usize = 401;
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let cfg = CafConfig {
                agg: AggConfig::on(),
                fault: FaultPlan::kill(2, KillSite::Op { name: "agg_drain", hits: 1 })
                    .with(3, KillSite::Op { name: "agg_drain", hits: 1 }),
                ..CafConfig::on(kind)
            };
            let out = CafUniverse::run_with_config_ft(4, cfg, |img| {
                let me = img.this_image();
                let mut team = img.team_world();
                for attempt in 1..=4 {
                    match run_aggregated_epoch_ft(img, &team, 8, UPDATES) {
                        Ok(local) => return (team.size(), local, attempt),
                        Err(failed) => {
                            assert!(!failed.is_empty());
                            // A victim whose epoch fail-fasted on the
                            // *other* victim's death before its own
                            // drain-site kill fired would survive
                            // forever — and wedge the team at size 3.
                            // Die now: the abort is still mid-epoch.
                            if me == 2 || me == 3 {
                                img.fail_image();
                            }
                            // The two deaths may not surface in the same
                            // epoch: a survivor can see Err([2]) and reform
                            // while image 3's death is still unregistered,
                            // leaving a 3-member (non-power-of-two) team.
                            // Reform until the team is whole again — clean
                            // barrier AND power-of-two — before retrying;
                            // team_reform's own agreement barrier folds in
                            // deaths among current members, so this
                            // converges once both victims are gone.
                            loop {
                                let (reformed, _stat) = img.team_reform(&team);
                                team = reformed;
                                if team.size().is_power_of_two()
                                    && img.barrier_stat(&team).is_ok()
                                {
                                    break;
                                }
                            }
                        }
                    }
                }
                panic!("epoch retry did not converge");
            });
            assert!(out[2].is_none() && out[3].is_none(), "{kind:?}: victims must die");
            let expect = serial_reference(2, 256, UPDATES);
            let mut got = Vec::new();
            for g in [0usize, 1] {
                let (size, local, attempt) = out[g].clone().expect("survivors complete");
                assert_eq!(size, 2, "{kind:?}: image {g} finished on the shrunken team");
                assert!(attempt >= 2, "{kind:?}: image {g} never saw the failed epoch");
                got.extend(local);
            }
            assert_eq!(got, expect, "{kind:?}: shrunken-team RA diverged from reference");
        }
    }

    #[test]
    fn gups_metric_is_positive() {
        CafUniverse::run(4, |img| {
            let team = img.team_world();
            let out = run(img, &team, 8, 1000);
            assert!(out.bench.metric > 0.0);
            assert!(out.bench.seconds > 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "requires a power-of-two team")]
    fn non_pow2_team_rejected() {
        CafUniverse::run(3, |img| {
            let team = img.team_world();
            let _ = run(img, &team, 4, 10);
        });
    }

    #[test]
    fn updates_touch_remote_images() {
        // Sanity: with 4 images the router must actually move data — the
        // reference differs from what purely-local application would give.
        let p = 4;
        let expect = serial_reference(p, 64, 400);
        let mut local_only: Vec<u64> = (0..(64 * p) as u64).collect();
        for im in 0..p {
            let mut ran = starts((im * 400) as i64);
            let base = im * 64;
            for _ in 0..400 {
                ran = lcg_next(ran);
                let idx = (ran & (64 * p - 1) as u64) as usize;
                if idx >= base && idx < base + 64 {
                    local_only[idx] ^= ran;
                }
            }
        }
        assert_ne!(expect, local_only);
    }
}

