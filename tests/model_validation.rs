//! Cross-validation: the analytic model's *mechanisms* must be visible in
//! real execution. Where `caf-netmodel` predicts a trend from a mechanism
//! (flush_all Θ(P), constant GASNet notify, tuned vs hand-rolled
//! alltoall), the same trend must appear when the actual runtimes execute
//! with cost tables enabled; and since both read one `Platform`, the
//! executed issue-side cost of a write + notify is the model's number.

use caf::{CafConfig, CafUniverse, Image, StatCat, SubstrateKind};
use caf_bench::{fusion_like, platform_config};
use caf_netmodel::{Platform, Substrate, EDISON, FUSION};
use std::time::Instant;

/// The windows (coarrays) each image holds in the notify runs. CAF-MPI's
/// `event_notify` flushes every one of them whole, so it pays the model's
/// Θ(P) flush term once per window.
const WINDOWS: usize = 3;

/// Modeled nanoseconds this image has been charged so far, issue-side ops
/// only: those are charged at the image's own call sites, so the total is
/// a pure function of the program and the cost table — exact on every
/// host and every run. (Receive-side ops are charged by whichever poll
/// finds the message, so a snapshot delta can gain or lose a straggler.)
fn issued_ns(img: &Image) -> u64 {
    img.delay_meter_snapshot()
        .into_iter()
        .filter(|(op, _, _)| !op.receive_side())
        .map(|(_, _, ns)| ns)
        .sum()
}

/// Three runs of `run`: its modeled cost, which must repeat exactly, and
/// the best of its wall clocks.
fn best_of_3<C: PartialEq + Copy + std::fmt::Debug>(run: impl Fn() -> (C, f64)) -> (C, f64) {
    let runs: Vec<(C, f64)> = (0..3).map(|_| run()).collect();
    assert!(runs.iter().all(|r| r.0 == runs[0].0), "modeled cost must repeat: {runs:?}");
    (runs[0].0, runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min))
}

/// Image 0's cost of one write + `event_notify` at job size `p` under
/// `cfg`, holding [`WINDOWS`] windows: `(modeled ns, wall seconds)` per
/// call.
fn notify_cost_per_call(p: usize, cfg: CafConfig, calls: usize) -> (f64, f64) {
    let rows = CafUniverse::run_with_config(p, cfg, move |img| {
        let w = img.team_world();
        let ev = img.event_alloc(&w);
        let cas: Vec<caf::Coarray<u64>> = (0..WINDOWS).map(|_| img.coarray_alloc(&w, 8)).collect();
        img.sync_all();
        let me = img.this_image();
        let cost = if me == 0 {
            let (ns, t) = (issued_ns(img), Instant::now());
            for _ in 0..calls {
                cas[0].write(img, 1, 0, &[1]);
                img.event_notify(&w, &ev, 1);
            }
            ((issued_ns(img) - ns) as f64, t.elapsed().as_secs_f64())
        } else {
            if me == 1 {
                for _ in 0..calls {
                    img.event_wait(&ev);
                }
            }
            (0.0, 0.0)
        };
        img.sync_all();
        for ca in cas {
            img.coarray_free(&w, ca);
        }
        cost
    });
    (rows[0].0 / calls as f64, rows[0].1 / calls as f64)
}

/// Mechanism 1 (paper §4.1): MPI `event_notify` cost grows with job size
/// (flush_all is Θ(P)); GASNet's does not grow comparably. Asserted on the
/// modeled cost, which is deterministic; the wall clock of the same runs
/// (best of 3) is printed for the curious and never compared — on a
/// two-core host it flips in a third of runs.
#[test]
fn notify_scaling_matches_model_mechanism() {
    let calls = 300;
    let measure = |p, kind| best_of_3(|| notify_cost_per_call(p, fusion_like(kind), calls));
    let (mpi_small, mpi_small_s) = measure(2, SubstrateKind::Mpi);
    let (mpi_large, mpi_large_s) = measure(12, SubstrateKind::Mpi);
    let (gas_small, gas_small_s) = measure(2, SubstrateKind::Gasnet);
    let (gas_large, gas_large_s) = measure(12, SubstrateKind::Gasnet);
    println!(
        "per notify, P=2 -> P=12: MPI {mpi_small} -> {mpi_large} modeled ns, GASNet {gas_small} \
         -> {gas_large}; wall clock (info only) MPI {mpi_small_s:.2e} -> {mpi_large_s:.2e} s, \
         GASNet {gas_small_s:.2e} -> {gas_large_s:.2e} s"
    );

    let mpi_growth = mpi_large / mpi_small;
    let gas_growth = gas_large / gas_small;
    assert!(
        mpi_growth >= 1.3,
        "MPI notify must grow with P: {mpi_small} -> {mpi_large} modeled ns"
    );
    assert!(
        mpi_growth > gas_growth,
        "MPI notify growth ({mpi_growth:.2}) must exceed GASNet's ({gas_growth:.2})"
    );
}

/// netmodel's cost of one `write` + `event_notify` on `plat` with
/// `windows` windows held: `put_ns + notify_ns(P)`, the notify's Θ(P)
/// flush term counted once per window.
fn predicted_ns(plat: &Platform, sub: Substrate, p: usize, windows: usize) -> f64 {
    let flush = plat.notify_ns(sub, p) - plat.notify_ns(sub, 0);
    plat.put_ns(sub) + plat.notify_ns(sub, p) + (windows - 1) as f64 * flush
}

/// The numbers, not only the trend: at full scale the executed issue-side
/// modeled ns per write + notify is within 5 % of netmodel's prediction,
/// on Fusion and Edison, both substrates, P = 2, 16 and 64. What remains
/// is CAF-MPI's blocking write completing with one `MPI_Win_flush` to
/// its target, which the model's write constant (the paper's WRITE panel
/// rate) already holds — 330 ns, 4.4 % of Fusion's P = 2 point and less
/// at every larger P — and the per-byte terms of the 8-byte put and the
/// notify frame, which the model's small-message constants leave out.
#[test]
fn notify_cost_matches_model_numbers() {
    let subs = [(SubstrateKind::Mpi, Substrate::Mpi), (SubstrateKind::Gasnet, Substrate::Gasnet)];
    for plat in [FUSION, EDISON] {
        for (kind, sub) in subs {
            for p in [2, 16, 64] {
                let (got, _) = notify_cost_per_call(p, platform_config(&plat, kind, 1.0), 4);
                let want = predicted_ns(&plat, sub, p, WINDOWS);
                println!("{} {sub:?} P={p}: executed {got:.0} ns, model {want:.0} ns", plat.name);
                assert!(
                    (got / want - 1.0).abs() < 0.05,
                    "{} {sub:?} P={p}: executed {got} ns per write + notify, model {want} ns",
                    plat.name
                );
            }
        }
    }
}

/// Mechanism 2 (paper §4.2): the alltoall gap favours the MPI substrate
/// and is the FFT driver. Measured directly on the collective, on image
/// 0's modeled cost; wall clock printed, never compared.
#[test]
fn alltoall_gap_matches_model_mechanism() {
    let cost_a2a = |kind| {
        let rows = CafUniverse::run_with_config(8, fusion_like(kind), |img| {
            let w = img.team_world();
            let send: Vec<f64> = (0..8 * 512).map(|i| i as f64).collect();
            img.sync_all();
            let (ns, t) = (issued_ns(img), Instant::now());
            for _ in 0..10 {
                let _ = img.alltoall(&w, &send, 512);
            }
            let cost = (issued_ns(img) - ns, t.elapsed().as_secs_f64());
            img.sync_all();
            cost
        });
        rows[0]
    };
    let (mpi, mpi_s) = best_of_3(|| cost_a2a(SubstrateKind::Mpi));
    let (gas, gas_s) = best_of_3(|| cost_a2a(SubstrateKind::Gasnet));
    println!(
        "ten alltoalls: MPI {mpi} modeled ns, GASNet {gas}; wall clock (info only) MPI \
         {mpi_s:.4} s, GASNet {gas_s:.4} s"
    );
    assert!(
        gas > mpi,
        "hand-rolled GASNet alltoall ({gas} modeled ns) must cost more than MPI's ({mpi})"
    );
}

/// Mechanism 3 (Figure 1): memory ordering GASNet < MPI < duplicate holds
/// in real accounting at every job size, as the model assumes.
#[test]
fn memory_ordering_matches_model() {
    for p in [2usize, 4, 8] {
        let (g, m, d) = caf_bench::real_memory(p);
        assert!(g < m && m < d, "P={p}: {g} / {m} / {d}");
    }
    // Growth with P, both runtimes (the model's log/linear terms).
    let (g2, m2, _) = caf_bench::real_memory(2);
    let (g16, m16, _) = caf_bench::real_memory(16);
    assert!(g16 > g2);
    assert!(m16 > m2);
}

/// The per-primitive stats ledger respects conservation: category times
/// sum to no more than the wall clock of the run that produced them.
#[test]
fn stats_are_conservative() {
    let rows = CafUniverse::run_collect_stats(
        4,
        fusion_like(SubstrateKind::Mpi),
        |img| {
            let w = img.team_world();
            let t = Instant::now();
            let _ = caf_hpcc::fft::run(img, &w, 13);
            t.elapsed().as_secs_f64()
        },
    );
    for (wall, report) in rows {
        let total: f64 = report.rows.iter().map(|&(_, s, _)| s).sum();
        assert!(
            total <= wall * 1.05 + 0.01,
            "categories ({total:.4}s) exceed wall clock ({wall:.4}s)"
        );
        assert!(report.seconds(StatCat::Alltoall) > 0.0);
    }
}
