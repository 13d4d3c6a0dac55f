//! End-to-end runs of all four evaluation applications through the public
//! API at laptop scale, on both substrates, including the qualitative
//! behaviours the paper's figures report.

use caf::{CafUniverse, StatCat, SubstrateKind};
use caf_fabric::DelayOp;
use caf_bench::{fast, fusion_fullscale, fusion_like};
use caf_hpcc::cgpop::{self, CgpopParams, ExchangeMode};
use caf_hpcc::{fft, hpl, ra};

#[test]
fn randomaccess_correct_on_both_substrates() {
    let expect = ra::serial_reference(8, 128, 300);
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let locals = CafUniverse::run_with_config(8, fast(kind), |img| {
            let team = img.team_world();
            ra::run(img, &team, 7, 300).local_table
        });
        let got: Vec<u64> = locals.into_iter().flatten().collect();
        assert_eq!(got, expect, "{kind:?}");
    }
}

#[test]
fn ra_decomposition_shows_the_figure4_asymmetry() {
    // With full-scale cost tables, CAF-MPI's event_notify carries a
    // flush_all — one handshake per window per image, Θ(P) — where
    // CAF-GASNet's is one AM. Asserted on the modeled nanoseconds each
    // image is charged at issue inside the timed kernel: a pure function
    // of the program and the cost tables, where the wall-clock shares of
    // a laptop-scale run are microseconds that a busy host reorders.
    fn median(mut v: Vec<u64>) -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    }
    let notify_ns = |kind| {
        let rows = CafUniverse::run_with_config(8, fusion_fullscale(kind), |img| {
            let team = img.team_world();
            let out = ra::run(img, &team, 9, 4000);
            let issued = out.meter_delta.iter().filter(|m| !m.0.receive_side());
            let ns = |op| issued.clone().filter(|m| m.0 == op).map(|m| m.2).sum::<u64>();
            // The release flushes plus the notification message, and
            // everything the image issued.
            let notify = ns(DelayOp::FlushPerTarget) + ns(DelayOp::P2pInject);
            (notify, issued.map(|m| m.2).sum::<u64>())
        });
        (
            median(rows.iter().map(|r| r.0).collect()),
            median(rows.iter().map(|r| r.1).collect()),
        )
    };
    let (mpi_notify, mpi_issued) = notify_ns(SubstrateKind::Mpi);
    let (gas_notify, gas_issued) = notify_ns(SubstrateKind::Gasnet);
    assert!(
        mpi_notify > 2 * gas_notify,
        "MPI median notify {mpi_notify} ns must dwarf GASNet median notify {gas_notify} ns"
    );
    // Notify is where CAF-MPI's time goes and not where CAF-GASNet's
    // does (Figure 4's story; CAF-GASNet's goes to waiting).
    assert!(
        mpi_notify * gas_issued > gas_notify * mpi_issued,
        "notify share: MPI {mpi_notify}/{mpi_issued} ns must exceed GASNet {gas_notify}/{gas_issued} ns"
    );
}

#[test]
fn fft_correct_and_alltoall_accounted() {
    // Correctness at P=8 on both substrates.
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        CafUniverse::run_with_config(8, fast(kind), |img| {
            let team = img.team_world();
            let local_n = 1024 / 8;
            let local: Vec<_> = (0..local_n)
                .map(|i| fft::input_element(img.this_image() * local_n + i))
                .collect();
            let spec = fft::distributed_fft(img, &team, &local, false);
            let back = fft::distributed_fft(img, &team, &spec, true);
            for (a, b) in back.iter().zip(&local) {
                assert!((*a - *b).abs() < 1e-9);
            }
        });
    }

    // Which substrate wins the alltoall, and where, is a *scale*-driven
    // claim: the paper's own small-P points are nearly tied (Fusion @8:
    // 2.54 vs 2.39 GFlop/s). The pure-communication comparison lives in
    // tests/model_validation.rs (alltoall_gap_matches_model_mechanism);
    // the 16-4096-core shape is asserted in caf-netmodel. Here we assert
    // the measurement path itself: the ledger attributes a nonzero, sane
    // share of the FFT to the alltoall on both substrates.
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let rows = CafUniverse::run_with_config(4, fusion_fullscale(kind), |img| {
            let team = img.team_world();
            img.stats().reset();
            let bench = fft::run(img, &team, 15);
            (img.stats().seconds(caf::StatCat::Alltoall), bench.seconds)
        });
        let (a2a, total) = rows[0];
        assert!(a2a > 0.0, "{kind:?}: alltoall must be recorded");
        assert!(a2a < total, "{kind:?}: alltoall is a strict part of the run");
    }
}

#[test]
fn hpl_correct_and_substrate_insensitive() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let residuals = CafUniverse::run_with_config(4, fast(kind), |img| {
            let team = img.team_world();
            hpl::run(img, &team, 96, 12, 3).residual
        });
        assert!(residuals[0] < 16.0, "{kind:?}: residual {}", residuals[0]);
    }
}

#[test]
fn cgpop_all_four_variants_agree() {
    let params = CgpopParams {
        nx: 10,
        ny: 8,
        iters: 20,
    };
    let grid = caf_fabric::topology::Grid2d::new(4);
    let (gx, gy) = (grid.px * params.nx, grid.py * params.ny);
    let (_, serial_res) = cgpop::serial_cg(gx, gy, params.iters);

    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        for mode in [ExchangeMode::Push, ExchangeMode::Pull] {
            let outs = CafUniverse::run_with_config(4, fast(kind), move |img| {
                let team = img.team_world();
                cgpop::run(img, &team, params, mode).final_residual
            });
            assert!(
                (outs[0] - serial_res).abs() < 1e-6 * serial_res.max(1e-30),
                "{kind:?} {mode:?}: {} vs {serial_res}",
                outs[0]
            );
        }
    }
}

#[test]
fn stats_decomposition_accounts_fft_alltoall() {
    // The Figure-8 measurement path: FFT time must be visibly split into
    // alltoall + computation by the built-in stats.
    CafUniverse::run_with_config(4, fusion_like(SubstrateKind::Mpi), |img| {
        let team = img.team_world();
        img.stats().reset();
        let bench = fft::run(img, &team, 14);
        let a2a = img.stats().seconds(StatCat::Alltoall);
        assert!(a2a > 0.0, "alltoall time must be recorded");
        assert!(a2a < bench.seconds, "and be a strict part of the total");
    });
}
