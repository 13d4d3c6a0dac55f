//! # caf-bench
//!
//! Shared harness for the criterion benches and the `figures` binary:
//! platform-flavoured runtime configurations (so substrate cost
//! differences are visible in wall-clock measurements) and small-scale
//! *real-execution* runs of each benchmark on both substrates.
//!
//! Real runs exercise the actual runtimes at laptop scale (2–16 images);
//! the full 16–4096-core figures come from `caf-netmodel`. The `figures`
//! binary prints both.

pub mod heap;

use std::time::Duration;

use caf::{CafConfig, CafUniverse, GasnetConfig, Image, MpiConfig, SubstrateKind};
use caf_hpcc::cgpop::{self, CgpopParams, ExchangeMode};
use caf_hpcc::{fft, hpl, ra};

/// A runtime configuration with the Fusion-flavoured cost tables applied
/// (MVAPICH-like MPI, ibv-conduit-like GASNet, SRQ auto at the paper's
/// threshold — scaled down 100× in time, see the substrate `costs`
/// modules).
pub fn fusion_like(kind: SubstrateKind) -> CafConfig {
    CafConfig {
        substrate: kind,
        mpi: MpiConfig {
            delays: caf_mpisim::mvapich_like(),
            ..MpiConfig::default()
        },
        gasnet: GasnetConfig {
            delays: caf_gasnetsim::ibv_conduit_like(),
            srq_receive_penalty_ns: caf_gasnetsim::SRQ_PENALTY_NS,
            segment_size: 64 << 20,
            ..GasnetConfig::default()
        },
        hybrid_mpi: kind == SubstrateKind::Gasnet,
        ..CafConfig::default()
    }
}

/// As [`fusion_like`], but with the cost tables at **full scale** (the
/// paper's real-hardware nanoseconds, not divided by `TIME_SCALE`).
/// Use for shape-assertion tests: on a small or single-core host, the
/// spin-charged software overheads then dominate scheduling noise, so
/// substrate differences reproduce deterministically.
pub fn fusion_fullscale(kind: SubstrateKind) -> CafConfig {
    fn unscale(mut d: caf_fabric::delay::DelayConfig, by: f64) -> caf_fabric::delay::DelayConfig {
        for c in [
            &mut d.p2p_inject,
            &mut d.p2p_receive,
            &mut d.rma_put,
            &mut d.rma_get,
            &mut d.rma_atomic,
            &mut d.flush_per_target,
            &mut d.am_dispatch,
        ] {
            c.base_ns *= by;
            c.per_byte_ns *= by;
        }
        d
    }
    let mut cfg = fusion_like(kind);
    cfg.mpi.delays = unscale(cfg.mpi.delays, caf_mpisim::TIME_SCALE);
    cfg.gasnet.delays = unscale(cfg.gasnet.delays, caf_gasnetsim::TIME_SCALE);
    cfg.gasnet.srq_receive_penalty_ns *= caf_gasnetsim::TIME_SCALE;
    cfg
}

/// A cost-free configuration (correctness-speed runs).
pub fn fast(kind: SubstrateKind) -> CafConfig {
    CafConfig {
        substrate: kind,
        gasnet: GasnetConfig {
            segment_size: 64 << 20,
            ..GasnetConfig::default()
        },
        hybrid_mpi: kind == SubstrateKind::Gasnet,
        ..CafConfig::default()
    }
}

/// One real-execution measurement row.
#[derive(Debug, Clone)]
pub struct RealRow {
    /// Number of images.
    pub p: usize,
    /// Substrate label.
    pub substrate: &'static str,
    /// Benchmark metric (GUP/s, GFlop/s, seconds...).
    pub metric: f64,
    /// Wall-clock seconds of the timed section.
    pub seconds: f64,
}

fn label(kind: SubstrateKind) -> &'static str {
    match kind {
        SubstrateKind::Mpi => "CAF-MPI",
        SubstrateKind::Gasnet => "CAF-GASNet",
    }
}

/// Real RandomAccess run: `2^log2_local` table entries and `updates`
/// updates per image.
pub fn real_ra(p: usize, kind: SubstrateKind, log2_local: u32, updates: usize) -> RealRow {
    let out = CafUniverse::run_with_config(p, fusion_like(kind), |img| {
        let team = img.team_world();
        ra::run(img, &team, log2_local, updates).bench
    });
    RealRow {
        p,
        substrate: label(kind),
        metric: out[0].metric,
        seconds: out[0].seconds,
    }
}

/// As [`real_ra`], recording the whole run into a `caf-trace` session.
///
/// Runs with the [`fusion_fullscale`] cost tables so the Figure-4
/// asymmetry (CAF-MPI's Θ(P) `flush_all` inside `event_notify`)
/// reproduces deterministically at laptop scale. Returns the measurement
/// row plus the merged trace, from which
/// [`caf_trace::Trace::decomposition`] reproduces the Figure-4 profile
/// and [`caf_trace::Trace::to_chrome_json`] exports a
/// `chrome://tracing` / Perfetto timeline. Fails if another trace
/// session is already recording on the calling thread.
pub fn traced_ra(
    p: usize,
    kind: SubstrateKind,
    log2_local: u32,
    updates: usize,
    reps: usize,
) -> (RealRow, caf_trace::Trace) {
    let session = caf_trace::Session::start(caf_trace::TraceConfig {
        // RA emits packet-level instants for every routed chunk; give
        // each image headroom so a laptop-scale run never wraps.
        ring_capacity: 1 << 18,
        announce_stalls: false,
        ..caf_trace::TraceConfig::default()
    })
    .expect("another trace session is active");
    // Repetitions multiply the notify/wait sample count, so per-image
    // medians of the decomposition are stable against scheduling noise.
    let out = CafUniverse::run_with_config(p, fusion_fullscale(kind), |img| {
        let team = img.team_world();
        (0..reps.max(1))
            .map(|_| ra::run(img, &team, log2_local, updates).bench)
            .last()
            .expect("at least one repetition")
    });
    let row = RealRow {
        p,
        substrate: label(kind),
        metric: out[0].metric,
        seconds: out[0].seconds,
    };
    (row, session.finish())
}

/// Real FFT run of `2^log2_size` points.
pub fn real_fft(p: usize, kind: SubstrateKind, log2_size: u32) -> RealRow {
    let out = CafUniverse::run_with_config(p, fusion_like(kind), |img| {
        let team = img.team_world();
        fft::run(img, &team, log2_size)
    });
    RealRow {
        p,
        substrate: label(kind),
        metric: out[0].metric,
        seconds: out[0].seconds,
    }
}

/// Real HPL run of an `n×n` system with block size `nb`.
pub fn real_hpl(p: usize, kind: SubstrateKind, n: usize, nb: usize) -> RealRow {
    let out = CafUniverse::run_with_config(p, fusion_like(kind), |img| {
        let team = img.team_world();
        let o = hpl::run(img, &team, n, nb, 42);
        assert!(o.residual < 16.0, "HPL residual {}", o.residual);
        o.bench
    });
    RealRow {
        p,
        substrate: label(kind),
        metric: out[0].metric,
        seconds: out[0].seconds,
    }
}

/// Real CGPOP run.
pub fn real_cgpop(
    p: usize,
    kind: SubstrateKind,
    mode: ExchangeMode,
    nx: usize,
    ny: usize,
    iters: usize,
) -> RealRow {
    let out = CafUniverse::run_with_config(p, fusion_like(kind), move |img| {
        let team = img.team_world();
        cgpop::run(img, &team, CgpopParams { nx, ny, iters }, mode).bench
    });
    RealRow {
        p,
        substrate: label(kind),
        metric: out[0].metric,
        seconds: out[0].seconds,
    }
}

/// The three Figure-1 configurations: GASNet-only, MPI-only, and the
/// duplicate runtimes of a hybrid job.
pub fn fig1_configs() -> [CafConfig; 3] {
    let gasnet_only = CafConfig::on(SubstrateKind::Gasnet);
    [
        gasnet_only,
        CafConfig::default(),
        CafConfig { hybrid_mpi: true, ..gasnet_only },
    ]
}

/// What one launch costs each image in memory, by both books.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    /// `MemAccount`'s Figure-1 number: the bytes a real library of this
    /// configuration maps at init. Accounted for, never allocated.
    pub accounted: usize,
    /// Heap bytes an image holds on entering its body ([`heap::live_bytes`],
    /// GASNet segment excluded), averaged over the job — a mailbox block
    /// is on the books of whichever sender touched it first, so only the
    /// job-wide mean is independent of who ran first. Zero unless the
    /// binary installed [`heap::Counting`].
    pub heap: i64,
    /// The GASNet segment each image attached (zero on CAF-MPI): real
    /// memory, but the user's, not the runtime's.
    pub segment: usize,
}

/// Launch `p` images under `cfg` and report their [`Footprint`].
pub fn launch_footprint(p: usize, cfg: CafConfig) -> Footprint {
    let segment = match cfg.substrate {
        SubstrateKind::Gasnet => cfg.gasnet.segment_size,
        SubstrateKind::Mpi => 0,
    };
    let rows = CafUniverse::run_with_config(p, cfg, move |img| {
        (heap::live_bytes() - segment as i64, img.runtime_memory_overhead())
    });
    Footprint {
        accounted: rows[0].1,
        heap: rows.iter().map(|r| r.0).sum::<i64>() / p as i64,
        segment,
    }
}

/// Accounted per-process runtime memory overhead (bytes) for the three
/// Figure-1 configurations, at job size `p`:
/// `(gasnet_only, mpi_only, duplicate)`.
pub fn real_memory(p: usize) -> (usize, usize, usize) {
    let [g, m, d] = fig1_configs().map(|cfg| launch_footprint(p, cfg).accounted);
    (g, m, d)
}

/// Sanitized runs: replay the benchmark kernels under an armed
/// `caf-check` session (the `check_clean` suite and the `figures check`
/// subcommand). Kept out of the measurement paths — the hooks are a
/// single relaxed load when disarmed, but an armed session serializes
/// every RMA call through the checker.
pub mod checked {
    use super::*;
    use caf_check::{CheckConfig, CheckSession, Report};

    /// Run `body` on `p` images of `kind` with the sanitizer armed on
    /// this thread and return its report. Uses the cost-free [`fast`]
    /// configuration: legality does not depend on the cost tables, and
    /// the checker already serializes the interesting calls.
    pub fn checked_run(
        p: usize,
        kind: SubstrateKind,
        body: impl Fn(&Image) + Send + Sync,
    ) -> Report {
        let session = CheckSession::start(CheckConfig::default())
            .expect("another check session is active");
        CafUniverse::run_with_config(p, fast(kind), |img| body(img));
        session.finish()
    }

    /// RandomAccess under the sanitizer.
    pub fn checked_ra(p: usize, kind: SubstrateKind, log2_local: u32, updates: usize) -> Report {
        checked_run(p, kind, |img| {
            let team = img.team_world();
            ra::run(img, &team, log2_local, updates);
        })
    }

    /// FFT under the sanitizer.
    pub fn checked_fft(p: usize, kind: SubstrateKind, log2_size: u32) -> Report {
        checked_run(p, kind, |img| {
            let team = img.team_world();
            fft::run(img, &team, log2_size);
        })
    }

    /// HPL under the sanitizer.
    pub fn checked_hpl(p: usize, kind: SubstrateKind, n: usize, nb: usize) -> Report {
        checked_run(p, kind, |img| {
            let team = img.team_world();
            hpl::run(img, &team, n, nb, 42);
        })
    }

    /// CGPOP under the sanitizer.
    pub fn checked_cgpop(p: usize, kind: SubstrateKind, mode: ExchangeMode) -> Report {
        checked_run(p, kind, move |img| {
            let team = img.team_world();
            cgpop::run(
                img,
                &team,
                CgpopParams {
                    nx: 16,
                    ny: 16,
                    iters: 12,
                },
                mode,
            );
        })
    }
}

/// Run `op_count` timed operations on image 0 of a `p`-image job and
/// return image 0's elapsed time (helper for `iter_custom`-style micro
/// benches).
pub fn timed_on_rank0<F>(p: usize, cfg: CafConfig, f: F) -> Duration
where
    F: Fn(&Image) -> Duration + Send + Sync,
{
    let times = CafUniverse::run_with_config(p, cfg, |img| f(img));
    times[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_rows_are_sane() {
        let row = real_ra(4, SubstrateKind::Mpi, 8, 500);
        assert!(row.metric > 0.0);
        assert_eq!(row.substrate, "CAF-MPI");
        let row = real_fft(4, SubstrateKind::Gasnet, 12);
        assert!(row.metric > 0.0);
    }

    #[test]
    fn memory_rows_reproduce_figure1_ordering() {
        let (g, m, d) = real_memory(4);
        assert!(g < m, "GASNet footprint below MPI: {g} !< {m}");
        assert_eq!(d, g + m, "duplicate = sum");
    }

    #[test]
    fn fusion_like_config_enables_srq_at_threshold() {
        let cfg = fusion_like(SubstrateKind::Gasnet);
        assert_eq!(cfg.gasnet.srq_auto_threshold, 128);
        assert!(cfg.gasnet.srq_receive_penalty_ns > 0.0);
        assert!(cfg.hybrid_mpi);
    }
}
