//! # caf-bench
//!
//! Shared harness for the `figures` binary and the integration tests:
//! runtime configurations that charge a platform's costs (so substrate
//! cost differences are visible in wall-clock measurements) and
//! small-scale *real-execution* runs of each benchmark on both substrates.
//! [`platform_config`] is the one mapping from `caf_netmodel::Platform`,
//! whose constants also draw the model's figures, to the tables the
//! executed substrates charge.
//!
//! Real runs exercise the actual runtimes at laptop scale (2–16 images);
//! the full 16–4096-core figures come from `caf-netmodel`. The `figures`
//! binary prints both. [`json`] is the workspace's one JSON reader: the
//! `bench` binary reads its committed baselines with it.

pub mod heap;
pub mod json;

use std::time::Duration;

use caf::{CafConfig, CafUniverse, GasnetConfig, Image, MpiConfig, SubstrateKind};
use caf_fabric::delay::{DelayConfig, OpCost, TIME_SCALE};
use caf_netmodel::{Platform, Substrate, FUSION};
use caf_hpcc::cgpop::{self, CgpopParams, ExchangeMode};
use caf_hpcc::{fft, hpl, ra};

/// MPI receive half of a two-sided message (the blocking receive poll
/// that matches an `MPI_ISEND`), full-scale ns. Executed only: the
/// model's notify and alltoall terms are issue-side, so no `Platform`
/// field carries it.
const MPI_P2P_RECEIVE_NS: f64 = 1_500.0;
/// MPI one-sided atomic (`MPI_Fetch_and_op` / `MPI_Accumulate`),
/// full-scale ns. Executed only: no paper panel measures one, and no
/// model formula reads one.
const MPI_RMA_ATOMIC_NS: f64 = 5_200.0;
/// GASNet receive-side dispatch of one active message, full-scale ns.
/// Executed only: the model's `gasnet_notify_ns` is the request's
/// issue-side cost.
const GASNET_AM_DISPATCH_NS: f64 = 700.0;

/// The cost table the executed `sub` charges on `plat`, every cost
/// divided by `scale`: `caf_netmodel::Platform` owns each cost the model
/// also reads, and the three executed-only costs above fill the rest.
/// What a substrate never charges stays free (DESIGN §5.1).
fn delays(plat: &Platform, sub: Substrate, scale: f64) -> DelayConfig {
    let per_byte = plat.per_byte_ns(sub);
    let cost = |base_ns: f64, per_byte_ns: f64| OpCost {
        base_ns: base_ns / scale,
        per_byte_ns: per_byte_ns / scale,
    };
    let fixed = |base_ns: f64| OpCost { base_ns: base_ns / scale, ..OpCost::FREE };
    let table = DelayConfig {
        rma_put: cost(plat.put_ns(sub), per_byte),
        rma_get: cost(plat.get_ns(sub), per_byte),
        // The notify message: `notify_ns` less its Θ(P) flush term.
        p2p_inject: cost(plat.notify_ns(sub, 0), per_byte),
        ..DelayConfig::free()
    };
    match sub {
        Substrate::Mpi => DelayConfig {
            p2p_receive: cost(MPI_P2P_RECEIVE_NS, per_byte),
            rma_atomic: fixed(MPI_RMA_ATOMIC_NS),
            flush_per_target: fixed(plat.mpi_flush_per_rank_ns),
            ..table
        },
        Substrate::Gasnet => DelayConfig { am_dispatch: fixed(GASNET_AM_DISPATCH_NS), ..table },
    }
}

/// A runtime configuration charging `plat`'s costs, each divided by
/// `scale`: the model's constants on both substrates, SRQ auto at the
/// platform's threshold with its receive path slowed by `srq_penalty`
/// (each received AM costs `srq_penalty` AMs), and a hybrid MPI library
/// beside CAF-GASNet.
pub fn platform_config(plat: &Platform, kind: SubstrateKind, scale: f64) -> CafConfig {
    CafConfig {
        substrate: kind,
        mpi: MpiConfig {
            delays: delays(plat, Substrate::Mpi, scale),
            ..MpiConfig::default()
        },
        gasnet: GasnetConfig {
            delays: delays(plat, Substrate::Gasnet, scale),
            srq_auto_threshold: plat.srq_threshold,
            srq_receive_penalty_ns: (plat.srq_penalty - 1.0) * plat.gasnet_notify_ns / scale,
            segment_size: 64 << 20,
            ..GasnetConfig::default()
        },
        hybrid_mpi: kind == SubstrateKind::Gasnet,
        ..CafConfig::default()
    }
}

/// [`platform_config`] on Fusion, scaled down by `TIME_SCALE` so that
/// spun costs keep every ratio but finish quickly.
pub fn fusion_like(kind: SubstrateKind) -> CafConfig {
    platform_config(&FUSION, kind, TIME_SCALE)
}

/// [`platform_config`] on Fusion at **full scale** (the paper's
/// real-hardware nanoseconds). Use for shape-assertion tests: on a small
/// or single-core host, the spin-charged software overheads then
/// dominate scheduling noise, so substrate differences reproduce
/// deterministically.
pub fn fusion_fullscale(kind: SubstrateKind) -> CafConfig {
    platform_config(&FUSION, kind, 1.0)
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

/// Sanitized runs: the benchmark kernels recorded by a `caf-trace`
/// session and replayed through `caf-check` (the `check_clean` suite and
/// the `figures check` subcommand). An armed session adds only its
/// records to each operation: the run keeps the schedule of an unchecked
/// one.
pub mod checked {
    use super::*;
    use caf_check::{check_trace, CheckConfig, Report};
    use caf_trace::{Session, TraceConfig};

    /// Run `body` on `p` images of `cfg` under a trace session armed on
    /// this thread, and return the replay's report. The kernels below use
    /// the cost-free [`fast`] configuration: legality does not depend on
    /// the cost tables.
    pub fn checked_run(p: usize, cfg: CafConfig, body: impl Fn(&Image) + Send + Sync) -> Report {
        let session = Session::start(TraceConfig {
            // A ring allocates only the blocks it writes: room to spare
            // costs nothing, and a ring that wrapped fails the report.
            ring_capacity: 1 << 18,
            stall_threshold: None,
            ..TraceConfig::default()
        })
        .expect("another trace session is active");
        CafUniverse::run_with_config(p, cfg, |img| body(img));
        check_trace(&session.finish(), CheckConfig::default())
    }

    /// RandomAccess under the sanitizer.
    pub fn checked_ra(p: usize, kind: SubstrateKind, log2_local: u32, updates: usize) -> Report {
        checked_run(p, fast(kind), |img| {
            let team = img.team_world();
            ra::run(img, &team, log2_local, updates);
        })
    }

    /// FFT under the sanitizer.
    pub fn checked_fft(p: usize, kind: SubstrateKind, log2_size: u32) -> Report {
        checked_run(p, fast(kind), |img| {
            let team = img.team_world();
            fft::run(img, &team, log2_size);
        })
    }
}

/// Run `f` on every image of a `p`-image job and return image 0's
/// elapsed time (the timer of `figures ablations`).
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

    /// The mapped MPI and GASNet tables of a platform at full scale.
    fn tables(plat: &Platform) -> (DelayConfig, DelayConfig) {
        let cfg = platform_config(plat, SubstrateKind::Mpi, 1.0);
        (cfg.mpi.delays, cfg.gasnet.delays)
    }

    #[test]
    fn preset_has_a_per_target_flush_cost() {
        // The Θ(P) driver of §4.1, read from the model's constant.
        for plat in [FUSION, caf_netmodel::EDISON] {
            let (mpi, _) = tables(&plat);
            assert!(mpi.flush_per_target.base_ns > 0.0, "{}", plat.name);
            assert_eq!(mpi.flush_per_target.base_ns, plat.mpi_flush_per_rank_ns);
        }
    }

    #[test]
    fn scaling_preserves_ratios() {
        // fusion_like is the full-scale table divided once by TIME_SCALE.
        let full = fusion_fullscale(SubstrateKind::Mpi);
        let scaled = fusion_like(SubstrateKind::Mpi);
        for (f, s) in [(full.mpi.delays, scaled.mpi.delays), (full.gasnet.delays, scaled.gasnet.delays)] {
            for op in caf_fabric::delay::ALL_DELAY_OPS {
                let (f, s) = (f.cost(op), s.cost(op));
                assert!((f.base_ns / TIME_SCALE - s.base_ns).abs() < 1e-9, "{op:?}");
                assert!((f.per_byte_ns / TIME_SCALE - s.per_byte_ns).abs() < 1e-12, "{op:?}");
            }
        }
        let ratio = scaled.mpi.delays.rma_get.base_ns / scaled.mpi.delays.rma_put.base_ns;
        assert!((ratio - FUSION.mpi_get_ns / FUSION.mpi_put_ns).abs() < 1e-9);
        let srq = full.gasnet.srq_receive_penalty_ns / scaled.gasnet.srq_receive_penalty_ns;
        assert!((srq - TIME_SCALE).abs() < 1e-9);
    }

    #[test]
    fn gasnet_rma_cheaper_than_mpi_rma() {
        for plat in [FUSION, caf_netmodel::EDISON] {
            let (m, g) = tables(&plat);
            assert!(g.rma_put.base_ns < m.rma_put.base_ns, "{}", plat.name);
            assert!(g.rma_get.base_ns < m.rma_get.base_ns, "{}", plat.name);
            // But GASNet has no Θ(P) flush_all: its nbi sync is local and
            // charges nothing.
            assert!(g.flush_per_target.base_ns < m.flush_per_target.base_ns, "{}", plat.name);
        }
    }

    #[test]
    fn srq_penalty_is_substantial() {
        // On Fusion's InfiniBand, the SRQ slow path costs a received AM
        // more than its dispatch; Edison's Aries has no SRQ.
        let fusion = platform_config(&FUSION, SubstrateKind::Gasnet, 1.0).gasnet;
        assert!(fusion.srq_receive_penalty_ns > fusion.delays.am_dispatch.base_ns);
        let edison = platform_config(&caf_netmodel::EDISON, SubstrateKind::Gasnet, 1.0).gasnet;
        assert_eq!(edison.srq_auto_threshold, usize::MAX);
        assert_eq!(edison.srq_receive_penalty_ns, 0.0);
    }
}
