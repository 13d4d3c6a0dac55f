//! Sensitivity analyses over the figure models: how much of each published
//! gap is explained by the mechanism the paper names, and where the
//! crossovers move when that mechanism's cost changes.
//!
//! These are the quantitative versions of the paper's prose claims: "this
//! is, of course, a simple performance scalability issue that can be
//! addressed within the MPI implementation" (§4.1, about `flush_all`);
//! "not as well tuned as MPI_ALLTOALL" (§4.2, about the GASNet alltoall).

use crate::platform::{Platform, Substrate};
use crate::{fft, ra};

/// RandomAccess GUP/s on `plat` at `p` ranks with the MPI
/// `flush_per_rank` cost scaled by `multiplier` (1.0 = as measured,
/// 0.0 = a free flush — the `MPI_WIN_RFLUSH` limit).
// lint:allow(unreached): backs EXPERIMENTS.md "Projection (`figures rflush`)", the paper's §4.1/§4.2 claims
pub fn ra_gups_with_flush_scale(plat: &Platform, p: usize, multiplier: f64) -> f64 {
    let mut scaled = *plat;
    scaled.mpi_flush_per_rank_ns *= multiplier;
    ra::gups(&scaled, Substrate::Mpi, p, false)
}

/// Fraction of the CAF-MPI RandomAccess slowdown (relative to the
/// free-flush limit) attributable to the Θ(P) flush at job size `p`.
// lint:allow(unreached): backs EXPERIMENTS.md "Projection (`figures rflush`)", the paper's §4.1/§4.2 claims
pub fn ra_flush_share(plat: &Platform, p: usize) -> f64 {
    let with = ra_gups_with_flush_scale(plat, p, 1.0);
    let without = ra_gups_with_flush_scale(plat, p, 0.0);
    1.0 - with / without
}

/// FFT GFlop/s with the GASNet alltoall per-byte cost scaled by
/// `multiplier` (1.0 = as fitted; values < 1 model a better-tuned
/// hand-rolled exchange).
// lint:allow(unreached): backs EXPERIMENTS.md "Projection (`figures rflush`)", the paper's §4.1/§4.2 claims
pub fn fft_gflops_with_a2a_scale(plat: &Platform, p: usize, multiplier: f64) -> f64 {
    let m = fft::M0 * p as f64;
    let t = fft::t_compute(plat, p) + 3.0 * fft::t_alltoall(plat, Substrate::Gasnet, p) * multiplier;
    5.0 * m * m.log2() / t * 1e-9
}

/// The GASNet alltoall multiplier at which CAF-GASNet's FFT would match
/// CAF-MPI's at job size `p` (bisection; the answer quantifies how much
/// tuning the hand-rolled exchange would need).
// lint:allow(unreached): backs EXPERIMENTS.md "Projection (`figures rflush`)", the paper's §4.1/§4.2 claims
pub fn fft_parity_multiplier(plat: &Platform, p: usize) -> f64 {
    let target = fft::gflops(plat, Substrate::Mpi, p);
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if fft_gflops_with_a2a_scale(plat, p, mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// First job size (among `ps`) at which curve `a` falls below curve `b`,
/// if any — a generic crossover finder for the figure series.
// lint:allow(unreached): backs EXPERIMENTS.md "Projection (`figures rflush`)", the paper's §4.1/§4.2 claims
pub fn crossover_p(ps: &[usize], a: &[f64], b: &[f64]) -> Option<usize> {
    ps.iter()
        .zip(a.iter().zip(b))
        .find(|(_, (x, y))| x < y)
        .map(|(&p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paperdata as pd;
    use crate::platform::{EDISON, FUSION};

    #[test]
    fn flush_share_grows_with_scale() {
        // The Θ(P) flush explains little at 16 ranks and a lot at 4096.
        let small = ra_flush_share(&EDISON, 16);
        let large = ra_flush_share(&EDISON, 4096);
        assert!(small < 0.10, "{small}");
        assert!(large > 0.40, "{large}");
        assert!(large > small);
    }

    #[test]
    fn flush_scaling_is_monotone() {
        let mut prev = f64::INFINITY;
        for mult in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
            let g = ra_gups_with_flush_scale(&FUSION, 1024, mult);
            assert!(g <= prev + 1e-12, "GUPS must fall as flush costs rise");
            prev = g;
        }
    }

    #[test]
    fn fft_parity_needs_substantial_tuning() {
        // At 256 ranks on Fusion the hand-rolled alltoall would need to
        // shed well over half its cost to reach CAF-MPI's FFT throughput.
        let mult = fft_parity_multiplier(&FUSION, 256);
        assert!(mult < 0.7, "{mult}");
        assert!(mult > 0.0);
        // And the scaled model indeed reaches parity there.
        let at_parity = fft_gflops_with_a2a_scale(&FUSION, 256, mult);
        let target = fft::gflops(&FUSION, crate::platform::Substrate::Mpi, 256);
        assert!((at_parity / target - 1.0).abs() < 0.01);
    }

    #[test]
    fn ra_fusion_crossover_found() {
        // Published data: GASNet (SRQ) falls below CAF-MPI at 128 ranks.
        let x = crossover_p(
            &pd::FUSION_P,
            &pd::RA_FUSION_GASNET,
            &pd::RA_FUSION_MPI,
        );
        assert_eq!(x, Some(128));
        // The model reproduces the same crossover point.
        let model_g = ra::gups_series(&FUSION, Substrate::Gasnet, &pd::FUSION_P, false);
        let model_m = ra::gups_series(&FUSION, Substrate::Mpi, &pd::FUSION_P, false);
        assert_eq!(crossover_p(&pd::FUSION_P, &model_g, &model_m), Some(128));
    }

    #[test]
    fn no_crossover_when_always_above() {
        assert_eq!(crossover_p(&[1, 2], &[2.0, 3.0], &[1.0, 1.0]), None);
    }
}
