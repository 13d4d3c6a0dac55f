#![warn(missing_docs)]

//! # caf-netmodel
//!
//! The analytic performance model that regenerates every table and figure
//! of *Portable, MPI-Interoperable Coarray Fortran* (PPoPP'14) at the
//! paper's full scale (16–4096 cores).
//!
//! The in-process runtimes in this workspace execute the real code paths at
//! 2–64 images; the published curves, however, come from 320–5 200-node
//! machines. This crate closes that gap the honest way: each benchmark gets
//! a small closed-form cost model whose terms are exactly the mechanisms
//! the paper identifies —
//!
//! * per-operation software overheads of each substrate (GASNet RMA
//!   cheaper than MPICH RMA; Cray MPI RMA implemented over send/recv),
//! * `MPI_Win_flush_all` visiting all `P` ranks inside `event_notify`,
//! * GASNet's SRQ receive slow path above its node-count threshold,
//! * `MPI_ALLTOALL`'s tuned pairwise exchange versus GASNet's hand-rolled
//!   linear exchange,
//! * CGPOP's fixed 360-block domain decomposition (the source of its
//!   stair-step strong-scaling curve),
//!
//! with constants anchored to the paper's own microbenchmark tables. The
//! paper's published series are embedded in [`paperdata`] so every figure
//! can be printed as *paper vs. model* rows, and the test suite asserts the
//! qualitative claims (who wins, where, by roughly how much) hold.

pub mod cgpop;
pub mod fft;
pub mod figures;
pub mod hpl;
pub mod memory;
pub mod micro;
pub mod paperdata;
pub mod platform;
pub mod ra;
pub mod sensitivity;

pub use figures::{Figure, Series};
pub use platform::{Platform, Substrate, EDISON, FUSION, MIRA};

/// Relative shape error between a model series and a reference series:
/// the worst per-point ratio deviation from the overall scale factor.
///
/// A value of 1.0 means the model matches the reference up to one global
/// constant; 2.0 means some point is off by 2× after global rescaling.
/// The oracle the tests hold each model series to.
#[cfg(test)]
pub(crate) fn shape_error(model: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(model.len(), reference.len());
    assert!(!model.is_empty());
    // Global scale: geometric mean of ratios.
    let log_scale: f64 = model
        .iter()
        .zip(reference)
        .map(|(m, r)| (m / r).ln())
        .sum::<f64>()
        / model.len() as f64;
    let scale = log_scale.exp();
    model
        .iter()
        .zip(reference)
        .map(|(m, r)| {
            let ratio = m / (r * scale);
            ratio.max(1.0 / ratio)
        })
        .fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_error_identity() {
        let a = [1.0, 2.0, 4.0];
        assert!((shape_error(&a, &a) - 1.0).abs() < 1e-12);
        // A constant multiple is also a perfect shape match.
        let b = [10.0, 20.0, 40.0];
        assert!((shape_error(&b, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shape_error_detects_deviation() {
        let model = [1.0, 2.0, 8.0];
        let reference = [1.0, 2.0, 4.0];
        assert!(shape_error(&model, &reference) > 1.3);
    }
}
