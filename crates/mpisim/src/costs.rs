//! Preset software-overhead tables for the MPI substrate.
//!
//! Magnitudes are derived from the paper's microbenchmark panels (ops/second
//! for READ / WRITE / EVENT_NOTIFY on Fusion-class InfiniBand + MVAPICH2 and
//! Edison's Cray Aries + CRAY-MPICH), scaled down uniformly by 100× so that
//! in-process benchmark runs finish quickly while preserving every *ratio*
//! the paper's analysis depends on. The netmodel crate owns the full-scale
//! numbers; these tables exist so `figures real` and `figures ablations`
//! measure the same shapes in actual wall-clock time.

use caf_fabric::delay::{DelayConfig, OpCost};
pub use caf_fabric::delay::TIME_SCALE;

/// MVAPICH2-on-InfiniBand-like cost table (the paper's Fusion platform).
///
/// Paper-anchored full-scale values (ns/op): MPI put ≈ 19 600 (51 k ops/s),
/// MPI get ≈ 16 300 (61 k ops/s) on Mira; Fusion is faster, Edison faster
/// still — we use Edison-flavoured 5 000/4 800 as the "modern cluster"
/// anchor; flush ≈ 300 per target.
pub fn mvapich_like() -> DelayConfig {
    DelayConfig {
        p2p_inject: OpCost::scaled(1_500.0, 0.25),
        p2p_receive: OpCost::scaled(1_500.0, 0.25),
        rma_put: OpCost::scaled(4_800.0, 0.20),
        rma_get: OpCost::scaled(5_000.0, 0.20),
        rma_atomic: OpCost::scaled(5_200.0, 0.0),
        flush_per_target: OpCost::scaled(300.0, 0.0),
        am_dispatch: OpCost::scaled(500.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_has_a_per_target_flush_cost() {
        // The Θ(P) driver of §4.1.
        assert!(mvapich_like().flush_per_target.base_ns > 0.0);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let mv = mvapich_like();
        let ratio = mv.rma_get.base_ns / mv.rma_put.base_ns;
        assert!((ratio - 5_000.0 / 4_800.0).abs() < 1e-9);
    }
}
