//! Preset software-overhead tables for the MPI substrate.
//!
//! Magnitudes are derived from the paper's microbenchmark panels (ops/second
//! for READ / WRITE / EVENT_NOTIFY on Fusion-class InfiniBand + MVAPICH2 and
//! Edison's Cray Aries + CRAY-MPICH), scaled down uniformly by 100× so that
//! in-process benchmark runs finish quickly while preserving every *ratio*
//! the paper's analysis depends on. The netmodel crate owns the full-scale
//! numbers; these tables exist so the criterion benches measure the same
//! shapes in actual wall-clock time.

use caf_fabric::delay::{DelayConfig, OpCost};

/// Uniform scale-down factor applied to all real-hardware overheads.
pub const TIME_SCALE: f64 = 100.0;

/// MVAPICH2-on-InfiniBand-like cost table (the paper's Fusion platform).
///
/// Paper-anchored full-scale values (ns/op): MPI put ≈ 19 600 (51 k ops/s),
/// MPI get ≈ 16 300 (61 k ops/s) on Mira; Fusion is faster, Edison faster
/// still — we use Edison-flavoured 5 000/4 800 as the "modern cluster"
/// anchor; flush ≈ 300 per target.
pub fn mvapich_like() -> DelayConfig {
    DelayConfig {
        p2p_inject: scaled(1_500.0, 0.25),
        p2p_receive: scaled(1_500.0, 0.25),
        rma_put: scaled(4_800.0, 0.20),
        rma_get: scaled(5_000.0, 0.20),
        rma_atomic: scaled(5_200.0, 0.0),
        flush_per_target: scaled(300.0, 0.0),
        am_dispatch: scaled(500.0, 0.0),
    }
}

/// No artificial overheads — use for correctness tests.
pub fn zero() -> DelayConfig {
    DelayConfig::free()
}

fn scaled(base_ns: f64, per_byte_ns: f64) -> OpCost {
    OpCost {
        base_ns: base_ns / TIME_SCALE,
        per_byte_ns: per_byte_ns / TIME_SCALE,
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
    fn zero_preset_is_free() {
        assert_eq!(zero(), DelayConfig::free());
    }

    #[test]
    fn scaling_preserves_ratios() {
        let mv = mvapich_like();
        let ratio = mv.rma_get.base_ns / mv.rma_put.base_ns;
        assert!((ratio - 5_000.0 / 4_800.0).abs() < 1e-9);
    }
}
