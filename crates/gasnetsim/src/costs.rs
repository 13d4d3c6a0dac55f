//! Preset software-overhead tables for the GASNet substrate.
//!
//! Anchored to the paper's microbenchmark panels and scaled down by the
//! same factor as the MPI presets (see `caf_mpisim::costs`), so
//! GASNet-vs-MPI *ratios* are preserved in wall-clock measurements:
//! GASNet point-to-point put/get rates are 2–5× the MPI rates on both Mira
//! and Edison, while `event_notify` rates are comparable.

use caf_fabric::delay::{DelayConfig, OpCost};
pub use caf_fabric::delay::TIME_SCALE;

/// GASNet-on-InfiniBand-like cost table (the paper's Fusion platform).
pub fn ibv_conduit_like() -> DelayConfig {
    DelayConfig {
        p2p_inject: OpCost::scaled(900.0, 0.20),
        p2p_receive: OpCost::scaled(900.0, 0.20),
        rma_put: OpCost::scaled(1_900.0, 0.18),
        rma_get: OpCost::scaled(2_300.0, 0.18),
        rma_atomic: OpCost::scaled(2_500.0, 0.0),
        // GASNet puts/gets are remotely complete at sync; a "flush" in the
        // runtime above maps to nbi sync, a local operation.
        flush_per_target: OpCost::scaled(40.0, 0.0),
        am_dispatch: OpCost::scaled(700.0, 0.0),
    }
}

/// Extra per-message reception cost (ns, pre-scaling) when the SRQ slow
/// path is active. The paper's Fusion RandomAccess data implies roughly a
/// 2× hit on the AM-heavy path at 128 cores.
pub const SRQ_PENALTY_NS: f64 = 2_200.0 / TIME_SCALE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gasnet_rma_cheaper_than_mpi_rma() {
        let g = ibv_conduit_like();
        let m = caf_mpisim::costs::mvapich_like();
        assert!(g.rma_put.base_ns < m.rma_put.base_ns);
        assert!(g.rma_get.base_ns < m.rma_get.base_ns);
        // But GASNet has no Θ(P) flush_all: its per-target flush is tiny.
        assert!(g.flush_per_target.base_ns < m.flush_per_target.base_ns);
    }

    #[test]
    fn srq_penalty_is_substantial() {
        let g = ibv_conduit_like();
        assert!(SRQ_PENALTY_NS > g.am_dispatch.base_ns);
    }
}
