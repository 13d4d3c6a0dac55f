//! Job launch and per-rank MPI state (`MPI_Init` .. `MPI_Finalize`).

use std::sync::Arc;

use caf_fabric::delay::{DelayConfig, DelayMeter, Delays};
use caf_fabric::{Endpoint, Fabric, Fault, MemAccount, MemCategory};

use crate::Comm;

/// Configuration of one MPI "job".
#[derive(Debug, Clone, Copy)]
pub struct MpiConfig {
    /// Software-overhead table charged per operation.
    pub delays: DelayConfig,
    /// Bytes of bounce/eager buffering accounted for per peer at init
    /// (drives the Figure-1 memory accounting; nothing is mapped — the
    /// bytes exist only as [`MemAccount`] numbers).
    pub eager_buffer_per_peer: usize,
    /// Fixed library state accounted for at init, independent of job
    /// size; like the eager buffers, a number and not an allocation.
    pub base_footprint: usize,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            delays: DelayConfig::free(),
            // Scaled-down stand-ins for a real MPI's mapped memory,
            // accounted for but not allocated (the netmodel crate holds
            // the full-scale Figure-1 magnitudes).
            eager_buffer_per_peer: 16 << 10,
            base_footprint: 1 << 20,
        }
    }
}

/// Launcher for SPMD jobs over the MPI substrate.
pub struct Universe;

impl Universe {
    /// Run `f` on `size` ranks with default configuration; returns per-rank
    /// results in rank order.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Mpi) -> T + Send + Sync,
    {
        Self::run_with_config(size, MpiConfig::default(), f)
    }

    /// Run `f` on `size` ranks with an explicit configuration.
    pub fn run_with_config<T, F>(size: usize, config: MpiConfig, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Mpi) -> T + Send + Sync,
    {
        Fabric::run(size, |ep| {
            let mpi = Mpi::init(ep, config);
            f(&mpi)
        })
    }
}

/// A rank's handle to the MPI library (everything `MPI_COMM_WORLD` and
/// below). One `Mpi` exists per rank thread; it is not `Sync`.
pub struct Mpi {
    pub(crate) ep: Endpoint,
    pub(crate) fault: Fault,
    pub(crate) delays: Delays,
    pub(crate) mem: Arc<MemAccount>,
    world: Comm,
}

impl Mpi {
    /// `MPI_Init`: build per-rank library state on a fabric endpoint.
    pub fn init(ep: Endpoint, config: MpiConfig) -> Self {
        let size = ep.size();
        let rank = ep.rank();
        let mem = Arc::new(MemAccount::new());

        // Account the library's working memory (Figure 1). Nothing reads
        // these bytes, so none are allocated: at P=256 they would be
        // 5 MiB of zero-filled heap per rank.
        mem.map(MemCategory::EagerBuffers, config.eager_buffer_per_peer * size);
        mem.map(MemCategory::SegmentMeta, config.base_footprint / 2);
        mem.map(MemCategory::Matching, config.base_footprint / 4);
        mem.map(MemCategory::CollectiveScratch, config.base_footprint / 4);
        mem.map(MemCategory::PerPeerState, 256 * size);

        let world = Comm::new(0, (0..size).collect::<Vec<_>>(), rank);
        let fault = ep.fault();
        Mpi { ep, fault, delays: Delays::new(config.delays), mem, world }
    }

    /// `MPI_COMM_WORLD`.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// Global rank of this process.
    pub fn rank(&self) -> usize {
        self.world.rank()
    }

    /// Job size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The memory accountant for this rank's library instance.
    pub fn mem(&self) -> &MemAccount {
        &self.mem
    }

    /// The configured software-overhead table.
    pub fn delays(&self) -> &DelayConfig {
        self.delays.config()
    }

    /// The modeled-cost ledger for this rank (counts and modeled
    /// nanoseconds per [`caf_fabric::DelayOp`]); deterministic across runs.
    pub fn delay_meter(&self) -> &DelayMeter {
        self.delays.meter()
    }

    /// Handle onto the fabric's failure registry.
    pub fn fault(&self) -> &Fault {
        &self.fault
    }

    /// Kill this rank here (fault injection / `fail image`).
    pub fn fail_now(&self) -> ! {
        self.ep.fail_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_builds_world() {
        let sizes = Universe::run(4, |mpi| {
            assert_eq!(mpi.world().id(), 0);
            (mpi.rank(), mpi.size())
        });
        assert_eq!(sizes, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn init_accounts_memory() {
        Universe::run(4, |mpi| {
            let overhead = mpi.mem().runtime_overhead();
            let cfg = MpiConfig::default();
            assert!(overhead >= cfg.base_footprint);
            assert_eq!(
                mpi.mem().mapped(MemCategory::EagerBuffers),
                cfg.eager_buffer_per_peer * 4
            );
        });
    }

    #[test]
    fn eager_buffers_scale_with_job_size() {
        let a = Universe::run(2, |mpi| mpi.mem().runtime_overhead())[0];
        let b = Universe::run(8, |mpi| mpi.mem().runtime_overhead())[0];
        assert!(b > a, "footprint must grow with peers: {a} !< {b}");
    }
}
