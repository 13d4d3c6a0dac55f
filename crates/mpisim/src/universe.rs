//! Job launch and per-rank MPI state (`MPI_Init` .. `MPI_Finalize`).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use caf_fabric::delay::{DelayConfig, DelayMeter, Delays};
use caf_fabric::{Endpoint, Fabric, Fault, MemAccount, MemCategory};

use crate::comm::Comm;

/// Configuration of one MPI "job".
#[derive(Debug, Clone, Copy)]
pub struct MpiConfig {
    /// Software-overhead table charged per operation.
    pub delays: DelayConfig,
    /// Eager protocol threshold in bytes. Messages at or below this size
    /// are buffered by the library (local completion at injection); larger
    /// messages still travel eagerly on this lossless fabric but are
    /// accounted as rendezvous traffic.
    pub eager_limit: usize,
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
            eager_limit: 64 << 10,
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

pub(crate) struct CommState {
    /// Collective sequence number — advances identically on every member
    /// because collectives are collective.
    pub coll_seq: Cell<u64>,
    /// Number of child communicators created from this one.
    pub children: Cell<u64>,
}

/// A rank's handle to the MPI library (everything `MPI_COMM_WORLD` and
/// below). One `Mpi` exists per rank thread; it is not `Sync`.
pub struct Mpi {
    pub(crate) ep: Endpoint,
    pub(crate) fault: Fault,
    pub(crate) delays: Delays,
    pub(crate) config: MpiConfig,
    pub(crate) mem: Arc<MemAccount>,
    pub(crate) comm_states: RefCell<HashMap<u64, CommState>>,
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

        let world = Comm::new(0, (0..size).collect::<Vec<_>>().into(), rank);
        let fault = ep.fault();
        let mpi = Mpi {
            ep,
            fault,
            delays: Delays::new(config.delays),
            config,
            mem,
            comm_states: RefCell::new(HashMap::new()),
            world,
        };
        mpi.ensure_comm_state(0);
        mpi
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

    /// The eager protocol threshold in bytes.
    pub fn eager_limit(&self) -> usize {
        self.config.eager_limit
    }

    /// Handle onto the fabric's failure registry.
    pub fn fault(&self) -> &Fault {
        &self.fault
    }

    /// Kill this rank here (fault injection / `fail image`).
    pub fn fail_now(&self) -> ! {
        self.ep.fail_now()
    }

    /// Deterministic survivor communicator — the ULFM `MPI_Comm_shrink`
    /// analog. Every survivor derives the *same* child context id from
    /// the parent id and the excluded set, without communication (the
    /// fixed point the ULFM agreement collective would reach), so the
    /// shrink itself cannot hang on the very failure it excludes.
    ///
    /// # Panics
    ///
    /// Panics if the calling rank is itself in `failed`.
    pub fn comm_shrink(&self, comm: &Comm, failed: &[usize]) -> Comm {
        let ranks: Vec<usize> = comm
            .members()
            .iter()
            .copied()
            .filter(|r| !failed.contains(r))
            .collect();
        let my_idx = ranks
            .iter()
            .position(|&g| g == self.rank())
            .expect("comm_shrink caller must be a survivor");
        let mut h = 0xFA_u64;
        for &r in failed {
            h = crate::comm::splitmix64(h ^ (r as u64 + 1));
        }
        let id = crate::comm::derive_comm_id(comm.id, h, 0xFA);
        self.ensure_comm_state(id);
        Comm::new(id, ranks.into(), my_idx)
    }

    pub(crate) fn ensure_comm_state(&self, comm_id: u64) {
        self.comm_states
            .borrow_mut()
            .entry(comm_id)
            .or_insert_with(|| CommState {
                coll_seq: Cell::new(0),
                children: Cell::new(0),
            });
    }

    /// Advance and return the collective sequence number for `comm`.
    pub(crate) fn next_coll_seq(&self, comm: &Comm) -> u64 {
        let states = self.comm_states.borrow();
        let st = states
            .get(&comm.id)
            .expect("communicator used before creation");
        let s = st.coll_seq.get();
        st.coll_seq.set(s + 1);
        s
    }

    /// Advance and return the child-communicator counter for `comm`.
    pub(crate) fn next_child_index(&self, comm: &Comm) -> u64 {
        let states = self.comm_states.borrow();
        let st = states
            .get(&comm.id)
            .expect("communicator used before creation");
        let c = st.children.get();
        st.children.set(c + 1);
        c
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

    #[test]
    fn coll_seq_advances() {
        Universe::run(1, |mpi| {
            let w = mpi.world();
            assert_eq!(mpi.next_coll_seq(&w), 0);
            assert_eq!(mpi.next_coll_seq(&w), 1);
            assert_eq!(mpi.next_child_index(&w), 0);
            assert_eq!(mpi.next_child_index(&w), 1);
        });
    }
}
