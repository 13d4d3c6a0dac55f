#![warn(missing_docs)]

//! # caf-mpisim
//!
//! An MPI-3 subset implemented from scratch over [`caf_fabric`], sufficient
//! to serve as the communication substrate of a PGAS runtime in the way the
//! paper *Portable, MPI-Interoperable Coarray Fortran* (PPoPP'14) uses real
//! MPI-3:
//!
//! * **two-sided messaging** with full `(source, tag, communicator)`
//!   matching, wildcards, and eager delivery (`send`, `recv` and
//!   `try_recv`, the non-blocking matched receive of MPI-3's
//!   `MPI_Improbe` + `MPI_Mrecv`);
//! * **communicators**: `comm_world`, `split`, deterministic collective
//!   id agreement;
//! * **collectives**: barrier, broadcast, reduce, allreduce, allgather,
//!   alltoall — implemented with the classic tuned algorithms
//!   (dissemination, binomial trees, recursive doubling, pairwise
//!   exchange). These are the "years of optimization" the paper credits
//!   for CAF-MPI's FFT win;
//! * **one-sided RMA**: `win_allocate`, `put`/`get`,
//!   request-generating `rput`/`rget`, `accumulate`/`get_accumulate`,
//!   `fetch_and_op`, `compare_and_swap`, passive-target `lock_all`,
//!   `flush`/`flush_all`. RMA is genuinely one-sided: data plane operations
//!   access the target's registered segment directly and never require the
//!   target thread, which is what makes the paper's Figure 2 pattern safe.
//!
//! ## Deliberately-preserved implementation artifacts
//!
//! Two behaviours of real MPICH-derived MPI libraries are modelled
//! explicitly because the paper's evaluation hinges on them:
//!
//! 1. [`Mpi::win_flush_all`] performs a flush handshake with **every** rank
//!    of the window's communicator — Θ(P) — matching "the current
//!    implementation of `MPI_WIN_FLUSH_ALL` in all MPICH derivatives"
//!    (paper §4.1). `event_notify` built on it therefore slows down
//!    linearly with job size.
//! 2. There is no way to test *remote* completion of a `put` without a
//!    (potentially blocking) flush; `rput` requests only certify local
//!    completion (paper §3.3).

pub mod collective;
pub mod costs;
pub mod ops;
pub mod p2p;
pub mod request;
pub mod rma;
pub mod universe;

pub use caf_fabric::{FabricError, Pod, Result};
/// A communicator: an ordered process group whose id isolates its
/// point-to-point and collective traffic (see [`caf_fabric::Group`]).
pub use caf_fabric::Group as Comm;
pub use costs::{mvapich_like, TIME_SCALE};
pub use ops::{AccOp, BitsRepr, Scalar};
pub use p2p::{Src, Status, Tag};
pub use request::{FlushRequest, RmaRequest};
pub use rma::{DirtySet, Window};
pub use universe::{Mpi, MpiConfig, Universe};
