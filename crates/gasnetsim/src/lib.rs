#![warn(missing_docs)]

//! # caf-gasnetsim
//!
//! A GASNet *core API* subset over [`caf_fabric`] — the baseline substrate
//! of the paper (*Portable, MPI-Interoperable Coarray Fortran*, PPoPP'14):
//! the original CAF 2.0 runtime was built on GASNet, and the paper's
//! evaluation compares CAF-MPI against it.
//!
//! What is modelled, and why it matters for the reproduction:
//!
//! * **Active Messages** — short / medium / long requests plus replies, with
//!   registered handler tables and an explicit [`Gasnet::poll`] progress
//!   call (`gasnet_AMPoll`). AMs are only serviced when the application (or
//!   a blocking GASNet call) polls: this is the interoperability hazard of
//!   the paper's Figure 2 — a process blocked inside an *MPI* call makes no
//!   GASNet progress.
//! * **One-sided put/get** on registered segments, with lower per-operation
//!   overhead than the MPI substrate (GASNet's thin RMA layer), plus the
//!   implicit-handle (`_nbi`) put the runtime's asynchronous copies use.
//! * **No collectives.** GASNet's core API has none; the CAF-GASNet runtime
//!   must hand-roll barriers/alltoall from puts and AMs. (A dissemination
//!   barrier is provided because GASNet itself ships one.)
//! * **SRQ (Shared Receive Queue) emulation** — GASNet-on-InfiniBand
//!   enables SRQ automatically above a node-count threshold to save memory,
//!   at the cost of a slower message-reception path; the paper traces the
//!   RandomAccess performance dip at 128 cores to exactly this, and
//!   re-measures with SRQ disabled (`CAF-GASNet-NOSRQ`). [`SrqMode`]
//!   reproduces all three configurations.
//! * An optional **AM-mediated put threshold**
//!   ([`GasnetConfig::put_via_am_threshold`]) at and above which puts
//!   require the *target* to poll before they complete — the
//!   implementation-specific behaviour that makes the Figure 2 program
//!   deadlock on some CAF stacks.

pub mod am;
pub mod rma;
pub mod universe;

pub use am::{Token, AM_MAX_ARGS, AM_MAX_MEDIUM, FIRST_USER_HANDLER};
pub use caf_fabric::{FabricError, Pod, Result};
pub use universe::{Gasnet, GasnetConfig, GasnetUniverse, SrqMode};
