#![warn(missing_docs)]

//! # caf-fabric
//!
//! The in-process interconnect that every communication substrate in this
//! workspace is built on. [`Fabric::launch`] runs one parallel job: `n`
//! ranks (OS threads or caf-sched tasks) connected by
//!
//! * per-rank **packet mailboxes** (the "NIC receive queues") used for
//!   two-sided traffic and active messages — one locked queue per rank
//!   and plane, whose push wakes the receiver only when it sleeps,
//! * a table of **registered memory segments** (the "RDMA-able" memory) that
//!   any rank may read, write, or atomically update without the owner's
//!   involvement, and
//! * a **memory accountant** that tracks how many bytes each runtime layer
//!   has mapped (this regenerates Figure 1 of the paper), plus
//! * an optional **delay model** that charges a configurable, spin-waited
//!   cost per operation so that software-overhead effects (e.g. a flush that
//!   visits every rank) show up in wall-clock measurements at realistic
//!   magnitudes.
//!
//! The fabric itself is protocol-agnostic: packet `kind`s and header words
//! are owned by the substrate (`caf-mpisim`, `caf-gasnetsim`). What the
//! layers above share lives here once: the collectives ([`coll`]) and the
//! process group they run in ([`Group`] — an MPI communicator and a CAF
//! team alike). The only semantics the fabric guarantees are FIFO
//! delivery per (sender, receiver) pair and release/acquire
//! synchronization on every mailbox hand-off.
//!
//! Segments are backed by `AtomicU64` words, so concurrent remote access is
//! never undefined behaviour in the Rust sense; overlapping unordered writes
//! have the same "undefined result" status they have under the MPI-3 unified
//! memory model.

pub mod coll;
pub mod delay;
pub mod error;
pub mod fault;
pub mod group;
pub mod memacct;
pub mod packet;
pub mod pod;
pub mod sched;
pub mod segment;
pub mod topology;

mod fabric_impl;
mod mailbox;

pub use caf_sched::{ExecConfig, ExecMode};
pub use delay::{DelayConfig, DelayMeter, DelayOp, Delays};
pub use error::FabricError;
pub use fabric_impl::{Endpoint, Fabric, FabricConfig};
pub use fault::{Fault, FaultPlan, ImageKilled, Kill, KillSite, Watch, KIND_FAULT};
pub use group::Group;
pub use memacct::{MemAccount, MemCategory};
pub use packet::Packet;
pub use pod::Pod;
pub use segment::{PeerSegments, Segment, SegmentId};

/// Result alias used across the fabric layer.
pub type Result<T> = std::result::Result<T, FabricError>;
