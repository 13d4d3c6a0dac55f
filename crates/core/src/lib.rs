#![warn(missing_docs)]

//! # caf — Coarray Fortran 2.0 runtime over MPI-3 or GASNet
//!
//! A Rust reproduction of the runtime system described in *Portable,
//! MPI-Interoperable Coarray Fortran* (Yang, Bland, Mellor-Crummey,
//! Balaji — PPoPP 2014). The paper redesigns the CAF 2.0 runtime, which
//! was originally built on GASNet, to run on MPI-3, so that one application
//! can mix MPI and CAF on a single runtime with full interoperability.
//!
//! This crate implements **both** runtimes over the same in-process
//! fabric:
//!
//! * [`SubstrateKind::Mpi`] — *CAF-MPI*, the paper's contribution:
//!   coarrays are `MPI_Win_allocate` windows under a lifetime
//!   `lock_all` epoch; remote references are `(window, rank, displacement)`
//!   triples; the runtime's active messages ride `MPI_Isend`; events
//!   notify through `MPI_Waitall` + `MPI_Win_flush_all` + AM; `cofence`
//!   is `MPI_Waitall` over request arrays; `finish` uses distributed
//!   termination detection or a flush_all+barrier fast path.
//! * [`SubstrateKind::Gasnet`] — *CAF-GASNet*, the original design and
//!   the paper's baseline: coarrays live in the attached GASNet segment
//!   behind an `(image, address)` reference, events and shipping use
//!   native GASNet AMs, and — because the GASNet core API has no
//!   collectives — every team collective is hand-rolled in the runtime.
//!
//! ## Quick start
//!
//! ```
//! use caf::{CafUniverse, Coarray};
//!
//! // 4 images, CAF-MPI substrate (the default).
//! let results = CafUniverse::run(4, |img| {
//!     let world = img.team_world();
//!     let ca: Coarray<u64> = img.coarray_alloc(&world, 1);
//!     // Everyone writes its image index to the right neighbour.
//!     let right = (img.this_image() + 1) % img.num_images();
//!     ca.write(img, right, 0, &[img.this_image() as u64]);
//!     img.sync_all();
//!     let got = ca.local_vec(img)[0];
//!     img.coarray_free(&world, ca);
//!     got
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```
//!
//! ## Hybrid MPI + CAF
//!
//! On the MPI substrate, [`Image::mpi`] exposes the *same* MPI library the
//! CAF runtime uses — an application can freely interleave `MPI_Reduce`
//! with coarray writes (this is what the CGPOP miniapp does). Because all
//! data movement funnels through one progress engine, the
//! may-deadlock pattern of the paper's Figure 2 is safe: a coarray write
//! needs no target-side progress while the target blocks in `MPI_Barrier`.

pub mod agg;
pub mod arena;
pub mod asyncops;
pub(crate) mod backend;
pub mod coarray;
pub mod collectives;
pub mod event;
pub mod finish;
pub mod image;
pub(crate) mod op;
pub mod rtmsg;
pub mod ship;
pub mod stat;
pub mod stats;
pub mod team;

pub use asyncops::AsyncOpts;
pub use caf_agg::{AggConfig, AggStats};
pub use caf_fabric::Pod;
pub use caf_fabric::pod::zeroed_vec;
pub use caf_fabric::{FaultPlan, Kill, KillSite};
pub use caf_sched::{ExecConfig, ExecMode};
pub use caf_gasnetsim::{GasnetConfig, SrqMode};
pub use caf_mpisim::MpiConfig;
pub use coarray::{Coarray, Section};
pub use event::Event;
pub use backend::FlushMode;
pub use image::{CafConfig, CafUniverse, Image, SubstrateKind};
pub use stat::{ImageStatus, Stat};
pub use stats::{StatCat, Stats, StatsReport};
pub use team::Team;

/// Convenience re-exports for application code
/// (`use caf::prelude::*;`).
pub mod prelude {
    pub use crate::asyncops::AsyncOpts;
    pub use caf_agg::AggConfig;
    pub use caf_sched::{ExecConfig, ExecMode};
    pub use crate::coarray::{Coarray, Section};
    pub use crate::event::Event;
    pub use crate::image::{CafConfig, CafUniverse, Image, SubstrateKind};
    pub use crate::stat::{ImageStatus, Stat};
    pub use crate::stats::StatCat;
    pub use crate::team::Team;
    pub use caf_fabric::{FaultPlan, KillSite};
}

#[cfg(test)]
mod tests {
    #[test]
    fn zeroed_vec_works() {
        let v = super::zeroed_vec::<f64>(5);
        assert_eq!(v, vec![0.0; 5]);
        let w = super::zeroed_vec::<u64>(0);
        assert!(w.is_empty());
    }
}
