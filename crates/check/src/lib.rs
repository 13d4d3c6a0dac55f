//! # caf-check
//!
//! An RMA epoch-legality checker and a vector-clock happens-before race
//! sanitizer for the CAF-MPI runtime (see DESIGN.md, "The caf-check
//! sanitizer").
//!
//! Two cooperating analyses:
//!
//! 1. **Epoch legality** (`EpochChecker`) — shadow state per RMA
//!    window enforcing the MPI-3 passive-target obligations the paper's
//!    coarray mapping leans on: every operation inside a
//!    `lock_all`/`unlock_all` epoch, no local reads of window memory
//!    with unflushed inbound puts, no overlapping unflushed put/put or
//!    put/get in one epoch, no origin-buffer reuse before request
//!    completion, no `win_free` with an open epoch, and no dropped
//!    request-generating operations (the Fig 2 put-ack hazard).
//! 2. **Happens-before races** (`RaceDetector`) — per-image vector
//!    clocks advanced by the runtime's sync edges (event notify/wait,
//!    collectives, `finish`, function shipping) with a FastTrack-style
//!    shadow access history per coarray member, flagging unordered
//!    conflicting accesses on either substrate.
//!
//! Both read the trace: run the job under a `caf_trace::Session` and
//! replay what it recorded with [`check_trace`] — the checker's one entry
//! point. The runtime carries no checker code; its two prologues record
//! what the analyses need through the trace probes they already test.

mod epoch;
mod hb;
mod offline;
mod report;

pub use hb::{HbEdge, NS_AGG, NS_EVENT, NS_SHIP};
pub use offline::{check_trace, CheckConfig};
pub use report::{ByteRange, Report, Violation, ViolationKind};
