//! # caf-check
//!
//! An RMA epoch-legality checker and a vector-clock happens-before race
//! sanitizer for the CAF-MPI runtime (see DESIGN.md, "The caf-check
//! sanitizer").
//!
//! Two cooperating analyses:
//!
//! 1. **Epoch legality** ([`EpochChecker`]) — shadow state per RMA
//!    window enforcing the MPI-3 passive-target obligations the paper's
//!    coarray mapping leans on: every operation inside a
//!    `lock_all`/`unlock_all` epoch, no local reads of window memory
//!    with unflushed inbound puts, no overlapping unflushed put/put or
//!    put/get in one epoch, no origin-buffer reuse before request
//!    completion, no `win_free` with an open epoch, and no dropped
//!    request-generating operations (the Fig 2 put-ack hazard).
//! 2. **Happens-before races** ([`RaceDetector`]) — per-image vector
//!    clocks advanced by the runtime's sync edges (event notify/wait,
//!    collectives, `finish`, function shipping) with a FastTrack-style
//!    shadow access history per coarray member, flagging unordered
//!    conflicting accesses on either substrate.
//!
//! Both run **online** — arm a [`CheckSession`] around a simulator run;
//! the runtime's hooks (compiled in with the `check` feature of
//! `caf`/`caf-mpisim`, a single relaxed load when disarmed) feed the
//! checkers — or **offline** via [`check_trace`] over a recorded
//! `caf-trace` timeline.

mod epoch;
mod hb;
mod offline;
mod report;
mod session;

pub use epoch::EpochChecker;
pub use hb::{HbEdge, RaceDetector, NS_AGG, NS_EVENT, NS_SHIP};
pub use offline::{check_events, check_trace};
pub use report::{ByteRange, Report, Violation, ViolationKind};
pub use session::{
    enabled, hooks, CheckConfig, CheckError, CheckMode, CheckSession, SESSION_TEST_LOCK,
};
