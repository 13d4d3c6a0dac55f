//! The launch scope: which trace session, check session and model gate a
//! thread belongs to.
//!
//! Starting a session arms the calling thread and every job it launches
//! while armed — never the process. The fabric's one launcher captures
//! the launching thread's [`Scope`] and enters it on every image thread
//! (or carrier) for the body's duration, unwinding included; any other
//! thread sees nothing armed and records nothing. A raw thread that
//! should record enters a scope itself:
//!
//! ```text
//! let scope = Scope::current();
//! std::thread::spawn(move || { let _in = scope.enter(); /* probes record */ });
//! ```
//!
//! This crate holds the trace session by type; the check session and the
//! model gate belong to crates above it and ride here as opaque `Arc`s
//! ([`Part`]) that only their own crates downcast, on armed paths only.
//! The disarmed cost of every probe is one load of a `const`-initialised,
//! destructor-free thread-local flag word.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::session::SessionShared;

/// State a crate above this one keeps in a scope.
pub type Opaque = Arc<dyn Any + Send + Sync>;

/// The parts of a scope owned by crates above this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// `caf-check`'s online session.
    Check,
    /// `caf-fabric`'s model-checking gate.
    Gate,
}

impl Part {
    /// This part's bit in the flag word; bit 0 is the trace session's.
    const fn bit(self) -> u8 {
        2 << self as u8
    }
}

thread_local! {
    /// One bit per armed part of [`CURRENT`]: the whole disarmed path.
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    static CURRENT: RefCell<Scope> =
        const { RefCell::new(Scope { trace: None, parts: [None, None] }) };
}

/// What one thread is armed with.
#[derive(Clone, Default)]
pub struct Scope {
    pub(crate) trace: Option<Arc<SessionShared>>,
    parts: [Option<Opaque>; 2],
}

impl Scope {
    /// The calling thread's scope — what a launcher hands its threads.
    pub fn current() -> Scope {
        with(Scope::clone)
    }

    /// Make this the calling thread's scope until the guard drops.
    pub fn enter(&self) -> Entered {
        Entered { prev: replace(self.clone()) }
    }

    /// The state `part` is armed with, if it is.
    pub fn get(&self, part: Part) -> Option<&Opaque> {
        self.parts[part as usize].as_ref()
    }
}

/// A scope entered on a thread; restores the previous one on drop.
#[must_use = "the scope is left when this guard drops"]
pub struct Entered {
    prev: Scope,
}

impl Drop for Entered {
    fn drop(&mut self) {
        replace(std::mem::take(&mut self.prev));
    }
}

fn replace(next: Scope) -> Scope {
    let mut flags = u8::from(next.trace.is_some());
    for part in [Part::Check, Part::Gate] {
        if next.get(part).is_some() {
            flags |= part.bit();
        }
    }
    FLAGS.with(|f| f.set(flags));
    CURRENT.with(|c| c.replace(next))
}

/// Run `f` against the calling thread's scope.
pub fn with<R>(f: impl FnOnce(&Scope) -> R) -> R {
    CURRENT.with(|c| f(&c.borrow()))
}

/// Change the calling thread's scope; jobs it launches from then on
/// inherit the change, running ones keep the scope they started with.
pub(crate) fn modify(f: impl FnOnce(&mut Scope)) {
    let mut s = Scope::current();
    f(&mut s);
    replace(s);
}

/// Arm the calling thread's `part` with `state`, or disarm it (`None`).
pub fn set(part: Part, state: Option<Opaque>) {
    modify(|s| s.parts[part as usize] = state);
}

/// Whether `part` is armed on the calling thread: one thread-local load.
#[inline]
pub fn armed(part: Part) -> bool {
    FLAGS.with(|f| f.get() & part.bit() != 0)
}

/// Whether a trace session records on the calling thread.
#[inline]
pub(crate) fn tracing() -> bool {
    FLAGS.with(|f| f.get() & 1 != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entered_scopes_nest_and_unwind() {
        set(Part::Check, Some(Arc::new(())));
        let outer = Scope::current();
        set(Part::Check, None);
        let g = outer.enter();
        assert!(armed(Part::Check) && !armed(Part::Gate));
        let r = std::panic::catch_unwind(|| {
            let _in = Scope::default().enter();
            assert!(!armed(Part::Check));
            panic!("unwind through an entered scope");
        });
        assert!(r.is_err() && armed(Part::Check), "the unwind restored the outer scope");
        drop(g);
        assert!(!armed(Part::Check));
    }

    #[test]
    fn a_part_is_armed_on_the_calling_thread_only() {
        set(Part::Gate, Some(Arc::new(())));
        let scope = Scope::current();
        std::thread::spawn(|| assert!(!armed(Part::Gate))).join().unwrap();
        std::thread::spawn(move || {
            let _in = scope.enter();
            assert!(armed(Part::Gate));
        })
        .join()
        .unwrap();
        set(Part::Gate, None);
        assert!(!armed(Part::Gate));
    }
}
