//! Deterministic fault injection: the `FaultPlan` knob, the per-fabric
//! failure registry, and the [`Fault`] query handle.
//!
//! A fault plan kills a chosen image at a chosen site — its *n*-th
//! blocking point (counted per rank across every blocking receive) or
//! the *k*-th hit of a named runtime operation. The kill is an ordinary
//! panic with an [`ImageKilled`] payload, so the scheduler's existing
//! unwind paths (carrier release, parked-waiter wakeup, model-gate
//! thread retirement) do the teardown; fault-tolerant launchers turn it
//! into a `None` result instead of a job failure.
//!
//! Detection is **perfect-detector** style and piggybacks on the wires
//! that already exist: before it unwinds, a dying image (a) marks the
//! per-fabric registry and (b) broadcasts one `KIND_FAULT` control
//! packet to every rank on every plane. The registry is written *before*
//! any notice is sent, so any rank that has seen a notice — or merely
//! re-checks the registry at the top of a blocking loop — observes a
//! consistent failed set. With [`FaultPlan::detect`] off, neither the
//! registry nor the notices are produced: survivors hang on the dead
//! partner, which is exactly the negative control the model explorer
//! turns into a replayable deadlock token.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Packet kind reserved for failure notices. Substrate kinds live in
/// 1..=3 (mpisim) and 10..=14 (gasnetsim); 0xFA is clear of both.
pub const KIND_FAULT: u16 = 0xFA;

/// The partner set a blocking wait depends on: the wait fails instead of
/// hanging once any of these ranks is marked failed.
#[derive(Debug, Clone, Copy)]
pub enum Watch<'a> {
    /// These ranks only; an empty slice waits unconditionally.
    Ranks(&'a [usize]),
    /// Every rank of the job, without a vector to say so.
    All,
}

/// Maximum number of kill directives one plan can carry (kept fixed-size
/// so `FaultPlan` stays `Copy`, like every other config knob).
pub const MAX_KILLS: usize = 4;

/// Where in an image's execution the plan kills it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSite {
    /// At the image's `n`-th blocking point (0-based count of blocking
    /// receives it enters), independent of which operation blocks.
    Blocking(u64),
    /// At the `hits`-th occurrence (1-based) of the named runtime
    /// operation on that image (`"event_notify"`, `"finish"`,
    /// `"agg_forward"`, ...). Names are declared by the instrumented
    /// layer via [`Fault::op_hit`].
    Op {
        /// Operation name as passed to [`Fault::op_hit`].
        name: &'static str,
        /// 1-based occurrence count that triggers the kill.
        hits: u32,
    },
}

/// One kill directive: which image dies, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// Global rank of the image to kill.
    pub rank: usize,
    /// The site at which it dies.
    pub site: KillSite,
}

/// Deterministic, seeded fault schedule carried inside `FabricConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill directives (first match per rank wins; `None` slots unused).
    pub kills: [Option<Kill>; MAX_KILLS],
    /// Produce failure notices and registry marks so survivors *detect*
    /// the death. `false` is the negative control: the image dies
    /// silently and partners hang (the model gate reports the deadlock).
    pub detect: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: nothing dies. This is the hot-path default; every
    /// fault check is gated on one `any_failed` load that can never flip.
    pub const fn none() -> FaultPlan {
        FaultPlan { kills: [None; MAX_KILLS], detect: true }
    }

    /// A plan with a single kill directive.
    pub const fn kill(rank: usize, site: KillSite) -> FaultPlan {
        let mut p = FaultPlan::none();
        p.kills[0] = Some(Kill { rank, site });
        p
    }

    /// Add another kill directive (panics past [`MAX_KILLS`]).
    pub fn with(mut self, rank: usize, site: KillSite) -> FaultPlan {
        let slot = self
            .kills
            .iter()
            .position(|k| k.is_none())
            .expect("fault plan full");
        self.kills[slot] = Some(Kill { rank, site });
        self
    }

    /// Disable detection: the negative control (survivors hang).
    pub fn undetected(mut self) -> FaultPlan {
        self.detect = false;
        self
    }

    /// Derive a single-kill plan from a proptest-style seed: kills a
    /// non-zero rank (rank 0 usually owns verification) at a small
    /// blocking-point index, both taken from the seed.
    pub fn seeded(seed: u64, p: usize) -> FaultPlan {
        let rank = if p <= 1 { 0 } else { 1 + (seed as usize % (p - 1)) };
        let site = KillSite::Blocking(seed >> 32 & 0x7);
        FaultPlan::kill(rank, site)
    }

    /// True when no kill directive is present.
    pub fn is_empty(&self) -> bool {
        self.kills.iter().all(|k| k.is_none())
    }

    fn kill_for(&self, rank: usize) -> Option<KillSite> {
        self.kills
            .iter()
            .flatten()
            .find(|k| k.rank == rank)
            .map(|k| k.site)
    }
}

/// Panic payload carried by a killed image's unwind. Fault-tolerant
/// launchers downcast join errors to this to distinguish an injected
/// death from a real bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageKilled {
    /// The rank that died.
    pub rank: usize,
}

/// Per-job failure registry. One per launch (not process-global:
/// concurrent jobs must not see each other's failures).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Fast path: false until the first failure; a single relaxed load
    /// keeps the fault-free path free of per-rank scans.
    any: AtomicBool,
    failed: Vec<AtomicBool>,
    blocking_hits: Vec<AtomicU64>,
    op_hits: Vec<AtomicU64>,
    /// First rank to die of its own panic (`usize::MAX`: none).
    first_panic: AtomicUsize,
}

impl FaultState {
    pub(crate) fn new(n: usize, plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            any: AtomicBool::new(false),
            failed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            blocking_hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            op_hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            first_panic: AtomicUsize::new(usize::MAX),
        }
    }

    pub(crate) fn first_panic(&self) -> Option<usize> {
        Some(self.first_panic.load(Ordering::Relaxed)).filter(|&r| r != usize::MAX)
    }
}

/// Cloneable handle onto a fabric's failure registry, exposed to the
/// substrates and the runtime via `Endpoint::fault()`.
#[derive(Debug, Clone)]
pub struct Fault {
    state: Arc<FaultState>,
    rank: usize,
}

impl Fault {
    pub(crate) fn new(state: Arc<FaultState>, rank: usize) -> Fault {
        Fault { state, rank }
    }

    /// The fault plan this fabric was configured with.
    pub fn plan(&self) -> FaultPlan {
        self.state.plan
    }

    /// The rank this handle belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True when any image has failed (one relaxed load).
    #[inline]
    pub fn any_failed(&self) -> bool {
        self.state.any.load(Ordering::Relaxed)
    }

    /// True when `rank` has failed.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.any_failed() && self.state.failed[rank].load(Ordering::Acquire)
    }

    /// The failed members of `watch`, ascending. Empty on the fault-free
    /// fast path after a single relaxed load.
    #[inline]
    pub fn failed_of(&self, watch: Watch<'_>) -> Vec<usize> {
        if !self.any_failed() {
            return Vec::new();
        }
        let Watch::Ranks(watch) = watch else {
            return self.failed_set();
        };
        let mut out: Vec<usize> = watch
            .iter()
            .copied()
            .filter(|&r| self.state.failed[r].load(Ordering::Acquire))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every failed rank, ascending.
    pub fn failed_set(&self) -> Vec<usize> {
        if !self.any_failed() {
            return Vec::new();
        }
        (0..self.state.failed.len())
            .filter(|&r| self.state.failed[r].load(Ordering::Acquire))
            .collect()
    }

    /// Mark `rank` failed in the registry. Ordered release so a notice
    /// consumer's acquire load observes the mark.
    pub(crate) fn mark_failed(&self, rank: usize) {
        self.state.failed[rank].store(true, Ordering::Release);
        self.state.any.store(true, Ordering::Release);
    }

    /// Record that this rank is unwinding from a panic of its own; only
    /// the first such rank of a job is kept.
    pub(crate) fn note_panic(&self) {
        let _ = self.state.first_panic.compare_exchange(
            usize::MAX,
            self.rank,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Count one blocking-point entry for this rank; true when the plan
    /// says this is the one it dies at.
    pub(crate) fn blocking_hit(&self) -> bool {
        let Some(KillSite::Blocking(n)) = self.state.plan.kill_for(self.rank) else {
            return false;
        };
        let k = self.state.blocking_hits[self.rank].fetch_add(1, Ordering::Relaxed);
        k == n && !self.is_failed(self.rank)
    }

    /// Count one hit of the named operation for this rank; true when the
    /// plan kills this rank at this occurrence. The caller is expected to
    /// then invoke its layer's `fail_now` path.
    pub fn op_hit(&self, name: &str) -> bool {
        let Some(KillSite::Op { name: want, hits }) = self.state.plan.kill_for(self.rank) else {
            return false;
        };
        if want != name {
            return false;
        }
        let k = self.state.op_hits[self.rank].fetch_add(1, Ordering::Relaxed);
        k + 1 == u64::from(hits) && !self.is_failed(self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_copy_and_defaults_empty() {
        let p = FaultPlan::default();
        let q = p; // Copy
        assert!(p.is_empty() && q.is_empty() && p.detect);
    }

    #[test]
    fn kill_for_first_match_wins() {
        let p = FaultPlan::kill(1, KillSite::Blocking(3))
            .with(1, KillSite::Blocking(9))
            .with(2, KillSite::Op { name: "finish", hits: 2 });
        assert_eq!(p.kill_for(1), Some(KillSite::Blocking(3)));
        assert_eq!(p.kill_for(2), Some(KillSite::Op { name: "finish", hits: 2 }));
        assert_eq!(p.kill_for(0), None);
    }

    #[test]
    fn registry_counts_and_marks() {
        let st = Arc::new(FaultState::new(4, FaultPlan::kill(2, KillSite::Blocking(1))));
        let f2 = Fault::new(Arc::clone(&st), 2);
        let f0 = Fault::new(Arc::clone(&st), 0);
        assert!(!f2.blocking_hit(), "0th blocking point survives");
        assert!(f2.blocking_hit(), "1st blocking point kills");
        assert!(!f0.blocking_hit(), "other ranks never match");
        assert!(!f0.any_failed());
        f2.mark_failed(2);
        assert!(f0.any_failed() && f0.is_failed(2) && !f0.is_failed(0));
        assert_eq!(f0.failed_of(Watch::Ranks(&[0, 1, 3])), Vec::<usize>::new());
        assert_eq!(f0.failed_of(Watch::Ranks(&[0, 2, 3])), vec![2]);
        assert_eq!(f0.failed_of(Watch::All), vec![2]);
        assert_eq!(f0.failed_set(), vec![2]);
    }

    #[test]
    fn op_hits_are_one_based() {
        let st = Arc::new(FaultState::new(
            2,
            FaultPlan::kill(1, KillSite::Op { name: "event_notify", hits: 2 }),
        ));
        let f = Fault::new(st, 1);
        assert!(!f.op_hit("finish"), "wrong name never matches");
        assert!(!f.op_hit("event_notify"), "first hit survives");
        assert!(f.op_hit("event_notify"), "second hit kills");
    }

    #[test]
    fn seeded_plans_avoid_rank_zero() {
        for seed in 0..64u64 {
            let p = FaultPlan::seeded(seed, 8);
            let k = p.kills[0].unwrap();
            assert!(k.rank >= 1 && k.rank < 8);
        }
    }
}
