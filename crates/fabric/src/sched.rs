//! The model-checking scheduler gate (loom/shuttle-style).
//!
//! When a gate is **armed** (by `caf-model`'s exploration engine), every
//! image thread of the jobs the arming thread launches serializes
//! through this module — the gate lives in the arming thread's launch
//! scope (`caf_trace::scope`), so a job launched elsewhere runs free:
//! exactly one thread runs at a time, and control changes hands only at
//! *yield points* — the instrumented substrate entry points (RMA
//! put/get/atomic/flush, local window access), the fabric mailbox
//! operations (send / try_recv / recv_blocking), segment registry
//! updates, and charged delays ([`crate::delay::spin_for_ns`] becomes a
//! single yield instead of a busy-wait). The segment-direct lint
//! (`cargo xtask lint`) guarantees that no data-plane access bypasses
//! these entry points, so the yield set covers every schedule-visible
//! operation.
//!
//! The protocol is *announce-before-execute*: a thread declares its next
//! operation ([`ModelOp`]) and parks; the scheduler (running on whichever
//! thread yielded last) picks the next thread to run from the enabled
//! set, consulting a [`Chooser`] installed by the exploration engine.
//! Because every parked thread's next operation is known, the engine can
//! compute conflicts *before* execution — the prerequisite for sleep-set
//! partial-order reduction.
//!
//! Blocking operations register a wait edge (op + optional target image,
//! via [`wait_hint`]); a blocked thread becomes schedulable again only
//! after some other thread performs a real operation. When no thread is
//! runnable and at least one is blocked, the run is a **deadlock**: the
//! gate aborts all threads with a [`ModelAbort`] panic and reports the
//! wait-for edges instead of hanging (the paper's Figure 2 scenario).
//!
//! When no gate is armed, every entry point here is a single
//! thread-local load — the same disarmed-cost discipline as `caf-trace`
//! and `caf-check`. An armed gate also keeps the `caf-trace` stall
//! watchdog off: wall-clock thresholds mean nothing across a paused
//! schedule.

use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use caf_trace::scope::{self, Part};

/// Sentinel owner matching any rank (whole-window operations: flush,
/// epoch open/close, free).
pub const ANY_OWNER: usize = usize::MAX;

/// A schedule-visible operation, announced at a yield point *before* it
/// executes. Memory operations carry the resource they touch — a region
/// id (MPI window id or GASNet segment id, disjoint by namespace), the
/// owning rank, and a byte range — so the exploration engine can decide
/// whether two pending operations commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields are documented on the variants
pub enum ModelOp {
    /// Thread registered but has not yet announced its first operation.
    /// Conservatively conflicts with everything.
    Start,
    /// Mailbox injection into `(plane, to)`.
    Send { plane: usize, to: usize },
    /// Mailbox poll/consume of `(plane, rank)`.
    Recv { plane: usize, rank: usize },
    /// Data-plane read of `owner`'s part of `region`, bytes `[lo, hi)`.
    Read { region: u64, owner: usize, lo: u64, hi: u64 },
    /// Data-plane write.
    Write { region: u64, owner: usize, lo: u64, hi: u64 },
    /// Data-plane atomic (accumulate / fetch-op / CAS), or an
    /// order-sensitive whole-window transition (flush, lock_all, free)
    /// with `owner == ANY_OWNER`.
    Atomic { region: u64, owner: usize, lo: u64, hi: u64 },
    /// Segment registry mutation (register/unregister).
    Registry,
    /// A charged delay or other neutral yield; independent of everything.
    Tick,
    /// Image `rank` dies here (fault injection). Failure changes the
    /// enabledness of every blocking operation, so it conservatively
    /// conflicts with everything — the explorer interleaves the kill
    /// against every other pending operation.
    Fail { rank: usize },
}

impl ModelOp {
    fn mem(&self) -> Option<(u64, usize, u64, u64, bool)> {
        match *self {
            ModelOp::Read { region, owner, lo, hi } => Some((region, owner, lo, hi, false)),
            ModelOp::Write { region, owner, lo, hi } | ModelOp::Atomic { region, owner, lo, hi } => {
                Some((region, owner, lo, hi, true))
            }
            _ => None,
        }
    }

    /// Do two pending operations fail to commute? Same mailbox queue, or
    /// overlapping byte ranges of the same region with a write/atomic
    /// involved. `Start` is unknown and conservatively conflicts.
    pub fn conflicts(a: &ModelOp, b: &ModelOp) -> bool {
        use ModelOp::*;
        match (a, b) {
            (Start, _) | (_, Start) => true,
            (Fail { .. }, _) | (_, Fail { .. }) => true,
            (Tick, _) | (_, Tick) => false,
            (Send { plane: p1, to: t1 }, Send { plane: p2, to: t2 }) => p1 == p2 && t1 == t2,
            (Send { plane: p1, to }, Recv { plane: p2, rank })
            | (Recv { plane: p2, rank }, Send { plane: p1, to }) => p1 == p2 && to == rank,
            (Recv { plane: p1, rank: r1 }, Recv { plane: p2, rank: r2 }) => p1 == p2 && r1 == r2,
            (Registry, Registry) => true,
            _ => match (a.mem(), b.mem()) {
                (Some((ra, oa, la, ha, wa)), Some((rb, ob, lb, hb, wb))) => {
                    ra == rb
                        && (oa == ob || oa == ANY_OWNER || ob == ANY_OWNER)
                        && la < hb
                        && lb < ha
                        && (wa || wb)
                }
                _ => false,
            },
        }
    }

    /// Compact single-token rendering for schedule traces.
    pub fn brief(&self) -> String {
        match *self {
            ModelOp::Start => "start".into(),
            ModelOp::Send { plane, to } => format!("send(p{plane}->{to})"),
            ModelOp::Recv { plane, rank } => format!("recv(p{plane}@{rank})"),
            ModelOp::Read { region, owner, lo, hi } => {
                format!("read(r{region:x}@{owner}:{lo}..{hi})")
            }
            ModelOp::Write { region, owner, lo, hi } => {
                format!("write(r{region:x}@{owner}:{lo}..{hi})")
            }
            ModelOp::Atomic { region, owner, lo, hi } => {
                if owner == ANY_OWNER {
                    format!("sync(r{region:x})")
                } else {
                    format!("atomic(r{region:x}@{owner}:{lo}..{hi})")
                }
            }
            ModelOp::Registry => "registry".into(),
            ModelOp::Tick => "tick".into(),
            ModelOp::Fail { rank } => format!("fail({rank})"),
        }
    }
}

/// One scheduling decision, recorded for replay and partial-order
/// reduction.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Image whose operation was scheduled.
    pub chosen: usize,
    /// The operation it announced.
    pub op: ModelOp,
    /// True when this step re-attempted a blocked operation rather than
    /// executing a fresh announcement.
    pub retry: bool,
    /// Images that were schedulable at this step.
    pub enabled: Vec<usize>,
    /// Every live image's announced next operation at this step.
    pub pending: Vec<(usize, ModelOp)>,
}

/// One edge of the wait-for graph at a deadlock.
#[derive(Debug, Clone)]
pub struct BlockedEdge {
    /// The blocked image.
    pub image: usize,
    /// The operation it is parked in.
    pub op: ModelOp,
    /// The image it waits on, when the blocking call site declared one
    /// via [`wait_hint`].
    pub target: Option<usize>,
}

impl std::fmt::Display for BlockedEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "image {} blocked in {}", self.image, self.op.brief())?;
        if let Some(t) = self.target {
            write!(f, " waiting on image {t}")?;
        }
        Ok(())
    }
}

/// How one controlled run ended.
#[derive(Debug, Clone)]
pub enum RunStatus {
    /// Every image ran to completion.
    Completed,
    /// No image was runnable: the wait-for edges of every blocked image.
    Deadlock(Vec<BlockedEdge>),
    /// The per-schedule step budget was exhausted (livelock guard).
    StepBudget,
    /// The chooser cut the run short (sleep-set prune: every enabled
    /// thread is asleep, so this subtree is covered elsewhere).
    Pruned,
    /// An image panicked with a non-gate payload (a real bug or a failed
    /// assertion inside the modeled program).
    Panicked,
}

/// The full record of one controlled run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every scheduling decision, in order.
    pub steps: Vec<StepRecord>,
    /// Why the run ended.
    pub status: RunStatus,
}

/// A scheduling decision returned by a [`Chooser`].
#[derive(Debug, Clone, Copy)]
pub enum Choice {
    /// Run this image next (must be a member of the enabled set).
    Pick(usize),
    /// Abandon the run: the exploration engine knows the remaining
    /// suffix is covered by a sibling branch.
    Prune,
}

/// The policy consulted at every scheduling point. Implemented by the
/// exploration engine (DFS replay, seeded random walk).
pub trait Chooser: Send {
    /// Pick the next image to run. `step` is the global step index
    /// (including forced start-discovery steps), `enabled` the
    /// schedulable images in ascending order, `pending` every live
    /// image's announced operation.
    fn choose(&mut self, step: usize, enabled: &[usize], pending: &[(usize, ModelOp)]) -> Choice;
}

/// Panic payload used to tear down image threads on abort. The
/// exploration engine suppresses it in its panic hook.
pub struct ModelAbort;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TStatus {
    Ready,
    Blocked { epoch: u64 },
    Done,
}

struct PendingOp {
    op: ModelOp,
    target: Option<usize>,
}

struct GateState {
    n: usize,
    registered: usize,
    started: bool,
    status: Vec<TStatus>,
    pending: Vec<PendingOp>,
    current: Option<usize>,
    /// Bumped whenever a fresh (non-retry) operation is scheduled;
    /// blocked threads become schedulable only when it has advanced past
    /// the value captured when they parked.
    progress: u64,
    abort: Option<RunStatus>,
    chooser: Box<dyn Chooser>,
    steps: Vec<StepRecord>,
    max_steps: usize,
    panicked: bool,
}

/// One armed gate: the controlled run (`None` once disarmed) and the
/// condvar its thread participants park on.
struct Gate {
    state: Mutex<Option<GateState>>,
    cv: Condvar,
}

type Locked<'a> = MutexGuard<'a, Option<GateState>>;

impl Gate {
    fn lock(&self) -> Locked<'_> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wake every parked participant to re-check the schedule. Thread
    /// participants sleep on `cv`; under `ExecMode::Tasks` they are
    /// cooperatively parked on the caf-sched executor instead, so every
    /// notify pairs with an `unpark_all` (spurious permits are harmless —
    /// a woken task re-checks `current` and parks again). Lock order is
    /// the gate → a task's mutex, released, then the gate → the slot
    /// mutex (caf-sched never holds those two together and never takes a
    /// gate).
    fn wake_waiters(&self) {
        self.cv.notify_all();
        caf_sched::unpark_all();
    }
}

/// The gate armed in the calling thread's scope.
fn gate() -> Option<Arc<Gate>> {
    scope::with(|s| s.get(Part::Gate).cloned())?.downcast().ok()
}

thread_local! {
    static TID: Cell<Option<usize>> = const { Cell::new(None) };
    static HINT: Cell<Option<usize>> = const { Cell::new(None) };
    static FAULT_DYING: Cell<bool> = const { Cell::new(false) };
}

/// Mark the calling thread as unwinding from an *injected* image death.
/// Its gate retirement then counts as normal completion rather than a
/// program panic (the surviving images keep running; without this the
/// gate would abort the whole schedule as `Panicked`).
pub(crate) fn set_fault_dying() {
    FAULT_DYING.with(|f| f.set(true));
}

/// Whether the calling thread is unwinding from an injected death.
pub(crate) fn fault_dying() -> bool {
    FAULT_DYING.with(|f| f.get())
}

/// True while a gate is armed in the calling thread's scope. The fast
/// path of every yield point.
#[inline]
pub fn armed() -> bool {
    scope::armed(Part::Gate)
}

/// True when the calling thread is a registered participant of an armed
/// gate — i.e. when yield points must actually yield.
#[inline]
pub fn active() -> bool {
    armed() && TID.with(|t| t.get().is_some())
}

/// The gate's deterministic logical clock, in scheduled steps.
pub fn logical_steps() -> u64 {
    gate().map_or(0, |g| g.lock().as_ref().map_or(0, |g| g.steps.len() as u64))
}

/// Arm a gate for one controlled run of `n` image threads: the calling
/// thread's next launch is the run. Fails if a gate is already armed on
/// this thread.
pub fn arm(n: usize, max_steps: usize, chooser: Box<dyn Chooser>) -> Result<(), &'static str> {
    assert!(n > 0, "model run needs at least one image");
    if gate().is_some_and(|g| g.lock().is_some()) {
        return Err("scheduler gate already armed");
    }
    let state = GateState {
        n,
        registered: 0,
        started: false,
        status: vec![TStatus::Ready; n],
        pending: (0..n)
            .map(|_| PendingOp { op: ModelOp::Start, target: None })
            .collect(),
        current: None,
        progress: 0,
        abort: None,
        chooser,
        steps: Vec::new(),
        max_steps,
        panicked: false,
    };
    let gate = Gate { state: Mutex::new(Some(state)), cv: Condvar::new() };
    scope::set(Part::Gate, Some(Arc::new(gate)));
    Ok(())
}

/// Disarm the calling thread's gate and collect the run record. Call
/// after every image thread has been joined.
pub fn disarm() -> Option<RunOutcome> {
    let gate = gate()?;
    scope::set(Part::Gate, None);
    let g = gate.lock().take()?;
    let status = match g.abort {
        Some(s) => s,
        None if g.panicked => RunStatus::Panicked,
        None => RunStatus::Completed,
    };
    Some(RunOutcome { steps: g.steps, status })
}

/// RAII registration of an image thread with the armed gate. On drop
/// (normal return or unwind) the thread is marked done and the scheduler
/// moves on.
pub(crate) struct ThreadGuard {
    gate: Arc<Gate>,
    me: usize,
}

/// Register the calling thread as image `rank` of the gate armed in its
/// scope and park until all `n` images have registered and this thread
/// is scheduled. `None` when no gate is armed.
pub(crate) fn register_thread(rank: usize) -> Option<ThreadGuard> {
    let gate = gate()?;
    let mut st = gate.lock();
    let g = st.as_mut()?;
    assert!(
        rank < g.n,
        "model gate armed for {} images but thread registered as rank {rank}",
        g.n
    );
    assert!(
        g.status[rank] == TStatus::Ready && !g.started,
        "duplicate registration for image {rank}"
    );
    TID.with(|t| t.set(Some(rank)));
    g.registered += 1;
    if g.registered == g.n {
        g.started = true;
        schedule_next(g);
        gate.wake_waiters();
    }
    drop(wait_turn(&gate, st, rank));
    Some(ThreadGuard { gate, me: rank })
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        let (gate, me) = (&self.gate, self.me);
        TID.with(|t| t.set(None));
        HINT.with(|h| h.set(None));
        let fault_dying = FAULT_DYING.with(|f| f.replace(false));
        let mut st = gate.lock();
        let Some(g) = st.as_mut() else { return };
        g.status[me] = TStatus::Done;
        if std::thread::panicking() && !fault_dying {
            g.panicked = true;
            if g.abort.is_none() {
                // A real panic inside the modeled program: tear the other
                // images down rather than letting them park forever.
                g.abort = Some(RunStatus::Panicked);
            }
        }
        if g.current == Some(me) {
            g.current = None;
            if g.abort.is_none() {
                schedule_next(g);
            }
        }
        gate.wake_waiters();
    }
}

/// Park until the gate schedules `me`; panics with [`ModelAbort`] when
/// the run is aborted.
fn wait_turn<'a>(gate: &'a Gate, mut st: Locked<'a>, me: usize) -> Locked<'a> {
    loop {
        let Some(g) = st.as_mut() else {
            // Gate disarmed under us (abort teardown): unwind.
            drop(st);
            std::panic::panic_any(ModelAbort);
        };
        if g.abort.is_some() {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        if g.current == Some(me) {
            return st;
        }
        if caf_sched::on_task() {
            // Task-mode participant: a condvar wait here would OS-block
            // the carrier *while it holds a run slot*; with fewer slots
            // than images the job could never schedule the image whose
            // turn it is. Release the gate lock, give the slot up via
            // the cooperative park, and re-check on wake (every
            // `wake_waiters` hands out permits; a permit that raced this
            // park is banked, so the wake cannot be lost).
            drop(st);
            caf_sched::park();
            st = gate.lock();
        } else {
            st = gate.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Give up the calling participant's turn once `mark` has recorded why,
/// and park until the scheduler grants the next one. No-op when the
/// calling thread is not a gate participant.
fn hand_off(mark: impl FnOnce(&mut GateState, usize)) {
    let Some(me) = TID.with(|t| t.get()).filter(|_| armed()) else { return };
    let Some(gate) = gate() else { return };
    let mut st = gate.lock();
    let Some(g) = st.as_mut() else { return };
    if g.abort.is_some() {
        drop(st);
        std::panic::panic_any(ModelAbort);
    }
    mark(g, me);
    g.current = None;
    schedule_next(g);
    gate.wake_waiters();
    let mut st = wait_turn(&gate, st, me);
    if let Some(g) = st.as_mut() {
        g.status[me] = TStatus::Ready;
    }
}

/// Announce `op` as the calling thread's next operation and park until
/// the scheduler grants it.
pub fn yield_op(op: ModelOp) {
    hand_off(|g, me| g.pending[me] = PendingOp { op, target: HINT.with(|h| h.get()) });
}

/// Park the calling thread as blocked (its announced operation could not
/// complete). It becomes schedulable again only after another thread
/// performs a fresh operation; being rescheduled is permission to retry.
fn park_blocked() {
    hand_off(|g, me| g.status[me] = TStatus::Blocked { epoch: g.progress });
}

/// Run a blocking operation under the gate: announce `op`, then attempt
/// `try_fn`; on failure park until progress elsewhere, then retry. The
/// caller must be a gate participant (check [`active`] first).
pub fn model_blocking<T>(op: ModelOp, mut try_fn: impl FnMut() -> Option<T>) -> T {
    yield_op(op);
    loop {
        if let Some(v) = try_fn() {
            return v;
        }
        park_blocked();
    }
}

/// Yield for a charged delay. Returns true when the gate consumed the
/// delay (the caller must then skip its real wait).
pub fn yield_tick() -> bool {
    if !active() {
        return false;
    }
    yield_op(ModelOp::Tick);
    true
}

/// RAII wait-target annotation: while alive, blocking operations on this
/// thread report `target` as the image they wait on (the wait-for graph
/// edge in deadlock reports).
pub struct WaitHint {
    prev: Option<usize>,
}

/// Declare that blocking operations performed while the returned guard
/// is alive wait on image `target`.
pub fn wait_hint(target: usize) -> WaitHint {
    let prev = HINT.with(|h| h.replace(Some(target)));
    WaitHint { prev }
}

impl Drop for WaitHint {
    fn drop(&mut self) {
        let prev = self.prev;
        HINT.with(|h| h.set(prev));
    }
}

/// Pick the next thread to run. Called with the gate locked and no
/// current thread.
fn schedule_next(g: &mut GateState) {
    debug_assert!(g.current.is_none());
    if g.abort.is_some() {
        return;
    }
    if g.steps.len() >= g.max_steps {
        g.abort = Some(RunStatus::StepBudget);
        return;
    }
    let pending_snapshot = |g: &GateState| -> Vec<(usize, ModelOp)> {
        (0..g.n)
            .filter(|&t| g.status[t] != TStatus::Done)
            .map(|t| (t, g.pending[t].op))
            .collect()
    };
    // Start discovery: run threads that have not announced their first
    // operation yet, in tid order. These are forced (single-candidate)
    // steps, so they create no exploration branching.
    if let Some(t) = (0..g.n)
        .find(|&t| g.status[t] == TStatus::Ready && g.pending[t].op == ModelOp::Start)
    {
        let pending = pending_snapshot(g);
        g.steps.push(StepRecord {
            chosen: t,
            op: ModelOp::Start,
            retry: false,
            enabled: vec![t],
            pending,
        });
        g.current = Some(t);
        return;
    }
    let enabled: Vec<usize> = (0..g.n)
        .filter(|&t| match g.status[t] {
            TStatus::Ready => true,
            TStatus::Blocked { epoch } => epoch < g.progress,
            TStatus::Done => false,
        })
        .collect();
    if enabled.is_empty() {
        if g.status.iter().all(|s| *s == TStatus::Done) {
            return; // run complete
        }
        let edges = (0..g.n)
            .filter(|&t| matches!(g.status[t], TStatus::Blocked { .. }))
            .map(|t| BlockedEdge {
                image: t,
                op: g.pending[t].op,
                target: g.pending[t].target,
            })
            .collect();
        g.abort = Some(RunStatus::Deadlock(edges));
        return;
    }
    let pending = pending_snapshot(g);
    match g.chooser.choose(g.steps.len(), &enabled, &pending) {
        Choice::Prune => {
            g.abort = Some(RunStatus::Pruned);
        }
        Choice::Pick(t) => {
            assert!(
                enabled.contains(&t),
                "chooser picked image {t} outside the enabled set {enabled:?}"
            );
            let retry = matches!(g.status[t], TStatus::Blocked { .. });
            if !retry {
                g.progress += 1;
            }
            g.steps.push(StepRecord {
                chosen: t,
                op: g.pending[t].op,
                retry,
                enabled,
                pending,
            });
            g.current = Some(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, Packet};

    struct FirstEnabled;
    impl Chooser for FirstEnabled {
        fn choose(&mut self, _s: usize, enabled: &[usize], _p: &[(usize, ModelOp)]) -> Choice {
            Choice::Pick(enabled[0])
        }
    }

    fn run_gated(n: usize, f: impl Fn(crate::Endpoint) + Send + Sync) -> RunOutcome {
        arm(n, 10_000, Box::new(FirstEnabled)).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fabric::run(n, &f)
        }));
        let out = disarm().expect("gate was armed");
        if matches!(out.status, RunStatus::Completed) {
            assert!(r.is_ok(), "completed run must not panic");
        }
        out
    }

    #[test]
    fn conflict_table() {
        use ModelOp::*;
        let w = Write { region: 1, owner: 0, lo: 0, hi: 8 };
        let r_olap = Read { region: 1, owner: 0, lo: 4, hi: 12 };
        let r_apart = Read { region: 1, owner: 0, lo: 8, hi: 16 };
        let r_other = Read { region: 2, owner: 0, lo: 0, hi: 8 };
        assert!(ModelOp::conflicts(&w, &r_olap));
        assert!(!ModelOp::conflicts(&w, &r_apart));
        assert!(!ModelOp::conflicts(&w, &r_other));
        assert!(!ModelOp::conflicts(&r_olap, &r_olap));
        let sync = Atomic { region: 1, owner: ANY_OWNER, lo: 0, hi: u64::MAX };
        assert!(ModelOp::conflicts(&sync, &w));
        assert!(ModelOp::conflicts(
            &Send { plane: 0, to: 1 },
            &Recv { plane: 0, rank: 1 }
        ));
        assert!(!ModelOp::conflicts(
            &Send { plane: 0, to: 1 },
            &Recv { plane: 1, rank: 1 }
        ));
        assert!(!ModelOp::conflicts(&Tick, &w));
        assert!(ModelOp::conflicts(&Start, &Tick));
    }

    #[test]
    fn gated_ping_pong_completes_and_records_steps() {
        let out = run_gated(2, |ep| {
            if ep.rank() == 0 {
                ep.send(1, Packet::control(0, 1, 7, [0; 4])).unwrap();
                let p = ep.recv_blocking().unwrap();
                assert_eq!(p.tag, 8);
            } else {
                let p = ep.recv_blocking().unwrap();
                assert_eq!(p.tag, 7);
                ep.send(0, Packet::control(1, 1, 8, [0; 4])).unwrap();
            }
        });
        assert!(matches!(out.status, RunStatus::Completed), "{:?}", out.status);
        // Both sends and both receives appear as scheduled operations.
        let sends = out
            .steps
            .iter()
            .filter(|s| matches!(s.op, ModelOp::Send { .. }))
            .count();
        assert_eq!(sends, 2, "steps: {:?}", out.steps);
    }

    #[test]
    fn cross_recv_deadlock_is_detected_not_hung() {
        // Both ranks receive first: a genuine deadlock.
        let out = run_gated(2, |ep| {
            let peer = 1 - ep.rank();
            let _h = wait_hint(peer);
            let p = ep.recv_blocking().unwrap();
            ep.send(peer, p).unwrap();
        });
        match out.status {
            RunStatus::Deadlock(edges) => {
                assert_eq!(edges.len(), 2, "{edges:?}");
                assert_eq!(edges[0].target, Some(1));
                assert_eq!(edges[1].target, Some(0));
                assert!(matches!(edges[0].op, ModelOp::Recv { .. }));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn step_budget_bounds_livelock() {
        arm(1, 64, Box::new(FirstEnabled)).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fabric::run(1, |ep| {
                // Spin forever polling an empty mailbox.
                loop {
                    if ep.try_recv().is_some() {
                        break;
                    }
                }
            })
        }));
        assert!(r.is_err());
        let out = disarm().unwrap();
        assert!(matches!(out.status, RunStatus::StepBudget), "{:?}", out.status);
        assert!(out.steps.len() >= 64);
    }

    #[test]
    fn disarmed_gate_is_inert() {
        assert!(!armed());
        yield_op(ModelOp::Tick); // must not block or panic
        assert!(!yield_tick());
        assert!(register_thread(0).is_none());
    }
}
