//! Systematic schedule exploration for the CAF runtime (DPOR-lite).
//!
//! `caf-fabric`'s scheduler gate ([`caf_fabric::sched`]) serializes the
//! image threads of one simulated job and consults a [`Chooser`] at every
//! yield point. This crate supplies the choosers and the drivers around
//! them:
//!
//! * **DFS enumeration** of every maximal interleaving, optionally with
//!   **sleep sets** (Godefroid's partial-order reduction): because every
//!   parked thread's next operation is announced before it executes, the
//!   explorer knows which pending operations commute
//!   ([`ModelOp::conflicts`]) and prunes interleavings that only reorder
//!   independent operations.
//! * **Seeded random walks** for state spaces too large to enumerate.
//!
//! Each explored schedule runs the *real* runtime — substrates, windows,
//! active messages — under the `caf-check` oracle (MPI-3 epoch legality +
//! happens-before races), so a schedule-dependent bug surfaces as an
//! ordinary sanitizer diagnostic attached to a replayable schedule token:
//! `dfs:1,0,0,…` (the exact choice sequence) or `rand:<seed>` (the walk
//! seed). [`replay`] re-executes a token deterministically — same seed,
//! same schedule, same diagnostic.
//!
//! ```text
//! let report = caf_model::explore(&scenarios::fig2_deadlock(), &cfg);
//! for cx in &report.counterexamples {
//!     println!("{}: replay with {}", cx.kind, cx.token);
//! }
//! ```

#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};

use caf_check::{check_trace, CheckConfig, Report};
use caf_fabric::sched::{self, Choice, Chooser, ModelOp, RunOutcome, RunStatus, StepRecord};

pub mod scenarios;
pub use scenarios::Scenario;

/// How to walk the schedule space.
#[derive(Debug, Clone, Copy)]
pub enum ExploreMode {
    /// Depth-first enumeration of every maximal schedule. With
    /// `sleep_sets`, interleavings that only reorder independent
    /// operations are pruned (DPOR-lite); without, the naive full
    /// enumeration (the baseline the reduction factor is measured
    /// against).
    Dfs {
        /// Enable sleep-set pruning.
        sleep_sets: bool,
    },
    /// `walks` independent runs under a seeded random scheduler.
    Random {
        /// Base seed; walk `w` derives its own seed from it.
        seed: u64,
        /// Number of walks.
        walks: usize,
    },
}

/// Which `caf-check` analyses judge each explored schedule.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// MPI-3 epoch-legality checker (unflushed puts, epoch overlap, ...).
    pub epochs: bool,
    /// CAF-level happens-before race detector.
    pub races: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { epochs: true, races: true }
    }
}

/// Exploration budget and policy.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Per-schedule step budget (livelock guard).
    pub max_steps: usize,
    /// Total run budget (completed + pruned).
    pub max_schedules: usize,
    /// The walk policy.
    pub mode: ExploreMode,
    /// Judge schedules with the `caf-check` sanitizer. `None` still
    /// detects deadlocks, step-budget blowups and panics.
    pub oracle: Option<OracleConfig>,
    /// Stop at the first counterexample instead of draining the budget.
    pub stop_at_first: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 20_000,
            max_schedules: 400,
            mode: ExploreMode::Dfs { sleep_sets: true },
            oracle: Some(OracleConfig::default()),
            stop_at_first: false,
        }
    }
}

/// One bug found by exploration, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Replay token: `dfs:<choice,...>` or `rand:<seed>`. Feed to
    /// [`replay`] with the same scenario and config.
    pub token: String,
    /// `deadlock`, `panic`, `step_budget`, a `caf-check` violation kind
    /// (`read_before_flush`, `coarray_race`, ...), or `dropped` when the
    /// oracle's trace lost events.
    pub kind: String,
    /// Human-readable specifics (wait-for edges, the violation line).
    pub detail: String,
    /// The schedule, one rendered line per scheduling decision.
    pub schedule: Vec<String>,
}

/// What an exploration covered and found.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Maximal schedules executed to an end state (completion, deadlock,
    /// panic or step budget).
    pub schedules: usize,
    /// Runs abandoned by sleep-set pruning (their suffixes are covered by
    /// sibling branches).
    pub pruned: usize,
    /// The DFS tree was exhausted within budget: every maximal schedule
    /// (modulo pruned equivalents) was executed. Always false in random
    /// mode.
    pub complete: bool,
    /// Total scheduling decisions across all runs.
    pub total_steps: usize,
    /// Runs that ended in a deadlock, panic, budget blowup or oracle
    /// violation.
    pub flagged: usize,
    /// The first [`MAX_COUNTEREXAMPLES`] flagged runs, in discovery order.
    pub counterexamples: Vec<Counterexample>,
}

/// Stored-counterexample cap; [`ExploreReport::flagged`] keeps the full
/// count.
pub const MAX_COUNTEREXAMPLES: usize = 32;

/// The result of one [`replay`].
#[derive(Debug)]
pub struct Replay {
    /// The run record (status + every scheduling decision).
    pub outcome: RunOutcome,
    /// The oracle's report, when an oracle was configured.
    pub report: Option<Report>,
    /// The schedule, rendered as in [`Counterexample::schedule`].
    pub schedule: Vec<String>,
}

static HOOK: Once = Once::new();

/// Chain a panic hook that stays quiet for the image threads of a gated
/// job: aborted ones unwind with `ModelAbort` by design, and a panic in
/// the modeled program is reported as a counterexample instead. Every
/// other thread — an unrelated test beside an exploration included —
/// reports its panics as before.
fn install_panic_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !sched::active() {
                prev(info);
            }
        }));
    });
}

/// Render a recorded schedule, one line per decision.
pub fn render_schedule(steps: &[StepRecord]) -> Vec<String> {
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{i:>4}  image {}  {}{}",
                s.chosen,
                s.op.brief(),
                if s.retry { "  (retry)" } else { "" }
            )
        })
        .collect()
}

/// Run one schedule: arm the oracle's trace and the gate on this thread,
/// execute the scenario, replay the trace.
fn run_controlled(
    scenario: &Scenario,
    cfg: &ExploreConfig,
    chooser: Box<dyn Chooser>,
) -> (RunOutcome, Option<Report>) {
    let session = cfg.oracle.map(|o| {
        let trace = caf_trace::TraceConfig { stall_threshold: None, ..caf_trace::TraceConfig::default() };
        let session = caf_trace::Session::start(trace).expect("a trace session is already active");
        (session, CheckConfig { epochs: o.epochs, races: o.races })
    });
    sched::arm(scenario.images, cfg.max_steps, chooser).expect("scheduler gate already armed");
    let result = catch_unwind(AssertUnwindSafe(|| (scenario.run)()));
    let mut outcome = sched::disarm().expect("gate was armed");
    if result.is_err() && matches!(outcome.status, RunStatus::Completed) {
        // The job panicked outside any scheduling decision (launcher-side
        // assertion): still a failed run.
        outcome.status = RunStatus::Panicked;
    }
    (outcome, session.map(|(s, check)| check_trace(&s.finish(), check)))
}

/// Classify one finished run into the report. Returns true when the run
/// was flagged.
fn record_run(
    rep: &mut ExploreReport,
    token: String,
    outcome: &RunOutcome,
    oracle: Option<&Report>,
) -> bool {
    rep.total_steps += outcome.steps.len();
    let finding: Option<(String, String)> = match &outcome.status {
        RunStatus::Pruned => {
            rep.pruned += 1;
            return false;
        }
        RunStatus::Deadlock(edges) => Some((
            "deadlock".into(),
            edges.iter().map(ToString::to_string).collect::<Vec<_>>().join("; "),
        )),
        RunStatus::StepBudget => Some((
            "step_budget".into(),
            format!("no end state within {} steps (livelock?)", outcome.steps.len()),
        )),
        RunStatus::Panicked => Some(("panic".into(), "an image panicked".into())),
        RunStatus::Completed => oracle.and_then(|r| match r.violations.first() {
            Some(v) => Some((v.kind.name().to_string(), v.to_string())),
            None if r.dropped > 0 => {
                Some(("dropped".into(), format!("{} trace events the oracle could not judge", r.dropped)))
            }
            None => None,
        }),
    };
    rep.schedules += 1;
    let Some((kind, detail)) = finding else { return false };
    rep.flagged += 1;
    if rep.counterexamples.len() < MAX_COUNTEREXAMPLES {
        rep.counterexamples.push(Counterexample {
            token,
            kind,
            detail,
            schedule: render_schedule(&outcome.steps),
        });
    }
    true
}

// ---------------------------------------------------------------------------
// DFS with sleep sets

/// Remove from `z` every entry whose operation does not commute with
/// `op` — executing `op` "wakes" those threads (Godefroid's sleep-set
/// update rule).
fn wake(z: &mut Vec<(usize, ModelOp)>, op: ModelOp) {
    z.retain(|(_, o)| !ModelOp::conflicts(o, &op));
}

/// One branch point of the DFS tree (a scheduling decision with its
/// sleep-set bookkeeping).
#[derive(Debug, Clone)]
struct DfsNode {
    /// The choice this path currently takes.
    chosen: usize,
    /// The operation `chosen` had announced.
    op: ModelOp,
    /// Sleep set *entering* this node: threads whose pending operation is
    /// already covered by a previously explored sibling subtree.
    sleep: Vec<(usize, ModelOp)>,
    /// Siblings fully explored at this node (fed into child sleep sets).
    tried: Vec<(usize, ModelOp)>,
    /// Enabled, non-sleeping siblings still to explore.
    alternatives: Vec<usize>,
    /// Every live thread's announced operation at this node.
    pending: Vec<(usize, ModelOp)>,
}

/// The in-run half of the DFS: replays the forced prefix (the current
/// tree path), then extends the path lowest-tid-first, recording each
/// fresh branch point, and prunes when every enabled thread sleeps.
struct DfsChooser {
    forced: Vec<usize>,
    next: usize,
    sleep_sets: bool,
    /// Sleep set at the frontier (precomputed by the driver for the
    /// divergence point, then maintained per fresh step).
    z: Vec<(usize, ModelOp)>,
    fresh: Arc<Mutex<Vec<DfsNode>>>,
}

impl Chooser for DfsChooser {
    fn choose(&mut self, _step: usize, enabled: &[usize], pending: &[(usize, ModelOp)]) -> Choice {
        if self.next < self.forced.len() {
            let t = self.forced[self.next];
            self.next += 1;
            return Choice::Pick(t);
        }
        let op_of = |t: usize| {
            pending
                .iter()
                .find(|&&(p, _)| p == t)
                .map(|&(_, o)| o)
                .expect("enabled thread has a pending op")
        };
        let mut candidates: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|&t| !(self.sleep_sets && self.z.contains(&(t, op_of(t)))))
            .collect();
        if candidates.is_empty() {
            return Choice::Prune;
        }
        let chosen = candidates.remove(0);
        let op = op_of(chosen);
        self.fresh.lock().unwrap_or_else(|e| e.into_inner()).push(DfsNode {
            chosen,
            op,
            sleep: self.z.clone(),
            tried: Vec::new(),
            alternatives: candidates,
            pending: pending.to_vec(),
        });
        wake(&mut self.z, op);
        Choice::Pick(chosen)
    }
}

fn explore_dfs(scenario: &Scenario, cfg: &ExploreConfig, sleep_sets: bool) -> ExploreReport {
    let mut tree: Vec<DfsNode> = Vec::new();
    let mut rep = ExploreReport::default();
    loop {
        if rep.schedules + rep.pruned >= cfg.max_schedules {
            break; // budget drained; rep.complete stays false
        }
        let forced: Vec<usize> = tree.iter().map(|n| n.chosen).collect();
        // Sleep set at the divergence point: the frontier node's own
        // sleep set plus its already-explored siblings, woken by the
        // operation it now executes.
        let z0 = tree
            .last()
            .map(|n| {
                let mut z = n.sleep.clone();
                z.extend(n.tried.iter().copied());
                wake(&mut z, n.op);
                z
            })
            .unwrap_or_default();
        let fresh = Arc::new(Mutex::new(Vec::new()));
        let chooser = DfsChooser {
            forced: forced.clone(),
            next: 0,
            sleep_sets,
            z: z0,
            fresh: Arc::clone(&fresh),
        };
        let (outcome, oracle) = run_controlled(scenario, cfg, Box::new(chooser));
        let mut new_nodes =
            std::mem::take(&mut *fresh.lock().unwrap_or_else(|e| e.into_inner()));
        let token = {
            let mut all = forced;
            all.extend(new_nodes.iter().map(|n| n.chosen));
            format!(
                "dfs:{}",
                all.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
            )
        };
        tree.append(&mut new_nodes);
        let flagged = record_run(&mut rep, token, &outcome, oracle.as_ref());
        if flagged && cfg.stop_at_first {
            break;
        }
        // Backtrack to the deepest node with an unexplored sibling.
        let advanced = loop {
            let Some(node) = tree.last_mut() else { break false };
            node.tried.push((node.chosen, node.op));
            if let Some(&a) = node.alternatives.first() {
                node.alternatives.remove(0);
                node.chosen = a;
                node.op = node
                    .pending
                    .iter()
                    .find(|&&(t, _)| t == a)
                    .expect("alternative was enabled at this node")
                    .1;
                break true;
            }
            tree.pop();
        };
        if !advanced {
            rep.complete = true;
            break;
        }
    }
    rep
}

// ---------------------------------------------------------------------------
// Seeded random walks

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic seeded scheduler (SplitMix64 over the enabled set).
struct RandomChooser {
    state: u64,
}

impl RandomChooser {
    fn new(seed: u64) -> Self {
        RandomChooser { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, _step: usize, enabled: &[usize], _p: &[(usize, ModelOp)]) -> Choice {
        let i = (self.next_u64() % enabled.len() as u64) as usize;
        Choice::Pick(enabled[i])
    }
}

fn explore_random(scenario: &Scenario, cfg: &ExploreConfig, seed: u64, walks: usize) -> ExploreReport {
    let mut rep = ExploreReport::default();
    for w in 0..walks.min(cfg.max_schedules) {
        let walk_seed = splitmix64(seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let chooser = Box::new(RandomChooser::new(walk_seed));
        let (outcome, oracle) = run_controlled(scenario, cfg, chooser);
        let token = format!("rand:{walk_seed:016x}");
        let flagged = record_run(&mut rep, token, &outcome, oracle.as_ref());
        if flagged && cfg.stop_at_first {
            break;
        }
    }
    rep
}

// ---------------------------------------------------------------------------
// Entry points

/// Explore the scenario's schedule space under `cfg`. The gate and the
/// oracle are armed on the calling thread only, so explorations on
/// different threads run side by side.
pub fn explore(scenario: &Scenario, cfg: &ExploreConfig) -> ExploreReport {
    install_panic_hook();
    match cfg.mode {
        ExploreMode::Dfs { sleep_sets } => explore_dfs(scenario, cfg, sleep_sets),
        ExploreMode::Random { seed, walks } => explore_random(scenario, cfg, seed, walks),
    }
}

/// A chooser that replays a recorded choice sequence, then continues
/// lowest-tid-first (sufficient for tokens recorded up to the end state).
struct ReplayChooser {
    forced: Vec<usize>,
    next: usize,
}

impl Chooser for ReplayChooser {
    fn choose(&mut self, _step: usize, enabled: &[usize], _p: &[(usize, ModelOp)]) -> Choice {
        if self.next < self.forced.len() {
            let t = self.forced[self.next];
            self.next += 1;
            return Choice::Pick(t);
        }
        Choice::Pick(enabled[0])
    }
}

/// Parse a [`Counterexample::token`] into its chooser.
fn parse_token(token: &str) -> Result<Box<dyn Chooser>, String> {
    if let Some(list) = token.strip_prefix("dfs:") {
        let forced = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<usize>().map_err(|e| format!("bad dfs token `{token}`: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Box::new(ReplayChooser { forced, next: 0 }));
    }
    if let Some(hex) = token.strip_prefix("rand:") {
        let seed = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("bad rand token `{token}`: {e}"))?;
        return Ok(Box::new(RandomChooser::new(seed)));
    }
    Err(format!("unknown token scheme `{token}` (expected dfs:... or rand:...)"))
}

/// Re-execute one recorded schedule. Deterministic: the same token on the
/// same scenario and config reproduces the same schedule and the same
/// diagnostics.
pub fn replay(scenario: &Scenario, cfg: &ExploreConfig, token: &str) -> Replay {
    let chooser = parse_token(token).expect("valid replay token");
    install_panic_hook();
    let (outcome, report) = run_controlled(scenario, cfg, chooser);
    Replay {
        schedule: render_schedule(&outcome.steps),
        outcome,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_removes_conflicting_entries_only() {
        let w = ModelOp::Write { region: 1, owner: 0, lo: 0, hi: 8 };
        let r = ModelOp::Read { region: 1, owner: 0, lo: 0, hi: 8 };
        let t = ModelOp::Tick;
        let mut z = vec![(0, r), (1, t)];
        wake(&mut z, w); // the read conflicts with the write; the tick does not
        assert_eq!(z, vec![(1, t)]);
    }

    #[test]
    fn token_roundtrip_parses() {
        assert!(parse_token("dfs:0,1,1,0").is_ok());
        assert!(parse_token("dfs:").is_ok());
        assert!(parse_token("rand:00ff00ff00ff00ff").is_ok());
        assert!(parse_token("bogus:1").is_err());
        assert!(parse_token("dfs:x").is_err());
    }

    /// Only the image threads of a gated job are silenced: a raw thread
    /// that panics while an exploration runs is reported. The only test
    /// of this binary that explores, so its hook is the one the
    /// explorer's chains to.
    #[test]
    fn a_thread_outside_the_scope_is_not_silenced_during_an_exploration() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            match info.payload().downcast_ref::<&str>().filter(|m| m.starts_with("marker")) {
                Some(m) => sink.lock().unwrap().push(m.to_string()),
                None => prev(info),
            }
        }));
        fn run() {
            let _ = std::thread::spawn(|| panic!("marker: outside")).join();
            caf_fabric::Fabric::run(1, |_| panic!("marker: image"));
        }
        let scenario = Scenario { name: "panics", images: 1, run };
        let cfg = ExploreConfig { max_schedules: 1, oracle: None, ..ExploreConfig::default() };
        let rep = explore(&scenario, &cfg);
        assert_eq!(rep.counterexamples[0].kind, "panic");
        assert_eq!(*seen.lock().unwrap(), ["marker: outside"]);
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let a = splitmix64(1);
        let b = splitmix64(1);
        let c = splitmix64(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
