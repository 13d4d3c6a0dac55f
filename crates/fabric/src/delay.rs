//! Configurable per-operation cost model.
//!
//! Software overheads are what separate the paper's two runtimes: a GASNet
//! put has a smaller constant overhead than an MPICH `MPI_Put`; an MPICH
//! `MPI_Win_flush_all` visits every rank in the window; GASNet's SRQ adds a
//! slow path to message reception. On an in-process fabric those overheads
//! are otherwise nanoseconds of function-call cost, so the substrates charge
//! them explicitly here: each operation spin-waits for a configured number
//! of nanoseconds (plus a per-byte term), making the shapes of the paper's
//! figures visible in actual wall-clock measurements.
//!
//! The default configuration charges **zero** everywhere, so unit tests and
//! correctness-oriented examples run at full speed. The costed tables are
//! built in one place, `caf_bench::platform_config`, from the constants of
//! `caf_netmodel::Platform` that also draw the model's figures.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Uniform scale-down factor `caf_bench::fusion_like` applies to the
/// paper's real-hardware overheads (the constants of
/// `caf_netmodel::Platform`), so in-process benchmark runs finish
/// quickly while every *ratio* the paper's analysis depends on is
/// preserved.
pub const TIME_SCALE: f64 = 100.0;

/// The fabric operations that can be charged a cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelayOp {
    /// Injecting a two-sided message (send side).
    P2pInject,
    /// Receiving/matching a two-sided message (receive side).
    P2pReceive,
    /// A one-sided put.
    RmaPut,
    /// A one-sided get.
    RmaGet,
    /// A one-sided atomic (accumulate / fetch-op / CAS).
    RmaAtomic,
    /// Completing outstanding ops to one target (one `flush` handshake).
    FlushPerTarget,
    /// An active-message dispatch on the receive side.
    AmDispatch,
}

/// Every [`DelayOp`], in [`DelayOp::index`] order.
pub const ALL_DELAY_OPS: [DelayOp; NDELAY_OPS] = [
    DelayOp::P2pInject,
    DelayOp::P2pReceive,
    DelayOp::RmaPut,
    DelayOp::RmaGet,
    DelayOp::RmaAtomic,
    DelayOp::FlushPerTarget,
    DelayOp::AmDispatch,
];

/// Number of [`DelayOp`] variants.
pub const NDELAY_OPS: usize = 7;

impl DelayOp {
    /// Dense index into per-op tables; agrees with [`ALL_DELAY_OPS`].
    pub const fn index(self) -> usize {
        match self {
            DelayOp::P2pInject => 0,
            DelayOp::P2pReceive => 1,
            DelayOp::RmaPut => 2,
            DelayOp::RmaGet => 3,
            DelayOp::RmaAtomic => 4,
            DelayOp::FlushPerTarget => 5,
            DelayOp::AmDispatch => 6,
        }
    }

    /// Whether this op is charged on the *receive* side (the image that
    /// dispatches or matches an incoming message) rather than at issue.
    ///
    /// Issue-side counts are a pure function of the program: an image
    /// charges them at its own call sites, so they are identical across
    /// substatially different schedules (OS threads vs. caf-sched tasks).
    /// Receive-side counts are charged when the *poll* that drains the
    /// message runs, and a metered window bounded by snapshots (e.g.
    /// [`DelayMeter`] deltas around a timed kernel) can catch a straggler
    /// on one side of the boundary under one schedule and the other side
    /// under another. Comparisons across execution modes should restrict
    /// themselves to issue-side ops.
    pub const fn receive_side(self) -> bool {
        matches!(self, DelayOp::P2pReceive | DelayOp::AmDispatch)
    }

    /// Stable snake_case name (used in bench JSON keys).
    pub const fn name(self) -> &'static str {
        match self {
            DelayOp::P2pInject => "p2p_inject",
            DelayOp::P2pReceive => "p2p_receive",
            DelayOp::RmaPut => "rma_put",
            DelayOp::RmaGet => "rma_get",
            DelayOp::RmaAtomic => "rma_atomic",
            DelayOp::FlushPerTarget => "flush_per_target",
            DelayOp::AmDispatch => "am_dispatch",
        }
    }
}

/// Per-operation base + per-byte costs, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Fixed overhead per operation.
    pub base_ns: f64,
    /// Additional cost per payload byte.
    pub per_byte_ns: f64,
}

impl OpCost {
    /// Zero cost.
    pub const FREE: OpCost = OpCost {
        base_ns: 0.0,
        per_byte_ns: 0.0,
    };

    /// Total cost of an operation moving `bytes` bytes.
    pub fn cost_ns(&self, bytes: usize) -> f64 {
        self.base_ns + self.per_byte_ns * bytes as f64
    }
}

/// A full delay configuration for one substrate instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayConfig {
    /// Cost table indexed by [`DelayOp`].
    pub p2p_inject: OpCost,
    /// See [`DelayOp::P2pReceive`].
    pub p2p_receive: OpCost,
    /// See [`DelayOp::RmaPut`].
    pub rma_put: OpCost,
    /// See [`DelayOp::RmaGet`].
    pub rma_get: OpCost,
    /// See [`DelayOp::RmaAtomic`].
    pub rma_atomic: OpCost,
    /// See [`DelayOp::FlushPerTarget`]. Charged once per target rank, which
    /// is how `MPI_Win_flush_all`'s Θ(P) cost arises.
    pub flush_per_target: OpCost,
    /// See [`DelayOp::AmDispatch`].
    pub am_dispatch: OpCost,
}

impl Default for DelayConfig {
    fn default() -> Self {
        DelayConfig::free()
    }
}

impl DelayConfig {
    /// The all-zero configuration (no artificial delays).
    pub const fn free() -> Self {
        DelayConfig {
            p2p_inject: OpCost::FREE,
            p2p_receive: OpCost::FREE,
            rma_put: OpCost::FREE,
            rma_get: OpCost::FREE,
            rma_atomic: OpCost::FREE,
            flush_per_target: OpCost::FREE,
            am_dispatch: OpCost::FREE,
        }
    }

    /// Cost entry for `op`.
    pub fn cost(&self, op: DelayOp) -> OpCost {
        match op {
            DelayOp::P2pInject => self.p2p_inject,
            DelayOp::P2pReceive => self.p2p_receive,
            DelayOp::RmaPut => self.rma_put,
            DelayOp::RmaGet => self.rma_get,
            DelayOp::RmaAtomic => self.rma_atomic,
            DelayOp::FlushPerTarget => self.flush_per_target,
            DelayOp::AmDispatch => self.am_dispatch,
        }
    }
}

/// Per-rank ledger of modeled costs: how many times each [`DelayOp`] was
/// charged and how many *modeled* nanoseconds that amounted to.
///
/// Unlike the wall-clock statistics, these numbers are functions of the
/// program and the cost table only — they are byte-identical across runs,
/// schedulers, and machines, which is what lets the bench harness gate on
/// them with a tight regression threshold. Not thread-safe by design: each
/// rank owns its own (same discipline as `Stats`).
#[derive(Debug, Default)]
pub struct DelayMeter {
    counts: [Cell<u64>; NDELAY_OPS],
    modeled_ns: [Cell<u64>; NDELAY_OPS],
}

impl DelayMeter {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one charge of `op` costing `ns` modeled nanoseconds.
    pub fn record(&self, op: DelayOp, ns: f64) {
        let i = op.index();
        self.counts[i].set(self.counts[i].get() + 1);
        self.modeled_ns[i].set(self.modeled_ns[i].get() + ns.max(0.0) as u64);
    }

    /// Number of times `op` was charged.
    pub fn count(&self, op: DelayOp) -> u64 {
        self.counts[op.index()].get()
    }

    /// Total modeled nanoseconds charged to `op`.
    pub fn modeled_ns(&self, op: DelayOp) -> u64 {
        self.modeled_ns[op.index()].get()
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for c in &self.counts {
            c.set(0);
        }
        for c in &self.modeled_ns {
            c.set(0);
        }
    }

    /// Plain-data snapshot: `(op, count, modeled_ns)` in
    /// [`ALL_DELAY_OPS`] order.
    pub fn snapshot(&self) -> Vec<(DelayOp, u64, u64)> {
        ALL_DELAY_OPS
            .iter()
            .map(|&op| (op, self.count(op), self.modeled_ns(op)))
            .collect()
    }
}

/// A cost table plus its metering ledger — what the substrates actually
/// carry. `charge` spins like [`DelayConfig::charge`] *and* records the
/// modeled cost; `note` records without spinning (used by non-blocking
/// operations whose latency is paid at completion time).
#[derive(Debug, Default)]
pub struct Delays {
    cfg: DelayConfig,
    meter: DelayMeter,
}

impl Delays {
    /// Wrap a cost table with a fresh meter.
    pub fn new(cfg: DelayConfig) -> Self {
        Delays {
            cfg,
            meter: DelayMeter::new(),
        }
    }

    /// The underlying cost table.
    pub fn config(&self) -> &DelayConfig {
        &self.cfg
    }

    /// The metering ledger.
    pub fn meter(&self) -> &DelayMeter {
        &self.meter
    }

    /// Cost entry for `op` (see [`DelayConfig::cost`]).
    pub fn cost(&self, op: DelayOp) -> OpCost {
        self.cfg.cost(op)
    }

    /// Record and spin-charge `op` on `bytes` bytes. Spinning (rather
    /// than sleeping) keeps sub-microsecond costs accurate; the OS cannot
    /// sleep for 200 ns.
    pub fn charge(&self, op: DelayOp, bytes: usize) {
        let ns = self.cfg.cost(op).cost_ns(bytes);
        self.meter.record(op, ns);
        spin_for_ns(ns);
    }

    /// Record `op` without spinning and return its modeled cost in
    /// nanoseconds. Callers that defer the latency (e.g. `rflush`) spin for
    /// whatever remains of it at completion time.
    pub fn note(&self, op: DelayOp, bytes: usize) -> f64 {
        let ns = self.cfg.cost(op).cost_ns(bytes);
        self.meter.record(op, ns);
        ns
    }
}

/// Busy-wait for approximately `ns` nanoseconds. No-op for `ns <= 0`.
///
/// Under model control ([`crate::sched`]) the wait becomes a single
/// scheduler yield instead: wall-clock cost is meaningless in a modeled
/// schedule, and a busy-wait would wedge exploration (only one thread
/// runs at a time, and it would spin inside its quantum).
pub fn spin_for_ns(ns: f64) {
    if ns <= 0.0 {
        return;
    }
    if crate::sched::yield_tick() {
        return;
    }
    if caf_sched::on_task() {
        // On the task executor the charged wall-clock delay still
        // elapses, but the run slot is offered to every ready task
        // between clock checks so the other images keep making progress
        // underneath the spin.
        let deadline = monotonic_ns().saturating_add(ns as u64);
        while monotonic_ns() < deadline {
            caf_sched::yield_now();
        }
        return;
    }
    let dur = Duration::from_nanos(ns as u64);
    let start = Instant::now();
    while start.elapsed() < dur {
        std::hint::spin_loop();
    }
}

/// Monotonic nanoseconds since an arbitrary process-local origin.
///
/// This is the workspace's one sanctioned wall-clock read for timing
/// statistics (the nondeterminism lint forbids raw `Instant::now` outside
/// this file): under model control it returns the gate's deterministic
/// logical clock instead of real time, so timed wrappers don't reintroduce
/// schedule-dependent values into modeled runs.
pub fn monotonic_ns() -> u64 {
    if crate::sched::active() {
        // One scheduled operation ≙ 1 µs of logical time.
        return crate::sched::logical_steps() * 1_000;
    }
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing")]
    fn free_config_charges_nothing_fast() {
        let delays = Delays::new(DelayConfig::free());
        let t = Instant::now();
        for _ in 0..10_000 {
            delays.charge(DelayOp::RmaPut, 1 << 20);
        }
        assert!(t.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn cost_combines_base_and_per_byte() {
        let c = OpCost {
            base_ns: 100.0,
            per_byte_ns: 0.5,
        };
        assert_eq!(c.cost_ns(0), 100.0);
        assert_eq!(c.cost_ns(200), 200.0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing")]
    fn spin_waits_roughly_the_requested_time() {
        let t = Instant::now();
        spin_for_ns(2_000_000.0); // 2 ms
        let el = t.elapsed();
        assert!(el >= Duration::from_millis(2), "{el:?}");
        assert!(el < Duration::from_millis(200), "{el:?}");
    }

    #[test]
    fn cost_lookup_matches_fields() {
        let mut cfg = DelayConfig::free();
        cfg.flush_per_target = OpCost { base_ns: 42.0, ..OpCost::FREE };
        assert_eq!(cfg.cost(DelayOp::FlushPerTarget).base_ns, 42.0);
        assert_eq!(cfg.cost(DelayOp::RmaGet), OpCost::FREE);
    }

    #[test]
    fn delay_op_index_matches_all_ops() {
        for (i, &op) in ALL_DELAY_OPS.iter().enumerate() {
            assert_eq!(op.index(), i, "{op:?}");
        }
    }

    #[test]
    fn meter_records_counts_and_modeled_ns() {
        let mut cfg = DelayConfig::free();
        cfg.flush_per_target = OpCost { base_ns: 10.0, ..OpCost::FREE };
        cfg.rma_put = OpCost {
            base_ns: 5.0,
            per_byte_ns: 1.0,
        };
        let d = Delays::new(cfg);
        d.charge(DelayOp::FlushPerTarget, 0);
        d.charge(DelayOp::FlushPerTarget, 0);
        d.charge(DelayOp::RmaPut, 3);
        assert_eq!(d.meter().count(DelayOp::FlushPerTarget), 2);
        assert_eq!(d.meter().modeled_ns(DelayOp::FlushPerTarget), 20);
        assert_eq!(d.meter().count(DelayOp::RmaPut), 1);
        assert_eq!(d.meter().modeled_ns(DelayOp::RmaPut), 8);
        assert_eq!(d.meter().count(DelayOp::AmDispatch), 0);
        d.meter().reset();
        assert_eq!(d.meter().snapshot(), {
            use DelayOp::*;
            vec![
                (P2pInject, 0, 0),
                (P2pReceive, 0, 0),
                (RmaPut, 0, 0),
                (RmaGet, 0, 0),
                (RmaAtomic, 0, 0),
                (FlushPerTarget, 0, 0),
                (AmDispatch, 0, 0),
            ]
        });
    }

    #[test]
    fn note_records_without_spinning() {
        let mut cfg = DelayConfig::free();
        cfg.flush_per_target = OpCost { base_ns: 1e12, ..OpCost::FREE }; // would spin ~17 min if charged
        let d = Delays::new(cfg);
        let ns = d.note(DelayOp::FlushPerTarget, 0);
        assert_eq!(ns, 1e12);
        assert_eq!(d.meter().count(DelayOp::FlushPerTarget), 1);
        assert_eq!(d.meter().modeled_ns(DelayOp::FlushPerTarget), 1_000_000_000_000);
    }
}
