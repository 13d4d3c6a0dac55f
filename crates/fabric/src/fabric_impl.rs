//! The [`Fabric`] itself: job construction, endpoints, and the segment
//! registry.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use parking_lot::RwLock;

use crate::delay::DelayConfig;
use crate::error::FabricError;
use crate::fault::{Fault, FaultPlan, FaultState, ImageKilled, Watch, KIND_FAULT};
use crate::packet::Packet;
use crate::segment::{Segment, SegmentId};
use crate::Result;

/// Construction-time options for a [`Fabric`].
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// A default delay model, available to substrates via
    /// [`Endpoint::default_delays`]. Substrates with substrate-specific cost
    /// tables (the normal case) carry their own [`DelayConfig`] instead.
    pub delays: DelayConfig,
    /// Number of independent mailbox *planes* per rank. Each communication
    /// library instance owns one plane, so two runtimes (e.g. GASNet and
    /// MPI in the paper's duplicate-runtimes scenario) can coexist on the
    /// same rank without seeing each other's traffic. Default 1.
    pub planes: usize,
    /// How ranks execute: one OS thread each (`Threads`, the
    /// paper-faithful default) or as caf-sched tasks sharing a few run
    /// slots (`Tasks`), which is what makes P=1024 jobs executable. Under
    /// `Tasks` every blocking receive below parks cooperatively instead
    /// of sleeping on its slot.
    pub exec: caf_sched::ExecConfig,
    /// Deterministic fault schedule (default: nobody dies). See
    /// [`FaultPlan`].
    pub fault: FaultPlan,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            delays: DelayConfig::free(),
            planes: 1,
            exec: caf_sched::ExecConfig::default(),
            fault: FaultPlan::none(),
        }
    }
}

struct Shared {
    n: usize,
    /// Senders indexed `plane * n + rank`.
    senders: Vec<Sender<Packet>>,
    segments: RwLock<HashMap<u64, Arc<Segment>>>,
    next_segment: AtomicU64,
    config: FabricConfig,
    /// Per-job failure registry (never process-global: concurrent jobs
    /// must not observe each other's failures).
    fault: Arc<FaultState>,
}

/// The launcher of parallel jobs: `n` ranks wired together by mailboxes
/// and a shared segment registry.
pub struct Fabric;

impl Fabric {
    /// SPMD convenience launcher: run `f` on `size` ranks with their
    /// endpoints and return the per-rank results in rank order.
    ///
    /// A panic in any rank aborts the job (the fail-stop behaviour of an
    /// MPI job) and is re-raised here; see [`Fabric::launch`].
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Endpoint) -> T + Send + Sync,
    {
        Self::run_with_config(size, FabricConfig::default(), f)
    }

    /// As [`Fabric::run`], with an explicit configuration.
    pub fn run_with_config<T, F>(size: usize, config: FabricConfig, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Endpoint) -> T + Send + Sync,
    {
        Self::run_with_config_ft(size, config, f)
            .into_iter()
            .map(|r| r.expect("rank killed by fault injection (use run_with_config_ft)"))
            .collect()
    }

    /// Fault-tolerant launcher: as [`Fabric::run_with_config`], but a
    /// rank killed by the fault plan yields `None` instead of aborting
    /// the job. Panics that are *not* injected deaths still propagate.
    pub fn run_with_config_ft<T, F>(size: usize, config: FabricConfig, f: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(Endpoint) -> T + Send + Sync,
    {
        Self::launch(size, config, |planes| f(planes.into_iter().next().expect("plane 0")))
    }

    /// The launcher every job goes through: run `f` on `size` ranks, each
    /// handed its endpoints on every plane in plane order, and return the
    /// per-rank results in rank order — `None` for a rank killed by fault
    /// injection.
    ///
    /// Every rank runs inside the launching thread's scope
    /// (`caf_trace::scope`): a trace session, check session or model gate
    /// armed there sees the job, and a job launched from anywhere else
    /// does not. Ranks register with an armed gate before `f` runs.
    ///
    /// # Panics
    ///
    /// Re-raises, once every rank has returned, the payload of the first
    /// rank to panic on its own (not an injected death) — usually the
    /// cause, where the lowest failing rank is usually a partner reporting
    /// it.
    pub fn launch<T, F>(size: usize, config: FabricConfig, f: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(Vec<Endpoint>) -> T + Send + Sync,
    {
        assert!(size > 0, "fabric must have at least one rank");
        assert!(config.planes > 0, "fabric must have at least one plane");
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..size * config.planes).map(|_| channel::unbounded()).unzip();
        let shared = Arc::new(Shared {
            n: size,
            senders,
            segments: RwLock::new(HashMap::new()),
            next_segment: AtomicU64::new(1),
            config,
            fault: Arc::new(FaultState::new(size, config.fault)),
        });
        // Mailbox `plane * size + rank` is rank's on that plane.
        let mut planes: Vec<Vec<Endpoint>> = (0..size).map(|_| Vec::new()).collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let (rank, plane) = (i % size, i / size);
            planes[rank].push(Endpoint {
                rank,
                plane,
                fault: Fault::new(Arc::clone(&shared.fault), rank),
                shared: Arc::clone(&shared),
                rx,
                stash: RefCell::new(VecDeque::new()),
            });
        }
        // Hand each rank its endpoints through a take-once slot: the
        // executor invokes `Fn(rank)`, so by-value per-rank state travels
        // via its rank index. Task id == rank is a caf-sched invariant,
        // which is also what lets `Endpoint::send` translate a
        // destination rank into an `unpark`.
        let slots: Vec<std::sync::Mutex<Option<Vec<Endpoint>>>> =
            planes.into_iter().map(|p| std::sync::Mutex::new(Some(p))).collect();
        let scope = caf_trace::Scope::current();
        let f = &f;
        let mut results = caf_sched::run(size, &config.exec, move |rank| {
            let _scope = scope.enter();
            let planes = slots[rank]
                .lock()
                .expect("no rank panics holding its slot")
                .take()
                .expect("endpoint slot taken twice");
            let _model = crate::sched::register_thread(rank);
            f(planes)
        });
        // A job that saw a panic unwinds below, so its result order no
        // longer matters: bring the first panic to the front. (A job
        // whose ranks all returned never consults the registry.)
        if results.iter().any(|r| r.is_err()) {
            if let Some(first) = shared.fault.first_panic() {
                results.swap(0, first);
            }
        }
        results
            .into_iter()
            .map(|r| match r {
                Ok(v) => Some(v),
                Err(e) if e.downcast_ref::<ImageKilled>().is_some() => None,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    }
}

/// A rank's handle to the fabric: its mailbox plus the shared registries.
pub struct Endpoint {
    rank: usize,
    plane: usize,
    fault: Fault,
    shared: Arc<Shared>,
    rx: Receiver<Packet>,
    /// Packets pulled off the mailbox ahead of the receive that wants
    /// them (MPI's unexpected-message queue), in arrival order.
    stash: RefCell<VecDeque<Packet>>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.shared.n)
            .finish()
    }
}

impl Endpoint {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Job size.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// The fabric-level default delay model.
    pub fn default_delays(&self) -> &DelayConfig {
        &self.shared.config.delays
    }

    /// Mailbox plane this endpoint lives on.
    pub fn plane(&self) -> usize {
        self.plane
    }

    /// Cloneable handle onto this fabric's failure registry.
    pub fn fault(&self) -> Fault {
        self.fault.clone()
    }

    /// Kill this image here: announce the death to the model gate, mark
    /// the registry, broadcast one failure notice to every rank on every
    /// plane (when the plan detects), then unwind with [`ImageKilled`].
    ///
    /// The registry is marked *before* any notice is sent, so a rank that
    /// consumed a notice — or merely re-checks the registry — always
    /// observes the failure (perfect-detector consistency).
    pub fn fail_now(&self) -> ! {
        let me = self.rank;
        if crate::sched::active() {
            crate::sched::yield_op(crate::sched::ModelOp::Fail { rank: me });
        }
        if caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::ImageFailed, Some(me), me as u64, None);
        }
        if self.shared.config.fault.detect {
            self.publish_death();
        }
        crate::sched::set_fault_dying();
        // Injected deaths are expected: silence the default panic hook's
        // backtrace for `ImageKilled` payloads (installed once, chaining
        // the previous hook for every real panic).
        static SILENCER: std::sync::Once = std::sync::Once::new();
        SILENCER.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<ImageKilled>().is_none() {
                    prev(info);
                }
            }));
        });
        std::panic::panic_any(ImageKilled { rank: me })
    }

    /// Mark this rank failed in the registry, then send one failure
    /// notice to every rank on every plane.
    fn publish_death(&self) {
        let me = self.rank;
        self.fault.mark_failed(me);
        for plane in 0..self.shared.config.planes {
            for r in 0..self.shared.n {
                if r == me {
                    continue;
                }
                let pkt = Packet::control(me, KIND_FAULT, me as i64, [0; 4]);
                let _ = self.shared.senders[plane * self.shared.n + r].send(pkt);
            }
        }
        // Survivors parked in cooperative receive loops re-poll and find
        // the notice; OS-blocked receivers are woken by the packet itself;
        // model-blocked threads by the Fail op of `fail_now`.
        caf_sched::unpark_all();
    }

    /// Blocking-point bookkeeping for the fault plan: counts this entry
    /// and dies here when this is the planned kill site.
    fn fault_blocking_point(&self) {
        if self.shared.config.fault.is_empty() {
            return;
        }
        if self.fault.blocking_hit() {
            self.fail_now();
        }
    }

    /// Pass a data packet through, tracing its delivery; `None` for a
    /// failure notice.
    fn data(&self, pkt: Packet) -> Option<Packet> {
        if pkt.kind == KIND_FAULT {
            return None;
        }
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::PacketDeliver,
                Some(pkt.src),
                pkt.wire_size() as u64,
                None,
            );
        }
        Some(pkt)
    }

    /// Turn a failure notice into the error every blocking partner set
    /// must observe; pass data packets through.
    fn screen(&self, pkt: Packet) -> Result<Packet> {
        self.data(pkt).ok_or_else(|| FabricError::ImageFailed {
            failed: self.fault.failed_set(),
        })
    }

    /// Deliver `pkt` to `to`'s mailbox on this endpoint's plane. FIFO per
    /// (sender, receiver) pair; the hand-off is a release/acquire edge.
    pub fn send(&self, to: usize, pkt: Packet) -> Result<()> {
        if to >= self.shared.n {
            return Err(FabricError::RankOutOfRange {
                rank: to,
                size: self.shared.n,
            });
        }
        if self.fault.is_failed(to) {
            // A failed image consumes nothing: its in-flight traffic is
            // dropped at injection so dead mailboxes stay bounded.
            return Ok(());
        }
        if crate::sched::active() {
            crate::sched::yield_op(crate::sched::ModelOp::Send {
                plane: self.plane,
                to,
            });
        }
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::PacketInject,
                Some(to),
                pkt.wire_size() as u64,
                None,
            );
        }
        let tx = &self.shared.senders[self.plane * self.shared.n + to];
        if tx.send(pkt).is_err() {
            // The destination's receiver is gone, which only happens when
            // that image's thread already unwound from a kill (the
            // registry check above can race the death: under the model
            // the peer may die while this send is parked at its
            // scheduling decision). Same policy as a registered failure:
            // the packet is dropped at injection.
            return Ok(());
        }
        // Under ExecMode::Tasks the destination image may be parked in
        // one of the cooperative receive loops below; hand it a permit.
        // No-op on plain OS threads (and for wakeups that race the park —
        // the permit is banked, see caf-sched).
        caf_sched::unpark(to);
        Ok(())
    }

    fn model_recv_op(&self) -> crate::sched::ModelOp {
        crate::sched::ModelOp::Recv {
            plane: self.plane,
            rank: self.rank,
        }
    }

    /// Non-blocking poll of this rank's mailbox. Failure notices are
    /// swallowed: the registry already records the death, and only
    /// [`Endpoint::recv_blocking`] surfaces it as an error.
    pub fn try_recv(&self) -> Option<Packet> {
        if crate::sched::active() {
            crate::sched::yield_op(self.model_recv_op());
        }
        loop {
            if let Some(pkt) = self.data(self.rx.try_recv().ok()?) {
                return Some(pkt);
            }
        }
    }

    /// Block until a packet arrives. Returns
    /// [`FabricError::ImageFailed`] when a failure notice is delivered
    /// instead of data.
    pub fn recv_blocking(&self) -> Result<Packet> {
        self.fault_blocking_point();
        if crate::sched::active() {
            // Announce, then retry under the gate: the scheduler reruns us
            // only after another image makes progress, and reports a
            // wait-for edge if no image ever can.
            let pkt =
                crate::sched::model_blocking(self.model_recv_op(), || self.rx.try_recv().ok());
            return self.screen(pkt);
        }
        if caf_sched::on_task() {
            // Cooperative form of the blocking receive: park the task
            // (giving up its run slot) until a sender's unpark re-runs
            // the poll. OS-blocking here would sleep on the slot and,
            // with more images than slots, deadlock the job.
            loop {
                match self.rx.try_recv() {
                    Ok(pkt) => return self.screen(pkt),
                    Err(TryRecvError::Empty) => caf_sched::park(),
                    Err(TryRecvError::Disconnected) => return Err(FabricError::Disconnected),
                }
            }
        }
        let pkt = self.rx.recv().map_err(|_| FabricError::Disconnected)?;
        self.screen(pkt)
    }

    /// Keep `pkt` for a later matching receive.
    #[inline]
    pub fn stash(&self, pkt: Packet) {
        self.stash.borrow_mut().push_back(pkt);
    }

    /// Remove the oldest stashed packet satisfying `pred`.
    #[inline]
    fn take_stashed(&self, pred: &impl Fn(&Packet) -> bool) -> Option<Packet> {
        let mut q = self.stash.borrow_mut();
        let pos = q.iter().position(pred)?;
        q.remove(pos)
    }

    /// Pull delivered packets until one satisfies `pred`. Each of the
    /// others meets `other`, which either consumes it (GASNet runs an AM
    /// handler) or hands it back to be stashed. The stash is not borrowed
    /// while `other` runs: a handler may poll and re-enter here.
    #[inline]
    fn drain_match(
        &self,
        pred: &impl Fn(&Packet) -> bool,
        other: &mut impl FnMut(Packet) -> Option<Packet>,
    ) -> Option<Packet> {
        while let Some(pkt) = self.try_recv() {
            if pred(&pkt) {
                return Some(pkt);
            }
            if let Some(pkt) = other(pkt) {
                self.stash(pkt);
            }
        }
        None
    }

    /// Non-blocking matching receive: the oldest stashed packet
    /// satisfying `pred`, else the first such packet already delivered
    /// (see [`Endpoint::match_blocking`] for `other`).
    #[inline]
    pub fn try_match(
        &self,
        pred: impl Fn(&Packet) -> bool,
        mut other: impl FnMut(Packet) -> Option<Packet>,
    ) -> Option<Packet> {
        self.take_stashed(&pred)
            .or_else(|| self.drain_match(&pred, &mut other))
    }

    /// Blocking matching receive: the first packet, in arrival order,
    /// satisfying `pred`. A non-matching packet is given to `other`, which
    /// returns it to have it stashed (`Some`, for MPI's matching) or
    /// consumes it (GASNet dispatches AMs while it waits).
    ///
    /// `watch` is the partner set the wait depends on; if one of them is
    /// marked failed the wait returns [`FabricError::ImageFailed`] instead
    /// of hanging. Three rules order data against deaths, all of them here:
    ///
    /// 1. A stashed match wins, even if its sender has since died.
    /// 2. Everything already delivered is drained *before* the failure
    ///    registry is consulted. Sends inject synchronously, so what a
    ///    rank sent before dying sits in the mailbox ahead of its failure
    ///    notice; that data must win, or an exchange the dead rank fully
    ///    took part in would fail on its survivors.
    /// 3. A notice for a rank outside `watch` is not this wait's to
    ///    report: it re-loops. The registry is authoritative (marked
    ///    before any notice is sent), so checking it every time round also
    ///    covers notices that other waits consumed.
    ///
    /// # Panics
    ///
    /// Panics if the fabric is torn down under the wait.
    #[inline]
    pub fn match_blocking(
        &self,
        watch: Watch<'_>,
        pred: impl Fn(&Packet) -> bool,
        mut other: impl FnMut(Packet) -> Option<Packet>,
    ) -> Result<Packet> {
        if let Some(pkt) = self.take_stashed(&pred) {
            return Ok(pkt);
        }
        loop {
            if let Some(pkt) = self.drain_match(&pred, &mut other) {
                return Ok(pkt);
            }
            let failed = self.fault.failed_of(watch);
            if !failed.is_empty() {
                return Err(FabricError::ImageFailed { failed });
            }
            match self.recv_blocking() {
                Ok(pkt) if pred(&pkt) => return Ok(pkt),
                Ok(pkt) => {
                    if let Some(pkt) = other(pkt) {
                        self.stash(pkt);
                    }
                }
                Err(FabricError::ImageFailed { .. }) => {}
                Err(e) => panic!("fabric torn down while receiving: {e}"),
            }
        }
    }

    /// Register a segment, making it remotely accessible; returns its id.
    pub fn register_segment(&self, seg: Segment) -> SegmentId {
        if crate::sched::active() {
            crate::sched::yield_op(crate::sched::ModelOp::Registry);
        }
        let id = self.shared.next_segment.fetch_add(1, Ordering::Relaxed);
        self.shared.segments.write().insert(id, Arc::new(seg));
        SegmentId(id)
    }

    /// Remove a segment from the registry. Outstanding `Arc` handles keep
    /// the memory alive until the last user drops it.
    pub fn unregister_segment(&self, id: SegmentId) -> Result<()> {
        if crate::sched::active() {
            crate::sched::yield_op(crate::sched::ModelOp::Registry);
        }
        self.shared
            .segments
            .write()
            .remove(&id.0)
            .map(|_| ())
            .ok_or(FabricError::UnknownSegment(id.0))
    }

    /// Resolve a segment id (local or remote — the registry is global).
    pub fn segment(&self, id: SegmentId) -> Result<Arc<Segment>> {
        self.shared
            .segments
            .read()
            .get(&id.0)
            .cloned()
            .ok_or(FabricError::UnknownSegment(id.0))
    }
}

/// An image that unwinds from a panic of its own — not from `fail_now`'s
/// injected [`ImageKilled`] — is Fortran's `error stop`: its death is
/// published like a detected failure, so partners blocked on it unwind
/// through the existing detection instead of waiting forever.
impl Drop for Endpoint {
    fn drop(&mut self) {
        if std::thread::panicking()
            && !crate::sched::fault_dying()
            && !self.fault.is_failed(self.rank)
        {
            self.fault.note_panic();
            self.publish_death();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn ping_pong_between_two_ranks() {
        let results = Fabric::run(2, |ep| {
            if ep.rank() == 0 {
                ep.send(1, Packet::control(0, 1, 42, [0; 4])).unwrap();
                let p = ep.recv_blocking().unwrap();
                (p.src, p.tag)
            } else {
                let p = ep.recv_blocking().unwrap();
                assert_eq!(p.tag, 42);
                ep.send(0, Packet::control(1, 1, 43, [0; 4])).unwrap();
                (p.src, p.tag)
            }
        });
        assert_eq!(results, vec![(1, 43), (0, 42)]);
    }

    #[test]
    fn fifo_per_pair() {
        let results = Fabric::run(2, |ep| {
            if ep.rank() == 0 {
                for i in 0..100 {
                    ep.send(1, Packet::control(0, 0, i, [0; 4])).unwrap();
                }
                Vec::new()
            } else {
                (0..100).map(|_| ep.recv_blocking().unwrap().tag).collect()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn payload_travels_intact() {
        let results = Fabric::run(2, |ep| {
            if ep.rank() == 0 {
                let data = Bytes::from((0..=255u8).collect::<Vec<u8>>());
                ep.send(1, Packet::with_payload(0, 0, 0, [0; 4], data))
                    .unwrap();
                0usize
            } else {
                let p = ep.recv_blocking().unwrap();
                p.payload.iter().map(|&b| b as usize).sum()
            }
        });
        assert_eq!(results[1], (0..=255usize).sum::<usize>());
    }

    #[test]
    fn remote_segment_access_without_owner_involvement() {
        // Rank 0 registers a segment and parks; rank 1 writes it directly.
        let results = Fabric::run(2, |ep| {
            if ep.rank() == 0 {
                let id = ep.register_segment(Segment::new(64));
                ep.send(1, Packet::control(0, 0, id.0 as i64, [0; 4]))
                    .unwrap();
                // Owner thread does nothing else until the writer confirms.
                let _ = ep.recv_blocking().unwrap();
                let seg = ep.segment(id).unwrap();
                seg.load_u64(0).unwrap()
            } else {
                let p = ep.recv_blocking().unwrap();
                let id = SegmentId(p.tag as u64);
                let seg = ep.segment(id).unwrap();
                seg.store_u64(0, 0xdead_beef).unwrap();
                ep.send(0, Packet::control(1, 0, 0, [0; 4])).unwrap();
                0
            }
        });
        assert_eq!(results[0], 0xdead_beef);
    }

    #[test]
    fn unknown_segment_is_an_error() {
        Fabric::run(1, |ep| {
            assert!(matches!(
                ep.segment(SegmentId(999)),
                Err(FabricError::UnknownSegment(999))
            ));
        });
    }

    #[test]
    fn unregister_removes_id_but_keeps_live_handles() {
        Fabric::run(1, |ep| {
            let id = ep.register_segment(Segment::new(8));
            let handle = ep.segment(id).unwrap();
            ep.unregister_segment(id).unwrap();
            assert!(ep.segment(id).is_err());
            handle.store_u64(0, 5).unwrap(); // still usable
            assert!(ep.unregister_segment(id).is_err());
        });
    }

    #[test]
    fn send_to_bad_rank_errors() {
        Fabric::run(1, |ep| {
            assert!(matches!(
                ep.send(7, Packet::control(0, 0, 0, [0; 4])),
                Err(FabricError::RankOutOfRange { rank: 7, size: 1 })
            ));
        });
    }

    #[test]
    fn run_returns_rank_ordered_results() {
        let results = Fabric::run(8, |ep| ep.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    fn tagged(tag: i64) -> impl Fn(&Packet) -> bool {
        move |p| p.tag == tag
    }

    fn wait_until_failed(ep: &Endpoint, rank: usize) {
        while !ep.fault().is_failed(rank) {
            std::thread::yield_now();
        }
    }

    /// Rule 1 of [`Endpoint::match_blocking`].
    #[test]
    fn stashed_match_is_returned_although_its_sender_has_died() {
        Fabric::run_with_config_ft(2, FabricConfig::default(), |ep| {
            if ep.rank() == 1 {
                ep.send(0, Packet::control(1, 0, 1, [0; 4])).unwrap();
                ep.send(0, Packet::control(1, 0, 2, [0; 4])).unwrap();
                ep.fail_now();
            }
            // Matching tag 2 stashes tag 1; the next wait can only end on
            // the death.
            assert_eq!(ep.match_blocking(Watch::All, tagged(2), Some).unwrap().tag, 2);
            let err = ep.match_blocking(Watch::All, tagged(3), Some).unwrap_err();
            assert!(matches!(err, FabricError::ImageFailed { failed } if failed == [1]));
            assert_eq!(ep.match_blocking(Watch::All, tagged(1), Some).unwrap().tag, 1);
            assert!(ep.try_match(tagged(1), Some).is_none());
        });
    }

    /// Rule 2: the mailbox holds data then notice, the registry is marked.
    #[test]
    fn data_injected_before_a_death_wins_over_the_notice() {
        Fabric::run_with_config_ft(2, FabricConfig::default(), |ep| {
            if ep.rank() == 1 {
                ep.send(0, Packet::control(1, 0, 7, [0; 4])).unwrap();
                ep.fail_now();
            }
            wait_until_failed(&ep, 1);
            assert_eq!(ep.match_blocking(Watch::All, tagged(7), Some).unwrap().tag, 7);
            assert!(ep.match_blocking(Watch::Ranks(&[1]), tagged(7), Some).is_err());
        });
    }

    /// Rule 3: rank 2 dies while rank 0 waits on rank 1 alone.
    #[test]
    fn notice_for_a_rank_outside_watch_does_not_end_the_wait() {
        Fabric::run_with_config_ft(3, FabricConfig::default(), |ep| match ep.rank() {
            0 => {
                let pkt = ep.match_blocking(Watch::Ranks(&[1]), tagged(5), Some);
                assert_eq!(pkt.unwrap().src, 1);
                assert!(ep.fault().is_failed(2));
            }
            1 => {
                wait_until_failed(&ep, 2);
                ep.send(0, Packet::control(1, 0, 5, [0; 4])).unwrap();
            }
            _ => ep.fail_now(),
        });
    }
}
