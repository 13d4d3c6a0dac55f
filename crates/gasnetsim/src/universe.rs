//! GASNet job initialization (`gasnet_init` + `gasnet_attach`) and per-rank
//! library state.

use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;

use caf_fabric::coll::{self, Rounds};
use caf_fabric::delay::{DelayConfig, DelayMeter, Delays};
use caf_fabric::{
    Endpoint, Fabric, FabricError, Fault, MemAccount, MemCategory, Packet, PeerSegments, Result,
    Segment, SegmentId, Watch,
};

use crate::am::HandlerTable;

pub(crate) const KIND_AM_SHORT: u16 = 10;
pub(crate) const KIND_AM_MEDIUM: u16 = 11;
pub(crate) const KIND_AM_LONG: u16 = 12;
pub(crate) const KIND_BARRIER: u16 = 13;
pub(crate) const KIND_BOOTSTRAP: u16 = 14;

/// Shared-Receive-Queue configuration (InfiniBand conduit behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrqMode {
    /// GASNet's default: enable SRQ automatically once the job is large
    /// enough that SRQ reduces memory usage (threshold in
    /// [`GasnetConfig::srq_auto_threshold`]).
    Auto,
    /// Never use SRQ (the paper's `CAF-GASNet-NOSRQ` configuration).
    Disabled,
    /// Always use SRQ regardless of job size.
    Forced,
}

/// Configuration of one GASNet job.
#[derive(Debug, Clone, Copy)]
pub struct GasnetConfig {
    /// Software-overhead table charged per operation.
    pub delays: DelayConfig,
    /// Bytes of remotely accessible segment each rank attaches.
    pub segment_size: usize,
    /// SRQ policy.
    pub srq: SrqMode,
    /// Job size at which [`SrqMode::Auto`] switches SRQ on.
    pub srq_auto_threshold: usize,
    /// Extra nanoseconds charged on every message *reception* while SRQ is
    /// active (the slow receive path the paper identified).
    pub srq_receive_penalty_ns: f64,
    /// When set, puts of at least this many bytes are transported as long
    /// AMs and only complete once the target polls — modelling CAF
    /// implementations where "a coarray write operation may require the
    /// involvement of the target process" (paper Figure 2 discussion).
    pub put_via_am_threshold: Option<usize>,
    /// Fixed library state accounted for at init (a [`MemAccount`]
    /// number; nothing is mapped — only the segment is real memory).
    pub base_footprint: usize,
    /// Per-peer connection state accounted for at init without SRQ.
    pub per_peer_state: usize,
    /// Per-peer connection state accounted for with SRQ active (smaller —
    /// that is SRQ's purpose).
    pub per_peer_state_srq: usize,
}

impl Default for GasnetConfig {
    fn default() -> Self {
        GasnetConfig {
            delays: DelayConfig::free(),
            segment_size: 4 << 20,
            srq: SrqMode::Auto,
            srq_auto_threshold: 128,
            srq_receive_penalty_ns: 0.0,
            put_via_am_threshold: None,
            // Scaled-down stand-ins; full-scale Figure-1 magnitudes live in
            // the netmodel crate. GASNet maps far less than MPI.
            base_footprint: 256 << 10,
            per_peer_state: 4 << 10,
            per_peer_state_srq: 1 << 10,
        }
    }
}

/// Launcher for SPMD jobs over the GASNet substrate.
pub struct GasnetUniverse;

impl GasnetUniverse {
    /// Run `f` on `size` ranks with default configuration.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Gasnet) -> T + Send + Sync,
    {
        Self::run_with_config(size, GasnetConfig::default(), f)
    }

    /// Run `f` on `size` ranks with an explicit configuration.
    pub fn run_with_config<T, F>(size: usize, config: GasnetConfig, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Gasnet) -> T + Send + Sync,
    {
        Fabric::run(size, |ep| {
            let g = Gasnet::init(ep, config);
            f(&g)
        })
    }
}

/// A rank's handle to the GASNet library. One per rank thread; not `Sync`.
pub struct Gasnet {
    pub(crate) ep: Endpoint,
    pub(crate) fault: Fault,
    pub(crate) config: GasnetConfig,
    pub(crate) delays: Delays,
    pub(crate) srq_active: bool,
    pub(crate) mem: Arc<MemAccount>,
    pub(crate) seg_ids: Vec<SegmentId>,
    /// The peers' segments this rank has touched.
    pub(crate) peers: PeerSegments,
    pub(crate) local: Arc<Segment>,
    pub(crate) handlers: HandlerTable,
    /// AM-mediated put acknowledgement counters (see `rma::put`).
    pub(crate) put_acks_expected: Cell<u64>,
    pub(crate) put_acks_received: Cell<u64>,
}

impl Gasnet {
    /// `gasnet_init` + `gasnet_attach`: allocate and exchange segments,
    /// build library state.
    pub fn init(ep: Endpoint, config: GasnetConfig) -> Self {
        let size = ep.size();
        let rank = ep.rank();
        let srq_active = match config.srq {
            SrqMode::Auto => size >= config.srq_auto_threshold,
            SrqMode::Disabled => false,
            SrqMode::Forced => true,
        };

        let mem = Arc::new(MemAccount::new());
        let per_peer = if srq_active {
            config.per_peer_state_srq
        } else {
            config.per_peer_state
        };
        mem.map(MemCategory::SegmentMeta, config.base_footprint / 2);
        mem.map(MemCategory::Matching, config.base_footprint / 2);
        mem.map(MemCategory::PerPeerState, per_peer * size);
        mem.map(MemCategory::UserData, config.segment_size);

        // Attach the segment and bootstrap-exchange (id, size) with every
        // peer over raw fabric packets (GASNet bootstraps out-of-band);
        // the ids are what the library keeps.
        let id = ep.register_segment(Segment::new(config.segment_size));
        let local = ep.segment(id).expect("just registered");
        for peer in 0..size {
            if peer != rank {
                ep.send(
                    peer,
                    Packet::control(
                        rank,
                        KIND_BOOTSTRAP,
                        0,
                        [id.0, config.segment_size as u64, 0, 0],
                    ),
                )
                .expect("bootstrap send");
            }
        }
        let mut seg_ids = vec![SegmentId(0); size];
        seg_ids[rank] = id;
        let fault = ep.fault();
        let mut have = vec![false; size];
        have[rank] = true;
        let mut missing = size - 1;
        // A peer that died before (or while) bootstrapping will never send
        // its segment id; count it as resolved with a dead zero-sized
        // segment rather than hang the exchange. The registry is read on
        // entry and again only after an `ImageFailed` wake (a death is
        // marked before its notices go out, so none is missed) — not
        // after every packet, which at P peers is P² flag loads per rank.
        let resolve_dead = |have: &mut [bool], missing: &mut usize| {
            for (peer, h) in have.iter_mut().enumerate() {
                if !*h && fault.is_failed(peer) {
                    *h = true;
                    *missing -= 1;
                }
            }
        };
        resolve_dead(&mut have, &mut missing);
        while missing > 0 {
            match ep.recv_blocking() {
                Ok(pkt) if pkt.kind == KIND_BOOTSTRAP => {
                    seg_ids[pkt.src] = SegmentId(pkt.h[0]);
                    if !std::mem::replace(&mut have[pkt.src], true) {
                        missing -= 1;
                    }
                }
                Ok(pkt) => ep.stash(pkt),
                Err(FabricError::ImageFailed { .. }) => resolve_dead(&mut have, &mut missing),
                Err(e) => panic!("bootstrap recv: {e}"),
            }
        }

        Gasnet {
            ep,
            fault,
            delays: Delays::new(config.delays),
            config,
            srq_active,
            mem,
            seg_ids,
            peers: PeerSegments::new(size),
            local,
            handlers: HandlerTable::with_reserved(),
            put_acks_expected: Cell::new(0),
            put_acks_received: Cell::new(0),
        }
    }

    /// This rank's id (`gasnet_mynode`).
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// Job size (`gasnet_nodes`).
    pub fn size(&self) -> usize {
        self.ep.size()
    }

    /// True when the SRQ slow path is active for this job.
    pub fn srq_active(&self) -> bool {
        self.srq_active
    }

    /// Handle onto the fabric's failure registry.
    pub fn fault(&self) -> &Fault {
        &self.fault
    }

    /// Kill this rank here (fault injection / `fail image`).
    pub fn fail_now(&self) -> ! {
        self.ep.fail_now()
    }

    /// The memory accountant for this rank's library instance.
    pub fn mem(&self) -> &MemAccount {
        &self.mem
    }

    /// The modeled-cost ledger for this rank (counts and modeled
    /// nanoseconds per [`caf_fabric::DelayOp`]); deterministic across runs.
    pub fn delay_meter(&self) -> &DelayMeter {
        self.delays.meter()
    }

    /// Extra reception cost while SRQ is active, in nanoseconds.
    pub(crate) fn srq_penalty_ns(&self) -> f64 {
        if self.srq_active {
            self.config.srq_receive_penalty_ns
        } else {
            0.0
        }
    }

    /// Dissemination barrier (`gasnet_barrier_notify` + `_wait`, fused):
    /// the shared rounds of [`coll::barrier`] over barrier packets. Polls
    /// AMs while waiting, as GASNet's barrier does.
    ///
    /// # Panics
    ///
    /// Panics if an image has failed.
    pub fn barrier(&self) {
        let _span = caf_trace::span(caf_trace::Op::GasnetBarrier);
        coll::barrier(self).expect("barrier: partner image failed");
    }

    /// What a packet meets that no wait is matching, in a poll or a
    /// blocking call: an AM runs its handler, anything else goes back to
    /// be stashed for its blocking consumer.
    #[inline]
    pub(crate) fn dispatch_or_keep(&self, pkt: Packet) -> Option<Packet> {
        if self.is_am(&pkt) {
            self.dispatch_am(pkt);
            None
        } else {
            Some(pkt)
        }
    }

    pub(crate) fn is_am(&self, pkt: &Packet) -> bool {
        matches!(pkt.kind, KIND_AM_SHORT | KIND_AM_MEDIUM | KIND_AM_LONG)
    }

    /// Block until an AM packet arrives, *without* dispatching it;
    /// unrelated packets are stashed for their blocking consumers.
    ///
    /// Exposed for runtimes layered on GASNet whose blocking waits (e.g. a
    /// CAF `event_wait`) must drive AM progress themselves.
    pub fn wait_am_packet(&self) -> Packet {
        self.wait_am_packet_watching(Watch::Ranks(&[]))
            .expect("unconditional wait cannot fail")
    }

    /// Like [`Gasnet::wait_am_packet`] but returns
    /// [`FabricError::ImageFailed`] if any image in `watch` is marked
    /// failed — the hook a layered runtime's blocking waits (e.g. CAF
    /// `event_wait`) use to survive partner death.
    pub fn wait_am_packet_watching(&self, watch: Watch<'_>) -> Result<Packet> {
        self.ep.match_blocking(watch, |p| self.is_am(p), Some)
    }

    /// Dispatch one packet previously returned by
    /// [`Gasnet::wait_am_packet`], invoking its handler.
    pub fn dispatch_packet(&self, pkt: Packet) {
        assert!(self.is_am(&pkt), "dispatch_packet on a non-AM packet");
        self.dispatch_am(pkt);
    }
}

/// Barrier rounds over `KIND_BARRIER` packets. They carry no sequence
/// number: a peer sends its round-k packets in barrier order and the
/// fabric is FIFO per pair, so the oldest match is this barrier's.
impl Rounds for Gasnet {
    type Buf = Bytes;

    fn n(&self) -> usize {
        self.size()
    }

    fn me(&self) -> usize {
        self.rank()
    }

    fn failed(&self) -> Vec<usize> {
        self.fault.failed_of(Watch::All)
    }

    fn send(&self, to: usize, round: u32, bytes: &[u8]) -> Result<()> {
        let h = [u64::from(round), 0, 0, 0];
        let payload = Bytes::copy_from_slice(bytes);
        self.ep
            .send(to, Packet::with_payload(self.rank(), KIND_BARRIER, 0, h, payload))
    }

    fn recv(&self, from: usize, round: u32) -> Result<Bytes> {
        // A round waits on exactly one peer: name it so model deadlock
        // reports carry the wait-for edge. Failure detection watches the
        // whole job: a dissemination barrier hangs if *any* rank dies.
        let _hint = caf_fabric::sched::wait_hint(from);
        let pred = |p: &Packet| {
            p.kind == KIND_BARRIER && p.src == from && p.h[0] == u64::from(round)
        };
        let other = |pkt| self.dispatch_or_keep(pkt);
        Ok(self.ep.match_blocking(Watch::All, pred, other)?.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_exchanges_segments() {
        // Every rank resolves every peer's segment: its word of each lands.
        let res = GasnetUniverse::run(4, |g| {
            (0..4).for_each(|t| g.put(t, 8 * g.rank(), &[g.rank() as u64 + 1]).unwrap());
            g.barrier();
            let mut words = [0u64; 4];
            g.read_local(0, &mut words).unwrap();
            words
        });
        assert_eq!(res, vec![[1, 2, 3, 4]; 4]);
    }

    #[test]
    fn srq_auto_threshold_applies() {
        let cfg = GasnetConfig {
            srq_auto_threshold: 4,
            ..GasnetConfig::default()
        };
        let small = GasnetUniverse::run_with_config(2, cfg, |g| g.srq_active());
        let large = GasnetUniverse::run_with_config(4, cfg, |g| g.srq_active());
        assert!(!small[0]);
        assert!(large[0]);
    }

    #[test]
    fn srq_reduces_per_peer_memory() {
        let base = GasnetConfig {
            srq_auto_threshold: 4,
            ..GasnetConfig::default()
        };
        let on = GasnetUniverse::run_with_config(4, base, |g| {
            g.mem().mapped(MemCategory::PerPeerState)
        })[0];
        let off = GasnetUniverse::run_with_config(
            4,
            GasnetConfig {
                srq: SrqMode::Disabled,
                ..base
            },
            |g| g.mem().mapped(MemCategory::PerPeerState),
        )[0];
        assert!(on < off, "SRQ must reduce per-peer memory: {on} !< {off}");
    }

    #[test]
    fn gasnet_overhead_smaller_than_mpi_default() {
        // The Figure-1 premise: GASNet maps less runtime memory than MPI.
        let g = GasnetUniverse::run(4, |g| g.mem().runtime_overhead())[0];
        let m = caf_mpisim::Universe::run(4, |m| m.mem().runtime_overhead())[0];
        assert!(g < m, "GASNet {g} must be below MPI {m}");
    }

    #[test]
    fn barrier_completes_repeatedly() {
        for n in [1usize, 2, 3, 8] {
            GasnetUniverse::run(n, |g| {
                for _ in 0..5 {
                    g.barrier();
                }
            });
        }
    }
}
