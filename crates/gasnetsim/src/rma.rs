//! GASNet one-sided put/get on registered segments.
//!
//! Gets and (by default) puts are pure RDMA: they access the remote segment
//! directly with no involvement of the target thread, at a lower
//! per-operation cost than the MPI substrate's RMA — the constant-factor
//! advantage visible in the paper's RandomAccess results at small scale.
//!
//! With [`crate::GasnetConfig::put_via_am_threshold`] set, puts of at least
//! that size are transported as long AMs and block until the target polls —
//! reproducing the class of CAF implementations for which the paper's
//! Figure 2 program deadlocks.
//!
//! Every segment operation describes itself once, as a `SegOp`, and runs
//! the single prologue `Gasnet::seg_begin` (DESIGN.md §3.1) before it
//! moves data.

use std::sync::Arc;

use caf_fabric::delay::DelayOp;
use caf_fabric::pod::{as_bytes, as_bytes_mut};
use caf_fabric::sched::{self, ModelOp};
use caf_fabric::{FabricError, Pod, Result, Segment, Watch};

use crate::am::H_PUT_ACK_REQ;
use crate::universe::Gasnet;

/// What the prologue does for one kind of segment operation.
#[derive(Debug, Clone, Copy)]
struct Kind {
    load: bool,
    trace: Option<caf_trace::Op>,
    charge: Option<DelayOp>,
}

const PUT: Kind = Kind { load: false, trace: Some(caf_trace::Op::GasnetPut), charge: Some(DelayOp::RmaPut) };
const GET: Kind = Kind { load: true, trace: Some(caf_trace::Op::GasnetGet), charge: Some(DelayOp::RmaGet) };
/// The RDMA half of a long AM: priced as a put, never traced (the AM that
/// follows is).
const DEPOSIT: Kind = Kind { load: false, trace: None, charge: Some(DelayOp::RmaPut) };
/// Plain load/store of this rank's own segment: no trace record, no cost.
const LOCAL_READ: Kind = Kind { load: true, trace: None, charge: None };
const LOCAL_WRITE: Kind = Kind { load: false, trace: None, charge: None };

/// One segment operation, described once.
#[derive(Debug, Clone, Copy)]
struct SegOp {
    kind: Kind,
    node: usize,
    offset: usize,
    /// Payload bytes.
    len: usize,
    /// Bytes a strided transfer covers at the target, gaps included
    /// (`None`: contiguous, covers `len`). Strided transfers leave no
    /// trace record, as on the MPI substrate.
    span: Option<usize>,
}

impl SegOp {
    fn new(kind: Kind, node: usize, offset: usize, len: usize) -> Self {
        SegOp { kind, node, offset, len, span: None }
    }

    /// A VIS-style strided transfer: element `i` of `buf` lives at
    /// `offset + i·stride_elems·size_of::<T>()`.
    fn strided<T>(kind: Kind, node: usize, offset: usize, stride_elems: usize, buf: &[T]) -> Self {
        let span = buf.len() * stride_elems.max(1) * std::mem::size_of::<T>();
        SegOp { span: Some(span), ..Self::new(kind, node, offset, std::mem::size_of_val(buf)) }
    }
}

impl Gasnet {
    /// Direct handle to this rank's attached segment.
    pub fn local_segment(&self) -> &Arc<Segment> {
        &self.local
    }

    /// The prologue of every segment operation, in one fixed order
    /// (DESIGN.md §3.1): fault screen, model `announce`, segment
    /// resolution, trace record, `DelayMeter` charge. GASNet segment ids
    /// occupy the low half of the model's region namespace (MPI window
    /// ids carry the high bit).
    ///
    /// `Ok(None)` means the target image is dead and the operation is a
    /// store: its data can never be observed, so it is dropped and
    /// completes locally (never blocks). A load from a dead image has
    /// nowhere to take its value from and fails.
    ///
    /// Always inlined: every caller passes a constant `kind`, so each
    /// operation compiles to the steps it takes and nothing else.
    #[inline(always)]
    fn seg_begin(&self, op: SegOp) -> Result<Option<&Segment>> {
        let SegOp { kind, node, .. } = op;
        let own = node == self.rank();
        if !own && self.fault.is_failed(node) {
            return if kind.load {
                Err(FabricError::ImageFailed { failed: vec![node] })
            } else {
                Ok(None)
            };
        }
        if sched::active() {
            let (region, owner, lo) = (self.ep.attach_id(node).0, node, op.offset as u64);
            let hi = lo + op.span.unwrap_or(op.len) as u64;
            sched::yield_op(if kind.load {
                ModelOp::Read { region, owner, lo, hi }
            } else {
                ModelOp::Write { region, owner, lo, hi }
            });
        }
        let seg = if own {
            &self.local
        } else {
            self.peers.resolve(&self.ep, node, self.ep.attach_id(node))?
        };
        if let (Some(trace_op), None) = (kind.trace, op.span) {
            if caf_trace::enabled() {
                caf_trace::instant(trace_op, Some(node), op.len as u64, None);
            }
        }
        if let Some(delay_op) = kind.charge {
            self.delays.charge(delay_op, op.len);
        }
        Ok(Some(seg))
    }

    /// Blocking put of `data` at byte `offset` in `node`'s segment
    /// (`gasnet_put`). Complete at return, both locally and remotely —
    /// unless the AM-mediated threshold applies, in which case this blocks
    /// until the target acknowledges (which requires the target to poll).
    pub fn put<T: Pod>(&self, node: usize, offset: usize, data: &[T]) -> Result<()> {
        let bytes = as_bytes(data);
        if self
            .config
            .put_via_am_threshold
            .is_some_and(|t| bytes.len() >= t)
        {
            return self.put_via_am(node, offset, bytes);
        }
        self.seg_begin(SegOp::new(PUT, node, offset, bytes.len()))?
            .map_or(Ok(()), |seg| seg.put(offset, bytes))
    }

    /// AM-mediated put: deposit via long AM, then wait for the target's
    /// acknowledgement (dispatching our own incoming AMs meanwhile).
    fn put_via_am(&self, node: usize, offset: usize, bytes: &[u8]) -> Result<()> {
        let seq = self.put_acks_expected.get() + 1;
        self.put_acks_expected.set(seq);
        // The long-AM deposit writes the data; the reserved handler at the
        // target replies with an ack once it polls.
        self.am_request_long(node, H_PUT_ACK_REQ, &[seq], bytes, offset)?;
        // This wait is the Figure-2 hazard: it completes only when `node`
        // polls, so the open span gives the stall watchdog its blocked-on
        // edge (origin image → target image).
        let _span = caf_trace::span_t(
            caf_trace::Op::AmPutAckWait,
            Some(node),
            bytes.len() as u64,
            None,
        );
        // Under the model this wait-for edge (origin → target) is what a
        // deadlock report of the Fig 2 program names.
        let _hint = caf_fabric::sched::wait_hint(node);
        while self.put_acks_received.get() < self.put_acks_expected.get() {
            match self.wait_am_packet_watching(Watch::Ranks(&[node])) {
                Ok(pkt) => self.dispatch_am(pkt),
                Err(FabricError::ImageFailed { .. }) => {
                    // The target died with the ack outstanding: it will
                    // never arrive. Forgive it (expected down to received,
                    // never the reverse — later acks must still count).
                    self.put_acks_expected.set(self.put_acks_received.get());
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The RDMA half of a long AM: write `data` at `offset` in `node`'s
    /// segment. `false` when the target is dead and nothing was written.
    pub(crate) fn deposit(&self, node: usize, offset: usize, data: &[u8]) -> Result<bool> {
        match self.seg_begin(SegOp::new(DEPOSIT, node, offset, data.len()))? {
            Some(seg) => seg.put(offset, data).map(|()| true),
            None => Ok(false),
        }
    }

    /// Blocking get from `node`'s segment (`gasnet_get`). Always direct
    /// RDMA.
    pub fn get<T: Pod>(&self, node: usize, offset: usize, out: &mut [T]) -> Result<()> {
        let bytes = as_bytes_mut(out);
        self.seg_begin(SegOp::new(GET, node, offset, bytes.len()))?
            .expect("a load is never dropped")
            .get(offset, bytes)
    }

    /// Implicit-handle put (`gasnet_put_nbi`).
    pub fn put_nbi<T: Pod>(&self, node: usize, offset: usize, data: &[T]) -> Result<()> {
        self.put(node, offset, data)
    }

    /// Complete all outstanding implicit-handle puts
    /// (`gasnet_wait_syncnbi_puts`).
    pub fn wait_syncnbi_puts(&self) {}

    /// Complete all outstanding implicit-handle operations
    /// (`gasnet_wait_syncnbi_all`).
    pub fn wait_syncnbi_all(&self) {}

    /// Strided put (`gasnet_puts` of the VIS extension): element `i` of
    /// `data` lands at `offset + i·stride_elems·size_of::<T>()`.
    pub fn put_strided<T: Pod>(
        &self,
        node: usize,
        offset: usize,
        stride_elems: usize,
        data: &[T],
    ) -> Result<()> {
        let op = SegOp::strided(PUT, node, offset, stride_elems, data);
        let Some(seg) = self.seg_begin(op)? else {
            return Ok(());
        };
        seg.put_strided(offset, stride_elems * std::mem::size_of::<T>(), data)
    }

    /// Strided get (`gasnet_gets` of the VIS extension).
    pub fn get_strided<T: Pod>(
        &self,
        node: usize,
        offset: usize,
        stride_elems: usize,
        out: &mut [T],
    ) -> Result<()> {
        let op = SegOp::strided(GET, node, offset, stride_elems, out);
        self.seg_begin(op)?
            .expect("a load is never dropped")
            .get_strided(offset, stride_elems * std::mem::size_of::<T>(), out)
    }

    /// This rank's own segment, through the prologue, as `kind`.
    #[inline(always)]
    fn own_begin(&self, kind: Kind, offset: usize, len: usize) -> Result<&Segment> {
        let op = SegOp::new(kind, self.rank(), offset, len);
        Ok(self.seg_begin(op)?.expect("an image outlives its own segment"))
    }

    /// Write into this rank's own segment.
    pub fn write_local<T: Pod>(&self, offset: usize, data: &[T]) -> Result<()> {
        let bytes = as_bytes(data);
        self.own_begin(LOCAL_WRITE, offset, bytes.len())?
            .put(offset, bytes)
    }

    /// Read from this rank's own segment.
    pub fn read_local<T: Pod>(&self, offset: usize, out: &mut [T]) -> Result<()> {
        let bytes = as_bytes_mut(out);
        self.own_begin(LOCAL_READ, offset, bytes.len())?
            .get(offset, bytes)
    }

    /// Read-modify-write one `u64` of this rank's own segment: the
    /// [`Gasnet::read_local`] + [`Gasnet::write_local`] pair as one call
    /// (same Read-then-Write announces, one bounds check). Owner-serial
    /// (see [`Segment::rmw_u64`]).
    pub fn rmw_local_u64(&self, offset: usize, f: impl FnOnce(u64) -> u64) -> Result<()> {
        self.own_begin(LOCAL_READ, offset, 8)?;
        self.own_begin(LOCAL_WRITE, offset, 8)?.rmw_u64(offset, f)
    }
}

#[cfg(test)]
mod tests {

    use crate::universe::{GasnetConfig, GasnetUniverse};

    #[test]
    fn put_get_roundtrip_between_nodes() {
        let res = GasnetUniverse::run(2, |g| {
            if g.rank() == 0 {
                g.put(1, 16, &[1.25f64, 2.5]).unwrap();
            }
            g.barrier();
            if g.rank() == 1 {
                let mut out = [0.0f64; 2];
                g.read_local(16, &mut out).unwrap();
                out[0] + out[1]
            } else {
                let mut out = [0.0f64; 2];
                g.get(1, 16, &mut out).unwrap();
                out[0] + out[1]
            }
        });
        assert_eq!(res, vec![3.75, 3.75]);
    }

    #[test]
    fn am_mediated_put_completes_when_target_polls() {
        let cfg = GasnetConfig {
            put_via_am_threshold: Some(1),
            ..GasnetConfig::default()
        };
        let res = GasnetUniverse::run_with_config(2, cfg, |g| {
            if g.rank() == 0 {
                // Blocks until rank 1 polls (inside its barrier).
                g.put(1, 0, &[0xabcdu64]).unwrap();
                g.barrier();
                0
            } else {
                g.barrier();
                let mut out = [0u64; 1];
                g.read_local(0, &mut out).unwrap();
                out[0]
            }
        });
        assert_eq!(res[1], 0xabcd);
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn am_mediated_put_stalls_without_target_polling() {
        // The Figure-2 hazard in miniature: the target never polls, so the
        // put cannot complete within the deadline.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let cfg = GasnetConfig {
            put_via_am_threshold: Some(1),
            ..GasnetConfig::default()
        };
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        GasnetUniverse::run_with_config(2, cfg, move |g| {
            if g.rank() == 0 {
                // Try the put on a watchdog: it must NOT complete while the
                // target refuses to poll.
                let started = std::time::Instant::now();
                let mut acked = false;
                let seq = g.put_acks_expected.get() + 1;
                g.put_acks_expected.set(seq);
                g.am_request_long(1, crate::am::H_PUT_ACK_REQ, &[seq], &[1u8], 0)
                    .unwrap();
                while started.elapsed() < std::time::Duration::from_millis(50) {
                    g.poll();
                    if g.put_acks_received.get() >= seq {
                        acked = true;
                        break;
                    }
                }
                assert!(!acked, "ack arrived although target never polled");
                done2.store(true, Ordering::SeqCst);
            } else {
                // Busy-wait on shared state; never calls into GASNet.
                while !done2.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            }
        });
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn strided_put_get() {
        GasnetUniverse::run(2, |g| {
            if g.rank() == 0 {
                g.put_strided(1, 0, 2, &[1.5f64, 2.5, 3.5]).unwrap();
            }
            g.barrier();
            if g.rank() == 1 {
                let mut all = [0.0f64; 6];
                g.read_local(0, &mut all).unwrap();
                assert_eq!(all, [1.5, 0.0, 2.5, 0.0, 3.5, 0.0]);
            }
            g.barrier();
            if g.rank() == 0 {
                let mut out = [0.0f64; 3];
                g.get_strided(1, 0, 2, &mut out).unwrap();
                assert_eq!(out, [1.5, 2.5, 3.5]);
            }
        });
    }

    /// A load from a failed image fails, a store to one is dropped — the
    /// same for every operation, because the screen is the prologue's.
    #[test]
    fn dead_target_fails_every_load_and_drops_every_store() {
        use caf_fabric::{Fabric, FabricConfig, FabricError};
        let res = Fabric::run_with_config_ft(2, FabricConfig::default(), |ep| {
            let g = crate::Gasnet::init(ep, GasnetConfig::default());
            // Both segments are attached and known before rank 1 dies.
            g.barrier();
            if g.rank() == 1 {
                g.fail_now();
            }
            while !g.fault().is_failed(1) {
                std::thread::yield_now();
            }
            let before = g.delay_meter().snapshot();
            let mut out = [0u64; 2];
            let loads = [
                ("get", g.get(1, 0, &mut out)),
                ("get_strided", g.get_strided(1, 0, 2, &mut out)),
            ];
            for (name, result) in loads {
                assert!(
                    matches!(&result, Err(FabricError::ImageFailed { failed }) if failed == &[1]),
                    "{name}: {result:?}"
                );
            }
            let stores = [
                ("put", g.put(1, 0, &[1u64])),
                ("put_nbi", g.put_nbi(1, 0, &[1u64])),
                ("put_strided", g.put_strided(1, 0, 2, &[1u64, 2])),
                ("am_request_long", g.am_request_long(1, 2, &[], &[1u8; 8], 0)),
            ];
            for (name, result) in stores {
                assert!(result.is_ok(), "{name}: {result:?}");
            }
            assert_eq!(g.delay_meter().snapshot(), before, "a dropped operation costs nothing");
            let mut dead = [0u8; 64];
            let seg = g.ep.segment(g.ep.attach_id(1)).unwrap();
            seg.get(0, &mut dead).unwrap();
            assert_eq!(dead, [0u8; 64], "nothing reaches the dead image's segment");
        });
        assert!(res[0].is_some() && res[1].is_none());
    }

    #[test]
    fn oob_access_is_an_error() {
        GasnetUniverse::run_with_config(
            1,
            GasnetConfig {
                segment_size: 32,
                ..GasnetConfig::default()
            },
            |g| {
                assert!(g.put(0, 30, &[1u64]).is_err());
                let mut out = [0u8; 64];
                assert!(g.get(0, 0, &mut out).is_err());
            },
        );
    }
}
