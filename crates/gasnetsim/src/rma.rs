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

use std::sync::Arc;

use caf_fabric::delay::DelayOp;
use caf_fabric::pod::{as_bytes, as_bytes_mut};
use caf_fabric::sched::{self, ModelOp};
use caf_fabric::{FabricError, Pod, Result, Segment};

use crate::am::H_PUT_ACK_REQ;
use crate::universe::Gasnet;

/// Explicit-handle completion object for `_nb` operations
/// (`gasnet_handle_t`). Operations on this substrate complete at call time,
/// so the handle certifies rather than awaits.
#[derive(Debug)]
#[must_use = "non-blocking handles must be synced"]
pub struct NbHandle(pub(crate) ());

impl NbHandle {
    /// `gasnet_wait_syncnb`.
    pub fn wait(self) {}

    /// `gasnet_try_syncnb`.
    pub fn try_sync(&self) -> bool {
        true
    }
}

/// Announce a segment operation at the model-checking gate before it
/// executes. GASNet segment ids occupy the low half of the region
/// namespace (MPI window ids carry the high bit).
fn announce(op: ModelOp) {
    if sched::active() {
        sched::yield_op(op);
    }
}

impl Gasnet {
    /// Direct handle to this rank's attached segment.
    pub fn local_segment(&self) -> &Arc<Segment> {
        &self.local
    }

    /// Blocking put of `data` at byte `offset` in `node`'s segment
    /// (`gasnet_put`). Complete at return, both locally and remotely —
    /// unless the AM-mediated threshold applies, in which case this blocks
    /// until the target acknowledges (which requires the target to poll).
    pub fn put<T: Pod>(&self, node: usize, offset: usize, data: &[T]) -> Result<()> {
        let bytes = as_bytes(data);
        if self.fault.is_failed(node) {
            // The target is dead: its data can never be observed, so the
            // put is dropped and completes locally (never blocks).
            return Ok(());
        }
        if self
            .config
            .put_via_am_threshold
            .is_some_and(|t| bytes.len() >= t)
        {
            return self.put_via_am(node, offset, bytes);
        }
        announce(ModelOp::Write {
            region: self.seg_ids[node].0,
            owner: node,
            lo: offset as u64,
            hi: offset as u64 + bytes.len() as u64,
        });
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::GasnetPut,
                Some(node),
                bytes.len() as u64,
                None,
            );
        }
        self.delays.charge(DelayOp::RmaPut, bytes.len());
        self.ep.segment(self.seg_ids[node])?.put(offset, bytes)
    }

    /// AM-mediated put: deposit via long AM, then wait for the target's
    /// acknowledgement (dispatching our own incoming AMs meanwhile).
    fn put_via_am(&self, node: usize, offset: usize, bytes: &[u8]) -> Result<()> {
        let seq = self.put_acks_expected.get() + 1;
        self.put_acks_expected.set(seq);
        // The long-AM deposit writes the data; the reserved handler at the
        // target replies with an ack once it polls.
        self.am_request_long_raw(node, H_PUT_ACK_REQ, &[seq], bytes, offset)?;
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
            match self.wait_for(&[node], |p| self.is_am(p)) {
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

    pub(crate) fn am_request_long_raw(
        &self,
        dest: usize,
        handler: usize,
        args: &[u64],
        data: &[u8],
        dest_offset: usize,
    ) -> Result<()> {
        // Internal variant of am_request_long that bypasses the user-index
        // assertion (reserved handlers are allowed here).
        announce(ModelOp::Write {
            region: self.seg_ids[dest].0,
            owner: dest,
            lo: dest_offset as u64,
            hi: dest_offset as u64 + data.len() as u64,
        });
        let seg = self.ep.segment(self.seg_ids[dest])?;
        self.delays.charge(DelayOp::RmaPut, data.len());
        seg.put(dest_offset, data)?;
        let mut buf = Vec::with_capacity(args.len() * 8);
        buf.extend_from_slice(as_bytes(args));
        self.delays.charge(DelayOp::P2pInject, 0);
        self.ep.send(
            dest,
            caf_fabric::Packet::with_payload(
                self.rank(),
                crate::universe::KIND_AM_LONG,
                handler as i64,
                [args.len() as u64, dest_offset as u64, data.len() as u64, 0],
                bytes::Bytes::from(buf),
            ),
        )
    }

    /// Blocking get from `node`'s segment (`gasnet_get`). Always direct
    /// RDMA.
    pub fn get<T: Pod>(&self, node: usize, offset: usize, out: &mut [T]) -> Result<()> {
        if self.fault.is_failed(node) {
            // Unlike a put, a get has nowhere to take its value from.
            return Err(FabricError::ImageFailed {
                failed: vec![node],
            });
        }
        let bytes_len = std::mem::size_of_val(out);
        announce(ModelOp::Read {
            region: self.seg_ids[node].0,
            owner: node,
            lo: offset as u64,
            hi: offset as u64 + bytes_len as u64,
        });
        let seg = self.ep.segment(self.seg_ids[node])?;
        let bytes = as_bytes_mut(out);
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::GasnetGet,
                Some(node),
                bytes.len() as u64,
                None,
            );
        }
        self.delays.charge(DelayOp::RmaGet, bytes.len());
        seg.get(offset, bytes)
    }

    /// Non-blocking put with an explicit handle (`gasnet_put_nb`).
    pub fn put_nb<T: Pod>(&self, node: usize, offset: usize, data: &[T]) -> Result<NbHandle> {
        self.put(node, offset, data)?;
        Ok(NbHandle(()))
    }

    /// Non-blocking get with an explicit handle (`gasnet_get_nb`).
    pub fn get_nb<T: Pod>(
        &self,
        node: usize,
        offset: usize,
        out: &mut [T],
    ) -> Result<NbHandle> {
        self.get(node, offset, out)?;
        Ok(NbHandle(()))
    }

    /// Implicit-handle put (`gasnet_put_nbi`).
    pub fn put_nbi<T: Pod>(&self, node: usize, offset: usize, data: &[T]) -> Result<()> {
        self.put(node, offset, data)
    }

    /// Implicit-handle get (`gasnet_get_nbi`).
    pub fn get_nbi<T: Pod>(&self, node: usize, offset: usize, out: &mut [T]) -> Result<()> {
        self.get(node, offset, out)
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
        let esz = std::mem::size_of::<T>();
        announce(ModelOp::Write {
            region: self.seg_ids[node].0,
            owner: node,
            lo: offset as u64,
            hi: offset as u64 + (data.len() * stride_elems.max(1) * esz) as u64,
        });
        let seg = self.ep.segment(self.seg_ids[node])?;
        self.delays
            .charge(DelayOp::RmaPut, std::mem::size_of_val(data));
        for (i, v) in data.iter().enumerate() {
            seg.put(offset + i * stride_elems * esz, as_bytes(std::slice::from_ref(v)))?;
        }
        Ok(())
    }

    /// Strided get (`gasnet_gets` of the VIS extension).
    pub fn get_strided<T: Pod>(
        &self,
        node: usize,
        offset: usize,
        stride_elems: usize,
        out: &mut [T],
    ) -> Result<()> {
        let esz = std::mem::size_of::<T>();
        announce(ModelOp::Read {
            region: self.seg_ids[node].0,
            owner: node,
            lo: offset as u64,
            hi: offset as u64 + (out.len() * stride_elems.max(1) * esz) as u64,
        });
        let seg = self.ep.segment(self.seg_ids[node])?;
        self.delays
            .charge(DelayOp::RmaGet, std::mem::size_of_val(out));
        for (i, v) in out.iter_mut().enumerate() {
            seg.get(
                offset + i * stride_elems * esz,
                as_bytes_mut(std::slice::from_mut(v)),
            )?;
        }
        Ok(())
    }

    /// Write into this rank's own segment.
    pub fn write_local<T: Pod>(&self, offset: usize, data: &[T]) -> Result<()> {
        let me = self.rank();
        announce(ModelOp::Write {
            region: self.seg_ids[me].0,
            owner: me,
            lo: offset as u64,
            hi: offset as u64 + std::mem::size_of_val(data) as u64,
        });
        self.local.put(offset, as_bytes(data))
    }

    /// Read from this rank's own segment.
    pub fn read_local<T: Pod>(&self, offset: usize, out: &mut [T]) -> Result<()> {
        let me = self.rank();
        announce(ModelOp::Read {
            region: self.seg_ids[me].0,
            owner: me,
            lo: offset as u64,
            hi: offset as u64 + std::mem::size_of_val(out) as u64,
        });
        self.local.get(offset, as_bytes_mut(out))
    }

    /// Read-modify-write one `u64` of this rank's own segment: the
    /// [`Gasnet::read_local`] + [`Gasnet::write_local`] pair as one call
    /// (same Read-then-Write announces, one bounds check). Owner-serial
    /// (see [`Segment::rmw_u64`]).
    pub fn rmw_local_u64(&self, offset: usize, f: impl FnOnce(u64) -> u64) -> Result<()> {
        let owner = self.rank();
        let region = self.seg_ids[owner].0;
        let (lo, hi) = (offset as u64, offset as u64 + 8);
        announce(ModelOp::Read {
            region,
            owner,
            lo,
            hi,
        });
        announce(ModelOp::Write {
            region,
            owner,
            lo,
            hi,
        });
        self.local.rmw_u64(offset, f)
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
    fn nb_variants_complete() {
        GasnetUniverse::run(2, |g| {
            if g.rank() == 0 {
                let h = g.put_nb(1, 0, &[5u64]).unwrap();
                assert!(h.try_sync());
                h.wait();
                g.put_nbi(1, 8, &[6u64]).unwrap();
                g.wait_syncnbi_puts();
            }
            g.barrier();
            if g.rank() == 1 {
                let mut out = [0u64; 2];
                g.read_local(0, &mut out).unwrap();
                assert_eq!(out, [5, 6]);
            }
        });
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
                g.am_request_long_raw(1, crate::am::H_PUT_ACK_REQ, &[seq], &[1u8], 0)
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
