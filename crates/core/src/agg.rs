//! Small-put aggregation: the `caf-agg` subsystem wired into the runtime.
//!
//! The paper's §4.1 decomposition shows RandomAccess-shaped traffic —
//! millions of tiny remote updates — drowning in per-message overhead on
//! both substrates. This module is the runtime half of the remedy (the
//! data structures live in `crates/agg`):
//!
//! * **Enqueue** — eligible case-1 async puts and the explicit
//!   accumulate API park a compact record in the bucket of its
//!   (next-hop) target instead of issuing a tiny one-sided operation.
//! * **Drain** — a bucket becomes exactly one [`RtMsg::AggBatch`] when a
//!   size/count trigger fires, at every release point (`event_notify`,
//!   `finish`, shipped-function completion), or when an intermediate
//!   rank forwards. On CAF-MPI the batch is one `MPI_Isend` on the
//!   runtime communicator (the §3.2 AM layer); on CAF-GASNet it is one
//!   genuine medium AM. Either way a whole bucket costs one message.
//! * **Deliver** — the target unpacks during its progress engine:
//!   `Put` records overwrite region bytes, `Xor`/`Add` records are
//!   read-modify-written serially by the owner (atomic by construction).
//!   With routing on, records not addressed to the unpacking image are
//!   re-bucketed toward their next hop and forwarded eagerly —
//!   store-and-forward, ≤ log2(P) hops per record.
//!
//! **Completion.** Batched delivery is AM-based, so remote completion is
//! not a window flush; it rides the runtime's existing machinery
//! instead. Before an `event_notify` the relevant buckets drain, and the
//! AM channel's FIFO order guarantees the batch is applied before the
//! notification wakes the waiter. Inside `finish`, every batch (and
//! every forwarded hop) is accounted to the enclosing finish id exactly
//! like a shipped function, so Yang's termination detection counts
//! in-flight batches and store-and-forward chains. `finish_fast` adds
//! poll+barrier rounds (one per routing hop) to propagate chains without
//! counters. Multi-hop routing relies on those mechanisms; with routing
//! on, use `finish`/`finish_fast` release semantics (DESIGN.md §13).
//!
//! **Happens-before.** A drained bucket carries the union of its
//! records' edges for free: each enqueue happens before the drain in
//! program order, so the origin's vector clock at the batch's send edge
//! already joins every record's accesses; the unpacking image joins it
//! with the receive edge before applying, and forwarding propagates
//! transitively.

use caf_agg::{batch_records, AggConfig, AggStats, Batch, RecordOp, RecordRef};
use caf_gasnetsim::AM_MAX_MEDIUM;

use crate::coarray::Coarray;
use crate::image::{Image, SubstrateKind};
use crate::op::{CafOp, Chan};
use crate::rtmsg::write_agg_batch_header;

/// Clamp the user's aggregation knobs to what the job can actually run:
/// routing needs a power-of-two image count, and on the GASNet substrate
/// a worst-case encoded batch (capacity overshoot included) must fit one
/// medium AM with headroom for the runtime-message header.
pub(crate) fn effective_agg_config(
    mut cfg: AggConfig,
    substrate: SubstrateKind,
    n: usize,
) -> AggConfig {
    if cfg.routing && !n.is_power_of_two() {
        cfg.routing = false;
    }
    if matches!(substrate, SubstrateKind::Gasnet) {
        let lim = AM_MAX_MEDIUM - 64;
        // A bucket drains when payload reaches `bucket_bytes`, so it can
        // overshoot by one record: budget twice the payload capacity.
        cfg.bucket_bytes = cfg.bucket_bytes.min(lim / 4);
        let rec_budget =
            (lim - caf_agg::BATCH_HEADER - 2 * cfg.bucket_bytes) / caf_agg::REC_HEADER;
        cfg.bucket_records = cfg.bucket_records.min(rec_budget.max(1));
    }
    cfg.bucket_bytes = cfg.bucket_bytes.max(8);
    cfg.bucket_records = cfg.bucket_records.max(1);
    cfg.max_record_bytes = cfg.max_record_bytes.min(cfg.bucket_bytes);
    cfg
}

impl Image {
    /// The *effective* aggregation configuration this job runs under —
    /// [`crate::CafConfig::agg`] after the runtime clamped it (routing
    /// off unless the image count is a power of two; bucket capacities
    /// bounded by the GASNet medium-AM limit on that substrate).
    pub fn agg_config(&self) -> AggConfig {
        self.agg.borrow().config()
    }

    /// Deterministic aggregation counters for this image (enqueued /
    /// drained / forwarded records and buckets).
    pub fn agg_stats(&self) -> AggStats {
        self.agg.borrow().stats()
    }

    pub(crate) fn agg_enabled(&self) -> bool {
        self.agg.borrow().config().enabled
    }

    /// The innermost active finish block, for batch accounting.
    fn agg_fid(&self) -> u64 {
        self.finish_stack.borrow().last().copied().unwrap_or(0)
    }

    /// Enqueue a remote XOR-accumulate of `operand` into element
    /// `elem_off` of `member`'s part — the RandomAccess update as a
    /// coalesced record. Applied serially by the owning image, so
    /// concurrent updates from any set of origins are atomic; XOR
    /// commutes, so delivery order does not matter. Requires aggregation
    /// to be enabled; remote completion follows the release rules of
    /// DESIGN.md §13 (use `finish` when routing is on).
    pub fn agg_accumulate_xor(
        &self,
        ca: &Coarray<u64>,
        member: usize,
        elem_off: usize,
        operand: u64,
    ) {
        self.agg_accumulate(ca, member, elem_off, operand, RecordOp::Xor);
    }

    /// As [`Image::agg_accumulate_xor`] with a wrapping add.
    pub fn agg_accumulate_add(
        &self,
        ca: &Coarray<u64>,
        member: usize,
        elem_off: usize,
        operand: u64,
    ) {
        self.agg_accumulate(ca, member, elem_off, operand, RecordOp::Add);
    }

    fn agg_accumulate(
        &self,
        ca: &Coarray<u64>,
        member: usize,
        elem_off: usize,
        operand: u64,
        op: RecordOp,
    ) {
        assert!(
            self.agg_enabled(),
            "agg_accumulate_* requires CafConfig::agg.enabled"
        );
        let disp = elem_off * std::mem::size_of::<u64>();
        let dest = ca.global_member(member);
        if dest == self.this_image() {
            // Owner applies its own updates in place: no record, no hop.
            self.region_rmw_u64(ca.region.id(), disp, |v| apply_acc(op, v, operand));
            return;
        }
        self.agg_enqueue_record(RecordRef {
            dest: dest as u32,
            op,
            region: ca.region.id(),
            offset: disp as u64,
            payload: &operand.to_le_bytes(),
        });
    }

    /// Try to coalesce a case-1 (implicitly synchronized) put. Returns
    /// `false` when the put must take the direct path: aggregation off,
    /// payload above `max_record_bytes`, or a self-put.
    pub(crate) fn agg_try_put(
        &self,
        region: u64,
        dest_global: usize,
        offset: usize,
        bytes: &[u8],
    ) -> bool {
        let cfg = self.agg.borrow().config();
        if !cfg.enabled || bytes.len() > cfg.max_record_bytes || dest_global == self.this_image()
        {
            return false;
        }
        self.agg_enqueue_record(RecordRef {
            dest: dest_global as u32,
            op: RecordOp::Put,
            region,
            offset: offset as u64,
            payload: bytes,
        });
        // Still an implicitly synchronized put for `cofence` accounting
        // (the payload was copied into the bucket, so local completion is
        // immediate, matching the substrate's behaviour).
        self.implicit_puts.set(self.implicit_puts.get() + 1);
        true
    }

    fn agg_enqueue_record(&self, rec: RecordRef<'_>) {
        if caf_trace::enabled() {
            let hop = self.agg.borrow().hop_for(rec.dest as usize);
            caf_trace::instant_d(
                caf_trace::Op::AggEnqueue,
                Some(hop),
                rec.payload.len() as u64,
                Some(rec.region),
                Some(rec.offset),
            );
        }
        let full = self.agg.borrow_mut().enqueue_ref(rec);
        if let Some((target, batch)) = full {
            // Capacity trigger: this bucket leaves now, attributed to the
            // innermost finish so termination detection can see it.
            self.agg_send_batch(target, batch, self.agg_fid());
        }
    }

    /// Drain every bucket toward its immediate target, accounting the
    /// batches to `fid`. Called at release points *before* the PR-4
    /// `release_all()`, so whatever the flush policy completes afterwards
    /// already includes nothing of the coalesced traffic — a drained
    /// bucket is one message, never O(records) flush work.
    pub(crate) fn agg_drain_all(&self, fid: u64) {
        if self.agg.borrow().is_empty() {
            return;
        }
        self.fault_point("agg_drain");
        let batches = self.agg.borrow_mut().drain_all();
        for (target, batch) in batches {
            self.agg_send_batch(target, batch, fid);
        }
    }

    /// Release-point drain with the innermost finish id.
    pub(crate) fn agg_drain_for_release(&self) {
        self.agg_drain_all(self.agg_fid());
    }

    /// Ship one drained bucket as a single batched AM.
    ///
    /// Drain-time reroute: when the planned store-and-forward hop has
    /// failed, the batch is split per destination and sent *directly* —
    /// the hypercube route is an optimization, never a delivery
    /// requirement. Records whose final destination itself failed are
    /// abandoned (their target memory is gone); without this screen a
    /// routed record could be silently swallowed by the fabric's
    /// drop-on-dead send and survivors' puts would be lost with it.
    pub(crate) fn agg_send_batch(&self, target: usize, mut batch: Batch, fid: u64) {
        debug_assert_ne!(target, self.this_image(), "batch to self");
        let fault = self.backend.fault();
        if fault.any_failed() && fault.is_failed(target) {
            let mut by_dest: std::collections::BTreeMap<usize, Batch> =
                std::collections::BTreeMap::new();
            let mut dropped = 0u64;
            let mut rerouted = 0u64;
            {
                let mut agg = self.agg.borrow_mut();
                for rec in batch_records(batch.bytes()) {
                    let dest = rec.dest as usize;
                    if fault.is_failed(dest) {
                        dropped += 1;
                        continue;
                    }
                    rerouted += 1;
                    by_dest
                        .entry(dest)
                        .or_insert_with(|| agg.new_batch())
                        .push(rec);
                }
                agg.note_reroute(rerouted);
                agg.note_dropped_dead(dropped);
                agg.recycle(batch);
            }
            for (dest, batch) in by_dest {
                self.agg_send_batch(dest, batch, fid);
            }
            return;
        }
        // Shipped-function accounting (paper §3.5): the batch counts as
        // shipped at the origin and completed once the target applied it,
        // so Yang's loop inside `finish` awaits in-flight batches and
        // their forwarded continuations.
        self.finish_counter(fid).0 += 1;
        // Structurally unique happens-before token: (image, counter).
        let ctr = self.agg_token_ctr.get() + 1;
        self.agg_token_ctr.set(ctr);
        let token = ((self.this_image() as u64 + 1) << 32) | ctr;
        if caf_trace::enabled() {
            caf_trace::instant_d(
                caf_trace::Op::AggDrain,
                Some(target),
                batch.bytes().len() as u64,
                None,
                Some(batch.len() as u64),
            );
        }
        // The batch carries the union of its records' happens-before
        // edges: every enqueue precedes this send in program order.
        self.op(CafOp::send(Chan::Batch, token, target), || {
            // The bucket reserved the message header in front of its
            // records, so the drained buffer *is* the encoded
            // `RtMsg::AggBatch`.
            write_agg_batch_header(batch.headroom_mut(), token, fid);
            self.backend.send_rtmsg(target, batch.frame());
        });
        self.agg.borrow_mut().recycle(batch);
    }

    /// Unpack one incoming batch in place: apply records addressed here,
    /// re-bucket and eagerly forward the rest toward their next hop
    /// (store-and-forward). Completion is accounted *after* forwards are
    /// shipped so the finish counters never transiently claim quiescence.
    pub(crate) fn handle_agg_batch(&self, token: u64, finish_id: u64, data: &[u8]) {
        self.edge(CafOp::recv(Chan::Batch, token));
        let me = self.this_image();
        let mut sends: Vec<(usize, Batch)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        {
            let mut agg = self.agg.borrow_mut();
            for rec in batch_records(data) {
                if rec.dest as usize == me {
                    self.agg_apply_record(rec);
                    continue;
                }
                let hop = agg.hop_for(rec.dest as usize);
                if caf_trace::enabled() {
                    caf_trace::instant_d(
                        caf_trace::Op::AggForward,
                        Some(hop),
                        rec.payload.len() as u64,
                        Some(rec.region),
                        Some(rec.offset),
                    );
                }
                agg.note_forward();
                match agg.enqueue_ref(rec) {
                    Some(full) => sends.push(full),
                    None => touched.push(hop),
                }
            }
            // Forwarded records leave with this batch, merged with
            // whatever was already parked for those hops (early delivery
            // of implicitly synchronized puts is always legal).
            touched.sort_unstable();
            touched.dedup();
            for hop in touched {
                if let Some(batch) = agg.drain(hop) {
                    sends.push((hop, batch));
                }
            }
        }
        for (target, batch) in sends {
            self.agg_send_batch(target, batch, finish_id);
        }
        self.finish_counter(finish_id).1 += 1;
    }

    fn agg_apply_record(&self, rec: RecordRef<'_>) {
        match rec.op {
            RecordOp::Put => self.region_write_local(rec.region, rec.offset as usize, rec.payload),
            RecordOp::Xor | RecordOp::Add => {
                let operand = u64::from_le_bytes(
                    rec.payload
                        .try_into()
                        .expect("accumulate operand must be 8 bytes"),
                );
                self.region_rmw_u64(rec.region, rec.offset as usize, |v| {
                    apply_acc(rec.op, v, operand)
                });
            }
        }
    }
}

fn apply_acc(op: RecordOp, v: u64, operand: u64) -> u64 {
    match op {
        RecordOp::Xor => v ^ operand,
        RecordOp::Add => v.wrapping_add(operand),
        RecordOp::Put => unreachable!("puts are not read-modify-write"),
    }
}

#[cfg(test)]
mod tests {
    use caf_agg::AggConfig;

    use crate::asyncops::AsyncOpts;
    use crate::coarray::Coarray;
    use crate::image::{CafConfig, CafUniverse, Image, SubstrateKind};

    /// Records parked in this image's buckets (drained at the next
    /// release point).
    fn parked(img: &Image) -> u64 {
        let s = img.agg_stats();
        s.enqueued - s.drained_records
    }

    fn agg_cfg(kind: SubstrateKind) -> CafConfig {
        CafConfig {
            agg: AggConfig::on(),
            ..CafConfig::on(kind)
        }
    }

    #[test]
    fn effective_config_clamps_routing_and_gasnet_buckets() {
        use super::effective_agg_config;
        let routed = AggConfig::routed();
        assert!(!effective_agg_config(routed, SubstrateKind::Mpi, 6).routing);
        assert!(effective_agg_config(routed, SubstrateKind::Mpi, 8).routing);
        let huge = AggConfig {
            bucket_bytes: 1 << 20,
            bucket_records: 1 << 20,
            ..AggConfig::on()
        };
        let g = effective_agg_config(huge, SubstrateKind::Gasnet, 4);
        assert!(
            g.max_encoded_len() <= caf_gasnetsim::AM_MAX_MEDIUM,
            "clamped bucket must fit a medium AM ({} > {})",
            g.max_encoded_len(),
            caf_gasnetsim::AM_MAX_MEDIUM
        );
        // MPI sends have no medium limit: knobs pass through.
        let m = effective_agg_config(huge, SubstrateKind::Mpi, 4);
        assert_eq!(m.bucket_bytes, 1 << 20);
    }

    #[test]
    fn bucketed_puts_release_on_notify() {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            CafUniverse::run_with_config(2, agg_cfg(kind), |img| {
                let w = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&w, 8);
                let ev = img.event_alloc(&w);
                if img.this_image() == 0 {
                    for i in 0..8usize {
                        img.copy_async_put(&ca, 1, i, &[100 + i as u64], AsyncOpts::none());
                    }
                    // Small puts parked, not yet on the wire.
                    assert!(parked(img) > 0);
                    img.event_notify(&w, &ev, 1);
                    assert_eq!(parked(img), 0);
                } else {
                    img.event_wait(&ev);
                    let got = ca.local_vec(img);
                    let want: Vec<u64> = (0..8).map(|i| 100 + i as u64).collect();
                    assert_eq!(got, want, "substrate {kind:?}");
                }
                img.sync_all();
                // Image 1 resolved the region through its cursor; once
                // freed, nothing of the runtime may keep it (its memory)
                // alive.
                let region = std::sync::Arc::clone(&ca.region);
                img.coarray_free(&w, ca);
                assert_eq!(std::sync::Arc::strong_count(&region), 1, "substrate {kind:?}");
            });
        }
    }

    #[test]
    fn capacity_trigger_ships_mid_stream() {
        let cfg = CafConfig {
            agg: AggConfig {
                bucket_records: 4,
                ..AggConfig::on()
            },
            ..CafConfig::on(SubstrateKind::Mpi)
        };
        CafUniverse::run_with_config(2, cfg, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 16);
            let ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                for i in 0..10usize {
                    img.copy_async_put(&ca, 1, i, &[i as u64 + 1], AsyncOpts::none());
                }
                // 10 records, capacity 4: two buckets already shipped.
                assert_eq!(img.agg_stats().drained_buckets, 2);
                assert_eq!(parked(img), 2);
                img.event_notify(&w, &ev, 1);
                assert_eq!(img.agg_stats().drained_buckets, 3);
            } else {
                img.event_wait(&ev);
                let got = ca.local_vec(img);
                for (i, &v) in got.iter().enumerate().take(10) {
                    assert_eq!(v, i as u64 + 1);
                }
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn accumulates_apply_atomically_under_finish() {
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let p = 4;
            CafUniverse::run_with_config(p, agg_cfg(kind), |img| {
                let w = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&w, 2);
                // Everyone adds into both slots of image 0, and xors a
                // known pattern into image 1.
                img.finish(&w, |img| {
                    for _ in 0..50 {
                        img.agg_accumulate_add(&ca, 0, 0, 1);
                    }
                    img.agg_accumulate_xor(&ca, 1, 1, 1u64 << img.this_image());
                });
                if img.this_image() == 0 {
                    assert_eq!(ca.local_vec(img)[0], (50 * p) as u64);
                } else if img.this_image() == 1 {
                    assert_eq!(ca.local_vec(img)[1], 0b1111);
                }
                img.coarray_free(&w, ca);
            });
        }
    }

    #[test]
    fn routed_records_arrive_via_hops_under_finish() {
        let cfg = CafConfig {
            agg: AggConfig::routed(),
            ..CafConfig::on(SubstrateKind::Mpi)
        };
        let p = 8;
        let forwards: Vec<u64> = CafUniverse::run_with_config(p, cfg, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, p);
            img.finish(&w, |img| {
                // All-to-all of single-word adds: most pairs differ in
                // more than one address bit, so forwarding must happen.
                for dest in 0..p {
                    if dest != img.this_image() {
                        img.agg_accumulate_add(&ca, dest, img.this_image(), 7);
                    }
                }
            });
            let local = ca.local_vec(img);
            for (src, &v) in local.iter().enumerate() {
                let want = if src == img.this_image() { 0 } else { 7 };
                assert_eq!(v, want, "slot {src} at {}", img.this_image());
            }
            img.sync_all();
            img.coarray_free(&w, ca);
            img.agg_stats().forwarded
        });
        assert!(
            forwards.iter().sum::<u64>() > 0,
            "8-image all-to-all must route through intermediate hops"
        );
    }

    #[test]
    fn finish_fast_propagates_batches() {
        for routing in [false, true] {
            let cfg = CafConfig {
                agg: AggConfig {
                    routing,
                    ..AggConfig::on()
                },
                ..CafConfig::on(SubstrateKind::Mpi)
            };
            let p = 4;
            CafUniverse::run_with_config(p, cfg, |img| {
                let w = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
                img.finish_fast(&w, |img| {
                    let peer = (img.this_image() + 1) % p;
                    img.copy_async_put(&ca, peer, 0, &[img.this_image() as u64 + 10], AsyncOpts::none());
                });
                let writer = (img.this_image() + p - 1) % p;
                assert_eq!(ca.local_vec(img)[0], writer as u64 + 10);
                img.coarray_free(&w, ca);
            });
        }
    }

    #[test]
    fn shipped_functions_drain_their_buckets() {
        CafUniverse::run_with_config(2, agg_cfg(SubstrateKind::Mpi), |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            img.finish(&w, |img| {
                if img.this_image() == 0 {
                    let ca2 = ca.clone();
                    // The shipped closure enqueues an aggregated put back
                    // to image 0; its completion must cover the batch.
                    img.ship(&w, 1, move |exec| {
                        exec.copy_async_put(&ca2, 0, 0, &[777], AsyncOpts::none());
                    });
                }
            });
            if img.this_image() == 0 {
                assert_eq!(ca.local_vec(img)[0], 777);
            }
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn oversized_puts_bypass_buckets() {
        CafUniverse::run_with_config(2, agg_cfg(SubstrateKind::Mpi), |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 64);
            let big: Vec<u64> = (0..64).collect(); // 512 B > max_record_bytes
            if img.this_image() == 0 {
                img.copy_async_put(&ca, 1, 0, &big, AsyncOpts::none());
                assert_eq!(parked(img), 0, "bulk put must go direct");
            }
            img.finish_fast(&w, |_| {});
            if img.this_image() == 1 {
                assert_eq!(ca.local_vec(img), (0..64).collect::<Vec<u64>>());
            }
            img.coarray_free(&w, ca);
        });
    }
}
