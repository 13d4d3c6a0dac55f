//! `caf-agg`: small-put coalescing for the CAF runtime.
//!
//! The paper's RandomAccess analysis (§4.1) shows what kills PGAS codes
//! with skewed fine-grained traffic: millions of tiny remote updates, each
//! paying a full per-message overhead. This crate provides the classic
//! remedy as a substrate-independent building block:
//!
//! * **Per-target buckets** — small puts/accumulates are enqueued as
//!   compact records ([`RecordRef`]: payload borrowed from the caller)
//!   into the bucket of their (next-hop) target and drained as one
//!   [`Batch`] when a size/count trigger fires or at an explicit release
//!   point.
//! * **A batch wire format that is also the bucket** — a bucket appends
//!   each record straight into the encoded batch, so a drained [`Batch`]
//!   goes on the wire as is, small enough for a single medium active
//!   message; the receiver walks the bytes in place with
//!   [`batch_records`]. Nothing on that path allocates per record. The
//!   owned [`Record`] with [`encode_batch`]/[`decode_batch`] are wrappers
//!   over the same encoder and iterator.
//! * **Dimension-order hypercube routing** (the optimized-GUPS
//!   algorithm) — with routing on, a record destined to `dest` is
//!   bucketed toward [`next_hop`]`(me, dest, p)`, the neighbour that
//!   fixes the lowest differing address bit; intermediate ranks unpack,
//!   re-bucket, and forward, so each record crosses at most `log2(P)`
//!   hops and every message on the wire is a full bucket instead of one
//!   tiny update.
//!
//! The crate is a leaf: it owns the data structures and the arithmetic,
//! and knows nothing about substrates, windows, or events. Delivery,
//! happens-before edges, and release-point semantics are wired up by
//! `caf` core (see DESIGN.md §13).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Aggregation knobs, carried inside `CafConfig` (opt-in: the default is
/// disabled, so the paper-faithful direct small-put path is what runs
/// unless a job asks for coalescing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggConfig {
    /// Route eligible async puts through aggregation buckets.
    pub enabled: bool,
    /// Payload-byte capacity of one bucket; reaching it triggers a drain.
    /// On the GASNet substrate the runtime clamps this so an encoded
    /// batch always fits a single medium AM.
    pub bucket_bytes: usize,
    /// Record-count capacity of one bucket; reaching it triggers a drain.
    pub bucket_records: usize,
    /// Puts with payloads larger than this bypass aggregation and take
    /// the direct path (bulk transfers gain nothing from coalescing).
    pub max_record_bytes: usize,
    /// Dimension-order hypercube software routing. Requires a
    /// power-of-two image count (the runtime clamps it off otherwise)
    /// and `finish`-style release semantics — see DESIGN.md §13.
    pub routing: bool,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig {
            enabled: false,
            // 4 + 64·25 + 2048 = 3652 encoded bytes: under the 4 KiB
            // medium-AM limit with headroom for the runtime header.
            bucket_bytes: 2048,
            bucket_records: 64,
            max_record_bytes: 64,
            routing: false,
        }
    }
}

impl AggConfig {
    /// Aggregation on, direct per-destination buckets (no routing).
    pub fn on() -> Self {
        AggConfig {
            enabled: true,
            ..AggConfig::default()
        }
    }

    /// Aggregation on with hypercube software routing.
    pub fn routed() -> Self {
        AggConfig {
            routing: true,
            ..AggConfig::on()
        }
    }

    /// Worst-case encoded size of one drained bucket under these knobs.
    /// The byte trigger fires *after* a push, so payload can overshoot
    /// `bucket_bytes` by one record; the runtime checks this bound
    /// against its AM transport limit.
    pub fn max_encoded_len(&self) -> usize {
        BATCH_HEADER
            + self.bucket_records * REC_HEADER
            + self.bucket_bytes
            + self.max_record_bytes
    }
}

/// What a record does at its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordOp {
    /// Overwrite `len` bytes at the offset (small put).
    Put = 0,
    /// XOR an 8-byte little-endian operand into the u64 at the offset
    /// (the RandomAccess update).
    Xor = 1,
    /// Wrapping-add an 8-byte little-endian operand into the u64 at the
    /// offset.
    Add = 2,
}

impl RecordOp {
    fn from_u8(v: u8) -> RecordOp {
        match v {
            0 => RecordOp::Put,
            1 => RecordOp::Xor,
            2 => RecordOp::Add,
            k => panic!("unknown aggregation record op {k}"),
        }
    }
}

/// One coalesced small operation: final destination, region/offset
/// address, and the payload it carries. Destination travels with the
/// record because routed records cross intermediate ranks.
///
/// This is the *owned* form, kept for callers that build records ahead of
/// time (benchmarks, tests). The runtime never materializes it: records
/// are encoded straight into a [`Batch`] from a [`RecordRef`] and read
/// back as `RecordRef`s borrowed from the received bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Final destination image (global rank).
    pub dest: u32,
    /// Operation applied at the destination.
    pub op: RecordOp,
    /// Region (window) the offset addresses.
    pub region: u64,
    /// Byte offset within the destination's part of the region.
    pub offset: u64,
    /// Operand bytes (`Xor`/`Add`: exactly 8, little-endian).
    pub payload: Vec<u8>,
}

/// Encoded bytes of one record's header: op, dest, region, offset, len.
pub const REC_HEADER: usize = 1 + 4 + 8 + 8 + 4;
/// Encoded bytes of the batch header (record count).
pub const BATCH_HEADER: usize = 4;

impl Record {
    /// Bytes this record occupies in an encoded batch.
    pub fn encoded_len(&self) -> usize {
        REC_HEADER + self.payload.len()
    }

    /// The borrowed view of this record.
    pub fn as_ref(&self) -> RecordRef<'_> {
        RecordRef {
            dest: self.dest,
            op: self.op,
            region: self.region,
            offset: self.offset,
            payload: &self.payload,
        }
    }
}

/// A [`Record`] whose payload is borrowed — from the caller's operand on
/// the way into a [`Batch`], from the received bytes on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Final destination image (global rank).
    pub dest: u32,
    /// Operation applied at the destination.
    pub op: RecordOp,
    /// Region (window) the offset addresses.
    pub region: u64,
    /// Byte offset within the destination's part of the region.
    pub offset: u64,
    /// Operand bytes (`Xor`/`Add`: exactly 8, little-endian).
    pub payload: &'a [u8],
}

impl RecordRef<'_> {
    /// Copy into the owned form.
    pub fn to_record(&self) -> Record {
        Record {
            dest: self.dest,
            op: self.op,
            region: self.region,
            offset: self.offset,
            payload: self.payload.to_vec(),
        }
    }
}

/// A batch under construction *and* on the wire: the buffer records are
/// appended to is the encoded batch itself —
/// `[count u32][records…]`, each record
/// `[op u8][dest u32][region u64][offset u64][len u32][payload]`, all
/// little-endian — so draining a bucket encodes nothing and copies
/// nothing.
///
/// A batch may reserve `headroom` bytes in front of the encoding for the
/// transport's own message header ([`Batch::frame`] is headroom +
/// encoding, contiguous), which lets the runtime ship the buffer as is.
#[derive(Debug)]
pub struct Batch {
    /// `headroom` transport bytes, then the encoded batch. The count field
    /// is kept current on every push, so the bytes are always well formed.
    buf: Vec<u8>,
    headroom: usize,
    records: usize,
}

impl Batch {
    /// An empty batch reusing `buf`'s allocation.
    fn in_buffer(mut buf: Vec<u8>, headroom: usize) -> Batch {
        buf.clear();
        buf.resize(headroom + BATCH_HEADER, 0);
        Batch {
            buf,
            headroom,
            records: 0,
        }
    }

    /// Append one record.
    pub fn push(&mut self, rec: RecordRef<'_>) {
        // Field by field, straight into the buffer: assembling the header
        // in a stack array first and copying it over reads back bytes the
        // narrower field stores just wrote (a store-forwarding stall) and
        // measured 9.6 against 6.5 ns per record.
        let buf = &mut self.buf;
        buf.push(rec.op as u8);
        buf.extend_from_slice(&rec.dest.to_le_bytes());
        buf.extend_from_slice(&rec.region.to_le_bytes());
        buf.extend_from_slice(&rec.offset.to_le_bytes());
        buf.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(rec.payload);
        self.records += 1;
        buf[self.headroom..self.headroom + BATCH_HEADER]
            .copy_from_slice(&(self.records as u32).to_le_bytes());
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Payload bytes carried (encoded size minus all headers).
    pub fn payload_bytes(&self) -> usize {
        self.bytes().len() - BATCH_HEADER - self.records * REC_HEADER
    }

    /// The encoded batch — what [`batch_records`] and [`decode_batch`]
    /// read.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.headroom..]
    }

    /// The reserved transport header in front of the encoding.
    pub fn headroom_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.headroom]
    }

    /// Headroom followed by the encoded batch, contiguous.
    pub fn frame(&self) -> &[u8] {
        &self.buf
    }
}

/// Pack records into one batch payload (see [`Batch`] for the layout).
pub fn encode_batch(records: &[Record]) -> Vec<u8> {
    let bytes = BATCH_HEADER + records.iter().map(Record::encoded_len).sum::<usize>();
    let mut batch = Batch::in_buffer(Vec::with_capacity(bytes), 0);
    for r in records {
        batch.push(r.as_ref());
    }
    batch.buf
}

/// Decode a batch produced by [`encode_batch`] into owned records.
///
/// # Panics
///
/// Panics on malformed input — see [`batch_records`].
pub fn decode_batch(bytes: &[u8]) -> Vec<Record> {
    batch_records(bytes).map(|r| r.to_record()).collect()
}

/// Walk an encoded batch in place, yielding records borrowed from
/// `bytes`.
///
/// # Panics
///
/// Panics (here or while iterating) on malformed input: truncated header
/// or payload, unknown op byte, a count that overruns the data, or
/// trailing bytes after the last record (checked before that record is
/// yielded). Batches are runtime-internal traffic, so corruption is a
/// bug, not an input condition.
pub fn batch_records(bytes: &[u8]) -> BatchIter<'_> {
    let (count, rest) = split(bytes, BATCH_HEADER);
    let remaining = u32::from_le_bytes(count.try_into().expect("count")) as usize;
    // Bounds what `collect` may allocate on a corrupt count, too.
    assert!(
        remaining <= rest.len() / REC_HEADER,
        "batch count {remaining} overruns {} data bytes",
        rest.len()
    );
    if remaining == 0 {
        assert!(rest.is_empty(), "trailing bytes after batch");
    }
    BatchIter { rest, remaining }
}

/// Borrowed record iterator returned by [`batch_records`].
#[derive(Debug, Clone)]
pub struct BatchIter<'a> {
    rest: &'a [u8],
    remaining: usize,
}

fn split(bytes: &[u8], n: usize) -> (&[u8], &[u8]) {
    assert!(bytes.len() >= n, "truncated batch");
    bytes.split_at(n)
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        if self.remaining == 0 {
            return None;
        }
        let (h, rest) = split(self.rest, REC_HEADER);
        let len = u32::from_le_bytes(h[21..25].try_into().expect("len")) as usize;
        let (payload, rest) = split(rest, len);
        self.rest = rest;
        self.remaining -= 1;
        if self.remaining == 0 {
            assert!(rest.is_empty(), "trailing bytes after batch");
        }
        Some(RecordRef {
            op: RecordOp::from_u8(h[0]),
            dest: u32::from_le_bytes(h[1..5].try_into().expect("dest")),
            region: u64::from_le_bytes(h[5..13].try_into().expect("region")),
            offset: u64::from_le_bytes(h[13..21].try_into().expect("offset")),
            payload,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Dimension-order next hop: the neighbour of `me` across the lowest
/// address bit in which `me` and `dest` differ. Each hop fixes one bit,
/// so a record reaches `dest` in at most `log2(p)` hops, and every
/// intermediate rank aggregates traffic from its whole subcube — the
/// optimized-GUPS software-routing scheme.
///
/// # Panics
///
/// Panics unless `p` is a power of two and both ranks are in range.
pub fn next_hop(me: usize, dest: usize, p: usize) -> usize {
    assert!(p.is_power_of_two(), "hypercube routing requires 2^d images");
    assert!(me < p && dest < p, "rank out of range");
    let diff = me ^ dest;
    assert_ne!(diff, 0, "no hop needed: me == dest");
    me ^ (1usize << diff.trailing_zeros())
}

/// Counters kept by the [`Aggregator`] (all deterministic functions of
/// the enqueue/drain schedule — safe to assert on in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggStats {
    /// Records enqueued on this image (app-issued and forwarded).
    pub enqueued: u64,
    /// Buckets drained (each becomes one batched message).
    pub drained_buckets: u64,
    /// Records carried by those drained buckets.
    pub drained_records: u64,
    /// Payload bytes carried by those drained buckets.
    pub drained_payload_bytes: u64,
    /// Records re-bucketed at this image on behalf of another origin
    /// (store-and-forward hops).
    pub forwarded: u64,
    /// Records rerouted directly to their destination because the planned
    /// store-and-forward hop had failed at drain time.
    pub rerouted: u64,
    /// Records abandoned at drain time because their *destination* image
    /// had failed (the target memory no longer exists).
    pub dropped_dead: u64,
}

/// Drained buffers kept for reuse. A bucket gets its buffer back as soon
/// as the runtime has handed the batch to the transport, so a handful
/// covers any drain pattern; the rest are freed, not hoarded.
const FREE_LIST_CAP: usize = 4;

/// Per-image aggregation state: one bucket per immediate target, plus
/// the drain-trigger bookkeeping. A bucket *is* the [`Batch`] it will
/// drain as; a target never enqueued to (or just drained) owns no heap.
#[derive(Debug)]
pub struct Aggregator {
    cfg: AggConfig,
    me: usize,
    p: usize,
    headroom: usize,
    buckets: Vec<Option<Batch>>,
    /// Records parked across all buckets.
    pending: usize,
    free: Vec<Vec<u8>>,
    stats: AggStats,
}

impl Aggregator {
    /// Fresh state for image `me` of `p`. `cfg` is the runtime's
    /// *effective* (already clamped) configuration.
    pub fn new(cfg: AggConfig, me: usize, p: usize) -> Self {
        Aggregator::with_headroom(cfg, me, p, 0)
    }

    /// As [`Aggregator::new`], with every drained [`Batch`] reserving
    /// `headroom` bytes for the transport's message header.
    pub fn with_headroom(cfg: AggConfig, me: usize, p: usize, headroom: usize) -> Self {
        Aggregator {
            cfg,
            me,
            p,
            headroom,
            buckets: (0..p).map(|_| None).collect(),
            pending: 0,
            free: Vec::new(),
            stats: AggStats::default(),
        }
    }

    /// The effective configuration this aggregator runs under.
    pub fn config(&self) -> AggConfig {
        self.cfg
    }

    /// Immediate target a record destined to `dest` is bucketed toward:
    /// `dest` itself, or the hypercube next hop when routing is on.
    pub fn hop_for(&self, dest: usize) -> usize {
        if self.cfg.routing && dest != self.me {
            next_hop(self.me, dest, self.p)
        } else {
            dest
        }
    }

    /// An empty batch with this aggregator's headroom, on a recycled
    /// buffer when one is at hand.
    pub fn new_batch(&mut self) -> Batch {
        let buf = self
            .free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.headroom + self.cfg.max_encoded_len()));
        Batch::in_buffer(buf, self.headroom)
    }

    /// Hand a sent batch's buffer back for the next bucket.
    pub fn recycle(&mut self, batch: Batch) {
        if self.free.len() < FREE_LIST_CAP {
            self.free.push(batch.buf);
        }
    }

    /// Enqueue a record. Returns `Some((target, batch))` when the push
    /// filled the target's bucket past a capacity trigger — the caller
    /// must deliver that batch now.
    pub fn enqueue_ref(&mut self, rec: RecordRef<'_>) -> Option<(usize, Batch)> {
        debug_assert!((rec.dest as usize) < self.p, "record dest out of range");
        debug_assert_ne!(rec.dest as usize, self.me, "self-records are applied locally");
        let hop = self.hop_for(rec.dest as usize);
        self.stats.enqueued += 1;
        self.pending += 1;
        if self.buckets[hop].is_none() {
            self.buckets[hop] = Some(self.new_batch());
        }
        let b = self.buckets[hop].as_mut().expect("bucket just ensured");
        b.push(rec);
        if b.len() >= self.cfg.bucket_records || b.payload_bytes() >= self.cfg.bucket_bytes {
            return self.drain(hop).map(|b| (hop, b));
        }
        None
    }

    /// [`Aggregator::enqueue_ref`] for an owned record.
    pub fn enqueue(&mut self, rec: Record) -> Option<(usize, Batch)> {
        self.enqueue_ref(rec.as_ref())
    }

    /// Count a record enqueued on behalf of another origin (the caller
    /// enqueues it normally; this only keeps the forwarding statistic).
    pub fn note_forward(&mut self) {
        self.stats.forwarded += 1;
    }

    /// Count `n` records rerouted directly to their destination around a
    /// failed store-and-forward hop.
    pub fn note_reroute(&mut self, n: u64) {
        self.stats.rerouted += n;
    }

    /// Count `n` records abandoned because their destination failed.
    pub fn note_dropped_dead(&mut self, n: u64) {
        self.stats.dropped_dead += n;
    }

    /// Drain one target's bucket, if non-empty.
    pub fn drain(&mut self, target: usize) -> Option<Batch> {
        let batch = self.buckets[target].take()?;
        self.pending -= batch.len();
        self.stats.drained_buckets += 1;
        self.stats.drained_records += batch.len() as u64;
        self.stats.drained_payload_bytes += batch.payload_bytes() as u64;
        Some(batch)
    }

    /// Drain every non-empty bucket, in target order (deterministic).
    pub fn drain_all(&mut self) -> Vec<(usize, Batch)> {
        (0..self.p)
            .filter_map(|t| self.drain(t).map(|b| (t, b)))
            .collect()
    }

    /// True when no bucket holds a record.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AggStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(dest: u32, offset: u64, v: u64) -> Record {
        Record {
            dest,
            op: RecordOp::Xor,
            region: 7,
            offset,
            payload: v.to_le_bytes().to_vec(),
        }
    }

    /// Targets with a non-empty bucket, ascending.
    fn pending_targets(agg: &Aggregator) -> Vec<usize> {
        (0..agg.p).filter(|&t| agg.buckets[t].is_some()).collect()
    }

    #[test]
    fn batch_roundtrips() {
        let records = vec![
            rec(3, 16, 0xdeadbeef),
            Record {
                dest: 1,
                op: RecordOp::Put,
                region: 9,
                offset: 0,
                payload: vec![1, 2, 3],
            },
            Record {
                dest: 2,
                op: RecordOp::Add,
                region: 1,
                offset: 8,
                payload: 5u64.to_le_bytes().to_vec(),
            },
        ];
        let bytes = encode_batch(&records);
        assert_eq!(
            bytes.len(),
            BATCH_HEADER + records.iter().map(Record::encoded_len).sum::<usize>()
        );
        assert_eq!(decode_batch(&bytes), records);
    }

    #[test]
    fn empty_batch_roundtrips() {
        assert_eq!(decode_batch(&encode_batch(&[])), Vec::<Record>::new());
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode_batch(&[rec(0, 0, 1)]);
        bytes.push(0);
        decode_batch(&bytes);
    }

    #[test]
    fn next_hop_fixes_lowest_bit_and_bounds_hops() {
        for p in [2usize, 4, 8, 16, 32] {
            let d = p.trailing_zeros();
            for me in 0..p {
                for dest in 0..p {
                    if me == dest {
                        continue;
                    }
                    // Walk the full route; it must terminate within d hops.
                    let mut at = me;
                    let mut hops = 0;
                    while at != dest {
                        let nh = next_hop(at, dest, p);
                        // Each hop flips exactly one bit, the lowest diff.
                        assert_eq!((at ^ nh).count_ones(), 1);
                        assert!((at ^ dest).trailing_zeros() == (at ^ nh).trailing_zeros());
                        at = nh;
                        hops += 1;
                        assert!(hops <= d, "route exceeded log2(P) hops");
                    }
                    assert_eq!(hops, (me ^ dest).count_ones());
                }
            }
        }
    }

    #[test]
    fn count_trigger_drains_full_bucket() {
        let cfg = AggConfig {
            bucket_records: 4,
            ..AggConfig::on()
        };
        let mut agg = Aggregator::new(cfg, 0, 2);
        for i in 0..3u64 {
            assert!(agg.enqueue(rec(1, i * 8, i)).is_none());
        }
        let (t, batch) = agg.enqueue(rec(1, 24, 3)).expect("4th record fills the bucket");
        assert_eq!(t, 1);
        assert_eq!(batch.len(), 4);
        assert!(agg.is_empty());
        assert_eq!(agg.stats().drained_buckets, 1);
        assert_eq!(agg.stats().drained_records, 4);
    }

    #[test]
    fn byte_trigger_drains_full_bucket() {
        let cfg = AggConfig {
            bucket_bytes: 20,
            bucket_records: 1000,
            ..AggConfig::on()
        };
        let mut agg = Aggregator::new(cfg, 0, 2);
        assert!(agg.enqueue(rec(1, 0, 1)).is_none()); // 8 bytes
        assert!(agg.enqueue(rec(1, 8, 2)).is_none()); // 16 bytes
        let (_, batch) = agg.enqueue(rec(1, 16, 3)).expect("24 ≥ 20 bytes");
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn routing_buckets_by_next_hop() {
        let mut agg = Aggregator::new(AggConfig::routed(), 0, 8);
        // dest 7 differs from 0 in bits {0,1,2}; first hop flips bit 0.
        agg.enqueue(rec(7, 0, 1));
        // dest 6 differs in bits {1,2}; first hop flips bit 1.
        agg.enqueue(rec(6, 0, 2));
        // dest 4 differs in bit 2 only: one direct hop.
        agg.enqueue(rec(4, 0, 3));
        assert_eq!(pending_targets(&agg), vec![1, 2, 4]);
        // Without routing, buckets key on the final destination.
        let mut direct = Aggregator::new(AggConfig::on(), 0, 8);
        direct.enqueue(rec(7, 0, 1));
        direct.enqueue(rec(6, 0, 2));
        assert_eq!(pending_targets(&direct), vec![6, 7]);
    }

    #[test]
    fn drain_all_is_deterministic_and_complete() {
        let mut agg = Aggregator::new(AggConfig::on(), 0, 4);
        agg.enqueue(rec(3, 0, 1));
        agg.enqueue(rec(1, 0, 2));
        agg.enqueue(rec(3, 8, 3));
        let drained = agg.drain_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 1);
        assert_eq!(drained[1].0, 3);
        assert_eq!(drained[1].1.len(), 2);
        assert!(agg.is_empty());
        assert!(agg.drain_all().is_empty());
    }

    #[test]
    fn max_encoded_len_bounds_real_batches() {
        let cfg = AggConfig {
            bucket_bytes: 64,
            bucket_records: 8,
            ..AggConfig::on()
        };
        let mut agg = Aggregator::new(cfg, 0, 2);
        let mut worst = 0usize;
        for i in 0..100u64 {
            if let Some((_, batch)) = agg.enqueue(rec(1, i * 8, i)) {
                worst = worst.max(batch.bytes().len());
            }
        }
        assert!(worst > 0);
        assert!(worst <= cfg.max_encoded_len());
    }

    #[test]
    #[should_panic(expected = "truncated batch")]
    fn decode_rejects_truncated_count() {
        let _ = batch_records(&[1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn decode_rejects_count_beyond_data() {
        let mut bytes = encode_batch(&[rec(0, 0, 1)]);
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        decode_batch(&bytes);
    }

    #[test]
    #[should_panic(expected = "truncated batch")]
    fn decode_rejects_truncated_payload() {
        let mut bytes = encode_batch(&[rec(0, 0, 1)]);
        bytes.pop();
        decode_batch(&bytes);
    }

    #[test]
    #[should_panic(expected = "unknown aggregation record op")]
    fn decode_rejects_unknown_op() {
        let mut bytes = encode_batch(&[rec(0, 0, 1)]);
        bytes[BATCH_HEADER] = 3;
        decode_batch(&bytes);
    }

    #[test]
    fn untouched_buckets_own_no_heap_and_drained_buffers_are_reused() {
        let cfg = AggConfig {
            bucket_records: 2,
            ..AggConfig::on()
        };
        let mut agg = Aggregator::with_headroom(cfg, 0, 1024, 17);
        assert!(agg.buckets.iter().all(Option::is_none));
        assert!(agg.enqueue(rec(5, 0, 1)).is_none());
        assert_eq!(pending_targets(&agg), vec![5]);
        let (_, mut batch) = agg.enqueue(rec(5, 8, 2)).expect("count trigger");
        assert!(
            agg.buckets.iter().all(Option::is_none),
            "drained bucket gives up its buffer"
        );
        assert_eq!(batch.frame().len(), 17 + batch.bytes().len());
        batch.headroom_mut().fill(0xEE);
        let buffer = batch.frame().as_ptr();
        agg.recycle(batch);
        // The next bucket — any target — starts on the recycled buffer,
        // with zeroed headroom and none of the old records.
        agg.enqueue(rec(9, 0, 3));
        let next = agg.drain(9).expect("one record parked");
        assert_eq!(next.frame().as_ptr(), buffer);
        assert_eq!(next.frame()[..17], [0u8; 17]);
        assert_eq!(decode_batch(next.bytes()), vec![rec(9, 0, 3)]);
        // The free list is bounded: returning many buffers keeps few.
        let extra: Vec<Batch> = (0..2 * FREE_LIST_CAP).map(|_| agg.new_batch()).collect();
        for b in extra {
            agg.recycle(b);
        }
        assert_eq!(agg.free.len(), FREE_LIST_CAP);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The encoder as it stood before buckets became wire buffers,
        /// kept verbatim: the format reference the new path must match
        /// byte for byte.
        fn reference_encode(records: &[Record]) -> Vec<u8> {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for r in records {
                buf.push(r.op as u8);
                buf.extend_from_slice(&r.dest.to_le_bytes());
                buf.extend_from_slice(&r.region.to_le_bytes());
                buf.extend_from_slice(&r.offset.to_le_bytes());
                buf.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&r.payload);
            }
            buf
        }

        /// The matching owned-record decoder, likewise verbatim.
        fn reference_decode(bytes: &[u8]) -> Vec<Record> {
            let mut at = 0usize;
            let take = |at: &mut usize, n: usize| {
                let s = &bytes[*at..*at + n];
                *at += n;
                s
            };
            let count = u32::from_le_bytes(take(&mut at, 4).try_into().unwrap()) as usize;
            let mut out = Vec::new();
            for _ in 0..count {
                let op = RecordOp::from_u8(take(&mut at, 1)[0]);
                let dest = u32::from_le_bytes(take(&mut at, 4).try_into().unwrap());
                let region = u64::from_le_bytes(take(&mut at, 8).try_into().unwrap());
                let offset = u64::from_le_bytes(take(&mut at, 8).try_into().unwrap());
                let len = u32::from_le_bytes(take(&mut at, 4).try_into().unwrap()) as usize;
                let payload = take(&mut at, len).to_vec();
                out.push(Record {
                    dest,
                    op,
                    region,
                    offset,
                    payload,
                });
            }
            assert_eq!(at, bytes.len());
            out
        }

        type RecordSeed = (u32, u8, u64, u64, Vec<u8>);

        /// Mixed `Put`/`Xor`/`Add` records with payloads of
        /// 0..=`max_record_bytes` (the default 64).
        fn record_seeds(max: usize) -> impl Strategy<Value = Vec<RecordSeed>> {
            proptest::collection::vec(
                (
                    0u32..7,
                    0u8..3,
                    any::<u64>(),
                    any::<u64>(),
                    proptest::collection::vec(any::<u8>(), 0..65),
                ),
                0..max,
            )
        }

        /// Seeds to records for image `me` of 8: never addressed to `me`.
        fn records_for(me: usize, seeds: Vec<RecordSeed>) -> Vec<Record> {
            seeds
                .into_iter()
                .map(|(d, op, region, offset, payload)| Record {
                    dest: (me as u32 + 1 + d) % 8,
                    op: RecordOp::from_u8(op),
                    region,
                    offset,
                    payload,
                })
                .collect()
        }

        fn panics<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> bool {
            std::panic::catch_unwind(f).is_err()
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: if cfg!(miri) { 8 } else { 256 },
                ..ProptestConfig::default()
            })]

            /// (a) Whatever the trigger, the route and the headroom, a
            /// bucket drains to exactly the bytes the old owned-record
            /// path produced for the same enqueue sequence — same
            /// batches, same targets, same order, same counters.
            #[test]
            fn buckets_drain_to_the_reference_encoding(
                me in 0usize..8,
                routing in 0u8..2,
                bucket_records in 1usize..12,
                bucket_bytes in 8usize..200,
                headroom in 0usize..20,
                seeds in record_seeds(150),
            ) {
                let routing = routing == 1;
                let cfg = AggConfig {
                    enabled: true,
                    bucket_bytes,
                    bucket_records,
                    max_record_bytes: 64,
                    routing,
                };
                let records = records_for(me, seeds);
                let mut agg = Aggregator::with_headroom(cfg, me, 8, headroom);
                // The old bucket: owned records per immediate target,
                // both triggers tested after the push.
                let mut model: Vec<Vec<Record>> = vec![Vec::new(); 8];
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for r in &records {
                    let dest = r.dest as usize;
                    let hop = if routing { next_hop(me, dest, 8) } else { dest };
                    model[hop].push(r.clone());
                    let bytes: usize = model[hop].iter().map(|r| r.payload.len()).sum();
                    if model[hop].len() >= bucket_records || bytes >= bucket_bytes {
                        want.push((hop, reference_encode(&std::mem::take(&mut model[hop]))));
                    }
                    if let Some((target, batch)) = agg.enqueue_ref(r.as_ref()) {
                        prop_assert_eq!(batch.frame().len(), headroom + batch.bytes().len());
                        got.push((target, batch.bytes().to_vec()));
                        agg.recycle(batch);
                    }
                    let parked: usize = model.iter().map(Vec::len).sum();
                    prop_assert_eq!(agg.pending, parked);
                    prop_assert_eq!(agg.is_empty(), parked == 0);
                }
                for (target, batch) in agg.drain_all() {
                    got.push((target, batch.bytes().to_vec()));
                }
                for (target, parked) in model.iter().enumerate() {
                    if !parked.is_empty() {
                        want.push((target, reference_encode(parked)));
                    }
                }
                prop_assert_eq!(&got, &want);
                prop_assert!(agg.is_empty());
                let payload: usize = records.iter().map(|r| r.payload.len()).sum();
                prop_assert_eq!(agg.stats(), AggStats {
                    enqueued: records.len() as u64,
                    drained_buckets: want.len() as u64,
                    drained_records: records.len() as u64,
                    drained_payload_bytes: payload as u64,
                    ..AggStats::default()
                });
            }

            /// (b) The borrowed iterator, and both owned wrappers over
            /// it, agree with the reference codec.
            #[test]
            fn borrowed_records_match_the_reference_decoder(
                me in 0usize..8,
                seeds in record_seeds(40),
            ) {
                let records = records_for(me, seeds);
                let bytes = reference_encode(&records);
                prop_assert_eq!(&encode_batch(&records), &bytes);
                let borrowed: Vec<Record> =
                    batch_records(&bytes).map(|r| r.to_record()).collect();
                prop_assert_eq!(&borrowed, &reference_decode(&bytes));
                prop_assert_eq!(&decode_batch(&bytes), &records);
                prop_assert_eq!(batch_records(&bytes).size_hint(), (records.len(), Some(records.len())));
            }

            /// (c) Every way of corrupting a batch panics (the crate has
            /// no `unsafe`, so a panic is the only way an out-of-range
            /// read can end).
            #[test]
            fn malformed_batches_panic(
                seeds in record_seeds(12),
                cut in any::<usize>(),
                pick in any::<usize>(),
                bad_op in 3u8..255,
                grow in 1u32..1000,
                extra in proptest::collection::vec(any::<u8>(), 1..6),
            ) {
                prop_assume!(!seeds.is_empty());
                let records = records_for(0, seeds);
                let good = reference_encode(&records);
                let walk = |bytes: &[u8]| batch_records(bytes).count();

                // Any strict prefix: truncated count, header or payload.
                let prefix = good[..cut % good.len()].to_vec();
                prop_assert!(panics(|| walk(&prefix)), "prefix of {} bytes", prefix.len());

                let mut trailing = good.clone();
                trailing.extend_from_slice(&extra);
                prop_assert!(panics(|| walk(&trailing)), "trailing bytes");

                let k = pick % records.len();
                let at = BATCH_HEADER + records[..k].iter().map(Record::encoded_len).sum::<usize>();
                let mut unknown_op = good.clone();
                unknown_op[at] = bad_op;
                prop_assert!(panics(|| walk(&unknown_op)), "op byte {bad_op} in record {k}");

                // A count above or below what the data holds.
                let n = records.len() as u32;
                for count in [n + grow, n - 1, u32::MAX] {
                    let mut miscounted = good.clone();
                    miscounted[..BATCH_HEADER].copy_from_slice(&count.to_le_bytes());
                    prop_assert!(panics(|| walk(&miscounted)), "count {count} for {n} records");
                }
            }
        }

        proptest! {
            #[test]
            fn arbitrary_batches_roundtrip(
                seed in proptest::collection::vec(
                    (0u32..64, 0u8..3, any::<u64>(), any::<u64>(),
                     proptest::collection::vec(any::<u8>(), 0..40)),
                    0..30,
                )
            ) {
                let records: Vec<Record> = seed
                    .into_iter()
                    .map(|(dest, op, region, offset, payload)| Record {
                        dest,
                        op: RecordOp::from_u8(op),
                        region,
                        offset,
                        payload,
                    })
                    .collect();
                prop_assert_eq!(decode_batch(&encode_batch(&records)), records);
            }

            #[test]
            fn every_enqueued_record_drains_exactly_once(
                dests in proptest::collection::vec(1usize..8, 1..200),
                nrec in 2usize..10,
            ) {
                let cfg = AggConfig {
                    bucket_records: nrec,
                    ..AggConfig::on()
                };
                let mut agg = Aggregator::new(cfg, 0, 8);
                let mut out: Vec<Record> = Vec::new();
                for (i, &d) in dests.iter().enumerate() {
                    if let Some((_, batch)) = agg.enqueue(rec(d as u32, i as u64, i as u64)) {
                        out.extend(decode_batch(batch.bytes()));
                    }
                }
                for (_, batch) in agg.drain_all() {
                    out.extend(decode_batch(batch.bytes()));
                }
                prop_assert_eq!(out.len(), dests.len());
                // Order-insensitive identity: every (offset, dest) present.
                let mut got: Vec<(u64, u32)> =
                    out.iter().map(|r| (r.offset, r.dest)).collect();
                got.sort_unstable();
                let mut want: Vec<(u64, u32)> = dests
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| (i as u64, d as u32))
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }
}
