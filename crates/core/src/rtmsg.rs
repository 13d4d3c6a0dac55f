//! Runtime-level active messages.
//!
//! The CAF runtime needs its own AM layer for events, function shipping,
//! remote-completion puts, and (on the GASNet substrate) hand-rolled
//! collectives. On the MPI substrate these messages travel as `MPI_Isend`s
//! on a private communicator — the paper's §3.2 design, a "near-exact
//! replica of the AM interface in the GASNet core API" built from two-sided
//! MPI. On the GASNet substrate they are genuine GASNet AMs.
//!
//! The wire encoding is a tiny hand-rolled binary format (kind byte +
//! little-endian fields + raw payload); both substrates move opaque bytes.

/// A runtime message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtMsg {
    /// Post `event_id` once at the receiving image.
    EventNotify {
        /// Collectively agreed event identity.
        event_id: u64,
    },
    /// Execute the shipped function stored in the universe's ship registry
    /// under `slot`; account completion to `finish_id`.
    Ship {
        /// Ship-registry slot holding the closure.
        slot: u64,
        /// Enclosing finish block (0 = none).
        finish_id: u64,
    },
    /// CAF-MPI's §3.3 case 4: a PUT whose remote completion must post an
    /// event. The data travels inside the message; the receiving image
    /// copies it into its own region and posts the event.
    PutWithEvent {
        /// Region the data belongs to (window id / region id).
        region_id: u64,
        /// Byte offset within the receiving image's region.
        offset: u64,
        /// Event to post after the copy (0 = none).
        event_id: u64,
        /// The payload.
        data: Vec<u8>,
    },
    /// One drained aggregation bucket: the `caf-agg` batch wire format
    /// (`caf_agg::Batch::bytes`), delivered as a single runtime AM and
    /// walked in place (`caf_agg::batch_records`) at the target. Carries
    /// the union of its records' happens-before edges under `token`, and
    /// is accounted to `finish_id` like a shipped function so Yang's
    /// termination detection covers in-flight batches and
    /// store-and-forward chains.
    AggBatch {
        /// Happens-before channel token (globally unique per batch).
        token: u64,
        /// Enclosing finish block at the drain point (0 = none).
        finish_id: u64,
        /// The encoded batch.
        data: Vec<u8>,
    },
    /// One fragment of a hand-rolled collective on the GASNet substrate.
    CollPayload {
        /// Team the collective runs on.
        team_id: u64,
        /// Per-team collective sequence number.
        seq: u64,
        /// Algorithm phase within the collective.
        phase: u32,
        /// Sender's team rank.
        src_idx: u32,
        /// Fragment index (payloads above the medium-AM limit are split).
        chunk: u32,
        /// Total number of fragments.
        nchunks: u32,
        /// Fragment bytes.
        data: Vec<u8>,
    },
}

const K_EVENT: u8 = 1;
const K_SHIP: u8 = 2;
const K_PUT_EV: u8 = 3;
const K_COLL: u8 = 4;
const K_AGG: u8 = 5;

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encoded bytes in front of an [`RtMsg::AggBatch`]'s batch: kind, token,
/// finish id. Aggregation buckets reserve this much headroom so a drained
/// bucket goes on the wire as is (see [`write_agg_batch_header`]).
pub(crate) const AGG_BATCH_HEADER: usize = 1 + 8 + 8;

/// Fill `head` (exactly [`AGG_BATCH_HEADER`] bytes, directly in front of
/// the batch) so that `head ++ batch` is the encoding of
/// `RtMsg::AggBatch { token, finish_id, data: batch }`.
pub(crate) fn write_agg_batch_header(head: &mut [u8], token: u64, finish_id: u64) {
    assert_eq!(head.len(), AGG_BATCH_HEADER, "AggBatch header size");
    head[0] = K_AGG;
    head[1..9].copy_from_slice(&token.to_le_bytes());
    head[9..17].copy_from_slice(&finish_id.to_le_bytes());
}

/// Encoded bytes in front of an [`RtMsg::CollPayload`]'s fragment: kind,
/// team id, sequence number, phase, source index, chunk, chunk count.
pub(crate) const COLL_HEADER: usize = 1 + 8 + 8 + 4 * 4;

/// Fill `head` (exactly [`COLL_HEADER`] bytes, directly in front of the
/// fragment) so that `head ++ data` is the encoding of
/// `RtMsg::CollPayload { team_id, seq, phase, src_idx, chunk, nchunks, data }`.
pub(crate) fn write_coll_header(
    head: &mut [u8],
    team_id: u64,
    seq: u64,
    phase: u32,
    src_idx: u32,
    chunk: u32,
    nchunks: u32,
) {
    assert_eq!(head.len(), COLL_HEADER, "CollPayload header size");
    head[0] = K_COLL;
    head[1..9].copy_from_slice(&team_id.to_le_bytes());
    head[9..17].copy_from_slice(&seq.to_le_bytes());
    for (at, v) in [(17, phase), (21, src_idx), (25, chunk), (29, nchunks)] {
        head[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over a received message. Owns the buffer so a trailing payload
/// is kept in place (shifted to the front) rather than copied out.
struct Reader {
    bytes: Vec<u8>,
    at: usize,
}

impl Reader {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let field = self.bytes[self.at..self.at + N]
            .try_into()
            .expect("slice of N bytes");
        self.at += N;
        field
    }
    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }
    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }
    fn rest(mut self) -> Vec<u8> {
        self.bytes.drain(..self.at);
        self.bytes
    }
}

impl RtMsg {
    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            RtMsg::EventNotify { event_id } => {
                buf.push(K_EVENT);
                push_u64(&mut buf, *event_id);
            }
            RtMsg::Ship { slot, finish_id } => {
                buf.push(K_SHIP);
                push_u64(&mut buf, *slot);
                push_u64(&mut buf, *finish_id);
            }
            RtMsg::PutWithEvent {
                region_id,
                offset,
                event_id,
                data,
            } => {
                buf.push(K_PUT_EV);
                push_u64(&mut buf, *region_id);
                push_u64(&mut buf, *offset);
                push_u64(&mut buf, *event_id);
                buf.extend_from_slice(data);
            }
            RtMsg::AggBatch {
                token,
                finish_id,
                data,
            } => {
                buf.resize(AGG_BATCH_HEADER, 0);
                write_agg_batch_header(&mut buf, *token, *finish_id);
                buf.extend_from_slice(data);
            }
            RtMsg::CollPayload {
                team_id,
                seq,
                phase,
                src_idx,
                chunk,
                nchunks,
                data,
            } => {
                buf.push(K_COLL);
                push_u64(&mut buf, *team_id);
                push_u64(&mut buf, *seq);
                push_u32(&mut buf, *phase);
                push_u32(&mut buf, *src_idx);
                push_u32(&mut buf, *chunk);
                push_u32(&mut buf, *nchunks);
                buf.extend_from_slice(data);
            }
        }
        buf
    }

    /// Deserialize a received message, reusing its buffer for the
    /// payload (if the kind carries one).
    ///
    /// # Panics
    ///
    /// Panics on a malformed message — runtime traffic is internal, so
    /// corruption is a bug, not an input condition.
    pub fn decode(bytes: Vec<u8>) -> RtMsg {
        assert!(!bytes.is_empty(), "empty runtime message");
        let mut r = Reader { bytes, at: 0 };
        match r.take::<1>()[0] {
            K_EVENT => RtMsg::EventNotify { event_id: r.u64() },
            K_SHIP => RtMsg::Ship {
                slot: r.u64(),
                finish_id: r.u64(),
            },
            K_PUT_EV => RtMsg::PutWithEvent {
                region_id: r.u64(),
                offset: r.u64(),
                event_id: r.u64(),
                data: r.rest(),
            },
            K_AGG => RtMsg::AggBatch {
                token: r.u64(),
                finish_id: r.u64(),
                data: r.rest(),
            },
            K_COLL => RtMsg::CollPayload {
                team_id: r.u64(),
                seq: r.u64(),
                phase: r.u32(),
                src_idx: r.u32(),
                chunk: r.u32(),
                nchunks: r.u32(),
                data: r.rest(),
            },
            k => panic!("unknown runtime message kind {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: RtMsg) {
        assert_eq!(RtMsg::decode(m.encode()), m);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(RtMsg::EventNotify { event_id: 42 });
        roundtrip(RtMsg::Ship {
            slot: 7,
            finish_id: u64::MAX,
        });
        roundtrip(RtMsg::PutWithEvent {
            region_id: 1,
            offset: 1024,
            event_id: 0,
            data: vec![1, 2, 3, 4, 5],
        });
        roundtrip(RtMsg::AggBatch {
            token: 0xA66,
            finish_id: 12,
            data: vec![9, 8, 7],
        });
        roundtrip(RtMsg::CollPayload {
            team_id: 9,
            seq: 3,
            phase: 2,
            src_idx: 5,
            chunk: 1,
            nchunks: 4,
            data: vec![0xff; 100],
        });
    }

    #[test]
    fn agg_header_in_place_matches_the_message_encoding() {
        let batch = [9u8, 8, 7, 6, 5];
        let mut frame = vec![0u8; AGG_BATCH_HEADER];
        frame.extend_from_slice(&batch);
        write_agg_batch_header(&mut frame[..AGG_BATCH_HEADER], 0xA66, 12);
        let msg = RtMsg::AggBatch {
            token: 0xA66,
            finish_id: 12,
            data: batch.to_vec(),
        };
        assert_eq!(frame, msg.encode());
    }

    #[test]
    fn coll_fragment_in_place_matches_the_message_encoding() {
        let chunk = [1u8, 2, 3, 4];
        let mut frame = vec![0u8; COLL_HEADER];
        frame.extend_from_slice(&chunk);
        write_coll_header(&mut frame[..COLL_HEADER], 9, 3, 2, 5, 1, 4);
        let msg = RtMsg::CollPayload {
            team_id: 9,
            seq: 3,
            phase: 2,
            src_idx: 5,
            chunk: 1,
            nchunks: 4,
            data: chunk.to_vec(),
        };
        assert_eq!(frame, msg.encode());
    }

    #[test]
    fn empty_payloads_roundtrip() {
        roundtrip(RtMsg::PutWithEvent {
            region_id: 0,
            offset: 0,
            event_id: 0,
            data: vec![],
        });
        roundtrip(RtMsg::CollPayload {
            team_id: 0,
            seq: 0,
            phase: 0,
            src_idx: 0,
            chunk: 0,
            nchunks: 1,
            data: vec![],
        });
    }

    #[test]
    #[should_panic(expected = "unknown runtime message kind")]
    fn decode_rejects_garbage() {
        RtMsg::decode(vec![200, 0, 0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn event_roundtrips(id in any::<u64>()) {
                let m = RtMsg::EventNotify { event_id: id };
                prop_assert_eq!(RtMsg::decode(m.encode()), m);
            }

            #[test]
            fn ship_roundtrips(slot in any::<u64>(), fid in any::<u64>()) {
                let m = RtMsg::Ship { slot, finish_id: fid };
                prop_assert_eq!(RtMsg::decode(m.encode()), m);
            }

            #[test]
            fn put_with_event_roundtrips(
                region in any::<u64>(),
                offset in any::<u64>(),
                ev in any::<u64>(),
                data in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let m = RtMsg::PutWithEvent {
                    region_id: region,
                    offset,
                    event_id: ev,
                    data,
                };
                prop_assert_eq!(RtMsg::decode(m.encode()), m);
            }

            #[test]
            fn agg_batch_roundtrips(
                token in any::<u64>(),
                fid in any::<u64>(),
                data in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                let m = RtMsg::AggBatch { token, finish_id: fid, data };
                prop_assert_eq!(RtMsg::decode(m.encode()), m);
            }

            #[test]
            fn coll_payload_roundtrips(
                team in any::<u64>(),
                seq in any::<u64>(),
                phase in any::<u32>(),
                src in any::<u32>(),
                chunk in any::<u32>(),
                nchunks in any::<u32>(),
                data in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let m = RtMsg::CollPayload {
                    team_id: team,
                    seq,
                    phase,
                    src_idx: src,
                    chunk,
                    nchunks,
                    data,
                };
                prop_assert_eq!(RtMsg::decode(m.encode()), m);
            }
        }
    }
}
